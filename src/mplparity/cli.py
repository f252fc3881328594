"""Command-line front end.

Index vectors are comma-separated with n_1 the innermost summation index
(the series runs over 0 < k_1 < ... < k_d), so `feq 1,2` computes the
depth reduction of Li_{1,2}.  Roots of unity are entered as reduced
fractions k/N of the phase, never as floating point: 0/1 is 1, 1/2 is -1,
1/4 is i.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .engine import ENGINE, PliResult
from .oracle import EvalContext, verify_feq
from .roots import (
    CzvCombination,
    DivergentHeadError,
    RootOfUnity,
    alt_depth2,
    czv_to_json,
    czv_to_latex,
    czv_to_text,
    reduce_mzv_depth2,
    reduce_mzv_depth3,
    specialize,
)
from .rationals import bernoulli_number, bernoulli_polynomial
from .terms import lincomb_to_latex, lincomb_to_text

CACHE_ENV = "MPLPARITY_CACHE"


def parse_index(text: str) -> tuple[int, ...]:
    try:
        idx = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise SystemExit(f"cannot parse index vector {text!r}: expected n1,n2,...")
    if not idx or any(n < 1 for n in idx):
        raise SystemExit(f"index entries must be positive integers, got {text!r}")
    return idx


def parse_roots(text: str, depth: int) -> tuple[RootOfUnity, ...]:
    roots = []
    for part in text.split(","):
        try:
            k, n = part.split("/")
            roots.append(RootOfUnity.make(int(k), int(n)))
        except (ValueError, ZeroDivisionError):
            raise SystemExit(f"cannot parse root {part!r}: expected k/N")
    if len(roots) != depth:
        raise SystemExit(f"need {depth} roots, got {len(roots)}")
    return tuple(roots)


# ---------------------------------------------------------------------------
# equation cache


class EquationCache:
    """Directory of equation documents, one file per engine version, form
    and index vector; files of another version are never read."""

    def __init__(self, directory: str | Path) -> None:
        self.dir = Path(directory)

    def entry(self, index, form: str) -> Path:
        return self.dir / f"pli_{__version__}_{form}_{'_'.join(map(str, index))}.json"

    def load(self, index, form: str) -> PliResult | None:
        try:
            text = self.entry(index, form).read_text()
        except (OSError, UnicodeDecodeError):
            return None
        return PliResult.from_document(text, index, form)

    def store(self, result: PliResult) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self.entry(result.index, result.form)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(result.json_text)
        tmp.replace(path)


def get_cache(args) -> EquationCache | None:
    directory = args.cache or os.environ.get(CACHE_ENV)
    return EquationCache(directory) if directory else None


def compute_pli(index, form: str, cache: EquationCache | None) -> PliResult:
    if cache is not None:
        got = cache.load(index, form)
        if got is not None:
            return got
    result = ENGINE.pli(index, form)
    if cache is not None:
        cache.store(result)
    return result


# ---------------------------------------------------------------------------
# rendering


def render_pli(result: PliResult, fmt: str) -> str:
    if fmt == "text":
        name = "PLi(" + ",".join(map(str, result.index)) + ")"
        return f"{name} = " + lincomb_to_text(result.equation)
    if fmt == "latex":
        idx = ",".join(map(str, result.index))
        args = ", ".join(f"z_{{{i}}}" for i in range(1, len(result.index) + 1))
        return (
            f"\\operatorname{{PLi}}_{{{idx}}}({args}) = "
            + lincomb_to_latex(result.equation)
        )
    return result.json_text


def render_czv(c: CzvCombination, fmt: str, **extra) -> str:
    if fmt == "text":
        return czv_to_text(c)
    if fmt == "latex":
        return czv_to_latex(c)
    return czv_to_json(c, **extra)


# ---------------------------------------------------------------------------
# subcommands


def cmd_feq(args) -> int:
    index = parse_index(args.index)
    result = compute_pli(index, args.form, get_cache(args))
    print(render_pli(result, args.format))
    if args.verify:
        ctx = EvalContext(dps=args.prec)
        report = verify_feq(index, result.equation, args.samples, args.tol, ctx)
        line = (
            f"verify {index}: max_err={report.max_error:.3e} "
            f"tol={report.tolerance:.1e} {'PASS' if report.passed else 'FAIL'}"
        )
        print(line)
        if not report.passed:
            return 1
    return 0


def cmd_reduce(args) -> int:
    index = parse_index(args.index)
    roots = parse_roots(args.roots, len(index))
    cache = get_cache(args)
    try:
        result = compute_pli(index, "canonical", cache)
        combo = specialize(result, roots)
    except DivergentHeadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "convergence requires (n_d, z_d) != (1, 1) for the last index/root",
            file=sys.stderr,
        )
        return 2
    name = "PLi(" + ",".join(map(str, index)) + ")(" + args.roots + ")"
    print(f"{name} = " + render_czv(combo, args.format, index=list(index)))
    if args.closed_form:
        w = sum(index)
        closed = None
        if len(index) == 2 and all(r.is_one() for r in roots) and w % 2 and index[1] >= 2:
            closed = reduce_mzv_depth2(*index)
            label = "zeta(" + ",".join(map(str, index)) + ")"
        elif len(index) == 3 and all(r.is_one() for r in roots) and w % 2 == 0 and index[2] >= 2:
            closed = reduce_mzv_depth3(*index)
            label = "zeta(" + ",".join(map(str, index)) + ")"
        elif len(index) == 2 and all(r.N <= 2 for r in roots) and w % 2:
            signs = [1 if r.is_one() else -1 for r in roots]
            closed = alt_depth2(index[0], index[1], *signs)
            label = "Li_{" + ",".join(map(str, index)) + "}(" + args.roots + ")"
        if closed is None:
            print("closed form: not applicable for this index/root pattern")
        else:
            print(f"closed form {label} = " + render_czv(closed, args.format))
    return 0


def _compositions(w: int):
    for bits in range(1 << (w - 1)):
        parts, cur = [], 1
        for b in range(w - 1):
            if bits & (1 << b):
                parts.append(cur)
                cur = 1
            else:
                cur += 1
        parts.append(cur)
        yield tuple(parts)


def all_indices(max_weight: int):
    for w in range(1, max_weight + 1):
        yield from sorted(_compositions(w))


def cmd_verify(args) -> int:
    cache = get_cache(args)
    ctx = EvalContext(dps=args.prec)
    reports = []
    failed = 0
    for index in all_indices(args.max_weight):
        result = compute_pli(index, "compact", cache)
        report = verify_feq(index, result.equation, args.samples, args.tol, ctx)
        reports.append(report)
        if not report.passed:
            failed += 1
        if args.format != "json":
            print(
                f"{','.join(map(str, index)):>12}  max_err={report.max_error:.3e}  "
                f"{'PASS' if report.passed else 'FAIL'}"
            )
    if args.format == "json":
        print(json.dumps({
            "max_weight": args.max_weight,
            "samples": args.samples,
            "tolerance": args.tol,
            "failed": failed,
            "reports": [r.to_dict() for r in reports],
        }, indent=1))
    else:
        worst = max(r.max_error for r in reports)
        print(f"{len(reports)} equations, worst error {worst:.3e}, "
              f"{'all passed' if failed == 0 else f'{failed} FAILED'}")
    return 1 if failed else 0


def cmd_table(args) -> int:
    cache = get_cache(args)
    blocks = []
    for index in all_indices(args.max_weight):
        result = compute_pli(index, args.form, cache)
        blocks.append(render_pli(result, args.format))
    if args.format == "json":
        body = "[\n" + ",\n".join(blocks) + "\n]\n"
    else:
        body = "\n\n".join(blocks) + "\n"
    if args.out:
        Path(args.out).write_text(body)
        print(f"wrote {len(blocks)} equations to {args.out}")
    else:
        sys.stdout.write(body)
    return 0


def cmd_bernoulli(args) -> int:
    if args.polynomial:
        print(repr(bernoulli_polynomial(args.n)))
    else:
        print(bernoulli_number(args.n))
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="mplparity",
        description=(
            "Depth reductions of multiple polylogarithms: exact parity "
            "functional equations, specializations at roots of unity, and "
            "numerical certification."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_form=True):
        p.add_argument("--format", choices=("text", "latex", "json"), default="text")
        if with_form:
            p.add_argument("--form", choices=("compact", "canonical"), default="compact")
        p.add_argument("--cache", default=None, help=f"equation cache directory (or ${CACHE_ENV})")

    def numeric(p):
        p.add_argument("--prec", type=int, default=50, help="working precision digits")
        p.add_argument("--tol", type=float, default=1e-10, help="verification tolerance")
        p.add_argument("--samples", type=int, default=5, help="verification sample points")

    p = sub.add_parser("feq", help="compute the functional equation for one index")
    p.add_argument("index", help="comma-separated index vector, n_1 first")
    p.add_argument("--verify", action="store_true", help="certify numerically")
    common(p)
    numeric(p)
    p.set_defaults(func=cmd_feq)

    p = sub.add_parser("reduce", help="specialize an equation at roots of unity")
    p.add_argument("index")
    p.add_argument("--roots", required=True, help="comma-separated phases k/N")
    p.add_argument("--closed-form", action="store_true",
                   help="also print the applicable closed-form reduction")
    common(p, with_form=False)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="verify all equations up to a weight bound")
    p.add_argument("--max-weight", type=int, required=True)
    common(p, with_form=False)
    numeric(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="emit all equations up to a weight bound")
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("bernoulli", help="print a Bernoulli number or polynomial")
    p.add_argument("n", type=int)
    p.add_argument("--polynomial", action="store_true")
    p.set_defaults(func=cmd_bernoulli)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "prec", 50) < 30:
        raise SystemExit("--prec must be at least 30")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
