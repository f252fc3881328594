"""The four benchmark workloads.

A workload object is built in a fresh child process: its constructor makes
the inputs from the seed (the set-up), ``run_pass`` performs one timed pass
and ``check`` verifies what the passes produced.  Every call into the
program goes through a module attribute (``cli.main``, ``oracle.eval_czv``)
so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import mpmath as mp

from mplparity import cli, engine, oracle, roots, terms

import checks


class Pass(NamedTuple):
    wall_s: float  # perf_counter around the pass
    ops: int
    failed: int
    outputs: list


def run_cli(argv) -> tuple[int, str]:
    """Exit code and standard output of one CLI command, in process.  A
    command that raises counts as failed (code -1), with its traceback on
    standard error."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = -1
    return code, buf.getvalue()


def root_text(fracs) -> str:
    return ",".join(f"{f.numerator}/{f.denominator}" for f in fracs)


def conjugate(fracs) -> tuple:
    return tuple((-f) % 1 for f in fracs)


def czv_value(terms_: dict) -> mp.mpc:
    """Numeric value of a {term key: coefficient} map of root-of-unity
    symbols.  Depth-1 values come from mpmath directly; deeper ones from
    ``eval_czv``."""
    total = mp.mpc(0)
    for (ipi, ipow, factors), c in terms_.items():
        v = mp.mpf(c.numerator) / c.denominator * mp.mpc(0, 1) ** ipow
        v *= (mp.pi * mp.mpc(0, 1)) ** ipi
        for indices, root_texts, part in factors:
            fracs = [Fraction(r) for r in root_texts]
            if len(indices) == 1:
                k, f = indices[0], fracs[0]
                z = mp.expjpi(2 * mp.mpf(f.numerator) / f.denominator)
                fv = mp.zeta(k) if f == 0 else mp.polylog(k, z)
            else:
                fv = oracle.eval_czv(indices, fracs)
            v *= {"re": mp.re, "im": mp.im}.get(part, lambda x: x)(fv)
        total += v
    return total


def pli_sign(n) -> int:
    """PLi_n(z) = Li_n(z) - sign * Li_n(1/z)."""
    return (-1) ** (sum(n) - len(n))


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.dir = workdir

    def extra_layer_metrics(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# table


class Table(Workload):
    """``mplparity table --form canonical --format json`` on an empty cache
    (pass 0), then the same command on the cache pass 0 filled (pass 1)."""

    name = "table"
    MAX_WEIGHT = 5
    NUMERIC = ((1, 2), (2, 1), (1, 1, 1))
    TOL = 1e-10

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cache = workdir / "cache"
        self.ops = len(checks.compositions(self.MAX_WEIGHT))

    def run_pass(self, k: int) -> Pass:
        out = self.dir / f"table{k}.json"
        argv = ["table", "--max-weight", str(self.MAX_WEIGHT), "--form", "canonical",
                "--format", "json", "--cache", str(self.cache), "--out", str(out)]
        t0 = time.perf_counter()
        code, _ = run_cli(argv)
        wall = time.perf_counter() - t0
        if code != 0:
            return Pass(wall, self.ops, self.ops, [""])
        return Pass(wall, self.ops, 0, [out.read_text()])

    def extra_layer_metrics(self) -> dict:
        return {"cli.cache_store.bytes": sum(p.stat().st_size for p in self.cache.iterdir())}

    def check(self, passes, full: bool):
        cold, warm = passes[0].outputs[0], passes[1].outputs[0]
        if not cold:
            return [], None
        errors = checks.check_table(cold, self.MAX_WEIGHT)
        if warm != cold:
            errors.append("warm-cache table differs from the cold one")
        if not full or errors:
            return errors, None
        table = {tuple(eq["index"]): eq for eq in json.loads(cold)}
        errors += self.check_closed_forms(table)
        worst = 0.0
        ctx = oracle.EvalContext(dps=30)
        for n in self.NUMERIC:
            eq = terms.lincomb_from_dict(table[n])
            report = oracle.verify_feq(n, eq, 1, self.TOL, ctx)
            worst = max(worst, report.max_error)
        if worst > self.TOL:
            errors.append(f"canonical equations fail numerically: error {worst:.3e}")
        return errors, checks.margin_digits(self.TOL, worst)

    @staticmethod
    def check_closed_forms(table) -> list[str]:
        """The closed depth-2 and depth-3 formulas, canonicalized by a fresh
        engine, equal the table's canonical equations."""
        fresh = engine.Engine()
        errors = []
        for n, eq in table.items():
            if len(n) == 2:
                closed = fresh.pli_depth2_closed(*n)
            elif len(n) == 3:
                closed = fresh.pli_depth3_closed(*n)
            else:
                continue
            ref = fresh.canonicalize(closed.equation)
            errors += checks.compare(
                f"closed form {n}", checks.lincomb_terms(eq),
                {checks.generator_key(g): Fraction(c) for g, c in ref.terms.items()})
        return errors


# ---------------------------------------------------------------------------
# verify


class Verify(Workload):
    """``mplparity verify`` of every equation up to a weight, by quadrature."""

    name = "verify"
    MAX_WEIGHT = 2
    SAMPLES = 1
    PREC = 30

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.ops = len(checks.compositions(self.MAX_WEIGHT))

    def run_pass(self, k: int) -> Pass:
        argv = ["verify", "--max-weight", str(self.MAX_WEIGHT), "--samples", str(self.SAMPLES),
                "--prec", str(self.PREC), "--format", "json"]
        t0 = time.perf_counter()
        code, text = run_cli(argv)
        wall = time.perf_counter() - t0
        if code not in (0, 1):  # 1: some equation failed, which the check reports
            return Pass(wall, self.ops, self.ops, [{}])
        return Pass(wall, self.ops, 0, [json.loads(text)])

    def check(self, passes, full: bool):
        doc = passes[0].outputs[0]
        if not doc:
            return [], None
        errors = checks.check_verify(doc, self.MAX_WEIGHT, self.SAMPLES)
        if passes[1].outputs[0] != doc:
            errors.append("second verify pass reports different numbers")
        worst = max((r["max_error"] for r in doc["reports"]), default=float("inf"))
        tol = doc.get("tolerance", 0.0)
        if full and not errors:
            errors += self.check_quadrature(doc)
        return errors, checks.margin_digits(tol, worst)

    def check_quadrature(self, doc) -> list[str]:
        """Depth-1 quadrature values agree with mpmath.polylog at the points
        the reports were sampled at."""
        ctx = oracle.EvalContext(dps=self.PREC)
        errors = []
        with mp.workdps(self.PREC + 10):
            for r in doc["reports"]:
                if len(r["index"]) != 1:
                    continue
                n = r["index"][0]
                for c in r["checks"]:
                    z = oracle.sample_domain_point(1, c["seed"]).z
                    got = oracle.eval_li_inverse((n,), z, ctx.integrator).value
                    errors += checks.check_close(
                        f"quadrature Li_{n}(1/z) at seed {c['seed']}", got,
                        mp.polylog(n, 1 / z[0]), 1e-20)
        return errors


# ---------------------------------------------------------------------------
# reduce


REDUCE_NS = (2, 3, 4, 6)
REDUCE_UNITY = ((1, 1, 2), (1, 2, 3), (2, 2, 2))
CZV_TOL = 1e-25


class Reduce(Workload):
    """``mplparity reduce --format json``, in process, at roots of unity.

    Each depth-3 index of weight <= 6 and depth-4 index of weight <= 5
    gets one tuple of N-th roots (N in 2, 3, 4, 6) from a fixed generator;
    the seed chooses for each tuple whether to use it or its complex
    conjugate, which costs the same.  Depth-2 indices of odd weight <= 7 run at signs drawn from the
    seed, and three even-weight depth-3 indices at unity feed a numeric
    spot check.  The seed also shuffles the order."""

    name = "reduce"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        base = random.Random("perfbench:reduce")
        rng = random.Random(seed)
        cases = []
        for n in checks.compositions(6):
            if not (len(n) == 3 or len(n) == 4 and sum(n) <= 5):
                continue
            N = base.choice(REDUCE_NS)
            while True:
                fr = tuple(Fraction(base.randrange(N), N) for _ in n)
                if not (n[-1] == 1 and fr[-1] == 0):
                    break
            cases.append((n, conjugate(fr) if rng.random() < 0.5 else fr))
        for n in checks.compositions(7):
            if len(n) == 2 and sum(n) % 2:
                while True:
                    fr = (Fraction(rng.randrange(2), 2), Fraction(rng.randrange(2), 2))
                    if not (n[-1] == 1 and fr[-1] == 0):
                        break
                cases.append((n, fr))
        cases += [(n, (Fraction(0),) * 3) for n in REDUCE_UNITY]
        rng.shuffle(cases)
        self.cases = cases

    def run_pass(self, k: int) -> Pass:
        outputs, failed = [], 0
        t0 = time.perf_counter()
        for n, fr in self.cases:
            code, text = run_cli(["reduce", ",".join(map(str, n)), "--roots", root_text(fr),
                                  "--format", "json"])
            failed += code != 0
            outputs.append(text if code == 0 else "")
        wall = time.perf_counter() - t0
        return Pass(wall, len(self.cases), failed, outputs)

    def check(self, passes, full: bool):
        errors = []
        if passes[1].outputs != passes[0].outputs:
            errors.append("second reduce pass printed different output")
        spot = []
        for (n, fr), text in zip(self.cases, passes[0].outputs):
            if not text:
                continue
            doc = checks.parse_reduce(text)
            errors += checks.check_reduce(doc, n)
            if len(n) == 2:
                errors += self.check_signs(n, fr, checks.czv_terms(doc))
            elif all(f == 0 for f in fr):
                spot.append((n, checks.czv_terms(doc)))
        if not full or errors:
            return errors, None
        worst = 0.0
        with mp.workdps(40):
            for n, got in spot:
                value = czv_value(got)
                lhs = 2 * oracle.eval_czv(n, (0, 0, 0))
                closed = 2 * czv_value(checks.combination_terms(roots.reduce_mzv_depth3(*n)))
                worst = max(worst, float(abs(value - lhs)), float(abs(value - closed)))
        if worst > CZV_TOL:
            errors.append(f"unity specializations fail numerically: error {worst:.3e}")
        return errors, checks.margin_digits(CZV_TOL, worst)

    @staticmethod
    def check_signs(n, fr, got) -> list[str]:
        """At signs, PLi_n = 2 Li_n(s1, s2): the closed alternating form,
        and at (1, 1) the closed MZV reduction as well."""
        s1, s2 = (1 if f == 0 else -1 for f in fr)
        tag = f"{n} at {root_text(fr)}"
        ref = roots.normalize_czv(roots.alt_depth2(n[0], n[1], s1, s2).scale(2))
        errors = checks.compare(tag + " vs alt_depth2", got, checks.combination_terms(ref))
        if s1 == s2 == 1:
            ref = roots.normalize_czv(roots.reduce_mzv_depth2(*n).scale(2))
            errors += checks.compare(tag + " vs reduce_mzv_depth2", got,
                                     checks.combination_terms(ref))
        return errors


# ---------------------------------------------------------------------------
# czv


CZV_CASES = (
    ((3, 2), (Fraction(1, 4), Fraction(1, 4))),   # peel2, Abel-summed remainder
    ((1, 4), (Fraction(1, 6), Fraction(5, 6))),   # peel2 with y1*y2 = 1
    ((2, 4), (Fraction(0), Fraction(1, 3))),      # Abel
    ((2, 3), (Fraction(0), Fraction(0))),         # Euler-Maclaurin, depth 2
    ((3, 1, 2), (Fraction(0),) * 3),              # Euler-Maclaurin, depth 3
)


class Czv(Workload):
    """Numeric certification of specializations at roots of unity.

    For each case the specialized side is evaluated by
    ``eval_czv_combination`` and the parity combination
    Li_n(z) - sign Li_n(1/z) by ``eval_czv`` at depth d.  The cases are
    fixed; the seed chooses for each whether to use the roots or their
    complex conjugates, which costs the same, and shuffles the order.  The
    exact specializations are inputs and are made during set-up."""

    name = "czv"
    DPS = 30

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        cases = [(n, conjugate(fr) if rng.random() < 0.5 else fr) for n, fr in CZV_CASES]
        rng.shuffle(cases)
        self.cases = []
        for n, fr in cases:
            rts = tuple(roots.RootOfUnity.make(f.numerator, f.denominator) for f in fr)
            spec = roots.specialize(engine.ENGINE.pli(n, "canonical"), rts)
            self.cases.append((n, fr, spec))

    def run_pass(self, k: int) -> Pass:
        outputs, failed = [], 0
        t0 = time.perf_counter()
        for n, fr, spec in self.cases:
            try:
                value = roots.eval_czv_combination(spec, dps=self.DPS)
                with mp.workdps(self.DPS + 10):
                    lhs = oracle.eval_czv(n, fr) - pli_sign(n) * oracle.eval_czv(n, conjugate(fr))
            except Exception:
                traceback.print_exc()
                value = lhs = None
                failed += 1
            outputs.append((value, lhs))
        wall = time.perf_counter() - t0
        return Pass(wall, len(self.cases), failed, outputs)

    def check(self, passes, full: bool):
        errors = []
        worst = 0.0
        for (n, fr, spec), (value, lhs), (value2, _) in zip(
                self.cases, passes[0].outputs, passes[1].outputs):
            if value is None:
                continue
            tag = f"{n} at {root_text(fr)}"
            worst = max(worst, float(abs(value - lhs)))
            errors += checks.check_close(tag + " second pass", value2, value, CZV_TOL)
            if full:
                errors += self.check_references(tag, n, fr, spec, value, lhs)
        if worst > CZV_TOL:
            errors.append(f"specialized and parity sides differ by {worst:.3e}")
        return errors, checks.margin_digits(CZV_TOL, worst)

    @staticmethod
    def check_references(tag, n, fr, spec, value, lhs) -> list[str]:
        """References off the timed path: the specialized side with depth-1
        values from mpmath, and at unity the closed MZV reductions."""
        errors = []
        with mp.workdps(Czv.DPS + 10):
            own = czv_value(checks.combination_terms(spec))
            errors += checks.check_close(tag + " vs mpmath depth-1 values", value, own, CZV_TOL)
            if all(f == 0 for f in fr) and len(n) == 2 and sum(n) % 2:
                closed = czv_value(checks.combination_terms(roots.reduce_mzv_depth2(*n)))
                errors += checks.check_close(tag + " vs reduce_mzv_depth2", lhs, 2 * closed, CZV_TOL)
            if all(f == 0 for f in fr) and len(n) == 3 and sum(n) % 2 == 0:
                closed = czv_value(checks.combination_terms(roots.reduce_mzv_depth3(*n)))
                errors += checks.check_close(tag + " vs reduce_mzv_depth3", lhs, 2 * closed, CZV_TOL)
        return errors


WORKLOADS = {w.name: w for w in (Table, Verify, Reduce, Czv)}


def probe(workdir: Path) -> None:
    """One small call into every traced layer, so that in a traced run each
    per-layer metric is measured on every workload, including layers the
    workload itself bypasses."""
    e = engine.Engine()
    res = e.pli((1, 2), "canonical")
    cache = cli.EquationCache(workdir / "probe-cache")
    cache.store(res)
    cache.load(res.index, res.form)
    cli.render_pli(res, "json")
    one = roots.RootOfUnity.make(0, 1)
    roots.eval_czv_combination(roots.specialize(res, (one, one)), dps=20)
    roots.regularized_limit_factor((2, 1), (one, one))
    with mp.workdps(20):
        for fr in ((0, 0), (0, Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 3))):
            oracle.eval_czv((1, 2), fr)
    integrator = oracle.HyperlogIntegrator(15, order=8)
    oracle.eval_li_series((2,), [0.5j])
    oracle.eval_li_inverse((1, 2), [0.5j, 0.6j], integrator)
