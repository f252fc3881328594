"""Symbolic generators and linear combinations for the depth-reduction engine.

A generator over ambient variables z_1..z_N is a product of

  * Ber factors ber_k(z_{i,N}) (Bernoulli polynomial in log(-z_{i,N}),
    weight k >= 1, argument always running to the last variable), at most
    one per start index, and
  * Li factors Li_{n_1..n_s}(x_1..x_s) whose arguments are consecutive
    products z_{i,j} = z_i ... z_j, possibly inverted.

The canonical form demands the Li arguments, read left to right across all
factors, to be disjoint, totally ordered and inversion-free; intermediate
generators may carry inverted suffix arguments and (in closed formulas)
reversed argument orders.  The equations have integer coefficients in
this basis, so a ``LinComb`` holds ``int`` coefficients and raises
``ValueError`` on any non-integer that reaches it; the log-basis expansion
keeps exact Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, NamedTuple

from .rationals import SparseSum, ber_at_phase


class RewriteError(ValueError):
    pass


class ConsProd(NamedTuple):
    """Consecutive product z_{start} ... z_{end}, or its reciprocal."""

    start: int
    end: int
    inverted: bool = False

    def check(self, ambient: int) -> None:
        if not (1 <= self.start <= self.end <= ambient):
            raise ValueError(f"bad span {self} for ambient {ambient}")

    def text(self) -> str:
        core = "*".join(f"z{i}" for i in range(self.start, self.end + 1))
        return f"1/({core})" if self.inverted and self.end > self.start else (
            f"1/{core}" if self.inverted else core
        )


class LiFactor(NamedTuple):
    indices: tuple[int, ...]
    args: tuple[ConsProd, ...]

    @property
    def weight(self) -> int:
        return sum(self.indices)

    @property
    def depth(self) -> int:
        return len(self.indices)

    def has_inverted(self) -> bool:
        return any(a.inverted for a in self.args)


class Generator(NamedTuple):
    ambient: int
    bers: tuple[tuple[int, int], ...]  # sorted (start, weight), weight >= 1
    lis: tuple[LiFactor, ...]


def gen_weight(g: Generator) -> int:
    return sum(k for _, k in g.bers) + sum(f.weight for f in g.lis)


def gen_depth(g: Generator) -> int:
    return sum(f.depth for f in g.lis)


def gen_sort_key(g: Generator):
    return (
        gen_weight(g),
        gen_depth(g),
        g.bers,
        tuple((f.indices, tuple((a.start, a.end, a.inverted) for a in f.args)) for f in g.lis),
    )


def _li_order(f: LiFactor) -> tuple[int, int]:
    return f.args[0].start, f.args[0].end


def sorted_generator(ambient: int, bers: Iterable[tuple[int, int]], lis: Iterable[LiFactor]) -> Generator:
    """Generator from factors already known to be well formed (products of
    generators, rewrites of their factors): sorted only, with the one rule a
    product can break, one Ber factor per start index."""
    bs = tuple(sorted(bers))
    for (s1, _), (s2, _) in zip(bs, bs[1:]):
        if s1 == s2:
            raise RewriteError("two Ber factors with the same start index")
    return Generator(ambient, bs, tuple(sorted(lis, key=_li_order)))


def make_generator(ambient: int, bers: Iterable[tuple[int, int]], lis: Iterable[LiFactor]) -> Generator:
    """Generator from arbitrary factors, sorted and fully validated."""
    g = sorted_generator(ambient, bers, lis)
    for s, k in g.bers:
        if not (1 <= s <= ambient) or k < 1:
            raise ValueError(f"bad Ber factor ({s},{k}) for ambient {ambient}")
    for f in g.lis:
        if len(f.indices) != len(f.args) or not f.indices:
            raise ValueError(f"malformed Li factor {f}")
        if any(n < 1 for n in f.indices):
            raise ValueError(f"nonpositive Li index in {f}")
        for a in f.args:
            a.check(ambient)
    return g


def validate_generator(g: Generator, depth_bound: int, weight: int) -> bool:
    """Strict canonical-form check: Li argument spans disjoint, increasing,
    inversion-free; total depth <= depth_bound; total weight == weight."""
    if gen_weight(g) != weight or gen_depth(g) > depth_bound:
        return False
    for s, k in g.bers:
        if k < 1 or not (1 <= s <= g.ambient):
            return False
    prev_end = 0
    for f in g.lis:
        for a in f.args:
            if a.inverted:
                return False
            if not (prev_end < a.start <= a.end <= g.ambient):
                return False
            prev_end = a.end
    return True


def integer_coefficient(c) -> int:
    """c as an ``int``; ``ValueError`` unless it is an exact integer."""
    if type(c) is int:
        return c
    q = Fraction(c)
    if q.denominator != 1:
        raise ValueError(f"non-integer coefficient {c!r}")
    return q.numerator


class LinComb(SparseSum):
    """Integer linear combination of generators over one ambient list."""

    __slots__ = ("ambient",)
    sort_key = staticmethod(gen_sort_key)
    coerce = staticmethod(integer_coefficient)

    def __init__(self, ambient: int, terms: dict[Generator, int] | None = None) -> None:
        self.ambient = ambient
        SparseSum.__init__(self, terms)

    def _empty(self) -> "LinComb":
        return LinComb(self.ambient)

    def add_term(self, g: Generator, c) -> None:
        if g.ambient != self.ambient:
            raise ValueError("ambient mismatch")
        SparseSum.add_term(self, g, c)

    @staticmethod
    def single(g: Generator, c=1) -> "LinComb":
        return LinComb(g.ambient, {g: c})

    def mul_generator(self, h: Generator, c=1) -> "LinComb":
        """Product with a single generator (Ber starts must not collide)."""
        c = integer_coefficient(c)
        out = LinComb(self.ambient)
        for g, k in self.terms.items():
            out.add_term(generator_product(g, h), k * c)
        return out

    def max_depth(self) -> int:
        return max((gen_depth(g) for g in self.terms), default=0)

    def weights(self) -> set[int]:
        return {gen_weight(g) for g in self.terms}


def generator_product(g: Generator, h: Generator) -> Generator:
    if g.ambient != h.ambient:
        raise ValueError("ambient mismatch in product")
    return sorted_generator(g.ambient, g.bers + h.bers, g.lis + h.lis)


# ---------------------------------------------------------------------------
# local rewrite rules


def ber_generator(ambient: int, start: int, weight: int) -> Generator:
    return make_generator(ambient, [(start, weight)], [])


def li_generator(ambient: int, indices, args) -> Generator:
    return make_generator(ambient, [], [LiFactor(tuple(indices), tuple(args))])


def invert_depth1(n: int, arg: ConsProd, ambient: int) -> LinComb:
    """Replacement for the symbol Li_n(1/x):

        Li_n(1/x) = (-1)^n ( -Li_n(x) - ber_n(x) )

    The Ber factor requires x to run to the last ambient variable.
    """
    if arg.end != ambient:
        raise RewriteError(f"Ber factor argument {arg} must run to z_{ambient}")
    plain = ConsProd(arg.start, arg.end, False)
    sign = (-1) ** (n + 1)
    out = LinComb(ambient)
    out.add_term(li_generator(ambient, (n,), (plain,)), sign)
    out.add_term(ber_generator(ambient, plain.start, n), sign)
    return out


def stuffle_swap_depth2(n1: int, n2: int, a1: ConsProd, a2: ConsProd, ambient: int) -> LinComb:
    """Quasi-shuffle rewrite of the reversed symbol Li_{n2,n1}(x2, x1):

        Li_{n2,n1}(x2,x1) = Li_{n1}(x1) Li_{n2}(x2)
                            - Li_{n1,n2}(x1,x2) - Li_{n1+n2}(x1*x2)

    x1, x2 must be adjacent consecutive products (x1 immediately left of x2)
    so that x1*x2 is again a consecutive product.
    """
    if a1.inverted or a2.inverted:
        raise RewriteError("stuffle swap expects plain arguments")
    if a1.end + 1 != a2.start:
        raise RewriteError(f"arguments {a1}, {a2} are not adjacent")
    merged = ConsProd(a1.start, a2.end, False)
    out = LinComb(ambient)
    out.add_term(
        make_generator(ambient, [], [LiFactor((n1,), (a1,)), LiFactor((n2,), (a2,))]), 1
    )
    out.add_term(li_generator(ambient, (n1, n2), (a1, a2)), -1)
    out.add_term(li_generator(ambient, (n1 + n2,), (merged,)), -1)
    return out


# ---------------------------------------------------------------------------
# Ber -> log expansion


class LogGenerator(NamedTuple):
    """(i*pi)^ipi * prod log^{p}(-z_{start..N}) * prod Li factors."""

    ambient: int
    ipi: int
    logs: tuple[tuple[int, int], ...]  # (start, power), sorted, power >= 1
    lis: tuple[LiFactor, ...]


class LogExpansion(SparseSum):
    """Rational linear combination of log-basis generators."""

    __slots__ = ("ambient",)

    def __init__(self, ambient: int, terms: dict[LogGenerator, Fraction] | None = None) -> None:
        self.ambient = ambient
        SparseSum.__init__(self, terms)

    def _empty(self) -> "LogExpansion":
        return LogExpansion(self.ambient)


def _ber_log_pieces(k: int) -> list[tuple[int, int, Fraction]]:
    """ber_k(x) = sum over even j of c_j * (i*pi)^j * log^{k-j}(-x) with
    c_j = ber_at_phase(j, 1/2) / (k-j)!, so c_j (i*pi)^j = ber_j(-1) / (k-j)!
    (B_j(1/2) = 0 kills odd j)."""
    half = Fraction(1, 2)
    return [(j, k - j, ber_at_phase(j, half) / factorial(k - j)) for j in range(0, k + 1, 2)]


def expand_ber_to_logs(lc: LinComb) -> LogExpansion:
    """Equivalent expansion over (i*pi)^k0 * prod log^{k_i}(-z_{i,N}) * Li's.

    Powers of 2*pi*i appear as rational multiples of (i*pi)^j; even powers
    can be rendered as zeta(2)-powers at display time.
    """
    out = LogExpansion(lc.ambient)
    for g, coeff in lc.terms.items():
        pieces = [(0, (), coeff)]
        for start, k in g.bers:
            nxt = []
            for ipi, logs, c in pieces:
                for j, p, cj in _ber_log_pieces(k):
                    logs2 = logs + ((start, p),) if p else logs
                    nxt.append((ipi + j, logs2, c * cj))
            pieces = nxt
        for ipi, logs, c in pieces:  # g.bers is sorted with distinct starts
            out.add_term(LogGenerator(lc.ambient, ipi, logs, g.lis), c)
    return out


# ---------------------------------------------------------------------------
# serialization


def consprod_to_dict(a: ConsProd) -> dict:
    return {"start": a.start, "end": a.end, "inverted": a.inverted}


def lincomb_to_dict(lc: LinComb) -> dict:
    return {
        "ambient": lc.ambient,
        "terms": [
            {
                "coeff": str(c),
                "bers": [{"start": s, "weight": k} for s, k in g.bers],
                "lis": [
                    {
                        "indices": list(f.indices),
                        "args": [consprod_to_dict(a) for a in f.args],
                    }
                    for f in g.lis
                ],
            }
            for g, c in lc.sorted_items()
        ],
    }


def lincomb_from_dict(data: dict) -> LinComb:
    amb = data["ambient"]
    out = LinComb(amb)
    for t in data["terms"]:
        bers = [(b["start"], b["weight"]) for b in t["bers"]]
        lis = [
            LiFactor(
                tuple(f["indices"]),
                tuple(ConsProd(a["start"], a["end"], a["inverted"]) for a in f["args"]),
            )
            for f in t["lis"]
        ]
        coeff = t["coeff"]
        c = int(coeff) if isinstance(coeff, str) else None
        if c is None or str(c) != coeff:
            raise ValueError(f"coefficient {coeff!r} is not an integer as str() writes it")
        out.add_term(make_generator(amb, bers, lis), c)
    return out


def json_list(items: list[str], pad: str) -> str:
    """A JSON list as ``json.dumps(..., indent=1)`` lays it out after the
    indent ``pad``: the written ``items``, each already indented one space
    deeper, one to a line, or ``[]`` when there are none."""
    return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"


def json_ints(values, pad: str) -> str:
    """A list of ints as ``json.dumps(..., indent=1)`` lays it out after the
    indent ``pad``."""
    inner = pad + " "
    return json_list([inner + str(v) for v in values], pad)


def signed_sum_text(rows, latex: bool = False) -> str:
    """Render (coefficient, factor strings) rows as a signed sum: "0" when
    there are none, "1" for a row without factors, the first sign only
    when negative.  Plain text writes "c*f*g" and " - "; LaTeX writes
    "c f g" with integer or \\tfrac coefficients and " -"."""
    bits = []
    for c, factors in rows:
        mag = abs(c)
        if mag == 1:
            coeff = ""
        elif not latex:
            coeff = f"{mag}*"
        elif mag.denominator == 1:
            coeff = str(mag)
        else:
            coeff = f"\\tfrac{{{mag.numerator}}}{{{mag.denominator}}}"
        sign = "-" if c < 0 else "+"
        if bits:
            bits.append(f" {sign}" if latex else f" {sign} ")
        elif c < 0:
            bits.append(sign)
        bits.append(coeff + (" " if latex else "*").join(factors or ["1"]))
    return "".join(bits) or "0"


def lincomb_to_text(lc: LinComb) -> str:
    rows = []
    for g, c in lc.sorted_items():
        factors = [f"ber_{k}(" + ConsProd(s, g.ambient).text() + ")" for s, k in g.bers]
        for f in g.lis:
            idx = ",".join(map(str, f.indices))
            args = ", ".join(a.text() for a in f.args)
            factors.append(f"Li_{{{idx}}}({args})")
        rows.append((c, factors))
    return signed_sum_text(rows)


def _span_latex(a: ConsProd) -> str:
    core = (
        f"z_{{{a.start}}}"
        if a.start == a.end
        else " ".join(f"z_{{{i}}}" for i in range(a.start, a.end + 1))
    )
    return f"\\tfrac{{1}}{{{core}}}" if a.inverted else core


def lincomb_to_latex(lc: LinComb) -> str:
    rows = []
    for g, c in lc.sorted_items():
        factors = [
            f"\\operatorname{{ber}}_{{{k}}}\\!\\left({_span_latex(ConsProd(s, g.ambient))}\\right)"
            for s, k in g.bers
        ]
        for f in g.lis:
            idx = ",".join(map(str, f.indices))
            args = ", ".join(_span_latex(a) for a in f.args)
            factors.append(f"\\operatorname{{Li}}_{{{idx}}}\\!\\left({args}\\right)")
        rows.append((c, factors))
    return signed_sum_text(rows, latex=True)
