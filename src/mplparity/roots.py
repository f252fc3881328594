"""Specialization of the functional equations at roots of unity.

Substituting exact roots exp(2 pi i k/N) into a canonical equation turns
Ber factors into rational multiples of (i*pi)^k (upper-half-plane branch
for the limit onto the cut, so log(-1) = -i*pi) and each Li factor into
either its convergent value or its shuffle-regularized limit.  The result
is a combination of symbols

    coeff * i^a * (i*pi)^p * prod Li_{m}(roots)

with exact rational coefficients.  Closed-form depth reductions for MZVs,
alternating sums and the even-weight relations are instantiated directly.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple

from .rationals import SparseSum, ber_at_phase, bernoulli_polynomial, binom, signed_binomial
from .terms import ConsProd, LiFactor, signed_sum_text
from . import words


class DivergentHeadError(ValueError):
    pass


class RootOfUnity(NamedTuple):
    """exp(2 pi i * k / N), stored reduced with 0 <= k < N."""

    k: int
    N: int

    @staticmethod
    def make(k: int, N: int) -> "RootOfUnity":
        if N <= 0:
            raise ValueError("N must be positive")
        k %= N
        g = gcd(k, N)
        return RootOfUnity(k // g, N // g)

    def phase(self) -> Fraction:
        return Fraction(self.k, self.N)

    def is_one(self) -> bool:
        return self.k == 0

    def mul(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity.make(self.k * other.N + other.k * self.N, self.N * other.N)

    def inv(self) -> "RootOfUnity":
        return RootOfUnity.make(-self.k, self.N)

    def text(self) -> str:
        return {Fraction(0): "1", Fraction(1, 2): "-1", Fraction(1, 4): "i",
                Fraction(3, 4): "-i"}.get(self.phase(), f"e(2pi i {self.k}/{self.N})")


ONE_ROOT = RootOfUnity(0, 1)
MINUS_ONE = RootOfUnity(1, 2)
IMAG_I = RootOfUnity(1, 4)
MINUS_I = RootOfUnity(3, 4)


class CzvFactor(NamedTuple):
    """A single Li_{indices}(roots) value; ``part`` marks a real or
    imaginary projection introduced by the rendering helpers."""

    indices: tuple[int, ...]
    roots: tuple[RootOfUnity, ...]
    part: str = ""  # "", "re", "im"

    @property
    def weight(self) -> int:
        return sum(self.indices)


class CzvTerm(NamedTuple):
    ipi: int          # power of (i*pi)
    ipow: int         # extra power of i (mod 4), used by re/im renderings
    factors: tuple[CzvFactor, ...]

    @property
    def weight(self) -> int:
        return self.ipi + sum(f.weight for f in self.factors)


def _factor_key(f: CzvFactor):
    return (f.weight, len(f.indices), f.indices, tuple((r.k, r.N) for r in f.roots), f.part)


def make_term(ipi: int, ipow: int, factors: Iterable[CzvFactor]) -> CzvTerm:
    return CzvTerm(ipi, ipow % 4, tuple(sorted(factors, key=_factor_key)))


def _term_key(t: CzvTerm):
    return (t.weight, t.ipi, t.ipow, tuple(_factor_key(f) for f in t.factors))


class CzvCombination(SparseSum):
    """Rational linear combination of root-of-unity polylogarithm symbols."""

    __slots__ = ()
    sort_key = staticmethod(_term_key)
    # Bound in this class's own namespace so that a wrapper installed on
    # CzvCombination.add_term (perfbench/tracer.py does) sees every call.
    add_term = SparseSum.add_term

    @staticmethod
    def constant(c) -> "CzvCombination":
        out = CzvCombination()
        out.add_term(make_term(0, 0, ()), c)
        return out

    @staticmethod
    def symbol(indices, roots, c=1) -> "CzvCombination":
        out = CzvCombination()
        out.add_term(make_term(0, 0, (CzvFactor(tuple(indices), tuple(roots)),)), c)
        return out

    def mul(self, other: "CzvCombination") -> "CzvCombination":
        out = CzvCombination()
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                out.add_term(
                    make_term(t1.ipi + t2.ipi, t1.ipow + t2.ipow, t1.factors + t2.factors),
                    c1 * c2,
                )
        return out

    def weights(self) -> set[int]:
        return {t.weight for t in self.terms}

    def max_depth(self) -> int:
        return max((sum(len(f.indices) for f in t.factors) for t in self.terms), default=0)


# ---------------------------------------------------------------------------
# exact Ber values at roots


def ber_at_root(k: int, zeta: RootOfUnity) -> tuple[Fraction, int]:
    """ber_k at a root of unity, as (rational, power) with value
    rational * (i*pi)^power.

    The rational is ``ber_at_phase(k, j/N)`` = 2^k B_k(j/N) / k!.
    """
    return ber_at_phase(k, zeta.phase()), k


# ---------------------------------------------------------------------------
# regularized limits (trailing argument -> 1)


def _root_div(a: RootOfUnity, b: RootOfUnity) -> RootOfUnity:
    return a.mul(b.inv())


def regularized_limit_factor(m, roots) -> CzvCombination:
    """Value of Li_m at the given roots: the plain (convergent) value as a
    symbol, or, when the trailing entry is (1, 1), the constant coefficient
    of the log-power expansion, computed by the reversed deconcatenation
    identity on the iterated-integral word."""
    m = tuple(int(x) for x in m)
    roots = tuple(roots)
    s = len(m)
    if s == 0:
        return CzvCombination.constant(1)
    if not (m[-1] == 1 and roots[-1].is_one()):
        return CzvCombination.symbol(m, roots)
    word = words.li_to_word(m, [r.inv() for r in roots], RootOfUnity.mul)
    one_letter = words.sigma(ONE_ROOT)
    r = 0
    while r < len(word) and word[r] == one_letter:
        r += 1
    if r == len(word):
        return CzvCombination()
    tau = word[r]
    tail = word[r + 1:]
    out = CzvCombination()
    for w, c in words.shuffle(tail, (one_letter,) * r).terms.items():
        indices, letter_args = words.word_to_li((tau,) + w, _root_div)
        final_roots = tuple(a.inv() for a in letter_args)
        if indices[-1] == 1 and final_roots[-1].is_one():
            raise DivergentHeadError("regularization produced a divergent symbol")
        out.add_term(
            make_term(0, 0, (CzvFactor(tuple(indices), final_roots),)),
            Fraction(c) * (-1) ** r,
        )
    return out


# ---------------------------------------------------------------------------
# specialization of a functional equation


def _span_root(a: ConsProd, roots) -> RootOfUnity:
    acc = ONE_ROOT
    for i in range(a.start, a.end + 1):
        acc = acc.mul(roots[i - 1])
    return acc.inv() if a.inverted else acc


def _substitute(items, rewrite) -> CzvCombination:
    """Sum of the (term, coeff) items, a term being (ipi, ipow, factors), with
    each factor replaced by ``rewrite(factor)``, a list of such items; each
    distinct factor is rewritten once per call."""
    memo: dict = {}
    out = CzvCombination()
    for (ipi, ipow, factors), coeff in items:
        partial = [(ipi, ipow, (), coeff)]
        for f in factors:
            pieces = memo.get(f)
            if pieces is None:
                pieces = memo[f] = rewrite(f)
            partial = [
                (p + pp, q + pq, fs + pfs, c * pc)
                for p, q, fs, c in partial
                for (pp, pq, pfs), pc in pieces
            ]
        for p, q, fs, c in partial:
            out.add_term(make_term(p, q, fs), c)
    return out


def specialize(result, roots) -> CzvCombination:
    """Specialize a PliResult at roots of unity.  The head divergence
    (n_d, zeta_d) = (1, 1) is rejected; the equation is canonicalized
    first so every factor has plain ordered arguments.  One substitution
    pass then puts in each Ber factor's exact (i*pi)-power value and each
    Li factor's normalized regularized limit, once per distinct value."""
    from .engine import ENGINE

    roots = tuple(roots)
    index = tuple(result.index)
    if index[-1] == 1 and roots[-1].is_one():
        raise DivergentHeadError(
            f"PLi_{index} diverges at these roots: trailing (n_d, z_d) = (1, 1)"
        )
    eq = result.equation if result.form == "canonical" else ENGINE.canonicalize(result.equation)
    if len(roots) != eq.ambient:
        raise ValueError("one root per ambient variable required")
    values: dict = {}  # spans whose root products agree share one value

    def rewrite(f):
        if not isinstance(f, LiFactor):
            s, k = f
            return [((k, 0, ()), ber_at_root(k, _span_root(ConsProd(s, eq.ambient), roots))[0])]
        key = (f.indices, tuple(_span_root(a, roots) for a in f.args))
        if key not in values:
            values[key] = list(normalize_czv(regularized_limit_factor(*key)).terms.items())
        return values[key]

    return _substitute((((0, 0, g.bers + g.lis), c) for g, c in eq.terms.items()), rewrite)


# ---------------------------------------------------------------------------
# normalization


def _normal_factor(f: CzvFactor):
    if f.part or len(f.indices) != 1:
        return [((0, 0, (f,)), 1)]
    k = f.indices[0]
    root = f.roots[0]
    coeff = Fraction(1)
    if root == MINUS_ONE and k >= 2:
        coeff = -(1 - Fraction(2) ** (1 - k))
        root = ONE_ROOT
    if root == ONE_ROOT and k >= 2 and k % 2 == 0:
        return [((k, 0, ()), coeff * (-ber_at_phase(k, 0) / 2))]  # zeta(k) = -ber_k(1)/2
    return [((0, 0, (CzvFactor((k,), (root,)),)), coeff)]


def normalize_czv(c: CzvCombination) -> CzvCombination:
    """Canonical form: Li at -1 rewritten through zeta values where exact
    (Li_k(-1) = -(1-2^{1-k}) zeta(k), k >= 2), and even zeta values folded
    into (i*pi)-powers so depth-0 parts compare exactly."""
    return _substitute(c.terms.items(), _normal_factor)


def _real_imag_factor(f: CzvFactor):
    if f.part or len(f.indices) != 1 or f.roots[0] in (ONE_ROOT, MINUS_ONE):
        return [((0, 0, (f,)), 1)]
    k = f.indices[0]
    root = f.roots[0]
    bcoeff, bp = ber_at_root(k, root)
    part, ipow = ("im", 1) if k % 2 == 0 else ("re", 0)
    return [((bp, 0, ()), -bcoeff / 2), ((0, ipow, (CzvFactor((k,), (root,), part),)), 1)]


def render_real_imag(c: CzvCombination) -> CzvCombination:
    """Split depth-1 factors at non-real roots into real/imaginary symbols,
    folding the parity-reducible half into (i*pi)-powers:

      k even:  Li_k(z) = -ber_k(z)/2 + i Im Li_k(z)
      k odd:   Li_k(z) =  Re Li_k(z) - ber_k(z)/2
    """
    return _substitute(c.terms.items(), _real_imag_factor)


# ---------------------------------------------------------------------------
# closed-form depth reductions at unity


def _zeta_factor(k: int) -> CzvFactor:
    return CzvFactor((k,), (ONE_ROOT,))


def _mzv_factor(ms) -> CzvFactor:
    ms = tuple(ms)
    return CzvFactor(ms, (ONE_ROOT,) * len(ms))


def _mzv_depth2_relation(n1: int, n2: int, k_start: int, last: Fraction) -> CzvCombination:
    """sum over k >= k_start, k = w mod 2, of the zeta(w-k) zeta(k) terms
    of the depth-2 relation for zeta(n1, n2), plus last * zeta(w)."""
    w = n1 + n2
    out = CzvCombination()
    for k in range(k_start, w + 1):
        if (w - k) % 2:
            continue
        s2 = w - k
        coeff = Fraction((-1) ** n1) * (
            binom(k - 1, n1 - 1) + binom(k - 1, n2 - 1) - (1 if k == n1 else 0)
        )
        if coeff == 0:
            continue
        if s2 == 0:
            out.add_term(make_term(0, 0, (_zeta_factor(k),)), coeff * Fraction(-1, 2))
        else:
            out.add_term(make_term(0, 0, (_zeta_factor(s2), _zeta_factor(k))), coeff)
    out.add_term(make_term(0, 0, (_zeta_factor(w),)), last)
    return out


def reduce_mzv_depth2(n1: int, n2: int) -> CzvCombination:
    """zeta(n1, n2) for odd weight, n2 >= 2, as a zeta(2s) zeta(k) bilinear
    combination minus zeta(w)/2."""
    if (n1 + n2) % 2 == 0:
        raise ValueError("even weight: use the even-weight relation instead")
    if n2 < 2:
        raise ValueError("n2 >= 2 required for a convergent zeta")
    return _mzv_depth2_relation(n1, n2, 3, Fraction(-1, 2))


def mzv_depth2_even_relation(n1: int, n2: int) -> CzvCombination:
    """The even-weight combination that vanishes identically."""
    if (n1 + n2) % 2:
        raise ValueError("this relation is for even weight")
    return _mzv_depth2_relation(n1, n2, 2, Fraction(1, 2))


def _zeta2s_coeff(s2: int) -> tuple[Fraction, tuple[CzvFactor, ...]]:
    """zeta(2s) slot: zeta(0) = -1/2 folds into the coefficient."""
    if s2 == 0:
        return Fraction(-1, 2), ()
    return Fraction(1), (_zeta_factor(s2),)


def reduce_mzv_depth3(n1: int, n2: int, n3: int) -> CzvCombination:
    """zeta(n1, n2, n3) for even weight, n3 >= 2, over depth <= 2 zetas."""
    w = n1 + n2 + n3
    if w % 2:
        raise ValueError("odd weight is already covered in depth two")
    if n3 < 2:
        raise ValueError("n3 >= 2 required for a convergent zeta")
    out = CzvCombination()
    for ms in ((n1 + n2, n3), (n1, n2 + n3), (w,)):
        out.add_term(make_term(0, 0, (_mzv_factor(ms),)), Fraction(-1, 2))
    for mu in range(1, w + 1):
        for nu in range(1, w + 1 - mu):
            if (w - mu - nu) % 2:
                continue
            zc, zf = _zeta2s_coeff(w - mu - nu)
            # first sum: zeta(mu, nu), mu >= n2, nu >= n3
            if mu >= n2 and nu >= n3:
                coeff = (
                    Fraction((-1) ** n1)
                    * binom(mu - 1, n2 - 1) * binom(nu - 1, n3 - 1) * zc
                )
                if coeff:
                    out.add_term(make_term(0, 0, zf + (_mzv_factor((mu, nu)),)), coeff)
            # second sum: zeta(mu) zeta(nu), mu >= n3, nu > n1
            if mu >= n3 and nu > n1 and mu >= 2 and nu >= 2:
                coeff = (
                    Fraction((-1) ** n2)
                    * binom(mu - 1, n3 - 1) * binom(nu - 1, n1 - 1)
                    * (-1) ** mu * zc
                )
                if coeff:
                    fs = tuple(sorted((_zeta_factor(mu), _zeta_factor(nu)), key=_factor_key))
                    out.add_term(make_term(0, 0, zf + fs), coeff)
            # third sum: zeta(mu, nu), mu >= n2, nu > n1
            if mu >= n2 and nu > n1:
                coeff = (
                    Fraction((-1) ** n3)
                    * binom(mu - 1, n2 - 1) * binom(nu - 1, n1 - 1) * zc
                )
                if coeff:
                    out.add_term(make_term(0, 0, zf + (_mzv_factor((mu, nu)),)), coeff)
    for nu in range(n2 + 1, w - n1 + 1):
        if (w - n1 - nu) % 2:
            continue
        zc, zf = _zeta2s_coeff(w - n1 - nu)
        coeff = -Fraction((-1) ** n3) * binom(nu - 1, n2 - 1) * zc
        if coeff:
            out.add_term(make_term(0, 0, zf + (_mzv_factor((n1, nu)),)), coeff)
            out.add_term(make_term(0, 0, zf + (_mzv_factor((n1 + nu,)),)), coeff)
    return out


def _sign_root(s: int) -> RootOfUnity:
    return ONE_ROOT if s == 1 else MINUS_ONE


def alt_depth2(n1: int, n2: int, s1: int, s2: int) -> CzvCombination:
    """Li_{n1,n2}(s1, s2) for signs in {+1,-1} and odd weight, with the
    conventions Li_0(+-1) = -1/2 and regularized Li_1(1) = 0."""
    w = n1 + n2
    if w % 2 == 0:
        raise ValueError("odd weight required")
    if s1 not in (1, -1) or s2 not in (1, -1):
        raise ValueError("signs must be +-1")
    if n2 == 1 and s2 == 1:
        raise ValueError("divergent head (n2, z2) = (1, 1)")
    z1 = _sign_root(s1)
    z2 = _sign_root(s2)
    z12 = z1.mul(z2)

    def li_symbol(k: int, root: RootOfUnity, coeff: Fraction) -> CzvCombination:
        if k == 0:
            return CzvCombination.constant(coeff * Fraction(-1, 2))
        if k == 1 and root.is_one():
            return CzvCombination()  # shuffle-regularized limit
        return CzvCombination.symbol((k,), (root,), coeff)

    out = CzvCombination()
    for k in range(1, w + 1, 2):
        s2pow = w - k
        lead = li_symbol(s2pow, z12, Fraction((-1) ** n1))
        inner = li_symbol(k, z1, Fraction(binom(k - 1, n1 - 1))) + li_symbol(
            k, z2, Fraction(binom(k - 1, n2 - 1))
        )
        out += lead.mul(inner)
    out += li_symbol(w, z12, Fraction(-1, 2))
    if n2 % 2 == 0:
        out += li_symbol(n1, z1, Fraction(1)).mul(li_symbol(n2, z2, Fraction(1)))
    return out


# ---------------------------------------------------------------------------
# exact bivariate Bernoulli identity


def _bernoulli_xy(p: int, in_x: bool) -> SparseSum:
    """B_p(x) or B_p(y), keyed by the exponent pair (i, j) of x^i y^j."""
    poly = bernoulli_polynomial(p)
    return SparseSum({((a, 0) if in_x else (0, a)): c for a, c in enumerate(poly.coeffs)})


def _bernoulli_x_plus_y(p: int) -> SparseSum:
    out = SparseSum()
    for a, c in enumerate(bernoulli_polynomial(p).coeffs):
        for b in range(a + 1):
            out.add_term((b, a - b), c * binom(a, b))
    return out


def _mul_into(acc: SparseSum, p1: SparseSum, p2: SparseSum, scale: Fraction) -> None:
    if scale == 0:
        return
    for (i1, j1), c1 in p1.terms.items():
        for (i2, j2), c2 in p2.terms.items():
            acc.add_term((i1 + i2, j1 + j2), scale * c1 * c2)


def bernoulli_identity_check(n1: int, n2: int) -> bool:
    """Exact two-variable Bernoulli polynomial identity:

    sum_{mu=0}^{w} C(w,mu) B_{w-mu}(x+y) [ C(-n1, mu-n1) B_mu(x)
        + C(-n2, mu-n2) B_mu(y) - delta_{mu,0} ]  ==  C(w,n1) B_{n1}(x) B_{n2}(y)
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("nonnegative orders required")
    w = n1 + n2
    lhs = SparseSum()
    for mu in range(w + 1):
        outer = Fraction(binom(w, mu))
        bxy = _bernoulli_x_plus_y(w - mu)
        if mu >= n1:
            _mul_into(lhs, bxy, _bernoulli_xy(mu, True), outer * signed_binomial(-n1, mu - n1))
        if mu >= n2:
            _mul_into(lhs, bxy, _bernoulli_xy(mu, False), outer * signed_binomial(-n2, mu - n2))
        if mu == 0:
            _mul_into(lhs, bxy, SparseSum({(0, 0): 1}), -outer)
    rhs = SparseSum()
    _mul_into(rhs, _bernoulli_xy(n1, True), _bernoulli_xy(n2, False), Fraction(binom(w, n1)))
    return lhs == rhs


# ---------------------------------------------------------------------------
# integrality


def integrality_check(obj) -> bool:
    """All coefficients integers, in the representation given: the Ber-basis
    LinComb of a functional equation, or the literal coefficients of a
    CzvCombination (callers working with single-MZV reductions should pass
    the doubled parity combination 2*zeta = PLi at unity)."""
    if isinstance(obj, SparseSum):
        return obj.all_integer()
    return obj.equation.all_integer()


# ---------------------------------------------------------------------------
# serialization


def czv_to_dict(c: CzvCombination) -> dict:
    return {
        "terms": [
            {
                "coeff": str(coeff),
                "ipi_power": t.ipi,
                "i_power": t.ipow,
                "factors": [
                    {
                        "indices": list(f.indices),
                        "roots": [f"{r.k}/{r.N}" for r in f.roots],
                        **({"part": f.part} if f.part else {}),
                    }
                    for f in t.factors
                ],
            }
            for t, coeff in c.sorted_items()
        ]
    }


def czv_to_json(c: CzvCombination, **extra) -> str:
    doc = dict(extra)
    doc.update(czv_to_dict(c))
    return json.dumps(doc, indent=1)


def _factor_text(f: CzvFactor) -> str:
    idx = ",".join(map(str, f.indices))
    args = ",".join(r.text() for r in f.roots)
    if f.indices and all(r.is_one() for r in f.roots) and not f.part:
        return f"zeta({idx})"
    name = {"re": "Re Li", "im": "Im Li"}.get(f.part, "Li")
    return f"{name}_{{{idx}}}({args})"


def czv_to_text(c: CzvCombination) -> str:
    rows = []
    for t, coeff in c.sorted_items():
        factors = []
        if t.ipow % 4:
            factors.append({1: "i", 2: "(-1)", 3: "(-i)"}[t.ipow % 4])
        if t.ipi:
            factors.append(f"(i*pi)^{t.ipi}" if t.ipi > 1 else "(i*pi)")
        factors.extend(_factor_text(f) for f in t.factors)
        rows.append((coeff, factors))
    return signed_sum_text(rows)


def _root_latex(r: RootOfUnity) -> str:
    special = {Fraction(0): "1", Fraction(1, 2): "-1", Fraction(1, 4): "i", Fraction(3, 4): "-i"}
    return special.get(r.phase(), f"e^{{2\\pi i \\cdot {r.k}/{r.N}}}")


def czv_to_latex(c: CzvCombination) -> str:
    rows = []
    for t, coeff in c.sorted_items():
        factors = []
        if t.ipow % 4:
            factors.append({1: "i", 2: "(-1)", 3: "(-i)"}[t.ipow % 4])
        if t.ipi:
            factors.append(f"(i\\pi)^{{{t.ipi}}}")
        for f in t.factors:
            idx = ",".join(map(str, f.indices))
            if all(r.is_one() for r in f.roots) and not f.part:
                factors.append(f"\\zeta({idx})")
            else:
                args = ", ".join(_root_latex(r) for r in f.roots)
                op = {"re": "\\operatorname{Re}\\,", "im": "\\operatorname{Im}\\,"}.get(f.part, "")
                factors.append(f"{op}\\operatorname{{Li}}_{{{idx}}}({args})")
        rows.append((coeff, factors))
    return signed_sum_text(rows, latex=True)


# ---------------------------------------------------------------------------
# numeric rendering (delegates to the oracle)


def eval_czv_combination(c: CzvCombination, dps: int = 40):
    import mpmath as mp

    from .oracle import GUARD_DIGITS, eval_czv

    with mp.workdps(dps + GUARD_DIGITS):
        ipi = mp.pi * mp.mpc(0, 1)
        total = mp.mpc(0)
        values: dict = {}  # each distinct factor is evaluated once
        for t, coeff in c.terms.items():
            v = mp.mpc(coeff.numerator) / coeff.denominator
            v *= mp.mpc(0, 1) ** t.ipow * ipi ** t.ipi
            for f in t.factors:
                key = (f.indices, tuple(r.phase() for r in f.roots))
                fv = values.get(key)
                if fv is None:
                    fv = values[key] = eval_czv(*key)
                if f.part == "re":
                    fv = mp.re(fv)
                elif f.part == "im":
                    fv = mp.im(fv)
                v *= fv
            total += v
        return total
