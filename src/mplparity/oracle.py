"""High-precision numerical certification of the symbolic identities.

Two methods, both in fixed point (Python integers scaled by 2^prec, prec =
working precision + GUARD_DIGITS digits + GUARD_BITS bits; GUARD_BITS only
for ``eval_czv``, whose callers add the digits), with only the result
converted to mpmath:

  * nested truncated series, for Li at points whose tail products have
    modulus < 1 and for multiple polylogarithms at roots of unity, split by
    Hoelder convolution into two families of such series (``eval_czv``).
    Every nested sum is read off one kernel, ``_prefix_levels``, and its
    truncation is fixed in advance from a geometric bound (``_truncation``);
  * iterated-integral (hyperlogarithm) quadrature for Li at inverted
    arguments, via panelized Gauss-Legendre spectral integration of the
    nested primitives F_k(t) = int_0^t F_{k-1}(s) ds/(s - sigma_k).

Error bounds are heuristic but conservative (a geometric tail estimate for
the series, order-escalation differences for the quadrature); they are
reported alongside every value.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import dps_to_prec, to_fixed

from .rationals import bernoulli_polynomial
from .terms import ConsProd, Generator, LiFactor, LinComb, LogExpansion, li_generator
from .words import li_to_word

DEFAULT_DPS = 50
GUARD_DIGITS = 10
GUARD_BITS = 32  # fixed-point bits beyond the working precision
_SAMPLE_MARGIN = 0.05  # least distance of a sampled tail product from [0, inf)
_LI_MAX_TERMS = 400000  # longest truncation of the Li series


class DomainError(ValueError):
    pass


class PrecisionError(ArithmeticError):
    pass


class HPComplex(NamedTuple):
    """Value with a tracked (heuristic) error magnitude."""

    value: mp.mpc
    err: float

    def mul(self, other: "HPComplex") -> "HPComplex":
        v = self.value * other.value
        e = abs(self.value) * other.err + abs(other.value) * self.err + self.err * other.err
        return HPComplex(v, float(e))

    def scale(self, c) -> "HPComplex":
        return HPComplex(self.value * c, self.err * float(abs(mp.mpf(1) * abs(c))))


def _ray_distance(w) -> float:
    """Distance from the ray [0, +inf)."""
    x, y = float(mp.re(w)), float(mp.im(w))
    if x <= 0.0:
        return math.hypot(x, y)
    return abs(y)


# ---------------------------------------------------------------------------
# sampling


class SamplePoint(NamedTuple):
    z: tuple  # mpc values z_1..z_d

    @property
    def depth(self) -> int:
        return len(self.z)


def sample_domain_point(d: int, seed: int) -> SamplePoint:
    """Deterministic pseudo-random point with every consecutive product
    z_i...z_j at distance >= _SAMPLE_MARGIN from [0, inf); moduli in
    [0.3, 0.9]."""
    rng = random.Random(f"mplparity:{d}:{seed}")
    for _ in range(2000):
        mods = [rng.uniform(0.3, 0.9) for _ in range(d)]
        phis = [rng.uniform(0.2, 2 * math.pi - 0.2) for _ in range(d)]
        zs = [mp.mpc(m * math.cos(p), m * math.sin(p)) for m, p in zip(mods, phis)]
        ok = True
        for i in range(d):
            prod = mp.mpc(1)
            for j in range(i, d):
                prod = prod * zs[j]
                if _ray_distance(prod) < _SAMPLE_MARGIN:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return SamplePoint(tuple(zs))
    raise DomainError(f"could not sample a depth-{d} domain point (seed {seed})")


# ---------------------------------------------------------------------------
# series evaluator


def _fixed_prec(dps: int) -> int:
    """Bits of the fixed-point arithmetic for working precision dps."""
    return dps_to_prec(dps + GUARD_DIGITS) + GUARD_BITS


def _to_fixed(x: mp.mpf, prec: int) -> int:
    return to_fixed(x._mpf_, prec)


def _fixed(z, prec: int) -> tuple[int, int]:
    z = mp.mpc(z)
    return _to_fixed(z.real, prec), _to_fixed(z.imag, prec)


def _from_fixed(re: int, im: int, prec: int) -> mp.mpc:
    return mp.mpc(mp.mpf((re, -prec)), mp.mpf((im, -prec)))


def _truncation(rate: float, n: int, prec: int) -> int:
    """Least M with rate^M (1 + ln M)^n / (1 - rate) < 2^-(prec-16).  The
    terms past M of a nested sum of weight n whose tail products have
    modulus <= rate add up to less than that."""
    lr = -math.log(rate)
    need = (prec - 16) * math.log(2) - math.log(1 - rate)
    M = 1
    while M * lr < need + n * math.log(1 + math.log(M)):
        M = math.ceil((need + n * math.log(1 + math.log(M))) / lr)
    return M


def _prefix_levels(ys, ms, M: int, prec: int):
    """Level arrays of the nested sum

        sum_{N_1 > ... > N_k > 0} prod_i y_i^{N_i - N_{i+1}} / N_i^{m_i}   (N_{k+1} = 0)

    truncated at N_1 <= M, for tail products y_i with |y_i| < 1; ys and ms
    are listed outermost first, and ys are (re, im) integers scaled by
    2^prec.  This is the module's only nested sum.

    Yields one array pair (re, im) per level, innermost first.  Entry N of
    level i (1 <= N <= M) is the inner sum carried to N,

        A_i(N) = sum_{N > N_{i+1} > ... > N_k > 0} y_i^{N - N_{i+1}} prod_{j>i} y_j^{N_j - N_{j+1}} / N_j^{m_j},

    which stays below (1 + ln N)^{k-i} in modulus; the level's series with
    index m at level i is sum_N A_i(N) / N^m.  The levels come from
    A_k(N) = y_k^N and A_i(N+1) = y_i (A_i(N) + A_{i+1}(N) / N^{m_{i+1}}),
    computed in place: one array is alive, so read each level before
    advancing the generator."""
    yr, yi = ys[-1]
    ar, ai = [0] * (M + 1), [0] * (M + 1)
    cr, ci = 1 << prec, 0
    for N in range(1, M + 1):
        cr, ci = (cr * yr - ci * yi) >> prec, (cr * yi + ci * yr) >> prec
        ar[N], ai[N] = cr, ci
    yield ar, ai
    for (yr, yi), m in zip(ys[-2::-1], ms[:0:-1]):
        cr = ci = 0
        for N in range(1, M + 1):
            q = N ** m
            tr, ti = cr + ar[N] // q, ci + ai[N] // q
            ar[N], ai[N] = cr, ci
            cr, ci = (tr * yr - ti * yi) >> prec, (tr * yi + ti * yr) >> prec
        yield ar, ai


def _power_sums(ar, ai, m: int) -> list:
    """[(sum_N A(N) / N^j) for j = 1..m] of one level array, in fixed point."""
    sums = [[0, 0] for _ in range(m)]
    for N in range(1, len(ar)):
        r, i = ar[N], ai[N]
        for s in sums:
            r //= N
            i //= N
            s[0] += r
            s[1] += i
    return [tuple(s) for s in sums]


def eval_li_series(indices, values, target: float = 1e-30) -> HPComplex:
    """Truncated nested series for Li_n(v), requiring every tail product
    |v_i ... v_d| < 1.  The truncation is fixed in advance from the largest
    tail product modulus rho (``_truncation``); the reported error is a
    geometric tail estimate from the last term."""
    n = tuple(indices)
    prec = _fixed_prec(mp.mp.dps)
    tails = []  # v_d, v_{d-1} v_d, ..., v_1 ... v_d: outermost first
    with mp.workprec(prec):
        acc = mp.mpc(1)
        for v in reversed(values):
            acc = acc * v
            tails.append(acc)
    rho = max(float(abs(t)) for t in tails)
    if rho >= 1.0:
        raise DomainError(f"series needs all tail products < 1 (got {rho})")
    M = _truncation(rho, sum(n), prec)
    if M > _LI_MAX_TERMS:
        raise PrecisionError(f"series truncation would need {M} terms")
    *_, (ar, ai) = _prefix_levels([_fixed(t, prec) for t in tails], n[::-1], M, prec)
    value = _from_fixed(*_power_sums(ar, ai, n[-1])[-1], prec)
    last = abs(_from_fixed(ar[M], ai[M], prec)) / mp.mpf(M) ** n[-1]
    err = float(last) * rho / (1 - rho) * 10 + 1e-300
    if err > target:
        raise PrecisionError(f"series tail estimate {err} above target {target}")
    return HPComplex(value, err)


# ---------------------------------------------------------------------------
# hyperlogarithm quadrature


class _GaussData(NamedTuple):
    """Gauss-Legendre data of one order in fixed point: every entry is an
    integer v standing for v / 2^prec.  ``cum[i][j]`` integrates the
    degree-(order-1) interpolant's cardinal L_j from -1 to node i."""

    order: int
    prec: int
    nodes: tuple
    weights: tuple
    cum: tuple


def _legendre_pair(q: int, x: int, prec: int) -> tuple[int, int]:
    """(P_q(x), P'_q(x)) in fixed point by the three-term recurrence."""
    one = 1 << prec
    p0, p1 = one, x
    for m in range(2, q + 1):
        p0, p1 = p1, ((2 * m - 1) * (x * p1 >> prec) - (m - 1) * p0) // m
    dp = (q * (x * p1 - (p0 << prec)) << prec) // (x * x - (one << prec))
    return p1, dp


def _legendre_root(q: int, x: int, prec: int) -> tuple[int, int]:
    """Newton's method from x to a root of P_q; returns (root, P'_q(root))."""
    for _ in range(100):
        p, dp = _legendre_pair(q, x, prec)
        dx = (p << prec) // dp
        x -= dx
        # quadratic convergence: a step this small leaves only rounding
        if abs(dx) < 1 << 16:
            return x, _legendre_pair(q, x, prec)[1]
    raise PrecisionError(f"Legendre root of order {q} did not converge")


@functools.cache
def _gauss_data(order: int, prec: int) -> _GaussData:
    """Nodes, weights and cumulative matrix of order q at fixed-point
    precision prec, built once per (order, prec).  Only the nonnegative
    nodes are solved for; the rest follow from the symmetry x -> -x."""
    q = order
    one = 1 << prec
    pos = []  # (node, P'_q(node)) for the positive nodes, descending
    for i in range(q // 2):
        guess = math.cos(math.pi * (4 * i + 3) / (4 * q + 2))
        pos.append(_legendre_root(q, int(math.ldexp(guess, 53)) << (prec - 53), prec))
    middle = [(0, _legendre_pair(q, 0, prec)[1])] if q % 2 else []
    nonneg = middle + pos[::-1]  # ascending
    xs = [x for x, _ in nonneg]
    # w = 2 / ((1 - x^2) P'_q(x)^2)
    ws = [(1 << (5 * prec + 1)) // ((one * one - x * x) * dp * dp) for x, dp in nonneg]
    k = len(middle)
    nodes = tuple([-x for x in reversed(xs[k:])] + xs)
    weights = tuple(ws[k:][::-1] + ws)
    # P_m(x_j) for m = 0..q
    P = [[one] * q, list(nodes)]
    for m in range(2, q + 1):
        P.append([((2 * m - 1) * (x * p1 >> prec) - (m - 1) * p0) // m
                  for x, p0, p1 in zip(nodes, P[m - 2], P[m - 1])])
    # CUM[i][j] = sum_m anti_m(x_i) (2m+1)/2 w_j P_m(x_j), where
    # anti_m = int_{-1}^x P_m = (P_{m+1} - P_{m-1})/(2m+1) and anti_0 = x + 1
    cols = [[P[m][j] for m in range(q)] for j in range(q)]
    cum = []
    for i in range((q + 1) // 2):
        anti = [nodes[i] + one] + [P[m + 1][i] - P[m - 1][i] for m in range(1, q)]
        cum.append([w * sum(map(mul, anti, col)) >> (2 * prec + 1)
                    for w, col in zip(weights, cols)])
    # int_{-1}^{x_i} L_j = int_{x_{q-1-i}}^{1} L_{q-1-j} = w_j - CUM[q-1-i][q-1-j]
    for i in range((q + 1) // 2, q):
        mirror = cum[q - 1 - i][::-1]
        cum.append([w - c for w, c in zip(weights, mirror)])
    return _GaussData(q, prec, nodes, weights, tuple(tuple(row) for row in cum))


class HyperlogIntegrator:
    """Panelized evaluation of iterated integrals int_0^1 w_{s_1}...w_{s_r}
    (letters left to right, rightmost letter integrated innermost).

    Panels are refined until every nonzero letter is at distance at least
    0.9 * panel length; the error estimate compares two spectral orders.
    The sweeps run in fixed point at the working precision plus
    ``GUARD_BITS``; the Gauss data of each (order, precision) is shared by
    every integrator.
    """

    def __init__(self, dps: int, order: int | None = None) -> None:
        self.dps = dps
        self.order = order if order is not None else dps + 16
        self.prec = _fixed_prec(dps)
        self._lo = _gauss_data(self.order, self.prec)
        self._hi = _gauss_data(self.order + 10, self.prec)

    def _panels(self, letters) -> list[tuple[mp.mpf, mp.mpf]]:
        sing = [s for s in letters if s != 0]
        panels = [(mp.mpf(0), mp.mpf(1))]
        out = []
        while panels:
            a, b = panels.pop()
            ln = b - a
            if ln > mp.mpf("0.25"):
                mid = (a + b) / 2
                panels.extend([(a, mid), (mid, b)])
                continue
            need_split = False
            for s in sing:
                x, y = mp.re(s), mp.im(s)
                if x < a:
                    dist = mp.sqrt((x - a) ** 2 + y * y)
                elif x > b:
                    dist = mp.sqrt((x - b) ** 2 + y * y)
                else:
                    dist = abs(y)
                if dist < mp.mpf("0.9") * ln:
                    need_split = True
                    break
            if need_split:
                if ln < mp.mpf("1e-7"):
                    raise DomainError("integration letter too close to [0,1]")
                mid = (a + b) / 2
                panels.extend([(a, mid), (mid, b)])
            else:
                out.append((a, b))
        out.sort(key=lambda p: p[0])
        return out

    def _sweep(self, letters, panels, gauss: _GaussData) -> mp.mpc:
        """Value of the word; letters are (re, im) and panels (a, b) pairs
        in fixed point at ``gauss.prec``.  Each row of the cumulative matrix,
        and the weights after them, meet the panel values in one integer dot
        product with one shift."""
        prec = gauss.prec
        q = gauss.order
        rows = gauss.cum + (gauss.weights,)
        # per letter and panel, the kernel half / (t_j - sigma) at the nodes
        kernels = {}
        for sr, si in set(letters):
            per_panel = []
            for a, b in panels:
                half, mid = (b - a) >> 1, (a + b) >> 1
                kr, ki = [], []
                for x in gauss.nodes:
                    dr = mid + (half * x >> prec) - sr
                    den = dr * dr + si * si
                    kr.append((half * dr << prec) // den)
                    ki.append((half * si << prec) // den)
                per_panel.append((kr, ki))
            kernels[sr, si] = per_panel
        one = 1 << prec
        fvals = [([one] * q, [0] * q) for _ in panels]
        left_r = left_i = 0
        for sig in reversed(letters):
            left_r = left_i = 0
            new = []
            for (kr, ki), (fr, fi) in zip(kernels[sig], fvals):
                gr = [(a * c - b * d) >> prec for a, b, c, d in zip(fr, fi, kr, ki)]
                gi = [(a * d + b * c) >> prec for a, b, c, d in zip(fr, fi, kr, ki)]
                ir = [sum(map(mul, row, gr)) >> prec for row in rows]
                ii = [sum(map(mul, row, gi)) >> prec for row in rows]
                new.append(([left_r + v for v in ir[:q]], [left_i + v for v in ii[:q]]))
                left_r += ir[q]
                left_i += ii[q]
            fvals = new
        return _from_fixed(left_r, left_i, prec)

    def word_value(self, letters) -> HPComplex:
        letters = [mp.mpc(s) for s in letters]
        prec = self.prec
        with mp.workdps(self.dps + GUARD_DIGITS):
            panels = [(_to_fixed(a, prec), _to_fixed(b, prec)) for a, b in self._panels(letters)]
            fixed = [_fixed(s, prec) for s in letters]
            lo = self._sweep(fixed, panels, self._lo)
            hi = self._sweep(fixed, panels, self._hi)
            return HPComplex(hi, float(abs(hi - lo)) + 10.0 ** (-min(self.dps + 2, 300)))


def li_word_letters(indices, base_values) -> list:
    """Letters of the word for (-1)^d Li_n(1/y):  w_0^{n_d-1} w_{y_d} ...
    w_0^{n_1-1} w_{y_{1,d}}, with y the base (non-inverted) values."""
    word = li_to_word(indices, [mp.mpc(v) for v in base_values], mul)
    return [mp.mpc(0) if letter.is_zero() else letter.arg for letter in word]


def eval_li_inverse(indices, base_values, integrator: HyperlogIntegrator) -> HPComplex:
    """Li_n(1/y) for base values y via the iterated-integral representation."""
    d = len(tuple(indices))
    val = integrator.word_value(li_word_letters(indices, base_values))
    return val.scale((-1) ** d)


# ---------------------------------------------------------------------------
# generator / combination evaluation


def ber_value(k: int, x) -> mp.mpc:
    """ber_k(x) = (2 pi i)^k / k! * B_k(1/2 + log(-x)/(2 pi i)), principal log."""
    x = mp.mpc(x)
    twopii = 2 * mp.pi * mp.mpc(0, 1)
    u = mp.mpf("0.5") + mp.log(-x) / twopii
    poly = bernoulli_polynomial(k)
    acc = mp.mpc(0)
    for c in reversed(poly.coeffs):
        acc = acc * u + mp.mpf(c.numerator) / c.denominator
    return acc * twopii ** k / mp.factorial(k)


@dataclass
class EvalContext:
    """Shared precision/evaluator state for one verification run.  The memo
    bank caches factor values per sample point, so a sweep over many indices
    of the same depth reuses the expensive iterated-integral evaluations."""

    dps: int = DEFAULT_DPS
    target: float | None = None
    memo_bank: dict = field(default_factory=dict, repr=False)
    _integrator: HyperlogIntegrator | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.target is None:
            self.target = 10.0 ** (-(self.dps - 12))

    @property
    def integrator(self) -> HyperlogIntegrator:
        if self._integrator is None:
            self._integrator = HyperlogIntegrator(self.dps)
        return self._integrator

    def point_memo(self, depth: int, seed: int) -> dict:
        return self.memo_bank.setdefault((depth, seed), {})


def _span_value(a: ConsProd, zvals) -> mp.mpc:
    prod = mp.mpc(1)
    for i in range(a.start, a.end + 1):
        prod = prod * zvals[i - 1]
    return prod


def _li_factor_value(f: LiFactor, zvals, ctx: EvalContext, memo: dict) -> HPComplex:
    """One Li factor at the bound point, memoized per factor: plain arguments
    by the series, all-inverted arguments by the iterated integral."""
    key = ("li", f)
    got = memo.get(key)
    if got is None:
        if f.has_inverted():
            if not all(a.inverted for a in f.args):
                raise DomainError(f"mixed factor {f} is not evaluable")
            base = [_span_value(ConsProd(a.start, a.end), zvals) for a in f.args]
            got = eval_li_inverse(f.indices, base, ctx.integrator)
        else:
            vals = [_span_value(a, zvals) for a in f.args]
            got = eval_li_series(f.indices, vals, ctx.target)
        memo[key] = got
    return got


def eval_generator(g: Generator, zvals, ctx: EvalContext, memo: dict | None = None) -> HPComplex:
    """Product of factor evaluations at the bound point; Ber factors by the
    exact Bernoulli formula, plain Li factors by series, inverted factors by
    the iterated integral."""
    if memo is None:
        memo = {}
    with mp.workdps(ctx.dps + GUARD_DIGITS):
        out = HPComplex(mp.mpc(1), 0.0)
        for s, k in g.bers:
            key = ("ber", s, k)
            got = memo.get(key)
            if got is None:
                got = HPComplex(ber_value(k, _span_value(ConsProd(s, g.ambient), zvals)), 1e-300)
                memo[key] = got
            out = out.mul(got)
        for f in g.lis:
            out = out.mul(_li_factor_value(f, zvals, ctx, memo))
        return out


def eval_lincomb(lc: LinComb, zvals, ctx: EvalContext, memo: dict | None = None) -> HPComplex:
    if memo is None:
        memo = {}
    with mp.workdps(ctx.dps + GUARD_DIGITS):
        total = HPComplex(mp.mpc(0), 0.0)
        for g, c in lc.terms.items():
            v = eval_generator(g, zvals, ctx, memo)
            total = HPComplex(
                total.value + v.value * mp.mpf(c.numerator) / c.denominator,
                total.err + v.err * abs(float(c)),
            )
        return total


def eval_log_expansion(le: LogExpansion, zvals, ctx: EvalContext) -> HPComplex:
    """Numeric value of a log-basis expansion (used to cross-check the
    Ber -> log rewriting)."""
    memo: dict = {}
    with mp.workdps(ctx.dps + GUARD_DIGITS):
        ipi = mp.pi * mp.mpc(0, 1)
        total = HPComplex(mp.mpc(0), 0.0)
        for g, c in le.terms.items():
            v = HPComplex(ipi ** g.ipi, 0.0)
            for s, p in g.logs:
                v = HPComplex(v.value * mp.log(-_span_value(ConsProd(s, g.ambient), zvals)) ** p, v.err)
            for f in g.lis:
                v = v.mul(_li_factor_value(f, zvals, ctx, memo))
            total = HPComplex(total.value + v.value * mp.mpf(c.numerator) / c.denominator,
                              total.err + v.err * abs(float(c)))
        return total


# ---------------------------------------------------------------------------
# verification of functional equations


@dataclass
class SampleCheck:
    seed: int
    abs_error: float
    bound: float


@dataclass
class VerifyReport:
    index: tuple[int, ...]
    samples: int
    tolerance: float
    max_error: float
    passed: bool
    checks: list[SampleCheck]
    heuristic_bounds: bool = True

    def to_dict(self) -> dict:
        return {
            "index": list(self.index),
            "samples": self.samples,
            "tolerance": self.tolerance,
            "max_error": self.max_error,
            "passed": self.passed,
            "heuristic_bounds": self.heuristic_bounds,
            "checks": [
                {"seed": c.seed, "abs_error": c.abs_error, "bound": c.bound}
                for c in self.checks
            ],
        }


def verify_feq(index, equation: LinComb, num_samples: int, tol: float, ctx: EvalContext | None = None) -> VerifyReport:
    """Check Li_n(z) - (-1)^{|n|_0} Li_n(1/z) == equation at sample points;
    both sides are evaluated factor by factor through ``eval_lincomb``."""
    n = tuple(index)
    d = len(n)
    if ctx is None:
        ctx = EvalContext()
    parity = LinComb(d)
    for inverted, c in ((False, 1), (True, -(-1) ** (sum(n) - d))):
        parity.add_term(li_generator(d, n, [ConsProd(i, i, inverted) for i in range(1, d + 1)]), c)
    checks: list[SampleCheck] = []
    seed = 0
    produced = 0
    while produced < num_samples:
        try:
            point = sample_domain_point(d, seed)
            memo = ctx.point_memo(d, seed)
            with mp.workdps(ctx.dps + GUARD_DIGITS):
                lhs = eval_lincomb(parity, point.z, ctx, memo)
                rhs = eval_lincomb(equation, point.z, ctx, memo)
                err = float(abs(lhs.value - rhs.value))
            checks.append(SampleCheck(seed, err, lhs.err + rhs.err))
            produced += 1
        except (DomainError, PrecisionError):
            pass
        seed += 1
        if seed > num_samples + 50:
            raise PrecisionError(f"verification for {n} keeps failing to sample")
    max_err = max(c.abs_error for c in checks)
    return VerifyReport(n, num_samples, tol, max_err, max_err <= tol, checks)


# ---------------------------------------------------------------------------
# multiple polylogarithms at roots of unity


def root_value(frac: Fraction) -> mp.mpc:
    return mp.e ** (2 * mp.pi * mp.mpc(0, 1) * mp.mpf(frac.numerator) / frac.denominator)


def _suffix_values(word, z, M: int, prec: int) -> list:
    """G(u; z) for every suffix u of ``word``, indexed by the length of u
    (0..n), in fixed point.  Letters are listed outermost first, None for the
    zero letter, and the innermost letter is not zero.  A word
    0^{m_1-1} b_1 ... 0^{m_k-1} b_k has the series

        G = (-1)^k sum_{N_1 > ... > N_k > 0} prod_i (z/b_i)^{N_i - N_{i+1}} / N_i^{m_i},

    so one kernel run over the tail products z/b_i gives every suffix: the
    suffix 0^{j-1} b_i ... b_k is level i's array dotted with 1/N^j."""
    ys, ms = [], []
    m = 0
    for a in word:
        m += 1
        if a is not None:
            ys.append(_fixed(z / a, prec))
            ms.append(m)
            m = 0
    out = [(1 << prec, 0)]
    for depth, (ar, ai) in enumerate(_prefix_levels(ys, ms, M, prec), 1):
        sign = (-1) ** depth
        out.extend((sign * r, sign * i) for r, i in _power_sums(ar, ai, ms[-depth]))
    return out


def eval_czv(m, fracs, dps: int | None = None) -> mp.mpc:
    """Li_m at the roots of unity exp(2 pi i * fracs), for every depth and
    every root; only a divergent head ((m_d, root_d) = (1, 1)) raises
    DomainError.

    Li_m(x) = (-1)^d I(0; w; 1), where w = a_1 ... a_n is the word of the
    base values 1/x (``li_to_word``), is split at p by Hoelder convolution
    (Borwein, Bradley, Broadhurst and Lisonek, Trans. AMS 353 (2001), sec. 7):

        I(0; w; 1) = sum_k (-1)^k G(1-a_k ... 1-a_1; 1-p) G(a_{k+1} ... a_n; p).

    With p = 1/(1 + min(1, min |1-a|)) over the letters a != 1, every tail
    product in both families has modulus <= p, so one truncation M, fixed
    in advance, serves every G.  Letters are formed from the exact phases: a
    letter is 1 exactly when its phase is 0, and 1-a is then the zero letter.
    Sums run at the working precision + GUARD_BITS; callers such as
    ``eval_czv_combination`` have already added GUARD_DIGITS."""
    m = tuple(int(x) for x in m)
    fracs = tuple(Fraction(f) % 1 for f in fracs)
    if dps is not None:
        with mp.workdps(dps):
            return eval_czv(m, fracs)
    if not m:
        return mp.mpc(1)
    if m[-1] == 1 and fracs[-1] == 0:
        raise DomainError(f"divergent head for {m} at {fracs}")
    phases = [None if letter.is_zero() else letter.arg
              for letter in li_to_word(m, [-f % 1 for f in fracs], lambda a, b: (a + b) % 1)]
    n = len(phases)
    prec = dps_to_prec(mp.mp.dps) + GUARD_BITS
    with mp.workprec(prec):
        word = [None if f is None else root_value(f) for f in phases]
        # letters other than 0 (None) and 1 (phase 0)
        gap = min([mp.mpf(1)] + [abs(1 - a) for f, a in zip(phases, word) if f])
        p = 1 / (1 + gap)
        M = _truncation(float(p), n, prec)
        lower = _suffix_values(word, p, M, prec)  # paths 0 -> p
        reflected = [mp.mpf(1) if f is None else None if f == 0 else 1 - a
                     for f, a in zip(phases[::-1], word[::-1])]
        upper = _suffix_values(reflected, 1 - p, M, prec)  # paths p -> 1, as 0 -> 1-p
    total_r = total_i = 0
    for k in range(n + 1):
        (gr, gi), (hr, hi) = upper[k], lower[n - k]
        sign = (-1) ** k
        total_r += sign * (gr * hr - gi * hi)
        total_i += sign * (gr * hi + gi * hr)
    sign = (-1) ** len(m)
    return _from_fixed(sign * total_r >> prec, sign * total_i >> prec, prec)
