"""High-precision numerical certification of the symbolic identities.

Three evaluators:

  * nested truncated series for Li at points whose tail products have
    modulus < 1 (with a geometric tail estimate),
  * iterated-integral (hyperlogarithm) quadrature for Li at inverted
    arguments, via panelized Gauss-Legendre spectral integration of the
    nested primitives F_k(t) = int_0^t F_{k-1}(s) ds/(s - sigma_k); the
    Gauss data and the sweeps run in fixed point (Python integers scaled
    by 2^prec, prec = working precision + GUARD_BITS), and only the result
    is converted to mpmath,
  * series evaluation of multiple polylogarithms at roots of unity with
    Abel-summed or asymptotically-fitted tails.

Every truncated nested sum, of the series and of the partial sums at roots
of unity, is read off one kernel, ``_prefix_levels``; the three
root-of-unity tails double their truncation in one convergence loop,
``_converge``.

Error bounds are heuristic but conservative (geometric tail estimates,
order-escalation differences for the quadrature, difference-decay
estimates for Abel tails); they are reported alongside every value.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple

import mpmath as mp
from mpmath.libmp import dps_to_prec, to_fixed

from .rationals import bernoulli_polynomial
from .terms import ConsProd, Generator, LiFactor, LinComb, LogExpansion
from .words import li_to_word

DEFAULT_DPS = 50
GUARD_DIGITS = 10
GUARD_BITS = 32  # fixed-point quadrature bits beyond the working precision
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


def _prefix_levels(indices, values, M: int) -> list:
    """Nested prefix sums T_0 = 1, T_i(k) = sum_{0<j<k} v_i^j j^{-n_i} T_{i-1}(j)
    for i = 0..len(indices); level i is an array whose entry arr[k] holds
    T_i(k+1), for k <= M, so the top level's arr[M] is the series of depth
    len(indices) truncated after k = M.  This is the module's only nested
    sum.  A level whose value is exactly 1 skips the powers of v: a product
    with an exact 1 changes no bit."""
    prev = [mp.mpf(1)] * (M + 1)
    levels = [prev]
    for v, nn in zip(values, indices):
        cur = [mp.mpc(0)] * (M + 1)
        acc = mp.mpc(0)
        if v == 1:
            for k in range(1, M + 1):
                acc = acc + prev[k - 1] / (k ** nn)
                cur[k] = acc
        else:
            pw = mp.mpc(1)
            for k in range(1, M + 1):
                pw = pw * v
                acc = acc + pw * prev[k - 1] / (k ** nn)
                cur[k] = acc
        prev = cur
        levels.append(prev)
    return levels


def eval_li_series(indices, values, target: float = 1e-30) -> HPComplex:
    """Truncated nested series for Li_n(v), requiring every tail product
    |v_i ... v_d| < 1.  The tail estimate is geometric in the largest tail
    product modulus (heuristic beyond depth 2)."""
    n = tuple(indices)
    vals = [mp.mpc(v) for v in values]
    d = len(n)
    rho = 0.0
    for i in range(d):
        m = 1.0
        for j in range(i, d):
            m *= float(abs(vals[j]))
        rho = max(rho, m)
    if rho >= 1.0:
        raise DomainError(f"series needs all tail products < 1 (got {rho})")
    M = max(40, int(math.log(max(target, 1e-300) * (1 - rho) / 20.0) / math.log(rho)) + 4 * d + 10)
    while True:
        M = min(M, _LI_MAX_TERMS)
        levels = _prefix_levels(n, vals, M)
        # the last term, k = M, formed on its own: top[M] - top[M-1] would
        # cancel against the partial sum once the term nears its last digit
        last = abs(vals[-1] ** M * levels[-2][M - 1] / M ** n[-1])
        err = float(last) * rho / (1 - rho) * 10 + 1e-300
        if err <= target or M >= _LI_MAX_TERMS:
            if err > target:
                raise PrecisionError(f"series truncation stuck at err {err}")
            return HPComplex(levels[-1][M], err)
        M = int(M * 1.7) + 16


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


def _to_fixed(x: mp.mpf, prec: int) -> int:
    return to_fixed(x._mpf_, prec)


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
        self.prec = dps_to_prec(dps + GUARD_DIGITS) + GUARD_BITS
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
        return mp.mpc(mp.mpf((left_r, -prec)), mp.mpf((left_i, -prec)))

    def word_value(self, letters) -> HPComplex:
        letters = [mp.mpc(s) for s in letters]
        prec = self.prec
        with mp.workdps(self.dps + GUARD_DIGITS):
            panels = [(_to_fixed(a, prec), _to_fixed(b, prec)) for a, b in self._panels(letters)]
            fixed = [(_to_fixed(s.real, prec), _to_fixed(s.imag, prec)) for s in letters]
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
    """Check Li_n(z) - (-1)^{|n|_0} Li_n(1/z) == equation at sample points."""
    n = tuple(index)
    d = len(n)
    if ctx is None:
        ctx = EvalContext()
    sign = (-1) ** (sum(n) - d)
    checks: list[SampleCheck] = []
    seed = 0
    produced = 0
    while produced < num_samples:
        try:
            point = sample_domain_point(d, seed)
            memo = ctx.point_memo(d, seed)
            with mp.workdps(ctx.dps + GUARD_DIGITS):
                lhs_key = ("lhs", n)
                lhs = memo.get(lhs_key)
                if lhs is None:
                    lhs_series = eval_li_series(n, point.z, ctx.target)
                    lhs_inv = eval_li_inverse(n, point.z, ctx.integrator)
                    lhs = HPComplex(lhs_series.value - sign * lhs_inv.value,
                                    lhs_series.err + lhs_inv.err)
                    memo[lhs_key] = lhs
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


def _polylog_at_root(m: int, frac: Fraction) -> mp.mpc:
    if frac == 0:
        if m < 2:
            raise DomainError("divergent zeta(1)")
        return mp.zeta(m) + mp.mpc(0)
    try:
        return mp.polylog(m, root_value(frac))
    except Exception:
        return _czv_abel((m,), (frac,))


def _forward_diffs(vals: list, order: int) -> list:
    out = [vals]
    cur = vals
    for _ in range(order):
        cur = [cur[i + 1] - cur[i] for i in range(len(cur) - 1)]
        out.append(cur)
    return [row[0] for row in out]


def _converge(attempt, M: int, cap: int, tail: str, case: str) -> mp.mpc:
    """The one convergence loop of the root-of-unity tails: double the
    truncation M from its start until ``attempt(M) -> (value, err)`` meets
    the target 10^-(dps-8), and raise PrecisionError once M has passed cap."""
    target = 10.0 ** (-(mp.mp.dps - 8))
    while True:
        value, err = attempt(M)
        if err <= target:
            return value
        if M > cap:
            raise PrecisionError(f"{tail} tail stuck at {err} for {case}")
        M *= 2


_ABEL_ORDER = 8  # summations by parts in an Abel tail
# prefix entries past the truncation M that an Abel tail's window reads
# (k up to M + _ABEL_ORDER + 1), with two to spare
_ABEL_REACH = _ABEL_ORDER + 2


def _abel_tail(cfun, K: int, y: mp.mpc):
    """sum_{k > K} c_k y^k via repeated summation by parts; returns
    (value, err_estimate).  c must be smooth (non-oscillatory) in k."""
    window = [cfun(K + 1 + t) for t in range(_ABEL_ORDER + 1)]
    diffs = _forward_diffs(window, _ABEL_ORDER)
    ratio = y / (1 - y)
    pref = y ** (K + 1) / (1 - y)
    total = mp.mpc(0)
    rp = mp.mpc(1)
    for r in range(_ABEL_ORDER):
        total += rp * pref * diffs[r]
        rp = rp * ratio
    err = float(abs(rp) * abs(diffs[_ABEL_ORDER]) * (K + 1) * 4)
    return total, err


# -- asymptotic series in k: dict (p, q) -> coeff for  coeff * k^{-p} log^q k

_EM_TERMS = 8
_EM_PMAX = 18
_MOMENT_TERMS = 12  # moments Phi_u of the geometric tail series, u = 0.._MOMENT_TERMS


def _series_add(dst: dict, p: int, q: int, c) -> None:
    if c == 0:
        return
    key = (p, q)
    new = dst.get(key, mp.mpc(0)) + c
    dst[key] = new


def _series_eval(S: dict, k) -> mp.mpc:
    lk = mp.log(k)
    total = mp.mpc(0)
    for (p, q), c in S.items():
        total += c * lk ** q / mp.mpf(k) ** p
    return total


def _deriv_entries(p: int, q: int, c):
    """d/dx of c x^{-p} log^q x."""
    out = []
    if p:
        out.append((p + 1, q, -p * c))
    if q:
        out.append((p + 1, q - 1, q * c))
    return out


def _integral_entries(p: int, q: int, c):
    """Antiderivative of c x^{-p} log^q x (constant-free)."""
    if p == 1:
        return [(0, q + 1, c / (q + 1))]
    out = []
    while True:
        out.append((p - 1, q, c / (1 - p)))
        if q == 0:
            return out
        c = -c * q / (1 - p)
        q -= 1


def _prefix_series(S: dict, m_i: int, M: int) -> tuple[dict, float]:
    """k-dependent part of sum_{j<k} j^{-m_i} S(j), by Euler-Maclaurin:

        F(k) - f(k)/2 + sum_t B_{2t}/(2t)! f^{(2t-1)}(k)

    for f(x) = x^{-m_i} S(x); the integration constant is fixed separately
    against the exact prefix data.  Returns (series, truncation proxy)."""
    from .rationals import bernoulli_number

    f = {}
    for (p, q), c in S.items():
        _series_add(f, p + m_i, q, c)
    out: dict = {}
    drop = mp.mpf(0)
    for (p, q), c in f.items():
        for p2, q2, c2 in _integral_entries(p, q, c):
            _series_add(out, p2, q2, c2)
        _series_add(out, p, q, -c / 2)
    # B_{2t}/(2t)! f^{(2t-1)}(k): walk the odd derivative orders
    def deriv_once(entries: dict) -> dict:
        nxt: dict = {}
        for (p, q), c in entries.items():
            for p2, q2, c2 in _deriv_entries(p, q, c):
                _series_add(nxt, p2, q2, c2)
        return nxt

    cur = deriv_once(f)  # order 1
    for t in range(1, _EM_TERMS + 1):
        b2t = bernoulli_number(2 * t)
        coeff = mp.mpf(b2t.numerator) / b2t.denominator / mp.factorial(2 * t)
        for (p, q), c in cur.items():
            _series_add(out, p, q, coeff * c)
        cur = deriv_once(deriv_once(cur))
    # estimate dropped content and prune high powers
    lk = mp.log(M)
    for (p, q), c in list(cur.items()):
        drop += abs(c) * lk ** q / mp.mpf(M) ** p
    pruned = {}
    for (p, q), c in out.items():
        if p > _EM_PMAX:
            drop += abs(c) * lk ** q / mp.mpf(M) ** p
        else:
            pruned[(p, q)] = c
    return pruned, float(drop)


def _series_tail_sum(S: dict, m_last: int, M: int) -> mp.mpc:
    """sum_{k>M} k^{-m_last} S(k) via Hurwitz zeta derivatives."""
    total = mp.mpc(0)
    for (p, q), c in S.items():
        s = p + m_last
        hz = mp.zeta(s, M + 1, q) if q else mp.zeta(s, M + 1)
        total += c * (-1) ** q * hz
    return total


def _czv_em(m, fracs) -> mp.mpc:
    """All roots equal 1 (an MZV, m_d >= 2): partial sum plus a tail summed
    from the Euler-Maclaurin asymptotics of the inner prefix sums, with the
    integration constants pinned to the exact prefix data at k = M."""
    m = tuple(m)
    d = len(m)
    ys = [root_value(f) for f in fracs]

    def attempt(M: int):
        levels = _prefix_levels(m, ys, M)
        S: dict = {(0, 0): mp.mpc(1)}
        err_acc = 0.0
        for i in range(1, d):
            S, drop = _prefix_series(S, m[i - 1], M)
            err_acc += drop
            const = levels[i][M - 1] - _series_eval(S, M)
            _series_add(S, 0, 0, const)
            resid = abs(levels[i][M // 2 - 1] - _series_eval(S, M // 2))
            err_acc += float(resid)
        nlast = m[-1]
        tail = _series_tail_sum(S, nlast, M)
        err = err_acc * float(abs(mp.zeta(nlast, M + 1))) * 4
        return levels[d][M] + tail, err

    return _converge(attempt, 1600, 40000, "EM", f"{m}")


def _geometric_moment_series(m1: int, y: mp.mpc) -> dict:
    """Asymptotics of sigma(k) = sum_{t>=0} y^t (k+t)^{-m1} for |y| = 1,
    y != 1:  sum_u C(-m1, u) Phi_u(y) k^{-m1-u} with Phi_u = sum t^u y^t."""
    from .rationals import signed_binomial

    S: dict = {}
    for u in range(_MOMENT_TERMS + 1):
        if u == 0:
            phi = 1 / (1 - y)
        else:
            phi = mp.polylog(-u, y)
        sb = signed_binomial(-m1, u)
        _series_add(S, m1 + u, 0, mp.mpf(sb.numerator) / sb.denominator * phi)
    return S


def _czv_abel(m, fracs) -> mp.mpc:
    """Trailing root != 1, inner roots all 1: partial sum + Abel tail."""
    m = tuple(m)
    ys = [root_value(f) for f in fracs]
    nlast = m[-1]

    def attempt(M: int):
        levels = _prefix_levels(m, ys, M + _ABEL_REACH)
        T = levels[-2]
        tail, err = _abel_tail(lambda k: T[k - 1] / mp.mpf(k) ** nlast, M, ys[-1])
        return levels[-1][M] + tail, err

    return _converge(attempt, 1500, 60000, "Abel", f"{m} at {fracs}")


def _czv_peel2(m, fracs) -> mp.mpc:
    """Depth 2 with an oscillatory inner root: peel the inner tail.

    With rho(k) = T1(inf) - T1(k) = y1^k sigma(k) and sigma smooth,

      sum_{k>M} y2^k k^{-m2} T1(k)
        = T1(inf) * sum_{k>M} y2^k k^{-m2}
          - sum_{k>M} (y1 y2)^k k^{-m2} sigma(k),

    where the first piece is closed (polylog / Hurwitz zeta) and the second
    is Abel-summable in the combined ratio y1*y2 (or fitted when that is 1).
    """
    m1, m2 = m
    f1, f2 = fracs
    y1 = root_value(f1)
    y1inv = 1 / y1
    y2 = root_value(f2)
    t1_inf = _polylog_at_root(m1, f1)

    def attempt(M: int):
        levels = _prefix_levels(m, (y1, y2), M + _ABEL_REACH)
        T = levels[1]
        if f2 == 0:
            head_tail = mp.zeta(m2, M + 1) + mp.mpc(0)
        else:
            head_tail = mp.polylog(m2, y2) - _prefix_levels((m2,), (y2,), M)[1][M]

        def sigma(k: int) -> mp.mpc:
            return (t1_inf - T[k - 1]) * y1inv ** k

        # y1*y2 = 1 exactly when the phases sum to an integer; deciding it
        # on the exact phases keeps the branch independent of the precision
        if (f1 + f2) % 1 == 0:
            S = _geometric_moment_series(m1, y1)
            rem = _series_tail_sum(S, m2, M)
            resid = abs(sigma(M) - _series_eval(S, M)) + abs(
                sigma(M // 2) - _series_eval(S, M // 2)
            )
            # residual decays at least like the series' leading power
            err = float(resid * mp.mpf(M) ** m1 * abs(mp.zeta(m2 + m1, M + 1))) * 4
        else:
            rem, err = _abel_tail(lambda k: sigma(k) / mp.mpf(k) ** m2, M, y1 * y2)
        return levels[2][M] + t1_inf * head_tail - rem, err

    return _converge(attempt, 1500, 60000, "peel", f"{m} at {fracs}")


def eval_czv(m, fracs, dps: int | None = None) -> mp.mpc:
    """Li_m at roots of unity exp(2 pi i * fracs); convergent cases only
    ((m_s, root_s) != (1, 1)).  Supported shapes: depth <= 1 closed, inner
    roots all 1 with any trailing root, and depth 2 with arbitrary roots."""
    m = tuple(int(x) for x in m)
    fracs = tuple(Fraction(f) % 1 for f in fracs)
    if dps is not None:
        with mp.workdps(dps):
            return eval_czv(m, fracs)
    d = len(m)
    if d == 0:
        return mp.mpc(1)
    if m[-1] == 1 and fracs[-1] == 0:
        raise DomainError(f"divergent head for {m} at {fracs}")
    if d == 1:
        return _polylog_at_root(m[0], fracs[0])
    inner_one = all(f == 0 for f in fracs[:-1])
    if inner_one:
        return _czv_em(m, fracs) if fracs[-1] == 0 else _czv_abel(m, fracs)
    if d == 2:
        return _czv_peel2(m, fracs)
    raise PrecisionError(f"unsupported root pattern for depth {d}: {fracs}")
