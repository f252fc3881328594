import random
from fractions import Fraction
from operator import mul

import mpmath as mp
import pytest
from mpmath.libmp import dps_to_prec

from mplparity.engine import ENGINE
from mplparity.oracle import (
    GUARD_BITS,
    GUARD_DIGITS,
    DomainError,
    EvalContext,
    HyperlogIntegrator,
    PrecisionError,
    _fixed,
    _fixed_prec,
    _from_fixed,
    _gauss_data,
    _legendre_pair,
    _power_sums,
    _prefix_levels,
    _ray_distance,
    ber_value,
    eval_czv,
    eval_generator,
    eval_li_inverse,
    eval_li_series,
    eval_lincomb,
    eval_log_expansion,
    li_word_letters,
    sample_domain_point,
    verify_feq,
)
from mplparity.terms import ConsProd, LiFactor, expand_ber_to_logs, make_generator


def test_sampling_constraints_and_determinism():
    p1 = sample_domain_point(3, seed=42)
    p2 = sample_domain_point(3, seed=42)
    assert p1.z == p2.z
    assert sample_domain_point(3, seed=43).z != p1.z
    for d in (1, 2, 3, 4):
        for seed in range(250):
            z = sample_domain_point(d, seed).z
            for i in range(d):
                prod = mp.mpc(1)
                for j in range(i, d):
                    prod *= z[j]
                    assert _ray_distance(prod) >= 0.05
                    assert abs(prod) < 1.0


def test_series_li1_log():
    with mp.workdps(40):
        z = mp.mpc("-0.5")
        got = eval_li_series((1,), (z,), 1e-20)
        assert abs(got.value - (-mp.log(1 - z))) < 1e-15


def test_series_dilog_half():
    with mp.workdps(40):
        got = eval_li_series((2,), (mp.mpf("0.5"),), 1e-16)
        ref = mp.pi ** 2 / 12 - mp.log(2) ** 2 / 2
        assert abs(got.value - ref) < 1e-13


def test_series_quasi_shuffle_consistency():
    # Li_1(a)Li_1(b) = Li_{1,1}(a,b) + Li_{1,1}(b,a) + Li_2(ab)
    with mp.workdps(40):
        a = mp.mpc("0.4", "-0.3")
        b = mp.mpc("-0.5", "0.1")
        lhs = eval_li_series((1,), (a,), 1e-16).value * eval_li_series((1,), (b,), 1e-16).value
        rhs = (
            eval_li_series((1, 1), (a, b), 1e-16).value
            + eval_li_series((1, 1), (b, a), 1e-16).value
            + eval_li_series((2,), (a * b,), 1e-16).value
        )
        assert abs(lhs - rhs) < 1e-12


def test_series_domain_guard():
    with pytest.raises(DomainError):
        eval_li_series((2,), (mp.mpc("1.2"),), 1e-10)


def test_hyperlog_single_letter():
    # int_0^1 dt/(t - y) = log(1 - 1/y) = -Li_1(1/y)
    with mp.workdps(40):
        integ = HyperlogIntegrator(30)
        y = mp.mpc("-0.6", "0.2")
        got = integ.word_value([y])
        assert abs(got.value - mp.log(1 - 1 / y)) < 1e-12


def test_hyperlog_inversion_cross_check():
    # Li_n(1/y) from the iterated integral vs the depth-1 inversion formula
    with mp.workdps(40):
        integ = HyperlogIntegrator(30)
        y = mp.mpc("-0.6", "0.2")
        for n in (1, 2, 3):
            via_word = eval_li_inverse((n,), [y], integ).value
            direct = -((-1) ** n) * eval_li_series((n,), (y,), 1e-18).value - (
                (-1) ** n
            ) * ber_value(n, y)
            assert abs(via_word - direct) < 1e-11, n


def test_cross_evaluator_agreement_depth2():
    # series through the reciprocal-argument translation: Li_n(x) computed
    # both directly and as Li_n(1/(1/x)) by quadrature
    with mp.workdps(40):
        integ = HyperlogIntegrator(30)
        for seed in (0, 1):
            z = sample_domain_point(2, seed).z
            for n in [(1, 1), (2, 1), (1, 2), (2, 2)]:
                direct = eval_li_series(n, z, 1e-18).value
                recip = [1 / v for v in z]
                via_word = eval_li_inverse(n, recip, integ).value
                assert abs(direct - via_word) < 1e-11, (n, seed)


def test_quadrature_error_estimate_scales():
    # comparing integrator orders: the reported bound dominates the actual
    # error against a much higher-order evaluation
    with mp.workdps(50):
        y = mp.mpc("-0.35", "0.15")
        letters = li_word_letters((2, 1), [y, mp.mpc("0.5", "0.6")])
        lo = HyperlogIntegrator(25)
        hi = HyperlogIntegrator(45)
        vlo = lo.word_value(letters)
        vhi = hi.word_value(letters)
        assert abs(vlo.value - vhi.value) <= vlo.err * 10 + 1e-20
        assert vhi.err < vlo.err


@pytest.mark.parametrize("q", [8, 46])
def test_gauss_data_integrates_polynomials(q):
    prec = HyperlogIntegrator(30).prec
    g = _gauss_data(q, prec)
    one = 1 << prec
    tol = 1 << 8  # 2^-(prec-8), in units of 2^-prec
    assert abs(sum(g.weights) - 2 * one) <= tol
    assert list(g.nodes) == sorted(g.nodes)
    assert g.nodes == tuple(-x for x in reversed(g.nodes))
    # CUM integrates every polynomial of degree < q exactly:
    # sum_j CUM[i][j] x_j^k = (x_i^{k+1} - (-1)^{k+1}) / (k+1), in integers
    for k in range(q):
        powers = [x ** k for x in g.nodes]
        scale = 1 << (prec * (k + 1))
        for i in range(q):
            lhs = (k + 1) * sum(c * p for c, p in zip(g.cum[i], powers))
            rhs = g.nodes[i] ** (k + 1) - (-1) ** (k + 1) * scale
            assert abs(lhs - rhs) * one <= tol * (k + 1) * scale, (k, i)


def test_gauss_data_shared_per_order_and_precision():
    a, b = HyperlogIntegrator(30), HyperlogIntegrator(30)
    assert a._gauss is b._gauss and a is not b
    assert a._gauss.order == a.order == 56
    lo, hi = HyperlogIntegrator(25), HyperlogIntegrator(45)
    assert lo._gauss is not hi._gauss
    # same order, other precision: its own entry
    c, d = HyperlogIntegrator(15, order=8), HyperlogIntegrator(20, order=8)
    assert c._gauss.order == d._gauss.order and c._gauss is not d._gauss


@pytest.mark.parametrize("q", [8, 56])
def test_gauss_modal_rows_give_legendre_coefficients(q):
    # the node values of P_{q-1} have the coefficients (c_{q-1}, c_{q-2}) =
    # (1, 0), and those of P_{q-2} have (0, 1)
    prec = HyperlogIntegrator(30).prec
    g = _gauss_data(q, prec)
    one = 1 << prec
    tol = 1 << 8  # 2^-(prec-8), in units of 2^-prec
    for m, expected in ((q - 1, (one, 0)), (q - 2, (0, one))):
        values = [_legendre_pair(m, x, prec)[0] for x in g.nodes]
        for row, want in zip(g.modal, expected):
            assert abs((sum(t * v for t, v in zip(row, values)) >> prec) - want) <= tol, (m, want)


@pytest.mark.parametrize("q", [7, 8, 56, 57])
def test_gauss_data_fold_is_exact(q):
    # the mirror identities the folded sweep rests on hold in exact integers,
    # and the folded rows give every row of cum dotted with an integrand.
    # The middle row of odd q is its own mirror and is computed directly, so
    # there the identity holds only to rounding; the fold never uses it.
    g = _gauss_data(q, HyperlogIntegrator(30).prec)
    m, h = q // 2, (q + 1) // 2
    assert g.weights == g.weights[::-1]
    for i in range(q):
        for j in range(q):
            gap = g.cum[i][j] + g.cum[q - 1 - i][q - 1 - j] - g.weights[j]
            assert gap == 0 if 2 * i != q - 1 else abs(gap) <= 1 << 8, (i, j)
    assert len(g.fold) == h
    rng = random.Random(q)
    vec = [rng.randrange(-(1 << 140), 1 << 140) for _ in range(q)]
    s = [a + b for a, b in zip(vec[:m], reversed(vec))] + vec[m:h]
    t = [a - b for a, b in zip(vec[:m], reversed(vec))]
    total = sum(map(mul, g.weights, vec))
    assert sum(map(mul, g.weights[:h], s)) == total
    for i, (S, D) in enumerate(g.fold):
        assert (len(S), len(D)) == (h, m)
        ss, dt = sum(map(mul, S, s)), sum(map(mul, D, t))
        assert (ss + dt) % 2 == 0
        assert (ss + dt) // 2 == sum(map(mul, g.cum[i], vec)), i
        if i < m:
            assert total - (ss - dt) // 2 == sum(map(mul, g.cum[q - 1 - i], vec)), i


def _unfolded_sweep(integ, letters):
    """The sweep without the mirror fold: every one of the q + 3 rows of
    cum, weights and modal meets each integrand in its own dot product."""
    gauss, prec = integ._gauss, integ.prec
    q = gauss.order
    rows = gauss.cum + (gauss.weights,) + gauss.modal
    with mp.workdps(integ.dps + GUARD_DIGITS):
        fixed = [_fixed(mp.mpc(s), prec) for s in letters]
    panels = integ._panels(fixed)
    fvals = [([1 << prec] * q, [0] * q) for _ in panels]
    left_r = left_i = est = 0
    for sr, si in reversed(fixed):
        left_r = left_i = 0
        new = []
        for (a, b), (fr, fi) in zip(panels, fvals):
            half, mid = (b - a) >> 1, (a + b) >> 1
            gr, gi = [], []
            for x, vr, vi in zip(gauss.nodes, fr, fi):
                dr = mid + (half * x >> prec) - sr
                den = dr * dr + si * si
                kr, ki = (half * dr << prec) // den, (half * si << prec) // den
                gr.append((vr * kr - vi * ki) >> prec)
                gi.append((vr * ki + vi * kr) >> prec)
            ir = [sum(map(mul, row, gr)) >> prec for row in rows]
            ii = [sum(map(mul, row, gi)) >> prec for row in rows]
            new.append(([left_r + v for v in ir[:q]], [left_i + v for v in ii[:q]]))
            left_r += ir[q]
            left_i += ii[q]
            est += abs(ir[q + 1]) + abs(ir[q + 2]) + abs(ii[q + 1]) + abs(ii[q + 2])
        fvals = new
    return _from_fixed(left_r, left_i, prec), est / (1 << prec)


@pytest.mark.parametrize("q", [9, 12, 56])
def test_folded_sweep_is_bit_identical(q):
    integ = HyperlogIntegrator(30, order=q)
    with mp.workdps(50):
        words = [li_word_letters(n, sample_domain_point(len(n), seed).z)
                 for n, seed in (((1,), 0), ((3,), 1), ((1, 2), 2), ((2, 1, 1), 3))]
    assert any(s == 0 for w in words for s in w)
    for letters in words:
        with mp.workdps(integ.dps + GUARD_DIGITS):
            fixed = [_fixed(mp.mpc(s), integ.prec) for s in letters]
        value, est = integ._sweep(fixed, integ._panels(fixed))
        ref_value, ref_est = _unfolded_sweep(integ, letters)
        assert value._mpc_ == ref_value._mpc_ and est == ref_est, letters


def test_panels_are_minimal_dyadic_bisections():
    integ = HyperlogIntegrator(30, order=12)
    prec = integ.prec
    one = 1 << prec
    with mp.workdps(50):
        fixed = [_fixed(mp.mpc(*s), prec) for s in
                 (("0.5", "0.001"), ("0",), ("-0.0002", "0.0001"), ("1.3", "0.01"))]
        far = [_fixed(mp.mpc(*s), prec) for s in (("0",), ("3", "4"))]
        near = [_fixed(mp.mpc("0.3", "1e-9"), prec)]

    def too_close(a, b):
        # the letter test, in exact rationals: dist < 0.9 (b - a)
        return any(max(a - x, x - b, 0) ** 2 + y * y < Fraction(9, 10) ** 2 * (b - a) ** 2
                   for x, y in fixed if (x, y) != (0, 0))

    panels = integ._panels(fixed)
    assert panels[0][0] == 0 and panels[-1][1] == one
    assert all(p[1] == q[0] for p, q in zip(panels, panels[1:]))
    for a, b in panels:
        ln = b - a
        assert isinstance(a, int) and ln & (ln - 1) == 0 and a % ln == 0
        assert ln <= one >> 2 and not too_close(a, b)
        # the panel's parent failed a test: it was longer than 1/4 or too close
        pa = a - a % (2 * ln)
        assert 2 * ln > one >> 2 or too_close(pa, pa + 2 * ln)
    assert len(panels) > 20
    assert integ._panels(far) == [(k * one >> 2, (k + 1) * one >> 2) for k in range(4)]
    with pytest.raises(DomainError, match="too close"):
        integ._panels(near)


def test_word_value_runs_one_sweep(monkeypatch):
    sweeps = []
    original = HyperlogIntegrator._sweep

    def counting(self, letters, panels):
        sweeps.append(len(letters))
        return original(self, letters, panels)

    monkeypatch.setattr(HyperlogIntegrator, "_sweep", counting)
    integ = HyperlogIntegrator(30)
    y = mp.mpc("-0.6", "0.2")
    for n in (1, 2, 3):
        eval_li_inverse((n,), [y], integ)
    assert sweeps == [1, 2, 3]


def test_quadrature_error_bound_holds():
    # the reported err of one sweep, taken from the top Legendre coefficients,
    # is at least the actual error against an order-110 evaluation at 70 digits
    ref_integ = HyperlogIntegrator(70, order=110)
    integs = [HyperlogIntegrator(30, order=q) for q in (10, 16, 24)] + [HyperlogIntegrator(30)]
    words = [li_word_letters(n, sample_domain_point(len(n), seed).z)
             for n in ((2,), (1, 2), (2, 1, 1)) for seed in range(3)]
    with mp.workdps(50):
        words.append(li_word_letters((2, 1), [mp.mpc("-0.35", "0.15"), mp.mpc("0.5", "0.6")]))
    with mp.workdps(80):
        for letters in words:
            ref = ref_integ.word_value(letters).value
            for integ in integs:
                got = integ.word_value(letters)
                assert abs(got.value - ref) <= got.err, (letters, integ.order)


def test_ber_value_examples():
    with mp.workdps(40):
        assert abs(ber_value(1, mp.mpc(-1))) < 1e-30  # log(1) = 0
        # upper-half-plane limit at z = 1: ber_2(1) = -pi^2/3
        lim = ber_value(2, mp.mpc(1, 1e-25))
        assert abs(lim - (-mp.pi ** 2 / 3)) < 1e-14


def test_generator_product_consistency():
    with mp.workdps(40):
        ctx = EvalContext(dps=30)
        z = sample_domain_point(2, seed=5).z
        g = make_generator(
            2, [(1, 1)], [LiFactor((2,), (ConsProd(2, 2),))]
        )
        v = eval_generator(g, z, ctx)
        direct = ber_value(1, z[0] * z[1]) * eval_li_series((2,), (z[1],), 1e-18).value
        assert abs(v.value - direct) < 1e-14


def test_log_expansion_preserves_value():
    ctx = EvalContext(dps=30)
    for n in [(1, 2), (2, 1)]:
        can = ENGINE.pli_canonical(n)
        le = expand_ber_to_logs(can)
        for seed in range(3):
            z = sample_domain_point(2, seed).z
            a = eval_lincomb(can, z, ctx).value
            b = eval_log_expansion(le, z, ctx).value
            assert abs(a - b) < 1e-14, (n, seed)


def test_polylog_inversion_numeric_sweep():
    # Li_n(z) + (-1)^n Li_n(1/z) + ber_n(z) = 0, n <= 6, ten sample points
    ctx = EvalContext(dps=40)
    with mp.workdps(50):
        for n in range(1, 7):
            for seed in range(10):
                z = sample_domain_point(1, seed).z[0]
                total = (
                    eval_li_series((n,), (z,), 1e-25).value
                    + (-1) ** n * eval_li_inverse((n,), [z], ctx.integrator).value
                    + ber_value(n, z)
                )
                assert abs(total) < 1e-12, (n, seed)


def test_verify_feq_report_shape():
    ctx = EvalContext(dps=30)
    rep = verify_feq((1, 2), ENGINE.pli_lincomb((1, 2)), 2, 1e-10, ctx)
    assert rep.passed and rep.samples == 2
    d = rep.to_dict()
    assert d["index"] == [1, 2] and len(d["checks"]) == 2
    assert d["skipped"] == []


@pytest.mark.parametrize("num_samples", [0, -1])
def test_verify_feq_needs_a_sample(num_samples):
    with pytest.raises(ValueError, match="at least one sample"):
        verify_feq((1, 2), ENGINE.pli_lincomb((1, 2)), num_samples, 1e-10, EvalContext(dps=30))


def test_verify_feq_reports_skipped_samples(monkeypatch):
    from mplparity import oracle

    original = oracle.sample_domain_point

    def failing_at_0(d, seed):
        if seed == 0:
            raise DomainError("no point here")
        return original(d, seed)

    monkeypatch.setattr(oracle, "sample_domain_point", failing_at_0)
    rep = verify_feq((1, 2), ENGINE.pli_lincomb((1, 2)), 2, 1e-10, EvalContext(dps=30))
    assert rep.passed and [c.seed for c in rep.checks] == [1, 2]
    assert rep.skipped == [(0, "DomainError: no point here")]
    assert rep.to_dict()["skipped"] == [{"seed": 0, "reason": "DomainError: no point here"}]
    # giving up names every skipped seed's reason
    monkeypatch.setattr(oracle, "sample_domain_point", lambda d, seed: failing_at_0(d, 0))
    with pytest.raises(PrecisionError, match="seed 52: DomainError: no point here"):
        verify_feq((1, 2), ENGINE.pli_lincomb((1, 2)), 2, 1e-10, EvalContext(dps=30))


# -- root-of-unity series ----------------------------------------------------


def test_czv_depth1():
    with mp.workdps(30):
        assert abs(eval_czv((2,), (Fraction(0),)) - mp.zeta(2)) < 1e-25
        v = eval_czv((1,), (Fraction(1, 2),))
        assert abs(v - (-mp.log(2))) < 1e-25
        with pytest.raises(DomainError):
            eval_czv((1,), (Fraction(0),))


def test_czv_euler_identity():
    with mp.workdps(30):
        assert abs(eval_czv((1, 2), (Fraction(0), Fraction(0))) - mp.zeta(3)) < 1e-22


def test_czv_depth2_brute_double_sum():
    # truncated double sums with crude tail bounds, several root patterns
    cases = [
        ((2, 3), (Fraction(0), Fraction(0))),
        ((1, 2), (Fraction(0), Fraction(1, 2))),
        ((3, 2), (Fraction(1, 2), Fraction(0))),
        ((2, 1), (Fraction(1, 4), Fraction(1, 2))),
    ]
    with mp.workdps(30):
        for m, fr in cases:
            got = eval_czv(m, fr)
            y1 = mp.e ** (2j * mp.pi * mp.mpf(fr[0].numerator) / fr[0].denominator)
            y2 = mp.e ** (2j * mp.pi * mp.mpf(fr[1].numerator) / fr[1].denominator)
            M = 3000
            inner = mp.mpc(0)
            acc = mp.mpc(0)
            p1 = mp.mpc(1)
            p2 = mp.mpc(1)
            T = [mp.mpc(0)] * (M + 1)
            for k in range(1, M + 1):
                p1 *= y1
                inner += p1 / mp.mpf(k) ** m[0]
                T[k] = inner
            partials = []
            for k in range(1, M + 1):
                p2 *= y2
                acc += p2 * T[k - 1] / mp.mpf(k) ** m[1]
                partials.append(acc)
            brute = sum(partials[-100:]) / 100
            assert abs(got - brute) < 5e-4, (m, fr)


def test_czv_depth3():
    with mp.workdps(30):
        # zeta(2,1,2) via the published-style reduction is not assumed; use
        # a long partial sum plus monotone tail bracketing instead
        got = eval_czv((2, 1, 2), (Fraction(0),) * 3)
        M = 1500
        T1 = [mp.mpf(0)] * (M + 1)
        acc = mp.mpf(0)
        for k in range(1, M + 1):
            acc += 1 / mp.mpf(k) ** 2
            T1[k] = acc
        T2 = [mp.mpf(0)] * (M + 1)
        acc = mp.mpf(0)
        for k in range(1, M + 1):
            acc += T1[k - 1] / mp.mpf(k)
            T2[k] = acc
        partial = mp.mpf(0)
        for k in range(1, M + 1):
            partial += T2[k - 1] / mp.mpf(k) ** 2
        # tail is positive and below (max T2) * sum_{k>M} k^-2
        tail_hi = T2[M] * 1.2 / M
        assert partial < mp.re(got) < partial + tail_hi


def test_czv_general_roots_match_quadrature():
    # root patterns outside depth 1, "inner roots all 1" and depth 2, against
    # the iterated-integral quadrature of the same values
    cases = [
        ((2, 2, 2), (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))),
        ((1, 1, 2), (Fraction(1, 4), Fraction(1, 2), Fraction(1, 3))),
        ((1, 2, 1), (Fraction(1, 12), Fraction(1, 6), Fraction(1, 4))),
        ((1, 1, 1, 2), (Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))),
    ]
    integ = HyperlogIntegrator(40)
    with mp.workdps(40):
        for m, fr in cases:
            base = [1 / mp.expjpi(2 * mp.mpf(f.numerator) / f.denominator) for f in fr]
            ref = eval_li_inverse(m, base, integ).value
            assert abs(eval_czv(m, fr) - ref) < 1e-38, (m, fr)
        with pytest.raises(DomainError):
            eval_czv((2, 1), (Fraction(1, 3), Fraction(0)))


def _gauss_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


@pytest.mark.parametrize("units", [((1, 0), (1, 0), (1, 0)),
                                   ((-1, 0), (1, 0), (-1, 0)),
                                   ((0, 1), (1, 0), (0, -1)),
                                   # ratios of modulus 1.1 and 1.5, tail products below 1
                                   ((Fraction(-11, 10), 0), (Fraction(3, 2), 0),
                                    (Fraction(1, 2), Fraction(1, 3)))])
def test_prefix_levels_match_exact_nested_sums(units):
    # the truncated series Li_{2,1,3}(v) (values innermost first) in Gaussian
    # rationals: T_i(k) = sum_{j<k} v_i^j j^{-n_i} T_{i-1}(j), held as
    # prev[k - 1] = T_{i-1}(k).  The kernel carries level i as
    # A_i(k) = v_i^k T_{i-1}(k) (v_{i+1} ... v_3)^k
    indices, M = (2, 1, 3), 30
    units = [(Fraction(re), Fraction(im)) for re, im in units]
    tails = [units[-1]]
    for u in units[-2::-1]:
        tails.append(_gauss_mul(u, tails[-1]))  # v_3, v_2 v_3, v_1 v_2 v_3
    prec = _fixed_prec(50)
    ys = [tuple((x.numerator << prec) // x.denominator for x in y) for y in tails]
    got = [(list(ar), list(ai)) for ar, ai in _prefix_levels(ys, indices[::-1], M, prec)]
    top = _power_sums(*got[-1], indices[-1])[-1]
    prev = [(Fraction(1), Fraction(0))] * (M + 1)
    for level, (u, n) in enumerate(zip(units, indices)):
        outer = (Fraction(1), Fraction(0))  # v_{i+1} ... v_3
        for v in units[level + 1:]:
            outer = _gauss_mul(outer, v)
        cur = [(Fraction(0), Fraction(0))]
        pw, po = (1, 0), (1, 0)
        ar, ai = got[level]
        assert len(ar) == len(ai) == M + 1
        for k in range(1, M + 1):
            pw, po = _gauss_mul(pw, u), _gauss_mul(po, outer)
            term = _gauss_mul(pw, prev[k - 1])  # v_i^k T_{i-1}(k)
            for fixed, exact in zip((ar[k], ai[k]), _gauss_mul(term, po)):
                assert abs(Fraction(fixed, 1 << prec) - exact) < Fraction(1, 10 ** 45)
            cur.append((cur[-1][0] + term[0] / k ** n, cur[-1][1] + term[1] / k ** n))
        prev = cur
    # the outermost array dotted with 1/N^3 is the truncated series T_3(M + 1)
    for fixed, exact in zip(top, prev[M]):
        assert abs(Fraction(fixed, 1 << prec) - exact) < Fraction(1, 10 ** 45)


def test_czv_precision_independent():
    # unit letters come from the exact phases: at a phase sum of 0 mod 1 the
    # word has the letter 1, and the value is the same at 10 and 60 digits
    cases = [
        ((1, 2), (Fraction(1, 2), Fraction(1, 2))),
        ((2, 2), (Fraction(1, 2), Fraction(1, 2))),
        ((1, 2), (Fraction(1, 4), Fraction(3, 4))),
        ((2, 1, 2), (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))),
        ((1, 2, 2), (Fraction(1, 4), Fraction(1, 4), Fraction(3, 4))),
    ]
    for m, fr in cases:
        ref = eval_czv(m, fr, dps=60)
        with mp.workdps(60):
            got = eval_czv(m, fr, dps=10)
            assert abs(got - ref) < 1e-10, (m, fr)


def test_czv_guards_the_working_precision_once(monkeypatch):
    # eval_czv_combination has already added GUARD_DIGITS, so eval_czv adds
    # only GUARD_BITS
    from mplparity import oracle

    precs = []
    original = oracle._prefix_levels

    def recording(ys, ms, M, prec):
        precs.append(prec)
        return original(ys, ms, M, prec)

    monkeypatch.setattr(oracle, "_prefix_levels", recording)
    with mp.workdps(40):
        got = eval_czv((1, 2), (Fraction(0), Fraction(0)))
        assert abs(got - mp.zeta(3)) < 1e-38
    assert precs and set(precs) == {dps_to_prec(40) + GUARD_BITS}


# eval_czv at 40 digits, one case per input shape that once had its own
# tail evaluator (the ids name it); values captured from those tails, which
# aimed at 1e-32
CZV_PINS = [
    ((2,), (Fraction(1, 3),),  # closed
     "-0.548311355616075478824138388882008396", "0.676627737606435750014135036183013524"),
    ((2, 3), (Fraction(0), Fraction(0)),  # Euler-Maclaurin, depth 2
     "0.228810397603353759768746148941688792", "0"),
    ((3, 1, 2), (Fraction(0),) * 3,  # Euler-Maclaurin, depth 3
     "0.618349560571269307895639260851864898", "0"),
    ((1, 2), (Fraction(0), Fraction(1, 2)),  # Abel
     "0.150257112894949285674967270188931249", "0"),
    ((2, 1), (Fraction(1, 4), Fraction(1, 2)),  # peel2, Abel branch
     "0.0429355716199821101491674302729981196", "0.293952216294143488249959236666718141"),
    ((1, 2), (Fraction(1, 2), Fraction(1, 2)),  # peel2, y1*y2 = 1 branch
     "-0.243070351670061577562704723967582217", "0"),
]


@pytest.mark.parametrize("m,fracs,re,im", CZV_PINS,
                         ids=["closed", "em2", "em3", "abel", "peel2_abel", "peel2_unit"])
def test_czv_tail_paths_pinned(m, fracs, re, im):
    with mp.workdps(40):
        got = eval_czv(m, fracs)
        assert abs(got - mp.mpc(re, im)) < 1e-30
