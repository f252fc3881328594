from fractions import Fraction

import mpmath as mp
import pytest

from mplparity.engine import ENGINE, pli
from mplparity.oracle import EvalContext, eval_lincomb
from mplparity.roots import (
    IMAG_I,
    MINUS_I,
    MINUS_ONE,
    ONE_ROOT,
    CzvCombination,
    CzvFactor,
    DivergentHeadError,
    RootOfUnity,
    alt_depth2,
    ber_at_root,
    bernoulli_identity_check,
    eval_czv_combination,
    integrality_check,
    make_term,
    mzv_depth2_even_relation,
    normalize_czv,
    reduce_mzv_depth2,
    reduce_mzv_depth3,
    regularized_limit_factor,
    render_real_imag,
    specialize,
)


def zeta_term(*factors):
    return make_term(0, 0, tuple(CzvFactor(f, (ONE_ROOT,) * len(f)) for f in factors))


def test_eval_czv_combination_evaluates_each_factor_once(monkeypatch):
    from mplparity import oracle

    calls = []
    original = oracle.eval_czv

    def counting(m, fracs, dps=None):
        calls.append((tuple(m), tuple(fracs)))
        return original(m, fracs, dps)

    monkeypatch.setattr(oracle, "eval_czv", counting)
    li2 = CzvFactor((2,), (MINUS_ONE,))
    li3 = CzvFactor((3,), (IMAG_I,))
    im3 = CzvFactor((3,), (IMAG_I,), "im")
    combo = CzvCombination()
    combo.add_term(make_term(0, 0, (li2,)), 2)
    combo.add_term(make_term(0, 0, (li2, li3)), 1)
    combo.add_term(make_term(0, 1, (im3,)), 1)
    got = eval_czv_combination(combo, dps=30)
    assert len(calls) == len(set(calls)) == 2
    with mp.workdps(40):
        a = mp.polylog(2, -1)
        b = mp.polylog(3, mp.mpc(0, 1))
        assert abs(got - (2 * a + a * b + mp.mpc(0, 1) * mp.im(b))) < 1e-25


def test_root_arithmetic():
    r = RootOfUnity.make(6, 8)
    assert (r.k, r.N) == (3, 4)
    assert r.inv() == RootOfUnity(1, 4)
    assert IMAG_I.mul(IMAG_I) == MINUS_ONE
    assert IMAG_I.mul(MINUS_I) == ONE_ROOT


def test_ber_at_root_values():
    # ber_2(1) = -pi^2/3 = (1/3) (i pi)^2
    assert ber_at_root(2, ONE_ROOT) == (Fraction(1, 3), 2)
    # ber_{2s}(-1) = (2^{1-2s}-1) ber_{2s}(1)
    for s in (1, 2, 3):
        c1, p1 = ber_at_root(2 * s, ONE_ROOT)
        c2, p2 = ber_at_root(2 * s, MINUS_ONE)
        assert p1 == p2 == 2 * s
        assert c2 == (Fraction(2) ** (1 - 2 * s) - 1) * c1
    # ber_1(i) = log(-i) = -i pi / 2
    assert ber_at_root(1, IMAG_I) == (Fraction(-1, 2), 1)
    # upper-half-plane branch at z = 1: log(-1) = -i pi
    assert ber_at_root(1, ONE_ROOT) == (Fraction(-1), 1)


def test_regularized_limits():
    # convergent: Li_2(z) -> zeta(2)
    got = regularized_limit_factor((2,), (ONE_ROOT,))
    assert got == CzvCombination.symbol((2,), (ONE_ROOT,))
    # pure log power: Li_1(z) -> 0
    assert regularized_limit_factor((1,), (ONE_ROOT,)).is_zero()
    # worked example: Li_{2,1}(-1, z->1) = -Li_{1,2}(-1,-1) - Li_{1,2}(-1,1)
    got = regularized_limit_factor((2, 1), (MINUS_ONE, ONE_ROOT))
    expected = CzvCombination.symbol((1, 2), (MINUS_ONE, MINUS_ONE), -1) + \
        CzvCombination.symbol((1, 2), (MINUS_ONE, ONE_ROOT), -1)
    assert got == expected


def test_specialize_mzv_and_alternating():
    r12 = pli((1, 2))
    assert specialize(r12, (ONE_ROOT, ONE_ROOT)) == CzvCombination(
        {zeta_term((3,)): Fraction(2)}
    )
    assert specialize(r12, (ONE_ROOT, MINUS_ONE)) == CzvCombination(
        {zeta_term((3,)): Fraction(1, 4)}
    )


def test_specialize_fourth_root_exact():
    got = specialize(pli((1, 2)), (ONE_ROOT, IMAG_I))
    expected = CzvCombination()
    expected.add_term(zeta_term((3,)), 1)
    expected.add_term(make_term(0, 0, (CzvFactor((3,), (IMAG_I,)),)), 1)
    expected.add_term(make_term(1, 0, (CzvFactor((2,), (IMAG_I,)),)), Fraction(1, 2))
    expected.add_term(make_term(3, 0, ()), Fraction(1, 48))
    assert got == expected


def test_specialize_rejects_divergent_head():
    with pytest.raises(DivergentHeadError):
        specialize(pli((1, 1)), (ONE_ROOT, ONE_ROOT))
    with pytest.raises(DivergentHeadError):
        specialize(pli((2, 1)), (MINUS_ONE, ONE_ROOT))


def test_specialize_depth_and_weight():
    roots_by_N = {
        1: [ONE_ROOT],
        2: [MINUS_ONE, ONE_ROOT],
        3: [RootOfUnity.make(1, 3)],
        4: [IMAG_I],
        6: [RootOfUnity.make(1, 6)],
    }
    for n in [(2,), (3,), (1, 2), (2, 1), (2, 2), (1, 1, 2), (2, 1, 2)]:
        for N, pool in roots_by_N.items():
            roots = tuple(pool[i % len(pool)] for i in range(len(n)))
            if n[-1] == 1 and roots[-1].is_one():
                continue
            combo = specialize(pli(n), roots)
            assert combo.weights() <= {sum(n)}, (n, N)
            assert combo.max_depth() <= len(n) - 1, (n, N)


def test_reduce_mzv_depth2_values():
    assert reduce_mzv_depth2(1, 2) == CzvCombination({zeta_term((3,)): Fraction(1)})
    got = reduce_mzv_depth2(2, 3)
    expected = CzvCombination()
    expected.add_term(zeta_term((5,)), Fraction(-11, 2))
    expected.add_term(zeta_term((2,), (3,)), 3)
    assert got == expected
    with pytest.raises(ValueError):
        reduce_mzv_depth2(2, 2)
    with pytest.raises(ValueError):
        reduce_mzv_depth2(2, 1)


def test_reduce_mzv_depth2_matches_specialized_engine():
    # 2 zeta(n1, n2) = PLi at unity for odd weight
    for n in [(1, 2), (2, 3), (1, 4), (3, 2), (4, 1)]:
        if n[1] == 1:
            continue
        lhs = specialize(pli(n), (ONE_ROOT, ONE_ROOT))
        rhs = normalize_czv(reduce_mzv_depth2(*n).scale(2))
        assert lhs == rhs, n


def test_reduce_mzv_depth2_numeric_double_sum():
    # truncated double series with tail bound, float precision
    a, b = 2, 3
    M = 4000
    acc = 0.0
    inner = 0.0
    for k in range(1, M):
        inner += 1.0 / k ** a
        acc += inner / (k + 1) ** b
    # tail < zeta(a) * integral_M^inf x^-b dx
    tail = 1.7 / ((b - 1) * M ** (b - 1))
    val = float(mp.re(eval_czv_combination(reduce_mzv_depth2(a, b), dps=30)))
    assert abs(val - acc) <= tail + 1e-10


def test_even_weight_relation_numeric():
    for n in [(1, 3), (2, 2), (3, 3), (1, 5)]:
        combo = mzv_depth2_even_relation(*n)
        val = eval_czv_combination(combo, dps=30)
        assert abs(val) < 1e-25, n


def test_reduce_mzv_depth3_152_exact():
    got = reduce_mzv_depth3(1, 5, 2)
    expected = CzvCombination()
    expected.add_term(zeta_term((8,)), 7)
    expected.add_term(zeta_term((2,), (6,)), 3)
    expected.add_term(zeta_term((2,), (2,), (4,)), -5)
    expected.add_term(zeta_term((2,), (3,), (3,)), 2)
    expected.add_term(zeta_term((3,), (5,)), -3)
    expected.add_term(zeta_term((1, 7)), 7)
    expected.add_term(zeta_term((4,), (4,)), Fraction(3, 2))
    expected.add_term(zeta_term((5, 3)), Fraction(1, 2))
    expected.add_term(zeta_term((6, 2)), Fraction(-1, 2))
    assert got == expected


def test_reduce_mzv_depth3_matches_specialized_engine():
    # alternative reductions need not agree symbolically (no canonical basis
    # for coloured-zeta combinations); they must agree numerically
    for n in [(1, 1, 2), (1, 5, 2), (2, 2, 2), (1, 2, 3)]:
        lhs = eval_czv_combination(specialize(pli(n), (ONE_ROOT,) * 3), dps=30)
        rhs = eval_czv_combination(reduce_mzv_depth3(*n).scale(2), dps=30)
        assert abs(lhs - rhs) < 1e-24, n


def test_alt_depth2_reduces_to_mzv_case():
    # all signs +1 collapses to the depth-2 zeta reduction
    for n in [(1, 2), (2, 3)]:
        alt = normalize_czv(alt_depth2(n[0], n[1], 1, 1))
        z = normalize_czv(reduce_mzv_depth2(*n))
        assert alt == z, n


def test_alt_depth2_numeric():
    # Li_{2,3}(-1, 1) against an alternating truncated double sum
    val = complex(eval_czv_combination(alt_depth2(2, 3, -1, 1), dps=30))
    M = 4000
    inner = 0.0
    acc = 0.0
    sgn = -1.0
    for k in range(1, M):
        inner += sgn / k ** 2
        acc += inner / (k + 1) ** 3
        sgn = -sgn
    # the brute force itself carries an O(1/M^2) truncation bias
    assert abs(val.real - acc) < 1e-6
    with pytest.raises(ValueError):
        alt_depth2(2, 1, -1, 1)
    with pytest.raises(ValueError):
        alt_depth2(1, 2, 1, 2)


def test_alt_depth2_notation_case():
    # zeta(bar n1, n2) with the engine: 2 Li_{n1,n2}(-1,1) at odd weight
    for n in [(1, 2), (3, 2), (2, 3)]:
        lhs = specialize(pli(n), (MINUS_ONE, ONE_ROOT))
        rhs = normalize_czv(alt_depth2(n[0], n[1], -1, 1).scale(2))
        assert lhs == rhs, n


def test_bernoulli_identity():
    assert bernoulli_identity_check(0, 0)
    assert bernoulli_identity_check(1, 2)
    for n1 in range(0, 9):
        for n2 in range(0, 9 - n1):
            assert bernoulli_identity_check(n1, n2), (n1, n2)


def test_integrality():
    # doubled depth-3 reduction of zeta(1,5,2) is manifestly integral
    assert integrality_check(reduce_mzv_depth3(1, 5, 2).scale(2))
    assert not integrality_check(reduce_mzv_depth3(1, 5, 2))
    for n in [(1, 2), (2, 1, 2), (1, 1, 1, 1)]:
        assert integrality_check(ENGINE.pli_lincomb(n)), n
    halved = reduce_mzv_depth3(1, 5, 2).scale(2)
    t0 = next(iter(halved.terms))
    halved.terms[t0] = halved.terms[t0] / 2
    assert not integrality_check(halved)


def test_parity_real_imaginary_invariant():
    # on |z| = 1: PLi = Li - (-1)^{|n|-d} conj(Li), so it is real for odd
    # reduced weight |n| - d and purely imaginary for even (in depth two the
    # reduced-weight parity is the weight parity)
    cases = [((1, 2), (ONE_ROOT, IMAG_I)), ((2, 2), (IMAG_I, MINUS_ONE)),
             ((3,), (IMAG_I,)), ((2,), (RootOfUnity.make(1, 3),))]
    for n, roots in cases:
        val = eval_czv_combination(specialize(pli(n), roots), dps=30)
        if (sum(n) - len(n)) % 2:
            assert abs(mp.im(val)) < 1e-24, (n, roots)
        else:
            assert abs(mp.re(val)) < 1e-24, (n, roots)


def test_specialize_values_each_distinct_factor_once(monkeypatch):
    # in (2,1,2) at (1/3, 1/4, 1/6) many terms share an Li factor, and
    # distinct spans can share a root product
    from mplparity import roots as roots_module

    calls = []
    original = roots_module.regularized_limit_factor

    def counting(m, rts):
        calls.append((tuple(m), tuple(rts)))
        return original(m, rts)

    rts = tuple(RootOfUnity.make(1, N) for N in (3, 4, 6))
    expected = specialize(pli((2, 1, 2), "canonical"), rts)
    monkeypatch.setattr(roots_module, "regularized_limit_factor", counting)
    got = specialize(pli((2, 1, 2), "canonical"), rts)
    assert got == expected
    assert len(calls) == len(set(calls)) > 0


def test_render_real_imag():
    combo = specialize(pli((1, 2)), (ONE_ROOT, IMAG_I))
    rendered = render_real_imag(combo)
    # the rendering splits Li at i into Re/Im symbols; value is unchanged
    a = eval_czv_combination(combo, dps=30)
    b = eval_czv_combination(rendered, dps=30)
    assert abs(a - b) < 1e-24
    parts = {f.part for t in rendered.terms for f in t.factors}
    assert parts <= {"re", "im", ""}
    assert "im" in parts or "re" in parts


def test_divergence_cancellation_radial_probe():
    # approaching the root radially from inside the domain reproduces the
    # specialized combination (the per-term log divergences cancel)
    ctx = EvalContext(dps=25, target=1e-16)
    n = (1, 2)
    eq = ENGINE.pli_canonical(n)
    combo = specialize(pli(n), (ONE_ROOT, ONE_ROOT))
    target = eval_czv_combination(combo, dps=25)
    diffs = []
    for eps in (1e-2, 1e-3):
        z = tuple(mp.mpc((1 - eps) * mp.cos(eps), (1 - eps) * mp.sin(eps)) for _ in n)
        probe = eval_lincomb(eq, z, ctx).value
        diffs.append(abs(probe - target))
    # the gap closes like O(eps log^2 eps)
    assert diffs[1] < diffs[0] / 2
    assert diffs[1] < 1e-1
