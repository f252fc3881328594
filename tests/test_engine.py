from fractions import Fraction

import mpmath as mp
import pytest

from mplparity.engine import (
    ENGINE,
    DiffExpr,
    Engine,
    diff_z1,
    embed,
    iterated_primitive,
    pli,
    primitive_z1,
    reglim_z1,
    suffix_spans,
    z1_log_derivative,
)
from mplparity.oracle import (
    EvalContext,
    eval_li_inverse,
    eval_lincomb,
    sample_domain_point,
)
from mplparity.terms import (
    ConsProd,
    LiFactor,
    LinComb,
    RewriteError,
    ber_generator,
    invert_depth1,
    li_generator,
    make_generator,
    validate_generator,
)


def all_indices(max_weight):
    out = []
    for w in range(1, max_weight + 1):
        for bits in range(1 << (w - 1)):
            parts, cur = [], 1
            for b in range(w - 1):
                if bits & (1 << b):
                    parts.append(cur)
                    cur = 1
                else:
                    cur += 1
            parts.append(cur)
            out.append(tuple(parts))
    return out


# -- differentiation ---------------------------------------------------------


def test_diff_li_weight_drop():
    c = LinComb.single(li_generator(1, (3,), (ConsProd(1, 1),)))
    d = diff_z1(c)
    assert d.pole_free == LinComb.single(li_generator(1, (2,), (ConsProd(1, 1),)))
    assert d.pole_one.is_zero() and not d.other


def test_diff_ber_chain():
    c = LinComb.single(ber_generator(2, 1, 3))
    d = diff_z1(c)
    assert d.pole_free == LinComb.single(ber_generator(2, 1, 2))
    c = LinComb.single(ber_generator(2, 1, 1))
    d = diff_z1(c)
    # ber_0 = 1: derivative is 1/z_1 times the empty product
    assert d.pole_free == LinComb.single(make_generator(2, [], []))


def test_diff_pli_1n_matches_key_formula():
    # d/dz_1 PLi_{1,n} = [ber_n(z_1z_2) - ber_n(z_2)]/(1-z_1)
    #                    + [(-1)^n Li_n(1/z_2) - Li_n(z_1 z_2)]/z_1
    for n in (2, 3, 4):
        d = diff_z1(ENGINE.pli_lincomb((1, n)))
        for j, lc in d.other.items():
            assert lc.is_zero()
        pole_one = LinComb(2)
        pole_one.add_term(ber_generator(2, 1, n), 1)
        pole_one.add_term(ber_generator(2, 2, n), -1)
        assert d.pole_one == pole_one
        pole_free = LinComb(2)
        pole_free.add_term(li_generator(2, (n,), (ConsProd(2, 2, True),)), (-1) ** n)
        pole_free.add_term(li_generator(2, (n,), (ConsProd(1, 2),)), -1)
        assert d.pole_free == pole_free


# -- primitives --------------------------------------------------------------


def test_primitive_ber_cases():
    # ber_k(z_{1,N})/z_1 -> ber_{k+1}(z_{1,N})
    e = DiffExpr(LinComb.single(ber_generator(2, 1, 2)), LinComb(2), {})
    assert primitive_z1(e) == LinComb.single(ber_generator(2, 1, 3))
    # ber_k(z_{1,N})/(1-z_1) -> sum_mu (-1)^mu Li_{1+mu}(z_1) ber_{k-mu}(z_{1,N})
    e = DiffExpr(LinComb(2), LinComb.single(ber_generator(2, 1, 2)), {})
    expected = LinComb(2)
    for mu in range(3):
        bers = [(1, 2 - mu)] if 2 - mu else []
        expected.add_term(
            make_generator(2, bers, [LiFactor((1 + mu,), (ConsProd(1, 1),))]),
            (-1) ** mu,
        )
    assert primitive_z1(e) == expected


def test_primitive_reproduces_weight_n_plus_one_equation():
    # integrating the key-formula derivative of PLi_{1,n} and fixing the
    # constant from the z_1 -> 0 expansion is exactly what the engine does;
    # check the closed shape of the result against the direct formula
    n = 3
    eq = ENGINE.pli_lincomb((1, n))
    expected = LinComb(2)
    for mu in range(n + 1):
        bers = [(1, n - mu)] if n - mu else []
        expected.add_term(
            make_generator(2, bers, [LiFactor((1 + mu,), (ConsProd(1, 1),))]),
            (-1) ** mu,
        )
    expected.add_term(
        make_generator(2, [(2, n)], [LiFactor((1,), (ConsProd(1, 1),))]), -1
    )
    expected.add_term(li_generator(2, (n + 1,), (ConsProd(1, 2),)), -1)
    expected.add_term(
        make_generator(2, [(1, 1)], [LiFactor((n,), (ConsProd(2, 2, True),))]),
        (-1) ** n,
    )
    expected.add_term(
        li_generator(2, (n + 1,), (ConsProd(2, 2, True),)), n * (-1) ** n
    )
    assert eq == expected


def test_iterated_primitive_roundtrip():
    # applying (z_1 d/dz_1)^r recovers ber_k Li_n exactly
    for r in (1, 2, 3):
        for k in (0, 1, 2, 3):
            factor = LiFactor((2, 1), (ConsProd(1, 1), ConsProd(2, 2)))
            prim = iterated_primitive(k, factor, r, 2)
            cur = prim
            for _ in range(r):
                cur = z1_log_derivative(cur)
            bers = [(1, k)] if k else []
            assert cur == LinComb(
                2, {make_generator(2, bers, [factor]): Fraction(1)}
            ), (r, k)


def test_iterated_primitive_r1_matches_single_primitive():
    factor = LiFactor((1,), (ConsProd(1, 2),))
    for k in range(4):
        one = iterated_primitive(k, factor, 1, 2)
        bers = [(1, k)] if k else []
        e = DiffExpr(
            LinComb.single(make_generator(2, bers, [factor])), LinComb(2), {}
        )
        assert one == primitive_z1(e)


# -- the z_1 -> 0 expansion --------------------------------------------------


def test_reglim_examples():
    # (1, n): n Li_{n+1}(1/z_2) + ber_1(z_1 z_2) Li_n(1/z_2)
    for n in (2, 3):
        got = reglim_z1((1, n))
        expected = LinComb(2)
        expected.add_term(li_generator(2, (n + 1,), (ConsProd(2, 2, True),)), n)
        expected.add_term(
            make_generator(2, [(1, 1)], [LiFactor((n,), (ConsProd(2, 2, True),))]), 1
        )
        assert got == expected
    # (2, 1): three compositions of n_1 = 2
    assert len(reglim_z1((2, 1)).terms) == 3
    with pytest.raises(RewriteError):
        reglim_z1((4,))


def test_reglim_numeric_limit_probe():
    # Li_{1,2}(1/z) minus the expansion tends to 0 as z_1 -> 0
    ctx = EvalContext(dps=30)
    expansion = reglim_z1((1, 2))
    z2 = mp.mpc("-0.4", "0.35")
    diffs = []
    for t in (1e-2, 1e-3, 1e-4):
        z = (mp.mpc(-t, t * 1e-3), z2)
        full = eval_li_inverse((1, 2), z, ctx.integrator).value
        exp = eval_lincomb(expansion, z, ctx).value
        diffs.append(abs(full - exp))
    # the gap closes like O(t log^2 t)
    assert diffs[1] < diffs[0] / 3
    assert diffs[2] < diffs[1] / 3
    assert diffs[2] < 2e-2


# -- the recursion -----------------------------------------------------------


def test_pli_depth1_base():
    assert pli((1,)).equation == LinComb(1, {ber_generator(1, 1, 1): Fraction(-1)})
    assert pli((4,)).equation == LinComb(1, {ber_generator(1, 1, 4): Fraction(-1)})


def test_derivative_roundtrip_weight_le_5():
    for n in all_indices(5):
        if len(n) == 1:
            continue
        d = diff_z1(ENGINE.pli_lincomb(n))
        for j, lc in d.other.items():
            assert lc.is_zero(), (n, j)
        if n[0] > 1:
            assert d.pole_free == ENGINE.pli_lincomb((n[0] - 1,) + n[1:]), n
            assert d.pole_one.is_zero(), n
        else:
            nprime = n[1:]
            dd = len(n)
            sub = ENGINE.pli_lincomb(nprime)
            zp = suffix_spans(dd, 2)
            zpp = (ConsProd(1, 2),) + suffix_spans(dd, 3)
            sign = (-1) ** (sum(nprime) - (dd - 1))
            pole_free = LinComb(dd)
            pole_free.add_term(li_generator(dd, nprime, zpp), -1)
            pole_free.add_term(
                li_generator(dd, nprime, tuple(ConsProd(a.start, a.end, True) for a in zp)),
                -sign,
            )
            assert d.pole_free == pole_free, n
            assert d.pole_one == embed(sub, zp, dd) - embed(sub, zpp, dd), n


def test_structural_invariants_weight_le_5():
    for n in all_indices(5):
        eq = ENGINE.pli_lincomb(n)
        assert eq.weights() == {sum(n)}, n
        assert eq.max_depth() <= len(n) - 1, n
        assert eq.all_integer(), n


def test_canonical_form_weight_le_4():
    for n in all_indices(4):
        can = ENGINE.pli_canonical(n)
        w = sum(n)
        assert all(validate_generator(g, len(n) - 1, w) for g in can.terms), n
        assert can.all_integer(), n


def test_engine_coefficients_are_ints():
    for n in all_indices(5):
        for eq in (ENGINE.pli_lincomb(n), ENGINE.pli_canonical(n)):
            assert all(type(c) is int for c in eq.terms.values()), n


def test_canonicalize_multiplies_factor_rewrites():
    a, b = ConsProd(2, 2, True), ConsProd(1, 2, True)
    g = make_generator(2, [], [LiFactor((2,), (a,)), LiFactor((1,), (b,))])
    expected = LinComb(2)
    for h, c in invert_depth1(1, b, 2).terms.items():
        expected += invert_depth1(2, a, 2).mul_generator(h, 3 * c)
    assert len(expected) == 4
    assert Engine().canonicalize(LinComb(2, {g: 3})) == expected


def test_canonicalize_rejects_unsupported_factors():
    z = ConsProd
    mixed = make_generator(2, [], [LiFactor((1, 1), (z(1, 1, True), z(2, 2)))])
    not_suffix = make_generator(3, [], [LiFactor((1, 1), (z(1, 1, True), z(2, 2, True)))])
    ber_clash = make_generator(2, [(2, 1)], [LiFactor((2,), (z(2, 2, True),))])
    for g in (mixed, not_suffix, ber_clash):
        with pytest.raises(RewriteError):
            Engine().canonicalize(LinComb.single(g))


def test_canonical_equals_compact_numerically():
    ctx = EvalContext(dps=30)
    for n in [(1, 2), (2, 1, 1), (1, 1, 2)]:
        z = sample_domain_point(len(n), seed=3).z
        a = eval_lincomb(ENGINE.pli_lincomb(n), z, ctx).value
        b = eval_lincomb(ENGINE.pli_canonical(n), z, ctx).value
        assert abs(a - b) < 1e-15, n


def test_depth2_closed_matches_engine_symbolically():
    for n1 in range(1, 5):
        for n2 in range(1, 6 - n1):
            assert (
                ENGINE.pli_depth2_closed(n1, n2).equation
                == ENGINE.pli_lincomb((n1, n2))
            ), (n1, n2)


def test_depth3_closed_small_numeric():
    ctx = EvalContext(dps=30)
    for n in [(1, 1, 1), (2, 1, 2)]:
        closed = ENGINE.pli_depth3_closed(*n).equation
        assert closed.weights() == {sum(n)}
        assert closed.max_depth() <= 2
        z = sample_domain_point(3, seed=1).z
        a = eval_lincomb(closed, z, ctx).value
        b = eval_lincomb(ENGINE.pli_lincomb(n), z, ctx).value
        assert abs(a - b) < 1e-14, n


def test_depth3_closed_has_integer_coefficients():
    for n in [(1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 3)]:
        assert ENGINE.pli_depth3_closed(*n).equation.all_integer(), n
