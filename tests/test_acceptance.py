"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them live)."""

import json
import random
import time
from fractions import Fraction

import mpmath as mp

from mplparity.cli import all_indices, main
from mplparity.engine import ENGINE, pli
from mplparity.oracle import (
    EvalContext,
    ber_value,
    eval_czv,
    eval_li_inverse,
    eval_li_series,
    eval_lincomb,
    sample_domain_point,
    verify_feq,
)
from mplparity.rationals import bernoulli_number, bernoulli_polynomial
from mplparity.roots import (
    IMAG_I,
    MINUS_I,
    MINUS_ONE,
    ONE_ROOT,
    CzvCombination,
    RootOfUnity,
    CzvFactor,
    bernoulli_identity_check,
    eval_czv_combination,
    make_term,
    reduce_mzv_depth3,
    regularized_limit_factor,
    specialize,
)
from mplparity.terms import (
    ConsProd,
    LiFactor,
    LogExpansion,
    LogGenerator,
    expand_ber_to_logs,
    validate_generator,
)
from mplparity.words import ZERO, shuffle_reg_rewrite, sigma


def report(num: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name}: {status}" + (f"  ({detail})" if detail else ""))
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_1_depth1_inversion():
    # Li_n(z) + (-1)^n Li_n(1/z) + ber_n(z) = 0 at 10 points, tol 1e-12
    ctx = EvalContext(dps=40)
    worst = 0.0
    with mp.workdps(50):
        for n in range(1, 7):
            for seed in range(10):
                z = sample_domain_point(1, seed).z[0]
                total = (
                    eval_li_series((n,), (z,), 1e-25).value
                    + (-1) ** n * eval_li_inverse((n,), [z], ctx.integrator).value
                    + ber_value(n, z)
                )
                worst = max(worst, float(abs(total)))
    report(1, "depth-1 inversion", worst <= 1e-12, f"max |residual| = {worst:.2e}")


def _expected_log_expansion_1_2() -> LogExpansion:
    """The displayed weight-3 depth-2 equation, transcribed exactly:

    PLi_{1,2} = Li3(z1) + 2 Li3(z2) - Li3(z1 z2) + 2 zeta(2) log(-z2)
        - log(-z1z2) [Li2(z2) + Li2(z1) + zeta(2) + log^2(-z2)/2]
        + Li1(z1)[log^2(-z1z2) - log^2(-z2)]/2 + log^3(-z2)/3,
    with zeta(2) = -(i pi)^2 / 6.
    """
    F = Fraction
    li = lambda n, s, e: LiFactor((n,), (ConsProd(s, e),))
    exp = LogExpansion(2)
    exp.add_term(LogGenerator(2, 0, (), (li(3, 1, 1),)), 1)
    exp.add_term(LogGenerator(2, 0, (), (li(3, 2, 2),)), 2)
    exp.add_term(LogGenerator(2, 0, (), (li(3, 1, 2),)), -1)
    exp.add_term(LogGenerator(2, 2, ((2, 1),), ()), F(-1, 3))  # 2 zeta(2) log(-z2)
    exp.add_term(LogGenerator(2, 0, ((1, 1),), (li(2, 2, 2),)), -1)
    exp.add_term(LogGenerator(2, 0, ((1, 1),), (li(2, 1, 1),)), -1)
    exp.add_term(LogGenerator(2, 2, ((1, 1),), ()), F(1, 6))   # -zeta(2) log(-z1z2)
    exp.add_term(LogGenerator(2, 0, ((1, 1), (2, 2)), ()), F(-1, 2))
    exp.add_term(LogGenerator(2, 0, ((1, 2),), (li(1, 1, 1),)), F(1, 2))
    exp.add_term(LogGenerator(2, 0, ((2, 2),), (li(1, 1, 1),)), F(-1, 2))
    exp.add_term(LogGenerator(2, 0, ((2, 3),), ()), F(1, 3))
    return exp


def test_criterion_2_weight3_equation():
    got = expand_ber_to_logs(ENGINE.pli_canonical((1, 2)))
    exact = got == _expected_log_expansion_1_2()
    rep = verify_feq((1, 2), ENGINE.pli_lincomb((1, 2)), 5, 1e-10, EvalContext(dps=35))
    report(
        2,
        "weight-3 depth-2 equation",
        exact and rep.passed,
        f"exact term match = {exact}, max_err = {rep.max_error:.2e}",
    )


def test_criterion_3_full_sweep():
    t0 = time.time()
    ctx = EvalContext(dps=30)
    worst5 = 0.0
    for w in range(1, 6):
        for n in (i for i in all_indices(w) if sum(i) == w):
            r = verify_feq(n, ENGINE.pli_lincomb(n), 3, 1e-10, ctx)
            worst5 = max(worst5, r.max_error)
            assert r.passed, (n, r.max_error)
    worst6 = 0.0
    for n in (i for i in all_indices(6) if sum(i) == 6):
        r = verify_feq(n, ENGINE.pli_lincomb(n), 3, 1e-9, ctx)
        worst6 = max(worst6, r.max_error)
        assert r.passed, (n, r.max_error)
    elapsed = time.time() - t0
    report(
        3,
        "full weight sweep",
        worst5 <= 1e-10 and worst6 <= 1e-9 and elapsed < 1800,
        f"worst |n|<=5: {worst5:.2e}, |n|=6: {worst6:.2e}, {elapsed:.0f}s",
    )


def test_criterion_4_structural_invariants():
    ok = True
    detail = ""
    for n in all_indices(6):
        w, d = sum(n), len(n)
        for eq in (ENGINE.pli_lincomb(n), ENGINE.pli_canonical(n)):
            if eq.weights() != {w} or eq.max_depth() > d - 1 or not eq.all_integer():
                ok = False
                detail = f"violated at {n}"
                break
        can = ENGINE.pli_canonical(n)
        if not all(validate_generator(g, d - 1, w) for g in can.terms):
            ok = False
            detail = f"canonical form invalid at {n}"
        if not ok:
            break
    report(4, "structural invariants |n| <= 6", ok, detail or "63 indices checked")


def test_criterion_5_closed_forms_vs_engine():
    ctx = EvalContext(dps=30)
    worst2 = worst3 = 0.0
    for n1 in range(1, 6):
        for n2 in range(1, 7 - n1):
            closed = ENGINE.pli_depth2_closed(n1, n2).equation
            eng = ENGINE.pli_lincomb((n1, n2))
            for seed in range(3):
                z = sample_domain_point(2, seed).z
                memo = ctx.point_memo(2, seed)
                a = eval_lincomb(closed, z, ctx, memo).value
                b = eval_lincomb(eng, z, ctx, memo).value
                worst2 = max(worst2, float(abs(a - b)))
    for n1 in range(1, 5):
        for n2 in range(1, 6 - n1):
            for n3 in range(1, 7 - n1 - n2):
                closed = ENGINE.pli_depth3_closed(n1, n2, n3).equation
                eng = ENGINE.pli_lincomb((n1, n2, n3))
                for seed in range(3):
                    z = sample_domain_point(3, seed).z
                    memo = ctx.point_memo(3, seed)
                    a = eval_lincomb(closed, z, ctx, memo).value
                    b = eval_lincomb(eng, z, ctx, memo).value
                    worst3 = max(worst3, float(abs(a - b)))
    report(
        5,
        "closed formulas vs engine",
        worst2 <= 1e-10 and worst3 <= 1e-9,
        f"depth-2 worst {worst2:.2e}, depth-3 worst {worst3:.2e}",
    )


def test_criterion_6_mzv_corollaries():
    with mp.workdps(40):
        errs = []
        # zeta(1,2) = zeta(3)
        errs.append(abs(eval_czv((1, 2), (Fraction(0), Fraction(0))) - mp.zeta(3)))
        # 2 Li_{1,2}(1,-1) = zeta(3)/4
        errs.append(abs(2 * eval_czv((1, 2), (Fraction(0), Fraction(1, 2))) - mp.zeta(3) / 4))
        # 2 Re Li_{1,2}(1,i) = 29/32 zeta(3) - pi/2 Im Li_2(i)
        ref = mp.mpf(29) / 32 * mp.zeta(3) - mp.pi / 2 * mp.im(mp.polylog(2, mp.mpc(0, 1)))
        errs.append(abs(2 * mp.re(eval_czv((1, 2), (Fraction(0), Fraction(1, 4)))) - ref))
        # and the engine's own specializations give the same numbers
        for roots, target in [
            ((ONE_ROOT, ONE_ROOT), 2 * mp.zeta(3)),
            ((ONE_ROOT, MINUS_ONE), mp.zeta(3) / 4),
            ((ONE_ROOT, IMAG_I), ref),
        ]:
            combo = specialize(pli((1, 2)), roots)
            errs.append(abs(eval_czv_combination(combo, dps=40) - target))
        worst = max(float(e) for e in errs)
    report(6, "depth-2 specialization values", worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_7_zeta_152():
    # exact integer-manifest representation
    expected = CzvCombination()
    z = lambda *fs: make_term(0, 0, tuple(CzvFactor(f, (ONE_ROOT,) * len(f)) for f in fs))
    expected.add_term(z((8,)), 7)
    expected.add_term(z((2,), (6,)), 3)
    expected.add_term(z((2,), (2,), (4,)), -5)
    expected.add_term(z((2,), (3,), (3,)), 2)
    expected.add_term(z((3,), (5,)), -3)
    expected.add_term(z((1, 7)), 7)
    expected.add_term(z((4,), (4,)), Fraction(3, 2))
    expected.add_term(z((5, 3)), Fraction(1, 2))
    expected.add_term(z((6, 2)), Fraction(-1, 2))
    got = reduce_mzv_depth3(1, 5, 2)
    exact = got == expected
    with mp.workdps(40):
        ours = eval_czv_combination(got, dps=40)
        # the published depth-2 witness
        other = (
            mp.mpf(703) / 875 * mp.zeta(2) ** 4
            - mp.mpf(17) / 2 * mp.zeta(3) * mp.zeta(5)
            - mp.mpf(7) / 10 * eval_czv((3, 5), (Fraction(0), Fraction(0)))
            + 2 * mp.zeta(2) * mp.zeta(3) ** 2
        )
        # the accelerated triple sum as independent oracle
        triple = eval_czv((1, 5, 2), (Fraction(0),) * 3)
        err1 = float(abs(ours - other))
        err2 = float(abs(ours - triple))
        err3 = float(abs(other - triple))
    report(
        7,
        "zeta(1,5,2) reduction",
        exact and max(err1, err2, err3) <= 1e-9,
        f"exact = {exact}, renderings vs triple sum: {err1:.2e}/{err2:.2e}/{err3:.2e}",
    )


def test_criterion_8_bernoulli_identities():
    half_ok = all(
        bernoulli_polynomial(2 * s)(Fraction(1, 2))
        == (Fraction(2) ** (1 - 2 * s) - 1) * bernoulli_number(2 * s)
        for s in range(1, 21)
    )
    bivar_ok = all(
        bernoulli_identity_check(n1, n2)
        for n1 in range(9)
        for n2 in range(9 - n1)
    )
    report(8, "Bernoulli identities", half_ok and bivar_ok,
           "half-argument s <= 20, bivariate n1+n2 <= 8")


def test_criterion_9_fourth_root_identity():
    worst = 0.0
    with mp.workdps(40):
        for n in (3, 5):
            lhs = specialize(pli((n, 1)), (IMAG_I, IMAG_I)) + specialize(
                pli((n, 1)), (IMAG_I, MINUS_I)
            )
            lv = eval_czv_combination(lhs, dps=40)
            ipi = mp.pi * mp.mpc(0, 1)
            rhs = -2 * n * mp.mpc(0, 1) * mp.im(mp.polylog(n + 1, mp.mpc(0, 1)))
            for s in range(1, (n - 1) // 2 + 1):
                B = bernoulli_number(2 * s)
                rhs += (
                    -2 * mp.mpc(0, 1) * ipi ** (2 * s) * (4 ** s - 1)
                    / mp.factorial(2 * s)
                    * mp.mpf(B.numerator) / B.denominator
                    * mp.im(mp.polylog(n + 1 - 2 * s, mp.mpc(0, 1)))
                )
            worst = max(worst, float(abs(lv - rhs)))
    report(9, "fourth-root identity n in {3,5}", worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_10_shuffle_machinery():
    import itertools

    A = sigma("a")
    sig_pool = [sigma("s1"), sigma("s2"), sigma("s3")]
    ok = True
    words = [()]
    for ln in range(1, 4):
        words.extend(tuple(w) for w in itertools.product([A, ZERO], repeat=ln))
    from mplparity.words import WordSum

    for u in words:
        for r in range(4):
            got = shuffle_reg_rewrite(u, A, sig_pool[:r])
            if got != WordSum({u + (A,) + tuple(sig_pool[:r]): 1}):
                ok = False
    x0 = regularized_limit_factor((2, 1), (MINUS_ONE, ONE_ROOT))
    expected = CzvCombination.symbol((1, 2), (MINUS_ONE, MINUS_ONE), -1) + \
        CzvCombination.symbol((1, 2), (MINUS_ONE, ONE_ROOT), -1)
    symbolic = x0 == expected
    report(10, "shuffle machinery", ok and symbolic,
           f"identity exhaustive = {ok}, worked example = {symbolic}")


def test_criterion_11_table_generation(tmp_path):
    out = tmp_path / "table.json"
    cache = tmp_path / "cache"
    code = main(["table", "--max-weight", "6", "--out", str(out),
                 "--format", "json", "--cache", str(cache)])
    first = out.read_bytes()
    entries = json.loads(first)
    code2 = main(["table", "--max-weight", "6", "--out", str(out),
                  "--format", "json", "--cache", str(cache)])
    identical = out.read_bytes() == first
    report(
        11,
        "table generation",
        code == 0 and code2 == 0 and len(entries) == 63 and identical,
        f"{len(entries)} equations, warm rerun byte-identical = {identical}",
    )


def test_criterion_12_depth3_parity_at_roots():
    # every depth-3 index of weight <= 6 at N in {2, 3, 4, 6}, one seeded
    # root tuple each: the specialized canonical equation equals
    # PLi_n(zeta) = Li_n(zeta) - (-1)^{|n|-3} Li_n(conj zeta), to 1e-30
    rng = random.Random(12)
    worst, cases = 0.0, 0
    for n in (n for n in all_indices(6) if len(n) == 3):
        sign = (-1) ** (sum(n) - 3)
        for N in (2, 3, 4, 6):
            while True:
                ks = [rng.randrange(N) for _ in n]
                if not (n[-1] == 1 and ks[-1] == 0):
                    break
            roots = tuple(RootOfUnity.make(k, N) for k in ks)
            value = eval_czv_combination(specialize(pli(n, "canonical"), roots), dps=30)
            fracs = [Fraction(k, N) for k in ks]
            with mp.workdps(40):
                lhs = eval_czv(n, fracs) - sign * eval_czv(n, [-f for f in fracs])
                worst = max(worst, float(abs(value - lhs)))
            cases += 1
    report(12, "depth-3 parity at roots of unity", cases == 80 and worst <= 1e-30,
           f"{cases} cases, worst {worst:.2e}")
