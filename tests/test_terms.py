import json
import random
from fractions import Fraction

import pytest

from mplparity.terms import (
    ConsProd,
    Generator,
    LiFactor,
    LinComb,
    LogExpansion,
    LogGenerator,
    RewriteError,
    ber_generator,
    expand_ber_to_logs,
    gen_depth,
    gen_weight,
    invert_depth1,
    li_generator,
    lincomb_from_dict,
    lincomb_to_dict,
    lincomb_to_text,
    make_generator,
    stuffle_swap_depth2,
    validate_generator,
)
from mplparity.engine import Engine
from mplparity.roots import CzvCombination, make_term
from mplparity.words import ZERO, WordSum


def test_validate_examples():
    # ber_2(z_{1,2}) Li_3(z_2) with N=2: valid for (D=1, w=5)
    g = make_generator(2, [(1, 2)], [LiFactor((3,), (ConsProd(2, 2),))])
    assert validate_generator(g, 1, 5)
    assert not validate_generator(g, 0, 5)
    assert not validate_generator(g, 1, 4)
    # Li_n(z_1) Li_m(z_1): same variable twice
    g2 = make_generator(
        1, [], [LiFactor((2,), (ConsProd(1, 1),)), LiFactor((2,), (ConsProd(1, 1),))]
    )
    assert not validate_generator(g2, 2, 4)
    # Li_{n1,n2,n3}(z_1, z_3, z_2): not totally ordered
    g3 = Generator(
        3,
        (),
        (LiFactor((1, 1, 1), (ConsProd(1, 1), ConsProd(3, 3), ConsProd(2, 2))),),
    )
    assert not validate_generator(g3, 3, 3)
    # inverted argument is never canonical
    g4 = make_generator(1, [], [LiFactor((2,), (ConsProd(1, 1, True),))])
    assert not validate_generator(g4, 1, 2)


def test_weight_depth():
    g = make_generator(
        3, [(1, 2), (3, 1)], [LiFactor((2, 1), (ConsProd(1, 1), ConsProd(2, 3)))]
    )
    assert gen_weight(g) == 6
    assert gen_depth(g) == 2


def test_normalize_cancellation():
    g = ber_generator(1, 1, 2)
    c = LinComb(1, {g: Fraction(1)})
    assert (c - c).is_zero()
    two = LinComb(1, {g: Fraction(2)})
    three = LinComb(1, {g: Fraction(3)})
    assert (two + three).terms[g] == 5


def test_normalize_order_insensitive():
    rng = random.Random(5)
    gens = [
        ber_generator(2, 1, k) for k in range(1, 4)
    ] + [li_generator(2, (k,), (ConsProd(1, 2),)) for k in range(1, 4)]
    pairs = [(g, (-1) ** i * (i + 1)) for i, g in enumerate(gens)]
    base = LinComb(2)
    for g, c in pairs:
        base.add_term(g, c)
    for _ in range(10):
        rng.shuffle(pairs)
        other = LinComb(2)
        for g, c in pairs:
            other.add_term(g, c)
        assert other == base
        assert json.dumps(lincomb_to_dict(other)) == json.dumps(lincomb_to_dict(base))
    # rebuilding from the stored terms merges nothing and drops nothing
    assert LinComb(2, dict(base.terms)) == base
    assert all(c != 0 for c in base.terms.values())


SPARSE_SUMS = {
    "LinComb": (lambda: LinComb(1), ber_generator(1, 1, 2)),
    "LogExpansion": (lambda: LogExpansion(1), LogGenerator(1, 2, ((1, 1),), ())),
    "CzvCombination": (CzvCombination, make_term(2, 0, ())),
    "WordSum": (WordSum, (ZERO, ZERO)),
}


@pytest.mark.parametrize("kind", sorted(SPARSE_SUMS))
def test_sparse_sum_invariants(kind):
    make, key = SPARSE_SUMS[kind]
    c = 3 if kind == "LinComb" else Fraction(3, 2)  # LinComb holds integers only
    s = make()
    s.add_term(key, c)
    s.add_term(key, 0)
    assert s.terms == {key: c}
    s.add_term(key, -c)
    assert s.terms == {} and s.is_zero() and len(s) == 0
    # equal terms in another class never compare equal
    s.add_term(key, 1)
    for other_kind, (other_make, _) in SPARSE_SUMS.items():
        other = other_make()
        other.terms = dict(s.terms)
        assert (other == s) == (other_kind == kind)
    # += adds into the left operand and agrees with +
    t = make()
    t.add_term(key, 2)
    expected, before = s + t, s
    s += t
    assert s is before and s == expected and s.terms == {key: Fraction(3)}
    if kind == "LinComb":
        with pytest.raises(ValueError):
            s.add_term(ber_generator(2, 1, 2), 1)


def test_invert_depth1_cases():
    # Li_1(1/x) = Li_1(x) + ber_1(x)
    out = invert_depth1(1, ConsProd(1, 1), 1)
    assert out.terms == {
        li_generator(1, (1,), (ConsProd(1, 1),)): Fraction(1),
        ber_generator(1, 1, 1): Fraction(1),
    }
    # Li_2(1/x) = -Li_2(x) - ber_2(x)
    out = invert_depth1(2, ConsProd(1, 1), 1)
    assert out.terms == {
        li_generator(1, (2,), (ConsProd(1, 1),)): Fraction(-1),
        ber_generator(1, 1, 2): Fraction(-1),
    }


def test_invert_depth1_requires_suffix():
    with pytest.raises(RewriteError):
        invert_depth1(2, ConsProd(1, 1), 2)


def test_invert_twice_is_identity():
    # rewriting Li_n(1/x) and then replacing the produced Li_n(x) by the
    # inversion at argument 1/x (with ber_n(1/x) = (-1)^n ber_n(x)) must
    # reproduce the original symbol
    for n in range(1, 7):
        first = invert_depth1(n, ConsProd(1, 1), 1)
        total = LinComb(1)
        for g, c in first.terms.items():
            if g.lis:
                # replace Li_n(x) by the inversion formula at 1/x:
                # Li_n(x) = (-1)^n(-Li_n(1/x) - ber_n(1/x))
                #         = (-1)^{n+1} Li_n(1/x) + (-1)^{2n+1} ber_n(x)
                total.add_term(
                    li_generator(1, (n,), (ConsProd(1, 1, True),)), c * (-1) ** (n + 1)
                )
                total.add_term(ber_generator(1, 1, n), -c)
            else:
                total.add_term(g, c)
        assert total.terms == {li_generator(1, (n,), (ConsProd(1, 1, True),)): Fraction(1)}


def test_stuffle_swap_basic():
    # Li_{1,1}(z_2, z_1) -> Li_1(z_1)Li_1(z_2) - Li_{1,1}(z_1,z_2) - Li_2(z_{1,2})
    out = stuffle_swap_depth2(1, 1, ConsProd(1, 1), ConsProd(2, 2), 2)
    expected = LinComb(2)
    expected.add_term(
        make_generator(
            2, [], [LiFactor((1,), (ConsProd(1, 1),)), LiFactor((1,), (ConsProd(2, 2),))]
        ),
        1,
    )
    expected.add_term(li_generator(2, (1, 1), (ConsProd(1, 1), ConsProd(2, 2))), -1)
    expected.add_term(li_generator(2, (2,), (ConsProd(1, 2),)), -1)
    assert out == expected


def test_stuffle_swap_needs_adjacent():
    with pytest.raises(RewriteError):
        stuffle_swap_depth2(1, 1, ConsProd(1, 1), ConsProd(3, 3), 3)


def test_expand_reversed_factors():
    g = Generator(2, (), (LiFactor((2, 1), (ConsProd(2, 2), ConsProd(1, 1))),))
    out = Engine().canonicalize(LinComb(2, {g: 1}))
    assert out == stuffle_swap_depth2(1, 2, ConsProd(1, 1), ConsProd(2, 2), 2)


def test_ber_log_expansion_footnote_values():
    # ber_1 = log(-x); ber_2 = log^2/2 + zeta(2); ber_3 = log^3/6 + zeta(2) log
    # with zeta(2) = -(i pi)^2/6
    for k, expected in [
        (1, {((1, 1),): (0, Fraction(1))}),
        (2, {((1, 2),): (0, Fraction(1, 2)), (): (2, Fraction(-1, 6))}),
        (3, {((1, 3),): (0, Fraction(1, 6)), ((1, 1),): (2, Fraction(-1, 6))}),
    ]:
        le = expand_ber_to_logs(LinComb.single(ber_generator(1, 1, k)))
        got = {g.logs: (g.ipi, c) for g, c in le.terms.items()}
        assert got == expected, k


def test_serialization_roundtrip():
    lc = LinComb(2)
    lc.add_term(make_generator(2, [(1, 1)], [LiFactor((2,), (ConsProd(2, 2, True),))]), -3)
    lc.add_term(li_generator(2, (1, 2), (ConsProd(1, 1), ConsProd(2, 2))), 4)
    data = lincomb_to_dict(lc)
    back = lincomb_from_dict(json.loads(json.dumps(data)))
    assert back == lc


def test_lincomb_rejects_non_integer_coefficient():
    g = ber_generator(1, 1, 2)
    lc = LinComb(1)
    lc.add_term(g, Fraction(4, 2))
    lc.add_term(g, 1.0)
    assert lc.terms == {g: 3} and type(lc.terms[g]) is int
    for bad in (Fraction(1, 2), 0.5, "1/2"):
        with pytest.raises(ValueError):
            lc.add_term(g, bad)
        with pytest.raises(ValueError):
            lc.scale(bad)
    with pytest.raises(ValueError):
        LinComb(1, {g: Fraction(3, 2)})
    assert lc.terms == {g: 3}
    data = lincomb_to_dict(lc)
    assert data["terms"][0]["coeff"] == "3"
    for bad in ("3/2", "1.5", 1.5, 3, "+3", "03", "3_0", " 3"):
        data["terms"][0]["coeff"] = bad
        with pytest.raises(ValueError):
            lincomb_from_dict(data)


def test_text_rendering_stable():
    lc = LinComb(2)
    lc.add_term(ber_generator(2, 1, 2), -1)
    lc.add_term(li_generator(2, (3,), (ConsProd(2, 2),)), 2)
    assert lincomb_to_text(lc) == "-ber_2(z1*z2) + 2*Li_{3}(z2)"
