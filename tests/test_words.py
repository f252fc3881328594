import random
from math import comb, factorial

import pytest

from mplparity.words import (
    EMPTY,
    ZERO,
    TranslationError,
    WordSum,
    li_to_word,
    shuffle,
    shuffle_power,
    shuffle_reg_rewrite,
    shuffle_reg_rewrite_reversed,
    sigma,
    word_to_li,
)

A, B, C, D = sigma("a"), sigma("b"), sigma("c"), sigma("d")


def concat_sum(w):
    return WordSum({tuple(w): 1})


def test_shuffle_single_letters():
    assert shuffle((A,), (B,)) == WordSum({(A, B): 1, (B, A): 1})


def test_shuffle_unit():
    assert shuffle((A,), EMPTY) == WordSum({(A,): 1})
    assert shuffle(EMPTY, EMPTY) == WordSum({EMPTY: 1})


def test_shuffle_brute_force_interleavings():
    # w1 w0 shuffled with w0: enumerate interleavings by hand
    u, v = (A, ZERO), (ZERO,)
    got = shuffle(u, v)
    assert got == WordSum({(A, ZERO, ZERO): 2, (ZERO, A, ZERO): 1})


def test_shuffle_mass_and_symmetry():
    rng = random.Random(7)
    letters = [A, B, C, ZERO]
    for _ in range(25):
        u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        v = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        s = shuffle(u, v)
        assert s.total_mass() == comb(len(u) + len(v), len(u))
        assert s == shuffle(v, u)


def test_shuffle_associative():
    rng = random.Random(11)
    letters = [A, B, ZERO]
    for _ in range(10):
        u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        v = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        left = WordSum()
        for wd, c in shuffle(u, v).terms.items():
            for wd2, c2 in shuffle(wd, w).terms.items():
                left.add_term(wd2, c * c2)
        right = WordSum()
        for wd, c in shuffle(v, w).terms.items():
            for wd2, c2 in shuffle(u, wd).terms.items():
                right.add_term(wd2, c * c2)
        assert left == right


def test_shuffle_power_identity():
    for s in range(5):
        assert shuffle_power(A, s) == WordSum({(A,) * s: factorial(s)})
        # expand (w_a)^{shuffle s} the slow way
        acc = WordSum({EMPTY: 1})
        for _ in range(s):
            nxt = WordSum()
            for w, c in acc.terms.items():
                for w2, c2 in shuffle(w, (A,)).terms.items():
                    nxt.add_term(w2, c * c2)
            acc = nxt
        assert acc == shuffle_power(A, s)


def test_reg_rewrite_trivial():
    got = shuffle_reg_rewrite(EMPTY, A, [B])
    assert got == WordSum({(A, B): 1})


def test_reg_rewrite_equals_concatenation_exhaustive():
    # identity check for |u| <= 3, r <= 3 over a 2-letter-plus-zero alphabet
    letters = [A, ZERO]
    sig_pool = [B, C, D]
    words = [()]
    for ln in range(1, 4):
        words.extend(
            tuple(w)
            for w in __import__("itertools").product(letters, repeat=ln)
        )
    for u in words:
        for r in range(4):
            sigmas = sig_pool[:r]
            got = shuffle_reg_rewrite(u, A, sigmas)
            assert got == concat_sum(u + (A,) + tuple(sigmas)), (u, r)


def test_reg_rewrite_reversed_worked_example():
    # word w_{1/z} w_0 w_{-1/z}:  w_{1/z} x (w_0 w_{-1/z})  -  w_0 (w_{-1/z} x w_{1/z})
    z, mz = sigma("1/z"), sigma("-1/z")
    got = shuffle_reg_rewrite_reversed([z], ZERO, (mz,))
    expected = shuffle((z,), (ZERO, mz)) - WordSum({(ZERO, mz, z): 1, (ZERO, z, mz): 1})
    assert got == expected
    # and it still equals the plain concatenation
    assert got == concat_sum((z, ZERO, mz))


def test_reg_rewrite_reversed_equals_concatenation():
    rng = random.Random(3)
    pool = [A, ZERO, B]
    for _ in range(30):
        w = tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))
        r = rng.randint(0, 3)
        sigmas = [rng.choice([C, D]) for _ in range(r)]
        got = shuffle_reg_rewrite_reversed(sigmas, A, w)
        assert got == concat_sum(tuple(reversed(sigmas)) + (A,) + w)


# -- translation ------------------------------------------------------------


class Sym:
    """Tiny free abelian group on symbols for translation round-trips."""

    def __init__(self, powers):
        self.powers = {k: v for k, v in powers.items() if v}

    def __mul__(self, other):
        out = dict(self.powers)
        for k, v in other.powers.items():
            out[k] = out.get(k, 0) + v
        return Sym(out)

    def inv(self):
        return Sym({k: -v for k, v in self.powers.items()})

    def div(self, other):
        return self * other.inv()

    def __eq__(self, other):
        return self.powers == other.powers

    def __hash__(self):
        return hash(frozenset(self.powers.items()))

    def __repr__(self):
        return f"Sym({self.powers})"


def test_li_word_depth1():
    # depth 1: word is w_0^{n-1} w_z
    z = Sym({"z": 1})
    w = li_to_word((3,), (z,), lambda a, b: a * b)
    assert w == (ZERO, ZERO, sigma(z))


def test_li_word_depth2_pattern():
    a, b = Sym({"a": 1}), Sym({"b": 1})
    w = li_to_word((1, 1), (a, b), lambda x, y: x * y)
    # w_{b} w_{ab}
    assert w == (sigma(b), sigma(a * b))


def test_word_ending_in_zero_rejected():
    with pytest.raises(TranslationError):
        word_to_li((sigma(Sym({"a": 1})), ZERO), lambda a, b: a.div(b))


def test_roundtrip_random_indices():
    rng = random.Random(2024)
    for _ in range(50):
        d = rng.randint(1, 4)
        n = tuple(rng.randint(1, 3) for _ in range(d))
        while sum(n) > 6:
            n = tuple(rng.randint(1, 3) for _ in range(d))
        args = tuple(Sym({f"y{i}": 1}) for i in range(d))
        w = li_to_word(n, args, lambda a, b: a * b)
        n2, args2 = word_to_li(w, lambda a, b: a.div(b))
        assert n2 == n
        assert args2 == args
