"""Words in integration letters w_sigma, the shuffle product, and the
deconcatenation identities used for shuffle regularization.

A letter is either the zero letter (the form dt/t) or carries a symbolic
argument sigma (the form dt/(t-sigma)).  Arguments are opaque hashable
values; translation between words and Li symbols is parameterized by the
argument algebra (see ``li_to_word`` / ``word_to_li``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable, NamedTuple

from .rationals import SparseSum


class TranslationError(ValueError):
    pass


class Letter(NamedTuple):
    """kind 0 = the zero letter, kind 1 = sigma letter with argument."""

    kind: int
    arg: Hashable = None

    def is_zero(self) -> bool:
        return self.kind == 0

    def __repr__(self) -> str:
        return "w0" if self.kind == 0 else f"w({self.arg!r})"


ZERO = Letter(0)


def sigma(arg: Hashable) -> Letter:
    if arg is None:
        raise ValueError("sigma letter needs an argument")
    return Letter(1, arg)


# A word is a plain tuple of letters, read left to right; the rightmost
# letter is the innermost integration.
Word = tuple

EMPTY: Word = ()


class WordSum(SparseSum):
    """Formal rational linear combination of words (no zero coefficients)."""

    __slots__ = ()

    def concat_right(self, suffix: Word) -> "WordSum":
        out = WordSum()
        for w, c in self.terms.items():
            out.add_term(w + suffix, c)
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "WordSum(0)"
        bits = [f"{c}*{list(w)}" for w, c in self.sorted_items()]
        return "WordSum(" + " + ".join(bits) + ")"

    def total_mass(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))


def shuffle(u: Word, v: Word) -> WordSum:
    """Shuffle product u x v; total coefficient mass is C(|u|+|v|, |u|)."""
    memo: dict[tuple[Word, Word], WordSum] = {}

    def rec(a: Word, b: Word) -> WordSum:
        if not a:
            return WordSum({b: 1})
        if not b:
            return WordSum({a: 1})
        key = (a, b)
        got = memo.get(key)
        if got is not None:
            return got
        out = WordSum()
        for w, c in rec(a[1:], b).terms.items():
            out.add_term((a[0],) + w, c)
        for w, c in rec(a, b[1:]).terms.items():
            out.add_term((b[0],) + w, c)
        memo[key] = out
        return out

    return rec(tuple(u), tuple(v))


def shuffle_sum(ws: WordSum, v: Word) -> WordSum:
    out = WordSum()
    for w, c in ws.terms.items():
        for w2, c2 in shuffle(w, v).terms.items():
            out.add_term(w2, c * c2)
    return out


def shuffle_power(letter: Letter, s: int) -> WordSum:
    """(w_sigma)^{shuffle s} = s! * w_sigma^s."""
    from math import factorial

    return WordSum({(letter,) * s: factorial(s)})


def shuffle_reg_rewrite(u: Word, tau: Letter, sigmas: Iterable[Letter]) -> WordSum:
    """Deconcatenation identity for the word u w_tau w_{s_1} ... w_{s_r}:

        sum_{k=0}^{r} (-1)^k [u x w_{s_k}...w_{s_1}] w_tau  x  w_{s_{k+1}}...w_{s_r}

    The result equals the plain concatenation, fully expanded.
    """
    sig = tuple(sigmas)
    r = len(sig)
    out = WordSum()
    for k in range(r + 1):
        rev_head = tuple(reversed(sig[:k]))
        left = shuffle(tuple(u), rev_head).concat_right((tau,))
        piece = shuffle_sum(left, sig[k:])
        out = out + piece.scale((-1) ** k)
    return out


def shuffle_reg_rewrite_reversed(sigmas: Iterable[Letter], tau: Letter, w: Word) -> WordSum:
    """Reversed-word variant, for words of the form w_{s_r}...w_{s_1} w_tau w:

        sum_{k=0}^{r} (-1)^k [w_tau (w x w_{s_1}...w_{s_k})]  x  w_{s_r}...w_{s_{k+1}}

    Reversing words reverses concatenation and preserves the shuffle
    product, so this is ``shuffle_reg_rewrite`` of the reversed word with
    every word of the result reversed.
    """
    forward = shuffle_reg_rewrite(tuple(w)[::-1], tau, sigmas)
    return WordSum({wd[::-1]: c for wd, c in forward.terms.items()})


def li_to_word(indices, args, mul: Callable) -> Word:
    """Word for (-1)^d Li_n(1/y) = int w_0^{n_d-1} w_{y_d} ... w_0^{n_1-1} w_{y_{1,d}}.

    ``args`` are the base arguments y_1..y_d (not yet inverted); the letters
    carry the cumulative products y_j...y_d, formed by ``mul(a, b)``, the
    product of the argument algebra.
    """
    n = tuple(indices)
    ys = tuple(args)
    d = len(n)
    if d == 0 or len(ys) != d:
        raise TranslationError("indices and arguments must be nonempty and match")
    # cumulative products y_{j,d}
    cum = [None] * d
    acc = ys[d - 1]
    cum[d - 1] = acc
    for j in range(d - 2, -1, -1):
        acc = mul(ys[j], acc)
        cum[j] = acc
    word: list[Letter] = []
    for j in range(d - 1, -1, -1):
        word.extend([ZERO] * (n[j] - 1))
        word.append(sigma(cum[j]))
    return tuple(word)


def word_to_li(w: Word, div: Callable):
    """Inverse translation: returns (indices, args) with letters read back as
    cumulative products.  ``div(a, b)`` is a/b in the argument algebra.
    Raises TranslationError if the word ends in w_0.
    """
    w = tuple(w)
    if not w:
        raise TranslationError("empty word has no Li translation")
    if w[-1].is_zero():
        raise TranslationError("word ends in the zero letter")
    # split into blocks w_0^{m-1} w_sigma, left to right
    blocks: list[tuple[int, Hashable]] = []
    zeros = 0
    for let in w:
        if let.is_zero():
            zeros += 1
        else:
            blocks.append((zeros + 1, let.arg))
            zeros = 0
    # blocks are (n_d, y_{d,d}), (n_{d-1}, y_{d-1,d}), ..., (n_1, y_{1,d})
    d = len(blocks)
    indices = tuple(b[0] for b in reversed(blocks))
    cums = [b[1] for b in reversed(blocks)]  # y_{1,d}, y_{2,d}, ..., y_{d,d}
    args = []
    for j in range(d):
        if j + 1 < d:
            args.append(div(cums[j], cums[j + 1]))
        else:
            args.append(cums[j])
    return indices, tuple(args)
