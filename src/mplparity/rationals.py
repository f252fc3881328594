"""Exact rational arithmetic helpers: Bernoulli numbers and polynomials,
the exact value of ber_k at a root of unity, integer signed binomial
coefficients, and the sparse linear-combination type every exact algebra
of the package uses.

Bernoulli convention: B_1 = B_1(0) = -1/2 (the generating function
t*e^{xt}/(e^t - 1)).  All values are exact ``fractions.Fraction``.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, factorial


def binom(n: int, k: int) -> int:
    """C(n, k) for n, k >= 0, and 0 whenever k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def signed_binomial(a: int, k: int) -> int:
    """Generalized binomial a(a-1)...(a-k+1)/k! for integer a (may be < 0).

    For a = -r this equals (-1)^k * C(r+k-1, k).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if a >= 0:
        return comb(a, k)
    return (-1) ** k * comb(k - a - 1, k)


# Bernoulli numbers via the convolution recurrence
#   sum_{k=0}^{n} C(n+1, k) B_k = 0  (n >= 1),  B_0 = 1.
_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli_number(n: int) -> Fraction:
    """B_n = B_n(0), exact."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < len(_bernoulli_cache):
        return _bernoulli_cache[n]
    while len(_bernoulli_cache) <= n:
        m = len(_bernoulli_cache)
        acc = Fraction(0)
        for k in range(m):
            acc += comb(m + 1, k) * _bernoulli_cache[k]
        _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[n]


class RatPolynomial:
    """Dense univariate polynomial with Fraction coefficients.

    coeffs[i] is the coefficient of x^i; the top coefficient is nonzero
    unless the polynomial is zero (empty tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatPolynomial) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "RatPolynomial(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return "RatPolynomial(" + " + ".join(parts) + ")"

    def __call__(self, x):
        acc = Fraction(0) if isinstance(x, (int, Fraction)) else 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


class SparseSum:
    """Sparse linear combination: a dict from hashable keys to nonzero exact
    coefficients.

    The one implementation of term arithmetic for the generator, log-basis,
    word and root-of-unity algebras; subclasses add their domain operations
    and a ``sort_key`` for ``sorted_items``.  Every coefficient that enters
    (``add_term``, ``scale``) passes through the class's ``coerce``:
    ``Fraction`` here, ``int`` for the generator algebra, which rejects
    anything else.  Subclasses over an ambient variable list store it in an
    ``ambient`` slot and override ``_empty``; sums compare equal only within
    one class and one ambient.
    """

    __slots__ = ("terms",)
    ambient = None
    coerce = staticmethod(Fraction)

    def __init__(self, terms: dict | None = None) -> None:
        self.terms: dict = {}
        if terms:
            for key, c in terms.items():
                self.add_term(key, c)

    def _empty(self) -> "SparseSum":
        """A zero sum of the same class over the same ambient."""
        return type(self)()

    def add_term(self, key, c) -> None:
        c = self.coerce(c)
        if c == 0:
            return
        terms = self.terms
        old = terms.get(key)
        if old is None:
            terms[key] = c
            return
        new = old + c
        if new == 0:
            del terms[key]
        else:
            terms[key] = new

    def _copy(self) -> "SparseSum":
        out = self._empty()
        out.terms = dict(self.terms)
        return out

    def __add__(self, other: "SparseSum") -> "SparseSum":
        out = self._copy()
        out += other
        return out

    def __iadd__(self, other: "SparseSum") -> "SparseSum":
        """Add ``other`` into this sum in place, term by term."""
        for key, c in other.terms.items():
            self.add_term(key, c)
        return self

    def __sub__(self, other: "SparseSum") -> "SparseSum":
        out = self._copy()
        for key, c in other.terms.items():
            out.add_term(key, -c)
        return out

    def scale(self, c) -> "SparseSum":
        c = self.coerce(c)
        out = self._empty()
        if c != 0:
            out.terms = {key: k * c for key, k in self.terms.items()}
        return out

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.ambient == other.ambient
            and self.terms == other.terms
        )

    def __len__(self) -> int:
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def all_integer(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    @staticmethod
    def sort_key(key):
        return key

    def sorted_items(self) -> list:
        sort_key = self.sort_key
        return sorted(self.terms.items(), key=lambda kv: sort_key(kv[0]))

    def __repr__(self) -> str:
        amb = "" if self.ambient is None else f"N={self.ambient}, "
        return f"{type(self).__name__}({amb}{len(self.terms)} terms)"


@functools.cache
def bernoulli_polynomial(n: int) -> RatPolynomial:
    """B_n(x) = sum_k C(n,k) B_k x^{n-k}, degree exactly n; built once per
    degree and shared, as a ``RatPolynomial`` is immutable."""
    if n < 0:
        raise ValueError("n must be >= 0")
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        coeffs[n - k] = comb(n, k) * bernoulli_number(k)
    return RatPolynomial(coeffs)


def ber_at_phase(k: int, t: Fraction) -> Fraction:
    """The rational r with ber_k(e^{2 pi i t}) = r * (i*pi)^k on the
    upper-half-plane branch (log(-e^{2 pi i t}) = i pi (2t - 1) for
    0 <= t < 1):  r = 2^k B_k(t) / k!.  At t = 0 it reads B_k(0) = B_k."""
    b = bernoulli_number(k) if t == 0 else bernoulli_polynomial(k)(t)
    return b * 2 ** k / factorial(k)
