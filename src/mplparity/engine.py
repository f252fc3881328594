"""Recursive depth-reduction engine for the parity combination

    PLi_n(z) = Li_n(z) - (-1)^{|n| - d} Li_n(1/z),

computed as an exact linear combination of Ber/Li generators of depth at
most d-1.  The recursion runs over the weight and is anchored on the first
variable z_1:

  * for n_1 > 1 the derivative is (1/z_1) PLi_{n - e_1}(z), integrated
    termwise by the explicit primitives;
  * for n_1 = 1 the derivative splits into a 1/z_1 part and a 1/(1-z_1)
    part whose numerators are depth-reduced recursively over the shortened
    variable lists z' = (z_2..z_d) and z'' = (z_1 z_2, z_3..z_d);
  * the constant of integration is recovered wholesale from the z_1 -> 0
    expansion: primitives that are pure log-polynomials in z_{1,d} times
    z_1-free factors are dropped and replaced by the expansion terms.

Sub-results are computed over a fresh ambient list of length = depth and
embedded into the parent via span maps, so the memo key is the index
vector alone.  All coefficients stay integers in this basis: a ``LinComb``
holds ``int``s and raises ``ValueError`` on anything else.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

from .rationals import binom, signed_binomial
from .terms import (
    ConsProd,
    Generator,
    LiFactor,
    LinComb,
    RewriteError,
    ber_generator,
    gen_depth,
    gen_weight,
    invert_depth1,
    li_generator,
    lincomb_from_dict,
    lincomb_to_dict,
    make_generator,
    sorted_generator,
    stuffle_swap_depth2,
    validate_generator,
)

SCHEMA = "mplparity/lincomb-v1"


# ---------------------------------------------------------------------------
# span embeddings


def embed(lc: LinComb, spans: tuple[ConsProd, ...], parent_ambient: int) -> LinComb:
    """Relabel a child LinComb into a parent ambient list.  Child variable i
    becomes the parent consecutive product spans[i-1]; spans must be plain,
    adjacent and end at the parent's last variable (so Ber arguments still
    run to the end)."""
    s = len(spans)
    if spans[0].start < 1 or spans[-1].end != parent_ambient:
        raise RewriteError("embedding must cover a suffix of the parent variables")
    for a, b in zip(spans, spans[1:]):
        if a.end + 1 != b.start or a.inverted or b.inverted:
            raise RewriteError("embedding spans must be plain and adjacent")
    # The span map is increasing, so every relabelled generator is already
    # in the order make_generator would sort it into.
    factors: dict[LiFactor, LiFactor] = {}

    def relabel(f: LiFactor) -> LiFactor:
        got = factors.get(f)
        if got is None:
            got = factors[f] = LiFactor(f.indices, tuple(
                ConsProd(spans[a.start - 1].start, spans[a.end - 1].end, a.inverted)
                for a in f.args
            ))
        return got

    out = LinComb(parent_ambient)
    for g, c in lc.terms.items():
        if g.ambient != s:
            raise ValueError("child ambient does not match span map")
        bers = tuple((spans[i - 1].start, k) for i, k in g.bers)
        out.add_term(Generator(parent_ambient, bers, tuple(map(relabel, g.lis))), c)
    return out


def suffix_spans(d: int, start: int) -> tuple[ConsProd, ...]:
    """Identity spans (start,start), ..., (d,d)."""
    return tuple(ConsProd(i, i) for i in range(start, d + 1))


# ---------------------------------------------------------------------------
# z_1 differentiation


@dataclass
class DiffExpr:
    """Exact z_1-derivative of a LinComb, organized by denominator:

    ``pole_free``  -- coefficient of 1/z_1,
    ``pole_one``   -- coefficient of 1/(1-z_1)  (the basis element
                      z_{2,1}/(1-z_{1,1}) with j = 1),
    ``other``      -- coefficients of z_{2,j}/(1-z_{1,j}) for j >= 2; these
                      must cancel for any engine-produced input.
    """

    pole_free: LinComb
    pole_one: LinComb
    other: dict[int, LinComb]

    def assert_supported(self) -> None:
        for j, lc in self.other.items():
            if not lc.is_zero():
                raise RewriteError(f"derivative has an unreduced pole at z_1...z_{j} = 1")


def _z1_parts(g: Generator):
    """(ber weight at start 1 or 0, index of the Li factor containing z_1)."""
    k = 0
    for s, kk in g.bers:
        if s == 1:
            k = kk
    head = None
    for i, f in enumerate(g.lis):
        if f.args[0].start == 1 and not f.args[0].inverted:
            if head is not None:
                raise RewriteError("two Li factors contain z_1")
            head = i
        elif any(a.start == 1 for a in f.args):
            raise RewriteError("unsupported z_1 dependence (inverted or interior)")
    return k, head


def _with_ber1(g: Generator, k: int) -> Generator:
    bers = tuple((s, kk) for s, kk in g.bers if s != 1)
    if k > 0:
        bers = ((1, k),) + bers
    return make_generator(g.ambient, bers, g.lis)


def _replace_li(g: Generator, idx: int, new: LiFactor | None) -> Generator:
    lis = g.lis[:idx] + ((new,) if new is not None else ()) + g.lis[idx + 1 :]
    return make_generator(g.ambient, g.bers, lis)


def diff_z1(lc: LinComb) -> DiffExpr:
    """Termwise exact z_1-derivative.  Every contribution lands on one of
    the rational prefactors 1/z_1 or z_{2,j}/(1-z_{1,j})."""
    n = lc.ambient
    pole_free = LinComb(n)
    pole_one = LinComb(n)
    other: dict[int, LinComb] = {}

    def add_other(j: int, g: Generator, c) -> None:
        if j == 1:
            pole_one.add_term(g, c)
        else:
            other.setdefault(j, LinComb(n)).add_term(g, c)

    for g, c in lc.terms.items():
        k, head = _z1_parts(g)
        if k >= 1:
            pole_free.add_term(_with_ber1(g, k - 1), c)
        if head is None:
            continue
        f = g.lis[head]
        j = f.args[0].end
        if f.indices[0] > 1:
            newf = LiFactor((f.indices[0] - 1,) + f.indices[1:], f.args)
            pole_free.add_term(_replace_li(g, head, newf), c)
        elif f.depth == 1:
            add_other(j, _replace_li(g, head, None), c)
        else:
            if f.args[0].end + 1 != f.args[1].start:
                raise RewriteError(f"gapped head factor {f} cannot be differentiated")
            fprime = LiFactor(f.indices[1:], f.args[1:])
            merged = ConsProd(1, f.args[1].end)
            fsecond = LiFactor(f.indices[1:], (merged,) + f.args[2:])
            pole_free.add_term(_replace_li(g, head, fsecond), -c)
            add_other(j, _replace_li(g, head, fprime), c)
            add_other(j, _replace_li(g, head, fsecond), -c)
    return DiffExpr(pole_free, pole_one, other)


def z1_log_derivative(lc: LinComb) -> LinComb:
    """The operator z_1 * d/dz_1, for inputs whose image stays in the module
    (every z_1-bearing Li head index must exceed 1)."""
    out = LinComb(lc.ambient)
    for g, c in lc.terms.items():
        k, head = _z1_parts(g)
        if k >= 1:
            out.add_term(_with_ber1(g, k - 1), c)
        if head is not None:
            f = g.lis[head]
            if f.indices[0] == 1:
                raise RewriteError("z d/dz leaves the module on a weight-one head")
            newf = LiFactor((f.indices[0] - 1,) + f.indices[1:], f.args)
            out.add_term(_replace_li(g, head, newf), c)
    return out


# ---------------------------------------------------------------------------
# primitives


def _primitive_z1_term(g: Generator, c: int, out: LinComb) -> None:
    """d/dz_1-primitive of g/z_1 by the explicit formulas."""
    k, head = _z1_parts(g)
    if head is None:
        out.add_term(_with_ber1(g, k + 1), c)
        return
    f = g.lis[head]
    for mu in range(k + 1):
        newf = LiFactor((f.indices[0] + 1 + mu,) + f.indices[1:], f.args)
        out.add_term(_with_ber1(_replace_li(g, head, newf), k - mu), c * (-1) ** mu)


def _primitive_one_term(g: Generator, c: int, out: LinComb) -> None:
    """d/dz_1-primitive of g/(1-z_1); raises the depth by one."""
    n = g.ambient
    k, head = _z1_parts(g)
    if head is None:
        for mu in range(k + 1):
            extra = LiFactor((1 + mu,), (ConsProd(1, 1),))
            base = _with_ber1(g, k - mu)
            out.add_term(
                make_generator(n, base.bers, (extra,) + base.lis), c * (-1) ** mu
            )
        return
    f = g.lis[head]
    j = f.args[0].end
    if j < 2:
        raise RewriteError("1/(1-z_1) with a bare Li(z_1) head has no module primitive")
    tail = ConsProd(2, j)
    for mu in range(k + 1):
        sgn = c * (-1) ** mu
        base = _with_ber1(_replace_li(g, head, None), k - mu)
        # Li_{1+mu}(z_1) Li_n(z_{2,j}, y)
        f1 = LiFactor((1 + mu,), (ConsProd(1, 1),))
        f2 = LiFactor(f.indices, (tail,) + f.args[1:])
        out.add_term(make_generator(n, base.bers, (f1, f2) + base.lis), sgn)
        # -Li_{1+mu, n}(z_1, z_{2,j}, y)
        f3 = LiFactor((1 + mu,) + f.indices, (ConsProd(1, 1), tail) + f.args[1:])
        out.add_term(make_generator(n, base.bers, (f3,) + base.lis), -sgn)
        # -Li_{n + (1+mu) e_1}(z_{1,j}, y)
        f4 = LiFactor((f.indices[0] + 1 + mu,) + f.indices[1:], f.args)
        out.add_term(make_generator(n, base.bers, (f4,) + base.lis), -sgn)


def primitive_z1(e: DiffExpr) -> LinComb:
    """Termwise d/dz_1-primitive of e.pole_free/z_1 + e.pole_one/(1-z_1)."""
    e.assert_supported()
    out = LinComb(e.pole_free.ambient)
    for g, c in e.pole_free.terms.items():
        _primitive_z1_term(g, c, out)
    for g, c in e.pole_one.terms.items():
        _primitive_one_term(g, c, out)
    return out


def iterated_primitive(k: int, factor: LiFactor, r: int, ambient: int) -> LinComb:
    """r-fold (dz_1/z_1)-primitive of ber_k(z_{1,N}) Li_n(args):

        sum_{mu=0}^{k} C(-r, mu) ber_{k-mu}(z_{1,N}) Li_{n + (r+mu) e_1}(args)
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    out = LinComb(ambient)
    for mu in range(k + 1):
        coeff = signed_binomial(-r, mu)
        newf = LiFactor((factor.indices[0] + r + mu,) + factor.indices[1:], factor.args)
        bers = ((1, k - mu),) if k - mu > 0 else ()
        out.add_term(make_generator(ambient, bers, (newf,)), coeff)
    return out


# ---------------------------------------------------------------------------
# the z_1 -> 0 expansion


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def reglim_z1(n: tuple[int, ...]) -> LinComb:
    """Asymptotic expansion of Li_n(1/z) as z_1 -> 0, over ambient d = len(n):

        (-1)^{1+n_1} sum_{|k| = n_1} ber_{k_1}(z_{1,d})
            Li_{n'+k'}(1/z') prod_{m=2}^{d} C(n_m - 1 + k_m, k_m)

    Every term has depth d-1; the only z_1 dependence is through the Ber
    factor.  Depth-1 input is rejected (use the depth-1 inversion there).
    """
    d = len(n)
    if d < 2:
        raise RewriteError("expansion needs depth >= 2")
    out = LinComb(d)
    sign = (-1) ** (1 + n[0])
    inv_args = tuple(ConsProd(i, i, True) for i in range(2, d + 1))
    for k in _compositions(n[0], d):
        coeff = sign
        for m in range(2, d + 1):
            coeff *= binom(n[m - 1] - 1 + k[m - 1], k[m - 1])
        if coeff == 0:
            continue
        indices = tuple(n[m - 1] + k[m - 1] for m in range(2, d + 1))
        bers = ((1, k[0]),) if k[0] > 0 else ()
        out.add_term(make_generator(d, bers, (LiFactor(indices, inv_args),)), coeff)
    return out


# ---------------------------------------------------------------------------
# the recursion


def _is_log_shape(g: Generator) -> bool:
    """True when the only possible z_1 dependence is the Ber factor at start
    1, i.e. the term is a log-polynomial in z_{1,N} times z_1-free factors."""
    return all(f.args[0].start >= 2 for f in g.lis)


def _split_log_shape(lc: LinComb) -> tuple[LinComb, LinComb]:
    keep = LinComb(lc.ambient)
    logs = LinComb(lc.ambient)
    for g, c in lc.terms.items():
        (logs if _is_log_shape(g) else keep).add_term(g, c)
    return keep, logs


def _ber1_part(lc: LinComb) -> LinComb:
    """Sub-sum of terms carrying a Ber factor at start 1."""
    out = LinComb(lc.ambient)
    for g, c in lc.terms.items():
        if any(s == 1 for s, _ in g.bers):
            out.add_term(g, c)
    return out


def _header(index: tuple[int, ...], form: str) -> dict:
    """Every key of a ``SCHEMA`` document but its ``terms``."""
    return {"schema": SCHEMA, "index": list(index), "form": form,
            "weight": sum(index), "ambient": len(index)}


@dataclass
class PliResult:
    index: tuple[int, ...]
    equation: LinComb
    form: str  # "compact" | "canonical"
    text: str | None = field(default=None, compare=False, repr=False)

    @property
    def weight(self) -> int:
        return sum(self.index)

    @property
    def json_text(self) -> str:
        """The ``SCHEMA`` document, built once per result or kept as read: it
        is both the equation-cache file and the ``--format json`` block."""
        if self.text is None:
            doc = _header(self.index, self.form)
            doc.update(lincomb_to_dict(self.equation))
            self.text = json.dumps(doc, indent=1)
        return self.text

    @classmethod
    def from_document(cls, text: str, index, form: str) -> PliResult | None:
        """The result a ``SCHEMA`` document holds, with ``text`` as its
        document; None unless the header names exactly this index and form,
        every listed term is a distinct nonzero term of the equation, and
        every term keeps the equations' contract: an integer coefficient,
        weight |n| and depth <= d-1, and for the canonical form ordered,
        inversion-free arguments."""
        index = tuple(index)
        header = _header(index, form)
        try:
            data = json.loads(text)
            if not (isinstance(data, dict) and data.keys() == header.keys() | {"terms"}
                    and all(data[k] == v for k, v in header.items())):
                return None
            eq = lincomb_from_dict(data)
        except (ValueError, KeyError, TypeError):
            return None
        if len(eq.terms) != len(data["terms"]):  # a repeated, cancelling or zero term
            return None
        w, d = sum(index), len(index)
        if form == "canonical":
            valid = all(validate_generator(g, d - 1, w) for g in eq.terms)
        else:
            valid = all(gen_weight(g) == w and gen_depth(g) < d for g in eq.terms)
        return cls(index, eq, form, text) if valid else None


class Engine:
    """Memoized computation of the depth-reduced functional equations.

    Results for distinct keys may be computed concurrently; memo writes
    are idempotent (the same key always produces the same LinComb)."""

    def __init__(self) -> None:
        self._compact: dict[tuple[int, ...], LinComb] = {}
        self._canonical: dict[tuple[int, ...], LinComb] = {}
        self._rewrites: dict[tuple[LiFactor, int], LinComb] = {}
        self._lock = threading.Lock()

    def _memoized(self, table: dict, key, compute) -> LinComb:
        got = table.get(key)
        if got is None:
            got = compute(key)
            with self._lock:
                got = table.setdefault(key, got)
        return got

    # -- compact form ------------------------------------------------------

    def pli_lincomb(self, n: tuple[int, ...]) -> LinComb:
        return self._memoized(self._compact, tuple(n), self._compute)

    def _compute(self, n: tuple[int, ...]) -> LinComb:
        d = len(n)
        if d == 0 or any(m < 1 for m in n):
            raise ValueError(f"bad index vector {n}")
        if d == 1:
            out = LinComb(1)
            out.add_term(ber_generator(1, 1, n[0]), -1)
            return out
        if n[0] == 1:
            nprime = n[1:]
            sub = self.pli_lincomb(nprime)
            zp = suffix_spans(d, 2)
            zpp = (ConsProd(1, 2),) + suffix_spans(d, 3)
            p_prime = embed(sub, zp, d)
            p_second = embed(sub, zpp, d)
            li_zp = li_generator(d, nprime, zp)
            li_zpp = li_generator(d, nprime, zpp)
            li_inv = li_generator(
                d, nprime, tuple(ConsProd(a.start, a.end, True) for a in zp)
            )
            sign = (-1) ** (sum(nprime) - (d - 1))
            z1num = LinComb(d)
            z1num.add_term(li_zpp, -1)
            z1num.add_term(li_inv, -sign)
            unum = p_prime - p_second
            f = primitive_z1(DiffExpr(z1num, unum, {}))
        else:
            e = self.pli_lincomb((n[0] - 1,) + n[1:])
            f = primitive_z1(DiffExpr(e, LinComb(d), {}))
        keep, logs = _split_log_shape(f)
        rall = reglim_z1(n).scale(-((-1) ** (sum(n) - d)))
        # Both carry the same divergent (ber-at-start-1) content; the
        # expansion additionally supplies the constant of integration.
        if _ber1_part(logs) != _ber1_part(rall):
            raise RewriteError(f"integration constants mismatch for index {n}")
        return keep + rall

    # -- canonical form ----------------------------------------------------

    def pli_canonical(self, n: tuple[int, ...]) -> LinComb:
        return self._memoized(
            self._canonical, tuple(n), lambda n: self.canonicalize(self.pli_lincomb(n))
        )

    def canonicalize(self, lc: LinComb) -> LinComb:
        """Eliminate inverted and reversed arguments in one substitution
        pass: each generator becomes its Ber factors times the product of
        its Li factors' canonical rewrites (``_rewrite_factor``), each
        computed once per (factor, ambient) and memoized."""
        n = lc.ambient
        out = LinComb(n)
        for g, c in lc.terms.items():
            partial = [(g.bers, (), c)]
            for f in g.lis:
                rewrite = self._memoized(self._rewrites, (f, n), self._rewrite_factor)
                partial = [
                    (bers + h.bers, lis + h.lis, k * kh)
                    for bers, lis, k in partial
                    for h, kh in rewrite.terms.items()
                ]
            for bers, lis, k in partial:
                out.add_term(sorted_generator(n, bers, lis), k)
        return out

    def _rewrite_factor(self, key: tuple[LiFactor, int]) -> LinComb:
        """Canonical form of one Li factor over ``ambient`` variables.  A
        plain factor maps to itself; a reversed depth-2 factor goes through
        the quasi-shuffle; an inverted suffix factor through the depth-1
        inversion formula or Li_m(1/y) = (-1)^{|m|-s} (Li_m(y) - PLi_m(y))."""
        f, ambient = key
        if not f.has_inverted():
            if f.depth == 2 and f.args[0].start > f.args[1].start:
                return stuffle_swap_depth2(
                    f.indices[1], f.indices[0], f.args[1], f.args[0], ambient
                )
            return LinComb.single(Generator(ambient, (), (f,)))
        if not all(a.inverted for a in f.args):
            raise RewriteError(f"mixed inverted/plain arguments in {f}")
        if f.depth == 1:
            return invert_depth1(f.indices[0], f.args[0], ambient)
        spans = tuple(ConsProd(a.start, a.end) for a in f.args)
        if spans[-1].end != ambient:
            raise RewriteError(f"inverted factor {f} is not a suffix")
        sign = (-1) ** (f.weight - f.depth)
        plain = LinComb.single(li_generator(ambient, f.indices, spans), sign)
        return plain - embed(self.pli_canonical(f.indices), spans, ambient).scale(sign)

    # -- public API --------------------------------------------------------

    def pli(self, n, form: str = "compact") -> PliResult:
        n = tuple(int(x) for x in n)
        if form == "compact":
            eq = self.pli_lincomb(n)
        elif form == "canonical":
            eq = self.pli_canonical(n)
        else:
            raise ValueError(f"unknown form {form!r}")
        return PliResult(n, eq, form)

    def pli_depth2_closed(self, n1: int, n2: int) -> PliResult:
        """Closed depth-2 formula (two binomial sums plus two cross terms)."""
        w = n1 + n2
        out = LinComb(2)
        z1 = ConsProd(1, 1)
        z12 = ConsProd(1, 2)
        z2inv = ConsProd(2, 2, True)
        for mu in range(n1, w + 1):
            coeff = (-1) ** n1 * binom(mu - 1, n1 - 1) * (-1) ** mu
            bers = ((1, w - mu),) if w - mu > 0 else ()
            out.add_term(make_generator(2, bers, (LiFactor((mu,), (z1,)),)), coeff)
        out.add_term(li_generator(2, (w,), (z12,)), -1)
        for mu in range(n2, w + 1):
            coeff = (-1) ** n2 * binom(mu - 1, n2 - 1)
            bers = ((1, w - mu),) if w - mu > 0 else ()
            out.add_term(make_generator(2, bers, (LiFactor((mu,), (z2inv,)),)), coeff)
        out.add_term(
            make_generator(2, [(2, n2)], (LiFactor((n1,), (z1,)),)), -1
        )
        return PliResult((n1, n2), out, "compact")

    def pli_depth3_closed(self, n1: int, n2: int, n3: int) -> PliResult:
        """Closed depth-3 formula with the depth-2 part inlined and the
        reversed-argument compactions expanded by the quasi-shuffle."""
        w = n1 + n2 + n3
        out = LinComb(3)
        z1 = ConsProd(1, 1)
        z2 = ConsProd(2, 2)
        sub = self.pli_depth2_closed(n2, n3).equation
        out = out + embed(sub, (z2, ConsProd(3, 3)), 3).mul_generator(
            li_generator(3, (n1,), (z1,))
        )
        out.add_term(li_generator(3, (n1 + n2, n3), (ConsProd(1, 2), ConsProd(3, 3))), -1)
        swap1 = stuffle_swap_depth2(n1, n2, z1, z2, 3)
        out = out + swap1.mul_generator(ber_generator(3, 3, n3))
        out = out + stuffle_swap_depth2(n1, n2 + n3, z1, ConsProd(2, 3), 3)
        for mu in range(n2 + 1):
            for nu in range(n2 + 1 - mu):
                s = n2 - mu - nu
                coeff = (
                    -signed_binomial(-n3, mu)
                    * signed_binomial(-n1, nu)
                    * (-1) ** (n3 + mu)
                )
                bers = ((1, s),) if s > 0 else ()
                out.add_term(
                    make_generator(
                        3,
                        bers,
                        (
                            LiFactor((n1 + nu,), (z1,)),
                            LiFactor((n3 + mu,), (ConsProd(3, 3, True),)),
                        ),
                    ),
                    coeff,
                )
        for mu in range(n3 + 1):
            for nu in range(n3 + 1 - mu):
                s = n3 - mu - nu
                coeff = -signed_binomial(-n2, mu) * signed_binomial(-n1, nu)
                host = (
                    ber_generator(3, 1, s) if s > 0 else make_generator(3, (), ())
                )
                swapped = stuffle_swap_depth2(n1 + nu, n2 + mu, z1, z2, 3)
                out = out + swapped.mul_generator(host, coeff)
        for mu in range(n1 + 1):
            for nu in range(n1 + 1 - mu):
                s = n1 - mu - nu
                coeff = (
                    -signed_binomial(-n2, mu)
                    * signed_binomial(-n3, nu)
                    * (-1) ** (n2 + mu + n3 + nu)
                )
                bers = ((1, s),) if s > 0 else ()
                out.add_term(
                    make_generator(
                        3,
                        bers,
                        (
                            LiFactor(
                                (n2 + mu, n3 + nu),
                                (ConsProd(2, 2, True), ConsProd(3, 3, True)),
                            ),
                        ),
                    ),
                    coeff,
                )
        return PliResult((n1, n2, n3), out, "compact")


ENGINE = Engine()


def pli(n, form: str = "compact") -> PliResult:
    return ENGINE.pli(n, form)
