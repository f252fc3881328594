"""Correctness checks on the program's outputs.

Every check returns a list of error strings (empty when the output passes).
The checks compare against references that do not come from a stored copy
of an earlier output: the structural invariants of the paper's equations,
closed formulas computed on another path, and numeric values from mpmath.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations

import mpmath as mp

MAX_ERRORS = 20


def compositions(max_weight: int) -> list[tuple[int, ...]]:
    """Every index vector of weight 1..max_weight, by cutting w into parts."""
    out = []
    for w in range(1, max_weight + 1):
        for k in range(w):
            for cuts in combinations(range(1, w), k):
                bounds = (0,) + cuts + (w,)
                out.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return out


def margin_digits(tolerance: float, worst: float) -> float:
    """log10(tolerance / worst residual): above 0 exactly when every
    residual is within the tolerance."""
    return math.log10(tolerance / max(worst, 1e-300))


# ---------------------------------------------------------------------------
# table


def lincomb_key(term: dict) -> tuple:
    """Hashable form of one serialized equation term (without coefficient)."""
    bers = tuple((b["start"], b["weight"]) for b in term["bers"])
    lis = tuple(
        (tuple(f["indices"]),
         tuple((a["start"], a["end"], a["inverted"]) for a in f["args"]))
        for f in term["lis"]
    )
    return bers, lis


def generator_key(g) -> tuple:
    """The same key for an in-memory generator of the program."""
    return (tuple(g.bers),
            tuple((tuple(f.indices), tuple((a.start, a.end, a.inverted) for a in f.args))
                  for f in g.lis))


def check_equation(eq: dict) -> list[str]:
    """One canonical equation: weight |n|, depth <= d-1, integer
    coefficients, Li argument spans disjoint, increasing and inversion-free."""
    errors = []
    index = eq.get("index")
    if not index or any(not isinstance(n, int) or n < 1 for n in index):
        return [f"bad index {index!r}"]
    w, d = sum(index), len(index)
    tag = ",".join(map(str, index))
    if eq.get("form") != "canonical" or eq.get("weight") != w or eq.get("ambient") != d:
        errors.append(f"{tag}: header form/weight/ambient wrong")
    seen = set()
    for t in eq.get("terms", []):
        c = Fraction(t["coeff"])
        key = lincomb_key(t)
        if c == 0 or c.denominator != 1:
            errors.append(f"{tag}: coefficient {t['coeff']} is not a nonzero integer")
        if key in seen:
            errors.append(f"{tag}: repeated term {key}")
        seen.add(key)
        starts = [b["start"] for b in t["bers"]]
        if len(set(starts)) != len(starts) or any(
                not 1 <= b["start"] <= d or b["weight"] < 1 for b in t["bers"]):
            errors.append(f"{tag}: bad Ber factors {t['bers']}")
        weight = sum(b["weight"] for b in t["bers"])
        depth = 0
        prev_end = 0
        for f in t["lis"]:
            if len(f["indices"]) != len(f["args"]) or any(n < 1 for n in f["indices"]):
                errors.append(f"{tag}: malformed Li factor {f}")
            weight += sum(f["indices"])
            depth += len(f["indices"])
            for a in f["args"]:
                if a["inverted"] or not prev_end < a["start"] <= a["end"] <= d:
                    errors.append(f"{tag}: span {a} inverted, overlapping or out of order")
                prev_end = a["end"]
        if weight != w:
            errors.append(f"{tag}: term of weight {weight}, expected {w}")
        if depth > d - 1:
            errors.append(f"{tag}: term of depth {depth} > {d - 1}")
    if not seen:
        errors.append(f"{tag}: empty equation")
    return errors


def check_table(text: str, max_weight: int) -> list[str]:
    """The JSON table: every index of weight <= max_weight exactly once,
    every equation canonical."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"table is not JSON: {exc}"]
    errors = []
    got = [tuple(eq.get("index") or ()) for eq in doc]
    if sorted(got) != sorted(compositions(max_weight)):
        errors.append("table does not list every index exactly once")
    for eq in doc:
        errors.extend(check_equation(eq))
        if len(errors) > MAX_ERRORS:
            break
    return errors


def lincomb_terms(eq: dict) -> dict:
    """{term key: coefficient} of a serialized equation."""
    return {lincomb_key(t): Fraction(t["coeff"]) for t in eq["terms"]}


def compare(tag: str, got: dict, reference: dict) -> list[str]:
    """Two {term key: coefficient} maps must be equal."""
    if got == reference:
        return []
    missing = len(reference.keys() - got.keys())
    extra = len(got.keys() - reference.keys())
    differ = sum(1 for k in got.keys() & reference.keys() if got[k] != reference[k])
    return [f"{tag}: {missing} terms missing, {extra} extra, {differ} coefficients differ"]


# ---------------------------------------------------------------------------
# verify


def check_verify(doc: dict, max_weight: int, samples: int) -> list[str]:
    errors = []
    reports = doc.get("reports", [])
    if sorted(tuple(r["index"]) for r in reports) != sorted(compositions(max_weight)):
        errors.append("verify did not report every index exactly once")
    if doc.get("failed") != 0:
        errors.append(f"verify reports {doc.get('failed')} failed equations")
    for r in reports:
        tag = ",".join(map(str, r["index"]))
        if not r["passed"] or not r["max_error"] <= r["tolerance"]:
            errors.append(f"{tag}: error {r['max_error']} above {r['tolerance']}")
        if len(r["checks"]) != samples:
            errors.append(f"{tag}: {len(r['checks'])} samples, expected {samples}")
    return errors


def check_close(tag: str, got, ref, tol: float) -> list[str]:
    """|got - ref| <= tol, with the difference taken in mpmath so that
    residuals far below double precision are seen."""
    err = float(abs(mp.mpmathify(got) - mp.mpmathify(ref)))
    if not err <= tol:
        return [f"{tag}: |{mp.nstr(got, 20)} - {mp.nstr(ref, 20)}| = {err:.3e} > {tol:.1e}"]
    return []


# ---------------------------------------------------------------------------
# reduce


def czv_key(term: dict) -> tuple:
    factors = tuple(sorted(
        (tuple(f["indices"]), tuple(f["roots"]), f.get("part", ""))
        for f in term["factors"]
    ))
    return term["ipi_power"], term["i_power"], factors


def czv_terms(doc: dict) -> dict:
    return {czv_key(t): Fraction(t["coeff"]) for t in doc["terms"]}


def combination_terms(c) -> dict:
    """{term key: coefficient} of an in-memory CzvCombination."""
    return {
        (t.ipi, t.ipow,
         tuple(sorted((tuple(f.indices), tuple(f"{r.k}/{r.N}" for r in f.roots), f.part)
                      for f in t.factors))): Fraction(coeff)
        for t, coeff in c.terms.items()
    }


def parse_reduce(text: str) -> dict:
    """The JSON document of ``mplparity reduce --format json``."""
    head, sep, body = text.partition(" = ")
    if not sep:
        raise ValueError(f"unexpected reduce output {text[:80]!r}")
    return json.loads(body)


def check_reduce(doc: dict, index) -> list[str]:
    """A specialization: weight-homogeneous of weight |n|, depth <= d-1,
    and free of divergent symbols (trailing index 1 at root 1)."""
    w, d = sum(index), len(index)
    tag = ",".join(map(str, index))
    errors = []
    if list(doc.get("index", [])) != list(index):
        errors.append(f"{tag}: output is for index {doc.get('index')}")
    for t in doc["terms"]:
        Fraction(t["coeff"])
        weight = t["ipi_power"] + sum(sum(f["indices"]) for f in t["factors"])
        depth = sum(len(f["indices"]) for f in t["factors"])
        if weight != w:
            errors.append(f"{tag}: term of weight {weight}, expected {w}")
        if depth > d - 1:
            errors.append(f"{tag}: term of depth {depth} > {d - 1}")
        for f in t["factors"]:
            if f["indices"][-1] == 1 and f["roots"][-1] == "0/1":
                errors.append(f"{tag}: divergent symbol {f}")
    return errors
