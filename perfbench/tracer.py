"""Span tracer for the benchmark's traced runs.

The tracer wraps functions and methods of the ``mplparity`` modules from
outside the program: nothing under ``src/`` knows about it.  Each wrapped
call records a span ``[span id, parent span id, name id, start, end]`` in
memory; the spans are written out when the traced process ends, and each
layer's self time is derived from them (a span's duration minus the part
covered by its child spans).  Functions that run millions of times are
wrapped by a counter only.

A module-level function is patched in every ``mplparity`` module whose
namespace binds it (``from .terms import make_generator`` makes a second
binding in ``engine``), and a method is patched on its class, so a wrapper
sits wherever the name is looked up at call time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from fractions import Fraction

PACKAGE = "mplparity"
MODULES = ("engine", "terms", "cli", "roots", "words", "oracle")

# (layer name, module, attribute, kind): "span" records a span per call,
# "count" only counts calls.
TARGETS = (
    ("engine.pli_lincomb", "engine", "Engine.pli_lincomb", "span"),
    ("engine.canonicalize", "engine", "Engine.canonicalize", "span"),
    ("terms.add_term", "terms", "LinComb.add_term", "count"),
    ("terms.make_generator", "terms", "make_generator", "count"),
    ("terms.validate_generator", "terms", "validate_generator", "count"),
    ("terms.lincomb_to_dict", "terms", "lincomb_to_dict", "span"),
    ("terms.lincomb_from_dict", "terms", "lincomb_from_dict", "span"),
    ("cli.main", "cli", "main", "span"),
    ("cli.render_pli", "cli", "render_pli", "span"),
    ("cli.cache_store", "cli", "EquationCache.store", "span"),
    ("cli.cache_load", "cli", "EquationCache.load", "span"),
    ("roots.specialize", "roots", "specialize", "span"),
    ("roots.regularized_limit_factor", "roots", "regularized_limit_factor", "span"),
    ("roots.normalize_czv", "roots", "normalize_czv", "span"),
    ("roots.czv_add_term", "roots", "CzvCombination.add_term", "count"),
    ("roots.eval_czv_combination", "roots", "eval_czv_combination", "span"),
    ("words.shuffle", "words", "shuffle", "span"),
    ("oracle.integrator_init", "oracle", "HyperlogIntegrator.__init__", "span"),
    ("oracle.word_value", "oracle", "HyperlogIntegrator.word_value", "span"),
    ("oracle.eval_li_series", "oracle", "eval_li_series", "span"),
    ("oracle.eval_li_inverse", "oracle", "eval_li_inverse", "span"),
    ("oracle.eval_generator", "oracle", "eval_generator", "span"),
    ("oracle.verify_feq", "oracle", "verify_feq", "span"),
    ("oracle.eval_czv", "oracle", "eval_czv", "span"),
)

CZV_PATHS = ("closed", "em", "abel", "peel2")

# Per-layer metrics: name -> unit, better.  Their values come from
# ``layer_metrics``; ``trace.overhead_s`` is added by the harness.
PER_LAYER = {
    "engine.pli_lincomb.self_s": ("s", "lower"),
    "engine.pli_lincomb.calls": ("count", "lower"),
    "engine.pli_lincomb.memo_hit_ratio": ("ratio", "higher"),
    "engine.canonicalize.self_s": ("s", "lower"),
    "engine.canonicalize.calls": ("count", "lower"),
    "terms.add_term.calls": ("count", "lower"),
    "terms.make_generator.calls": ("count", "lower"),
    "terms.lincomb_to_dict.self_s": ("s", "lower"),
    "cli.render_pli.self_s": ("s", "lower"),
    "cli.cache_store.self_s": ("s", "lower"),
    "cli.cache_store.bytes": ("bytes", "lower"),
    "terms.lincomb_from_dict.self_s": ("s", "lower"),
    "terms.validate_generator.calls": ("count", "lower"),
    "cli.cache_load.self_s": ("s", "lower"),
    "cli.cache_load.hits": ("count", "higher"),
    "roots.specialize.self_s": ("s", "lower"),
    "roots.specialize.calls": ("count", "lower"),
    "roots.regularized_limit_factor.self_s": ("s", "lower"),
    "roots.czv_add_term.calls": ("count", "lower"),
    "roots.normalize_czv.self_s": ("s", "lower"),
    "words.shuffle.self_s": ("s", "lower"),
    "words.shuffle.calls": ("count", "lower"),
    "oracle.integrator_init_s": ("s", "lower"),
    "oracle.word_value.self_s": ("s", "lower"),
    "oracle.word_value.calls": ("count", "lower"),
    "oracle.word_value.letters": ("count", "lower"),
    "oracle.eval_li_series.self_s": ("s", "lower"),
    "oracle.eval_li_inverse.calls": ("count", "lower"),
    "oracle.inverse_memo_hit_ratio": ("ratio", "higher"),
    "oracle.samples_skipped": ("count", "lower"),
    "roots.eval_czv_combination.self_s": ("s", "lower"),
    "oracle.eval_czv.calls": ("count", "lower"),
    "oracle.eval_czv.repeat_ratio": ("ratio", "lower"),
    **{f"oracle.eval_czv.{p}.self_s": ("s", "lower") for p in CZV_PATHS},
    "trace.overhead_s": ("s", "lower"),
}

# Metrics that must be nonzero in the timed passes of the workload whose
# layer they serve; a wrapper patched where the name is not looked up
# leaves them at zero.
SERVED = {
    "table": (
        "engine.pli_lincomb.calls", "engine.canonicalize.calls",
        "terms.add_term.calls", "terms.make_generator.calls",
        "terms.lincomb_to_dict.self_s", "cli.render_pli.self_s",
        "cli.cache_store.self_s", "terms.lincomb_from_dict.self_s",
        "terms.validate_generator.calls", "cli.cache_load.self_s",
        "cli.cache_load.hits",
    ),
    "verify": (
        "oracle.integrator_init_s", "oracle.word_value.calls",
        "oracle.word_value.letters", "oracle.eval_li_series.self_s",
        "oracle.eval_li_inverse.calls",
    ),
    "reduce": (
        "roots.specialize.calls", "roots.regularized_limit_factor.self_s",
        "roots.czv_add_term.calls", "roots.normalize_czv.self_s",
        "words.shuffle.calls",
    ),
    "czv": (
        "roots.eval_czv_combination.self_s", "oracle.eval_czv.calls",
        *(f"oracle.eval_czv.{p}.self_s" for p in CZV_PATHS),
    ),
}


def unserved(workload: str, metrics: dict) -> list[str]:
    """The metrics the workload serves that stayed at zero."""
    return [m for m in SERVED[workload] if not metrics.get(m)]


def czv_path(m, fracs) -> str:
    """The tail method ``eval_czv`` dispatches to, by input shape."""
    fr = [Fraction(f) % 1 for f in fracs]
    if len(m) <= 1:
        return "closed"
    if all(f == 0 for f in fr[:-1]):
        return "em" if fr[-1] == 0 else "abel"
    return "peel2" if len(m) == 2 else "unsupported"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.epoch = 0  # distinct arguments are counted per epoch (pass)
        self._stack = [0]
        self._restore: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        nid = self.name_id(name)
        rename = self._czv_rename if name == "oracle.eval_czv" else None

        def wrapper(*args, **kwargs):
            rec = [len(spans) + 1, stack[-1], nid, clock(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if rename is not None:
                rec[2] = rename(args)
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _czv_rename(self, args) -> int:
        m, fracs = tuple(args[0]), tuple(Fraction(f) % 1 for f in args[1])
        self.distinct["oracle.eval_czv"].add((self.epoch, m, fracs))
        return self.name_id(f"oracle.eval_czv.{czv_path(m, fracs)}")

    def _notes(self):
        def pli_lincomb(args, result):
            self.distinct["engine.pli_lincomb"].add((self.epoch, tuple(args[1])))

        def cache_load(args, result):
            if result is not None:
                self.counts["cli.cache_load.hits"] += 1

        def word_value(args, result):
            self.counts["oracle.word_value.letters"] += len(args[1])

        def eval_generator(args, result):
            self.counts["oracle.inverse_lookups"] += sum(
                1 for f in args[0].lis if f.has_inverted())

        def verify_feq(args, result):
            if result.checks:
                self.counts["oracle.samples_skipped"] += (
                    result.checks[-1].seed + 1 - len(result.checks))

        return {"engine.pli_lincomb": pli_lincomb, "cli.cache_load": cache_load,
                "oracle.word_value": word_value, "oracle.eval_generator": eval_generator,
                "oracle.verify_feq": verify_feq}

    # -- installation -----------------------------------------------------

    def install(self, modules=MODULES) -> None:
        """Wrap every target.  ``modules`` names the package modules whose
        bindings of a module-level function are replaced."""
        loaded = [importlib.import_module(f"{PACKAGE}.{m}") for m in modules]
        notes = self._notes()
        for name, modname, attr, kind in TARGETS:
            home = importlib.import_module(f"{PACKAGE}.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owners = [getattr(home, cls_name)]
            else:
                meth = attr
                owners = [m for m in loaded if getattr(m, meth, None) is getattr(home, meth)]
            for owner in owners:
                orig = owner.__dict__[meth] if isinstance(owner, type) else getattr(owner, meth)
                if kind == "span":
                    wrapped = self._span(name, orig, notes.get(name))
                else:
                    wrapped = self._count(name, orig)
                setattr(owner, meth, wrapped)
                self._restore.append((owner, meth, orig))

    def uninstall(self) -> None:
        for owner, meth, orig in reversed(self._restore):
            setattr(owner, meth, orig)
        self._restore.clear()

    # -- output -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters and distinct-argument sets, copied so a later phase can
        be measured as the difference."""
        return {"spans": len(self.spans), "counts": dict(self.counts),
                "distinct": {k: set(v) for k, v in self.distinct.items()}}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def self_times(names, spans) -> tuple[dict, dict, dict]:
    """Per name: summed self time, summed duration and call count."""
    by_id = {s[0]: s for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s[1] in by_id:
            child[s[1]] += s[4] - s[3]
    self_s, total_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for s in spans:
        name = names[s[2]]
        dur = s[4] - s[3]
        self_s[name] += dur - child[s[0]]
        total_s[name] += dur
        calls[name] += 1
    return self_s, total_s, calls


def layer_metrics(tracer: Tracer, since: dict | None = None) -> dict:
    """Per-layer metric values from the spans and counters recorded after
    the snapshot ``since`` (all of them when it is None)."""
    first = since["spans"] if since else 0
    before = since["counts"] if since else {}
    old = since["distinct"] if since else {}
    spans = tracer.spans[first:]
    names = tracer.names
    self_s, total_s, calls = self_times(names, spans)
    count = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
    calls.update(count)

    def distinct(name):
        return len(tracer.distinct.get(name, set()) - old.get(name, set()))

    by_id = {s[0]: s for s in spans}
    misses = sum(1 for s in spans if names[s[2]] == "oracle.eval_li_inverse"
                 and s[1] in by_id and names[by_id[s[1]][2]] == "oracle.eval_generator")
    lookups = count.get("oracle.inverse_lookups", 0)
    czv_calls = sum(calls[f"oracle.eval_czv.{p}"] for p in CZV_PATHS + ("unsupported",))
    pli_calls = calls["engine.pli_lincomb"]

    out = {
        "engine.pli_lincomb.memo_hit_ratio":
            1 - distinct("engine.pli_lincomb") / pli_calls if pli_calls else 0.0,
        "cli.cache_store.bytes": 0,
        "cli.cache_load.hits": count.get("cli.cache_load.hits", 0),
        "oracle.integrator_init_s": total_s["oracle.integrator_init"],
        "oracle.word_value.letters": count.get("oracle.word_value.letters", 0),
        "oracle.inverse_memo_hit_ratio": 1 - misses / lookups if lookups else 0.0,
        "oracle.samples_skipped": count.get("oracle.samples_skipped", 0),
        "oracle.eval_czv.calls": czv_calls,
        "oracle.eval_czv.repeat_ratio":
            1 - distinct("oracle.eval_czv") / czv_calls if czv_calls else 0.0,
    }
    for metric in PER_LAYER:
        if metric in out or metric == "trace.overhead_s":
            continue
        layer, _, kind = metric.rpartition(".")
        out[metric] = self_s[layer] if kind == "self_s" else calls[layer]
    return out
