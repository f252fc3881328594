"""Tests of the benchmark's own checks and tracing: each check passes on the
program's real output and fails on a corrupted copy of it.

    python3 -m pytest perfbench -q
"""

import copy
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import checks
import tracer
import workloads
from mplparity import oracle
from workloads import Czv, Pass, Reduce, Table, Verify, run_cli

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def table_text(tmp_path_factory):
    out = tmp_path_factory.mktemp("table") / "t.json"
    code, _ = run_cli(["table", "--max-weight", "3", "--form", "canonical",
                       "--format", "json", "--out", str(out)])
    assert code == 0
    return out.read_text()


def edited(text, index, edit):
    doc = json.loads(text)
    eq = next(e for e in doc if e["index"] == list(index))
    edit(eq)
    return json.dumps(doc)


def by_index(text):
    return {tuple(eq["index"]): eq for eq in json.loads(text)}


def test_table_checks_pass_on_real_output(table_text):
    assert checks.check_table(table_text, 3) == []
    assert Table.check_closed_forms(by_index(table_text)) == []


@pytest.mark.parametrize("edit", [
    lambda eq: eq["terms"][0].update(coeff=str(-int(eq["terms"][0]["coeff"]))),
    lambda eq: eq["terms"].pop(1),
], ids=["flipped-coefficient", "dropped-term"])
def test_closed_form_check_fails_on_corruption(table_text, edit):
    bad = edited(table_text, (1, 2), edit)
    assert Table.check_closed_forms(by_index(bad))


@pytest.mark.parametrize("edit", [
    lambda eq: eq["terms"][0].update(coeff="1/2"),
    lambda eq: eq["terms"][-1]["lis"][0]["args"][0].update(inverted=True),
    lambda eq: eq["terms"][-1]["lis"][0]["indices"].__setitem__(0, 7),
    lambda eq: eq["terms"].append(copy.deepcopy(eq["terms"][0])),
    lambda eq: eq.update(form="compact"),
], ids=["fraction", "inverted", "weight", "repeated-term", "form"])
def test_structural_check_fails_on_corruption(table_text, edit):
    assert checks.check_table(edited(table_text, (1, 1, 1), edit), 3)


def test_table_check_fails_on_missing_equation_and_warm_mismatch(table_text, tmp_path):
    doc = json.loads(table_text)
    assert checks.check_table(json.dumps(doc[:-1]), 3)
    errors, _ = Table(0, tmp_path).check(
        [Pass(1.0, 7, 0, [table_text]), Pass(1.0, 7, 0, [table_text.replace("1", "2", 1)])],
        full=False)
    assert any("warm" in e for e in errors)


def verify_doc():
    reports = [{"index": list(n), "samples": 1, "tolerance": 1e-10, "max_error": 1e-24,
                "passed": True, "checks": [{"seed": 0, "abs_error": 1e-24, "bound": 1e-30}]}
               for n in checks.compositions(2)]
    return {"max_weight": 2, "samples": 1, "tolerance": 1e-10, "failed": 0, "reports": reports}


def test_verify_check():
    assert checks.check_verify(verify_doc(), 2, 1) == []
    bad = verify_doc()
    bad["reports"][1].update(max_error=1e-3)
    assert checks.check_verify(bad, 2, 1)
    bad = verify_doc()
    bad["reports"].pop()
    assert checks.check_verify(bad, 2, 1)
    assert checks.check_verify(verify_doc(), 2, 3)
    assert checks.margin_digits(1e-10, 1e-24) == pytest.approx(14)


def test_quadrature_check_fails_on_perturbed_value(tmp_path, monkeypatch):
    wl = Verify(0, tmp_path)
    doc = {"reports": [{"index": [2], "checks": [{"seed": 0}]}]}
    assert wl.check_quadrature(doc) == []
    real = oracle.eval_li_inverse

    def perturbed(*args):
        v = real(*args)
        return oracle.HPComplex(v.value + mp.mpf("1e-15"), v.err)

    monkeypatch.setattr(oracle, "eval_li_inverse", perturbed)
    assert wl.check_quadrature(doc)


@pytest.fixture(scope="module")
def reduce_doc():
    code, text = run_cli(["reduce", "2,3", "--roots", "1/2,0/1", "--format", "json"])
    assert code == 0
    return checks.parse_reduce(text)


def test_reduce_checks_pass_on_real_output(reduce_doc):
    frac = (Fraction(1, 2), Fraction(0))
    assert checks.check_reduce(reduce_doc, (2, 3)) == []
    assert Reduce.check_signs((2, 3), frac, checks.czv_terms(reduce_doc)) == []


@pytest.mark.parametrize("edit", [
    lambda d: d["terms"][0].update(coeff=str(-Fraction(d["terms"][0]["coeff"]))),
    lambda d: d["terms"].pop(0),
], ids=["flipped-coefficient", "dropped-term"])
def test_reduce_closed_form_check_fails(reduce_doc, edit):
    bad = copy.deepcopy(reduce_doc)
    edit(bad)
    frac = (Fraction(1, 2), Fraction(0))
    assert Reduce.check_signs((2, 3), frac, checks.czv_terms(bad))


@pytest.mark.parametrize("edit", [
    lambda d: d["terms"][0].update(ipi_power=d["terms"][0]["ipi_power"] + 1),
    lambda d: d["terms"][0]["factors"].append({"indices": [1, 1], "roots": ["1/2", "1/2"]}),
    lambda d: d["terms"][0]["factors"].append({"indices": [1], "roots": ["0/1"]}),
], ids=["weight", "depth", "divergent"])
def test_reduce_structural_check_fails(reduce_doc, edit):
    bad = copy.deepcopy(reduce_doc)
    edit(bad)
    assert checks.check_reduce(bad, (2, 3))


def test_czv_checks(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CZV_CASES", (((2, 3), (Fraction(0), Fraction(0))),))
    wl = Czv(0, tmp_path)
    passes = [wl.run_pass(0), wl.run_pass(1)]
    errors, margin = wl.check(passes, full=True)
    assert errors == [] and margin > 0
    value, lhs = passes[0].outputs[0]
    n, fr, spec = wl.cases[0]
    assert Czv.check_references("t", n, fr, spec, value, lhs) == []
    with mp.workdps(40):
        off = value + mp.mpf("1e-20")
        off_lhs = lhs + mp.mpf("1e-20")
    errors, margin = wl.check([Pass(1.0, 1, 0, [(off, lhs)]), passes[1]], full=False)
    assert errors and margin < 0
    assert Czv.check_references("t", n, fr, spec, value, off_lhs)


def test_self_times():
    names = ["a", "b"]
    spans = [[1, 0, 0, 0.0, 10.0], [2, 1, 1, 1.0, 4.0], [3, 1, 1, 5.0, 6.0]]
    self_s, total_s, calls = tracer.self_times(names, spans)
    assert self_s["a"] == pytest.approx(6.0) and self_s["b"] == pytest.approx(4.0)
    assert total_s["a"] == 10.0 and calls["b"] == 2


def traced_reduce(**install):
    tr = tracer.Tracer()
    tr.install(**install)
    try:
        code, _ = run_cli(["reduce", "1,2", "--roots", "1/4,1/4", "--format", "json"])
    finally:
        tr.uninstall()
    assert code == 0
    return tracer.layer_metrics(tr)


def test_traced_run_fails_when_wrapper_misses_the_lookup():
    """Patched only in its home module, specialize is never seen: the CLI
    calls it through its own binding."""
    missed = traced_reduce(modules=("roots",))
    assert "roots.specialize.calls" in tracer.unserved("reduce", missed)
    seen = traced_reduce()
    assert "roots.specialize.calls" not in tracer.unserved("reduce", seen)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_lists_the_printed_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == tracer.PER_LAYER
    assert [m["name"] for m in doc["end_to_end"]] == [
        "setup_s", "wall_s", "warm_s", "peak_rss_mb", "margin_digits"]
    setup_bound = doc["end_to_end"][0]["bound"]
    assert all(m["bound"] <= setup_bound for m in doc["end_to_end"])
