import hashlib
import json
import sys
from pathlib import Path

import pytest

from mplparity.cli import (
    EquationCache,
    all_indices,
    build_parser,
    compute_pli,
    main,
    parse_index,
    parse_roots,
    render_pli,
)
from mplparity import __version__, terms
from mplparity.engine import ENGINE, pli
from mplparity.terms import validate_generator

GOLD = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_parse_index_errors():
    assert parse_index("1,2,3") == (1, 2, 3)
    with pytest.raises(SystemExit):
        parse_index("1,x")
    with pytest.raises(SystemExit):
        parse_index("0,2")


def test_parse_roots():
    roots = parse_roots("0/1,1/2,1/4", 3)
    assert [(r.k, r.N) for r in roots] == [(0, 1), (1, 2), (1, 4)]
    with pytest.raises(SystemExit):
        parse_roots("1/2", 2)


def test_feq_text_and_latex(capsys):
    code, out = run_cli(capsys, "feq", "4")
    assert code == 0 and "-ber_4(z1)" in out
    code, out = run_cli(capsys, "feq", "1,2", "--format", "latex")
    assert code == 0 and "\\operatorname{Li}_{3}" in out


def test_feq_verify(capsys):
    code, out = run_cli(
        capsys, "feq", "1,1,2", "--verify", "--samples", "2", "--tol", "1e-9",
        "--prec", "30",
    )
    assert code == 0 and "PASS" in out


def test_json_golden_files(capsys):
    for n in [(1,), (1, 2), (2, 1)]:
        name = "pli_" + "_".join(map(str, n)) + ".json"
        expected = (GOLD / name).read_text()
        assert render_pli(pli(n), "json") + "\n" == expected, n


def test_reduce_command(capsys):
    code, out = run_cli(capsys, "reduce", "1,2", "--roots", "0/1,1/2")
    assert code == 0 and "1/4*zeta(3)" in out
    code, out = run_cli(
        capsys, "reduce", "1,5,2", "--roots", "0/1,0/1,0/1", "--closed-form"
    )
    assert code == 0
    assert "7*zeta(8)" in out and "7*zeta(1,7)" in out


def test_reduce_rejects_divergent_head(capsys):
    with pytest.raises(SystemExit):
        run_cli(capsys, "reduce", "1,1", "--roots", "0/1,0/x")
    code = main(["reduce", "1,1", "--roots", "0/1,0/1"])
    assert code == 2


def test_numeric_options_only_on_numeric_commands(capsys):
    # table and reduce compute exactly: precision, tolerance and sample
    # count are usage errors there
    for argv in (["table", "--max-weight", "2", "--prec", "30"],
                 ["reduce", "1,2", "--roots", "0/1,1/2", "--samples", "3"],
                 ["reduce", "1,2", "--roots", "0/1,1/2", "--prec", "29"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()
    numeric = ["--prec", "30", "--tol", "1e-9", "--samples", "3"]
    for argv in (["feq", "1,2", "--verify"], ["verify", "--max-weight", "2"]):
        args = build_parser().parse_args(argv + numeric)
        assert (args.prec, args.tol, args.samples) == (30, 1e-9, 3)


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_verify_command_small(capsys):
    code, out = run_cli(
        capsys, "verify", "--max-weight", "2", "--samples", "1", "--tol", "1e-9",
        "--prec", "30",
    )
    assert code == 0 and "all passed" in out
    code, out = run_cli(
        capsys, "verify", "--max-weight", "1", "--samples", "1", "--tol", "1e-9",
        "--prec", "30", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0 and len(data["reports"]) == 1


def test_index_enumeration():
    assert len(list(all_indices(3))) == 7
    assert len(list(all_indices(6))) == 63


def test_table_and_cache_roundtrip(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "table.json"
    cache_dir = tmp_path / "cache"
    # count document builds through every module binding of the builder
    calls = []
    original = terms.lincomb_to_dict

    def counting(lc):
        calls.append(lc)
        return original(lc)

    for name, module in list(sys.modules.items()):
        if name.startswith("mplparity") and getattr(module, "lincomb_to_dict", None) is original:
            monkeypatch.setattr(module, "lincomb_to_dict", counting)
    table = ("table", "--max-weight", "3", "--out", str(out_path),
             "--format", "json", "--cache", str(cache_dir))
    code, _ = run_cli(capsys, *table)
    assert code == 0
    assert len(calls) == 7  # one document per equation, shared by table and cache
    entries = json.loads(out_path.read_text())
    assert len(entries) == 7
    first = out_path.read_bytes()
    # each cache file holds exactly that equation's block of the table
    cache = EquationCache(cache_dir)
    blocks = [cache.entry(n, "compact").read_bytes() for n in all_indices(3)]
    assert first == b"[\n" + b",\n".join(blocks) + b"\n]\n"
    # warm-cache rerun must be byte-identical, and serves the documents it read
    calls.clear()
    code, _ = run_cli(capsys, *table)
    assert code == 0
    assert out_path.read_bytes() == first
    assert len(calls) == 0
    monkeypatch.undo()
    # cache hits deserialize to the same equations
    for n in [(1,), (1, 2), (2, 1), (1, 1, 1)]:
        got = cache.load(n, "compact")
        assert got is not None
        assert got.equation == ENGINE.pli_lincomb(n), n


def test_cache_roundtrip_weight_le_4(tmp_path):
    cache = EquationCache(tmp_path / "c")
    for n in all_indices(4):
        result = compute_pli(n, "compact", cache)
        again = cache.load(n, "compact")
        assert again is not None and again.equation == result.equation
    # canonical entries re-validate on load
    r = compute_pli((1, 2), "canonical", cache)
    again = cache.load((1, 2), "canonical")
    assert again is not None
    w = sum(r.index)
    assert all(validate_generator(g, 1, w) for g in again.equation.terms)


def test_cache_version_invalidation(tmp_path):
    cache = EquationCache(tmp_path / "c")
    compute_pli((1, 2), "compact", cache)
    entry = cache.entry((1, 2), "compact")
    stale = entry.with_name(entry.name.replace(__version__, "0.0.0", 1))
    assert stale != entry
    entry.rename(stale)
    assert cache.load((1, 2), "compact") is None
    # storing another entry must not bring the other version's one back
    compute_pli((2, 1), "compact", cache)
    assert cache.load((2, 1), "compact") is not None
    assert cache.load((1, 2), "compact") is None
    assert stale.exists()


def test_cache_rejects_entry_of_another_index(tmp_path):
    cache = EquationCache(tmp_path / "c")
    compute_pli((1, 2), "compact", cache)
    dst = cache.entry((2, 1), "compact")
    cache.entry((1, 2), "compact").rename(dst)
    assert cache.load((2, 1), "compact") is None
    result = compute_pli((2, 1), "compact", cache)
    assert result.equation == ENGINE.pli_lincomb((2, 1))
    assert json.loads(dst.read_text())["index"] == [2, 1]
    # an entry under the other form's name is a miss too
    compute_pli((1, 2), "compact", cache)
    cache.entry((1, 2), "compact").rename(cache.entry((1, 2), "canonical"))
    assert cache.load((1, 2), "canonical") is None


# a compact |n| = 3 document whose terms break the contract, are not the
# writer's encoding of an equation, or whose header does not match the
# equation it is stored for, in each way
CORRUPTIONS = {
    "non-integer coefficient": lambda doc: doc["terms"][0].update(coeff="1/2"),
    "wrong weight": lambda doc: doc["terms"].append(
        {"coeff": "1", "bers": [{"start": 1, "weight": 4}], "lis": []}),
    "depth d": lambda doc: doc["terms"].append({"coeff": "1", "bers": [], "lis": [{
        "indices": [1, 2],
        "args": [{"start": 1, "end": 1, "inverted": False},
                 {"start": 2, "end": 2, "inverted": False}]}]}),
    "header schema": lambda doc: doc.update(schema="mplparity/lincomb-v0"),
    "header weight": lambda doc: doc.update(weight=4),
    "header extra key": lambda doc: doc.update(note="edited"),
    "header no ambient": lambda doc: doc.pop("ambient"),
    "duplicate term": lambda doc: doc["terms"].append(doc["terms"][0]),
    "cancelling pair": lambda doc: doc["terms"].extend(
        [doc["terms"][0], dict(doc["terms"][0], coeff=str(-int(doc["terms"][0]["coeff"])))]),
    "zero coefficient": lambda doc: doc["terms"].append(dict(doc["terms"][1], coeff="0")),
    "coefficient spelling": lambda doc: doc["terms"][0].update(coeff="+" + doc["terms"][0]["coeff"]),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_cache_recomputes_entry_that_breaks_the_contract(tmp_path, capsys, corruption):
    table = ("table", "--max-weight", "3", "--format", "json")
    code, uncached = run_cli(capsys, *table)
    assert code == 0
    cache_dir = tmp_path / "c"
    code, _ = run_cli(capsys, *table, "--cache", str(cache_dir))
    cache = EquationCache(cache_dir)
    entry = cache.entry((1, 2), "compact")
    data = json.loads(entry.read_text())
    CORRUPTIONS[corruption](data)
    entry.write_text(json.dumps(data, indent=1))
    assert cache.load((1, 2), "compact") is None
    code, cached = run_cli(capsys, *table, "--cache", str(cache_dir))
    assert code == 0 and cached == uncached
    assert cache.load((1, 2), "compact").equation == ENGINE.pli_lincomb((1, 2))


# SHA-256 of the exact table output, unchanged since the seed
TABLE_SHA256 = {
    "canonical": "b3ca64a67467f5798a71512d4aa672d9e3eb428fc44fe716188c7b912ab3df6d",
    "compact": "992b4ebae694ff4264b68d901fd13d1264b03631a49058d2df51862655035a9a",
}


@pytest.mark.parametrize("form", sorted(TABLE_SHA256))
def test_table_weight_6_is_pinned(capsys, form):
    code, out = run_cli(capsys, "table", "--max-weight", "6", "--format", "json", "--form", form)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_SHA256[form]


# SHA-256 of the reduce output for every depth-3 index of weight <= 6 at
# (1/3, 1/4, 1/6), as the per-term product specialization printed it
REDUCE_SHA256 = "f978803a5db9c2d815d6a4b8487d42a4a2a9ad0f0cb31af3062cbcedbe3b1ce8"


def test_reduce_is_pinned(capsys):
    out = []
    for n in all_indices(6):
        if len(n) == 3:
            code, text = run_cli(capsys, "reduce", ",".join(map(str, n)),
                                 "--roots", "1/3,1/4,1/6", "--format", "json")
            assert code == 0
            out.append(text)
    assert len(out) == 20
    assert hashlib.sha256("".join(out).encode()).hexdigest() == REDUCE_SHA256


def test_bernoulli_command(capsys):
    code, out = run_cli(capsys, "bernoulli", "12")
    assert code == 0 and out.strip() == "-691/2730"
    code, out = run_cli(capsys, "bernoulli", "2", "--polynomial")
    assert "x^2" in out
