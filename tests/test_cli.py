import json

import pytest

import gfans.cli
from gfans import (
    InternalBandSearchFailure,
    NotCyclic,
    NotSkewSymmetrizable,
    NotTotallyInfinite,
    PairNotInfinite,
    SignCoherenceViolation,
    UnexpectedCyclicTriplet,
)
from gfans.cli import main
from conftest import MARKOV, WING


@pytest.fixture
def markov_file(tmp_path):
    path = tmp_path / "markov.json"
    path.write_text(json.dumps({"n": 3, "b": [list(r) for r in MARKOV]}))
    return str(path)


@pytest.fixture
def wing_file(tmp_path):
    path = tmp_path / "wing.json"
    path.write_text(json.dumps({"b": [list(r) for r in WING]}))
    return str(path)


def test_classify_text(wing_file, capsys):
    assert main(["classify", wing_file]) == 0
    out = capsys.readouterr().out
    assert "(3, 2, 1)" in out
    assert "case A" in out


def test_classify_json(markov_file, capsys):
    assert main(["classify", markov_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["triplet"] == ["4-1", "4-1", "4-1"]
    assert doc["case"] == "C-1"
    assert doc["markov_constant"] == 4
    assert doc["cluster_cyclic"] is True


def test_explore_writes_fan_document(markov_file, tmp_path, capsys):
    out = tmp_path / "fan.json"
    assert main(["explore", markov_file, "--depth", "2",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["depth"] == 2
    assert len(doc["cones"]) == 10
    err = capsys.readouterr().err
    assert "10 cones" in err


def test_explore_render_pipeline(markov_file, tmp_path):
    fan_path = tmp_path / "fan.json"
    svg_path = tmp_path / "fan.svg"
    assert main(["explore", markov_file, "--depth", "3",
                 "--out", str(fan_path)]) == 0
    assert main(["render", str(fan_path), "--out", str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.startswith("<?xml")
    assert 'class="cone"' in svg


def test_rank2_table(capsys):
    assert main(["rank2", "--a", "3", "--b", "2", "--steps", "5"]) == 0
    out = capsys.readouterr().out
    assert "(5, -12)" in out
    assert "(30, -19)" in out


def test_pair_json(wing_file, capsys):
    assert main(["pair", wing_file, "--i", "1", "--j", "2",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["v_decimal"][0] == 1.0


def test_verify_reports_all_checks(markov_file, capsys):
    assert main(["verify", markov_file, "--depth", "3"]) == 0
    out = capsys.readouterr().out
    for name in ("det_c", "det_g", "sign_coherence", "duality", "d_pairing"):
        assert f"{name}: ok" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["classify", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["classify", str(missing)]) == 2
    finite = tmp_path / "finite.json"
    finite.write_text(json.dumps({"b": [[0, -1, -2], [3, 0, -6], [2, 2, 0]]}))
    assert main(["classify", str(finite)]) == 2


def test_resource_cap_exit_code(markov_file, capsys):
    assert main(["explore", markov_file, "--depth", "9",
                 "--max-cones", "30"]) == 3


def test_corrupted_fan_document_rejected(markov_file, tmp_path):
    # a fan document with a non-unimodular cone is rejected at load
    fan_path = tmp_path / "fan.json"
    assert main(["explore", markov_file, "--depth", "1",
                 "--out", str(fan_path)]) == 0
    doc = json.loads(fan_path.read_text())
    doc["cones"][0]["g"] = [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
    fan_path.write_text(json.dumps(doc))
    assert main(["render", str(fan_path)]) == 2


def _raising(exc):
    def handler(args):
        raise exc
    return handler


@pytest.mark.parametrize("exc", [
    SignCoherenceViolation("mixed signs in c-vector 1"),
    InternalBandSearchFailure("no band within bound"),
    UnexpectedCyclicTriplet("unexpected cyclic triplet ('1', '2', '3')"),
])
def test_invariant_failures_exit_1(exc, markov_file, monkeypatch, capsys):
    monkeypatch.setattr(gfans.cli, "_cmd_classify", _raising(exc))
    assert main(["classify", markov_file]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {exc}\n"


@pytest.mark.parametrize("exc", [
    NotCyclic("not cyclic"),
    NotSkewSymmetrizable("conflicting cycle products"),
    NotTotallyInfinite("not totally infinite"),
    PairNotInfinite("pair is finite"),
])
def test_input_errors_exit_2(exc, markov_file, monkeypatch, capsys):
    monkeypatch.setattr(gfans.cli, "_cmd_classify", _raising(exc))
    assert main(["classify", markov_file]) == 2
    assert capsys.readouterr().err == f"error: {exc}\n"
