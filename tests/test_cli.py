import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gfans.cli
import gfans.quadratic
import gfans.render
import gfans.seeds
from fractions import Fraction

from gfans import (
    ExchangeMatrix,
    InternalBandSearchFailure,
    NotCyclic,
    NotSkewSymmetrizable,
    NotTotallyInfinite,
    PairNotInfinite,
    QuadraticNumber,
    QuadraticRay,
    SignCoherenceViolation,
    UnexpectedCyclicTriplet,
    g_sequence,
    is_cluster_cyclic,
    limit_rays,
    markov_constant,
    pair_asymptotics,
    vertex_type,
)
from gfans.cli import _json_text, _word_count, build_parser, main
from gfans.exchange import mutate_matrix
from gfans.rank3 import _TAG_LABEL
from gfans.seeds import Seed, apply_word, initial_seed, mutate_seed
from conftest import (A3, A4, B2_A1, C5, MARKOV, R4, TUNNEL, WING, frame,
                      swap_indices_12)
from test_exchange import skew_symmetrizable_matrices
from test_quadratic import assert_within_one_ulp, float_oracle


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
    # the table zips two walks; each row is the m-th entry read alone
    assert main(["rank2", "--a", "3", "--b", "2", "--steps", "200"]) == 0
    out = capsys.readouterr().out
    assert "(5, -12)" in out
    assert "(30, -19)" in out
    assert out.splitlines()[2:202] == [
        f"{m:<4} {str(g_sequence('forward', m, 3, 2)):<13} "
        f"{g_sequence('backward', m, 3, 2)}" for m in range(1, 201)]


def test_pair_json(wing_file, capsys):
    assert main(["pair", wing_file, "--i", "1", "--j", "2",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["v_decimal"][0] == 1.0


def test_verify_reports_all_checks(markov_file, capsys):
    assert main(["verify", markov_file, "--depth", "3"]) == 0
    out = capsys.readouterr().out
    for name in CHECKS:
        assert f"{name}: ok" in out


def test_verify_pauses_the_collector_and_enables_it_again(markov_file,
                                                         monkeypatch):
    states = []
    real = gfans.cli.verify_seed

    def recording(s):
        states.append(gc.isenabled())
        return real(s)

    monkeypatch.setattr(gfans.cli, "verify_seed", recording)
    gc.enable()
    try:
        code, _ = run_verify(markov_file, 3)
        assert gc.isenabled()
    finally:
        gc.enable()
    assert code == 0
    # the initial seed is checked before the walk, the 21 others in it
    assert states == [True] + [False] * 21


def test_explore_cap_leaves_the_collector_enabled(tmp_path, capsys):
    path = write_matrix(tmp_path / "tunnel.json", TUNNEL)
    gc.enable()
    try:
        assert main(["explore", str(path), "--depth", "8",
                     "--max-cones", "700"]) == 3
        assert gc.isenabled()
    finally:
        gc.enable()
    assert capsys.readouterr().err.startswith("resource cap:")


# -- verify: the state walk against the word walk it replaced ---------------

CHECKS = ("det_c", "det_g", "sign_coherence", "duality", "d_pairing",
          "involution")


def verify_every_word(B, depth, seed=0):
    """Reference `verify`: expand every mutation word and check its seed
    each time, reporting every failing word.  Returns (exit code, stdout)."""
    rng = random.Random(seed)
    lines = [f"seed: {seed}"]
    failures = []
    s0 = initial_seed(B)
    for name, ok in gfans.cli.verify_seed(s0).items():
        if not ok:
            failures.append(f"initial seed: {name}")
    words = 1
    level = [s0]
    for _ in range(depth):
        nxt = []
        for s in level:
            last = s.word[-1] if s.word else 0
            for k in range(1, B.n + 1):
                if k == last:
                    continue
                child = mutate_seed(s, k)
                words += 1
                for name, ok in gfans.cli.verify_seed(child).items():
                    if not ok:
                        failures.append(f"word {child.word}: {name}")
                nxt.append(child)
        level = nxt
    for _ in range(10):
        word = [rng.randrange(1, B.n + 1) for _ in range(depth)]
        s = apply_word(s0, word + word[::-1])
        if (s.b.entries, s.c, s.g) != (s0.b.entries, s0.c, s0.g):
            failures.append(
                f"word {word} is not undone by its reverse: involution")
    for name in CHECKS:
        lines.append(f"{name}: "
                     f"{'FAIL' if any(name in f for f in failures) else 'ok'}")
    lines.append(f"verified {words} seeds to depth {depth}")
    lines += [f"failure: {f}" for f in failures[:20]]
    return int(bool(failures)), "".join(line + "\n" for line in lines)


def run_verify(path, depth, seed=0):
    """(exit code, stdout) of `gfans verify`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", str(path), "--depth", str(depth),
                     "--seed", str(seed)])
    return code, out.getvalue()


def write_matrix(path, entries):
    path.write_text(json.dumps({"b": [list(r) for r in entries]}))
    return path


@settings(max_examples=60, deadline=None)
@given(skew_symmetrizable_matrices, st.integers(0, 6), st.integers(0, 99))
def test_verify_matches_the_word_walk(tmp_path_factory, B, depth, seed):
    path = write_matrix(tmp_path_factory.mktemp("verify") / "m.json",
                        B.entries)
    assert run_verify(path, depth, seed) == verify_every_word(B, depth, seed)


@st.composite
def totally_infinite_rank3(draw):
    """B = A D with A skew-symmetric and |b_ij b_ji| = a_ij^2 d_i d_j >= 4.
    Half are cyclic (b_12, b_23, b_31 of one sign), with C(B) on both
    sides of 4; the other half have random signs."""
    d = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
    cyclic = draw(st.booleans())
    orient = draw(st.sampled_from((1, -1)))
    b = [[0] * 3 for _ in range(3)]
    for i, j, cyclic_sign in ((0, 1, 1), (1, 2, 1), (0, 2, -1)):
        sign = orient * cyclic_sign if cyclic else \
            draw(st.sampled_from((1, -1)))
        a = sign * draw(st.integers(1, 4))
        assume(a * a * d[i] * d[j] >= 4)
        b[i][j], b[j][i] = a * d[j], -a * d[i]
    return b


@settings(max_examples=150, deadline=None)
@given(totally_infinite_rank3())
@example(list(map(list, MARKOV)))  # cyclic, C(B) = 4: cluster-cyclic
@example(list(map(list, WING)))
@example([[0, 2, 2], [-2, 0, 2], [-2, -2, 0]])  # acyclic
@example([[0, 3, -3], [-3, 0, 3], [3, -3, 0]])  # cyclic, C(B) = 0
@example([[0, 2, -3], [-2, 0, 2], [3, -2, 0]])  # cyclic, C(B) = 5
def test_classify_markov_constant_matches_the_oracle(tmp_path_factory, b):
    B = ExchangeMatrix(b)
    try:
        constant, cyclic = markov_constant(B), is_cluster_cyclic(B)
    except NotCyclic:
        constant, cyclic = None, False
    folder = tmp_path_factory.mktemp("classify")
    out = folder / "out.json"
    code = main(["classify", str(write_matrix(folder / "m.json", b)),
                 "--format", "json", "--out", str(out)])
    if code == 1:  # a band search that reaches its bound
        return
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["markov_constant"] == constant
    assert doc["cluster_cyclic"] == cyclic


def test_verify_checks_each_distinct_seed_once(tmp_path, monkeypatch):
    # A3 has 14 clusters; to depth 8 its 766 words reach 83 labelled seeds
    calls = []
    real = gfans.cli.verify_seed

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(gfans.cli, "verify_seed", counting)
    code, out = run_verify(write_matrix(tmp_path / "a3.json", A3), 8)
    assert code == 0
    assert "verified 766 seeds to depth 8\n" in out
    assert len(calls) == 83
    assert len({(s.b.entries, s.c, s.g) for s in calls}) == 83


def test_verify_expands_each_distinct_seed_once(tmp_path, monkeypatch):
    # 3 children of the initial seed, 2 of each other seed expanded (at
    # most the 82 others), and the ten replays of words of length 2 * 8
    calls = []

    def counted(s, k):
        calls.append(k)
        return mutate_seed(s, k)

    monkeypatch.setattr(gfans.seeds, "mutate_seed", counted)
    code, out = run_verify(write_matrix(tmp_path / "a3.json", A3), 8)
    assert code == 0
    assert "verified 766 seeds to depth 8\n" in out
    assert len(calls) <= 3 + 2 * (83 - 1) + 10 * 2 * 8


@pytest.mark.parametrize("B, depth, built", [(A3, 8, 237), (TUNNEL, 7, 329)])
def test_verify_builds_b_only_for_the_seeds_it_expands(B, depth, built,
                                                      tmp_path, monkeypatch):
    # keyed on (C, G), which fixes B, verify builds the B of each distinct
    # seed it expands, at word lengths 1..depth-1, and one B per letter of
    # each of the ten replays of w w^-1, the last for the comparison
    s0 = initial_seed(ExchangeMatrix(B))
    level, expanded = [s0], set()
    for _ in range(depth - 1):
        level = [mutate_seed(s, k) for s in level
                 for k in range(1, s.n + 1) if k not in s.word[-1:]]
        expanded |= {(s.c, s.g) for s in level}
    expanded.discard((s0.c, s0.g))
    calls = []

    def counted(b, k):
        calls.append(k)
        return mutate_matrix(b, k)

    monkeypatch.setattr(gfans.seeds, "mutate_matrix", counted)
    code, _ = run_verify(write_matrix(tmp_path / "m.json", B), depth)
    assert code == 0
    assert len(calls) == built == len(expanded) + 10 * 2 * depth


def test_verify_refuses_a_depth_whose_count_it_cannot_print(
        tmp_path, monkeypatch, capsys):
    # 1 + 3 * (2^15000 - 1) has more digits than Python prints by default;
    # 1 + 3 * (2^1000000 - 1) is refused before it is built
    def refuse(s):
        raise AssertionError("a seed was checked")

    monkeypatch.setattr(gfans.cli, "verify_seed", refuse)
    path = write_matrix(tmp_path / "a3.json", A3)
    for depth in (15000, 1000000):
        start = time.perf_counter()
        assert main(["verify", str(path), "--depth", str(depth)]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --depth {depth} is too deep to print its count of "
            f"words (more than {sys.get_int_max_str_digits()} digits)\n")


def test_word_count_is_the_sum_of_its_terms():
    for n in range(1, 5):
        for depth in range(13):
            assert _word_count(n, depth) == 1 + sum(
                n * (n - 1) ** k for k in range(depth))


def test_verify_refuses_a_count_one_digit_past_the_limit(
        tmp_path, monkeypatch, capsys, int_digits_640):
    # at depth 2125 the log10 precheck passes (2124 * log10 2 ~ 639.4 <=
    # 641), and only printing 1 + 3 * (2^2125 - 1), 641 digits, fails
    def refuse(s):
        raise AssertionError("a seed was checked")

    monkeypatch.setattr(gfans.cli, "verify_seed", refuse)
    path = write_matrix(tmp_path / "a3.json", A3)
    assert main(["verify", str(path), "--depth", "2125"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --depth 2125 is too deep to print its count of words "
        "(more than 640 digits)\n")


@pytest.fixture
def int_digits_640():
    """Python's int-to-str limit lowered to its least, 640 digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


def test_explore_refuses_a_fan_it_cannot_print_before_writing(
        tmp_path, capsys, int_digits_640):
    # Tunnel's entries reach 800 digits at depth 11; the --out file used
    # to be cut down to the document's head before the error
    path = write_matrix(tmp_path / "tunnel.json", TUNNEL)
    kept = tmp_path / "kept.json"
    kept.write_bytes(b"kept\n")
    missing = tmp_path / "new.json"
    for out in (["--out", str(kept)], ["--out", str(missing)], []):
        assert main(["explore", str(path), "--depth", "11", *out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: depth 11 is too deep to write its fan document "
            "(an entry has more than 640 digits)\n")
    assert kept.read_bytes() == b"kept\n"
    assert not missing.exists()


def test_failing_seed_is_reported_once_under_its_shortest_word(
        tmp_path, monkeypatch):
    # on A3, b_13 = 0: the words (1, 3), (3, 1) reach one seed, and
    # (1, 3, 1, 3) returns to the initial seed
    B = ExchangeMatrix(A3)
    s0 = initial_seed(B)
    bad = {(s.b.entries, s.c, s.g) for s in (s0, apply_word(s0, (1, 3)))}
    real = gfans.cli.verify_seed

    def failing(s):
        report = real(s)
        if (s.b.entries, s.c, s.g) in bad:
            report["duality"] = False
        return report

    monkeypatch.setattr(gfans.cli, "verify_seed", failing)
    code, out = run_verify(write_matrix(tmp_path / "a3.json", A3), 4)
    want_code, want_out = verify_every_word(B, 4)
    assert code == want_code == 1
    failures = [line for line in out.splitlines()
                if line.startswith("failure: ")]
    assert failures == ["failure: initial seed: duality",
                        "failure: word (1, 3): duality"]
    # the word walk reports every word reaching them, the first one first
    every = [line for line in want_out.splitlines()
             if line.startswith("failure: ")]
    assert every[:2] == failures and len(every) > 2
    assert out.splitlines()[:7] == want_out.splitlines()[:7]


def test_verify_replay_compares_the_whole_seed(markov_file, monkeypatch,
                                              capsys):
    # corrupt one g entry only past the walk's depth, where the replays
    # of w w^-1 alone go: B comes back, G does not
    depth = 2

    def corrupting(s, k):
        child = mutate_seed(s, k)
        if len(child.word) <= depth:
            return child
        g = ((child.g[0][0] + 1,) + child.g[0][1:],) + child.g[1:]
        return Seed(child.b, child.c, g, child.word)

    monkeypatch.setattr(gfans.seeds, "mutate_seed", corrupting)
    assert main(["verify", markov_file, "--depth", str(depth)]) == 1
    out = capsys.readouterr().out
    assert "verified 10 seeds to depth 2" in out
    lines = out.splitlines()
    assert "involution: FAIL" in lines
    for name in CHECKS[:-1]:
        assert f"{name}: ok" in lines
    assert any(line.startswith("failure: word [")
               and line.endswith("is not undone by its reverse: involution")
               for line in lines)


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["classify", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["classify", str(missing)]) == 2
    finite = tmp_path / "finite.json"
    finite.write_text(json.dumps({"b": [[0, -1, -2], [3, 0, -6], [2, 2, 0]]}))
    assert main(["classify", str(finite)]) == 2
    # the fan type is defined at rank 3 only
    for rows in ([[0, -2], [3, 0]],
                 [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]):
        other = tmp_path / f"rank{len(rows)}.json"
        other.write_text(json.dumps({"b": rows}))
        capsys.readouterr()
        assert main(["classify", str(other)]) == 2
        assert "rank 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pair", "--i", "1", "--j", "2"],
    ["pair", "--i", "1", "--j", "2", "--format", "json"],
    ["classify"],
    ["rank2", "--a", str(2 ** 1100), "--b", "1"],
])
def test_a_decimal_past_the_float_range_exits_2(argv, tmp_path, capsys):
    # b_12 = -2^600 puts limit-ray coordinates near 2^600, whose decimals
    # (and the rank-2 slope for a = 2^1100) no float holds
    path = write_matrix(tmp_path / "big.json",
                        [[0, -2 ** 600, 5], [2 ** 600, 0, -3], [-5, 3, 0]])
    if argv[0] != "rank2":
        argv = argv[:1] + [str(path)] + argv[1:]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: a limit-ray decimal exceeds the float range (about 1.8e308); "
        "`classify --format json` prints it exactly\n")
    # the exact document prints no decimals
    assert main(["classify", str(path), "--format", "json"]) == 0


def test_resource_cap_exit_code(markov_file, capsys):
    assert main(["explore", markov_file, "--depth", "9",
                 "--max-cones", "30"]) == 3


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cone_cap_below_one_exits_2(cap, markov_file, capsys):
    assert main(["explore", markov_file, "--max-cones", cap]) == 2
    assert capsys.readouterr().err == "error: max_cones must be >= 1\n"


def test_rank2_rejects_negative_steps(capsys):
    assert main(["rank2", "--a", "2", "--b", "2", "--steps", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: steps must be >= 0\n"


@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
def test_render_rejects_a_non_finite_arc_resolution(x, markov_file, tmp_path,
                                                    capsys):
    fan_path = tmp_path / "fan.json"
    assert main(["explore", markov_file, "--depth", "1",
                 "--out", str(fan_path)]) == 0
    capsys.readouterr()
    assert main(["render", str(fan_path), f"--arc-resolution={x}"]) == 2
    assert capsys.readouterr().err == \
        "error: arc_resolution must be a positive finite number\n"


def test_render_refuses_a_resolution_past_the_floor(markov_file, tmp_path,
                                                   monkeypatch, capsys):
    # 1e-9 degrees would be 360,000,000,000 samples per guide circle; the
    # samplers fail at once if reached, so the loop is never started
    fan_path = tmp_path / "fan.json"
    assert main(["explore", markov_file, "--depth", "1",
                 "--out", str(fan_path)]) == 0
    capsys.readouterr()

    def refuse(*args):
        raise AssertionError("sampled at a refused resolution")

    monkeypatch.setattr(gfans.render, "arc_polyline", refuse)
    monkeypatch.setattr(gfans.render, "_guide_circle", refuse)
    out = tmp_path / "fan.svg"
    start = time.perf_counter()
    assert main(["render", str(fan_path), "--arc-resolution", "1e-9",
                 "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: arc_resolution must be at least 0.01 degrees\n")
    assert not out.exists()


@pytest.mark.parametrize("x", ["1e-9", "nan"])
def test_render_refuses_its_options_before_reading_the_document(
        x, tmp_path, monkeypatch, capsys):
    # the refused option once cost a full load and check of the document
    # (51.7 ms on Tunnel at depth 8); now the document is never opened,
    # so a bad option is reported even ahead of a missing document
    def refuse(path):
        raise AssertionError("read the fan document")

    monkeypatch.setattr(gfans.cli, "load_fan_file", refuse)
    assert main(["render", str(tmp_path / "missing.json"),
                 f"--arc-resolution={x}"]) == 2
    captured = capsys.readouterr()
    floor = "at least 0.01 degrees" if x == "1e-9" else \
        "a positive finite number"
    assert (captured.out, captured.err) == (
        "", f"error: arc_resolution must be {floor}\n")


def test_corrupted_fan_document_rejected(markov_file, tmp_path):
    # a fan document with a non-unimodular cone is rejected at load
    fan_path = tmp_path / "fan.json"
    assert main(["explore", markov_file, "--depth", "1",
                 "--out", str(fan_path)]) == 0
    doc = json.loads(fan_path.read_text())
    doc["cones"][0]["g"] = [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
    fan_path.write_text(json.dumps(doc))
    assert main(["render", str(fan_path)]) == 2


def test_fan_document_with_swapped_c_vectors_rejected(wing_file, tmp_path,
                                                      capsys):
    # unimodular rays, but c-vectors no longer D-dual to them (D != I)
    fan_path = tmp_path / "fan.json"
    assert main(["explore", wing_file, "--depth", "1",
                 "--out", str(fan_path)]) == 0
    doc = json.loads(fan_path.read_text())
    c = doc["cones"][1]["c"]
    c[0], c[1] = c[1], c[0]
    fan_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["render", str(fan_path)]) == 2
    assert "not dual" in capsys.readouterr().err


def test_verify_rejects_negative_depth(markov_file, capsys):
    assert main(["verify", markov_file, "--depth", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: depth must be >= 0\n"


def _set(path, value):
    """Document edit: the entry at `path` (keys and indices) becomes value."""
    def edit(doc):
        target = doc
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        return doc
    return edit


def _drop(path):
    """Document edit: the entry at `path` (keys and indices) is removed."""
    def edit(doc):
        target = doc
        for step in path[:-1]:
            target = target[step]
        del target[path[-1]]
        return doc
    return edit


def _edge(keys):
    """Document edit: the first adjacency edge becomes keys(edge)."""
    def edit(doc):
        doc["adjacency"][0] = keys(doc["adjacency"][0])
        return doc
    return edit


@pytest.mark.parametrize("command, edit, message", [
    ("classify", _set(("b", 0, 1), -2.9), None),
    ("classify", _set(("b", 0, 0), "0"), None),
    ("classify", _set(("b", 0, 0), False), None),
    ("classify", lambda doc: [], None),
    ("classify", _set(("b",), 5), None),
    ("classify", _set(("n",), 3.0), None),
    ("render", _set(("cones", 0, "g"), 5), None),
    ("render", lambda doc: [], None),
    ("render", _set(("cones", 0, "word"), [1.7]), None),
    ("render", _set(("adjacency", 0, 0, 0, 0), 1.2), None),
    ("render", _set(("depth",), 1.5), None),
    ("render", _set(("cones", 1, "word"), [4]), None),
    ("render", _set(("cones", 1, "word"), [1, 2, 3]), None),
    ("render", _set(("depth",), -4), None),
    ("render", _set(("adjacency", 0, 1, 0, 0), 9), None),
    ("render", lambda doc: {**doc, "cones": doc["cones"] + doc["cones"][:1]},
     None),
    ("render", _edge(lambda edge: [edge[0], edge[0]]), None),
    ("render", _edge(lambda edge: edge[:1]), None),
    ("render", _edge(lambda edge: edge * 2), None),
    # a missing field is named with the kind of document that lacks it
    ("classify", _drop(("b",)), 'matrix has no "b" field'),
    ("render", _drop(("source",)), 'fan document has no "source" field'),
    ("render", _drop(("source", "b")), 'matrix has no "b" field'),
    ("render", _drop(("depth",)), 'fan document has no "depth" field'),
    ("render", _drop(("cones",)), 'fan document has no "cones" field'),
    ("render", _drop(("cones", 0, "g")), 'cone has no "g" field'),
    ("render", _drop(("cones", 0, "c")), 'cone has no "c" field'),
    ("render", _drop(("cones", 1, "key")), 'cone has no "key" field'),
    ("render", _drop(("cones", 1, "word")), 'cone has no "word" field'),
    ("render", _drop(("adjacency",)),
     'fan document has no "adjacency" field'),
    # the format is the int 1, as every other field refuses a bool or float
    ("render", _set(("format",), True),
     "unsupported fan document format True"),
    ("render", _set(("format",), 1.0), "unsupported fan document format 1.0"),
], ids=["float entry", "string entry", "bool entry", "matrix list",
        "matrix number", "float rank", "cone g number", "fan list",
        "float word", "float adjacency entry", "float depth",
        "word letter above n", "word longer than depth", "negative depth",
        "edge to a missing key", "duplicate cone key",
        "self-adjacent edge (once written back as a one-key edge)",
        "one-key edge", "four-key edge", "matrix without b",
        "fan without source", "source without b", "fan without depth",
        "fan without cones", "cone without g", "cone without c",
        "cone without key", "cone without word", "fan without adjacency",
        "bool format", "float format"])
def test_malformed_documents_exit_2(command, edit, message, markov_file,
                                    tmp_path, capsys):
    if command == "classify":
        doc = {"b": [list(r) for r in MARKOV]}
    else:
        fan_path = tmp_path / "fan.json"
        assert main(["explore", markov_file, "--depth", "2",
                     "--out", str(fan_path)]) == 0
        doc = json.loads(fan_path.read_text())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(doc)))
    capsys.readouterr()
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if message is not None:
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", [
    ["classify", "{dir}"],
    ["explore", "{dir}", "--depth", "1"],
    ["render", "{dir}"],
    ["explore", "{matrix}", "--depth", "1", "--out", "{dir}"],
], ids=["classify input", "explore input", "render input", "explore output"])
def test_a_directory_path_exits_2(command, markov_file, tmp_path, capsys):
    argv = [a.format(dir=tmp_path, matrix=markov_file) for a in command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Is a directory" in err


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


# -- one parser per process --------------------------------------------------

@pytest.fixture
def fresh_parser():
    """main() as in a new process: its parser is not built yet."""
    gfans.cli._parser.cache_clear()
    yield
    gfans.cli._parser.cache_clear()


def test_main_builds_the_parser_once(fresh_parser, markov_file, tmp_path,
                                     monkeypatch, capsys):
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(gfans.cli, "build_parser", counting)
    assert main(["rank2", "--a", "2", "--b", "2", "--steps", "1"]) == 0
    assert len(built) == 1

    def no_construction(*args, **kwargs):
        raise AssertionError("argparse construction after the first call")

    for name in ("__init__", "add_argument", "add_subparsers"):
        monkeypatch.setattr(argparse.ArgumentParser, name, no_construction)
    for argv in (["classify", markov_file],
                 ["classify", markov_file, "--format", "json"],
                 ["explore", markov_file, "--depth", "1"],
                 ["pair", markov_file, "--i", "1", "--j", "2"],
                 ["verify", markov_file, "--depth", "1"]):
        assert main(argv) == 0
    assert main(["classify", str(tmp_path / "missing.json")]) == 2
    with pytest.raises(SystemExit):
        main(["classify", markov_file, "--format", "yaml"])
    assert len(built) == 1


def test_a_handler_replaced_after_the_first_call_runs(markov_file,
                                                      monkeypatch, capsys):
    assert main(["classify", markov_file]) == 0  # the parser is built
    seen = []

    def handler(args):
        seen.append((args.matrix, args.format))
        return 0

    monkeypatch.setattr(gfans.cli, "_cmd_classify", handler)
    assert main(["classify", markov_file, "--format", "json"]) == 0
    assert seen == [(markov_file, "json")]
    assert capsys.readouterr().out.startswith("type of fan:")


def test_no_argument_leaks_into_the_next_call(markov_file, tmp_path, capsys):
    out = tmp_path / "classify.json"
    assert main(["classify", markov_file, "--format", "json",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["case"] == "C-1"
    assert main(["classify", markov_file]) == 0
    text = capsys.readouterr().out
    assert text.startswith("type of fan: (4-1, 4-1, 4-1)   case C-1\n")
    with contextlib.redirect_stdout(io.StringIO()) as fresh:
        assert gfans.cli._cmd_classify(build_parser().parse_args(
            ["classify", markov_file])) == 0
    assert text == fresh.getvalue()


def _exit_output(parse, argv):
    """(exit code, stdout, stderr) of a parse that exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["explore", "--help"],
    ["render", "-h"],
    [],
    ["frobnicate", "m.json"],
    ["classify"],
    ["explore", "m.json", "--depth", "two"],
    ["rank2", "--a", "2"],
], ids=["help", "explore help", "render help", "no command",
        "unknown command", "missing matrix", "bad depth", "missing --b"])
def test_help_and_usage_errors_match_a_fresh_parser(fresh_parser, argv):
    want = _exit_output(build_parser().parse_args, argv)
    assert want[0] in (0, 2)
    # the first call builds the cached parser, the second reuses it
    assert _exit_output(main, argv) == want
    assert _exit_output(main, argv) == want


# -- output paths ------------------------------------------------------------

def _open_error(path) -> str:
    """The message open(path, "w") raises; `path` must be unopenable."""
    with pytest.raises(OSError) as exc:
        open(path, "w")
    return str(exc.value)


@pytest.fixture
def no_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work done before --out was checked")

    for name in ("explore", "render_svg", "fan_type"):
        monkeypatch.setattr(gfans.cli, name, refuse)


@pytest.mark.parametrize("command", [
    ["explore", "{matrix}", "--depth", "1"],
    ["render", "{fan}"],
    ["classify", "{matrix}"],
], ids=["explore", "render", "classify"])
@pytest.mark.parametrize("out", ["{dir}", "{dir}/missing/out",
                                 "{file}/out"],
                         ids=["directory", "missing directory",
                              "under a file"])
def test_a_bad_out_is_refused_before_the_work(command, out, markov_file,
                                              tmp_path, no_work, capsys):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept")
    (tmp_path / "fan.json").write_text("{}")
    names = dict(matrix=markov_file, fan=tmp_path / "fan.json",
                 dir=tmp_path / "dir", file=tmp_path / "file")
    out = out.format(**names)
    before = sorted(tmp_path.rglob("*"))
    argv = [a.format(**names) for a in command] + ["--out", out]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {_open_error(out)}\n"
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "file").read_text() == "kept"


@pytest.mark.parametrize("command", [
    ["classify", "{matrix}", "--format", "json"],
    ["explore", "{matrix}", "--depth", "1"],
    ["render", "{fan}"],
    ["rank2", "--a", "3", "--b", "2"],
    ["pair", "{matrix}", "--i", "1", "--j", "2", "--format", "json"],
], ids=["classify", "explore", "render", "rank2", "pair"])
def test_an_empty_out_is_refused(command, markov_file, tmp_path, no_work,
                                 capsys):
    # an empty path used to read as no --out, and the output went to stdout
    (tmp_path / "fan.json").write_text("{}")
    argv = [a.format(matrix=markov_file, fan=tmp_path / "fan.json")
            for a in command]
    assert main(argv + ["--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {_open_error('')}\n"


def test_a_valid_out_is_not_truncated_by_a_failing_command(tmp_path, capsys):
    out = tmp_path / "fan.svg"
    out.write_text("kept")
    assert main(["render", str(tmp_path / "missing.json"),
                 "--out", str(out)]) == 2
    assert out.read_text() == "kept"


# -- golden outputs ----------------------------------------------------------

GOLDEN_MATRICES = {
    "WING": WING,
    "MARKOV": MARKOV,
    "C5": C5,
    "T42": frame(-100, 159).entries,  # v3 of type 4-2, band 3
    # -WING: indices 1 and 2 are swapped, and D = (3, 2, 6) is swapped too
    "NEG_WING": tuple(tuple(-x for x in row) for row in WING),
    "NEG_C5": ((0, 2, -7), (-3, 0, 3), (7, -2, 0)),  # swap and band search
    # ab = 4: v3 of type 4-2, band 3, on its lower bound
    "AB4_EQUALITY": frame(-2, 5, a=1, b=4).entries,
    "TUNNEL": TUNNEL,
    # controls of finite type, rank 2 and rank 4, whose pairs have no
    # limit rays; R4's walks meet both signs of eps and zero b_kj
    "A3": A3,
    "A4": A4,
    "R2": ((0, -1), (4, 0)),
    "B2_A1": B2_A1,
    "R4": R4,
    # rank 4 with ab = 9 at the pair (1, 2), which is swapped; rows 3 and 4
    # are of types 4-1 and 2, so v' has a zero and an integer component
    "R4_INFINITE": ((0, 3, -1, 2), (-3, 0, 2, -1), (1, -2, 0, 2),
                    (-2, 1, -2, 0)),
}
CONTROLS = ("A3", "A4", "R2", "B2_A1", "R4")

# SHA-256 of the full stdout of each command on each matrix, in sorted
# order up to WING; later pins go at the end, so that the ids of the
# tests below stay as they are.  A command with no matrix has name None.
GOLDEN_STDOUT = {
    ("C5", ("classify",)):
        "ed19f4b69ff6564eab40fc17b2b71575e1c62c9eec8d8b5ec05d731db37a998a",
    ("C5", ("classify", "--format", "json")):
        "3b2c8760982ebe45d51b4b1706a31a6cba2e3ad09c2aaf8ee5a7d822b842938a",
    ("C5", ("pair", "--i", "1", "--j", "2")):
        "ca626f029f12a59d7f2969942c24c4c7acbec61a1f19515bc96451b29caf4d4c",
    ("C5", ("pair", "--i", "1", "--j", "2", "--format", "json")):
        "d284a6a4fee9c11779f6643d651a218f91f63b873bad1f9fd51c6773f3d8d759",
    ("C5", ("pair", "--i", "3", "--j", "2")):
        "0071b2cd943775c8d1c7f9965e54344db2b92b95dbf8ac032d0f8cf1aa91fe67",
    ("C5", ("pair", "--i", "3", "--j", "2", "--format", "json")):
        "b979b99cac30c87b74377837072e1b8fb09cc2b8b491d23687565584dbbd0371",
    ("MARKOV", ("classify",)):
        "97a4c7be9dd783fb87abd231e61c2b8d92381146c111c8b555743b34c2fc1666",
    ("MARKOV", ("classify", "--format", "json")):
        "ae15b518a30907a54aa1f5ace31b1dba7433ef9e10d88c15ff07bbb36c34e6f7",
    ("MARKOV", ("pair", "--i", "1", "--j", "2")):
        "23c38e52e2f7ddb83e51981cf6e819389728cb0a6a8d4cc8a90108aab82025e2",
    ("MARKOV", ("pair", "--i", "1", "--j", "2", "--format", "json")):
        "9ce654ff6d88b0cbe0abe3c84c40d2d72570772203feb1109665eaddc8ea97d4",
    ("MARKOV", ("pair", "--i", "3", "--j", "2")):
        "e05fcaf667572cbe556cf565263a7b4d882ff91a02f596d109f0f91aec28e62c",
    ("MARKOV", ("pair", "--i", "3", "--j", "2", "--format", "json")):
        "acd07cec6e1823ab55f93b77953dfe375a09931c831edf6e5e7be3ca5b849534",
    ("T42", ("classify",)):
        "a32fe5998a4e7a1a59bc84632cd9f7142a19fd5ca907244a9281c5aeb66537ec",
    ("T42", ("classify", "--format", "json")):
        "390a92309bfe9c1982b810298254f6c2fdb2729a196da4f45c6b307375a94ac0",
    ("T42", ("pair", "--i", "1", "--j", "2")):
        "ddc16a8f93f66dabb540cd9c0943ab8e9ef9521a1c3334dcedb3812fcc83e46b",
    ("T42", ("pair", "--i", "1", "--j", "2", "--format", "json")):
        "94c778d032b7f3f0103f7136533fb344dd2a3aa2c2e00575801630ff99f9d93a",
    ("T42", ("pair", "--i", "3", "--j", "2")):
        "a999805959ee47f97dc79929d87853bd6058a1dce492653d6965c5ae4826e8dd",
    ("T42", ("pair", "--i", "3", "--j", "2", "--format", "json")):
        "ed95fdfb1a31677d452db7e21636da7045a09ffc54705adb47127a4629079157",
    ("WING", ("classify",)):
        "dc22fe1dfa0e40ec5dc5c68df55bbf8b53eef4dca37b9b8e10b0e0596243befe",
    ("WING", ("classify", "--format", "json")):
        "c5a087afd7fbb492225ca2da0e8b895184732ddf484f943c7e4da9367396e11b",
    ("WING", ("pair", "--i", "1", "--j", "2")):
        "ddc16a8f93f66dabb540cd9c0943ab8e9ef9521a1c3334dcedb3812fcc83e46b",
    ("WING", ("pair", "--i", "1", "--j", "2", "--format", "json")):
        "94c778d032b7f3f0103f7136533fb344dd2a3aa2c2e00575801630ff99f9d93a",
    ("WING", ("pair", "--i", "3", "--j", "2")):
        "deba850a9033efe8bb8dc6a54994515c37e7c2a1079f796a3712292e70ed83eb",
    ("WING", ("pair", "--i", "3", "--j", "2", "--format", "json")):
        "2bbd90791d1da79edf6912993592d2bb610136473dfc563339bea512e2f763b0",
    ("NEG_WING", ("classify",)):
        "e3122029291e18257ddbb8556da8091402788a144cf10e5540c25b3bcb4a9570",
    ("NEG_WING", ("classify", "--format", "json")):
        "04094a2e8136c38b00499de6ff38b4963e1999ae6b3f6a2c1d342e0649942c42",
    ("NEG_C5", ("classify",)):
        "74ea78b020ee41db8806e4875b08c8e3d9d2b5cb247418634b8ad9358468f9e9",
    ("NEG_C5", ("classify", "--format", "json")):
        "a4b63b342ed2fecdc788c350c8e7d07e3e13d0c2ad87fdf223c89ecaa08759df",
    ("AB4_EQUALITY", ("classify",)):
        "bf74b3a8424f332f537cd268750d5ce6dafbe3467f29b2d2b6cb85ec660ca669",
    ("AB4_EQUALITY", ("classify", "--format", "json")):
        "28d0828c165037e0552309a879105af0108bb47400acd6ee0a6fa52e24f320e3",
    # the JSON reports of the input whose classify calls the benchmark
    # times, recorded from json.dumps(indent=2)
    ("TUNNEL", ("classify", "--format", "json")):
        "992ebe0bc6b54b985a73fdb4a340a4f44fad2d747f856fcbb66e78a0d0d09a2b",
    ("TUNNEL", ("pair", "--i", "1", "--j", "2", "--format", "json")):
        "8e19570f6320002c986bbf479f998e94843548c002577f5c1db3c872baca2343",
    # one pairing C^T D G = D decides det_c, det_g, duality and d_pairing;
    # ranks 2 and 4 take the generic loops, and B2 x A1 and WING have
    # D != I
    ("TUNNEL", ("verify", "--depth", "7")):
        "8eae5bcc0edfd9d32a8cd3115c33db6558d17df435ec75aad5c6f08e0b3c5855",
    ("A3", ("verify", "--depth", "8")):
        "8211cd1d747c02267cc0b0f0ab994e68c54d6f1ee5ad348cb40c5cb72d299847",
    ("A4", ("verify", "--depth", "5")):
        "574a1376519ecedf8ee43c3d872f6c52616c627b6df00b5a171345a3a1a1eec8",
    ("R2", ("verify", "--depth", "8")):
        "aa1ed95d3c321cc32a8c27548b04a32488f1876fe61796076339320a4e10b6e4",
    ("B2_A1", ("verify", "--depth", "8")):
        "8211cd1d747c02267cc0b0f0ab994e68c54d6f1ee5ad348cb40c5cb72d299847",
    ("WING", ("verify", "--depth", "6")):
        "72bb0c2d650ddf3977f2377ce505ad017d45c9be75407923b0fd6b9fa3d601ca",
    (None, ("rank2", "--a", "3", "--b", "2", "--steps", "4000")):
        "32e85fd34e1fbd414001cb44b53a740321a0ad824e005d6bc826248f3e75828c",
    (None, ("rank2", "--a", "3", "--b", "2", "--steps", "60")):
        "11958ea51f76d826e49103b05aa1e8545f06bc462c26331dfd7e83b0fe809860",
    # every path the limit-ray printer takes: ab = 4 folds every component
    # (and has a third row), rank 2, and rank 4 with ab = 9
    ("AB4_EQUALITY", ("pair", "--i", "1", "--j", "2")):
        "96cc80441273af40659353b87d84b842d3dae9d4fc0ea9590f9f39f779d1dd0a",
    ("AB4_EQUALITY", ("pair", "--i", "1", "--j", "2", "--format", "json")):
        "49738a9b48a169f2e650b0776997950523ec2960672371518fcc0497a548f8ec",
    ("R2", ("pair", "--i", "1", "--j", "2")):
        "b32ee9454d31d9c8552fa97d12fb305617dda05648f5b6b5f0e8578fbd5183bb",
    ("R2", ("pair", "--i", "1", "--j", "2", "--format", "json")):
        "3ec7f75ea34b0004470cc4eac82fcb1034daec8bf9904418f0e893d6c0b17c55",
    ("R4_INFINITE", ("pair", "--i", "1", "--j", "2")):
        "b05c14531eb8652bb6abda3fd5368ea14970aa4d171ffae3b0bfcd2dc14565c4",
    ("R4_INFINITE", ("pair", "--i", "1", "--j", "2", "--format", "json")):
        "25cb2b4acce73376aee28fb10b3da2a05f7e634dd37d3e47d8e997d4218e925c",
    ("TUNNEL", ("classify",)):
        "121d1e295745068cb3c9e89ccc799fb63131d03544db57fb2ce7e93f28b9732b",
    ("TUNNEL", ("pair", "--i", "1", "--j", "2")):
        "7787cb0cc7fecc091dfdae6dbbca53b12522287f1ea184fc980d0d64fcb05067",
}


@pytest.mark.parametrize("name,command", list(GOLDEN_STDOUT))
def test_golden_stdout(name, command, tmp_path, capsys):
    matrix = []
    if name is not None:
        path = write_matrix(tmp_path / f"{name}.json", GOLDEN_MATRICES[name])
        matrix = [str(path)]
    assert main([command[0], *matrix, *command[1:]]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GOLDEN_STDOUT[name, command]


@pytest.fixture
def no_fraction_or_ray(monkeypatch):
    """QuadraticRay() and gfans.quadratic's Fraction() raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a QuadraticRay or a Fraction was built")

    monkeypatch.setattr(QuadraticRay, "__new__", refuse)
    monkeypatch.setattr(gfans.quadratic, "Fraction", refuse)


@pytest.mark.parametrize("name,command", [
    (name, command) for name, command in GOLDEN_STDOUT
    if command[0] in ("classify", "pair", "rank2")])
def test_limit_rays_print_from_integer_parts(name, command, tmp_path, capsys,
                                             no_fraction_or_ray):
    # the printed rays come from rank3's integer parts, whose components
    # gfans.quadratic folds, writes and converts in integers
    test_golden_stdout(name, command, tmp_path, capsys)


def test_golden_classify_pins_what_they_name(tmp_path, capsys):
    path = tmp_path / "m.json"
    docs = {}
    for name in ("NEG_WING", "NEG_C5", "AB4_EQUALITY"):
        path.write_text(json.dumps(
            {"b": [list(r) for r in GOLDEN_MATRICES[name]]}))
        assert main(["classify", str(path), "--format", "json"]) == 0
        docs[name] = json.loads(capsys.readouterr().out)
    assert docs["NEG_WING"]["swap_applied"]
    assert ExchangeMatrix(GOLDEN_MATRICES["NEG_WING"]).symmetrizer == (3, 2, 6)
    assert docs["NEG_C5"]["swap_applied"]
    assert docs["NEG_C5"]["case"] == "C-5"
    v3 = docs["AB4_EQUALITY"]["vertices"][2]
    assert (v3["type"], v3["band_index"], v3["boundary_equality"]) == \
        ("T42", 3, True)


def test_classify_after_a_swap_uses_two_labellings(tmp_path, capsys):
    # the vertices are those of the normalized matrix, with indices 1 and
    # 2 exchanged; the limit rays are those of the input, in its labels
    B = ExchangeMatrix(GOLDEN_MATRICES["NEG_WING"])
    S = swap_indices_12(B)
    path = tmp_path / "neg_wing.json"
    path.write_text(json.dumps({"b": [list(r) for r in B.entries]}))
    assert main(["classify", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["swap_applied"]
    for i in (1, 2, 3):
        r = vertex_type(S, i)
        assert doc["vertices"][i - 1] == {
            "vertex": i, "type": r.tag, "c0_d0": list(r.c0_d0),
            "pair_ab": list(r.pair_ab), "band_index": r.band_index,
            "boundary_equality": r.boundary_equality,
            "swap_applied": r.swap_applied,
        }
        v, vp = limit_rays(B, i)
        assert doc["limit_rays"][str(i)] == {
            "v": [[str(c.x), str(c.y), c.delta] for c in v],
            "v_prime": [[str(c.x), str(c.y), c.delta] for c in vp],
        }
    # the two labellings differ here, so the relation pins which is which
    assert [vertex_type(B, i).c0_d0 for i in (1, 2, 3)] != \
        [vertex_type(S, i).c0_d0 for i in (1, 2, 3)]
    assert [limit_rays(B, i) for i in (1, 2, 3)] != \
        [limit_rays(S, i) for i in (1, 2, 3)]


def test_a_band_past_the_search_bound_exits_1(tmp_path, capsys):
    # ab = 4 bands close in linearly: this one lies past ten times the
    # entries' bit length, where the search gives up
    path = tmp_path / "frame.json"
    path.write_text(json.dumps({"b": [list(r) for r in
                                      frame(-127, 256, a=1, b=4).entries]}))
    for fmt in ((), ("--format", "json")):
        assert main(["classify", str(path), *fmt]) == 1
        assert capsys.readouterr() == ("", (
            "error: no band within bound for (c0,d0)=(-127,256), "
            "(a,b)=(1,4)\n"))


# SHA-256 of the fan document `explore --depth N --out` writes, and the
# summary line it prints
GOLDEN_FAN_DOCUMENTS = {
    ("C5", 4): (
        "099fc077e9294c9861f7ba7b90cac41fc14c3bc94ddb2a29000d589f9bb33e49",
        "44 cones, 44 adjacencies, 22 frontier; negative orthant: not found"),
    ("MARKOV", 4): (
        "ad92a475e5bed12766d3f23e31196e476f9fbc030c13efa4cf72da631fdf95d2",
        "46 cones, 45 adjacencies, 24 frontier; negative orthant: not found"),
    ("WING", 4): (
        "2b68f94b79e63a9d303cfc1127f9e092360dd94c38545882fb31d5c9a0439589",
        "46 cones, 45 adjacencies, 24 frontier; negative orthant: [1, 2, 3]"),
    ("R2", 8): (
        "4b2bd23e56cccd7099e0c7d115f1b615217776388ec2e09f424fc67c73249ba7",
        "17 cones, 16 adjacencies, 2 frontier; negative orthant: [1, 2]"),
    ("A4", 5): (
        "f67082b0a7848ac5d44579c5482f292582953b9ddcdb69d9b21735c1af557b3a",
        "42 cones, 84 adjacencies, 0 frontier; "
        "negative orthant: [4, 3, 2, 1]"),
    ("WING", 6): (
        "051013cf7010995a7a6f5f45a9cfd5775e8e4e7e18fb1a30d312685b4a845bf7",
        "190 cones, 189 adjacencies, 96 frontier; "
        "negative orthant: [1, 2, 3]"),
    ("R4", 5): (
        "47ff678be63cd5d38258c1165f78299e5a1a74da39311b56681dd2d20baae454",
        "200 cones, 244 adjacencies, 110 frontier; "
        "negative orthant: not found"),
    ("TUNNEL", 7): (
        "bcc6888d8ec70e2e519974305994cb828b22162a41fcb86e3228ce32018b06c6",
        "382 cones, 381 adjacencies, 192 frontier; "
        "negative orthant: not found"),
    # entries pass 512 bits, and the 384 frontier seeds never build their B
    ("TUNNEL", 8): (
        "e9e38ecb9dfa92d577cb3bd79596010238de768d90fc5d1bebcc1e60a19f5d27",
        "766 cones, 765 adjacencies, 384 frontier; "
        "negative orthant: not found"),
    # the walk meets A3's 14 cones again and again and expands each once
    ("A3", 11): (
        "9c2b87e14a46caa87c05cf6021b4509f000216ba2d90367745ce5da57ad067c8",
        "14 cones, 21 adjacencies, 0 frontier; negative orthant: [3, 2, 1]"),
}


# the depth-4 pins came first and keep their ids
@pytest.mark.parametrize("name,depth", list(GOLDEN_FAN_DOCUMENTS), ids=[
    name if depth == 4 else f"{name}-{depth}"
    for name, depth in GOLDEN_FAN_DOCUMENTS])
def test_golden_fan_documents(name, depth, tmp_path, capsys):
    path = write_matrix(tmp_path / f"{name}.json", GOLDEN_MATRICES[name])
    out = tmp_path / f"{name}.fan.json"
    assert main(["explore", str(path), "--depth", str(depth),
                 "--out", str(out)]) == 0
    data = out.read_bytes()
    digest, summary = GOLDEN_FAN_DOCUMENTS[name, depth]
    assert hashlib.sha256(data).hexdigest() == digest
    assert capsys.readouterr() == ("", summary + "\n")
    # the stdout path writes the same document and one newline
    assert main(["explore", str(path), "--depth", str(depth)]) == 0
    assert capsys.readouterr() == (data.decode() + "\n", summary + "\n")


def test_tunnel_at_depth_8_does_not_render(tmp_path, capsys):
    # a ray past the float range has unit vector 0, so the arc that
    # reaches it raises; this holds the defect until rays are scaled
    # before they are converted to floats
    path = write_matrix(tmp_path / "tunnel.json", TUNNEL)
    fan = tmp_path / "t8.json"
    assert main(["explore", str(path), "--depth", "8",
                 "--out", str(fan)]) == 0
    capsys.readouterr()
    assert main(["render", str(fan)]) == 2
    assert capsys.readouterr() == (
        "", "error: cannot project the zero vector\n")


def test_pair_error_names_the_product(tmp_path, capsys):
    path = tmp_path / "finite.json"
    path.write_text(json.dumps({"b": [[0, -1, -2], [3, 0, -6], [2, 2, 0]]}))
    assert main(["pair", str(path), "--i", "1", "--j", "2"]) == 2
    assert capsys.readouterr().err == "error: pair (1,2) has product -3\n"


def _check_pair_decimals(path, i, capsys):
    """Every decimal of `pair --i i --j 2 --format json` is the float of its
    exact value and within one ulp of the oracle."""
    assert main(["pair", str(path), "--i", str(i), "--j", "2",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    exact = [QuadraticNumber(Fraction(x), Fraction(y), delta)
             for key in ("v", "v_prime") for x, y, delta in doc[key]]
    for c, decimal in zip(exact, doc["v_decimal"] + doc["v_prime_decimal"]):
        assert float(c) == decimal
        assert_within_one_ulp(c)


@pytest.mark.parametrize("name", sorted(set(GOLDEN_MATRICES) - set(CONTROLS)))
@pytest.mark.parametrize("i", (1, 3))
def test_pair_decimals_match_the_exact_rays(name, i, tmp_path, capsys):
    path = write_matrix(tmp_path / f"{name}.json", GOLDEN_MATRICES[name])
    _check_pair_decimals(path, i, capsys)


def test_decimals_of_cancelling_limit_rays(tmp_path, capsys):
    # v3 of type 4-2 with band 134 and entries of about 130 bits: at v2,
    # v'_1 is about -3.5e-39, once printed as -37778931862957161709568.000000
    B = frame(-285722512653511151141513746107290123975,
              450684482247552067946963352686751106928)
    path = tmp_path / "t42.json"
    path.write_text(json.dumps({"b": [list(r) for r in B.entries]}))
    assert main(["classify", str(path)]) == 0
    text = capsys.readouterr().out
    for i in (1, 2, 3):
        v, vp = limit_rays(B, i)
        for label, ray in (("v ", v), ("v'", vp)):
            line = ", ".join(f"{float_oracle(c):.6f}" for c in ray)
            assert f"decimal {label} = ({line})" in text
    _check_pair_decimals(path, 3, capsys)


# -- printed limit rays against the library's ---------------------------------

# the pair complementary to each vertex, in its natural order
NATURAL_PAIR = {1: (2, 3), 2: (3, 1), 3: (1, 2)}
FLOAT_RANGE_ERROR = (
    "error: a limit-ray decimal exceeds the float range (about 1.8e308); "
    "`classify --format json` prints it exactly\n")


def _printed_value(text):
    """(x, y, delta) of a printed component `x` or `x + y*sqrt(delta)`."""
    x, plus, rest = text.partition(" + ")
    if not plus:
        return Fraction(x), Fraction(0), 0
    y, _, delta = rest.partition("*sqrt(")
    assert delta.endswith(")")
    return Fraction(x), Fraction(y), int(delta[:-1])


def _printed_rows(text):
    """The component texts of each `v  =`, `v' =`, `decimal v  =` and
    `decimal v' =` line of a text report, in order."""
    rows = []
    for line in text.splitlines():
        label, sep, row = line.strip().partition(" = (")
        if sep and label in ("v ", "v'", "decimal v ", "decimal v'"):
            assert row.endswith(")")
            rows.append(row[:-1].split(", "))
    return rows


def _components(ray):
    return [(c.x, c.y, c.delta) for c in ray]


def _check_triples(rays, triples):
    """JSON [x, y, delta] triples parse back with Fraction() to the
    components of the library's rays."""
    assert [[(Fraction(x), Fraction(y), delta) for x, y, delta in ray]
            for ray in triples] == [_components(ray) for ray in rays]


def _check_text(rays, rows):
    """The rows of `v  =`, `v' =`, `decimal v  =` and `decimal v' =`: every
    exact text parses back to its component of the library's rays, and
    every decimal is the component's float to six places."""
    assert len(rows) == 4
    assert [[_printed_value(text) for text in row] for row in rows[:2]] == \
        [_components(ray) for ray in rays]
    assert rows[2:] == [[f"{float(c):.6f}" for c in ray] for ray in rays]


@st.composite
def infinite_pairs(draw):
    """(rows, i, j): B = A D of rank 2 to 4 with A skew-symmetric, and a pair
    (i, j) with b_ij b_ji <= -4; some entries pass 2^600."""
    n = draw(st.integers(2, 4))
    d = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    entries = st.integers(-6, 6) | st.integers(-2 ** 80, 2 ** 80) | \
        st.sampled_from([2 ** 600 + 1, -(2 ** 610) - 3])
    b = [[0] * n for _ in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            a = draw(entries)
            b[p][q], b[q][p] = a * d[q], -a * d[p]
    i, j = draw(st.permutations(range(1, n + 1)))[:2]
    assume(b[i - 1][j - 1] * b[j - 1][i - 1] <= -4)
    return b, i, j


@settings(max_examples=150, deadline=None)
@given(infinite_pairs())
@example((list(map(list, GOLDEN_MATRICES["R4_INFINITE"])), 1, 2))
@example(([[0, -1], [4, 0]], 2, 1))  # rank 2, ab = 4
@example(([[0, -2 ** 600, 5], [2 ** 600, 0, -3], [-5, 3, 0]], 1, 2))
def test_pair_prints_the_rays_of_pair_asymptotics(tmp_path_factory, case):
    b, i, j = case
    rays = pair_asymptotics(ExchangeMatrix(b), i, j)
    path = write_matrix(tmp_path_factory.mktemp("pair") / "m.json", b)
    argv = ["pair", str(path), "--i", str(i), "--j", str(j)]
    try:
        [float(c) for ray in rays for c in ray]
    except OverflowError:  # past the float range both formats exit 2
        for fmt in ((), ("--format", "json")):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                assert main([*argv, *fmt]) == 2
            assert (out.getvalue(), err.getvalue()) == ("", FLOAT_RANGE_ERROR)
        return
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--format", "json"]) == 0
    doc = json.loads(out.getvalue())
    assert (doc["i"], doc["j"]) == (i, j)
    _check_triples(rays, [doc["v"], doc["v_prime"]])
    assert [doc["v_decimal"], doc["v_prime_decimal"]] == \
        [[float(c) for c in ray] for ray in rays]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue().startswith(f"pair ({i},{j})\n")
    _check_text(rays, _printed_rows(out.getvalue()))


@settings(max_examples=100, deadline=None)
@given(totally_infinite_rank3())
@example(list(map(list, TUNNEL)))
@example(list(map(list, GOLDEN_MATRICES["AB4_EQUALITY"])))
@example(list(map(list, GOLDEN_MATRICES["NEG_C5"])))  # swapped
@example([[0, -2 ** 600, 5], [2 ** 600, 0, -3], [-5, 3, 0]])
def test_classify_prints_the_rays_of_pair_asymptotics(tmp_path_factory, b):
    B = ExchangeMatrix(b)
    path = write_matrix(tmp_path_factory.mktemp("classify") / "m.json", b)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["classify", str(path), "--format", "json"])
    if code == 1:  # a band search that reaches its bound
        return
    assert code == 0
    doc = json.loads(out.getvalue())
    rays = {i: pair_asymptotics(B, *NATURAL_PAIR[i]) for i in (1, 2, 3)}
    for i in (1, 2, 3):
        triples = doc["limit_rays"][str(i)]
        _check_triples(rays[i], [triples["v"], triples["v_prime"]])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", str(path)])
    try:
        [float(c) for i in rays for ray in rays[i] for c in ray]
    except OverflowError:  # the text report exits 2, the JSON one is exact
        assert (code, out.getvalue(), err.getvalue()) == \
            (2, "", FLOAT_RANGE_ERROR)
        return
    assert code == 0
    rows = _printed_rows(out.getvalue())
    assert len(rows) == 12
    for i in (1, 2, 3):
        _check_text(rays[i], rows[4 * i - 4:4 * i])


# -- the JSON report writer ---------------------------------------------------

# quotes, backslashes, control characters, non-ASCII and a lone surrogate
json_strings = st.text(st.characters() | st.sampled_from(
    '"\\/\x00\x1f\x7f\u2028\xe9\ud800\U0001f600'))
json_scalars = (
    st.none() | st.booleans() | json_strings
    | st.integers()
    | st.integers(min_value=2 ** 64) | st.integers(max_value=-2 ** 64)
    | st.floats()
    | st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan")])
)
json_trees = st.recursive(
    json_scalars,
    lambda children: (st.lists(children, max_size=5)
                      | st.dictionaries(json_strings, children, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(json_trees)
@example([])
@example({})
@example([[], {}, [[]], {"": {}}, {"a": []}])
@example({"\u00e9\"\\\n": [2 ** 70, -2 ** 64, -0.0, True, False, None]})
def test_json_text_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {1, 2}, b"bytes", Fraction(1, 2), 1j, object(),
    {"a": [None, {"b": frozenset()}]}, [1, [2, [Fraction(3)]]],
])
def test_json_text_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as ours:
        _json_text(value)
    with pytest.raises(TypeError) as stdlib:
        json.dumps(value, indent=2)
    assert str(ours.value) == str(stdlib.value)


def test_an_int_past_the_digit_limit_fails_before_the_out_file(
        markov_file, tmp_path, monkeypatch, capsys, int_digits_640):
    doc = {"markov_constant": 10 ** 700}
    with pytest.raises(ValueError) as ours:
        _json_text(doc)
    with pytest.raises(ValueError) as stdlib:
        json.dumps(doc, indent=2)
    assert str(ours.value) == str(stdlib.value)
    # no real matrix gets here: its exact limit rays, printed by str(),
    # pass the limit first; so the constant is replaced after the fact
    real = gfans.cli.fan_type
    monkeypatch.setattr(gfans.cli, "fan_type", lambda B: dataclasses.replace(
        real(B), markov_constant=10 ** 700))
    kept = tmp_path / "kept.json"
    kept.write_bytes(b"kept\n")
    assert main(["classify", markov_file, "--format", "json",
                 "--out", str(kept)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {stdlib.value}\n"
    assert kept.read_bytes() == b"kept\n"


# -- the module as a script ---------------------------------------------------

def test_python_m_gfans_cli_runs_main(markov_file, capsys):
    src = Path(gfans.cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "gfans.cli", "classify", markov_file],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert main(["classify", markov_file]) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, capsys.readouterr().out, "")


# -- one name per vertex type --------------------------------------------------

def _check_type_names(path) -> int:
    """Text and JSON `classify` on `path` exit alike, and on success the
    text names each vertex's type by the `_TAG_LABEL` of its JSON tag, in
    the `vN:` lines and in the triplet; returns the exit code."""
    runs = []
    for fmt in ((), ("--format", "json")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            runs.append((main(["classify", str(path), *fmt]), out.getvalue()))
    (code, text), (json_code, doc) = runs
    assert code == json_code
    if code == 1:  # a band search that reaches its bound, in both formats
        return code
    assert code == 0
    vertices = json.loads(doc)["vertices"]
    labels = [_TAG_LABEL[v["type"]] for v in vertices]
    assert text.startswith(f"type of fan: ({', '.join(labels)})   case ")
    assert re.findall(r"^  v(\d): type (\S+) with ", text, re.MULTILINE) == \
        [(str(v["vertex"]), label) for v, label in zip(vertices, labels)]
    return code


def _bench_corpus(seed):
    """The classify-sweep corpus of the benchmark at `seed`."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import corpus
    finally:
        sys.path.remove(bench)
    return [m for _, m, _, _ in corpus.build(seed, n_random=24)]


@pytest.mark.parametrize("name", [n for n in GOLDEN_MATRICES
                                  if n not in CONTROLS
                                  and len(GOLDEN_MATRICES[n]) == 3])
def test_both_classify_formats_name_each_type_alike(name, tmp_path):
    # the text report names a type as the triplet and the paper do
    _check_type_names(write_matrix(tmp_path / "m.json",
                                   GOLDEN_MATRICES[name]))


def test_both_formats_name_each_type_alike_on_the_bench_corpus(tmp_path):
    codes = [_check_type_names(write_matrix(tmp_path / "m.json", entries))
             for entries in _bench_corpus(2)]
    assert codes.count(0) > len(codes) // 2


@settings(max_examples=100, deadline=None)
@given(totally_infinite_rank3())  # p_3 takes both signs
def test_both_formats_name_each_type_alike_on_random_matrices(
        tmp_path_factory, b):
    _check_type_names(write_matrix(tmp_path_factory.mktemp("types") / "m.json",
                                   b))
