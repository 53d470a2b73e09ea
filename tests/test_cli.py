"""End-to-end CLI tests: subcommands, formats, and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from itertools import combinations
from math import comb
from pathlib import Path
from random import Random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import parse_by_fraction_strings
from colourdepth import cli, constructions, exact
from colourdepth.cli import build_parser, main
from colourdepth.serialization import load_config, save_config
from colourdepth.depth import ColourfulConfiguration, _clean_plane
from colourdepth.exact import pt
from colourdepth.sampling import random_core_class


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cli_process(argv, timeout=60, module="colourdepth.cli", stdout=subprocess.PIPE):
    """Run `python -m colourdepth.cli`, or another module, with argv in a
    fresh process."""
    root = Path(__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=timeout,
    )


def test_package_runs_as_the_console_script():
    proc = cli_process(["gen", "identical", "--dim", "3"], module="colourdepth")
    assert proc.returncode == 0, proc.stderr
    assert "depth_at_origin: 24" in proc.stdout.splitlines()
    proc = cli_process(["audit", "mu", "--dim", "0", "--trials", "1"], module="colourdepth")
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1


def test_gen_sminus_prints_depth(capsys, tmp_path):
    out_path = tmp_path / "sm.json"
    code, out, _ = run(capsys, "gen", "sminus", "--dim", "2", "--out", str(out_path))
    assert code == 0
    assert "depth_at_origin: 5" in out
    config = load_config(out_path)
    assert config.dim == 2 and config.num_classes == 3


def test_gen_splus_d3(capsys, tmp_path):
    out_path = tmp_path / "sp.json"
    code, out, _ = run(capsys, "gen", "splus", "--dim", "3", "--out", str(out_path))
    assert code == 0
    assert "depth_at_origin: 82" in out


def test_gen_roundtrip_cdepth(capsys, tmp_path):
    out_path = tmp_path / "cfg.json"
    code, out, _ = run(capsys, "gen", "sprime", "--dim", "2", "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "cdepth", "--config", str(out_path), "--point", "0,0")
    assert code == 0
    assert "count: 5" in out


def test_gen_requires_dim(capsys):
    code, _, err = run(capsys, "gen", "sminus")
    assert code == 2
    assert "dim" in err


def test_gen_sminus_d1_is_input_error(capsys):
    code, _, _ = run(capsys, "gen", "sminus", "--dim", "1")
    assert code == 2


def test_gen_ngon_and_depth(capsys, tmp_path):
    out_path = tmp_path / "ngon.json"
    code, out, _ = run(capsys, "gen", "ngon", "--n", "7", "--out", str(out_path))
    assert code == 0
    assert "depth_at_origin: 14" in out
    code, out, _ = run(capsys, "depth", "--points", str(out_path), "--point", "0,0")
    assert code == 0
    assert "count: 14" in out


# One degenerate colourful triple, on the x-axis through the origin, and
# fifteen with the origin on an edge.
DEGENERATE_QUERY = {"dimension": 2, "colours": [
    [[0, 0], [2, 0], [-1, 1]], [[1, 0], [-2, 0], [1, -1]], [[0, 1], [0, -2], [1, 1]]]}


@pytest.mark.parametrize("mode, count, witnesses", [("closed", 16, 16), ("open", 1, 0)])
def test_degenerate_query_report(capsys, tmp_path, mode, count, witnesses):
    path = tmp_path / "deg.json"
    path.write_text(json.dumps(DEGENERATE_QUERY))
    argv = ["cdepth", "--config", str(path), "--point=0,0", "--mode", mode]
    code, out, _ = run(capsys, *argv, *(["--witnesses"] if witnesses else []))
    lines = out.splitlines()
    assert code == 0
    assert lines[:4] == [f"mode: {mode}", f"count: {count}", "degenerate: 1", "boundary: 15"]
    picks = [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2),
             (0, 2, 0), (0, 2, 1), (0, 2, 2), (1, 1, 0), (1, 1, 1), (1, 1, 2),
             (2, 0, 1), (2, 2, 0), (2, 2, 1), (2, 2, 2)][:witnesses]
    assert lines[4:] == [f"witness: ((0, {a}), (1, {b}), (2, {c}))" for a, b, c in picks]


def test_closed_stdout_ends_quietly_with_141(tmp_path):
    # A reader that closed stdout, as `head` does, is no input error: the
    # exit is 128 + SIGPIPE and nothing is printed, even by the interpreter's
    # last flush of the buffered report.
    path = tmp_path / "deg.json"
    path.write_text(json.dumps(DEGENERATE_QUERY))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = cli_process(["cdepth", "--config", str(path), "--point=0,0",
                            "--mode", "closed", "--witnesses"], stdout=w)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_cdepth_require_core_violation(capsys, tmp_path):
    # one colour entirely in the halfplane x >= 1: origin outside its hull
    shifted = [pt(1, 0), pt(2, 1), pt(2, -1)]
    tri = [pt(1, 0), pt(-1, 1), pt(-1, -1)]
    config = ColourfulConfiguration(2, (tuple(tri), tuple(tri), tuple(shifted)))
    path = tmp_path / "cfg.json"
    save_config(config, path)
    code, _, err = run(capsys, "cdepth", "--config", str(path), "--point", "0,0",
                       "--require-core")
    assert code == 1
    assert "hull" in err


def test_core_command(capsys, tmp_path):
    tri = [pt(1, 0), pt(-1, 1), pt(-1, -1)]
    config = ColourfulConfiguration(2, (tuple(tri), tuple(tri), tuple(tri)))
    path = tmp_path / "cfg.json"
    save_config(config, path)
    code, out, _ = run(capsys, "core", "--config", str(path), "--point", "0,0")
    assert code == 0
    assert "member: true" in out and "strict_member: true" in out


def test_cells2d_canonical_sequence(capsys, tmp_path):
    path = tmp_path / "sm.json"
    run(capsys, "gen", "sminus", "--dim", "2", "--out", str(path))
    code, out, _ = run(capsys, "cells2d", "--config", str(path))
    assert code == 0
    assert "sequence: 1,2,3,4,3,2" in out
    assert "lemma_ok: true" in out


def test_cells2d_rejects_bad_classes(capsys, tmp_path):
    path = tmp_path / "sm.json"
    run(capsys, "gen", "sminus", "--dim", "2", "--out", str(path))
    code, _, _ = run(capsys, "cells2d", "--config", str(path), "--classes", "0", "0")
    assert code == 2


def test_cells2d_any_class_sizes(capsys, tmp_path):
    rng = Random(45)
    while True:
        X = random_core_class(rng, 4, 2, bound=60)
        Y = random_core_class(rng, 5, 2, bound=60)
        if all(u[0] * v[1] != u[1] * v[0] for u, v in combinations(X + Y, 2)):
            break
    path = tmp_path / "cfg.json"
    save_config(ColourfulConfiguration(2, (tuple(X), tuple(Y))), path)
    code, out, _ = run(capsys, "cells2d", "--config", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("sequence: ")
    assert len(lines[0].removeprefix("sequence: ").split(",")) == 9
    assert lines[1] == "lemma_ok: true"


def test_cells2d_two_point_class_is_one_line_input_error(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    tri = (pt(1, 0), pt(-1, 1), pt(-1, -1))
    save_config(ColourfulConfiguration(2, (tri[:2], tri)), path)
    code, out, err = run(capsys, "cells2d", "--config", str(path))
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")


def test_cells2d_refuses_a_configuration_off_the_plane(capsys, tmp_path):
    path = tmp_path / "sp.json"
    run(capsys, "gen", "splus", "--dim", "3", "--out", str(path))
    code, out, err = run(capsys, "cells2d", "--config", str(path))
    assert (code, out, err) == (2, "", "error: cells2d needs a 2-dimensional configuration\n")


@pytest.mark.parametrize("argv, line", [
    (["gen", "ngon"], "error: gen ngon requires --n"),
    (["gen", "random"], "error: gen random requires --dim"),
])
def test_gen_without_its_size_is_one_line_input_error(capsys, argv, line):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", line + "\n")


def test_bound_audit_without_a_usable_trial_exits_as_a_violation(capsys):
    # The planted S- fails to construct at d = 4, and no random trial runs.
    code, out, err = run(capsys, "audit", "mu", "--dim", "4", "--trials", "0")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["audit violation: no usable trials in minimum-depth audit"]


def test_nu_audit_plants_splus_at_d4(capsys, tmp_path):
    path = tmp_path / "nu.csv"
    code, out, err = run(capsys, "audit", "nu", "--dim", "4", "--trials", "0",
                         "--csv", str(path))
    assert (code, err) == (0, "")
    summary = json.loads(out)
    assert (summary["min_observed"], summary["max_observed"]) == (1025, 1025)
    assert (summary["violations"], summary["generation_failures"]) == (0, 0)
    assert path.read_text().splitlines()[1:] == ["-1,0,1025,1,1"]


@pytest.mark.parametrize("argv", [
    ["audit", "mu", "--dim", "4", "--trials", "0", "--core-samples", "0"],
    ["audit", "mu", "--dim", "2", "--trials", "1", "--core-samples", "0"],
    ["audit", "nu", "--dim", "2", "--trials", "1", "--samples", "0"],
])
def test_bound_audit_refuses_a_bad_sample_count_first(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: samples must be at least 1\n")


@pytest.mark.parametrize("argv, count", [
    (["gen", "sminus", "--dim", "100"], str(101**101)),
    (["gen", "sminus", "--dim", "1000"], str(1001**1001)),
    (["gen", "identical", "--dim", "300"], str(301**301)),
    (["audit", "mu", "--dim", "300", "--trials", "1"], str(301**301)),
    (["gen", "random", "--dim", "3000"], "at least 10^10434"),
    (["gen", "random", "--dim", "100000"], "at least 10^500004"),
    (["gen", "splus", "--dim", "100000"], "at least 10^500004"),
], ids=lambda v: " ".join(v[:4]) if isinstance(v, list) else "")
def test_oversized_dimensions_are_refused_before_building(capsys, argv, count):
    # (d+1)^(d+1) colourful tuples are refused before any point is placed;
    # a count past Python's 4,300 printed digits is named by a power of ten.
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: {count} vertex tuples to enumerate, more than the limit of 10000000\n"


def _two_classes_of_200(tmp_path) -> Path:
    rng = Random(7)
    classes = tuple(tuple(random_core_class(rng, 200, 2, bound=10**6)) for _ in range(2))
    path = tmp_path / "big.json"
    save_config(ColourfulConfiguration(2, classes), path)
    return path


def test_cells2d_answers_two_classes_of_200_points(tmp_path):
    # The sweep's half-turn counts give the first cell, and its crossings
    # the other 399.
    path = _two_classes_of_200(tmp_path)
    start = time.perf_counter()
    proc = cli_process(["cells2d", "--config", str(path)], timeout=20)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    sequence, lemma = proc.stdout.splitlines()
    assert len(sequence.removeprefix("sequence: ").split(",")) == 400
    assert lemma == "lemma_ok: true"
    assert elapsed < 10, elapsed


def test_cells2d_asks_no_enumeration_budget(monkeypatch, capsys, tmp_path):
    # The sweep alone gives every cell, so a limit of one tuple still answers.
    path = _two_classes_of_200(tmp_path)
    monkeypatch.setattr(exact, "MAX_TUPLES", 1)
    code, out, err = run(capsys, "cells2d", "--config", str(path))
    assert (code, err) == (0, "")
    sequence, lemma = out.splitlines()
    assert len(sequence.removeprefix("sequence: ").split(",")) == 400
    assert lemma == "lemma_ok: true"


@pytest.mark.parametrize("argv", [
    ["depth", "--points"], ["cdepth", "--config"], ["core", "--config"],
], ids=lambda argv: argv[0])
def test_deeply_nested_json_is_one_line_input_error(capsys, tmp_path, argv):
    # Nesting past the recursion limit stops the JSON parser itself.
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, *argv, str(path), "--point", "0,0")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: not valid JSON: "), err


def test_gen_ngon_refuses_too_many_point_pairs_before_building(monkeypatch, capsys):
    # Its general-position check reads the C(n+1, 2) pairs of the n points
    # and the origin; the limit is read when the generator runs.
    snap = constructions._snap

    def no_point(x):
        raise AssertionError("a point was built")

    monkeypatch.setattr(exact, "MAX_TUPLES", comb(8, 2) - 1)
    monkeypatch.setattr(constructions, "_snap", no_point)
    code, out, err = run(capsys, "gen", "ngon", "--n", "7")
    assert (code, out) == (2, "")
    assert err == "error: 28 point pairs to enumerate, more than the limit of 27\n"
    monkeypatch.setattr(exact, "MAX_TUPLES", comb(8, 2))
    monkeypatch.setattr(constructions, "_snap", snap)
    code, out, _ = run(capsys, "gen", "ngon", "--n", "7")
    assert code == 0 and out.endswith("depth_at_origin: 14\n")


@pytest.mark.parametrize("argv, classes, point, code, out, err", [
    (["core"], 1, "0,0,0", 0, ["member: true", "strict_member: true"], []),
    (["cdepth", "--require-core"], 4, "3000000,0,0", 1, [],
     ["query point is not strictly inside every colour hull"]),
], ids=["core", "cdepth-require-core"])
def test_hull_of_200_points_at_d3_is_decided(tmp_path, argv, classes, point, code, out, err):
    # Classes of 200 points at d = 3 have C(200, 4) = 64,684,950 subsets, but
    # hull membership is one integer simplex method in both modes, so each
    # command answers at once.
    rng = Random(3)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dimension": 3, "colours": [
        [[rng.randint(-10**6, 10**6) for _ in range(3)] for _ in range(200)]
        for _ in range(classes)
    ]}))
    proc = cli_process([*argv, "--config", str(path), "--point", point], timeout=5)
    assert proc.returncode == code
    assert (proc.stdout.splitlines(), proc.stderr.splitlines()) == (out, err)


def test_planar_hull_of_3000_points_is_decided(tmp_path):
    # C(3000, 3) = 4,495,501,000 subsets, but the plane reads the angular
    # order and is never refused.
    rng = Random(3)
    path = tmp_path / "big2.json"
    path.write_text(json.dumps({"dimension": 2, "colours": [
        [[rng.randint(-10**6, 10**6) for _ in range(2)] for _ in range(3000)]
    ]}))
    proc = cli_process(["core", "--config", str(path), "--point", "0,0"], timeout=5)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["member: true", "strict_member: true"]


# Coordinates that every parser path must refuse, in a point-set file.
MALFORMED_COORDINATES = [
    "1/0", "1/-2", "1e99999", "9" * 4400, "abc", "", "1/2/3", True, None, 0.5,
]


@pytest.mark.parametrize("index", range(len(MALFORMED_COORDINATES)))
def test_malformed_coordinate_error_bytes(capsys, tmp_path, index):
    coordinate = MALFORMED_COORDINATES[index]
    path = tmp_path / "pts.json"
    path.write_text(json.dumps({"points": [[0, 1], [1, 0], [coordinate, -1]]}))
    code, out, err = run(capsys, "depth", "--points", str(path), "--point", "0,0")
    kind, message = parse_by_fraction_strings(coordinate)
    assert kind == "error"
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_enumeration_above_budget_is_one_line_input_error(capsys, tmp_path):
    rng = Random(5)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(
        {"points": [[rng.randint(-10**6, 10**6) for _ in range(3)] for _ in range(3000)]}
    ))
    code, out, err = run(capsys, "depth", "--points", str(path), "--point", "0,0,0")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert str(comb(3000, 4)) in err


def test_audit_parity_outputs(capsys, tmp_path):
    csv_path = tmp_path / "trials.csv"
    json_path = tmp_path / "summary.json"
    code, out, _ = run(
        capsys, "audit", "parity", "--dim", "2", "--trials", "20", "--seed", "3",
        "--parity-kind", "monochrome", "--n", "6",
        "--csv", str(csv_path), "--json", str(json_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["violations"] == 0
    assert summary["invocation"]["kind"] == "parity"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "trial,seed,depth,core_flag,gp_flag"
    assert len(lines) == 21
    assert json.loads(json_path.read_text()) == summary


def test_audit_mu_small(capsys):
    code, out, _ = run(capsys, "audit", "mu", "--dim", "1", "--trials", "3",
                       "--seed", "1", "--core-samples", "4")
    assert code == 0
    summary = json.loads(out)
    assert summary["min_observed"] == 2


def test_audit_stats(capsys):
    code, out, _ = run(capsys, "audit", "stats", "--dim", "1", "--trials", "50",
                       "--seed", "0")
    assert code == 0
    summary = json.loads(out)
    assert "mean" in summary


def test_malformed_config_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "cdepth", "--config", str(path), "--point", "0,0")
    assert code == 2
    assert "error" in err


def test_malformed_rational_is_input_error(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    run(capsys, "gen", "sminus", "--dim", "2", "--out", str(path))
    code, _, _ = run(capsys, "cdepth", "--config", str(path), "--point", "1/x,0")
    assert code == 2


def test_dimension_mismatch_is_input_error(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    run(capsys, "gen", "sminus", "--dim", "2", "--out", str(path))
    code, _, _ = run(capsys, "cdepth", "--config", str(path), "--point", "0,0,0")
    assert code == 2


@pytest.mark.parametrize("payload", [
    {"dimension": 2, "colours": [[1, 2]]},  # a class of numbers, not points
    {"dimension": True, "colours": [[[1]], [[2]]]},  # JSON true is not d = 1
])
def test_malformed_config_shape_is_one_line_input_error(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    proc = cli_process(["cdepth", "--config", str(path), "--point", "0"])
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["depth", "cdepth", "core"])
def test_negative_point_after_a_space(tmp_path, command):
    tri = [pt(1, 0), pt(-1, 1), pt(-1, -1)]
    path = tmp_path / "cfg.json"
    # A one-colour configuration file doubles as a point-set file.
    classes = 1 if command == "depth" else 3
    save_config(ColourfulConfiguration(2, (tuple(tri),) * classes), path)
    flag = "--points" if command == "depth" else "--config"
    argv = [command, flag, str(path)]
    spaced = cli_process(argv + ["--point", "-1/2,0"])
    joined = cli_process(argv + ["--point=-1/2,0"])
    assert spaced.returncode == joined.returncode == 0, spaced.stderr
    assert spaced.stdout == joined.stdout and spaced.stdout


@pytest.mark.parametrize("per_colour", ["0", "2"])
def test_gen_random_too_few_points_per_colour_is_input_error(tmp_path, per_colour):
    # 0 is a size like any other, not a missing option: it must reach the
    # generator's size check rather than fall back to the d+1 default.
    proc = cli_process(["gen", "random", "--dim", "2",
                        "--points-per-colour", per_colour, "--out", str(tmp_path / "r.json")])
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "r.json").exists()


def test_gen_random_refuses_an_oversized_enumeration_before_sampling(tmp_path):
    # 200 points per colour at d = 3 is 200^4 colourful tuples: the size is
    # refused at once, before any class is sampled or checked.
    proc = cli_process(["gen", "random", "--dim", "3", "--points-per-colour", "200",
                        "--out", str(tmp_path / "r.json")], timeout=20)
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1
    assert proc.stderr.splitlines() == [
        "error: 1600000000 vertex tuples to enumerate, more than the limit of 10000000"
    ]
    assert not (tmp_path / "r.json").exists()


def test_gen_random_refuses_general_position_above_budget(tmp_path):
    # At d = 6 the 49 sampled points and the origin have C(50, 6) d-subsets
    # for the general-position pencil: refused once the classes are drawn.
    proc = cli_process(["gen", "random", "--dim", "6", "--out", str(tmp_path / "r.json")],
                       timeout=20)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: 15890700 pencil subsets to enumerate, more than the limit of 10000000"
    ]
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [
    ["gen", "random", "--dim", "0"],
    ["gen", "sminus", "--dim", "0"],
    ["audit", "parity", "--dim", "0", "--trials", "2"],
    ["audit", "stats", "--dim", "0", "--trials", "2"],
    ["audit", "mu", "--dim", "0", "--trials", "2"],
    ["audit", "nu", "--dim", "0", "--trials", "2"],
    ["audit", "parity", "--dim", "0", "--parity-kind", "colourful_odd_d", "--trials", "2"],
])
def test_dimension_zero_is_one_line_input_error(argv):
    proc = cli_process(argv)
    assert proc.returncode == 2
    assert proc.stderr.strip().splitlines() == ["error: dimension must be at least 1"]


def test_negative_size_reaches_the_class_size_check():
    # "--sizes -2,2,2" would read as an option to argparse and end in six
    # lines of usage; joined to its flag it reaches the program's refusal.
    proc = cli_process(["audit", "parity", "--dim", "2", "--parity-kind",
                        "colourful_even_sizes", "--sizes", "-2,2,2"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: every colour class needs at least one point\n"


@pytest.mark.parametrize("epsilon", [["--epsilon", "-1/2"], ["--epsilon=-1/2"]])
def test_negative_epsilon_reaches_the_positivity_check(epsilon):
    # A value after a space that starts with '-' is joined to its flag, so
    # argparse does not take it for an option.
    proc = cli_process(["gen", "sminus", "--dim", "2", *epsilon])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: epsilon must be positive\n"


@pytest.mark.parametrize("argv, flag", [
    (["gen", "identical", "--dim", "2"], ["--epsilon", "abc"]),
    (["gen", "ngon", "--n", "5"], ["--epsilon", "abc"]),
    (["gen", "random", "--dim", "2"], ["--epsilon=-5"]),
])
def test_kinds_without_epsilon_ignore_it(capsys, argv, flag):
    # Only sminus, sprime and splus read --epsilon; the other kinds ignore
    # any value, as kinds ignore --n and --points-per-colour.
    code, out, err = run(capsys, *argv, *flag)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, *argv)


@pytest.mark.parametrize("payload, kind", [([1, 2], "list"), ("abc", "str"), (7, "int")])
def test_config_that_is_not_an_object_is_one_line_input_error(tmp_path, payload, kind):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    proc = cli_process(["cdepth", "--config", str(path), "--point", "0,0"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: configuration file must hold a JSON object, got {kind}\n"


def test_repeated_in_process_calls_match_fresh_processes(tmp_path, monkeypatch):
    # main builds its parser once per process.  Each call must still print
    # and exit as a fresh process does, whatever the calls before it parsed.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this width
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dimension": 2, "colours": [
        [[3, 1], [-1, 3], [-2, -3]],
        [[1, 3], [-3, 1], [2, -3]],
        [[2, 3], [-3, -2], [1, -4], [4, -1]],
    ]}))
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    calls = [
        ["cdepth", "--config", str(cfg), "--point", "0,0", "--mode", "closed", "--witnesses"],
        ["cdepth", "--config", str(cfg), "--point", "0,0"],
        ["cdepth", "--config", str(cfg), "--point", "0,0", "--mode", "sideways"],
        ["cells2d", "--config", str(cfg), "--classes", "1", "2"],
        ["cells2d", "--config", str(cfg)],
        ["cells2d", "--help"],
        ["core", "--config", str(cfg), "--point", "-1/10,1/7"],
        ["gen", "sminus", "--dim", "2", "--epsilon", "-1/2"],
        ["cdepth", "--config", str(listed), "--point", "0,0"],
        ["gen", "sminus", "--dim", "2"],
    ]
    seen = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse refuses, or prints help
                code = e.code
        proc = cli_process(argv)
        assert (code, out.getvalue(), err.getvalue()) == (
            proc.returncode, proc.stdout, proc.stderr), argv
        seen.append((code, out.getvalue()))
    assert build_parser() is build_parser()
    # The calls differ where their arguments do: no option carries over.
    assert [code for code, _ in seen] == [0, 0, 2, 0, 0, 0, 0, 2, 2, 0]
    assert seen[0][1] != seen[1][1] and seen[3][1] != seen[4][1]


# SHA-256 of the exit code, stdout, stderr, JSON summary and CSV records of
# each call, pinned from the outputs of the generators and audits before
# their verification paths and trial loops were merged.
GOLDEN_DIGESTS = {
    "gen identical --dim 1":
        "8c205f9058d96add5c993c7e1fc8bcd2914710c09757c8b63488cd38fc619ebb",
    "gen identical --dim 2":
        "7fd912482b0bc16c8ec43fed835d1fd8d94b23f815d7cc11b28d678b1a4f63e0",
    "gen identical --dim 3":
        "c8d5f0d9922b8607cf30bebe1e5c63af1931349983f3fc9966f6556e25dd8502",
    "gen sminus --dim 1":
        "5198ef3b91b84d7c9c431819f97757d1be703342b195effd060848a89ae44d6a",
    "gen sminus --dim 2":
        "5ce02ea14889483805734f9e54bdb79f796540ad81ce2cfcc1690d886d68c83e",
    "gen sminus --dim 3":
        "a16362e55e04c2030694f22e44cf24f1fe557d278f32b21153d935e3f3636ac2",
    "gen sprime --dim 1":
        "7498b7bb7667446c2adda3e3e2e1742f25d33d34d3b1c9bd6d8f0a2b7ad2cc78",
    "gen sprime --dim 2":
        "129e498214544404b266d272524ce4518f87ccd0b1bab9693b716e2d13bf8211",
    "gen sprime --dim 3":
        "f2b49e8faca942178e1b520fc1b509df0cbf3ea49c98bfb24c919c52f085e949",
    "gen splus --dim 1":
        "18832462a132230a1e620ebfb035f6f8ab5c0dbe9f394f09292d7a34d083d212",
    "gen splus --dim 2":
        "8f4c597fd41db0325651e8a3d1d1c8a46cbbfc2de673e6a10eb8239c2aaf17c4",
    "gen splus --dim 3":
        "ab3ecad232815c77cd3ea7e6f7d09bdbca632acf075724f5142cde64c1179ef8",
    "gen random --dim 2 --seed 0":
        "3dc5e1c24503511b6d16961670714a8ebe30b5b0a1cc0755b10cc57a6be76618",
    "gen random --dim 3 --seed 1":
        "407100f34611dc954147bda7a5b0bdb114504e306a9230fe35b464422d776197",
    "audit mu --dim 1 --trials 3 --seed 1 --core-samples 4":
        "b8010d0ebadf40d75d0eb8ed223138727bc415cb00abbc6c4cbc3c7da63afd82",
    "audit mu --dim 2 --trials 3 --seed 1 --core-samples 4":
        "31fc7f72b927dbbc92586e72ba600510962091b3c19bfc2ce2bf4fcae26379ed",
    "audit nu --dim 2 --trials 3 --seed 2 --samples 3":
        "01364f9229e6911b4b4b265a1e467a6eaf8c00292aa3f2d64fb150636674e746",
    "audit parity --dim 2 --trials 20 --seed 3 --parity-kind monochrome --n 6":
        "a2981e9d398b046271a97fa22396aa4a983aa536aa436c940d2b1bf773545ad5",
    "audit parity --dim 3 --trials 4 --seed 3 --parity-kind colourful_odd_d":
        "2888e9730219d62e71d85d284c8a341357614eebcaa068a06834e35e1685099f",
    "audit parity --dim 2 --trials 20 --seed 3 --parity-kind colourful_even_sizes":
        "1b6711c8763fa6b8d1eac1c0ea80efe06776fece7418f11ae29c595c57bbf500",
    "audit stats --dim 2 --trials 20 --seed 3":
        "e50e88e145558006c24d54bef6fbc55b38d8511d6b06381151cfc6dd141eb3bd",
}


def test_gen_and_audit_outputs_match_pinned_digests(capsys, tmp_path):
    got = {}
    for i, line in enumerate(GOLDEN_DIGESTS):
        argv = line.split()
        json_path, csv_path = tmp_path / f"{i}.json", tmp_path / f"{i}.csv"
        if argv[0] == "audit":
            argv += ["--json", str(json_path), "--csv", str(csv_path)]
        code, out, err = run(capsys, *argv)
        files = [p.read_text() if p.exists() else "" for p in (json_path, csv_path)]
        got[line] = hashlib.sha256("\0".join([str(code), out, err, *files]).encode()).hexdigest()
    assert got == GOLDEN_DIGESTS


@pytest.mark.parametrize("argv, payload", [
    (["depth", "--point", "1e99999999,0"], {"points": [[0, 1], [1, 0], [-1, -1]]}),
    (["depth", "--point", "0,0"], "{\"points\": [[0, 1], [1, 0], [-1, " + "9" * 5000 + "]]}"),
    (["gen", "sminus", "--dim", "2", "--epsilon", "abc"], None),
    (["gen", "sminus", "--dim", "2", "--epsilon", "1e-99999999"], None),
    (["audit", "parity", "--dim", "2", "--trials", "2",
      "--parity-kind", "colourful_even_sizes", "--sizes", "a,b"], None),
])
def test_oversized_or_malformed_numbers_are_input_errors(capsys, tmp_path, argv, payload):
    # Malformed numbers, an exponent that would build a 10^8-digit integer
    # and an integer literal beyond Python's 4300-digit limit all end as a
    # one-line input error.
    if payload is not None:
        path = tmp_path / "pts.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        argv = argv + ["--points", str(path)]
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error:")


# --------------------------------------------------------------------- fuzzing

# Coordinates and point lists are either well formed, so that the payload
# reaches the depth and hull code, or drawn from JSON-like junk.
good_coords = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-3/4", " 2 ", "1e1"]))
junk_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "x", "1/0", "1/-2", "nan", "inf", "1e99999999", "--1"]),
    st.text(alphabet="0123456789-+/.e ", max_size=8),
)
junk = st.recursive(
    junk_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["dimension", "colours", "points", "x"]), inner,
                        max_size=3),
    ),
    max_leaves=12,
)


@st.composite
def cli_calls(draw):
    """(argv, file payload) for one depth, cdepth, core or cells2d call on at
    most 8 points in dimension at most 3."""
    command = draw(st.sampled_from(["depth", "cdepth", "core", "cells2d"]))
    clean = draw(st.booleans())
    if clean:
        # Well formed throughout: enough points and colours for the command.
        dim = 2 if command == "cells2d" else draw(st.integers(1, 3))
        point = st.lists(good_coords, min_size=dim, max_size=dim)
        dimension = dim
        if command == "cells2d":
            # u, v and -(u + v), each scaled: around the origin unless u, v
            # are parallel.
            vec = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
            classes = []
            for _ in range(2):
                (a, b), (c, e) = draw(vec), draw(vec)
                s, t, w = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
                classes.append([[s * a, s * b], [t * c, t * e], [-w * (a + c), -w * (b + e)]])
        else:
            cls = st.lists(point, min_size=1, max_size=2 if dim == 3 else 3)
            n_classes = draw(st.integers(1 if command == "core" else dim + 1, 4))
            classes = draw(st.lists(cls, min_size=n_classes, max_size=n_classes)
                           .filter(lambda cs: sum(len(c) for c in cs) <= 8))
        if command == "depth":
            classes = [[q for c in classes for q in c]]
    else:
        dim = draw(st.integers(1, 3))
        point = st.one_of(st.lists(st.one_of(good_coords, junk_scalars), max_size=4), junk)
        dimension = draw(st.one_of(st.integers(-1, 4), junk_scalars))
        classes = draw(
            st.lists(st.lists(point, max_size=3), min_size=1, max_size=4)
            .filter(lambda cs: sum(len(c) for c in cs) <= 8)
        )
    if command == "depth" and draw(st.booleans()):
        payload = {"dimension": dimension, "points": [q for c in classes for q in c]}
    else:
        payload = {"dimension": dimension, "colours": classes}
    if not clean and draw(st.booleans()):
        payload = draw(junk)
    flag = "--points" if command == "depth" else "--config"
    argv = [command, flag, "PAYLOAD"]
    if command == "cells2d":
        if not clean and draw(st.booleans()):
            argv += ["--classes", *map(str, draw(st.lists(st.integers(-1, 4), min_size=2, max_size=2)))]
    else:
        good_query = st.lists(good_coords, min_size=dim, max_size=dim).map(
            lambda q: ",".join(map(str, q)))
        query = draw(good_query if clean else st.one_of(
            good_query, st.text(alphabet="0123456789-/,. e", max_size=10)))
        argv += ["--point", query]
        if command != "core":
            argv += draw(st.sampled_from([[], ["--mode", "closed"], ["--witnesses"]]))
    return argv, payload


@settings(max_examples=300, deadline=None)
@given(call=cli_calls())
def test_cli_fuzz_exits_zero_or_two(call):
    argv, payload = call
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "payload.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        argv = [path if a == "PAYLOAD" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse refuses the arguments
                code = e.code
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2), (argv, payload, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_repeated_planar_queries_reuse_the_points_certificate(tmp_path):
    # The points' side of the sweep's certificate is memoized per point set:
    # in one process, the second and third query on one file reuse it and
    # print the bytes of the first, which are those of a fresh process.
    path = tmp_path / "pts.json"
    rng = Random(9)
    path.write_text(json.dumps(
        {"points": [[rng.randint(-10**3, 10**3) for _ in range(2)] for _ in range(40)]}
    ))
    argv = ["depth", "--points", str(path), "--point", "1/3,-1/7"]
    _clean_plane.cache_clear()
    outs = []
    for _ in range(3):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        outs.append(out.getvalue())
    info = _clean_plane.cache_info()
    assert (info.hits, info.misses) == (2, 1)
    proc = cli_process(argv)
    assert proc.returncode == 0
    assert outs == [proc.stdout] * 3
    assert "degenerate: 0\n" in proc.stdout


def test_audit_with_a_violation_prints_its_report_and_exits_1(monkeypatch, capsys):
    real = cli.parity_audit
    monkeypatch.setattr(cli, "parity_audit", lambda *a, **k: real(*a, **k)._replace(violations=1))
    code, out, err = run(capsys, "audit", "parity", "--dim", "2", "--trials", "2")
    assert code == 1 and err == ""
    assert out.count("\n") == 1 and json.loads(out)["violations"] == 1
