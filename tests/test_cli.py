"""End-to-end CLI tests: subcommands, formats, and exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from itertools import combinations
from math import comb
from pathlib import Path
from random import Random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from colourdepth.cli import main
from colourdepth.serialization import load_config, save_config
from colourdepth.depth import ColourfulConfiguration
from colourdepth.exact import pt
from colourdepth.sampling import random_core_class


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "colourdepth.cli", "cdepth", "--config", str(path), "--point", "0"],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=60,
    )
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
    root = Path(__file__).resolve().parent.parent

    def cli(*point_args):
        return subprocess.run(
            [sys.executable, "-m", "colourdepth.cli", command, flag, str(path), *point_args],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=60,
        )

    spaced, joined = cli("--point", "-1/2,0"), cli("--point=-1/2,0")
    assert spaced.returncode == joined.returncode == 0, spaced.stderr
    assert spaced.stdout == joined.stdout and spaced.stdout


@pytest.mark.parametrize("per_colour", ["0", "2"])
def test_gen_random_too_few_points_per_colour_is_input_error(tmp_path, per_colour):
    # 0 is a size like any other, not a missing option: it must reach the
    # generator's size check rather than fall back to the d+1 default.
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "colourdepth.cli", "gen", "random", "--dim", "2",
         "--points-per-colour", per_colour, "--out", str(tmp_path / "r.json")],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "r.json").exists()


def test_gen_random_refuses_an_oversized_enumeration_before_sampling(tmp_path):
    # 200 points per colour at d = 3 is 200^4 colourful tuples: the size is
    # refused at once, before any class is sampled or checked.
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "colourdepth.cli", "gen", "random", "--dim", "3",
         "--points-per-colour", "200", "--out", str(tmp_path / "r.json")],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "vertex tuples" in proc.stderr
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [
    ["gen", "random", "--dim", "0"],
    ["audit", "parity", "--dim", "0", "--trials", "2"],
    ["audit", "stats", "--dim", "0", "--trials", "2"],
])
def test_dimension_zero_is_one_line_input_error(argv):
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "colourdepth.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.strip().splitlines() == ["error: dimension must be at least 1"]


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
