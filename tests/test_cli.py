"""End-to-end CLI tests: subcommands, formats, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from colourdepth.cli import main
from colourdepth.serialization import load_config, save_config
from colourdepth.depth import ColourfulConfiguration
from colourdepth.exact import pt


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
