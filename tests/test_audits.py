"""Audit harness tests: determinism, partition invariance, report shapes."""

import json

import pytest

from colourdepth.audits import (
    CSV_HEADER,
    PLANTED_TRIAL,
    AuditReport,
    depth_stats,
    known_min_core_depth,
    mu_audit,
    nu_audit,
    parity_audit,
    write_csv,
)
from colourdepth.exact import InputError


def test_parity_monochrome_small_run():
    rep = parity_audit("monochrome", 2, trials=40, seed=3, n=6)
    assert rep.violations == 0
    assert all(r.depth % 2 == 0 for r in rep.records)


def test_parity_colourful_even_sizes_small_run():
    rep = parity_audit("colourful_even_sizes", 2, trials=25, seed=9)
    assert rep.violations == 0


def test_parity_colourful_odd_d_small_run():
    rep = parity_audit("colourful_odd_d", 3, trials=8, seed=1)
    assert rep.violations == 0


def test_parity_hypothesis_validation():
    with pytest.raises(InputError):
        parity_audit("monochrome", 2, trials=5, seed=0, n=7)  # n-d odd
    with pytest.raises(InputError):
        parity_audit("colourful_odd_d", 2, trials=5, seed=0)  # even d
    with pytest.raises(InputError):
        parity_audit("colourful_even_sizes", 2, trials=5, seed=0, sizes=(2, 3, 2))
    with pytest.raises(InputError):
        parity_audit("bogus", 2, trials=5, seed=0)


def test_parity_deterministic_and_partition_invariant():
    a = parity_audit("monochrome", 2, trials=10, seed=100, n=6)
    b = parity_audit("monochrome", 2, trials=10, seed=100, n=6)
    assert a == b
    assert a.summary_json() == b.summary_json()
    # trials [5, 10) recomputed as their own run: same seeds, same depths
    tail = parity_audit("monochrome", 2, trials=5, seed=105, n=6)
    assert [(r.seed, r.depth) for r in a.records[5:]] == [
        (r.seed, r.depth) for r in tail.records
    ]


@pytest.mark.parametrize("kind, d, kw", [
    ("monochrome", 2, {"n": 6}),
    ("colourful_even_sizes", 2, {}),
])
def test_parity_summary_does_not_depend_on_records(kind, d, kw):
    with_records = parity_audit(kind, d, 20, 5, **kw)
    without = parity_audit(kind, d, 20, 5, keep_records=False, **kw)
    assert without.records is None
    assert without.summary() == with_records.summary()
    assert with_records.max_observed == max(r.depth for r in with_records.records)


def test_mu_audit_d1():
    rep = mu_audit(1, trials=6, core_samples=6, seed=2)
    assert rep.violations == 0
    assert rep.min_observed == 2 == known_min_core_depth(1)
    assert any(r.trial == PLANTED_TRIAL for r in rep.records)


def test_mu_audit_d2_planted_attains_bound():
    rep = mu_audit(2, trials=5, core_samples=6, seed=7)
    assert rep.violations == 0
    assert rep.min_observed == 5
    planted = [r for r in rep.records if r.trial == PLANTED_TRIAL]
    assert planted and planted[0].depth == 5
    assert rep.reference_bounds == (5, 5)


def test_nu_audit_d1_exact():
    rep = nu_audit(1, trials=5, seed=11)
    assert rep.max_observed == 2
    assert rep.violations == 0


def test_nu_audit_d2_planted():
    rep = nu_audit(2, trials=4, seed=13)
    assert rep.max_observed == 9
    assert rep.violations == 0
    assert rep.reference_bounds == (9, 9)


def test_nu_audit_d3_evidence_only():
    # the d=3 maximum is conjectural: planted configuration attains 82, no
    # violation is flagged, and the reference bound is 3^4 + 1
    rep = nu_audit(3, trials=2, seed=19)
    assert rep.max_observed >= 82
    assert rep.reference_bounds == (82, 82)
    assert rep.violations == 0
    assert rep.extra["proven_max"] is None


def test_depth_stats_strict_core_trials_respect_minimum():
    # any clean trial whose origin is strictly in the core has depth >= 5
    rep = depth_stats(2, trials=150, seed=23, keep_records=True)
    hits = [r for r in rep.records if r.core_flag and r.gp_flag]
    assert hits  # this seed produces strict-core trials
    assert all(r.depth >= 5 for r in hits)


def test_depth_stats_shape():
    rep = depth_stats(1, trials=200, seed=17)
    assert rep.kind == "stats"
    # heuristic mean at d=1 is (d+1)^(d+1)/2^d = 2
    assert rep.extra["heuristic_mean"] == 2.0
    assert 1.0 < rep.extra["mean"] < 3.0


def test_summary_json_keys():
    rep = depth_stats(1, trials=10, seed=0)
    data = json.loads(rep.summary_json())
    for key in ("kind", "dim", "trials", "seed", "violations",
                "min_observed", "max_observed"):
        assert key in data


def test_csv_writer(tmp_path):
    rep = parity_audit("monochrome", 2, trials=4, seed=5, n=6)
    path = tmp_path / "out.csv"
    write_csv(rep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 5


def test_csv_requires_records():
    rep = depth_stats(1, trials=5, seed=0, keep_records=False)
    with pytest.raises(InputError):
        write_csv(rep, "/tmp/nope.csv")
