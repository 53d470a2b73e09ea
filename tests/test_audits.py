"""Audit harness tests: determinism, partition invariance, report shapes."""

import json
from functools import partial
from random import Random

import pytest

from colourdepth.audits import (
    CSV_HEADER,
    PLANTED_TRIAL,
    AuditReport,
    AuditViolation,
    TrialRecord,
    depth_stats,
    known_max_core_depth,
    known_min_core_depth,
    mu_audit,
    nu_audit,
    parity_audit,
    write_csv,
)
from colourdepth import audits
from colourdepth.cli import main
from colourdepth.constructions import (
    ConstructionError,
    gen_random_core_config,
    gen_sminus,
    gen_splus,
)
from colourdepth.depth import core_depth_samples, monochrome_depth
from colourdepth.exact import InputError, in_convex_hull, in_general_position, origin, pt
from colourdepth.sampling import DEFAULT_BOUND, random_point, random_points


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


def test_monochrome_core_flag_is_strict_hull_membership(monkeypatch):
    # A monochrome trial draws S and p in general position, where p is
    # interior to conv(S) exactly when its open depth is positive; the flag
    # it reports must be the strict hull test.
    drawn = []

    def spy(S, p, mode):
        drawn.append((S, p))
        return monochrome_depth(S, p, mode)

    monkeypatch.setattr(audits, "monochrome_depth", spy)
    flags = set()
    for d in (1, 2, 3, 4):
        for n in (d + 1, d + 2, d + 4):
            for seed in range(15):
                _, core = audits._monochrome_trial(Random(seed), d, n)
                S, p = drawn[-1]
                flag = core()
                assert flag == in_convex_hull(p, S, strict=True), (S, p)
                flags.add(flag)
    assert flags == {False, True}


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
    ("colourful_odd_d", 3, {"trials": 3}),
    ("stats", 2, {}),
])
def test_parity_summary_does_not_depend_on_records(kind, d, kw):
    # Parity audits and depth_stats share one trial loop: kept records add
    # each trial's strict core flag and change nothing in the summary.
    audit = partial(depth_stats, d) if kind == "stats" else partial(parity_audit, kind, d)
    kw = {"trials": 20, "seed": 5, **kw}
    with_records = audit(keep_records=True, **kw)
    without = audit(keep_records=False, **kw)
    assert without.records is None
    assert without.summary() == with_records.summary()
    depths = [r.depth for r in with_records.records]
    assert (with_records.min_observed, with_records.max_observed) == (min(depths), max(depths))


def test_known_min_core_depth_is_d_squared_plus_one():
    # Sarrabezolles (J. Combin. Theory Ser. A 130, 2015) proved mu(d) = d^2 + 1.
    for d in range(1, 9):
        assert known_min_core_depth(d) == d * d + 1


def test_mu_audit_refuses_negative_trials():
    with pytest.raises(InputError) as info:
        mu_audit(2, trials=-1, core_samples=2, seed=0)
    assert str(info.value) == "trials must be non-negative"


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
    # the planted configuration attains the proven maximum 3^4 + 1 = 82 and
    # nothing exceeds it
    rep = nu_audit(3, trials=2, seed=19)
    assert rep.max_observed == 82
    assert rep.reference_bounds == (82, 82)
    assert rep.violations == 0
    assert rep.extra["proven_max"] == 82


def test_known_max_core_depth_is_d_to_the_d_plus_one_plus_one():
    assert [known_max_core_depth(d) for d in (1, 2, 3, 4)] == [2, 9, 82, 1025]
    for d in (1, 2):
        assert nu_audit(d, trials=1, seed=0).extra["proven_max"] == known_max_core_depth(d)


@pytest.mark.parametrize("audit", [
    lambda: parity_audit("monochrome", 0, trials=1, seed=0, n=4),
    lambda: depth_stats(0, trials=1, seed=0),
    lambda: depth_stats(-1, trials=1, seed=0),
    lambda: mu_audit(0, trials=1, core_samples=2, seed=0),
    lambda: nu_audit(-1, trials=1, seed=0),
])
def test_audits_refuse_dimension_below_one(audit):
    with pytest.raises(InputError, match="dimension must be at least 1"):
        audit()


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


@pytest.mark.parametrize("audit, extreme", [
    (lambda: mu_audit(4, trials=0, core_samples=1, seed=0), "minimum"),
    (lambda: nu_audit(4, trials=0, seed=0), "maximum"),
])
def test_bound_audit_without_a_usable_trial_is_a_violation(monkeypatch, audit, extreme):
    # The planted configuration fails to construct at d = 4 (S- does; S+ is
    # made to) and no random trial is asked for, so nothing is measured.
    def fail(d):
        raise ConstructionError(f"splus(d={d}): made to fail")

    monkeypatch.setattr(audits, "gen_splus", fail)
    with pytest.raises(AuditViolation) as info:
        audit()
    assert str(info.value) == f"no usable trials in {extreme}-depth audit"


def test_mu_audit_counts_a_failed_planted_build_and_keeps_the_trials():
    rep = mu_audit(4, trials=1, core_samples=1, seed=0)
    assert rep.generation_failures == 1
    assert rep.records == (TrialRecord(0, 0, 209, True, True),)
    assert rep.violations == 0
    assert rep.min_observed == rep.max_observed == 209


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind, d", [
    ("splus", 1), ("sminus", 2), ("sminus", 3), ("splus", 2), ("splus", 3),
    ("random", 1), ("random", 2), ("random", 3),
])
def test_every_measured_configuration_samples_its_origin_first(kind, d, seed):
    # The bound audits measure only planted and random core configurations,
    # whose origin is strictly inside every colour hull and in general
    # position with the points, so the first core sample is the origin at
    # its verified depth, and a sample list is never empty.
    if kind == "random":
        vc = gen_random_core_config(d, d + 1, seed)
    else:
        vc = {"sminus": gen_sminus, "splus": gen_splus}[kind](d)
    first = core_depth_samples(vc.config, 1, seed)
    assert first[0] == (vc.claimed_depth_at_origin, origin(d))


@pytest.mark.parametrize("call, message", [
    (lambda: parity_audit("monochrome", 3, 1, 0, n=1), "n too small"),
    (lambda: parity_audit("colourful_even_sizes", 2, 1, 0, sizes=(2, 2)),
     "need at least 3 colour classes"),
    (lambda: depth_stats(2, 0, 0), "trials must be at least 1"),
    # The sample count is checked before any configuration is built, at
    # every dimension: S- fails to build at d = 4.
    (lambda: mu_audit(4, 0, 0, 0), "samples must be at least 1"),
    (lambda: nu_audit(2, 1, 0, samples=0), "samples must be at least 1"),
    (lambda: mu_audit(0, 1, 0, 0), "dimension must be at least 1"),
    (lambda: nu_audit(0, -1, 0, samples=0), "trials must be non-negative"),
])
def test_audit_refusals_name_the_bad_argument(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


def _general_position_monochrome_trial(rng, d, n):
    """The monochrome draw kept by a general-position test of S and p: the
    reference that the count's own certificate is compared with."""
    for _ in range(audits.MAX_TRIAL_ATTEMPTS):
        S = random_points(rng, n, d, DEFAULT_BOUND)
        p = random_point(rng, d, DEFAULT_BOUND)
        if in_general_position(S + [p]):
            rep = monochrome_depth(S, p, "open")
            return rep, lambda: rep.count > 0


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_parity_draws_match_the_general_position_rule(monkeypatch, d):
    # A draw whose count has no degenerate tuple and no boundary hit is kept.
    # General position of S plus p implies that, and a random rational p
    # avoids the spanned hyperplanes, so on fixed seeds both keep the same
    # draws, with the same records and core flags.
    got = [parity_audit("monochrome", d, 200, 7000, n=n) for n in (d + 2, d + 4)]
    monkeypatch.setattr(audits, "_monochrome_trial", _general_position_monochrome_trial)
    want = [parity_audit("monochrome", d, 200, 7000, n=n) for n in (d + 2, d + 4)]
    assert got == want


def test_monochrome_trial_is_kept_by_its_own_count(monkeypatch):
    # The first draw has three collinear points (a degenerate tuple) and is
    # drawn again.  In the second, p = (-1, 0) is on the line through (1, 0)
    # and (3, 0) but outside every triangle: no degenerate tuple and no
    # boundary hit, so it is kept, although p is not in general position
    # with S.
    draws = iter([
        ([pt(0, 0), pt(1, 1), pt(2, 2), pt(0, 3)], pt(1, 2)),
        ([pt(1, 0), pt(3, 0), pt(0, 2), pt(2, 5)], pt(-1, 0)),
    ])
    S, p = [], []

    def points(rng, n, d, bound):
        S[:], q = next(draws)
        p[:] = [q]
        return S

    monkeypatch.setattr(audits, "random_points", points)
    monkeypatch.setattr(audits, "random_point", lambda rng, d, bound: p[0])
    rep, core = audits._monochrome_trial(Random(0), 2, 4)
    assert next(draws, None) is None and not in_general_position(S + p)
    assert (rep.count, rep.degenerate, rep.boundary, core()) == (0, 0, 0, False)


@pytest.mark.parametrize("parity_kind, count, what", [
    ("monochrome", "monochrome_depth", "monochrome"),
    ("colourful_even_sizes", "colourful_depth", "colourful"),
])
def test_parity_draw_that_never_comes_clean_is_a_violation(monkeypatch, capsys, parity_kind,
                                                           count, what):
    # Every count reports a degenerate tuple, so no draw is kept, and after
    # MAX_TRIAL_ATTEMPTS draws the audit gives up.
    real, counted = getattr(audits, count), []

    def degenerate(*args):
        counted.append(args)
        return real(*args)._replace(degenerate=1)

    monkeypatch.setattr(audits, count, degenerate)
    monkeypatch.setattr(audits, "MAX_TRIAL_ATTEMPTS", 3)
    message = f"could not draw a clean {what} trial"
    with pytest.raises(AuditViolation) as info:
        parity_audit(parity_kind, 2, 1, 0)
    assert str(info.value) == message and len(counted) == 3
    argv = ["audit", "parity", "--dim", "2", "--trials", "1", "--parity-kind", parity_kind]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"audit violation: {message}\n"
