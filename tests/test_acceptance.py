"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (or add -s to see the PASS
lines inline).  Tolerances and trial counts are pinned here; the parity and
bound suites use fixed seeds so every run is reproducible.
"""

import math
import time
from fractions import Fraction
from random import Random

from conftest import feasible_by_basis_enumeration, rand_point

from colourdepth.arrangements import (
    canonical_rotation,
    cell_depth_sequence,
    cyclic_equal,
    verify_cell_depth_lemma,
)
from colourdepth.audits import (
    PLANTED_TRIAL,
    depth_stats,
    mu_audit,
    nu_audit,
    parity_audit,
)
from colourdepth.constructions import (
    gen_identical,
    gen_random_core_config,
    gen_regular_ngon,
    gen_sminus,
    gen_splus,
    gen_sprime,
)
from colourdepth.depth import (
    ColourfulConfiguration,
    antipodal_cone_count,
    colourful_depth,
    core_depth_samples,
    in_convex_hull,
    monochrome_depth,
    zero_containing_count,
)
from colourdepth.exact import Point, in_general_position, origin
from colourdepth.sampling import random_core_class, random_points


def _report(num, detail, t0):
    print(f"criterion {num}: PASS ({time.perf_counter() - t0:.1f}s) {detail}")


def test_criterion_1_extremal_constructions():
    t0 = time.perf_counter()
    cases = [
        (lambda: gen_sminus(2), 5),
        (lambda: gen_sminus(3), 10),
        (lambda: gen_sprime(2), 5),
        (lambda: gen_sprime(3), 10),
        (lambda: gen_splus(1), 2),
        (lambda: gen_splus(2), 9),
        (lambda: gen_splus(3), 82),
        (lambda: gen_identical(1), 2),
        (lambda: gen_identical(2), 6),
        (lambda: gen_identical(3), 24),
    ]
    for build, want in cases:
        start = time.perf_counter()
        vc = build()
        elapsed = time.perf_counter() - start
        assert vc.claimed_depth_at_origin == want
        assert vc.verified
        assert colourful_depth(vc.config, origin(vc.config.dim), "open").count == want
        assert elapsed < 1.0, f"generator took {elapsed:.2f}s"
    _report(1, "extremal construction depths 5/10, 5/10, 2/9/82, 2/6/24", t0)


def test_criterion_2_regular_ngon_values():
    t0 = time.perf_counter()
    for n, want in [(3, 1), (5, 5), (7, 14), (9, 30)]:
        pts = gen_regular_ngon(n)
        assert monochrome_depth(pts, origin(2), "open").count == want
        assert want == (n**3 - n) // 24
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, "n-gon centre depths 1/5/14/30", t0)


def test_criterion_3_parity_suites():
    t0 = time.perf_counter()
    suites = [
        ("monochrome d=2 n=6", parity_audit("monochrome", 2, 1000, 101, n=6, keep_records=False)),
        ("monochrome d=3 n=7", parity_audit("monochrome", 3, 1000, 202, n=7, keep_records=False)),
        ("colourful odd d=3", parity_audit("colourful_odd_d", 3, 1000, 303, keep_records=False)),
        ("colourful even sizes d=2", parity_audit(
            "colourful_even_sizes", 2, 1000, 404, sizes=(2, 2, 2), keep_records=False)),
    ]
    for name, rep in suites:
        assert rep.violations == 0, f"{name}: {rep.violations} parity violations"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"parity suites took {elapsed:.0f}s"
    _report(3, "0 parity violations in 4x1000 trials", t0)


def test_criterion_4_oracle_equivalences():
    t0 = time.perf_counter()

    # (a) + (b): per-point cone counts vs zero-containing counts, and the
    # colour decomposition, over 500 nondegenerate random configurations
    # (general position together with the origin, so every colourful tuple is
    # affinely independent and every generator subset linearly independent).
    rng = Random(555)
    configs = 0
    while configs < 500:
        d = 2 if configs % 2 == 0 else 3
        classes = tuple(
            tuple(random_points(rng, d + 1, d, bound=100)) for _ in range(d + 1)
        )
        config = ColourfulConfiguration(d, classes)
        if not in_general_position(config.points() + [origin(d)]):
            continue
        rep = colourful_depth(config, origin(d), "open")
        assert rep.degenerate == 0 and rep.boundary == 0
        configs += 1
        for j in range(d + 1):
            per_point = []
            for k, v in enumerate(config.classes[j]):
                z = zero_containing_count(config, j, k, "open")
                cc = antipodal_cone_count(config, j, v)
                assert cc.degenerate == 0
                assert z == cc.count, "cone count mismatch"
                per_point.append(z)
            assert sum(per_point) == rep.count, "colour decomposition mismatch"

    # (c): propagated cell depths vs per-cell brute force on 500 valid pairs.
    rng = Random(777)

    def cross(a, b):
        (a0, a1), (b0, b1) = a, b
        return a0 * b1 - a1 * b0

    pairs = 0
    while pairs < 500:
        X = random_core_class(rng, 3, 2, bound=60)
        Y = random_core_class(rng, 3, 2, bound=60)
        dirs = X + Y
        if any(
            cross(dirs[i], dirs[j]) == 0 for i in range(6) for j in range(i + 1, 6)
        ):
            continue
        pairs += 1
        arr = cell_depth_sequence(X, Y)
        Xc, Yc = [x.coords for x in X], [y.coords for y in Y]
        for k in range(6):
            v = (arr.boundaries[k].direction + arr.boundaries[(k + 1) % 6].direction).coords
            brute = 0
            for x in Xc:
                for y in Yc:
                    det = cross(x, y)
                    a, b = cross(v, y), cross(x, v)
                    if det < 0:
                        a, b = -a, -b
                    brute += a >= 0 and b >= 0
            assert brute == arr.cell_depths[k], "propagated depth mismatch"

    # (d): hull membership vs exhaustive basic-solution feasibility.
    rng = Random(999)
    for trial in range(500):
        d = 2 if trial % 2 == 0 else 3
        n = rng.randint(d + 1, 6)
        S = [rand_point(rng, d, 8) for _ in range(n)]
        p = rand_point(rng, d, 8)
        assert in_convex_hull(p, S) == feasible_by_basis_enumeration(p, S)

    _report(4, "zero discrepancies in 4 oracle equivalences (500 instances each)", t0)


def test_criterion_5_cell_sequences():
    t0 = time.perf_counter()
    cfg = gen_sminus(2).config
    arr = cell_depth_sequence(cfg.classes[0], cfg.classes[1])
    assert canonical_rotation(arr.cell_depths) == (1, 2, 3, 4, 3, 2)

    def circle_point(angle_deg, digits=9):
        t = math.tan(math.radians(angle_deg) / 2)
        tf = Fraction(round(t * 10**digits), 10**digits)
        den = 1 + tf * tf
        return Point(((1 - tf * tf) / den, 2 * tf / den))

    X = [circle_point(a) for a in (90, 210, 330)]
    Y = [circle_point(a + 17) for a in (30, 150, 270)]
    arr2 = cell_depth_sequence(X, Y)
    assert cyclic_equal(arr2.cell_depths, (3, 2, 3, 2, 3, 2))

    rng = Random(1234)

    def cross(a, b):
        (a0, a1), (b0, b1) = a, b
        return a0 * b1 - a1 * b0

    families = set()
    pairs = 0
    while pairs < 500:
        A = random_core_class(rng, 3, 2, bound=60)
        B = random_core_class(rng, 3, 2, bound=60)
        dirs = A + B
        if any(
            cross(dirs[i], dirs[j]) == 0 for i in range(6) for j in range(i + 1, 6)
        ):
            continue
        pairs += 1
        rep = verify_cell_depth_lemma(cell_depth_sequence(A, B))
        assert rep.lemma_ok, f"cell depth law violated by {rep.sequence}"
        families.add(canonical_rotation(rep.sequence))
    _report(5, f"sequences (1,2,3,4,3,2)/(3,2,3,2,3,2); lemma holds on 500 pairs; "
               f"families seen: {sorted(families)}", t0)


def test_criterion_6_bound_audits():
    t0 = time.perf_counter()
    for d, lower, trials, samples in [(1, 2, 40, 6), (2, 5, 40, 8), (3, 10, 25, 6)]:
        rep = mu_audit(d, trials=trials, core_samples=samples, seed=42)
        assert rep.violations == 0
        assert rep.min_observed >= lower
        planted = [r for r in rep.records if r.trial == PLANTED_TRIAL]
        assert planted and planted[0].depth == lower, "planted trial must attain the bound"
        assert rep.min_observed == lower

    for d, target in [(1, 2), (2, 9)]:
        rep = nu_audit(d, trials=25, seed=77)
        assert rep.violations == 0
        assert rep.max_observed == target
        planted = [r for r in rep.records if r.trial == PLANTED_TRIAL]
        assert planted and planted[0].depth == target

    # every sampled strict core point has depth at least 2d
    for d, n_cfg in [(2, 250), (3, 250)]:
        for i in range(n_cfg):
            vc = gen_random_core_config(d, d + 1, seed=9000 + i)
            for depth, _ in core_depth_samples(vc.config, samples=3, seed=9000 + i):
                assert depth >= 2 * d, f"core point of depth {depth} < {2 * d}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"bound audits took {elapsed:.0f}s"
    _report(6, "min depths attain 2/5/10, max depths attain 2/9, "
               "500 configs respect the 2d bound", t0)


def test_criterion_7_mean_depth_band():
    t0 = time.perf_counter()
    rep = depth_stats(2, trials=2000, seed=2024, keep_records=False)
    mean = rep.extra["mean"]
    heuristic = 27 / 4
    assert abs(mean - heuristic) <= 0.15 * heuristic, (
        f"mean {mean} outside +-15% of {heuristic}"
    )
    _report(7, f"mean origin depth {mean:.3f} within 15% of {heuristic}", t0)
