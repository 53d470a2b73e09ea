"""Depth counting tests: frozen examples, counters, and cross-checks."""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial
from random import Random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import (
    core_candidates_by_fractions,
    degenerate_lattice_case,
    det_by_permutations,
    general_position_by_subsets,
    homogeneous,
    rand_point,
    rank_by_elimination,
)
from colourdepth import depth, exact
from colourdepth.constructions import (
    gen_identical,
    gen_random_core_config,
    gen_regular_ngon,
    gen_sminus,
    gen_splus,
)
from colourdepth.depth import (
    ColourfulConfiguration,
    CoreSampleError,
    DepthReport,
    _sweep_depth,
    antipodal_cone_count,
    colour_decomposition,
    colourful_depth,
    core_depth_samples,
    core_membership,
    min_core_depth_estimate,
    monochrome_depth,
    zero_containing_count,
)
from colourdepth.exact import (
    DegenerateConeError,
    InputError,
    Point,
    cone_contains,
    in_general_position,
    in_general_position_with,
    orientation,
    origin,
    point_in_simplex,
    pt,
)
from colourdepth.sampling import random_core_class, random_points


def config(dim, *classes):
    return ColourfulConfiguration.from_lists(dim, classes)


TRIANGLE = [pt(1, 0), pt(-1, 1), pt(-1, -1)]


def random_core_config(rng, d, size):
    return config(d, *(random_core_class(rng, size, d, bound=50) for _ in range(d + 1)))


# ------------------------------------------------------------------ monochrome


def test_monochrome_1d_segments():
    rep = monochrome_depth([pt(-1), pt(2), pt(5)], pt(0), "open")
    assert rep.count == 2  # segments (-1,2) and (-1,5)


def test_monochrome_outside_hull_is_zero():
    S = [pt(1, 0), pt(2, 0), pt(1, 1), pt(3, 2)]
    assert monochrome_depth(S, pt(-5, 0), "open").count == 0
    assert monochrome_depth(S, pt(-5, 0), "closed").count == 0


def test_monochrome_requires_enough_points():
    with pytest.raises(InputError):
        monochrome_depth([pt(0, 0), pt(1, 0)], pt(0, 0), "open")


def test_monochrome_witnesses_sorted_and_counted():
    S = [pt(-2), pt(-1), pt(1), pt(2)]
    rep = monochrome_depth(S, pt(0), "open", want_witnesses=True)
    assert rep.count == len(rep.witnesses) == 4
    assert list(rep.witnesses) == sorted(rep.witnesses)


def test_monochrome_open_le_closed_random():
    rng = Random(5)
    for _ in range(120):
        S = random_points(rng, 6, 2, bound=12)
        p = random_points(rng, 1, 2, bound=12)[0]
        ro = monochrome_depth(S, p, "open")
        rc = monochrome_depth(S, p, "closed")
        assert ro.count <= rc.count


def test_monochrome_boundary_counter():
    S = [pt(0, 0), pt(2, 0), pt(0, 2), pt(5, 5)]
    rep = monochrome_depth(S, pt(1, 0), "closed")  # on an edge
    assert rep.boundary >= 1


def test_degenerate_counter_sees_collinear_points_of_unequal_scale():
    # Scaled to integers one by one, (1/2, 1), (1, 1), (3/2, 1) become
    # (1, 2), (1, 1), (3, 2), which are not collinear; the points are.
    S = [pt(Fraction(1, 2), 1), pt(1, 1), pt(Fraction(3, 2), 1)]
    for mode in ("open", "closed"):
        rep = monochrome_depth(S, pt(0, 0), mode, want_witnesses=True)
        assert (rep.count, rep.degenerate, rep.boundary) == (0, 1, 0)
    cfg = config(2, S[:1], S[1:2], S[2:])
    rep = colourful_depth(cfg, pt(0, 0), "closed")
    assert (rep.count, rep.degenerate, rep.boundary) == (0, 1, 0)


def test_degenerate_counter_counts_affinely_dependent_tuples():
    rng = Random(41)
    for _ in range(200):
        S = [pt(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(6)]
        p = pt(Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-4, 4), 2))
        rep = monochrome_depth(S, p, "closed", want_witnesses=True)
        assert rep.degenerate == sum(
            1 for t in combinations(S, 3) if orientation(list(t)) == 0
        )


# ------------------------------------------------------------------- colourful


def test_identical_triangle_classes_give_factorial():
    cfg = config(2, TRIANGLE, TRIANGLE, TRIANGLE)
    for mode in ("open", "closed"):
        assert colourful_depth(cfg, pt(0, 0), mode).count == 6


def test_colourful_outside_every_hull_zero():
    cls = [pt(1, 0), pt(2, 1), pt(2, -1)]  # all x >= 1
    cfg = config(2, cls, cls, cls)
    assert colourful_depth(cfg, pt(0, 0), "open").count == 0


def test_colourful_needs_enough_colours():
    cfg = config(2, TRIANGLE, TRIANGLE)
    with pytest.raises(InputError):
        colourful_depth(cfg, pt(0, 0), "open")


def test_colourful_more_colours_than_needed():
    # r = 4 colours in d = 2: simplices choose 3 distinct colours
    cfg = config(2, TRIANGLE, TRIANGLE, TRIANGLE, TRIANGLE)
    rep = colourful_depth(cfg, pt(0, 0), "open", want_witnesses=True)
    assert rep.count == 4 * 6  # C(4,3) colour choices, 6 containing each
    for w in rep.witnesses:
        colours = [c for c, _ in w]
        assert colours == sorted(colours) and len(set(colours)) == 3


def test_colourful_witnesses_list_colour_subsets_then_points():
    # With more than d+1 colours, witnesses come by colour subset first, in
    # lexicographic order, and by points within one: not sorted, since
    # ((0, 1), (1, 0), (3, 2)) comes before ((0, 0), (2, 1), (3, 2)).
    cfg = config(2, TRIANGLE, TRIANGLE, TRIANGLE, TRIANGLE)
    rep = colourful_depth(cfg, pt(0, 0), "open", want_witnesses=True)
    assert rep.witnesses == (
        ((0, 0), (1, 1), (2, 2)), ((0, 0), (1, 2), (2, 1)), ((0, 1), (1, 0), (2, 2)),
        ((0, 1), (1, 2), (2, 0)), ((0, 2), (1, 0), (2, 1)), ((0, 2), (1, 1), (2, 0)),
        ((0, 0), (1, 1), (3, 2)), ((0, 0), (1, 2), (3, 1)), ((0, 1), (1, 0), (3, 2)),
        ((0, 1), (1, 2), (3, 0)), ((0, 2), (1, 0), (3, 1)), ((0, 2), (1, 1), (3, 0)),
        ((0, 0), (2, 1), (3, 2)), ((0, 0), (2, 2), (3, 1)), ((0, 1), (2, 0), (3, 2)),
        ((0, 1), (2, 2), (3, 0)), ((0, 2), (2, 0), (3, 1)), ((0, 2), (2, 1), (3, 0)),
        ((1, 0), (2, 1), (3, 2)), ((1, 0), (2, 2), (3, 1)), ((1, 1), (2, 0), (3, 2)),
        ((1, 1), (2, 2), (3, 0)), ((1, 2), (2, 0), (3, 1)), ((1, 2), (2, 1), (3, 0)),
    )


def test_colourful_witness_order_lexicographic():
    cfg = config(2, TRIANGLE, TRIANGLE, TRIANGLE)
    rep = colourful_depth(cfg, pt(0, 0), "open", want_witnesses=True)
    assert list(rep.witnesses) == sorted(rep.witnesses)
    assert rep.count == len(rep.witnesses)


def test_translation_invariance_of_count():
    rng = Random(9)
    cfg = random_core_config(rng, 2, 3)
    q = pt(Fraction(1, 7), Fraction(-2, 9))
    shifted = cfg.translated(q)
    a = colourful_depth(cfg, pt(0, 0), "open").count
    b = colourful_depth(shifted, q, "open").count
    assert a == b


# ------------------------------------------------------------------------ core


def test_core_membership_identical_config():
    cfg = config(2, TRIANGLE, TRIANGLE, TRIANGLE)
    assert core_membership(cfg, pt(0, 0), strict=True)


def test_core_membership_fails_on_shifted_class():
    right = [pt(1, 0), pt(2, 1), pt(2, -1)]
    cfg = config(2, TRIANGLE, TRIANGLE, right)
    assert not core_membership(cfg, pt(0, 0))


# ------------------------------------------------- zero counts and cone counts


def test_zero_count_decomposition_by_colour():
    rng = Random(21)
    for d in (2, 3):
        for _ in range(12):
            cfg = random_core_config(rng, d, d + 1)
            total = colourful_depth(cfg, origin(d), "open").count
            oracle = per_point_by_tuples(cfg, "open")
            for j in range(d + 1):
                counts = tuple(
                    zero_containing_count(cfg, j, k, "open")
                    for k in range(len(cfg.classes[j]))
                )
                assert counts == oracle[j]
                assert sum(counts) == total


def _decomposition_cases(rng, d):
    """Configurations with d+1 and d+2 colours: classes dealt from one
    `degenerate_lattice_case` set (repeated points, points on a hyperplane,
    three on a line, the origin on boundaries), random rational classes, and
    the identical classes of `gen_identical` (one more copy for d+2, below
    d = 4, where 5^5 tuples per count already cover it)."""
    for r in (d + 1, d + 2):
        for _ in range(5):
            S, _ = degenerate_lattice_case(rng, d, d + 4)
            yield ColourfulConfiguration(
                d, tuple(tuple(rng.choices(S, k=rng.randint(1, 3))) for _ in range(r))
            )
        yield ColourfulConfiguration(
            d, tuple(tuple(rand_point(rng, d) for _ in range(rng.randint(1, 3))) for _ in range(r))
        )
        if r == d + 1 or d < 4:
            yield ColourfulConfiguration(d, gen_identical(d).config.classes[:1] * r)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_colour_decomposition_matches_per_point_oracle(d):
    rng = Random(100 + d)
    for cfg in _decomposition_cases(rng, d):
        for mode in ("open", "closed"):
            rep, counts = colour_decomposition(cfg, mode)
            assert rep == colourful_depth(cfg, origin(d), mode)
            assert counts == per_point_by_tuples(cfg, mode), (cfg, mode)
            if cfg.num_classes == d + 1:
                assert all(sum(row) == rep.count for row in counts)


def test_colour_decomposition_of_identical_classes():
    # (d+1)! simplices, d! through each point, in both modes
    for d in (1, 2, 3):
        cfg = gen_identical(d).config
        for mode in ("open", "closed"):
            rep, counts = colour_decomposition(cfg, mode)
            assert rep.count == factorial(d + 1)
            assert set(counts) == {(factorial(d),) * (d + 1)}


def _tally_memo_cases(rng):
    """(configuration, query point, modes) for the enumeration memo: random
    rational configurations at d = 3 and 4 at a random point and at the
    origin, classes dealt from `degenerate_lattice_case` sets at their query
    point, and the first of those again with its classes as lists."""
    for d, sizes in ((3, (4, 4, 4, 4)), (3, (2, 3, 1, 2, 3)), (4, (2, 3, 2, 2, 3))):
        for _ in range(2):
            cfg = ColourfulConfiguration(
                d, tuple(tuple(rand_point(rng, d) for _ in range(k)) for k in sizes))
            yield cfg, rand_point(rng, d), ("open",)
            yield cfg, origin(d), ("open",)
    lattice = []
    for d in (1, 2, 3):
        for _ in range(6):
            S, p = degenerate_lattice_case(rng, d, d + 4)
            classes = tuple(tuple(rng.choices(S, k=rng.randint(1, 3))) for _ in range(d + 1))
            lattice.append((ColourfulConfiguration(d, classes), p, ("open", "closed")))
    yield from lattice
    cfg, p, modes = lattice[-1]
    yield ColourfulConfiguration(cfg.dim, [list(cls) for cls in cfg.classes]), p, modes


def test_tally_memo_gives_the_uncached_enumeration():
    # A cold call and a warm one must both equal `_count_colourful` run
    # without the memo, with the per-point tally it fills in place.
    rng = Random(47)
    kinds = set()
    for cfg, p, modes in _tally_memo_cases(rng):
        key = depth._class_rows(cfg)
        for mode in modes:
            tally = [0] * len(cfg.points())
            scaled = depth._translated_rows([q.row for q in cfg.points()], p.row)
            count, degenerate, boundary, _ = depth._count_colourful(
                cfg.class_sizes(), scaled, mode, False, tally)
            want = (count, degenerate, boundary, tuple(tally))
            report = DepthReport(mode, count, None, degenerate, boundary)
            depth._colourful_tally.cache_clear()
            assert depth._colourful_tally(key, p.row, mode) == want, (cfg, p, mode)
            assert depth._colourful_tally(key, p.row, mode) == want, (cfg, p, mode)
            info = depth._colourful_tally.cache_info()
            assert (info.hits, info.misses) == (1, 1)
            if cfg.dim != 2:  # the plane may take the sweep, which skips the memo
                assert colourful_depth(cfg, p, mode) == report
            kinds.add((mode, degenerate > 0, boundary > 0))
            if not any(p.row[:-1]):
                rep, counts = colour_decomposition(cfg, mode)
                assert rep == report
                assert counts == per_point_by_tuples(cfg, mode), (cfg, mode)
    assert {("open", False, False), ("open", True, False), ("closed", True, False)} <= kinds


def test_tally_memo_serves_a_core_trial_and_keeps_its_bound():
    # The origin count of `gen_random_core_config` is read again by the first
    # candidate of `core_depth_samples`; the memo keeps the latest query only.
    depth._colourful_tally.cache_clear()
    vc = gen_random_core_config(3, 4, 0)
    found = core_depth_samples(vc.config, 6, 0)
    assert found[0] == (vc.claimed_depth_at_origin, origin(3))
    assert depth._colourful_tally.cache_info().hits == 1
    rng = Random(48)
    for _ in range(10):
        colourful_depth(vc.config, rand_point(rng, 3))
    info = depth._colourful_tally.cache_info()
    assert info.currsize == info.maxsize == 1


def test_colour_decomposition_input_errors():
    with pytest.raises(InputError):
        colour_decomposition(config(2, TRIANGLE, TRIANGLE))
    with pytest.raises(InputError):
        colour_decomposition(config(1, [pt(-1)], [pt(1)]), "half-open")


def test_zero_count_equals_antipodal_cone_count():
    rng = Random(22)
    for d in (2, 3):
        for _ in range(12):
            cfg = random_core_config(rng, d, d + 1)
            for j in range(d + 1):
                for k, v in enumerate(cfg.classes[j]):
                    z = zero_containing_count(cfg, j, k, "open")
                    cc = antipodal_cone_count(cfg, j, v)
                    assert cc.degenerate == 0
                    assert z == cc.count


def test_antipodal_cone_count_1d_example():
    cfg = config(1, [pt(-1), pt(1)], [pt(-2), pt(2)])
    # colour 2 (index 1), v = 2: cones from colour 1 containing -2: ray of -1
    assert antipodal_cone_count(cfg, 1, pt(2)).count == 1


def test_antipodal_cone_count_refuses_a_missing_colour():
    cfg = config(1, [pt(-1), pt(1)], [pt(-2), pt(2)])
    with pytest.raises(InputError) as info:
        antipodal_cone_count(cfg, 5, pt(2))
    assert str(info.value) == "colour index 5 out of range"


def test_zero_count_is_zero_when_antipode_uncovered():
    # the antipode of (1,) lies outside every cone of the other colour
    cfg = config(1, [pt(-1), pt(1)], [pt(1), pt(2)])
    assert zero_containing_count(cfg, 0, 1, "open") == 0
    assert antipodal_cone_count(cfg, 0, pt(1)).count == 0


def test_antipodal_cone_count_is_cone_contains_count():
    # Lattice classes give dependent generator pairs and cone boundary hits.
    rng = Random(23)
    lattice = lambda: pt(rng.randint(-3, 3), rng.randint(-3, 3))  # noqa: E731
    for _ in range(60):
        cfg = config(2, *([lattice() for _ in range(3)] for _ in range(3)))
        for j in range(3):
            v = lattice()
            if not any(v.coords):
                continue
            count = degenerate = 0
            others = [c for c in range(3) if c != j]
            for gens in product(*(cfg.classes[c] for c in others)):
                try:
                    count += cone_contains(gens, -v)
                except DegenerateConeError:
                    degenerate += 1
            assert antipodal_cone_count(cfg, j, v) == (count, degenerate)


def test_antipodal_requires_nonzero():
    cfg = config(1, [pt(-1), pt(1)], [pt(-2), pt(2)])
    with pytest.raises(InputError):
        antipodal_cone_count(cfg, 0, pt(0))


@pytest.mark.parametrize("count", [
    lambda cfg: zero_containing_count(cfg, 0, 0),
    lambda cfg: antipodal_cone_count(cfg, 0, pt(1, 0)),
])
def test_counts_refuse_fewer_than_d_plus_one_colours(count):
    # Two classes at d = 2 hold no colourful triangle and no colourful cone
    # through a third colour: an input error, not a count of zero.
    with pytest.raises(InputError):
        count(config(2, TRIANGLE, TRIANGLE))


@pytest.mark.parametrize("count", [
    lambda mode: monochrome_depth(TRIANGLE, origin(2), mode),
    lambda mode: colourful_depth(config(2, TRIANGLE, TRIANGLE, TRIANGLE), origin(2), mode),
    lambda mode: zero_containing_count(config(2, TRIANGLE, TRIANGLE, TRIANGLE), 0, 0, mode),
])
def test_counts_refuse_unknown_mode(count):
    with pytest.raises(InputError):
        count("half-open")


def _lattice_points(rng, n, d):
    return [Point(rng.randint(-10**6, 10**6) for _ in range(d)) for _ in range(n)]


def test_monochrome_enumeration_above_budget_fails_at_once():
    S = _lattice_points(Random(5), 3000, 3)
    with pytest.raises(InputError, match=str(comb(3000, 4))):
        monochrome_depth(S, origin(3))


@pytest.mark.parametrize("count", [
    lambda cfg: colourful_depth(cfg, origin(3)),
    lambda cfg: zero_containing_count(cfg, 0, 0),
    colour_decomposition,
    lambda cfg: antipodal_cone_count(cfg, 0, pt(1, 0, 0)),
])
def test_colourful_enumeration_above_budget_fails_at_once(count):
    # 4 classes of 216: e_4 = 216^4 tuples for the depth, the decomposition
    # and the count through one point, which reads the decomposition;
    # e_3 = 216^3 = 10,077,696 cones for one antipode, and the d points from
    # the other classes that a count through one point checks first.
    assert 216**3 > depth.MAX_TUPLES
    rng = Random(6)
    cfg = config(3, *(_lattice_points(rng, 216, 3) for _ in range(4)))
    with pytest.raises(InputError, match="limit"):
        count(cfg)


def test_planar_sweep_is_not_budgeted():
    # C(400, 3) = 10,586,800 triples is over the enumeration budget, but a
    # clean planar input is swept, not enumerated.
    assert comb(400, 3) > depth.MAX_TUPLES
    S = random_points(Random(7), 400, 2)
    assert monochrome_depth(S, origin(2)).count > 0


def test_zero_count_index_errors():
    cfg = config(1, [pt(-1), pt(1)], [pt(-2), pt(2)])
    with pytest.raises(InputError):
        zero_containing_count(cfg, 2, 0)
    with pytest.raises(InputError):
        zero_containing_count(cfg, 0, 5)


# ------------------------------------------------------------ core depth bound


def test_min_core_depth_1d_example():
    cfg = config(1, [pt(-1), pt(1)], [pt(-2), pt(2)])
    est, witness = min_core_depth_estimate(cfg, samples=8, seed=1)
    assert est == 2
    assert witness.dim == 1


def test_min_core_depth_identical_config():
    cfg = config(2, TRIANGLE, TRIANGLE, TRIANGLE)
    est, _ = min_core_depth_estimate(cfg, samples=6, seed=3)
    assert est == 6


def test_min_core_depth_deterministic():
    rng = Random(31)
    cfg = random_core_config(rng, 2, 3)
    a = min_core_depth_estimate(cfg, samples=10, seed=42)
    b = min_core_depth_estimate(cfg, samples=10, seed=42)
    assert a == b


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("extra", [0, 2])
def test_core_sample_candidates_match_fraction_mixtures(monkeypatch, d, extra):
    # Every candidate first meets one strict core test, so a spy there sees
    # them all; the integer mixtures must give the oracle's points in its
    # order.  The spy rejects each one, so nothing is counted.
    rng = Random(40 + d + extra)
    candidates = []
    monkeypatch.setattr(depth, "core_membership",
                        lambda cfg, p, strict=False: candidates.append(p))
    for seed, bound in ((0, 10_000), (1, 10_000), (2, 7), (3, 1)):
        cfg = random_core_config(rng, d, d + 1 + extra)
        samples = 6 if d == 2 else 3
        candidates.clear()
        assert core_depth_samples(cfg, samples, seed, bound) == []
        assert candidates == core_candidates_by_fractions(cfg, samples, seed, bound)


def test_core_depth_samples_match_fraction_mixtures():
    # The oracle keeps strict core candidates in general position with the
    # points, a stricter rule than the sampler's own count certificate (no
    # boundary hit); on these configurations and seeds both keep the same.
    rng = Random(47)
    configs = [random_core_config(rng, d, size)
               for d, size in ((1, 2), (1, 4), (2, 3), (2, 5), (3, 4))]
    configs += [gen_random_core_config(d, d + 1, 9000 + s).config
                for d in (1, 2, 3) for s in range(10)]
    for cfg in configs:
        pts = cfg.points()
        for seed in range(3):
            expected = [
                (colourful_depth(cfg, q, "open").count, q)
                for q in core_candidates_by_fractions(cfg, 8, seed)
                if core_membership(cfg, q, strict=True) and in_general_position_with(pts, q)
            ]
            assert core_depth_samples(cfg, 8, seed) == expected


def test_core_samples_are_kept_by_their_own_count():
    # The origin is strictly inside every colour hull and on the line of the
    # colour-0 points (1,1) and (-1,-1), which is no colourful edge: the
    # count has no boundary hit, so the origin is kept at its depth.
    classes = [[(1, 1), (-1, -1), (1, -2), (-2, 1)],
               [(3, 1), (-1, 4), (-3, -5)], [(-4, 2), (2, 5), (1, -6)]]
    cfg = ColourfulConfiguration.from_lists(2, classes)
    assert not in_general_position_with(cfg.points(), origin(2))
    assert colourful_depth(cfg, origin(2), "open").boundary == 0
    assert core_depth_samples(cfg, 1, 0)[0] == (10, origin(2))
    # With (-1,-1) in class 1 that line is a colourful edge through the
    # origin, so the origin is dropped.
    classes[1].append(classes[0].pop(1))
    cfg = ColourfulConfiguration.from_lists(2, classes)
    assert core_membership(cfg, origin(2), strict=True)
    assert colourful_depth(cfg, origin(2), "open").boundary == 3
    assert origin(2) not in [q for _, q in core_depth_samples(cfg, 1, 0)]


def test_min_core_depth_empty_core_error():
    right = [pt(1, 0), pt(2, 1), pt(2, -1)]
    left = [pt(-1, 0), pt(-2, 1), pt(-2, -1)]
    up = [pt(0, 1), pt(1, 2), pt(-1, 2)]
    cfg = config(2, right, left, up)
    with pytest.raises(CoreSampleError):
        min_core_depth_estimate(cfg, samples=5, seed=0)


def test_strict_core_point_depth_at_least_two_d():
    rng = Random(33)
    for d in (2, 3):
        for _ in range(8):
            cfg = random_core_config(rng, d, d + 1)
            rep = colourful_depth(cfg, origin(d), "open")
            if rep.degenerate == 0 and rep.boundary == 0:
                assert rep.count >= 2 * d


# --------------------------------------------------------------- planar sweep


def rows_and_vectors(S, p):
    """The rows of the points, and the points translated to p as integer
    vectors (s * (q - p) for some s > 0, read off the row of q - p)."""
    return [q.row for q in S], [(q - p).row[:-1] for q in S]


def swept(S, p):
    """The sweep's monochrome answer, or None where it falls back."""
    return _sweep_depth(*rows_and_vectors(S, p))


def swept_colourful(cfg, p):
    return _sweep_depth(*rows_and_vectors(cfg.points(), p),
                        [c for c, cls in enumerate(cfg.classes) for _ in cls])


def enumerated(counter, *args):
    """The enumeration's report: asking for witnesses always enumerates."""
    rep = counter(*args, want_witnesses=True)
    assert len(rep.witnesses) == rep.count
    return rep


def fields(rep):
    return rep.mode, rep.count, rep.degenerate, rep.boundary


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=30)
lattice_ints = st.integers(min_value=-3, max_value=3).map(Fraction)
half_ints = st.integers(min_value=-7, max_value=7).map(lambda k: Fraction(k, 2))
modes = st.sampled_from(["open", "closed"])


def plane_points(coord):
    return st.tuples(coord, coord).map(Point)


# Clean rationals, where the sweep runs, and small-integer lattices with
# half-integer queries, where most inputs fall back.
inputs = st.one_of(
    st.tuples(st.just(rationals), plane_points(rationals)),
    st.tuples(st.just(lattice_ints), plane_points(half_ints)),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), mode=modes)
def test_sweep_matches_enumeration_monochrome(data, mode):
    coord, p = data.draw(inputs)
    S = data.draw(st.lists(plane_points(coord), min_size=3, max_size=9))
    rep = monochrome_depth(S, p, mode)
    oracle = enumerated(monochrome_depth, S, p, mode)
    assert fields(rep) == fields(oracle)
    assert rep.witnesses is None
    fast = swept(S, p)
    event("fallback" if fast is None else "sweep")
    if fast is not None:
        assert fast == oracle.count and oracle.degenerate == oracle.boundary == 0


@settings(max_examples=200, deadline=None)
@given(data=st.data(), mode=modes, r=st.integers(min_value=3, max_value=4))
def test_sweep_matches_enumeration_colourful(data, mode, r):
    coord, p = data.draw(inputs)
    classes = [data.draw(st.lists(plane_points(coord), min_size=1, max_size=4))
               for _ in range(r)]
    cfg = config(2, *classes)
    rep = colourful_depth(cfg, p, mode)
    oracle = enumerated(colourful_depth, cfg, p, mode)
    assert fields(rep) == fields(oracle)
    assert rep.witnesses is None
    fast = swept_colourful(cfg, p)
    event("fallback" if fast is None else "sweep")
    if fast is not None:
        assert fast == oracle.count and oracle.degenerate == oracle.boundary == 0


def test_sweep_runs_on_clean_rational_input():
    rng = Random(8)
    for _ in range(50):
        S = random_points(rng, 12, 2, bound=1000)
        p = random_points(rng, 1, 2, bound=1000)[0]
        assert swept(S, p) == enumerated(monochrome_depth, S, p, "open").count


@pytest.mark.parametrize("n", [3, 5, 7, 9, 61])
def test_sweep_odd_ngon_centre(n):
    S = gen_regular_ngon(n)
    assert swept(S, origin(2)) == (n**3 - n) // 24
    assert monochrome_depth(S, origin(2), "closed").count == (n**3 - n) // 24


@pytest.mark.parametrize("gen,value", [(gen_sminus, 5), (gen_splus, 9)])
def test_sweep_extremal_configurations(gen, value):
    cfg = gen(2).config
    assert swept_colourful(cfg, origin(2)) == value
    assert colourful_depth(cfg, origin(2), "open").count == value


# p = 0 throughout: each input breaks one condition of a clean plane.
FALLBACKS = {
    "zero_vector": [pt(0, 0), pt(3, 1), pt(-2, 3), pt(-1, -4)],
    "antipodal_pair": [pt(2, 1), pt(-2, -1), pt(-1, 3), pt(1, -5)],
    "parallel_pair": [pt(2, 1), pt(4, 2), pt(-1, 3), pt(1, -5)],
    "three_collinear": [pt(1, 1), pt(2, 1), pt(3, 1), pt(-1, -3)],
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_sweep_falls_back_to_enumeration(name):
    S = FALLBACKS[name]
    assert swept(S, origin(2)) is None
    cfg = config(2, S[:2], S[2:3], S[3:])
    assert swept_colourful(cfg, origin(2)) is None
    for mode in ("open", "closed"):
        assert fields(monochrome_depth(S, origin(2), mode)) == fields(
            enumerated(monochrome_depth, S, origin(2), mode))
        assert fields(colourful_depth(cfg, origin(2), mode)) == fields(
            enumerated(colourful_depth, cfg, origin(2), mode))


# p = 0 throughout.  The points are in general position, so the points'
# certificate passes and the query point alone keeps the sweep from running.
QUERY_ON_A_LINE = {
    # 0 between (-2, -1) and (4, 2): opposite rays, not neighbours in the
    # angular order, found where the half-turn pointer stops.
    "on_a_segment": [pt(-2, -1), pt(4, 2), pt(1, 3), pt(-1, 5), pt(3, -4), pt(-3, 1)],
    # 0 beyond (2, 1) on the line through (2, 1) and (6, 3): one ray.
    "on_the_line_outside_the_segment": [pt(2, 1), pt(6, 3), pt(-1, 3), pt(1, -5), pt(-4, -1)],
    "equal_to_a_point": [pt(0, 0), pt(3, 1), pt(-2, 3), pt(-1, -4), pt(5, -2)],
    # (1, 2) and (3, 6) on one ray, the others around the query.
    "two_points_on_one_ray": [pt(-3, 1), pt(1, 2), pt(3, 6), pt(2, -3), pt(-1, -3), pt(4, 1)],
}


@pytest.mark.parametrize("name", sorted(QUERY_ON_A_LINE))
def test_query_on_a_line_through_two_points_is_enumerated(name):
    S = QUERY_ON_A_LINE[name]
    assert in_general_position(S) and not in_general_position_with(S, origin(2))
    assert depth._clean_plane(tuple(q.row for q in S))
    assert swept(S, origin(2)) is None
    cfg = config(2, S[0::3], S[1::3], S[2::3])
    assert swept_colourful(cfg, origin(2)) is None
    for mode in ("open", "closed"):
        assert fields(monochrome_depth(S, origin(2), mode)) == fields(
            enumerated(monochrome_depth, S, origin(2), mode))
        assert fields(colourful_depth(cfg, origin(2), mode)) == fields(
            enumerated(colourful_depth, cfg, origin(2), mode))


def test_collinear_points_away_from_the_query_are_enumerated():
    S = [pt(1, 1), pt(2, 3), pt(3, 5), pt(-2, 1), pt(1, -4)]
    p = pt(-1, 0)
    assert in_general_position_with(S, p) and not depth._clean_plane(tuple(q.row for q in S))
    assert swept(S, p) is None
    for mode in ("open", "closed"):
        rep = monochrome_depth(S, p, mode)
        assert rep.degenerate > 0
        assert fields(rep) == fields(enumerated(monochrome_depth, S, p, mode))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_a_zero_vector_stops_the_sweep_at_every_position(n):
    # A zero vector has a zero cross product with whichever vector is next
    # to it in the angular order, so the sweep itself refuses it: a query
    # equal to one of the points is never swept, wherever the point stands.
    rng = Random(n)
    others = [(q.row[0], q.row[1]) for q in random_points(rng, n - 1, 2, bound=50)]
    assert depth._half_turns(others, [0] * (n - 1), 1) is not None
    for k in range(n):
        vecs = others[:k] + [(0, 0)] + others[k:]
        assert depth._half_turns(vecs, [0] * n, 1) is None
        assert depth._half_turns(vecs, [i % 3 for i in range(n)], 3) is None
        S = [Point(v) for v in vecs]
        rows = [q.row for q in S]
        assert _sweep_depth(rows, vecs) is None
        assert _sweep_depth(rows, vecs, [i % 3 for i in range(n)]) is None
        if n >= 3:
            for mode in ("open", "closed"):
                assert fields(monochrome_depth(S, origin(2), mode)) == fields(
                    enumerated(monochrome_depth, S, origin(2), mode))


@pytest.mark.parametrize("call, message", [
    (lambda: ColourfulConfiguration(2, ()), "need at least one colour class"),
    (lambda: ColourfulConfiguration(2, ((pt(1, 0),), ())),
     "every colour class needs at least one point"),
    (lambda: ColourfulConfiguration(2, ((pt(1, 0, 0),),)),
     "point dimension 3 does not match dim 2"),
    (lambda: monochrome_depth([], pt(0, 0)), "empty point set"),
    (lambda: monochrome_depth([pt(1, 0), pt(0, 1), pt(1, 1, 1)], pt(0, 0)),
     "dimension mismatch between S and p"),
    (lambda: colourful_depth(gen_sminus(2).config, pt(0, 0, 0)),
     "query point dimension does not match configuration"),
    (lambda: core_depth_samples(gen_sminus(2).config, 0, 0), "samples must be at least 1"),
    (lambda: core_depth_samples(gen_sminus(2).config, 3, 0, 0), "bound must be at least 1"),
])
def test_depth_refusals_name_the_bad_argument(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


def test_clean_plane_is_the_planar_pencil(monkeypatch):
    # The plane has one general-position solver, the line pass of `exact`:
    # `in_general_position` runs it at d = 2 and the sweep reads it through
    # the memo `_clean_plane`.  Both are checked against the pencil on the
    # transposed rows and the determinant of every triple.  Fewer than three
    # points are in general position, but the sweep's certificate refuses
    # two equal ones.  The sweep's whole certificate, with the query side
    # read from the angular order, is general position of the points and
    # the query point.  `in_general_position` reaches neither the pencil
    # nor the memo in the plane.
    pencil = exact._pencil
    calls = []
    monkeypatch.setattr(exact, "_pencil", lambda *a: calls.append(a) or pencil(*a))
    one, two = [pt(1, 2)], [pt(1, 2), pt(1, 2)]
    assert in_general_position(one) and in_general_position(two) and not calls
    assert depth._clean_plane(tuple(q.row for q in one))
    assert not depth._clean_plane(tuple(q.row for q in two))
    rng = Random(23)
    kinds = {True: 0, False: 0}
    for trial in range(400):
        n = rng.randint(1, 9)
        S = [rand_point(rng, 2, 9) for _ in range(n)]
        p = rand_point(rng, 2, 9)
        kind = trial % 4 if n > 1 else 3
        if kind == 1:  # S[b] on the line through S[a] and p or a third point
            a, b, c = rng.sample(range(n), 3) if n > 2 else (0, 1, None)
            base = p if c is None or rng.randrange(2) else S[c]
            t = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            S[b] = Point(x + t * (x - y) for x, y in zip(base.coords, S[a].coords))
        elif kind == 2:  # a repeated point
            a, b = rng.sample(range(n), 2)
            S[b] = S[a]
        elif kind == 3:  # p is one of the points
            p = rng.choice(S)
        rows = tuple(q.row for q in S)
        want = general_position_by_subsets(S)
        assert pencil([list(col) for col in zip(*rows)]) == want, S
        calls.clear()  # the pencil recurses through the spy
        info = depth._clean_plane.cache_info()
        assert in_general_position(S) == want, S
        with_p = in_general_position(S + [p])
        assert depth._clean_plane.cache_info() == info and not calls
        clean = swept(S, p) is not None
        assert clean == with_p == general_position_by_subsets(S + [p]), (S, p)
        assert depth._clean_plane(rows) == (want and len(set(S)) == n), S
        kinds[clean] += 1
    assert min(kinds.values()) > 50
    assert in_general_position([pt(1), pt(-2), pt(3)]) and calls
    calls.clear()
    assert not in_general_position([pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 0), pt(0, 0, 0)]) and calls


# The points' certificate is memoized; each case is asked cold, then warm.
MEMO_CASES = {
    "clean": ([pt(3, 1), pt(-1, 3), pt(-2, -3), pt(5, -1), pt(1, 5), pt(-5, 2)], pt(1, 1)),
    # a collinear triple away from the query: a cached False still enumerates
    "collinear_away": ([pt(1, 1), pt(2, 3), pt(3, 5), pt(-2, 1), pt(1, -4)], pt(-1, 0)),
    "query_on_a_line": (QUERY_ON_A_LINE["on_a_segment"], origin(2)),
}


@pytest.mark.parametrize("name", sorted(MEMO_CASES))
def test_memoized_certificate_gives_the_cold_reports(name):
    S, p = MEMO_CASES[name]
    cfg = config(2, S[0::3], S[1::3], S[2::3])
    for counter, args in ((monochrome_depth, (S, p)), (colourful_depth, (cfg, p))):
        for mode in ("open", "closed"):
            depth._clean_plane.cache_clear()
            cold = counter(*args, mode)
            warm = counter(*args, mode)
            assert warm == cold
            assert fields(cold) == fields(enumerated(counter, *args, mode))
            info = depth._clean_plane.cache_info()
            if name == "query_on_a_line":  # the query side refuses first
                assert (info.hits, info.misses) == (0, 0)
            else:
                assert (info.hits, info.misses) == (1, 1)
            assert (cold.degenerate > 0) == (name == "collinear_away")


def test_one_point_set_has_one_memo_key_however_spelled():
    S = [pt(3, 1), pt(-1, 3), pt(-2, -3), pt(4, -1)]
    respelled = [pt(Fraction(6, 2), "2/2"), pt("-3/3", "6/2"), pt("-4/2", -3), pt(4, "-3/3")]
    depth._clean_plane.cache_clear()
    assert monochrome_depth(S, origin(2)) == monochrome_depth(respelled, origin(2))
    info = depth._clean_plane.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_memo_holds_at_most_its_bound_of_point_sets():
    # An audit draws a fresh set per trial; the memo keeps the most recent.
    depth._clean_plane.cache_clear()
    rng = Random(31)
    for _ in range(200):
        S = random_points(rng, 5, 2, bound=1000)
        monochrome_depth(S, random_points(rng, 1, 2, bound=1000)[0])
    info = depth._clean_plane.cache_info()
    assert info.misses == 200 and info.currsize == info.maxsize == 128


def test_witnesses_never_take_the_sweep(monkeypatch):
    S = gen_regular_ngon(7)
    cfg = gen_sminus(2).config
    monkeypatch.setattr(depth, "_sweep_depth", lambda *a: pytest.fail("sweep ran"))
    rep = monochrome_depth(S, origin(2), "open", want_witnesses=True)
    assert rep.count == len(rep.witnesses) == 14
    rep = colourful_depth(cfg, origin(2), "open", want_witnesses=True)
    assert rep.count == len(rep.witnesses) == 5


# ------------------------------------------------------------ block engine


def per_tuple(p, tuples, mode):
    """(count, witnesses, degenerate, boundary) from one `point_in_simplex`
    call per (witness, vertices) pair and a Leibniz degeneracy test."""
    count, witnesses, degenerate, boundary = 0, [], 0, 0
    for witness, verts in tuples:
        if det_by_permutations([homogeneous(q) for q in verts]) == 0:
            degenerate += 1
            hit = mode == "closed" and point_in_simplex(p, verts, "closed")
        else:
            is_open = point_in_simplex(p, verts, "open")
            is_closed = point_in_simplex(p, verts, "closed")
            boundary += is_closed and not is_open
            hit = is_open if mode == "open" else is_closed
        if hit:
            count += 1
            witnesses.append(witness)
    return count, tuple(witnesses), degenerate, boundary


def per_point_by_tuples(cfg, mode):
    """For each point of cfg, class by class, the counted colourful
    simplices at the origin that pick it, from `per_tuple`'s witnesses."""
    hits = Counter(pick for w in per_tuple(origin(cfg.dim), colourful_tuples(cfg), mode)[1]
                   for pick in w)
    return tuple(tuple(hits[c, k] for k in range(len(cls))) for c, cls in enumerate(cfg.classes))


def colourful_tuples(cfg):
    """The (witness, vertices) pairs of the colourful tuples of cfg, in the
    order of its witness lists."""
    return [
        (tuple(zip(colours, picks)), [cfg.classes[c][i] for c, i in zip(colours, picks)])
        for colours in combinations(range(cfg.num_classes), cfg.dim + 1)
        for picks in product(*(range(len(cfg.classes[c])) for c in colours))
    ]


def answers(rep):
    return rep.count, rep.witnesses, rep.degenerate, rep.boundary


def counters(rep):
    return rep.count, rep.degenerate, rep.boundary


def mixed_scale_case(rng, d, n_max):
    """d+1 to n_max points with small numerators over a denominator of 1 to
    3 per point, so that the translated points have unequal scales, and a
    query point that is one of them, the midpoint of two, or the origin."""
    dens = [rng.randint(1, 3) for _ in range(rng.randint(d + 1, n_max))]
    S = [Point(Fraction(rng.randint(-3, 3), den) for _ in range(d)) for den in dens]
    a, b = rng.choice(S), rng.choice(S)
    return S, rng.choice([a, Point((x + y) / 2 for x, y in zip(a.coords, b.coords)), origin(d)])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_block_counts_match_per_tuple_loop(d):
    # Counting reads the cofactors of a block of tuples from rows of minors
    # shared by the faces of its first d points; each tuple's answer and
    # both counters must be those of a lone simplex test.  Trials cycle
    # through small-integer lattice input, the origin among the points of a
    # random core configuration, where most simplices are hit, and points of
    # unequal scales.  Planar counts ask for witnesses, so they enumerate too.
    rng = Random(50 + d)
    for trial in range({1: 36, 2: 36, 3: 60, 4: 24}[d]):
        if trial % 3 == 1:
            core = random_core_config(rng, d, d + 1)
            S, p = [*core.classes[0], *core.classes[1][:3]], origin(d)
            cfg = config(d, *(cls[:2] for cls in core.classes))
        else:
            lattice = trial % 3 == 0
            S, p = (degenerate_lattice_case if lattice else mixed_scale_case)(rng, d, d + 4)
            r = d + 1 + trial % 4 // 2
            cfg = config(d, *(S[c::r] or [p] for c in range(r)))
        for mode in ("open", "closed"):
            rep = monochrome_depth(S, p, mode, want_witnesses=True)
            tuples = [(sub, [S[i] for i in sub]) for sub in combinations(range(len(S)), d + 1)]
            assert answers(rep) == per_tuple(p, tuples, mode), (S, p, mode)
            assert counters(monochrome_depth(S, p, mode)) == counters(rep)

        r = cfg.num_classes
        for mode in ("open", "closed"):
            rep = colourful_depth(cfg, p, mode, want_witnesses=True)
            tuples = colourful_tuples(cfg)
            assert answers(rep) == per_tuple(p, tuples, mode), (cfg, p, mode)
            assert counters(colourful_depth(cfg, p, mode)) == counters(rep)

        # The fixed colour is first, last and in between among the classes.
        centred = cfg.translated(-p)
        for colour, cls in enumerate(centred.classes):
            others = [c for c in range(r) if c != colour]
            for k, q in enumerate(cls):
                tuples = [
                    (None, [q, *(centred.classes[c][i] for c, i in zip(colours, picks))])
                    for colours in combinations(others, d)
                    for picks in product(*(range(len(centred.classes[c])) for c in colours))
                ]
                for mode in ("open", "closed"):
                    assert zero_containing_count(centred, colour, k, mode) == (
                        per_tuple(origin(d), tuples, mode)[0]
                    ), (cfg, p, colour, k, mode)


def branch_case(d):
    """Integer points, with the query at the origin, whose blocks reach every
    branch of the block classification.  A tuple's block is its first d
    keys, so the order of the points decides the blocks:

    - top = e_d, then the facet e_1 .. e_{d-1}, -(e_1 + ... + e_{d-1}) of
      the hyperplane x_d = 0, with the origin inside it: top and the facet
      put the origin on a boundary, in a block through top with t_d != 0;
    - 2 e_1 in that hyperplane and bottom = -e_d after the facet: the block
      of the facet has t_d = 0 and holds a degenerate tuple, a closed hit,
      and a boundary one;
    - low = (-1, ..., -1): with top and e_1 .. e_{d-1}, an open hit;
    - d+1 points of the moment curve in x_d = 1, on a hyperplane away from
      the origin: degenerate tuples whose cofactors are all nonzero.  The
      first is top again, so a block through both has t_d = 0 and holds
      degenerate tuples with a nonzero cofactor, closed misses;
    - ones = e_1 + ... + e_{d-1}: with e_1 .. e_{d-1} and 2 e_1 it lies in
      x_d = 0 on one side of the origin, a closed miss whose cofactors are
      all zero (the facet with 2 e_1 is such a tuple that is a hit)."""
    e = [(0,) * i + (1,) + (0,) * (d - 1 - i) for i in range(d)]
    facet = [*e[:-1], (-1,) * (d - 1) + (0,)]
    curve = [tuple(t**i for i in range(1, d)) + (1,) for t in range(d + 1)]
    rows = [e[-1], *facet, (2,) + (0,) * (d - 1), (0,) * (d - 1) + (-1,), (-1,) * d, *curve,
            (1,) * (d - 1) + (0,)]
    return [Point(r) for r in rows]


def reached_branches(S, d):
    """The branches of the block classification that the monochrome blocks
    of S reach at the origin, each tuple classified by the per-tuple oracle
    and its block's t_d and cofactors read from `_cofactor_blocks`."""
    n, o, seen, flat = len(S), origin(d), set(), set()
    blocks = ((P, range(P[-1] + 1, n)) for P in combinations(range(n - 1), d))
    for P, R, td, sl in depth._cofactor_blocks(blocks, [q.row[:-1] for q in S], range(1, n + 1)):
        kinds = set()
        for k, t in zip(R, zip(*sl)):
            verts = [S[q] for q in P + (k,)]
            if det_by_permutations([homogeneous(q) for q in verts]) == 0:
                kinds.add("degenerate")
                hit = point_in_simplex(o, verts, "closed")
                if td and 0 not in t:
                    seen.add("degenerate, every cofactor nonzero")
                if not td and any(t) and not hit:
                    seen.add("t_d = 0, degenerate, some cofactor nonzero")
                if not td and not any(t):
                    flat.add(hit)
                if hit:
                    seen.add("closed degenerate hit")
            elif point_in_simplex(o, verts, "open"):
                seen.add("open hit")
            elif point_in_simplex(o, verts, "closed"):
                kinds.add("boundary")
                if td:
                    seen.add("boundary, t_d != 0")
        if not td and kinds == {"degenerate", "boundary"}:
            seen.add("t_d = 0, boundary and degenerate")
    if flat == {True, False}:  # hull-decided tuples: a closed hit and a closed miss
        seen.add("t_d = 0, every cofactor zero")
    return seen


@pytest.mark.parametrize("d", [2, 3, 4])
def test_each_classification_branch_matches_per_tuple(d):
    # d = 2 and 3 run the closed forms of the block engine, d = 4 its
    # generic loop; each hand-built case reaches every branch of both.
    S, o = branch_case(d), origin(d)
    assert reached_branches(S, d) >= {
        "open hit", "degenerate, every cofactor nonzero", "boundary, t_d != 0",
        "t_d = 0, boundary and degenerate", "closed degenerate hit",
        "t_d = 0, degenerate, some cofactor nonzero", "t_d = 0, every cofactor zero"}
    for mode in ("open", "closed"):
        rep = monochrome_depth(S, o, mode, want_witnesses=True)
        tuples = [(sub, [S[i] for i in sub]) for sub in combinations(range(len(S)), d + 1)]
        assert answers(rep) == per_tuple(o, tuples, mode), mode
        assert counters(monochrome_depth(S, o, mode)) == counters(rep)

    cfg = config(d, *(S[c::d + 1] for c in range(d + 1)))
    sizes, scaled = cfg.class_sizes(), depth._translated_rows([q.row for q in cfg.points()], o.row)
    for mode in ("open", "closed"):
        rep = colourful_depth(cfg, o, mode, want_witnesses=True)
        tuples = [(tuple(enumerate(picks)), [cls[i] for cls, i in zip(cfg.classes, picks)])
                  for picks in product(*(range(m) for m in sizes))]
        assert answers(rep) == per_tuple(o, tuples, mode), mode
        tally = [0] * len(scaled)
        assert depth._count_colourful(sizes, scaled, mode, False, tally)[:3] == counters(rep)
        assert tuple(tally) == sum(per_point_by_tuples(cfg, mode), ()), mode


@pytest.mark.parametrize("d", [2, 3, 4])
def test_closed_hull_test_runs_only_where_every_minor_is_zero(monkeypatch, d):
    # A degenerate tuple whose hull holds the query point spans a linear
    # space of rank below d after translation, so a degenerate tuple with a
    # nonzero minor is a closed miss: the hull test runs once for each tuple
    # of rank below d, never in a block with t_d != 0, and the answers stay
    # those of the per-tuple oracle.
    calls, hull_contains = [], depth._hull_contains

    def spy(cols):
        calls.append(cols)
        return hull_contains(cols)

    monkeypatch.setattr(depth, "_hull_contains", spy)
    rng, degenerate, hull_calls = Random(70 + d), 0, 0
    for trial in range({2: 30, 3: 30, 4: 12}[d]):
        S, p = (branch_case(d), origin(d)) if trial == 0 else degenerate_lattice_case(rng, d, d + 4)
        r = d + 1 + trial % 2
        cfg = config(d, *(S[c::r] or [p] for c in range(r)))
        monochrome = [(sub, [S[i] for i in sub]) for sub in combinations(range(len(S)), d + 1)]
        for count, points, tuples in ((monochrome_depth, S, monochrome),
                                      (colourful_depth, cfg, colourful_tuples(cfg))):
            flat = sum(rank_by_elimination([[x - y for x, y in zip(q.coords, p.coords)]
                                            for q in verts]) < d for _, verts in tuples)
            calls.clear()
            rep = count(points, p, "closed", want_witnesses=True)
            assert answers(rep) == per_tuple(p, tuples, "closed"), (S, p)
            assert len(calls) == flat, (S, p)
            # The first d columns of a call are its block's: t_d is zero.
            assert all(det_by_permutations(cols[:d]) == 0 for cols in calls), (S, p)
            degenerate += rep.degenerate
            hull_calls += flat
    # Both kinds are reached: hull-decided tuples, and misses decided without.
    assert 0 < hull_calls < degenerate
