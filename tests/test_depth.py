"""Depth counting tests: frozen examples, counters, and cross-checks."""

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
    homogeneous,
    rand_point,
)
from colourdepth import depth
from colourdepth.constructions import gen_identical, gen_regular_ngon, gen_sminus, gen_splus
from colourdepth.depth import (
    ColourfulConfiguration,
    CoreSampleError,
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
    _scaled_row,
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
            for j in range(d + 1):
                s = sum(
                    zero_containing_count(cfg, j, k, "open")
                    for k in range(len(cfg.classes[j]))
                )
                assert s == total


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
            assert counts == tuple(
                tuple(zero_containing_count(cfg, c, k, mode) for k in range(len(cls)))
                for c, cls in enumerate(cfg.classes)
            )
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
    # 4 classes of 216: e_4 = 216^4 tuples for the depth and the
    # decomposition, e_3 = 216^3 = 10,077,696 through one point or colour.
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
    # With both filters passing everything, every candidate is returned, so
    # the integer mixtures must give the oracle's points in its order.
    rng = Random(40 + d + extra)
    monkeypatch.setattr(depth, "core_membership", lambda *a, **k: True)
    monkeypatch.setattr(depth, "in_general_position_with", lambda *a, **k: True)
    for seed, bound in ((0, 10_000), (1, 10_000), (2, 7), (3, 1)):
        cfg = random_core_config(rng, d, d + 1 + extra)
        samples = 6 if d == 2 else 3
        got = [q for _, q in core_depth_samples(cfg, samples, seed, bound)]
        assert got == core_candidates_by_fractions(cfg, samples, seed, bound)


def test_core_depth_samples_match_fraction_mixtures():
    rng = Random(47)
    for d, size in ((2, 3), (2, 5), (3, 4)):
        cfg = random_core_config(rng, d, size)
        pts = cfg.points()
        for seed in range(3):
            expected = [
                (colourful_depth(cfg, q, "open").count, q)
                for q in core_candidates_by_fractions(cfg, 8, seed)
                if core_membership(cfg, q, strict=True) and in_general_position_with(pts, q)
            ]
            assert core_depth_samples(cfg, 8, seed) == expected


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


def swept(S, p):
    """The sweep's monochrome answer, or None where it falls back."""
    return _sweep_depth([_scaled_row((q - p).coords) for q in S])


def swept_colourful(cfg, p):
    scaled = [_scaled_row((q - p).coords) for cls in cfg.classes for q in cls]
    return _sweep_depth(scaled, [c for c, cls in enumerate(cfg.classes) for _ in cls])


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


def test_clean_plane_is_the_planar_pencil():
    # `_clean_plane` is `in_general_position` at d = 2 with the query point
    # as row 0: both accept exactly the clean inputs.
    rng = Random(23)
    kinds = {True: 0, False: 0}
    for trial in range(400):
        n = rng.randint(2, 9)
        S = [rand_point(rng, 2, 9) for _ in range(n)]
        p = rand_point(rng, 2, 9)
        kind = trial % 4
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
        clean = depth._clean_plane([_scaled_row((q - p).coords) for q in S])
        assert clean == in_general_position(S + [p]), (S, p)
        kinds[clean] += 1
    assert min(kinds.values()) > 50


def test_witnesses_never_take_the_sweep(monkeypatch):
    S = gen_regular_ngon(7)
    cfg = gen_sminus(2).config
    monkeypatch.setattr(depth, "_sweep_depth", lambda *a: pytest.fail("sweep ran"))
    rep = monochrome_depth(S, origin(2), "open", want_witnesses=True)
    assert rep.count == len(rep.witnesses) == 14
    rep = colourful_depth(cfg, origin(2), "open", want_witnesses=True)
    assert rep.count == len(rep.witnesses) == 5


# ----------------------------------------------------------- minor memo


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


def memoised(rep):
    return rep.count, rep.witnesses, rep.degenerate, rep.boundary


def counters(rep):
    return rep.count, rep.degenerate, rep.boundary


@pytest.mark.parametrize("d", [3, 4])
def test_memoised_counts_match_per_tuple_loop(d):
    # Counting memoises every d x d minor by its point keys; each tuple's
    # answer and both counters must be those of a lone simplex test.  Odd
    # trials query the origin among the points of a random core
    # configuration, where most simplices are hit.
    rng = Random(50 + d)
    for trial in range(40 if d == 3 else 16):
        if trial % 2:
            core = random_core_config(rng, d, d + 1)
            S, p = [*core.classes[0], *core.classes[1][:3]], origin(d)
            cfg = config(d, *(cls[:2] for cls in core.classes))
        else:
            S, p = degenerate_lattice_case(rng, d, d + 4)
            r = d + 1 + trial % 4 // 2
            cfg = config(d, *(S[c::r] or [p] for c in range(r)))
        for mode in ("open", "closed"):
            rep = monochrome_depth(S, p, mode, want_witnesses=True)
            tuples = [(sub, [S[i] for i in sub]) for sub in combinations(range(len(S)), d + 1)]
            assert memoised(rep) == per_tuple(p, tuples, mode), (S, p, mode)
            assert counters(monochrome_depth(S, p, mode)) == counters(rep)

        r = cfg.num_classes
        for mode in ("open", "closed"):
            rep = colourful_depth(cfg, p, mode, want_witnesses=True)
            tuples = [
                (tuple(zip(colours, picks)), [cfg.classes[c][i] for c, i in zip(colours, picks)])
                for colours in combinations(range(r), d + 1)
                for picks in product(*(range(len(cfg.classes[c])) for c in colours))
            ]
            assert memoised(rep) == per_tuple(p, tuples, mode), (cfg, p, mode)
            assert counters(colourful_depth(cfg, p, mode)) == counters(rep)
