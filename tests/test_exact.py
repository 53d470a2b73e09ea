"""Exact predicate tests: frozen examples, invariants, and oracle agreement."""

from fractions import Fraction
from itertools import combinations
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    degenerate_lattice_case,
    det_by_permutations,
    feasible_by_basis_enumeration,
    general_position_by_subsets,
    general_position_with_by_subsets,
    homogeneous,
    rand_point,
    strictly_inside_by_facets,
)
from colourdepth.exact import (
    DegenerateConeError,
    _cofactors,
    _det_int,
    _scaled_row,
    _translated_rows,
    InputError,
    Point,
    barycentric_coordinates,
    cone_contains,
    in_convex_hull,
    in_general_position,
    in_general_position_with,
    orientation,
    origin,
    point_in_simplex,
    pt,
)
from colourdepth.depth import monochrome_depth

fracs = st.fractions(
    min_value=-20, max_value=20, max_denominator=50
)


# ---------------------------------------------------------------- orientation


def test_orientation_standard_basis():
    assert orientation([pt(0, 0), pt(1, 0), pt(0, 1)]) == 1


def test_orientation_collinear():
    assert orientation([pt(0, 0), pt(1, 1), pt(2, 2)]) == 0


def test_orientation_transposition_flips():
    assert orientation([pt(0, 0), pt(0, 1), pt(1, 0)]) == -1


def test_orientation_dimension_mismatch():
    with pytest.raises(InputError):
        orientation([pt(0, 0), pt(1, 0, 0), pt(0, 1)])
    with pytest.raises(InputError):
        orientation([pt(0, 0), pt(1, 0)])


def test_orientation_antisymmetry_bulk():
    # Any vertex transposition flips the sign; 10^4 random rational triples.
    rng = Random(7)
    for _ in range(10_000):
        pts = [rand_point(rng, 2, 20) for _ in range(3)]
        i, j = rng.sample(range(3), 2)
        swapped = pts[:]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert orientation(swapped) == -orientation(pts)


def test_orientation_antisymmetry_3d():
    rng = Random(11)
    for _ in range(500):
        pts = [rand_point(rng, 3, 10) for _ in range(4)]
        swapped = [pts[1], pts[0]] + pts[2:]
        assert orientation(swapped) == -orientation(pts)


# ---------------------------------------------------------------- barycentric


def test_barycentric_centroid():
    lams = barycentric_coordinates(
        pt(Fraction(1, 3), Fraction(1, 3)), [pt(0, 0), pt(1, 0), pt(0, 1)]
    )
    assert lams == [Fraction(1, 3)] * 3


def test_barycentric_vertex():
    lams = barycentric_coordinates(pt(0, 0), [pt(0, 0), pt(1, 0), pt(0, 1)])
    assert lams == [1, 0, 0]


def test_barycentric_outside():
    lams = barycentric_coordinates(pt(2, 0), [pt(0, 0), pt(1, 0), pt(0, 1)])
    assert lams == [-1, 2, 0]


def test_barycentric_degenerate_flag():
    assert barycentric_coordinates(pt(0, 0), [pt(0, 0), pt(1, 1), pt(2, 2)]) is None


@given(st.lists(st.tuples(fracs, fracs), min_size=4, max_size=4))
@settings(max_examples=200)
def test_barycentric_reconstructs(data):
    p = Point(data[0])
    verts = [Point(t) for t in data[1:]]
    lams = barycentric_coordinates(p, verts)
    if lams is None:
        assert orientation(verts) == 0
        return
    assert sum(lams) == 1
    for r in range(2):
        assert sum(l * v[r] for l, v in zip(lams, verts)) == p[r]


# ------------------------------------------------------------ point_in_simplex


def test_simplex_centroid_open():
    tri = [pt(0, 0), pt(1, 0), pt(0, 1)]
    assert point_in_simplex(pt(Fraction(1, 3), Fraction(1, 3)), tri, "open")


def test_simplex_vertex_boundary():
    tri = [pt(0, 0), pt(1, 0), pt(0, 1)]
    assert not point_in_simplex(pt(0, 0), tri, "open")
    assert point_in_simplex(pt(0, 0), tri, "closed")


def test_simplex_derived_barycentric_example():
    # barycentric solve for 0 in ((1,0),(-1,1),(-1,-1)) gives (1/2, 1/4, 1/4)
    tri = [pt(1, 0), pt(-1, 1), pt(-1, -1)]
    assert barycentric_coordinates(pt(0, 0), tri) == [
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 4),
    ]
    assert point_in_simplex(pt(0, 0), tri, "open")


def test_simplex_degenerate_closed_uses_hull():
    seg = [pt(0, 0), pt(2, 0), pt(1, 0)]  # collinear "triangle"
    assert not point_in_simplex(pt(1, 0), seg, "open")
    assert point_in_simplex(pt(1, 0), seg, "closed")
    assert not point_in_simplex(pt(1, 1), seg, "closed")


def test_open_implies_closed_random():
    rng = Random(3)
    for _ in range(600):
        verts = [rand_point(rng, 2, 8) for _ in range(3)]
        p = rand_point(rng, 2, 8)
        if point_in_simplex(p, verts, "open"):
            assert point_in_simplex(p, verts, "closed")


# ---------------------------------------------------------------------- cones


def test_cone_basic():
    assert cone_contains([pt(1, 0), pt(0, 1)], pt(1, 1))
    assert not cone_contains([pt(1, 0), pt(0, 1)], pt(-1, 0))


def test_cone_antipode_instance():
    # -(-1,-1) in cone((1,0),(0,1)) matches 0 in conv{(1,0),(0,1),(-1,-1)}
    assert cone_contains([pt(1, 0), pt(0, 1)], pt(1, 1))
    assert point_in_simplex(pt(0, 0), [pt(1, 0), pt(0, 1), pt(-1, -1)], "closed")


def test_cone_degenerate_generators():
    with pytest.raises(DegenerateConeError):
        cone_contains([pt(1, 1), pt(2, 2)], pt(1, 0))


def test_cone_agrees_with_hull_antipode():
    # cone(gens, v) <=> 0 in conv(gens + [-v]), both directions, random data.
    rng = Random(17)
    checked = 0
    while checked < 500:
        d = rng.choice([2, 3])
        gens = [rand_point(rng, d) for _ in range(d)]
        v = rand_point(rng, d)
        try:
            got = cone_contains(gens, v)
        except DegenerateConeError:
            continue
        want = point_in_simplex(origin(d), gens + [-v], "closed")
        assert got == want
        checked += 1


# ----------------------------------------------------------------------- hull


def test_hull_strict_triangle():
    S = [pt(1, 0), pt(-1, 1), pt(-1, -1)]
    assert in_convex_hull(pt(0, 0), S, strict=True)


def test_hull_edge_midpoint():
    S = [pt(0, 0), pt(2, 0), pt(0, 2)]
    mid = pt(1, 0)
    assert in_convex_hull(mid, S, strict=False)
    assert not in_convex_hull(mid, S, strict=True)


def test_hull_outside():
    assert not in_convex_hull(pt(0, 0), [pt(1, 0), pt(2, 0), pt(1, 1)])


def test_hull_lower_dimensional_never_strict():
    S = [pt(-1, 0), pt(1, 0), pt(2, 0)]
    assert in_convex_hull(pt(0, 0), S)
    assert not in_convex_hull(pt(0, 0), S, strict=True)


@pytest.mark.parametrize("strict", [False, True])
def test_hull_of_no_points_is_input_error(strict):
    with pytest.raises(InputError):
        in_convex_hull(pt(0, 0), [], strict=strict)


def test_hull_matches_feasibility_oracle():
    rng = Random(23)
    for trial in range(500):
        d = 2 if trial % 2 == 0 else 3
        n = rng.randint(d + 1, 6)
        S = [rand_point(rng, d, 6) for _ in range(n)]
        p = rand_point(rng, d, 6)
        assert in_convex_hull(p, S) == feasible_by_basis_enumeration(p, S)


# ------------------------------------------------------------ general position


def test_gp_triangle_with_centroid():
    assert in_general_position(
        [pt(0, 0), pt(1, 0), pt(0, 1), pt(Fraction(1, 3), Fraction(1, 3))]
    )


def test_gp_collinear_violation():
    assert not in_general_position([pt(0, 0), pt(1, 1), pt(2, 2), pt(5, 0)])


def test_gp_coplanar_violation_3d():
    pts = [pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 0), pt(0, 0, 1)]
    assert not in_general_position(pts)


def test_gp_with_query():
    S = [pt(0, 0), pt(2, 0), pt(0, 2), pt(3, 3)]
    assert not in_general_position_with(S, pt(1, 0))  # on a spanned line
    assert in_general_position_with(S, pt(1, Fraction(1, 7)))


def test_gp_with_ignores_dependent_subsets():
    # the duplicated point spans no line; queries only fail on real hyperplanes
    S = [pt(1, 1), pt(1, 1), pt(2, 0)]
    assert in_general_position_with(S, pt(5, 7))


def _lattice_case(rng: Random, d: int):
    """Small-integer points in d dimensions with duplicates, collinear runs
    or a lower-dimensional hull, and a query that is often on an edge."""
    n = rng.randint(1, 7)
    lat = lambda r: Point(rng.randint(-r, r) for _ in range(d))  # noqa: E731
    shape = rng.randrange(4)
    if shape == 0:  # generic lattice points, duplicates likely
        S = [lat(2) for _ in range(n)]
    elif shape == 1:  # repeated points
        S = [lat(2) for _ in range(n)]
        S += S[: rng.randint(1, n)]
    elif shape == 2:  # on one line
        a, b = lat(2), lat(1)
        S = [a + Point(t * x for x in b.coords) for t in rng.choices(range(-2, 3), k=n)]
    else:  # on the hyperplane x_d = 0
        S = [Point(lat(2).coords[:-1] + (0,)) for _ in range(n)]
    pick = rng.randrange(3)
    if pick == 0:
        p = Point(Fraction(rng.randint(-4, 4), 2) for _ in range(d))
    elif pick == 1:  # midpoint of two points of S: on an edge or inside
        a, b = rng.choice(S), rng.choice(S)
        p = Point((x + y) / 2 for x, y in zip(a.coords, b.coords))
    else:
        p = rng.choice(S)
    return S, p


def test_hull_predicates_on_degenerate_lattice_sets():
    # Random rationals almost never span a lower-dimensional hull, so the
    # flat projection of the closed search and the strict test on degenerate
    # sets are checked here against the oracle and the open depth.
    rng = Random(31)
    for trial in range(1500):
        d = 1 + trial % 3
        S, p = _lattice_case(rng, d)
        closed = in_convex_hull(p, S)
        strict = in_convex_hull(p, S, strict=True)
        assert closed == feasible_by_basis_enumeration(p, S), (S, p)
        assert closed or not strict, (S, p)
        if len(S) >= d + 1 and in_general_position_with(S, p):
            assert strict == (monochrome_depth(S, p, "open").count > 0), (S, p)


# ----------------------------------------------- closed forms, facet normals


def _singular(rng: Random, m: list) -> list:
    """m with one row replaced by a zero row, a copy of another row, or an
    integer combination of two others."""
    n = len(m)
    i = rng.randrange(n)
    how = rng.randrange(min(n, 3))
    if how == 0:
        m[i] = [0] * n
    elif how == 1:
        m[i] = list(m[(i + 1) % n])
    else:
        a, b = m[(i + 1) % n], m[(i + 2) % n]
        x, y = rng.randint(-5, 5), rng.randint(-5, 5)
        m[i] = [x * u + y * v for u, v in zip(a, b)]
    return m


def test_det_int_matches_leibniz():
    rng = Random(41)
    for trial in range(1200):
        n = 1 + trial % 5
        bound = rng.choice([3, 10**6, 10**30])
        m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0:
            m = _singular(rng, m)
        want = det_by_permutations(m)
        assert _det_int(m) == want, m
        assert _det_int([tuple(r) for r in m]) == want, m
        if trial % 3 == 0:
            assert want == 0


def test_facet_normal_dot_product_is_determinant():
    rng = Random(42)
    for trial in range(400):
        d = 1 + trial % 4
        rows = [tuple(rng.randint(-10**9, 10**9) for _ in range(d + 1)) for _ in range(d + 1)]
        if trial % 4 == 0 and d > 1:
            rows[0] = rows[d - 1]  # a repeated row: the normal is zero
        facet, q = rows[:d], rows[d]
        normal = _cofactors(list(zip(*facet)))
        assert sum(a * b for a, b in zip(normal, q)) == det_by_permutations(rows)


def test_normal_predicates_match_subset_oracles():
    # General position (pencils), query-side general position and strict
    # hull membership (reused facet normals) are each checked against the
    # subset-by-subset definition on sets with repeated, coplanar and
    # collinear points.
    rng = Random(43)
    for trial in range(360):
        d = 2 + trial % 3
        S, p = degenerate_lattice_case(rng, d, d + 3)
        assert in_general_position(S) == general_position_by_subsets(S), S
        assert in_general_position(S + [p]) == general_position_by_subsets(S + [p]), (S, p)
        assert in_general_position_with(S, p) == general_position_with_by_subsets(S, p), (S, p)
        assert in_convex_hull(p, S, strict=True) == strictly_inside_by_facets(p, S), (S, p)


# ---------------------------------------------------- general-position pencil


def _affine_combination(rng: Random, pts: list, big: bool) -> Point:
    """A point on the affine hull of pts: rational weights summing to 1."""
    top = 10**30 if big else 9
    w = [Fraction(rng.randint(-top, top), rng.randint(1, 7)) for _ in pts[:-1]]
    w.append(1 - sum(w))
    d = pts[0].dim
    return Point(sum(wi * q[k] for wi, q in zip(w, pts)) for k in range(d))


def _pencil_cases(rng: Random, d: int, n: int):
    """Seeded sets of n points in dimension d: generic rationals (where the
    oracle has at most 1000 subsets to check), generic integers up to 10^30
    (n <= d+3), a repeated point, a dependent first d-1 or first d points,
    and one affinely dependent (d+1)-tuple planted at non-adjacent random
    indices."""
    def generic():
        return [rand_point(rng, d, 20) for _ in range(n)]

    if comb(n, d + 1) <= 1000:
        yield generic()
    if n <= d + 3:
        yield [Point(rng.randint(-10**30, 10**30) for _ in range(d)) for _ in range(n)]
    if n >= 2:
        S = generic()
        i, j = sorted(rng.sample(range(n), 2))
        if rng.randrange(2):
            i, j = 0, 1  # the first prefix of every size holds the repeat
        S[j] = S[i]
        yield S
    for k in (d - 1, d):
        # the first k points on a (k-2)-flat, the rest generic
        if 2 <= k <= n:
            S = generic()
            S[k - 1] = _affine_combination(rng, S[:k - 1], big=False) if k > 2 else S[0]
            yield S
    if n >= 2 * d + 1:
        # no two planted indices adjacent: stars and bars over the gaps
        picks = sorted(rng.sample(range(n - d), d + 1))
        picks = [x + k for k, x in enumerate(picks)]
        S = generic()
        rng.shuffle(picks)
        S[picks[-1]] = _affine_combination(rng, [S[x] for x in picks[:-1]], big=rng.randrange(2))
        yield S


def test_pencil_matches_subset_oracle():
    # in_general_position decides each pencil of hyperplanes through d-1
    # points by hashing plane vectors; the oracle takes the determinant of
    # every (d+1)-subset by the Leibniz formula.
    rng = Random(44)
    seen = {True: 0, False: 0}
    for d in range(1, 6):
        for n in range(1, 2 * d + 5):
            for S in _pencil_cases(rng, d, n):
                want = general_position_by_subsets(S)
                assert in_general_position(S) == want, (d, S)
                if n <= d:
                    assert want  # no (d+1)-subset at all
                seen[want] += 1
    assert min(seen.values()) > 90


def test_pencil_finds_the_planted_tuple():
    # One dependent (d+1)-tuple among generic rationals, at any indices
    # (adjacent ones too), every other subset independent.
    rng = Random(45)
    for trial in range(300):
        d = 1 + trial % 4
        n = rng.randint(d + 1, 2 * d + 3)
        S = [rand_point(rng, d, 10**6) for _ in range(n)]
        assert in_general_position(S)
        picks = rng.sample(range(n), d + 1)
        S[picks[-1]] = _affine_combination(rng, [S[x] for x in picks[:-1]], big=trial % 2)
        assert not in_general_position(S), (d, picks)


def test_translated_rows_scale_the_rational_difference():
    # (s, w) is the exact difference q - p times s > 0, and w points the same
    # way as the row `_scaled_row` makes of the Fraction difference.
    rng = Random(61)
    for d in (1, 2, 3, 4):
        for _ in range(25):
            p = rand_point(rng, d) if rng.random() < 0.7 else Point(rng.randint(-2, 2) for _ in range(d))
            pts = [rand_point(rng, d) for _ in range(3)]
            pts += [Point(rng.randint(-2, 2) for _ in range(d)), p, -p]
            for q, (s, w) in zip(pts, _translated_rows(pts, p)):
                assert s > 0
                assert tuple(Fraction(x, s) for x in w) == (q - p).coords
                s0, w0 = _scaled_row((q - p).coords)
                assert all(x * s0 == y * s for x, y in zip(w, w0))
