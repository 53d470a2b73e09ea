"""Exact predicate tests: frozen examples, invariants, and oracle agreement."""

import copy
import pickle
from fractions import Fraction
from itertools import combinations
from math import comb
from random import Random
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colourdepth import exact
from conftest import (
    barycentric_by_elimination,
    degenerate_lattice_case,
    det_by_permutations,
    feasible_by_basis_enumeration,
    general_position_by_subsets,
    general_position_with_by_subsets,
    homogeneous,
    parse_by_fraction_strings,
    rand_point,
    strictly_inside_by_facets,
)
from colourdepth.exact import (
    DegenerateConeError,
    _cofactors,
    _det_int,
    _hull_contains,
    _open_simplex,
    _origin_status,
    _pencil,
    _strict_hull_contains,
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


# ---------------------------------------------------------------------- points


def test_point_row_is_the_canonical_homogeneous_row():
    rng = Random(13)
    for trial in range(200):
        S, p = degenerate_lattice_case(rng, 2 + trial % 3, 6)
        pts = S + [p, -p, p - S[0]]
        for q in pts:
            assert q.row == tuple(homogeneous(q)), q
        for a, b in combinations(pts, 2):
            assert (a == b) == (a.coords == b.coords), (a, b)
            if a == b:
                assert hash(a) == hash(b)
    spellings = [pt(1, "2/4"), pt(1, Fraction(1, 2)), pt("3/3", " 1/2 "), pt(1, "0.5")]
    assert {q.row for q in spellings} == {(2, 1, 2)}
    assert len(set(spellings)) == 1


def test_point_coordinates_parse_like_files():
    # A bool, a malformed string, a zero denominator and an oversized
    # exponent are input errors, as they are in a configuration file.
    for coords in ((True, 0), ("abc", 1), ("1/0", 1), ("1e5000", 1)):
        with pytest.raises(InputError):
            pt(*coords)


def _spelling(rng: Random, value: Fraction) -> str:
    """A random "n" or "n/q" string for value: unreduced, with an optional
    plus sign, leading zeros and surrounding whitespace."""
    k = rng.randint(1, 6)
    num, den = abs(value.numerator) * k, value.denominator * k
    sign = "-" if value < 0 else rng.choice(["", "+"])
    text = sign + "0" * rng.randint(0, 2) + str(num)
    if den != 1 or rng.randrange(2):
        text += "/" + "0" * rng.randint(0, 2) + str(den)
    pad = lambda: rng.choice(["", " ", "  ", "\t", "\n "])  # noqa: E731
    return pad() + text + pad()


def test_parser_spellings_give_the_points_of_their_fractions():
    rng = Random(31)
    for trial in range(600):
        d = 1 + trial % 4
        values = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(d)]
        if trial % 5 == 0:
            values = [Fraction(rng.randint(-10**6, 10**6)) for _ in range(d)]
        spelled = [v.numerator if v.denominator == 1 and rng.randrange(2) else _spelling(rng, v)
                   for v in values]
        want, got = Point(values), Point(spelled)
        assert got.coords == want.coords and got.row == want.row, spelled
        assert got == want and hash(got) == hash(want)
        assert all(type(c) is Fraction for c in got.coords)


def _outcome(v):
    try:
        return "ok", pt(v).coords[0]
    except InputError as e:
        return "error", str(e)


ODD_SPELLINGS = [
    "1/0", "1/-2", "1e99999", "9" * 4400, 9 * 10**4399, "-" + "9" * 4000 + "/7", "0.5",
    "1_0", "\u0663", "\u0663/2", "\u00b2", "", " ", "/", "1/", "/2", "--1", "+-1", "1/+2",
    "1 / 2", "1/2/3", "0x10", "1 2", "-0", "+0/7", "007/010", True, False, None, 0.5,
]


def test_parser_matches_the_fraction_string_parser():
    # Values and InputError messages are those of parsing every string with
    # Fraction(str), whichever path the parser takes.
    for v in ODD_SPELLINGS:
        assert _outcome(v) == parse_by_fraction_strings(v), ODD_SPELLINGS.index(v)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_points_pickle_and_copy(d):
    rng = Random(70 + d)
    points = [Point(rng.randint(-50, 50) for _ in range(d)), rand_point(rng, d),
              Point(["6/4"] * d), origin(d)]
    for q in points:
        copies = [pickle.loads(pickle.dumps(q, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies + [copy.deepcopy(q), copy.copy(q)]:
            assert type(c) is Point
            assert c.coords == q.coords and c.row == q.row
            assert c == q and hash(c) == hash(q)
            assert all(type(x) is Fraction for x in c.coords)


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


def test_barycentric_matches_fraction_elimination():
    # Rational vertices with unequal denominators, so every vertex has its
    # own scale s_i; one simplex in four is made degenerate by replacing a
    # vertex with an affine combination of the others.
    rng = Random(71)
    kinds = {True: 0, False: 0}
    for d in (1, 2, 3, 4):
        for trial in range(60):
            verts = [rand_point(rng, d, 30) for _ in range(d + 1)]
            if trial % 4 == 0:
                k = rng.randrange(d + 1)
                verts[k] = _affine_combination(rng, verts[:k] + verts[k + 1:], big=False)
            p = rand_point(rng, d, 30)
            want = barycentric_by_elimination(p, verts)
            assert barycentric_coordinates(p, verts) == want, (p, verts)
            kinds[want is None] += 1
    assert min(kinds.values()) > 50


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


# ------------------------------------------------------------ planar hull


# name: (S, p, closed, strict)
PLANAR_HULLS = {
    "at_a_vertex": ([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)], pt(0, 0), True, False),
    "on_an_edge": ([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)], pt(2, 0), True, False),
    "inside_at_a_point": ([pt(0, 0), pt(4, 0), pt(0, 4), pt(1, 1)], pt(1, 1), True, True),
    "inside": ([pt(3, 0), pt(0, 3), pt(-3, 0), pt(0, -3)], pt("1/3", "-1/2"), True, True),
    "outside": ([pt(3, 0), pt(0, 3), pt(-3, 0), pt(0, -3)], pt(2, 2), False, False),
    "line_through_query": ([pt(-1, -1), pt(1, 1), pt(2, 2)], pt(0, 0), True, False),
    "line_beyond_query": ([pt(1, 1), pt(2, 2), pt(3, 3)], pt(0, 0), False, False),
    "line_missing_query": ([pt(1, 0), pt(0, 1), pt(-1, 2)], pt(0, 0), False, False),
    "two_opposite_points": ([pt(-1, 2), pt(1, -2)], pt(0, 0), True, False),
    "one_point": ([pt(1, 1)], pt(1, 1), True, False),
    "one_point_elsewhere": ([pt(1, 1)], pt(0, 0), False, False),
    "repeated_points": ([pt(1, 0), pt(1, 0), pt(-1, 1), pt(-1, -1), pt(-1, 1)], pt(0, 0),
                        True, True),
    "repeated_on_one_ray": ([pt(1, 0), pt(1, 0), pt(2, 0), pt(3, 0)], pt(0, 0), False, False),
    "half_turn_gap": ([pt(1, 0), pt(-1, 0), pt(0, 1), pt(1, 1)], pt(0, 0), True, False),
}


def _hull_answers(p, S):
    """(closed, strict) from `in_convex_hull`, checked against the subset
    search, the facet loop and the conftest oracles."""
    closed, strict = in_convex_hull(p, S), in_convex_hull(p, S, strict=True)
    assert closed == _hull_contains([w for _, w in _translated_rows(S, p)]), (S, p)
    assert closed == feasible_by_basis_enumeration(p, S), (S, p)
    assert strict == strictly_inside_by_facets(p, S), (S, p)
    assert strict == _strict_hull_contains([q.row for q in S], p.row), (S, p)
    return closed, strict


@pytest.mark.parametrize("name", sorted(PLANAR_HULLS))
def test_planar_hull_cases(name):
    S, p, closed, strict = PLANAR_HULLS[name]
    assert _hull_answers(p, S) == (closed, strict)


def test_planar_hull_matches_the_searches():
    # Clean random sets with the query inside or outside, and degenerate
    # lattice sets: repeated points, three on a line, the query at a point,
    # a midpoint or on a line through two points.
    rng = Random(61)
    seen = set()
    for trial in range(600):
        if trial % 2:
            S, p = degenerate_lattice_case(rng, 2, 8)
        else:
            S = [rand_point(rng, 2, 20) for _ in range(rng.randint(1, 8))]
            w = [rng.randint(0, 3) for _ in S]
            inside = Point(sum(wi * q[k] for wi, q in zip(w, S)) / (sum(w) or 1)
                           for k in range(2))
            p = inside if rng.randrange(2) else rand_point(rng, 2, 20)
        seen.add(_hull_answers(p, S))
    assert seen == {(False, False), (True, False), (True, True)}


def test_planar_hull_of_3000_points_is_decided_in_both_modes():
    # C(3000, 3) = 4,495,501,000 subsets: the plane is never refused.
    rng = Random(3)
    S = [Point([rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)]) for _ in range(3000)]
    for p, want in ((origin(2), (True, True)), (pt(2 * 10**6, 0), (False, False))):
        start = perf_counter()
        got = in_convex_hull(p, S), in_convex_hull(p, S, strict=True)
        assert perf_counter() - start < 1
        assert got == want


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


def _simplex_case(rng: Random, d: int, shape: str):
    """d+1 distinct or repeated points with rational coordinates and a query
    point placed against them as `shape` says."""
    S = [rand_point(rng, d, bound=6) for _ in range(d + 1)]
    if shape == "repeated":
        i, j = rng.sample(range(d + 1), 2)
        S[i] = S[j]
    elif shape == "dependent":
        # The last point is an affine combination of the others.
        w = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d - 1)]
        w.append(1 - sum(w))
        S[d] = Point(sum(wi * q[k] for wi, q in zip(w, S)) for k in range(d))

    def on_facet(outside: bool) -> Point:
        # An affine combination of d vertices, all weights positive or, for
        # a point of the facet's hyperplane off the simplex, one negative
        # (at d = 1 the hyperplane is the vertex itself).
        sub = rng.sample(S, d)
        w = [Fraction(rng.randint(1, 5)) for _ in range(d)]
        if outside:
            w[0] = Fraction(-1, 2)
        total = sum(w)
        return Point(sum(wi * q[k] for wi, q in zip(w, sub)) / total for k in range(d))

    pick = rng.randrange(5)
    if pick == 0:
        p = rand_point(rng, d, bound=4)
    elif pick == 1:
        p = rng.choice(S)
    elif pick == 2:
        p = on_facet(False)
    elif pick == 3:
        p = on_facet(True)
    else:
        p = Point(sum(q[k] for q in S) / len(S) for k in range(d))
    return S, p


@pytest.mark.parametrize("shape", ["generic", "repeated", "dependent"])
def test_strict_simplex_test_matches_facet_oracle(monkeypatch, shape):
    # Sets with d+1 distinct points, listed once or with one of them twice,
    # are decided by the cofactors of the simplex and never reach the rank
    # and facet loop of larger sets.
    pivots = exact._pivots
    facet_loop = []
    monkeypatch.setattr(exact, "_pivots", lambda rows: facet_loop.append(rows) or pivots(rows))
    rng = Random(67)
    hits = 0
    for trial in range(240):
        d = 1 + trial % 4
        S, p = _simplex_case(rng, d, shape)
        for T in (S, S + [rng.choice(S)]):
            facet_loop.clear()
            strict = in_convex_hull(p, T, strict=True)
            assert strict == strictly_inside_by_facets(p, T), (T, p)
            assert not facet_loop or len(set(T)) <= d, (T, p)
            hits += strict
    assert hits > 0 or shape != "generic"


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


def _spanned_hyperplane_case(rng: Random, d: int):
    """d to d+4 random rationals, half the time with one point repeated, and
    a query point that is generic or on the hyperplane spanned by d of them
    (at d = 1, one of the points)."""
    S = [rand_point(rng, d, 50) for _ in range(rng.randint(d, d + 4))]
    if rng.randrange(2):
        S.insert(rng.randrange(len(S) + 1), rng.choice(S))
    if rng.randrange(3):
        return S, _affine_combination(rng, rng.sample(S, d), big=False)
    return S, rand_point(rng, d, 50)


def test_query_side_pencil_matches_subset_oracle():
    # in_general_position_with certifies with the pencil on the points
    # translated to p, and enumerates d-subsets only after the pencil finds
    # a dependent one, which may span no hyperplane (a repeated point).  All
    # three outcomes occur: certified; dependent and on a spanned
    # hyperplane; dependent and on none.
    assert _pencil([[3, -1, 2]]) and not _pencil([[3, 0, 2]])  # k = 1
    rng = Random(46)
    seen = set()
    for trial in range(800):
        d = 1 + trial % 4
        if trial % 8 < 4:
            S, p = _spanned_hyperplane_case(rng, d)
        else:
            S, p = degenerate_lattice_case(rng, d, d + 3)
        certified = _pencil([list(c) for c in zip(*(w for _, w in _translated_rows(S, p)))])
        got = in_general_position_with(S, p)
        assert got == general_position_with_by_subsets(S, p), (S, p)
        assert got or not certified, (S, p)
        seen.add((certified, got))
    assert seen == {(True, True), (False, False), (False, True)}


def test_general_position_above_budget_is_refused(monkeypatch):
    # Above the plane the pencils and the query-side enumeration are held to
    # MAX_TUPLES subsets; the plane is never refused.
    monkeypatch.setattr(exact, "MAX_TUPLES", 30)
    rng = Random(48)
    S3 = [rand_point(rng, 3, 10**6) for _ in range(8)]  # C(8, 2) = 28, C(8, 3) = 56
    with pytest.raises(
        InputError, match="^56 pencil subsets to enumerate, more than the limit of 30$"
    ):
        in_general_position(S3)
    assert in_general_position_with(S3, rand_point(rng, 3, 10**6))  # certified
    with pytest.raises(
        InputError, match="^56 subsets to enumerate, more than the limit of 30$"
    ):
        in_general_position_with(S3, _affine_combination(rng, S3[:3], big=False))
    S2 = [rand_point(rng, 2, 10**6) for _ in range(12)]  # C(12, 2) = 66
    assert in_general_position(S2)
    assert not in_general_position_with(S2, _affine_combination(rng, S2[:2], big=False))


def test_open_simplex_matches_the_cofactor_status():
    # The sign-only test against the full cofactor status, on random and
    # lattice simplices (zero minors, repeated vectors), unchanged when each
    # vector is scaled by its own positive factor.
    rng = Random(47)
    seen = set()
    for trial in range(1200):
        d = 1 + trial % 4
        r = 10**6 if trial % 3 == 0 else 2
        cols = [tuple(rng.randint(-r, r) for _ in range(d)) for _ in range(d + 1)]
        if trial % 5 == 0:
            cols[rng.randrange(d + 1)] = rng.choice(cols)
        t = _cofactors(cols)
        want = _origin_status(t)[0]
        assert _open_simplex(cols) == want, cols
        scales = rng.choices(range(1, 50), k=d + 1)
        scaled = [tuple(x * k for x in c) for c, k in zip(cols, scales)]
        assert _open_simplex(scaled) == want, (cols, scaled)
        seen.add((want, 0 in t))
    assert seen == {(True, False), (False, False), (False, True)}


def test_translated_rows_scale_the_rational_difference():
    # (s, w) is the exact difference q - p times s > 0, and w points the same
    # way as the row of the Fraction difference.
    rng = Random(61)
    for d in (1, 2, 3, 4):
        for _ in range(25):
            p = rand_point(rng, d) if rng.random() < 0.7 else Point(rng.randint(-2, 2) for _ in range(d))
            pts = [rand_point(rng, d) for _ in range(3)]
            pts += [Point(rng.randint(-2, 2) for _ in range(d)), p, -p]
            for q, (s, w) in zip(pts, _translated_rows(pts, p)):
                assert s > 0
                assert tuple(Fraction(x, s) for x in w) == (q - p).coords
                *w0, s0 = (q - p).row
                assert all(x * s0 == y * s for x, y in zip(w, w0))
