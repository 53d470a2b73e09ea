"""Circle cell arrangement tests: crossing formula, sequences, lemma checks."""

import math
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from colourdepth import arrangements, depth, exact
from colourdepth.arrangements import (
    CircularArrangement,
    DegenerateArrangementError,
    Ray,
    canonical_rotation,
    cell_depth_sequence,
    crossing_delta,
    cyclic_equal,
    verify_cell_depth_lemma,
)
from colourdepth.constructions import gen_sminus, gen_splus
from colourdepth.cli import main
from colourdepth.exact import InputError, Point, in_convex_hull, origin, pt
from colourdepth.sampling import random_core_class


def snapped_circle_point(angle_deg: float, digits: int = 9) -> Point:
    t = math.tan(math.radians(angle_deg) / 2)
    tf = Fraction(round(t * 10**digits), 10**digits)
    den = 1 + tf * tf
    return Point(((1 - tf * tf) / den, 2 * tf / den))


def rotated_triangles(offset_deg: float = 17.0):
    """Two concentric triangles, the second rotated; alternating rays."""
    X = [snapped_circle_point(a) for a in (90, 210, 330)]
    Y = [snapped_circle_point(a + offset_deg) for a in (30, 150, 270)]
    return X, Y


def cross(a, b):
    (a0, a1), (b0, b1) = a, b
    return a0 * b1 - a1 * b0


def random_valid_pair(rng: Random, a: int = 3, b: int = 3):
    while True:
        X = random_core_class(rng, a, 2, bound=60)
        Y = random_core_class(rng, b, 2, bound=60)
        if all(cross(u, v) != 0 for u, v in combinations(X + Y, 2)):
            return X, Y


def cones_holding(X, Y, vs) -> list[int]:
    """For each v of vs, the cones (x, y) holding v, by Fraction cross
    products: v is a x + b y with a, b >= 0 exactly when cross(v, y) and
    cross(x, v) have the sign of cross(x, y) or are zero."""
    X, Y = [x.coords for x in X], [y.coords for y in Y]
    negative = [[cross(x, y) < 0 for y in Y] for x in X]
    counts = []
    for v in vs:
        v = v.coords
        vy = [cross(v, y) for y in Y]
        count = 0
        for x, row in zip(X, negative):
            b = cross(x, v)
            for neg, a in zip(row, vy):
                count += (a <= 0 and b <= 0) if neg else (a >= 0 and b >= 0)
        counts.append(count)
    return counts


# -------------------------------------------------------------- crossing_delta


def test_crossing_delta_direct_substitution():
    assert crossing_delta(0, 4, 1, 2) == 2
    assert crossing_delta(5, 6, 0, 3) == 9


def test_crossing_delta_validation():
    with pytest.raises(InputError):
        crossing_delta(-1, 4, 1, 2)
    with pytest.raises(InputError):
        crossing_delta(0, 4, 4, 2)  # k > u-(d-1)


def test_crossing_delta_colourful_two_to_one():
    # colourful planar crossing: the missed colour has 3 points, so u = 4
    # with d = 2; |new - old| = |(3-k) - k| = 1 exactly when the split is 2-1
    for k in (1, 2):
        old = 0 + k
        new = crossing_delta(0, 4, k, 2)
        assert abs(new - old) == 1


# ------------------------------------------------------------- cell sequences


def test_sminus_cell_sequence():
    cfg = gen_sminus(2).config
    arr = cell_depth_sequence(cfg.classes[0], cfg.classes[1])
    assert canonical_rotation(arr.cell_depths) == (1, 2, 3, 4, 3, 2)


def test_splus_cell_sequence_is_deep_family():
    cfg = gen_splus(2).config
    arr = cell_depth_sequence(cfg.classes[0], cfg.classes[1])
    assert canonical_rotation(arr.cell_depths) == (1, 2, 3, 4, 3, 2)


def test_rotated_triangles_sequence():
    X, Y = rotated_triangles()
    arr = cell_depth_sequence(X, Y)
    assert cyclic_equal(arr.cell_depths, (3, 2, 3, 2, 3, 2))


def test_boundaries_carry_labels():
    X, Y = rotated_triangles()
    arr = cell_depth_sequence(X, Y)
    assert len(arr.boundaries) == len(arr.cell_depths) == 6
    assert sorted((r.colour, r.index) for r in arr.boundaries) == [
        (c, i) for c in (0, 1) for i in range(3)
    ]


def test_depth_sum_matches_per_cone_cell_cover():
    # sum over cells of depth equals sum over cones of cells covered
    X, Y = rotated_triangles(offset_deg=23.5)
    arr = cell_depth_sequence(X, Y)
    test_dirs = [
        arr.boundaries[k].direction + arr.boundaries[(k + 1) % 6].direction
        for k in range(6)
    ]

    per_cone = sum(sum(cones_holding([x], [y], test_dirs)) for x in X for y in Y)
    assert per_cone == sum(arr.cell_depths)


def test_degenerate_inputs_rejected():
    X = [pt(1, 0), pt(-1, 1), pt(-1, -1)]
    with pytest.raises(DegenerateArrangementError):
        cell_depth_sequence(X, [pt(2, 0), pt(-1, 2), pt(-1, -2)])  # parallel rays
    with pytest.raises(DegenerateArrangementError):
        cell_depth_sequence(X, [pt(1, 1), pt(2, 1), pt(1, 2)])  # 0 outside hull
    with pytest.raises(InputError):
        cell_depth_sequence(X[:2], X)


def test_random_pairs_propagation_and_lemma():
    rng = Random(77)
    families = set()
    for _ in range(60):
        X, Y = random_valid_pair(rng)
        arr = cell_depth_sequence(X, Y)  # the closure check runs inside
        rep = verify_cell_depth_lemma(arr)
        assert rep.lemma_ok
        families.add(canonical_rotation(arr.cell_depths))
    assert families  # at least one family observed


def test_cell_depth_sequence_enumerates_nothing(monkeypatch):
    # The sweep's half-turn counts seed the first cell: no block of cofactors
    # is formed and no enumeration budget is asked, and every depth is the
    # cell's cone count by the Fraction oracle.
    rng = Random(5)
    pairs = [random_valid_pair(rng, *sizes) for sizes in [(3, 3), (4, 6), (9, 5)] for _ in range(8)]

    def refuse(*args):
        raise AssertionError("the cells enumerated")

    monkeypatch.setattr(depth, "_cofactor_blocks", refuse)
    monkeypatch.setattr(depth, "_check_budget", refuse)
    monkeypatch.setattr(exact, "_check_budget", refuse)
    for X, Y in pairs:
        arr = cell_depth_sequence(X, Y)
        dirs, n = [r.direction for r in arr.boundaries], len(X) + len(Y)
        sums = [dirs[k] + dirs[(k + 1) % n] for k in range(n)]
        assert cones_holding(X, Y, sums) == list(arr.cell_depths)


@pytest.mark.parametrize("sizes", [(3, 4), (4, 4), (3, 6), (5, 7), (8, 12)])
def test_general_class_sizes_match_fraction_recount(sizes):
    # An independent oracle on the Fraction points: the boundaries must run
    # counter-clockwise with no ray strictly inside a cell, and each cell's
    # depth must be its cone count at the sum of its bounding rays.
    rng = Random(1000 * sizes[0] + sizes[1])
    for _ in range(25):
        X, Y = random_valid_pair(rng, *sizes)
        arr = cell_depth_sequence(X, Y)
        n = len(X) + len(Y)
        assert len(arr.boundaries) == len(arr.cell_depths) == n
        assert sorted((r.colour, r.index) for r in arr.boundaries) == [
            (c, i) for c, size in enumerate(sizes) for i in range(size)
        ]
        dirs = [r.direction for r in arr.boundaries]
        sums = [dirs[k] + dirs[(k + 1) % n] for k in range(n)]
        assert cones_holding(X, Y, sums) == list(arr.cell_depths)
        dirs, points = [r.coords for r in dirs], [r.coords for r in X + Y]
        for k in range(n):
            a, b = dirs[k], dirs[(k + 1) % n]
            assert cross(a, b) > 0
            assert not any(cross(a, r) > 0 and cross(r, b) > 0 for r in points)
        assert verify_cell_depth_lemma(arr).lemma_ok, arr.cell_depths


# ------------------------------------------------------------------ the lemma


def test_cells_refuse_points_off_the_plane():
    X = [pt(1, 0, 0), pt(0, 1, 0), pt(-1, -1, 0)]
    with pytest.raises(InputError) as info:
        cell_depth_sequence(X, X)
    assert str(info.value) == "cell arrangements are two-dimensional"


def test_lemma_accepts_known_sequences():
    for seq in [(1, 2, 3, 4, 3, 2), (3, 2, 3, 2, 3, 2)]:
        rays = tuple(Ray(0, i, pt(1, i + 1)) for i in range(6))
        rep = verify_cell_depth_lemma(CircularArrangement(rays, seq))
        assert rep.lemma_ok
        assert rep.min_depth == min(seq)


def test_lemma_rejects_double_ones():
    rays = tuple(Ray(0, i, pt(1, i + 1)) for i in range(6))
    rep = verify_cell_depth_lemma(CircularArrangement(rays, (1, 2, 1, 2, 3, 2)))
    assert not rep.lemma_ok
    assert rep.count_of_min_cells == 2


def test_lemma_holds_for_one_cell_of_depth_one():
    rep = verify_cell_depth_lemma(CircularArrangement((Ray(0, 0, pt(1, 1)),), (1,)))
    assert rep == ((1,), 1, 1, True)


def test_arrangement_without_cells_is_refused():
    with pytest.raises(InputError, match="at least one cell"):
        CircularArrangement((), ())


# ------------------------------------------------------------------- rotations


def test_canonical_rotation():
    assert canonical_rotation((3, 4, 3, 2, 1, 2)) == (1, 2, 3, 4, 3, 2)
    assert canonical_rotation((3, 2, 3, 2, 3, 2)) == (2, 3, 2, 3, 2, 3)


def test_empty_sequence_rotates_to_itself():
    assert canonical_rotation(()) == ()
    assert cyclic_equal((), ())


def test_cyclic_equal():
    assert cyclic_equal((1, 2, 3), (3, 1, 2))
    assert not cyclic_equal((1, 2, 3), (1, 3, 2))


def test_arrangement_needs_one_cell_per_ray():
    with pytest.raises(InputError) as info:
        CircularArrangement((Ray(0, 0, pt(1, 0)),), (1, 2))
    assert str(info.value) == "one cell per boundary ray required"


@pytest.mark.parametrize("Y", [
    [pt(2, 0), pt(-1, 2), pt(-1, -2)],  # (2, 0) on the ray of (1, 0)
    [pt(-2, 0), pt(1, 2), pt(1, -2)],  # (-2, 0) opposite (1, 0)
    [pt(0, 0), pt(1, 2), pt(1, -2), pt(-3, 1)],  # a point at the origin
])
def test_rays_on_one_line_are_refused_by_the_sweep(Y):
    X = [pt(1, 0), pt(-1, 1), pt(-1, -1)]
    with pytest.raises(DegenerateArrangementError) as info:
        cell_depth_sequence(X, Y)
    assert str(info.value) == "two rays span the same line"
    # The hull checks come first: a class around no origin is refused as such.
    with pytest.raises(DegenerateArrangementError) as info:
        cell_depth_sequence(X, [*Y[:1], pt(1, 1), pt(1, 2)])
    assert str(info.value) == "0 must lie strictly inside both class hulls"


def _cells2d_refusal(capsys, tmp_path) -> str:
    """The one stderr line of `cells2d` on S-(2), in this process, that exits 2."""
    path = tmp_path / "sminus.json"
    assert main(["gen", "sminus", "--dim", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["cells2d", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, (out, err)
    return err.strip()


def test_propagation_that_fails_to_close_is_refused(monkeypatch, capsys, tmp_path):
    # One more vector of each colour in the first ray's half-turn moves its
    # crossing delta by 2, so the deltas no longer sum to zero round the circle.
    real = arrangements._half_turns

    def one_more_each(vecs, colours, r):
        (k, colour, h), *rest = real(vecs, colours, r)
        return [(k, colour, tuple(x + 1 for x in h)), *rest]

    monkeypatch.setattr(arrangements, "_half_turns", one_more_each)
    cfg = gen_sminus(2).config
    with pytest.raises(DegenerateArrangementError) as info:
        cell_depth_sequence(cfg.classes[0], cfg.classes[1])
    assert str(info.value) == "depth propagation failed to close the loop"
    assert _cells2d_refusal(capsys, tmp_path) == "error: depth propagation failed to close the loop"
