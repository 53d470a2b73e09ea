"""Exact cell-depth machinery on the circle for two 3-point colour classes.

The six rays through the points split the circle into six arcs ("cells");
the depth of a cell is the number of colourful cones, one generator from
each class, covering it.  The depth of one seed cell is found by brute
force, then propagated around the circle: crossing the ray of a point
changes the count by (points of the other colour ahead) minus (behind),
which is +-1 here because each class, containing 0 strictly in its hull,
is split 2-to-1 by every such line.  Propagation must close up around the
circle and must agree with a per-cell brute-force recount; both checks run
on every construction.

Angular order is decided by the exact half-turn-and-cross-product comparator
of `exact`, which the planar depth sweep shares; there is no trigonometry
anywhere.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import NamedTuple, Sequence

from .exact import InputError, Point, _angle_cmp, _cross, in_convex_hull, origin

__all__ = [
    "DegenerateArrangementError",
    "Ray",
    "CircularArrangement",
    "CellReport",
    "crossing_delta",
    "cell_depth_sequence",
    "verify_cell_depth_lemma",
    "canonical_rotation",
    "cyclic_equal",
]


class DegenerateArrangementError(ValueError):
    """Coincident or antipodal rays, or a class without 0 in its hull."""


class Ray(NamedTuple):
    colour: int
    index: int
    direction: Point


class _Arrangement(NamedTuple):
    boundaries: tuple[Ray, ...]
    cell_depths: tuple[int, ...]


class CircularArrangement(_Arrangement):
    """Cyclically ordered boundary rays with one cell depth per arc.

    cell_depths[k] is the depth of the open arc between boundaries[k] and
    boundaries[k+1] (cyclically)."""

    __slots__ = ()

    def __new__(cls, boundaries: tuple[Ray, ...], cell_depths: tuple[int, ...]):
        if len(boundaries) != len(cell_depths):
            raise InputError("one cell per boundary ray required")
        return super().__new__(cls, boundaries, cell_depths)


class CellReport(NamedTuple):
    sequence: tuple[int, ...]
    min_depth: int
    count_of_min_cells: int
    lemma_ok: bool


def crossing_delta(l: int, u: int, k: int, d: int) -> int:
    """Containment count just after a boundary crossing: l + u - k - (d-1).

    l counts cones that do not use the crossed hyperplane's generators; of
    the u points off the hyperplane, k sit on the entry side.
    """
    if l < 0:
        raise InputError("l must be non-negative")
    if not 0 <= k <= u - (d - 1):
        raise InputError("k must lie between 0 and u-(d-1)")
    return l + u - k - (d - 1)


def _cone_contains_2d(g1: Point, g2: Point, v: Point) -> bool:
    det = _cross(g1, g2)
    if det == 0:
        raise DegenerateArrangementError("cone generators are parallel")
    a = _cross(v, g2)
    b = _cross(g1, v)
    if det < 0:
        a, b = -a, -b
    return a >= 0 and b >= 0


def cell_depth_sequence(X: Sequence[Point], Y: Sequence[Point]) -> CircularArrangement:
    """Cells and depths induced by two 3-point classes on the circle.

    Requires 0 strictly inside each class hull and all six rays pairwise
    non-parallel (no equal and no antipodal directions).
    """
    if len(X) != 3 or len(Y) != 3:
        raise InputError("exactly two colour classes of three points each")
    for p in list(X) + list(Y):
        if p.dim != 2:
            raise InputError("cell arrangements are two-dimensional")
    zero = origin(2)
    if not in_convex_hull(zero, X, strict=True) or not in_convex_hull(zero, Y, strict=True):
        raise DegenerateArrangementError("0 must lie strictly inside both class hulls")
    rays = [Ray(0, i, p) for i, p in enumerate(X)] + [Ray(1, i, p) for i, p in enumerate(Y)]
    for i in range(6):
        for j in range(i + 1, 6):
            if _cross(rays[i].direction, rays[j].direction) == 0:
                raise DegenerateArrangementError(
                    f"rays {(rays[i].colour, rays[i].index)} and "
                    f"{(rays[j].colour, rays[j].index)} span the same line"
                )
    rays.sort(key=cmp_to_key(lambda a, b: _angle_cmp(a.direction, b.direction)))

    classes = (tuple(X), tuple(Y))

    def brute(v: Point) -> int:
        return sum(
            1 for x in X for y in Y if _cone_contains_2d(x, y, v)
        )

    # Test direction strictly inside each arc: the sum of the bounding ray
    # directions, valid because every consecutive gap is below pi (each class
    # alone has all gaps below pi when 0 is interior to its hull).
    test_dirs = []
    for k in range(6):
        a = rays[k].direction
        b = rays[(k + 1) % 6].direction
        if _cross(a, b) <= 0:
            raise DegenerateArrangementError("consecutive rays spread by half a turn")
        test_dirs.append(a + b)

    seed_depth = brute(test_dirs[0])
    depths = [seed_depth]
    for k in range(1, 6):
        crossed = rays[k]
        others = classes[1 - crossed.colour]
        ahead = behind = 0
        for o in others:
            c = _cross(crossed.direction, o)
            if c > 0:
                ahead += 1
            elif c < 0:
                behind += 1
        if {ahead, behind} != {1, 2}:
            raise DegenerateArrangementError("crossing is not a 2-to-1 split")
        depths.append(depths[-1] + ahead - behind)

    # closure: crossing the first ray from the last cell returns to the seed
    crossed = rays[0]
    others = classes[1 - crossed.colour]
    delta = sum(1 for o in others if _cross(crossed.direction, o) > 0) - sum(
        1 for o in others if _cross(crossed.direction, o) < 0
    )
    if depths[-1] + delta != seed_depth:
        raise DegenerateArrangementError("depth propagation failed to close the loop")

    for k in range(6):
        if brute(test_dirs[k]) != depths[k]:
            raise DegenerateArrangementError(
                f"propagated depth {depths[k]} disagrees with brute force in cell {k}"
            )

    return CircularArrangement(tuple(rays), tuple(depths))


def verify_cell_depth_lemma(arr: CircularArrangement) -> CellReport:
    """Minimum cell depth is 1 or more; a depth-1 cell, if present, is unique
    and every other cell has depth 2 or more."""
    seq = arr.cell_depths
    mn = min(seq)
    n_min = seq.count(mn)
    ones = seq.count(1)
    ok = mn >= 1 and (ones == 0 or (ones == 1 and sorted(seq)[1] >= 2))
    return CellReport(seq, mn, n_min, ok)


def canonical_rotation(seq: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically smallest rotation, for stable export of cyclic lists."""
    s = tuple(seq)
    return min(tuple(s[k:] + s[:k]) for k in range(len(s)))


def cyclic_equal(a: Sequence[int], b: Sequence[int]) -> bool:
    return len(a) == len(b) and canonical_rotation(a) == canonical_rotation(b)
