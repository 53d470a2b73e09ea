"""Exact cell-depth machinery on the circle for two planar colour classes.

The rays through the points of both classes split the circle into arcs
("cells"), one per ray; the depth of a cell is the number of colourful cones,
one generator from each class, covering it.  Crossing the ray of a point
counter-clockwise starts the cones whose other generator lies ahead of it and
ends those whose other generator lies behind it, so the depth changes by
(points of the other class ahead) - (behind) = 2 h - |other|, h being the
other class's count in the open half-turn after the ray.  One pass of the
angular sweep `depth._half_turns`, which planar depth counting shares, gives
the order of the rays and every h, and refuses two rays on one line.

The depth of every cell is also counted outright, at the sum u of its two
bounding rays, by the counter under `depth.antipodal_cone_count`: the cones
covering u are the colourful triangles that hold 0 together with -u.  The
recounts run on the integer vectors of the sweep, as one count with the
cells as its last class, so the |X| |Y| generator minors are computed once
for all cells.  Propagation must close up around the circle and must agree
with every recount; both checks run on every construction.  Each ray is
the integer vector of its point's row; there is no trigonometry anywhere.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple, Sequence

from .depth import _antipodal_count, _half_turns
from .exact import InputError, Point, _check_budget, in_convex_hull, origin

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
        if not cell_depths:
            raise InputError("an arrangement needs at least one cell")
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


def cell_depth_sequence(X: Sequence[Point], Y: Sequence[Point]) -> CircularArrangement:
    """Cells and depths induced by two planar colour classes on the circle.

    Requires at least three points in each class, 0 strictly inside each
    class hull, and all rays pairwise non-parallel (no equal and no
    antipodal directions).  The hull checks run first; a parallel pair is
    found by the sweep `_half_turns` and refused as "two rays span the same
    line".
    """
    if len(X) < 3 or len(Y) < 3:
        raise InputError("each colour class needs at least three points")
    rays = [Ray(0, i, p) for i, p in enumerate(X)] + [Ray(1, i, p) for i, p in enumerate(Y)]
    if any(r.direction.dim != 2 for r in rays):
        raise InputError("cell arrangements are two-dimensional")
    # Each of the |X|+|Y| cells is recounted over all |X| |Y| generator pairs.
    sizes = (len(X), len(Y))
    _check_budget((*sizes, sum(sizes)), 3, "recount tuples")
    zero = origin(2)
    if not in_convex_hull(zero, X, strict=True) or not in_convex_hull(zero, Y, strict=True):
        raise DegenerateArrangementError("0 must lie strictly inside both class hulls")
    vecs = [r.direction.row[:-1] for r in rays]
    turns = _half_turns(vecs, [r.colour for r in rays], 2)
    if turns is None:
        raise DegenerateArrangementError("two rays span the same line")

    order, deltas = [], []
    for k, colour, h in turns:
        order.append(k)
        deltas.append(2 * h[1 - colour] - sizes[1 - colour])

    # Cell k lies between rays order[k] and order[k+1].  The sum of their
    # vectors is strictly inside it, because every consecutive gap is
    # positive, no two rays being parallel, and below a half-turn: each
    # class alone has all gaps below it when 0 is interior to its hull, and
    # merging the classes only splits gaps.  The cones holding it are those
    # holding 0 with its antipode, appended as one more column per cell.
    n = len(order)
    cols = list(vecs)
    for k in range(n):
        a, b = vecs[order[k]], vecs[order[(k + 1) % n]]
        cols.append((-a[0] - b[0], -a[1] - b[1]))
    cones, _ = _antipodal_count((*sizes, n), [(0, 1)], cols)

    depths = list(accumulate(deltas[1:], initial=cones[0]))
    # closure: crossing the first ray from the last cell returns to the seed
    if depths[-1] + deltas[0] != depths[0]:
        raise DegenerateArrangementError("depth propagation failed to close the loop")
    for k in range(n):
        if cones[k] != depths[k]:
            raise DegenerateArrangementError(
                f"propagated depth {depths[k]} disagrees with the recount in cell {k}"
            )

    return CircularArrangement(tuple(rays[k] for k in order), tuple(depths))


def verify_cell_depth_lemma(arr: CircularArrangement) -> CellReport:
    """Minimum cell depth is 1 or more; a depth-1 cell, if present, is unique
    and every other cell has depth 2 or more.  Depths are integers, so with
    the minimum at 1 or more a unique 1 leaves every other cell at 2 or
    more."""
    seq = arr.cell_depths
    mn = min(seq)
    return CellReport(seq, mn, seq.count(mn), mn >= 1 and seq.count(1) <= 1)


def canonical_rotation(seq: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically smallest rotation, for stable export of cyclic lists."""
    s = tuple(seq)
    return min((s[k:] + s[:k] for k in range(len(s))), default=())


def cyclic_equal(a: Sequence[int], b: Sequence[int]) -> bool:
    return len(a) == len(b) and canonical_rotation(a) == canonical_rotation(b)
