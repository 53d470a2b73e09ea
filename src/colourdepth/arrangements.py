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

The same pass decides class-hull containment.  With no two rays on one
line and none zero, 0 lies strictly inside the hull of a class exactly when
no gap between its cyclically consecutive rays reaches a half-turn, that is,
when every ray of the class has another ray of its class in its open
half-turn.  So no hull test runs; the sweep's refusal of a parallel pair
comes first and the hull refusal after it.

The same half-turn counts seed the propagation with the depth of cell 0,
the arc between the first two rays of the angular order.  A cone covers
the arc counter-clockwise from its first generator to its second, the
second lying in the half-turn after the first.  So the first ray covers
cell 0 with every ray of the other colour in its half-turn, and the ray at
position i >= 1, with s_i rays in its half-turn, with the other-colour rays
at positions 1 .. i + s_i - n, where its half-turn wraps past the first
ray; per-colour prefix counts over the angular order give each term.  The
depth of every other cell follows from the crossings.  Propagation must
close up around the circle; that check runs on every construction.  No
cone is enumerated: brute-force recounts of every cell are the oracle of
the tests, not part of the engine.  Each ray is the integer vector of its
point's row; there is no trigonometry anywhere.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple, Sequence

from .depth import _half_turns
from .exact import InputError, Point

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


class DegenerateArrangementError(InputError):
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
    antipodal directions).  The sweep `_half_turns` finds a parallel pair
    first and refuses it as "two rays span the same line"; the hull
    condition is then read from its half-turn counts.  The sweep gives every
    depth, so no class size is refused.
    """
    if len(X) < 3 or len(Y) < 3:
        raise InputError("each colour class needs at least three points")
    rays = [Ray(0, i, p) for i, p in enumerate(X)] + [Ray(1, i, p) for i, p in enumerate(Y)]
    if any(r.direction.dim != 2 for r in rays):
        raise InputError("cell arrangements are two-dimensional")
    sizes, n = (len(X), len(Y)), len(rays)
    turns = _half_turns([r.direction.row[:-1] for r in rays], [r.colour for r in rays], 2)
    if turns is None:
        raise DegenerateArrangementError("two rays span the same line")
    if not all(h[c] for _, c, h in turns):
        raise DegenerateArrangementError("0 must lie strictly inside both class hulls")

    deltas = [2 * h[1 - c] - sizes[1 - c] for _, c, h in turns]
    # closure: crossing every ray once returns to the depth it started from
    if sum(deltas):
        raise DegenerateArrangementError("depth propagation failed to close the loop")

    # The seed, cell 0, as the module docstring sums it: ahead[c][m] counts
    # the rays of colour c at positions 1 .. m of the order.
    (_, c0, h0), *rest = turns
    ahead = [list(accumulate((x == c for _, x, _ in rest), initial=0)) for c in (0, 1)]
    seed = h0[1 - c0] + sum(
        ahead[1 - c][max(i + sum(h) - n, 0)] for i, (_, c, h) in enumerate(rest, 1))
    depths = tuple(accumulate(deltas[1:], initial=seed))
    return CircularArrangement(tuple(rays[k] for k, _, _ in turns), depths)


def verify_cell_depth_lemma(arr: CircularArrangement) -> CellReport:
    """Minimum cell depth is 1 or more; a depth-1 cell, if present, is unique
    and every other cell has depth 2 or more.  Depths are integers, so with
    the minimum at 1 or more a unique 1 leaves every other cell at 2 or
    more."""
    seq = arr.cell_depths
    mn = min(seq)
    return CellReport(seq, mn, seq.count(mn), mn >= 1 and seq.count(1) <= 1)


def canonical_rotation(seq: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically smallest rotation, for stable export of cyclic lists.

    The smallest rotation starts at a minimum, so only those rotations are
    compared: O(n) per minimum."""
    s = tuple(seq)
    least = min(s, default=None)
    return min((s[k:] + s[:k] for k, x in enumerate(s) if x == least), default=())


def cyclic_equal(a: Sequence[int], b: Sequence[int]) -> bool:
    return len(a) == len(b) and canonical_rotation(a) == canonical_rotation(b)
