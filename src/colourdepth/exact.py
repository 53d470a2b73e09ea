"""Exact rational predicates for affine and conic containment.

Points carry `fractions.Fraction` coordinates, but every predicate is decided
on integers: each vector is scaled by the positive lcm of its denominators,
which changes no determinant sign, rank, or origin-in-hull answer.  One
integer kernel sits under all of them: a Bareiss determinant, a Bareiss
echelon for ranks and pivot columns, and the cofactors that give the
barycentric signs of the origin in a simplex.  There is no floating-point
code path.

All functions are pure and operate on immutable values, so they can be called
from any number of workers without coordination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Literal, Sequence

Mode = Literal["open", "closed"]

__all__ = [
    "Point",
    "pt",
    "origin",
    "InputError",
    "DegenerateConeError",
    "orientation",
    "barycentric_coordinates",
    "point_in_simplex",
    "cone_contains",
    "in_convex_hull",
    "in_general_position",
    "in_general_position_with",
]


class InputError(ValueError):
    """Malformed input: dimension mismatch, bad sizes, out-of-range indices."""


class DegenerateConeError(InputError):
    """Cone generators are linearly dependent."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise InputError(
        f"coordinates must be int, Fraction or rational string, got {type(x).__name__}"
    )


class Point:
    """Immutable point with exact rational coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable):
        object.__setattr__(self, "coords", tuple(_frac(c) for c in coords))
        if not self.coords:
            raise InputError("a point needs at least one coordinate")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Point) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __neg__(self) -> "Point":
        return Point(-c for c in self.coords)

    def __sub__(self, other: "Point") -> "Point":
        if self.dim != other.dim:
            raise InputError("dimension mismatch in point subtraction")
        return Point(a - b for a, b in zip(self.coords, other.coords))

    def __add__(self, other: "Point") -> "Point":
        if self.dim != other.dim:
            raise InputError("dimension mismatch in point addition")
        return Point(a + b for a, b in zip(self.coords, other.coords))

    def __setattr__(self, *args):  # pragma: no cover
        raise AttributeError("Point is immutable")

    def __repr__(self) -> str:
        return "Point(%s)" % ", ".join(str(c) for c in self.coords)


def pt(*coords) -> Point:
    """Shorthand constructor: ``pt(1, 2)`` instead of ``Point((1, 2))``."""
    return Point(coords)


def origin(dim: int) -> Point:
    return Point([Fraction(0)] * dim)


def _check_dims(points: Sequence[Point], dim: int | None = None) -> int:
    if not points:
        raise InputError("empty point list")
    d = points[0].dim if dim is None else dim
    for p in points:
        if p.dim != d:
            raise InputError(f"dimension mismatch: expected {d}, got {p.dim}")
    return d


# ------------------------------------------------------------- integer kernel


def _int_row(values) -> tuple[int, ...]:
    """The rationals times the lcm of their denominators.

    A positive scaling never changes a determinant sign, a rank, or whether
    the origin lies in a hull spanned with the scaled vector.  Pass
    ``(*p.coords, 1)`` for the homogeneous row of a point.
    """
    s = lcm(*(c.denominator for c in values))
    return tuple(c.numerator * (s // c.denominator) for c in values)


def _det_int(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    a = [list(row) for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def _pivots(rows: Sequence[Sequence[int]]) -> list[int]:
    """Pivot columns of the row echelon form of an integer matrix; the rank
    is their number.

    Fraction-free (Bareiss) elimination: every entry stays an integer minor
    of the input and every division is exact.
    """
    a = [list(row) for row in rows]
    cols = len(a[0])
    pivots: list[int] = []
    prev = 1
    for c in range(cols):
        r = len(pivots)
        sel = next((i for i in range(r, len(a)) if a[i][c]), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        for i in range(r + 1, len(a)):
            for j in range(c + 1, cols):
                a[i][j] = (a[i][j] * a[r][c] - a[i][c] * a[r][j]) // prev
        prev = a[r][c]
        pivots.append(c)
        if r + 1 == len(a):
            break
    return pivots


def _sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _cofactors(cols: Sequence[Sequence[int]]) -> list[int]:
    """Cofactors t of the row of ones in the square matrix whose columns are
    (c, 1) for the d+1 integer vectors c in dimension d.

    sum(t_i * c_i) = 0 and sum(t) is the determinant, so when that is nonzero
    t / sum(t) are the barycentric coordinates of the origin.
    """
    n = len(cols)
    minors = [_det_int(cols[:i] + cols[i + 1:]) for i in range(n)]
    return [m if (n - 1 + i) % 2 == 0 else -m for i, m in enumerate(minors)]


def _origin_status(cols: Sequence[Sequence[int]]) -> tuple[bool, bool, bool]:
    """(open_hit, closed_hit, degenerate) for the origin and the simplex on
    d+1 integer vectors in dimension d."""
    t = _cofactors(cols)
    det = sum(t)
    if det == 0:
        return False, False, True
    if det > 0 and min(t) < 0 or det < 0 and max(t) > 0:
        return False, False, False
    return 0 not in t, True, False


def _hull_contains(cols: Sequence[tuple[int, ...]]) -> bool:
    """True iff the origin lies in the closed convex hull of the integer vectors.

    The vectors span a k-flat.  By Caratheodory the origin is in their hull
    exactly when it is in the closed simplex of some k+1 affinely independent
    ones.  Keeping only the pivot coordinates maps a flat through the origin
    one-to-one onto R^k, so the search runs on projected (k+1)-subsets.
    """
    rows = list(dict.fromkeys(c + (1,) for c in cols))
    pivots = _pivots(rows)
    d = len(rows[0]) - 1
    if pivots[-1] != d:
        # The ones column is a pivot exactly when the linear rank is k,
        # that is, when the flat holds the origin.
        return False
    k = len(pivots) - 1
    if k == 0:
        return True  # every vector is the origin
    flat = [tuple(r[c] for c in pivots[:-1]) for r in rows]
    return any(_origin_status(sub)[1] for sub in combinations(flat, k + 1))


# ----------------------------------------------------------------- predicates


def orientation(points: Sequence[Point]) -> int:
    """Sign of the determinant of (p2-p1, ..., p_{d+1}-p1) for d+1 points.

    Returns +1, -1, or 0; 0 exactly when the points are affinely dependent.
    """
    d = _check_dims(points)
    if len(points) != d + 1:
        raise InputError(f"orientation needs {d + 1} points in dimension {d}")
    return _sign(_det_int([_int_row((*p.coords, 1)) for p in points]))


def _check_simplex(p: Point, vertices: Sequence[Point]) -> int:
    d = _check_dims(list(vertices) + [p])
    if len(vertices) != d + 1:
        raise InputError(f"need {d + 1} vertices in dimension {d}")
    return d


def barycentric_coordinates(
    p: Point, vertices: Sequence[Point]
) -> list[Fraction] | None:
    """Coefficients l with sum(l) = 1 and p = sum(l_i * v_i), or None.

    None is the degenerate flag: the vertices are affinely dependent.
    """
    d = _check_simplex(p, vertices)
    # One common scale for every vertex keeps the ratios of the cofactors.
    flat = _int_row([c for v in vertices for c in (v - p).coords])
    t = _cofactors([flat[i:i + d] for i in range(0, len(flat), d)])
    det = sum(t)
    if det == 0:
        return None
    return [Fraction(x, det) for x in t]


def point_in_simplex(p: Point, vertices: Sequence[Point], mode: Mode) -> bool:
    """Membership of p in the simplex spanned by d+1 vertices.

    open: all barycentric coordinates strictly positive (degenerate simplices
    contain nothing).  closed: exact hull membership, which also handles
    degenerate vertex sets (repeated or affinely dependent vertices).
    """
    if mode not in ("open", "closed"):
        raise InputError(f"mode must be 'open' or 'closed', got {mode!r}")
    _check_simplex(p, vertices)
    cols = [_int_row((v - p).coords) for v in vertices]
    open_hit, closed_hit, degenerate = _origin_status(cols)
    if degenerate:
        return mode == "closed" and _hull_contains(cols)
    return open_hit if mode == "open" else closed_hit


def cone_contains(generators: Sequence[Point], v: Point) -> bool:
    """True iff v is a non-negative combination of d linearly independent
    generators in dimension d."""
    d = _check_dims(list(generators) + [v])
    if len(generators) != d:
        raise InputError(f"need exactly {d} generators in dimension {d}")
    # sum(t_i * g_i) = t_d * v, and t_d is the determinant of the generators.
    cols = [_int_row(g.coords) for g in generators]
    t = _cofactors(cols + [tuple(-x for x in _int_row(v.coords))])
    if t[-1] == 0:
        raise DegenerateConeError("cone generators are linearly dependent")
    return all(x * t[-1] >= 0 for x in t)


def in_convex_hull(p: Point, S: Sequence[Point], strict: bool = False) -> bool:
    """Exact convex hull membership.

    Non-strict containment is a Caratheodory search for a closed simplex of
    points of S around p.  Strict containment requires conv(S) to be
    full-dimensional and p to lie strictly on the inner side of every
    supporting hyperplane spanned by d points of S.
    """
    d = _check_dims(list(S) + [p])
    if not strict:
        return _hull_contains([_int_row((q - p).coords) for q in S])
    rows = list(dict.fromkeys(_int_row((*q.coords, 1)) for q in S))
    if len(_pivots(rows)) <= d:
        return False  # lower-dimensional hull has empty interior
    p_row = _int_row((*p.coords, 1))
    for facet in combinations(rows, d):
        pos = neg = False
        for q in rows:
            s = _det_int(facet + (q,))
            pos = pos or s > 0
            neg = neg or s < 0
            if pos and neg:
                break
        if pos == neg:
            continue  # cuts through S, or spans no hyperplane
        if _sign(_det_int(facet + (p_row,))) != (1 if pos else -1):
            return False
    return True


def in_general_position(points: Sequence[Point]) -> bool:
    """True iff every (d+1)-subset of the points is affinely independent.

    For n >= d+1 points this is equivalent to: no k-dimensional affine flat
    contains k+2 of the points, for any k < d.
    """
    d = _check_dims(points)
    rows = [_int_row((*p.coords, 1)) for p in points]
    return all(_det_int(sub) != 0 for sub in combinations(rows, d + 1))


def in_general_position_with(points: Sequence[Point], p: Point) -> bool:
    """True iff p avoids every hyperplane spanned by d of the given points.

    Subsets of d points that are themselves affinely dependent span no
    hyperplane and are ignored.  This is the query-side general position
    needed for open and closed containment counts to coincide at p.
    """
    d = _check_dims(list(points) + [p])
    rows = [_int_row((*q.coords, 1)) for q in points]
    p_row = _int_row((*p.coords, 1))
    for base in combinations(rows, d):
        if _det_int(base + (p_row,)) == 0 and len(_pivots(base)) == d:
            return False
    return True
