"""Exact rational predicates for affine and conic containment.

Points carry `fractions.Fraction` coordinates, but every predicate is decided
on integers: each vector is scaled by the positive lcm of its denominators,
which changes no determinant sign, rank, or origin-in-hull answer.  A point
translated to a query point p is formed on those integer rows too, as
s_p * Q - s_q * P, so no rational difference is ever built.  One
integer kernel sits under all of them: a determinant (closed forms up to
3x3, Bareiss above), a Bareiss echelon for ranks and pivot columns, and the
cofactors that give the barycentric signs of the origin in a simplex.  There
is no floating-point code path.

The same cofactors, taken over the d homogeneous rows of a facet, are the
normal N of the hyperplane through its d points: the (d+1)-determinant of
the facet and any point q is the dot product N . (q, 1).  Strict hull
membership computes each facet normal once and then decides every point
against it with a dot product; a zero normal means the facet spans no
hyperplane, which is all that query-side general position asks of the
normal.

General position needs no normal at all.  Facets that share their first
d-1 points P form a pencil of hyperplanes through span(P), and two points
q, r lie on one hyperplane with P exactly when their images in the plane
R^(d+1) / span(P) are parallel.  Fraction-free elimination of P gives those
plane vectors, one per d-subset, and hashing their directions decides every
(d+1)-subset of a pencil at once: C(n, d) plane vectors instead of
C(n, d+1) determinants.

All functions are pure and operate on immutable values, so they can be called
from any number of workers without coordination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul
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


def _scaled_row(values) -> tuple[int, tuple[int, ...]]:
    """(s, s * values) for s the lcm of the denominators of the rationals.

    A positive scaling never changes a determinant sign, a rank, or whether
    the origin lies in a hull spanned with the scaled vector.  Pass
    ``(*p.coords, 1)`` for the homogeneous row of a point.
    """
    pairs = [c.as_integer_ratio() for c in values]
    s = lcm(*[q for _, q in pairs])
    return s, tuple([n * (s // q) for n, q in pairs])


def _int_row(values) -> tuple[int, ...]:
    """The integer vector of `_scaled_row`, without its scale."""
    return _scaled_row(values)[1]


def _translated_rows(points: Sequence[Point], p: Point) -> list[tuple[int, tuple[int, ...]]]:
    """(s, s * (q - p)) for each point q, with s = s_p * s_q > 0, computed on
    the `_scaled_row` pairs (s_q, Q) and (s_p, P) as (s_p * s_q, s_p * Q - s_q * P).

    This is the translation to p in integers: no rational is formed, and the
    scale is positive, which is all a containment decision or the
    `_origin_status` degenerate test asks of it (it need not be the lcm of
    `_scaled_row`).
    """
    sp, P = _scaled_row(p.coords)
    out = []
    for q in points:
        sq, Q = _scaled_row(q.coords)
        out.append((sp * sq, tuple([sp * a - sq * b for a, b in zip(Q, P)])))
    return out


def _det_int(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix: closed forms up to 3x3, the
    fraction-free Bareiss elimination above."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    a = [list(row) for row in m]
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

    Read the other way, ``_cofactors(list(zip(*facet)))`` for d homogeneous
    rows is the normal N of the hyperplane they span: expanding along the
    last row, det(facet + (q,)) = sum(N_j * q_j) for every row q.
    """
    n = len(cols)
    minors = [_det_int(cols[:i] + cols[i + 1:]) for i in range(n)]
    return [m if (n - 1 + i) % 2 == 0 else -m for i, m in enumerate(minors)]


def _origin_status(t: Sequence[int], det: int | None = None) -> tuple[bool, bool, bool]:
    """(open_hit, closed_hit, degenerate) for the origin and the simplex on
    d+1 integer vectors in dimension d, given their `_cofactors` t.

    det defaults to sum(t), the determinant.  When each vector is the one it
    stands for times its own positive scale, pass sum(scale_i * t_i), which
    is the product of the scales times the unscaled determinant: degenerate
    then means the unscaled vectors are affinely dependent.  The hits do not
    depend on the scales.
    """
    if det is None:
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
    return any(_origin_status(_cofactors(sub))[1] for sub in combinations(flat, k + 1))


def _cross(a: Sequence, b: Sequence):
    return a[0] * b[1] - a[1] * b[0]


def _half(v: Sequence) -> int:
    """0 for angles in [0, pi), 1 for [pi, 2pi), measured from the +x axis."""
    if v[1] > 0 or (v[1] == 0 and v[0] > 0):
        return 0
    return 1


def _angle_cmp(a: Sequence, b: Sequence) -> int:
    """Exact counter-clockwise angular order of nonzero plane vectors from the
    +x axis: half-turn first, then the cross-product sign.  0 only for
    vectors on one ray."""
    ha, hb = _half(a), _half(b)
    if ha != hb:
        return -1 if ha < hb else 1
    c = _cross(a, b)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


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
    cols = [w for _, w in _translated_rows(vertices, p)]
    open_hit, closed_hit, degenerate = _origin_status(_cofactors(cols))
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
    d = _check_dims(S, p.dim)
    if not strict:
        return _hull_contains([w for _, w in _translated_rows(S, p)])
    rows = list(dict.fromkeys(_int_row((*q.coords, 1)) for q in S))
    if len(_pivots(rows)) <= d:
        return False  # lower-dimensional hull has empty interior
    p_row = _int_row((*p.coords, 1))
    for facet in combinations(rows, d):
        normal = _cofactors(list(zip(*facet)))
        pos = neg = False
        for q in rows:
            s = sum(map(mul, normal, q))
            pos = pos or s > 0
            neg = neg or s < 0
            if pos and neg:
                break
        if pos == neg:
            continue  # cuts through S, or spans no hyperplane
        if _sign(sum(map(mul, normal, p_row))) != (1 if pos else -1):
            return False
    return True


def in_general_position(points: Sequence[Point]) -> bool:
    """True iff every (d+1)-subset of the points is affinely independent.

    For n >= d+1 points this is equivalent to: no k-dimensional affine flat
    contains k+2 of the points, for any k < d.

    Pencil certificate.  In the order of the homogeneous integer rows, a
    (d+1)-subset is a prefix P of d-1 rows followed by two later rows q, r,
    and det(P; q; r) = q . C_P r for the antisymmetric (d+1) x (d+1) matrix
    C_P of signed (d-1)-minors of P.  C_P is zero when P is affinely
    dependent; otherwise it has rank 2 and kernel span(P), and for any
    C_P[a][b] != 0 the plane vector pi(q) = (C_P[a] . q, C_P[b] . q) has
    cross(pi(q), pi(r)) = C_P[a][b] * det(P; q; r).  So the points are in
    general position exactly when every prefix with two or more later rows
    is independent and the plane vectors of its later rows are nonzero and
    pairwise non-parallel: reduced by gcd and sign, they go into one set per
    prefix.  That is C(n, d) plane vectors instead of C(n, d+1) determinants.

    The plane vectors come from fraction-free (Bareiss) elimination.  Each
    row added to a prefix is one elimination step on the rows after it, so
    a prefix reuses the work of its own prefix and every division is exact.
    Once the d-1 rows of P are eliminated, q keeps two entries: the d x d
    minors of (P; q) on the pivot columns plus one other column, that is
    +-C_P[b] . q and +-C_P[a] . q for the two columns a, b without a pivot.
    The rows are held column by column, so a step is one pass per column.
    """
    d = _check_dims(points)
    rows = [_int_row((*p.coords, 1)) for p in points]

    def extend(cols, prev: int) -> bool:
        # cols: the rows after a prefix of k rows, eliminated by it, as
        # d+1-k columns; prev: the prefix's last pivot.
        if len(cols) == 2:
            lines = set()
            for x, y in zip(*cols):
                g = gcd(x, y)
                if g == 0:
                    return False  # in the span of the prefix
                if x < 0 or (x == 0 and y < 0):
                    g = -g
                lines.add((x // g, y // g))
            return len(lines) == len(cols[0])
        # The next prefix row must leave len(cols) - 1 rows after it.
        for i in range(len(cols[0]) + 1 - len(cols)):
            for j, col in enumerate(cols):
                if col[i]:
                    break
            else:
                return False  # row i is in the span of the prefix
            pivot = cols[j][i]
            below = cols[j][i + 1:]
            nxt = [
                [(pivot * x - col[i] * y) // prev for x, y in zip(col[i + 1:], below)]
                for k, col in enumerate(cols) if k != j
            ]
            if not extend(nxt, pivot):
                return False
        return True

    return extend([list(col) for col in zip(*rows)], 1)


def in_general_position_with(points: Sequence[Point], p: Point) -> bool:
    """True iff p avoids every hyperplane spanned by d of the given points.

    Subsets of d points that are themselves affinely dependent span no
    hyperplane (their normal is zero) and are ignored; the normal is computed
    only for subsets that are affinely dependent together with p.  This is
    the query-side general position needed for open and closed containment
    counts to coincide at p.
    """
    d = _check_dims(list(points) + [p])
    # Subtracting (p, 1) from the other rows of det(base + (p, 1)) leaves
    # the d x d determinant of the vectors q - p, each scaled to integers.
    vecs = [w for _, w in _translated_rows(points, p)]
    for base in combinations(range(len(points)), d):
        if _det_int([vecs[i] for i in base]) == 0 and any(
            _cofactors(list(zip(*(_int_row((*points[i].coords, 1)) for i in base))))
        ):
            return False
    return True
