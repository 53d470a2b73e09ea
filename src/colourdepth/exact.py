"""Exact rational predicates for affine and conic containment.

Points carry `fractions.Fraction` coordinates, but every predicate is decided
on integers.  A `Point` computes its homogeneous integer row (s * x, s) once,
when it is made: s is the positive lcm of the denominators, and a positive
scaling changes no determinant sign, rank, or origin-in-hull answer.  The row
is in lowest terms, so it is canonical, and points compare and hash by it.
It is built from (numerator, denominator) integer pairs, which the one
rational parser `_parse_pair` reads from ints and "num/den" strings with
`int()` alone, or which a caller that drew them as integers hands to the
pair constructor `Point._from_pairs`.
Predicates and counters read the rows and never rescale a point.  A point
translated to a query point p is formed on those integer rows too, as
s_p * Q - s_q * P, so no rational difference is ever built.  One
integer kernel sits under all of them: a determinant (closed forms up to
3x3, Bareiss above), a Bareiss echelon for ranks and pivot columns, and the
cofactors that give the barycentric signs of the origin in a simplex.  There
is no floating-point code path.

Strict hull membership asks for p in the interior of the hull.  When the
set has d+1 distinct points its hull is a simplex, and p is interior exactly
when the origin is in the open simplex of the points translated to p: the
d+1 minors of those integer vectors must be nonzero and alternate in sign,
and the test stops at the first that does not (`_open_simplex`), with no
rank and no facet normal.  Larger sets take the facet loop.  The cofactors
(signed minors), taken over the d homogeneous rows of a facet, are the
normal N of the hyperplane through its d points: the (d+1)-determinant of
the facet and any point q is the dot product N . (q, 1).  The loop computes each facet normal once and
then decides every point against it with a dot product; a zero normal means
the facet spans no hyperplane, which is all that query-side general
position asks of the normal.

In the plane, hull membership needs neither search.  The points translated
to p, sorted once by angle, leave a gap of more than a half-turn between
neighbouring directions exactly when p is outside their closed hull, and of
a half-turn or more exactly when p is outside its interior: O(n log n).
That angular order, `_angular_order`, is the package's one sort of plane
vectors; the planar depth sweep and the circle cells read it too.  In
higher dimensions, both hull searches, the Caratheodory subset search of
closed membership and the facet loop of strict membership, refuse a set
with more than `MAX_TUPLES` (d+1)-subsets of distinct points up front.

General position needs no normal at all.  Facets that share their first
d-1 points P form a pencil of hyperplanes through span(P), and two points
q, r lie on one hyperplane with P exactly when their images in the plane
R^(d+1) / span(P) are parallel.  Fraction-free elimination of P gives those
plane vectors, one per d-subset, and hashing their directions decides every
(d+1)-subset of a pencil at once: C(n, d) plane vectors instead of
C(n, d+1) determinants.  The same pencil, `_pencil`, run on the points
translated to a query point p, finds no d of them linearly dependent for
almost every p, which certifies query-side general position from
C(n, d-1) plane vectors; only when it finds a dependent d-subset, which
may span no hyperplane, are the d-subsets enumerated.  Above the plane,
both pencils and that enumeration are refused with more than `MAX_TUPLES`
subsets, as the hull searches are.

All functions are pure and operate on immutable values, so they can be called
from any number of workers without coordination.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Iterable, Literal, Sequence

Mode = Literal["open", "closed"]

__all__ = [
    "Point",
    "pt",
    "origin",
    "parse_fraction",
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


# Python refuses to read integers of more than 4300 digits; a decimal
# exponent is held to the same size, since '1e99999999' would otherwise
# build a 10^8-digit integer.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+)$")
_PAIR = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def parse_fraction(v) -> Fraction:
    """The rational an int, a `Fraction` or a rational string stands for;
    anything else, a bool included, is an `InputError`.  This is
    `_parse_pair` as a `Fraction`."""
    if isinstance(v, Fraction):
        return v
    return Fraction(*_parse_pair(v))


def _parse_pair(v) -> tuple[int, int]:
    """The (numerator, denominator) integer pair, denominator positive and
    not necessarily in lowest terms, of an int, a `Fraction` or a rational
    string; anything else, a bool included, is an `InputError`.  This is the
    package's one rational parser: every coordinate of a `Point`, and so
    every rational read from a file, is parsed here.

    A plain int, and a string "n" or "n/q" of ASCII digits (a sign on n
    only, q not zero, spaces around the whole) are read with `int()` alone.
    Every other spelling goes through `Fraction`, which gives the same value
    for the spellings both accept and says why it refuses the others.
    """
    if type(v) is int:
        return v, 1
    if type(v) is str:
        m = _PAIR.fullmatch(v.strip())
        if m:
            num, den = m.groups()
            try:
                q = int(den) if den else 1
                if q:
                    return int(num), q
            except ValueError:  # more than 4300 digits: Fraction says so below
                pass
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    if isinstance(v, bool):
        raise InputError(f"not a rational: {v!r}")
    if isinstance(v, int):
        return int(v), 1
    if isinstance(v, str):
        text = v.strip()
        try:
            exponent = _EXPONENT.search(text)
            if exponent and abs(int(exponent.group(1))) > _MAX_EXPONENT:
                raise ValueError(f"exponent beyond {_MAX_EXPONENT}")
            return Fraction(text).as_integer_ratio()
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"malformed rational {v!r}: {e}") from e
    raise InputError(f"coordinates must be integers or 'num/den' strings, got {v!r}")


_set = object.__setattr__


class Point:
    """Immutable point with exact rational coordinates and its homogeneous
    integer row ``row`` = (s * x, s), made once by `_scaled_pairs`: ``row[-1]``
    is the scale s > 0 and ``row[:-1]`` the point times it.  Predicates read
    the row, and points compare and hash by it."""

    __slots__ = ("coords", "row")

    def __init__(self, coords: Iterable):
        pairs = [_parse_pair(c) for c in coords]
        if not pairs:
            raise InputError("a point needs at least one coordinate")
        _set(self, "coords", tuple([Fraction(n, q) for n, q in pairs]))
        _set(self, "row", _scaled_pairs(pairs))

    @classmethod
    def _from_pairs(
        cls, pairs: Sequence[tuple[int, int]], row: tuple[int, ...] | None = None
    ) -> "Point":
        """The point of nonempty (numerator, denominator) integer pairs,
        denominators positive, with no parsing.  row, when given, must be
        `_scaled_pairs(pairs)`, built by a caller that needed it first."""
        self = object.__new__(cls)
        _set(self, "coords", tuple([Fraction(n, q) for n, q in pairs]))
        _set(self, "row", _scaled_pairs(pairs) if row is None else row)
        return self

    def __reduce__(self):
        # Slot state would be restored through __setattr__, which refuses it.
        return Point._from_pairs, ([c.as_integer_ratio() for c in self.coords],)

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
        return isinstance(other, Point) and self.row == other.row

    def __hash__(self) -> int:
        return hash(self.row)

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


def _scaled_pairs(pairs) -> tuple[int, ...]:
    """The homogeneous integer row (s * x, s) of the point x whose coordinates
    are the (numerator, denominator) pairs, denominators positive.

    s is the lcm of the denominators, and the row is divided by the gcd of
    its entries, so it is the same for every way of writing the point.  A
    positive scaling changes no determinant sign, rank, or origin-in-hull
    answer.  This is the package's one row builder.
    """
    s = lcm(*[q for _, q in pairs])
    row = [n * (s // q) for n, q in pairs]
    row.append(s)
    g = gcd(*row)
    return tuple(row) if g == 1 else tuple([x // g for x in row])


def _translated_rows(points: Sequence[Point], p: Point) -> list[tuple[int, tuple[int, ...]]]:
    """(s, s * (q - p)) for each point q, with s = s_p * s_q > 0, computed on
    the rows (Q, s_q) and (P, s_p) of the points as (s_p * s_q, s_p * Q - s_q * P).

    This is the translation to p in integers: no rational is formed, and the
    scale is positive, which is all a containment decision or the
    `_origin_status` degenerate test asks of it (it need not be the scale of
    the row of q - p).
    """
    *P, sp = p.row
    out = []
    for q in points:
        Q = q.row
        sq = Q[-1]
        out.append((sp * sq, tuple([sp * a - sq * b for a, b in zip(Q, P)])))
    return out


MAX_TUPLES = 10_000_000
"""The most vertex tuples one count or hull search enumerates.  Above the
plane it also bounds general position: the d-subsets of a set's pencil, and
on the query side the (d-1)-subsets of the pencil and the d-subsets of the
enumeration that follows a dependency.  A counted tuple of random rationals
costs about 2.5 us at d = 3 and 4.5 us at d = 4 (Python 3.11 on a 2-vCPU
Xeon), so that is about 25 s and 45 s.  A larger input raises `InputError`
with the tuple count instead of running for hours."""


def _check_budget(sizes: Sequence[int], k: int, what: str) -> None:
    """Refuse to enumerate more than MAX_TUPLES tuples.  The tuples pick one
    point from each of k of the classes of the given sizes, so there are
    e_k(sizes) of them, the elementary symmetric polynomial; a monochrome
    count has n classes of one point, and C(n, k) tuples.  The refusal names
    them by `what`, the caller's noun for what it enumerates."""
    e = [1] + [0] * k
    for size in sizes:
        for j in range(k, 0, -1):
            e[j] += size * e[j - 1]
    if e[k] > MAX_TUPLES:
        raise InputError(
            f"{e[k]} {what} to enumerate, more than the limit of {MAX_TUPLES}"
        )


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


def _open_simplex(cols: Sequence[Sequence[int]]) -> bool:
    """True iff the origin lies in the open simplex of the d+1 integer
    vectors in dimension d: `_origin_status(_cofactors(cols))[0]`.

    The cofactors alternate the signs of the d x d minors, so the origin is
    in the open simplex exactly when the minors are nonzero and alternate
    in sign.  The test stops at the first zero minor or repeated sign.  A
    repeated vector makes a minor zero.  Each minor leaves out one vector
    and scales with the others, so scaling each vector by its own positive
    factor changes no sign, and no answer.
    """
    last = 0
    for i in range(len(cols)):
        s = _sign(_det_int(cols[:i] + cols[i + 1:]))
        if s == 0 or s == last:
            return False
        last = s
    return True


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


def _pencil(cols: list[list[int]], prev: int = 1) -> bool:
    """True iff no k of the n integer vectors in Z^k, held as their k
    columns, are linearly dependent.  At k = 1 that is: every vector is
    nonzero.

    Pencil certificate.  In the order of the vectors, a k-subset is a prefix
    P of k-2 vectors followed by two later vectors q, r, and
    det(P; q; r) = q . C_P r for the antisymmetric k x k matrix C_P of
    signed (k-2)-minors of P.  C_P is zero when P is linearly dependent;
    otherwise it has rank 2 and kernel span(P), and for any C_P[a][b] != 0
    the plane vector pi(q) = (C_P[a] . q, C_P[b] . q) has
    cross(pi(q), pi(r)) = C_P[a][b] * det(P; q; r).  So no k vectors are
    dependent exactly when every prefix with two or more later vectors is
    independent and the plane vectors of its later vectors are nonzero and
    pairwise non-parallel: reduced by gcd and sign, they go into one set per
    prefix.  That is C(n, k-1) plane vectors instead of C(n, k)
    determinants.  Geometrically, the hyperplanes through span(P) form a
    pencil, and hashing directions decides every k-subset of it at once.

    The plane vectors come from fraction-free (Bareiss) elimination.  Each
    vector added to a prefix is one elimination step on the vectors after
    it, so a prefix reuses the work of its own prefix and every division is
    exact.  Once the k-2 vectors of P are eliminated, q keeps two entries:
    the (k-1) x (k-1) minors of (P; q) on the pivot columns plus one other
    column, that is +-C_P[b] . q and +-C_P[a] . q for the two columns a, b
    without a pivot.  A step is one pass per column.  In a recursive call,
    cols holds the vectors after a prefix, eliminated by it, as k minus the
    prefix length columns, and prev is the prefix's last pivot.
    """
    if len(cols) == 1:
        return all(cols[0])
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
    # The next prefix vector must leave len(cols) - 1 vectors after it.
    for i in range(len(cols[0]) + 1 - len(cols)):
        for j, col in enumerate(cols):
            if col[i]:
                break
        else:
            return False  # vector i is in the span of the prefix
        pivot = cols[j][i]
        below = cols[j][i + 1:]
        nxt = [
            [(pivot * x - col[i] * y) // prev for x, y in zip(col[i + 1:], below)]
            for k, col in enumerate(cols) if k != j
        ]
        if not _pencil(nxt, pivot):
            return False
    return True


def _cross(a: Sequence, b: Sequence):
    return a[0] * b[1] - a[1] * b[0]


def _angular_order(vecs: Sequence[Sequence[int]]) -> list[int]:
    """The indices of nonzero plane vectors in counter-clockwise order of
    their angles in [0, 2pi) from the +x axis; vectors on one ray keep their
    index order and are neighbours.

    The half-turn [0, pi) comes first, then [pi, 2pi).  Within a half-turn,
    a comes before b exactly when cross(a, b) > 0, so each half is sorted on
    the sign of one integer cross product.

    This is the package's one angular order: planar hull membership, the
    planar depth sweep `depth._half_turns` and the circle cells of
    `arrangements` all read it.
    """
    halves: tuple[list[int], list[int]] = ([], [])
    for k, (x, y) in enumerate(vecs):
        halves[0 if y > 0 or (y == 0 and x > 0) else 1].append(k)
    # cmp(a, b) = -cross(a, b): negative when a comes first.
    key = cmp_to_key(lambda a, b: vecs[b][0] * vecs[a][1] - vecs[a][0] * vecs[b][1])
    return sorted(halves[0], key=key) + sorted(halves[1], key=key)


def _plane_hull_contains(vecs: Sequence[tuple[int, int]], strict: bool) -> bool:
    """True iff the origin lies in the closed convex hull of the plane
    vectors, or with strict, in its interior.

    The origin is outside the closed hull exactly when the vectors lie in an
    open half-plane, that is, when the directions of the nonzero ones leave
    a cyclic gap of more than a half-turn.  It is outside the interior
    exactly when they lie in a closed half-plane: a gap of a half-turn or
    more.  A zero vector puts the origin in the closed hull and does nothing
    for the interior.  In the angular order each gap lies between two
    neighbours, and the sign of their cross product says whether it is less
    than a half-turn, a half-turn or no turn, or more; their dot product
    tells a half-turn (opposite rays) from no turn (one ray).  O(n log n).
    """
    nonzero = [w for w in vecs if w[0] or w[1]]
    if not strict and len(nonzero) < len(vecs):
        return True
    if not nonzero:
        return False
    vs = [nonzero[k] for k in _angular_order(nonzero)]
    a, b = vs[-1], vs[0]
    if _cross(a, b) == 0 and a[0] * b[0] + a[1] * b[1] > 0:
        return False  # the first and last on one ray, so all are: a full turn
    for a, b in zip(vs[-1:] + vs[:-1], vs):
        c = _cross(a, b)
        if c < 0 or c == 0 and strict and a[0] * b[0] + a[1] * b[1] < 0:
            return False
    return True


# ----------------------------------------------------------------- predicates


def orientation(points: Sequence[Point]) -> int:
    """Sign of the determinant of (p2-p1, ..., p_{d+1}-p1) for d+1 points.

    Returns +1, -1, or 0; 0 exactly when the points are affinely dependent.
    """
    d = _check_dims(points)
    if len(points) != d + 1:
        raise InputError(f"orientation needs {d + 1} points in dimension {d}")
    return _sign(_det_int([p.row for p in points]))


def _check_simplex(p: Point, vertices: Sequence[Point]) -> None:
    d = _check_dims(list(vertices) + [p])
    if len(vertices) != d + 1:
        raise InputError(f"need {d + 1} vertices in dimension {d}")


def barycentric_coordinates(
    p: Point, vertices: Sequence[Point]
) -> list[Fraction] | None:
    """Coefficients l with sum(l) = 1 and p = sum(l_i * v_i), or None.

    None is the degenerate flag: the vertices are affinely dependent.
    The cofactors t of the translated vertices w_i = s_i * (v_i - p) give
    l_i = s_i * t_i / sum(s_j * t_j); the sum is zero exactly when degenerate.
    """
    _check_simplex(p, vertices)
    scales, cols = zip(*_translated_rows(vertices, p))
    weighted = list(map(mul, scales, _cofactors(cols)))
    det = sum(weighted)
    if det == 0:
        return None
    return [Fraction(x, det) for x in weighted]


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
    cols = [g.row[:-1] for g in generators]
    t = _cofactors(cols + [tuple([-x for x in v.row[:-1]])])
    if t[-1] == 0:
        raise DegenerateConeError("cone generators are linearly dependent")
    return all(x * t[-1] >= 0 for x in t)


def _strict_hull_contains(rows: Sequence[tuple[int, ...]], p_row: tuple[int, ...]) -> bool:
    """`in_convex_hull(p, S, strict=True)` on the homogeneous integer rows
    (s * x, s), s > 0, of the points of S and of p.

    Each point must have one row whichever way its coordinates are written,
    as `_scaled_pairs` makes them, so that the distinct rows are the distinct
    points.
    """
    rows = list(dict.fromkeys(rows))
    d = len(p_row) - 1
    if len(rows) == d + 1:
        # A simplex: p is interior iff it is in the open simplex, decided on
        # the vertices translated to p as s_p*Q - s_q*P.
        *P, sp = p_row
        cols = [tuple([sp * a - q[-1] * b for a, b in zip(q, P)]) for q in rows]
        return _open_simplex(cols)
    if len(_pivots(rows)) <= d:
        return False  # lower-dimensional hull has empty interior
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


def in_convex_hull(p: Point, S: Sequence[Point], strict: bool = False) -> bool:
    """Exact convex hull membership.

    In the plane every query, closed or strict, reads the angular order of
    the points translated to p (`_plane_hull_contains`), in O(n log n).
    Above the plane, non-strict containment is a Caratheodory search for a
    closed simplex of points of S around p, and strict containment asks for
    p in the interior of conv(S).  When S has d+1 distinct points, conv(S)
    is a simplex, and p is interior exactly when it is in the open simplex:
    the signs of d+1 cofactors of the points translated to p, with no rank
    and no facet normal.  Larger sets must have a full-dimensional hull, and
    p must lie strictly on the inner side of every supporting hyperplane
    spanned by d points of S.  Both searches are refused with an
    `InputError` when S has more than `MAX_TUPLES` (d+1)-subsets of
    distinct points.
    """
    d = _check_dims(S, p.dim)
    if d == 2:
        return _plane_hull_contains([w for _, w in _translated_rows(S, p)], strict)
    _check_budget([1] * len(set(S)), d + 1, "subsets")
    if not strict:
        return _hull_contains([w for _, w in _translated_rows(S, p)])
    return _strict_hull_contains([q.row for q in S], p.row)


def in_general_position(points: Sequence[Point]) -> bool:
    """True iff every (d+1)-subset of the points is affinely independent.

    For n >= d+1 points this is equivalent to: no k-dimensional affine flat
    contains k+2 of the points, for any k < d.

    That is, no d+1 of the homogeneous integer rows are linearly dependent,
    which the pencil certificate `_pencil` decides from C(n, d) plane
    vectors instead of C(n, d+1) determinants.  Above the plane, a set with
    more than `MAX_TUPLES` d-subsets is refused with an `InputError`.
    """
    d = _check_dims(points)
    if d > 2:
        _check_budget([1] * len(points), d, "pencil subsets")
    return _pencil([list(col) for col in zip(*[p.row for p in points])])


def in_general_position_with(points: Sequence[Point], p: Point) -> bool:
    """True iff p avoids every hyperplane spanned by d of the given points.

    Subsets of d points that are themselves affinely dependent span no
    hyperplane (their normal is zero) and are ignored.  This is the
    query-side general position needed for open and closed containment
    counts to coincide at p.

    Certify, then enumerate.  Subtracting (p, 1) from the other rows of
    det(base + (p, 1)) leaves the d x d determinant of the vectors q - p,
    each scaled to integers.  When no d of those vectors are linearly
    dependent, which the pencil `_pencil` decides from C(n, d-1) plane
    vectors, p is on no spanned hyperplane.  Otherwise the dependent subset
    may be one that spans no hyperplane, such as a repeated point, so the
    d-subsets are enumerated, and the normal is computed only for those
    whose determinant with p is zero.  Above the plane, the pencil is
    refused with an `InputError` when there are more than `MAX_TUPLES`
    (d-1)-subsets, and the enumeration when there are more than
    `MAX_TUPLES` d-subsets.
    """
    d = _check_dims(list(points) + [p])
    n = len(points)
    if n < d:
        return True
    vecs = [w for _, w in _translated_rows(points, p)]
    if d > 2:
        _check_budget([1] * n, d - 1, "pencil subsets")
    if _pencil([list(col) for col in zip(*vecs)]):
        return True
    if d > 2:
        _check_budget([1] * n, d, "subsets")
    for base in combinations(range(n), d):
        if _det_int([vecs[i] for i in base]) == 0 and any(
            _cofactors(list(zip(*(points[i].row for i in base))))
        ):
            return False
    return True
