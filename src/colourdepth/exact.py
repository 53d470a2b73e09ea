"""Exact rational predicates for affine and conic containment.

A `Point` is its homogeneous integer row (s * x, s), and every predicate is
decided on it: s is the positive lcm of the denominators, and a positive
scaling changes no determinant sign, rank, or origin-in-hull answer.  The
row is in lowest terms, so it is canonical; points compare and hash by it,
and derive their `fractions.Fraction` coordinates from it when read.
`_scaled_pairs` builds it from (numerator, denominator) integer pairs, which
the one rational parser `_parse_pair` reads from ints and "num/den" strings
with `int()` alone; a caller that built a row hands it to `Point._from_row`,
after `_reduced_row`, the gcd step of `_scaled_pairs`, when it may not be in
lowest terms.  Sums and differences of points are formed so, on the rows.
Predicates and counters read the rows and never rescale a point.  A point
translated to a query point p is formed on those integer rows too, as
s_p * Q - s_q * P, so no rational difference is ever built.  One
integer kernel sits under all of them: one Bareiss echelon, `_echelon`,
for ranks, pivot columns and determinants above 3x3 (closed forms below),
and the cofactors that give the barycentric signs of the origin in a
simplex.  Every hull test reads the points translated to the query point,
which is then the origin.  There is no floating-point code path.

Every containment question, open simplex, open hull or closed hull, is
answered by one function, `_hull_contains`, on the points translated to p.
A strict test of exactly d+1 points, in any dimension, is a simplex test: p
is interior exactly when the origin is in the open simplex of the
translated vectors, so their d+1 minors must be nonzero and alternate in
sign, and the test stops at the first that does not (`_open_simplex`).  A
repeated point makes a minor zero.  Otherwise hull membership is one
integer linear program: phase 1 of the simplex method, `_feasible`, on an
integer tableau with fraction-free pivots and Bland's rule.  Neither asks
the points to be distinct, since both answers depend only on the
directions from p.

In the plane, the other hull tests need no linear program.  The points
translated to p, sorted once by angle, leave a gap of more than a half-turn
between neighbouring directions exactly when p is outside their closed hull,
and of a half-turn or more exactly when p is outside its interior:
O(n log n).  That angular order, `_angular_order`, is the package's one sort
of plane vectors; the planar depth sweep and the circle cells read it too.
No hull test is refused for its size.

General position is decided here, by one solver in the plane and one in
every other dimension.  In the plane, `_plane_general_position` hashes the
reduced direction from each point to every later one, on the points' own
rows: O(n^2), never refused.  The planar depth sweep memoizes that same
function.  In every other dimension no hyperplane normal is needed either.
Facets that share their first d-1 points P form a pencil of hyperplanes
through span(P), and two points q, r lie on one hyperplane with P exactly
when their images in the plane R^(d+1) / span(P) are parallel.
Fraction-free elimination of P gives those plane vectors, one per d-subset;
keyed by their exact integer slope, with ties settled by a cross product,
they decide every (d+1)-subset of a pencil at once: C(n, d) plane vectors
instead of C(n, d+1) determinants.  Above the plane, a pencil is refused
with more than `MAX_TUPLES` d-subsets.

Query-side general position, p on no hyperplane spanned by d of the
points, is `in_general_position_with`: its definition, one determinant per
d-subset of the points translated to p, refused above the plane with more
than `MAX_TUPLES` d-subsets.  The program certifies a sampled query point
by the count that measures it instead.

All functions are pure and operate on immutable values, so they can be called
from any number of workers without coordination.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import comb, gcd, lcm, lgamma, log, log10
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
    """Immutable point with exact rational coordinates, held as its
    homogeneous integer row ``row`` = (s * x, s) in lowest terms: ``row[-1]``
    is the scale s > 0 and ``row[:-1]`` the point times it.  Predicates read
    the row, points compare and hash by it, and ``coords`` derive from it."""

    __slots__ = ("row",)

    def __init__(self, coords: Iterable):
        pairs = [_parse_pair(c) for c in coords]
        if not pairs:
            raise InputError("a point needs at least one coordinate")
        _set(self, "row", _scaled_pairs(pairs))

    @classmethod
    def _from_row(cls, row: tuple[int, ...]) -> "Point":
        """The point of a lowest-terms row, as `_scaled_pairs` makes it, taken as is."""
        self = object.__new__(cls)
        _set(self, "row", row)
        return self

    def __reduce__(self):
        # Slot state would be restored through __setattr__, which refuses it.
        return Point._from_row, (self.row,)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(x, self.row[-1]) for x in self.row[:-1]])

    @property
    def dim(self) -> int:
        return len(self.row) - 1

    def __len__(self) -> int:
        return len(self.row) - 1

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Point) and self.row == other.row

    def __hash__(self) -> int:
        return hash(self.row)

    def __neg__(self) -> "Point":
        return Point._from_row(tuple([-x for x in self.row[:-1]]) + self.row[-1:])

    def __sub__(self, other: "Point") -> "Point":
        if self.dim != other.dim:
            raise InputError("dimension mismatch in point subtraction")
        return self + -other

    def __add__(self, other: "Point") -> "Point":
        """The sum on the rows: A / s_a + B / s_b is (s_b * A + s_a * B) / (s_a * s_b),
        a row with a positive scale, put in lowest terms by `_reduced_row`."""
        if self.dim != other.dim:
            raise InputError("dimension mismatch in point addition")
        *A, sa = self.row
        *B, sb = other.row
        return Point._from_row(_reduced_row([sb * a + sa * b for a, b in zip(A, B)] + [sa * sb]))

    def __setattr__(self, *args):  # pragma: no cover
        raise AttributeError("Point is immutable")

    def __repr__(self) -> str:
        return "Point(%s)" % ", ".join(str(c) for c in self.coords)


def pt(*coords) -> Point:
    """Shorthand constructor: ``pt(1, 2)`` instead of ``Point((1, 2))``."""
    return Point(coords)


def origin(dim: int) -> Point:
    if dim < 1:
        raise InputError("a point needs at least one coordinate")
    return Point._from_row((0,) * dim + (1,))


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
    answer.  This is the package's one row builder from pairs; its last
    step, `_reduced_row`, also reduces rows that callers form in integers.
    """
    s = lcm(*[q for _, q in pairs])
    row = [n * (s // q) for n, q in pairs]
    row.append(s)
    return _reduced_row(row)


def _reduced_row(row: list[int]) -> tuple[int, ...]:
    """A homogeneous row (s * x, s), s > 0, divided by the gcd of its
    entries: the lowest-terms row of x, whatever positive s it came with."""
    g = gcd(*row)
    return tuple(row) if g == 1 else tuple([x // g for x in row])


def _translated_rows(
    rows: Iterable[tuple[int, ...]], p: tuple[int, ...]
) -> list[tuple[int, list[int]]]:
    """(s, s * (q - p)) for the row (Q, s_q) of each point q, with
    s = s_p * s_q > 0, computed from the row (P, s_p) of the point p as
    (s_p * s_q, s_p * Q - s_q * P).

    This is the translation to p in integers: no rational is formed, and the
    scale is positive, which is all a containment decision asks of it (it
    need not be the scale of the row of q - p).
    """
    *P, sp = p
    out = []
    for Q in rows:
        sq = Q[-1]
        out.append((sp * sq, [sp * a - sq * b for a, b in zip(Q, P)]))
    return out


MAX_TUPLES = 10_000_000
"""The most vertex tuples one count enumerates.  Above the plane it also
bounds general position: the d-subsets of a set's pencil, and on the query
side the d-subsets that `in_general_position_with` enumerates.  In a
monochrome or colourful count of 10^5 tuples or more, a tuple of random
rationals costs about 0.4-0.5 us at d = 3 and 1.3-1.5 us at d = 4
(Python 3.11 on a 2-vCPU Xeon, measured at commit d7b318d), so the limit
is about 5 s and 15 s; a count of a few hundred tuples costs up to three
times as much per tuple.  A larger input raises `InputError` with the
tuple count instead of running for hours."""

_SHOWN_DIGITS = 4300
"""Python's default limit on the digits of an int converted to str; a
refused count with more digits is named without them."""


def _check_budget(sizes: Sequence[int], k: int, what: str) -> None:
    """Refuse to enumerate more than MAX_TUPLES tuples.  The tuples pick one
    point from each of k of the classes of the given sizes, so there are
    e_k(sizes) of them, the elementary symmetric polynomial; a monochrome
    count has n classes of one point, and C(n, k) tuples.  The refusal names
    them by `what`, the caller's noun for what it enumerates.

    The check is cheap at any size.  The count is never formed when its
    float lower bound C(n, k) * min(sizes)^k already has more digits than
    Python prints by default (`_SHOWN_DIGITS`); such a count is named by a
    power of ten below it.  Otherwise `_tuple_count` gives it exactly."""
    sizes = [s for s in sizes if s]
    n = len(sizes)
    if not 0 < k <= n:
        return
    log_comb = (lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)) / log(10)
    low = log_comb + k * log10(min(sizes))
    if low >= _SHOWN_DIGITS:
        raise InputError(
            f"at least 10^{int(low) - 1} {what} to enumerate, more than the limit of {MAX_TUPLES}"
        )
    _check_count(_tuple_count(sizes, k), what)


def _check_count(count: int, what: str) -> None:
    """Refuse to enumerate count tuples when that is more than MAX_TUPLES,
    naming them by `what`; a count with `_SHOWN_DIGITS` digits or more is
    named by a power of ten below it."""
    if count > MAX_TUPLES:
        named = count if count < 10**_SHOWN_DIGITS else f"at least 10^{int(log10(count)) - 1}"
        raise InputError(f"{named} {what} to enumerate, more than the limit of {MAX_TUPLES}")


def _tuple_count(sizes: Sequence[int], k: int) -> int:
    """e_k(sizes) for 0 < k <= len(sizes): the coefficient of x^k in the
    product of (1 + s x)^m over the distinct sizes s, m being how many
    classes have size s.  The coefficients of one factor are C(m, j) s^j, so
    a single size gives C(n, k) s^k at once, and the last factor is read at
    x^k alone."""
    *first, (s, m) = Counter(sizes).items()
    e = [1] + [0] * k
    for size, mult in first:
        f = [comb(mult, j) * size**j for j in range(min(mult, k) + 1)]
        e = [sum(e[j - i] * f[i] for i in range(min(j, len(f) - 1) + 1))
             for j in range(k + 1)]
    return sum(c * comb(m, k - j) * s ** (k - j) for j, c in enumerate(e) if c and k - j <= m)


def _echelon(rows: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """(pivot columns, determinant) of an integer matrix, by fraction-free
    (Bareiss) row echelon elimination: every entry stays an integer minor of
    the input and every division is exact.

    The rank is the number of pivot columns.  A row swap flips the sign, so
    for a square matrix of full rank the last pivot times that sign is the
    determinant; any other shape or rank gives 0.
    """
    a = [list(row) for row in rows]
    n, cols = len(a), len(a[0])
    pivots: list[int] = []
    sign = prev = 1
    for c in range(cols):
        r = len(pivots)
        if not a[r][c]:
            for i in range(r + 1, n):
                if a[i][c]:
                    a[r], a[i] = a[i], a[r]
                    sign = -sign
                    break
            else:
                continue
        top = a[r]
        pivot = top[c]
        for i in range(r + 1, n):
            row = a[i]
            x = row[c]
            for j in range(c + 1, cols):
                row[j] = (row[j] * pivot - x * top[j]) // prev
        prev = pivot
        pivots.append(c)
        if r + 1 == n:
            break
    return pivots, sign * prev if n == cols == len(pivots) else 0


def _det_int(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix: closed forms up to 3x3, the
    `_echelon` elimination above."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return _echelon(m)[1]


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


def _open_simplex(cols: Sequence[Sequence[int]]) -> bool:
    """True iff the origin lies in the open simplex of the d+1 integer
    vectors in dimension d: their `_cofactors` are nonzero and of one sign.

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


def _feasible(A: Sequence[Sequence[int]], b: Sequence[int]) -> bool:
    """True iff A x = b has a solution x >= 0, for an integer matrix A and
    integer vector b, by phase 1 of the simplex method: minimise the sum of
    one artificial variable per row, after negating the rows with b_i < 0.

    The tableau stays in integers by fraction-free (Bareiss) pivots, as in
    `_echelon`: each entry is its true value times the last pivot D > 0,
    and every division is exact.  The last row holds the reduced costs and
    the sum of the artificials, times D.  An artificial that leaves the
    basis never re-enters, so only the columns of A are kept.  Bland's rule
    (Math. Oper. Res. 1977) enters the first improving column and, among
    the rows tied in the ratio test, pivots on the one whose basic variable
    has the smallest index, so degenerate pivots cannot cycle.
    """
    n = len(A[0])
    rows = [[*row, x] if x >= 0 else [-v for v in (*row, x)] for row, x in zip(A, b)]
    z = [sum(col) for col in zip(*rows)]
    basis = list(range(n, n + len(rows)))  # artificial i is variable n + i
    D = 1
    while z[-1]:
        for j in range(n):
            if z[j] > 0:
                break
        else:
            return False  # optimal with a positive sum of artificials
        r = -1
        for i, row in enumerate(rows):
            if row[j] > 0:
                if r < 0:
                    r = i
                    continue
                c = row[-1] * rows[r][j] - rows[r][-1] * row[j]  # cross-multiplied ratios
                if c < 0 or c == 0 and basis[i] < basis[r]:
                    r = i
        top, p = rows[r], rows[r][j]
        for row in (*rows, z):
            if row is not top:
                x = row[j]
                row[:] = [(v * p - x * t) // D for v, t in zip(row, top)]
        D, basis[r] = p, j
    return True


def _hull_contains(cols: Sequence[Sequence[int]], strict: bool = False) -> bool:
    """True iff the origin lies in the closed convex hull of the integer
    vectors, or with strict, in its interior; scaling a vector by a positive
    factor changes neither answer.  This is the package's one containment
    test: open simplex, open hull and closed hull.

    Strict first: exactly d+1 vectors, in every dimension, are a simplex,
    and `_open_simplex` reads its d+1 minors; a repeated or zero vector
    makes one of them zero.  Any other number, repeats included, goes to
    the tests below, which read only directions.  The plane reads the
    angular order.  Above it, the origin is in the closed hull when
    sum(l_i c_i) = 0 for some l >= 0 with sum(l) = 1.  It is interior when
    the vectors span R^d and sum(m_i c_i) = 0 for some m with every
    m_i > 0, or, scaling m, for m = 1 + x with x >= 0: sum(x_i c_i) =
    -sum(c_i).  `_feasible` decides both.
    """
    d = len(cols[0])
    if strict and len(cols) == d + 1:
        return _open_simplex(cols)
    if d == 2:
        return _plane_hull_contains(cols, strict)
    if not strict:
        return _feasible([*zip(*cols), (1,) * len(cols)], (0,) * d + (1,))
    if len(_echelon(cols)[0]) < d:
        return False  # a hull in a proper subspace has no interior
    A = list(zip(*cols))
    return _feasible(A, [-sum(row) for row in A])


def _no_two_parallel(vecs: Iterable[tuple[int, int]]) -> bool:
    """True iff the integer plane vectors are nonzero and pairwise
    non-parallel.

    Each vector (x, y) with x != 0 is keyed by its exact integer slope key
    floor(2^64 * y / x), and every vector with x = 0 by one shared key.  The
    key is the floor of the rational slope itself, so (x, y) and (-x, -y)
    share it and no sign is normalised; parallel vectors always share a key.
    Vectors that share a key are settled by their exact cross product, so
    the answer does not depend on the 64, and no gcd is taken.
    """
    seen = {}
    for x, y in vecs:
        if x:
            key = (y << 64) // x
        elif y:
            key = None
        else:
            return False
        same = seen.get(key)
        if same is None:
            seen[key] = [(x, y)]
            continue
        for u, v in same:
            if u * y == v * x:
                return False
        same.append((x, y))
    return True


def _pencil(cols: list[list[int]], prev: int = 1) -> bool:
    """True iff no k of the n integer vectors in Z^k, k >= 2, held as their
    k columns, are linearly dependent.

    Pencil certificate.  In the order of the vectors, a k-subset is a prefix
    P of k-2 vectors followed by two later vectors q, r, and
    det(P; q; r) = q . C_P r for the antisymmetric k x k matrix C_P of
    signed (k-2)-minors of P.  C_P is zero when P is linearly dependent;
    otherwise it has rank 2 and kernel span(P), and for any C_P[a][b] != 0
    the plane vector pi(q) = (C_P[a] . q, C_P[b] . q) has
    cross(pi(q), pi(r)) = C_P[a][b] * det(P; q; r).  So no k vectors are
    dependent exactly when every prefix with two or more later vectors is
    independent and the plane vectors of its later vectors are nonzero and
    pairwise non-parallel: `_no_two_parallel` keys them by their exact
    integer slope, one hash per prefix, and settles a shared key by a cross
    product.  That is C(n, k-1) plane vectors instead of C(n, k)
    determinants.  Geometrically, the hyperplanes through span(P) form a
    pencil, and hashing directions decides every k-subset of it at once.

    The plane vectors come from fraction-free (Bareiss) elimination.  Each
    vector added to a prefix is one elimination step on the vectors after
    it, so a prefix reuses the work of its own prefix and every division is
    exact.  Once the k-2 vectors of P are eliminated, q keeps two entries:
    the (k-1) x (k-1) minors of (P; q) on the pivot columns plus one other
    column, that is +-C_P[b] . q and +-C_P[a] . q for the two columns a, b
    without a pivot.  A step is one pass per column.  The last step, from
    three columns to two, goes straight into the hash and skips the exact
    division by prev: a common nonzero factor changes no direction and no
    zero test.  In a recursive call, cols holds the vectors after a prefix,
    eliminated by it, as k minus the prefix length columns, and prev is the
    prefix's last pivot.  Fewer than k vectors have no k-subset, so they
    pass; a recursive call always has k or more.
    """
    if len(cols[0]) < len(cols):
        return True
    if len(cols) == 2:
        return _no_two_parallel(zip(*cols))
    # The next prefix vector must leave len(cols) - 1 vectors after it.
    for i in range(len(cols[0]) + 1 - len(cols)):
        for j, col in enumerate(cols):
            if col[i]:
                break
        else:
            return False  # vector i is in the span of the prefix
        pivot = cols[j][i]
        below = cols[j][i + 1:]
        rest = [col for k, col in enumerate(cols) if k != j]
        if len(rest) == 2:
            a, b = rest
            ai, bi = a[i], b[i]
            if not _no_two_parallel(
                (pivot * x - ai * z, pivot * y - bi * z)
                for x, y, z in zip(a[i + 1:], b[i + 1:], below)
            ):
                return False
        elif not _pencil([
            [(pivot * x - col[i] * y) // prev for x, y in zip(col[i + 1:], below)]
            for col in rest
        ], pivot):
            return False
    return True


def _plane_general_position(rows: Sequence[Sequence[int]]) -> bool:
    """True iff the points of the homogeneous rows (s * x, s * y, s), s > 0,
    are pairwise distinct and no three of them lie on one line.  This is
    the package's one planar general-position solver: `in_general_position`
    answers d = 2 with it, and the planar depth sweep reads it, memoized on
    the rows, as `depth._clean_plane`.

    It is `_pencil` on the rows in Z^3, written out: point i is the
    prefix, eliminated on its homogeneous coordinate s_i, and the
    difference of points j and i times s_i * s_j, s_i * X_j - s_j * X_i, is
    the plane vector of a later row.  Reduced by its gcd and sign it names
    the line through the two, and a name repeated from one point puts three
    of them on one line.  O(n^2), on the points' own rows, with no
    elimination lists or recursion.  It keeps the gcd name where the
    pencil keys by slope, because planar rows are small and their gcd is
    cheap.  Unlike the pencil, it refuses two equal points even when there
    is no third.
    """
    for i, (xi, yi, si) in enumerate(rows):
        seen = set()
        for xj, yj, sj in rows[i + 1:]:
            dx = si * xj - sj * xi
            dy = si * yj - sj * yi
            g = gcd(dx, dy)
            if g == 0:
                return False
            if dx < 0 or (dx == 0 and dy < 0):
                g = -g
            line = (dx // g, dy // g)
            if line in seen:
                return False
            seen.add(line)
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


def _plane_hull_contains(vecs: Sequence[Sequence[int]], strict: bool) -> bool:
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
    scales, cols = zip(*_translated_rows([v.row for v in vertices], p.row))
    weighted = list(map(mul, scales, _cofactors(cols)))
    det = sum(weighted)
    if det == 0:
        return None
    return [Fraction(x, det) for x in weighted]


def point_in_simplex(p: Point, vertices: Sequence[Point], mode: Mode) -> bool:
    """Membership of p in the simplex spanned by d+1 vertices: strict or
    closed `in_convex_hull`.

    open: all barycentric coordinates strictly positive (degenerate simplices
    contain nothing).  closed: exact hull membership, which also handles
    degenerate vertex sets (repeated or affinely dependent vertices).
    """
    if mode not in ("open", "closed"):
        raise InputError(f"mode must be 'open' or 'closed', got {mode!r}")
    _check_simplex(p, vertices)
    return in_convex_hull(p, vertices, strict=mode == "open")


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


def in_convex_hull(p: Point, S: Sequence[Point], strict: bool = False) -> bool:
    """Exact membership of p in conv(S), or with strict, in its interior:
    `_hull_contains` on the points of S translated to p, so that p is the
    origin.  A strict test of d+1 points reads the minors of their simplex.
    Otherwise the plane reads their angular order, in O(n log n); above it,
    both modes are one integer linear program, `_feasible`.
    """
    _check_dims(S, p.dim)
    vecs = [w for _, w in _translated_rows([q.row for q in S], p.row)]
    return _hull_contains(vecs, strict)


def in_general_position(points: Sequence[Point]) -> bool:
    """True iff every (d+1)-subset of the points is affinely independent.

    For n >= d+1 points this is equivalent to: no k-dimensional affine flat
    contains k+2 of the points, for any k < d.

    That is, no d+1 of the homogeneous integer rows are linearly dependent.
    In the plane, the line pass `_plane_general_position` decides it in
    O(n^2) and is never refused; fewer than three points are in general
    position, two equal ones included.  In every other dimension, the pencil
    certificate `_pencil` decides it from C(n, d) plane vectors instead of
    C(n, d+1) determinants, and above the plane a set with more than
    `MAX_TUPLES` d-subsets is refused with an `InputError`.
    """
    d = _check_dims(points)
    if d == 2:
        return len(points) < 3 or _plane_general_position([p.row for p in points])
    if d > 2:
        _check_budget([1] * len(points), d, "pencil subsets")
    return _pencil([list(col) for col in zip(*[p.row for p in points])])


def in_general_position_with(points: Sequence[Point], p: Point) -> bool:
    """True iff p avoids every hyperplane spanned by d of the given points.

    Subsets of d points that are themselves affinely dependent span no
    hyperplane (their normal is zero) and are ignored.  This is the
    query-side general position needed for open and closed containment
    counts to coincide at p.

    This is the definition, enumerated: subtracting (p, 1) from the other
    rows of det(base + (p, 1)) leaves the d x d determinant of the vectors
    q - p, each scaled to integers, so each d-subset takes that determinant,
    and the normal is computed only for those where it is zero.  Above the
    plane, a set with more than `MAX_TUPLES` d-subsets is refused with an
    `InputError` first.  No program path calls it, since a sampled query
    point is certified by its own count; it is kept for API users and tests.
    """
    d = _check_dims(list(points) + [p])
    n = len(points)
    if d > 2:
        _check_budget([1] * n, d, "subsets")
    vecs = [w for _, w in _translated_rows([q.row for q in points], p.row)]
    for base in combinations(range(n), d):
        if _det_int([vecs[i] for i in base]) == 0 and any(
            _cofactors(list(zip(*(points[i].row for i in base))))
        ):
            return False
    return True
