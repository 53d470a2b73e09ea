"""Monochrome and colourful simplicial depth counting.

Counting first translates the points so that the query point sits at the
origin, in integers: with (Q, s_q) and (P, s_p) the homogeneous rows that
every `Point` carries, q = Q / s_q and p = P / s_p, the vector
s_p * Q - s_q * P is q - p times the positive integer s_p * s_q
(`exact._translated_rows`).  Translation leaves every containment decision
unchanged, and so does scaling by a positive number, so no rational is formed
between the input points and the integer kernel, and no point is rescaled.

In the plane, a clean input is counted by one angular sweep (Rousseeuw and
Ruts, AS 307, 1996; the colourful form is Zasenko and Stephen, COCOA 2016).
Clean means that the query point and the points are pairwise distinct and no
three of them lie on one line.  The translated vectors are sorted by
`exact._angular_order`, the order that planar hull membership and the circle
cells read too, and one two-pointer pass finds, for each point, how many
points of each colour lie in the open half-turn after it.  A triple misses
the origin exactly when its other two points lie in the half-turn after its
first one, so the depth is the number of triples less the sum of those
pairs, in O(n log n).  The certificate has two sides.  The query side, that
the query point is none of the points and on no line through two of them,
is read from the sweep itself: no vector is zero, no two neighbours in the
angular order share a ray, and no half-turn count stops on an opposite ray.
The points' side, that no two coincide and no three are collinear, is
planar general position, decided where all general position is: by the
O(n^2) line pass `exact._plane_general_position`, on the points' own
integer rows.  It does not depend on the query point, so the sweep asks it
once per point set in a process: `_clean_plane` is that function memoized
on the tuple of the points' lowest-terms rows, holding at most 128 sets.
`exact.in_general_position` calls it unmemoized, so the generators' fresh
sets leave the memo to the sweep.  On clean input no tuple is degenerate
and the query point is on no simplex boundary, so the open and closed
counts agree and both counters are zero.

Every other count enumerates vertex tuples: dimensions above two, planar input
that is not clean, and every call that asks for witnesses.  Each tuple is
decided by the integer kernel of `exact`: cofactor signs for a simplex, and
in closed mode, for a degenerate tuple whose cofactors are all zero, hull
membership (`exact._hull_contains`: the angular order in the plane, the
integer simplex method above it).  Any other degenerate tuple is a closed
miss: its points span an affine space of dimension below d, and if that
space held the query point it would be a linear one after translation, so
the d+1 vectors would have rank below d and every d x d minor would be zero.
A cofactor is a d x d minor on the tuple's other d points.  Tuples come in
blocks of d points and a run of last points; each face of d-1 points keeps
one row of its minors with later points, and a block slices d rows.  So a
call computes C(n, d) minors for a monochrome count rather than
(d+1) C(n, d+1), and 256 rather than 1,024 for colourful d = 3 with four
classes of four.  Signs decide most tuples: cofactors all positive (after
the sign of the block's own minor) are an open hit and none negative a
boundary hit, with no determinant formed; only the remaining tuples, and
every tuple of a block whose minor is zero, form the affine determinant
that finds the degenerate ones.  In the plane and in space the tests are
written out over the slices.
The same enumeration can tally, for every point, the counted simplices that
pick it: `colour_decomposition` returns the depth of the origin together with
these per-point counts, which for the points of any one colour sum to the
depth when there are d+1 colours.
Every colourful count that enumerates without witnesses tallies, through one
memo, `_colourful_tally`: a `functools.lru_cache` keyed, as `_clean_plane`
is, on lowest-terms rows (the points' class by class, then the query
point's) and the mode, holding the one latest result.
`colour_decomposition` reads it at the origin and `colourful_depth` at its
query point.  A random core trial counts its origin in
`gen_random_core_config` and again as the first candidate of
`core_depth_samples`, with no count between, so the second count is a hit;
every other count of the audits and the CLI asks a fresh key and enumerates.
That one count is also the sample's certificate: `core_depth_samples` keeps a
strict-core candidate when the count reports no boundary hit, and runs no
separate general-position test on it.
Before enumerating, every count compares its number of tuples, C(n, d+1) or
the elementary symmetric polynomial e_{d+1} of the class sizes, with
`exact.MAX_TUPLES` and refuses a larger input with an `InputError`; the
planar sweep is not limited.
Enumeration is also the oracle the sweep is tested against.  Its order is
colour subsets in lexicographic order, then points, so witness lists and counts
are reproducible byte for byte, and the enumeration space can be partitioned
across workers and summed without changing results.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations, product
from math import comb, lcm
from operator import mul
from random import Random
from typing import Iterable, NamedTuple, Sequence

from .exact import (
    MAX_TUPLES,  # noqa: F401  (depth.MAX_TUPLES names the limit of every count)
    InputError,
    Mode,
    Point,
    _angular_order,
    _check_budget,
    _cofactors,
    _cross,
    _hull_contains,
    _plane_general_position,
    _reduced_row,
    _translated_rows,
    in_convex_hull,
    origin,
)
from .sampling import _randints

__all__ = [
    "ColourfulConfiguration",
    "DepthReport",
    "ConeCount",
    "CoreSampleError",
    "monochrome_depth",
    "colourful_depth",
    "core_membership",
    "zero_containing_count",
    "colour_decomposition",
    "antipodal_cone_count",
    "core_depth_samples",
    "min_core_depth_estimate",
]


class CoreSampleError(RuntimeError):
    """No valid core sample was found within the sampling budget.

    This is evidence of a thin or empty core, not a proof of emptiness."""


class _Configuration(NamedTuple):
    dim: int
    classes: tuple[tuple[Point, ...], ...]


class ColourfulConfiguration(_Configuration):
    """A dimension d plus r colour classes of points."""

    __slots__ = ()

    def __new__(cls, dim: int, classes: tuple[tuple[Point, ...], ...]):
        if dim < 1:
            raise InputError("dimension must be at least 1")
        if not classes:
            raise InputError("need at least one colour class")
        for colour in classes:
            if not colour:
                raise InputError("every colour class needs at least one point")
            for p in colour:
                if p.dim != dim:
                    raise InputError(
                        f"point dimension {p.dim} does not match dim {dim}"
                    )
        return super().__new__(cls, dim, classes)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def points(self) -> list[Point]:
        return [p for cls in self.classes for p in cls]

    def translated(self, by: Point) -> "ColourfulConfiguration":
        return ColourfulConfiguration(
            self.dim,
            tuple(tuple(p + by for p in cls) for cls in self.classes),
        )

    @staticmethod
    def from_lists(dim: int, classes: Iterable[Iterable]) -> "ColourfulConfiguration":
        return ColourfulConfiguration(
            dim, tuple(tuple(c if isinstance(c, Point) else Point(c) for c in cls) for cls in classes)
        )


class DepthReport(NamedTuple):
    """Result of a depth count.

    degenerate counts the tuples whose vertices are affinely dependent (as
    rational points, before any integer scaling); boundary counts the other
    tuples whose simplex has the query point exactly on its boundary.  Both
    being zero certifies that the open and closed counts agree for this
    query.  The planar sweep runs only on input where both are zero.
    """

    mode: Mode
    count: int
    witnesses: tuple | None = None
    degenerate: int = 0
    boundary: int = 0


class ConeCount(NamedTuple):
    count: int
    degenerate: int


def _cofactor_blocks(blocks, cols: Sequence[Sequence[int]], ends: Sequence[int]):
    """For each block (P, R) of d keys and a key range, yield P, R, |t_d|
    and the slices over R of the `_cofactors` t_{d-1} .. t_0 of the tuples
    P + (k,), all times the sign of t_d (+1 when t_d is zero).

    t_i is (-1)^(d+i) det(cols[G] + [cols[k]]) for the face G of P without
    its i-th key, and t_d is det(cols[P]).  A face keeps one row of these
    minors, from ends[G[-1]] (the first key after the class of its last key)
    to the end, which must hold R and P[-1]: the dot products with its normal,
    in closed form up to d = 3, else from `_cofactors` of its transpose.
    The row keeps its negation beside it, so a block's slices carry their
    signs and the sign of t_d with no work per tuple: the consumers,
    `_count_blocks` and `_antipodal_count`, compare them with zero."""
    rows = {}

    def row(G):
        lo = ends[G[-1]] if G else 0
        if len(G) == 2:
            (a, b, c), (e, f, g) = cols[G[0]], cols[G[1]]
            u, v, w = b * g - c * f, c * e - a * g, a * f - b * e
            r = [u * x + v * y + w * z for x, y, z in cols[lo:]]
        elif len(G) == 1:
            a, b = cols[G[0]]
            r = [a * y - b * x for x, y in cols[lo:]]
        else:
            N = _cofactors(list(zip(*[cols[k] for k in G]))) if G else (1,)
            r = [sum(map(mul, N, c)) for c in cols[lo:]]
        rows[G] = e = (lo, r, [-x for x in r])
        return e

    # combinations(P, d - 1) drops P[d-1-j] at j: t_{d-1-j}, of sign (-1)^(j+1).
    for P, R in blocks:
        start, stop, sl = R.start, R.stop, []
        for G in combinations(P, len(P) - 1):
            lo, r, neg = rows.get(G) or row(G)
            if not sl:
                td = r[P[-1] - lo]
                flip = td >= 0
            sl.append((neg if flip else r)[start - lo:stop - lo])
            flip = not flip
        yield P, R, -td if td < 0 else td, sl


def _count_blocks(blocks, scales, cols, ends, mode: Mode, want_witnesses: bool,
                  tally: list[int] | None = None):
    """Shared counting core: a tuple of `_cofactor_blocks` with cofactors t
    is degenerate when det = sum(scale_i * t_i), the scales' product times
    the unscaled determinant, is zero, else a closed hit when no t_i has the
    sign opposite to det, and an open one when no t_i is zero either.
    cols[k] is translated point k times its positive scale scales[k].

    After the flip t_d = |t_d|, so when it is positive the signs alone
    decide a hit: all t > 0 is an open hit and all t >= 0 a boundary one,
    as det >= scale_k * t_d > 0.  det is formed only for the other tuples,
    to find the degenerate ones.  A block with t_d = 0 forms det for each
    tuple, which is a boundary hit when no t_i has the sign opposite to it.
    The d = 2 and d = 3 loops are these tests written out over the slices.

    In closed mode a degenerate tuple is a hit when its hull holds the
    origin, and `_hull_contains` decides that only for the tuples whose
    cofactors are all zero, in blocks with t_d = 0.  Every other degenerate
    tuple is a miss: its d+1 vectors have an affine hull of dimension below
    d, which through the origin is a linear subspace, so they would have
    rank below d and t_d and every t_i would be zero.

    Witnesses are key tuples, in key order within a block; a tally gains
    one at each key of each counted simplex."""
    count = degenerate = boundary = 0
    closed, witnesses = mode == "closed", [] if want_witnesses else None
    d = len(cols[0])
    for P, R, td, sl in _cofactor_blocks(blocks, cols, ends):
        got, bnd, deg, flat, sk = [], [], [], [], scales[R.start:R.stop]
        if not td:
            sc = [scales[q] for q in P[::-1]]
            for k, t in zip(R, zip(*sl)):
                det = sum(map(mul, sc, t))
                if det == 0:
                    deg.append(k)
                    if not any(t):
                        flat.append(k)
                elif min(t) >= 0 if det > 0 else max(t) <= 0:
                    bnd.append(k)
        elif d == 3:
            c, b, a = map(scales.__getitem__, P)  # the scales of x, y, z: t_2, t_1, t_0
            for k, s, x, y, z in zip(R, sk, *sl):
                if x > 0 and y > 0 and z > 0:
                    got.append(k)
                elif x >= 0 and y >= 0 and z >= 0:
                    bnd.append(k)
                elif a * x + b * y + c * z + s * td == 0:
                    deg.append(k)
        elif d == 2:
            b, a = map(scales.__getitem__, P)
            for k, s, x, y in zip(R, sk, *sl):
                if x > 0 and y > 0:
                    got.append(k)
                elif x >= 0 and y >= 0:
                    bnd.append(k)
                elif a * x + b * y + s * td == 0:
                    deg.append(k)
        else:
            sc = [scales[q] for q in P[::-1]]
            for k, s, t in zip(R, sk, zip(*sl)):
                m = min(t)
                if m > 0:
                    got.append(k)
                elif m == 0:
                    bnd.append(k)
                elif sum(map(mul, sc, t)) + s * td == 0:
                    deg.append(k)
        if bnd or deg:
            degenerate += len(deg)
            boundary += len(bnd)
            if closed:
                got = sorted(got + bnd + [
                    k for k in flat if _hull_contains([cols[q] for q in P + (k,)])])
        if not got:
            continue
        n = len(got)
        count += n
        if witnesses is not None:
            witnesses += [P + (k,) for k in got]
        if tally is not None:
            for q in P:
                tally[q] += n
            for k in got:
                tally[k] += 1
    return count, degenerate, boundary, witnesses


def _check_query(classes: int, k: int, mode: Mode = "open") -> None:
    """Refuse a mode other than open or closed, and fewer than k classes to
    pick the k points of a tuple from.  Every enumerating count validates its
    query here; a monochrome count has n classes of one point."""
    if mode not in ("open", "closed"):
        raise InputError(f"mode must be 'open' or 'closed', got {mode!r}")
    if classes < k:
        raise InputError(f"need at least {k} colour classes to pick from, got {classes}")


def _class_keys(sizes: Sequence[int]) -> tuple[list[range], list[int]]:
    """The flat indices of classes of the given sizes, in order, and for
    each index the first one after its class: the ends of `_cofactor_blocks`."""
    keys = [range(e - n, e) for n, e in zip(sizes, accumulate(sizes))]
    return keys, [k.stop for k in keys for _ in k]


def _colourful_blocks(keys: Sequence[range], subsets: Iterable[tuple[int, ...]]):
    """The blocks picking one key from each class of each subset, in
    lexicographic order: prefixes over its classes but the last, which is R."""
    return ((P, keys[c[-1]]) for c in subsets for P in product(*[keys[i] for i in c[:-1]]))


# The points' side of the sweep's certificate, asked of one point set at
# many query points, so it keeps the 128 most recent sets.  Every `Point`
# keeps its row in lowest terms, so a set has one key however it is spelled.
_clean_plane = lru_cache(_plane_general_position)


def _half_turns(vecs: Sequence[Sequence[int]], colours: Sequence[int], r: int):
    """For each plane vector in angular order, its index in vecs, its colour
    and the numbers of vectors of each of the r colours in the open
    half-turn counter-clockwise after it; or None when two of the vectors lie
    on one line through the origin.  A zero vector lies on every such line:
    among two or more vectors it gives None.

    The order is `exact._angular_order`.  Two vectors on one ray are
    neighbours in it, with a zero cross product, and a zero vector has a
    zero cross product with either neighbour.  Two opposite ones are found
    by the two-pointer pass: the pointer of a vector runs through its open
    half-turn and stops on the first vector outside it, and when no two
    vectors share a ray, that is the opposite one if there is one.
    """
    n = len(vecs)
    order = _angular_order(vecs)
    vs = [vecs[k] for k in order]
    if any(_cross(a, b) == 0 for a, b in zip(vs, vs[1:])):
        return None
    cs = [colours[k] for k in order]
    window = [0] * r  # colours of the vectors i+1 .. j-1 (cyclically)
    out = []
    j = 1
    for i in range(n):
        if j == i:
            j += 1
        elif i:
            window[cs[i]] -= 1
        while (c := _cross(vs[i], vs[j % n])) > 0:
            window[cs[j % n]] += 1
            j += 1
        if c == 0 and j % n != i:
            return None
        out.append((order[i], cs[i], tuple(window)))
    return out


def _sweep_depth(
    rows: Sequence[tuple[int, int, int]],
    vecs: Sequence[Sequence[int]],
    colours: Sequence[int] | None = None,
) -> int | None:
    """Depth of the query point by one angular sweep, or None unless the
    input is clean.

    rows are the homogeneous rows of the points and vecs the points
    translated to the query, as `_translated_rows` makes them.  Clean means
    that the points are pairwise distinct with no three on one line, and
    that the query point is none of them and on no line through two of
    them: no vector is zero and no two are parallel.  `_half_turns` reports
    the query side from the angular order, in which a zero vector is
    parallel to its neighbour.  It is read first, so a query on such a line
    never asks for the points' side.  That one is planar general position,
    `exact._plane_general_position`, read through the memo `_clean_plane`
    once per point set in a process, for at most 128 sets.

    A triple misses the origin exactly when its other two vectors lie in the
    open half-turn after its first one.  Without colours the count is over
    all triples; with a class index per vector it is over triples of three
    distinct colours.  On clean input the open and closed counts agree.
    """
    n = len(vecs)
    r = 1 if colours is None else max(colours) + 1
    turns = _half_turns(vecs, colours or [0] * n, r)
    if turns is None or not _clean_plane(tuple(rows)):
        return None
    if colours is None:
        return comb(n, 3) - sum(comb(h[0], 2) for _, _, h in turns)
    sizes = [colours.count(c) for c in range(r)]
    missed = 0
    for _, a, h in turns:
        others = sum(h) - h[a]
        missed += (others * others - sum(x * x for x in h) + h[a] * h[a]) // 2
    return sum(x * y * z for x, y, z in combinations(sizes, 3)) - missed


def monochrome_depth(
    S: Sequence[Point],
    p: Point,
    mode: Mode = "open",
    want_witnesses: bool = False,
) -> DepthReport:
    """Number of (d+1)-point simplices from S containing p."""
    if not S:
        raise InputError("empty point set")
    d = p.dim
    for q in S:
        if q.dim != d:
            raise InputError("dimension mismatch between S and p")
    if len(S) < d + 1:
        raise InputError(f"need at least {d + 1} points, got {len(S)}")
    _check_query(len(S), d + 1, mode)
    rows = tuple(q.row for q in S)
    scaled = _translated_rows(rows, p.row)
    if d == 2 and not want_witnesses:
        swept = _sweep_depth(rows, [w for _, w in scaled])
        if swept is not None:
            return DepthReport(mode, swept)
    _check_budget([1] * len(S), d + 1, "vertex tuples")
    n = len(S)
    blocks = ((P, range(P[-1] + 1, n)) for P in combinations(range(n - 1), d))
    count, degenerate, boundary, wit = _count_blocks(
        blocks, *zip(*scaled), range(1, n + 1), mode, want_witnesses)
    return DepthReport(mode, count, tuple(wit) if wit is not None else None,
                       degenerate, boundary)


def _check_config_point(config: ColourfulConfiguration, p: Point):
    if p.dim != config.dim:
        raise InputError("query point dimension does not match configuration")


def colourful_depth(
    config: ColourfulConfiguration,
    p: Point,
    mode: Mode = "open",
    want_witnesses: bool = False,
) -> DepthReport:
    """Number of colourful simplices (one vertex from each of d+1 distinct
    colours) containing p."""
    _check_config_point(config, p)
    d = config.dim
    _check_query(config.num_classes, d + 1, mode)
    if want_witnesses:
        scaled = _translated_rows([q.row for q in config.points()], p.row)
        count, degenerate, boundary, wit = _count_colourful(
            config.class_sizes(), scaled, mode, True)
        labels = [(ci, pi) for ci, cls in enumerate(config.classes) for pi in range(len(cls))]
        wit = tuple(tuple(map(labels.__getitem__, keys)) for keys in wit)
        return DepthReport(mode, count, wit, degenerate, boundary)
    if d == 2:
        rows = tuple(q.row for q in config.points())
        colours = [ci for ci, cls in enumerate(config.classes) for _ in cls]
        swept = _sweep_depth(rows, [w for _, w in _translated_rows(rows, p.row)], colours)
        if swept is not None:
            return DepthReport(mode, swept)
    count, degenerate, boundary, _ = _colourful_tally(_class_rows(config), p.row, mode)
    return DepthReport(mode, count, None, degenerate, boundary)


def _count_colourful(sizes: Sequence[int], scaled, mode: Mode, want_witnesses: bool,
                     tally: list[int] | None = None):
    """`_count_blocks` over the colourful tuples of classes of the given
    sizes, whose points, in class order, have the (scale, vector) pairs
    scaled."""
    k = len(scaled[0][1]) + 1
    _check_budget(sizes, k, "vertex tuples")
    keys, ends = _class_keys(sizes)
    blocks = _colourful_blocks(keys, combinations(range(len(sizes)), k))
    return _count_blocks(blocks, *zip(*scaled), ends, mode, want_witnesses, tally)


def _class_rows(config: ColourfulConfiguration) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The rows of the points of config, class by class: its key in
    `_colourful_tally`."""
    return tuple(tuple(q.row for q in cls) for cls in config.classes)


@lru_cache(maxsize=1)
def _colourful_tally(
    classes: tuple[tuple[tuple[int, ...], ...], ...], p: tuple[int, ...], mode: Mode
) -> tuple[int, int, int, tuple[int, ...]]:
    """The enumeration of the colourful tuples of the classes of point rows
    at the query row p: (count, degenerate, boundary, tally), where the
    tally holds, for every point in class order, the counted simplices that
    pick it.

    Memoized on its arguments, the lowest-terms rows, for the latest query
    only.  The one reuse is at distance one: a random core trial counts the
    origin of its configuration in `colour_decomposition` and then again as
    the first candidate of `core_depth_samples`, with no count between.
    Every other count in the audits and the CLI is a fresh key, so a larger
    bound would only keep more configurations alive.  The result is
    immutable, so every caller may keep it."""
    scaled = _translated_rows([q for cls in classes for q in cls], p)
    tally = [0] * len(scaled)
    count, degenerate, boundary, _ = _count_colourful(
        [len(cls) for cls in classes], scaled, mode, False, tally)
    return count, degenerate, boundary, tuple(tally)


def core_membership(config: ColourfulConfiguration, p: Point, strict: bool = False) -> bool:
    """True iff p lies in the convex hull of every colour class."""
    _check_config_point(config, p)
    return all(in_convex_hull(p, cls, strict) for cls in config.classes)


def zero_containing_count(
    config: ColourfulConfiguration,
    colour: int,
    point: int,
    mode: Mode = "open",
) -> int:
    """Number of colourful simplices containing the origin whose pick at the
    given colour is the given point.  The configuration is taken as already
    centred: the query point is the origin.

    This enumerates the simplices through the one point.  It is the oracle
    for `colour_decomposition`, which gives the count of every point from the
    one enumeration of its depth."""
    others = _other_classes(config, colour, lambda cls: 0 <= point < len(cls),
                            f"point index {point} out of range", mode)
    scales, cols = zip(*((q.row[-1], q.row[:-1]) for q in config.points()))
    keys, ends = _class_keys(config.class_sizes())
    # The fixed key is a class of its own, first; the face ending on it keeps a row of all keys.
    fixed = keys[colour][point]
    ends[fixed] = 0
    keys = [range(fixed, fixed + 1)] + [keys[c] for c in others]
    subsets = combinations(range(1, len(keys)), config.dim)
    blocks = _colourful_blocks(keys, ((0, *c) for c in subsets))
    return _count_blocks(blocks, scales, cols, ends, mode, False)[0]


def colour_decomposition(
    config: ColourfulConfiguration, mode: Mode = "open"
) -> tuple[DepthReport, tuple[tuple[int, ...], ...]]:
    """The colourful depth of the origin and its colour decomposition, from
    one enumeration.

    counts[c][k] is `zero_containing_count(config, c, k, mode)`: the number
    of counted colourful simplices whose pick at colour c is its point k.
    Each simplex picks one point of each of d+1 colours, so the counts of any
    one colour sum to the depth when there are exactly d+1 colours.  As in
    `zero_containing_count`, the query point is the origin.  The report has
    no witnesses.
    """
    _check_query(config.num_classes, config.dim + 1, mode)
    count, degenerate, boundary, tally = _colourful_tally(
        _class_rows(config), origin(config.dim).row, mode)
    counts = tuple(tuple(tally[k] for k in ks) for ks in _class_keys(config.class_sizes())[0])
    return DepthReport(mode, count, None, degenerate, boundary), counts


def antipodal_cone_count(
    config: ColourfulConfiguration, colour: int, v: Point
) -> ConeCount:
    """Number of colourful simplicial cones, one generator from each of d
    colours other than the given one, that contain the antipode -v.

    Linearly dependent generator tuples span no simplicial cone; they are
    skipped and reported in the degenerate counter.  This is the count of
    `cone_contains` over the tuples, with every vector scaled to integers
    once per call instead of once per tuple.
    """
    _check_config_point(config, v)
    others = _other_classes(config, colour, lambda cls: any(v.row[:-1]), "v must be nonzero")
    cols = [q.row[:-1] for q in config.points() + [v]]
    subsets = combinations(others, config.dim)
    return ConeCount(*_antipodal_count(config.class_sizes(), subsets, cols))


def _other_classes(config: ColourfulConfiguration, colour: int, fixed_ok, refusal: str,
                   mode: Mode = "open") -> list[int]:
    """The classes other than colour, from which a count at one fixed point
    or antipode of that colour picks d points.  Refused in this order: a
    colour out of range; the caller's own refusal when fixed_ok is false
    on the class of the colour; a mode or a number of other classes that
    `_check_query` refuses; more than `MAX_TUPLES` tuples of d points."""
    r, d = config.num_classes, config.dim
    if not (0 <= colour < r):
        raise InputError(f"colour index {colour} out of range")
    if not fixed_ok(config.classes[colour]):
        raise InputError(refusal)
    _check_query(r - 1, d, mode)
    others = [c for c in range(r) if c != colour]
    _check_budget([len(config.classes[c]) for c in others], d, "vertex tuples")
    return others


def _antipodal_count(sizes: Sequence[int], subsets, cols) -> tuple[int, int]:
    """`antipodal_cone_count` on integer columns: cols holds the points of
    classes of the given sizes, in class order, and one vector v last.  The
    number of cones containing -v whose generators pick one key from each
    class of a subset, and the number of linearly dependent generator
    tuples."""
    # With the column -(-v) = v last, sum(t_i * g_i) = t_d * (-v) and t_d is
    # the determinant of the generators (see `cone_contains`).
    keys, ends = _class_keys([*sizes, 1])
    count = degenerate = 0
    blocks = _colourful_blocks(keys, ((*c, len(sizes)) for c in subsets))
    for _, _, td, sl in _cofactor_blocks(blocks, cols, ends):
        if td:
            count += all(t[0] >= 0 for t in sl)
        else:
            degenerate += 1
    return count, degenerate


def core_depth_samples(
    config: ColourfulConfiguration,
    samples: int,
    seed: int,
    bound: int = 10_000,
) -> list[tuple[int, Point]]:
    """Open colourful depths at sampled strict-interior core points.

    Candidate points are the origin plus random convex combinations of
    per-colour convex mixtures.  A candidate is kept when it lies strictly
    inside every colour hull and its open count has no boundary hit: no
    non-degenerate colourful simplex has it on its boundary.  Then the open
    count is constant near the candidate, and so is strict core membership,
    so the sample's depth is that of nearby core points in general position,
    the points the bounds of `audits` are stated for.  Degenerate colourful
    tuples belong to the configuration, not to the candidate, and do not
    reject it.  Deterministic given the seed.

    The weights are integers in [1, bound], drawn class by class and point
    by point, then one per class.  A mixture is kept as an integer vector
    over one integer denominator: the class's points share the lcm s of
    their scales, and sum(w_i * q_i) / sum(w) is
    sum(w_i * (s * q_i)) / (s * sum(w)).  So is the candidate, which becomes
    a `Point` at the end through the row `exact._reduced_row` makes of it.
    Every weight comes from `sampling._randints`, the stream of `randint`.
    """
    if samples < 1:
        raise InputError("samples must be at least 1")
    if bound < 1:
        raise InputError("bound must be at least 1")
    rng = Random(seed)
    d = config.dim
    out: list[tuple[int, Point]] = []

    def consider(candidate: Point):
        if core_membership(config, candidate, strict=True):
            rep = colourful_depth(config, candidate, "open")
            if rep.boundary == 0:
                out.append((rep.count, candidate))

    # Per class: the common scale s and the columns of the points times s.
    classes = []
    for cls in config.classes:
        s = lcm(*[q.row[-1] for q in cls])
        scaled = [[x * (s // q.row[-1]) for x in q.row[:-1]] for q in cls]
        classes.append((s, list(zip(*scaled))))

    consider(origin(d))
    for _ in range(samples):
        mixtures = []
        for s, cols in classes:
            w = _randints(rng, [(1, bound)] * len(cols[0]))
            mixtures.append((s * sum(w), [sum(map(mul, w, col)) for col in cols]))
        cw = _randints(rng, [(1, bound)] * len(mixtures))
        num, den = [0] * d, 1
        for wi, (b, a) in zip(cw, mixtures):
            num = [x * b + wi * y * den for x, y in zip(num, a)]
            den *= b
        den *= sum(cw)
        consider(Point._from_row(_reduced_row(num + [den])))
    return out


def min_core_depth_estimate(
    config: ColourfulConfiguration,
    samples: int,
    seed: int,
    bound: int = 10_000,
) -> tuple[int, Point]:
    """Minimum open colourful depth over sampled interior core points.

    An upper bound on the true minimum core depth, never an exact value;
    see `core_depth_samples` for the sampling scheme.
    """
    found = core_depth_samples(config, samples, seed, bound)
    if not found:
        raise CoreSampleError(
            f"no strict-core sample off every colourful boundary in {samples} draws"
        )
    return min(found, key=lambda t: t[0])
