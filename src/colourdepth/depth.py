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
The points' side, that no two coincide and no three are collinear, is an
O(n^2) pass hashing the line through every pair, on the points' own integer
rows.  On clean input no tuple is degenerate and the query point is on no
simplex boundary, so the open and closed counts agree and both counters are
zero.

Every other count enumerates vertex tuples: dimensions above two, planar input
that is not clean, and every call that asks for witnesses.  Each tuple is
decided by the integer kernel of `exact`: cofactor signs for a simplex, and
the Caratheodory hull search for degenerate tuples in closed mode.  A
cofactor is a d x d minor on the tuple's other d points.  Tuples come in
blocks of d points and a run of last points; each face of d-1 points keeps
one row of its minors with later points, and a block slices d rows.  So a
call computes C(n, d) minors for a monochrome count rather than
(d+1) C(n, d+1), and 256 rather than 1,024 for colourful d = 3 with four
classes of four.
The same enumeration can tally, for every point, the counted simplices that
pick it: `colour_decomposition` returns the depth of the origin together with
these per-point counts, which for the points of any one colour sum to the
depth when there are d+1 colours.
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

from itertools import accumulate, combinations, product
from math import comb, gcd, lcm
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
    _translated_rows,
    in_convex_hull,
    in_general_position_with,
    origin,
)

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


def _cofactor_blocks(blocks, cols: Sequence[tuple[int, ...]], ends: Sequence[int]):
    """For each block (P, R) of d keys and a key range, yield P, R, |t_d|
    and the slices over R of the `_cofactors` t_{d-1} .. t_0 of the tuples
    P + (k,), all times the sign of t_d (+1 when t_d is zero).

    t_i is (-1)^(d+i) det(cols[G] + [cols[k]]) for the face G of P without
    its i-th key, and t_d is det(cols[P]).  A face keeps one row of these
    minors, from ends[G[-1]] (the first key after the class of its last key)
    to the end, which must hold R and P[-1]: the dot products with its normal,
    in closed form up to d = 3, else from `_cofactors` of its transpose."""
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
        sl = []
        for G in combinations(P, len(P) - 1):
            lo, r, neg = rows.get(G) or row(G)
            if not sl:
                td = r[P[-1] - lo]
                flip = td >= 0
            sl.append((neg if flip else r)[R.start - lo:R.stop - lo])
            flip = not flip
        yield P, R, -td if td < 0 else td, sl


def _count_blocks(blocks, scales, cols, ends, mode: Mode, want_witnesses: bool,
                  tally: list[int] | None = None):
    """Shared counting core: `exact._origin_status` of each tuple of
    `_cofactor_blocks`, skipping the determinant sum(scale_i * t_i) of an
    open hit, whose cofactors of one strict sign cannot sum to zero.  cols[k]
    is translated point k times its positive scale scales[k].  Witnesses are
    key tuples; a tally gains one at each key of each counted simplex."""
    count = degenerate = boundary = 0
    closed, witnesses = mode == "closed", [] if want_witnesses else None
    for P, R, td, sl in _cofactor_blocks(blocks, cols, ends):
        sc, got = [scales[q] for q in P[::-1]], []
        for k, t in zip(R, zip(*sl)):
            m = min(t)
            if m > 0 < td:
                got.append(k)
                continue
            det = sum(map(mul, sc, t)) + scales[k] * td
            if det == 0:
                degenerate += 1
                if closed and _hull_contains([cols[q] for q in P + (k,)]):
                    got.append(k)
            elif m >= 0 if det > 0 else td == 0 and max(t) <= 0:
                boundary += 1
                if closed:
                    got.append(k)
        count += len(got)
        if witnesses is not None:
            witnesses += [P + (k,) for k in got]
        if tally is not None:
            for q in P:
                tally[q] += len(got)
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


def _clean_plane(rows: Sequence[tuple[int, int, int]]) -> bool:
    """True iff the points of the homogeneous rows (s * x, s * y, s), s > 0,
    are pairwise distinct and no three of them lie on one line.

    The difference of points j and i times s_i * s_j is s_i * X_j - s_j * X_i;
    reduced by its gcd and sign it names the line through the two, and a
    name repeated from one point puts three of them on one line.  O(n^2), on
    the points' own rows: the query point plays no part, so the integers
    are those of the input.

    This is the d = 2 pencil of `exact.in_general_position`: point i is the
    prefix, eliminated on its homogeneous coordinate s_i, and the
    differences are the plane vectors of the later rows.
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


def _half_turns(vecs: Sequence[tuple[int, int]], colours: Sequence[int], r: int):
    """For each plane vector in angular order, its index in vecs, its colour
    and the numbers of vectors of each of the r colours in the open
    half-turn counter-clockwise after it; or None when two of the vectors lie
    on one line through the origin.  The vectors must be nonzero.

    The order is `exact._angular_order`.  Two vectors on one ray are
    neighbours in it, with a zero cross product.  Two opposite ones are
    found by the two-pointer pass: the pointer of a vector runs through its
    open half-turn and stops on the first vector outside it, and when no two
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
    vecs: Sequence[tuple[int, int]],
    colours: Sequence[int] | None = None,
) -> int | None:
    """Depth of the query point by one angular sweep, or None unless the
    input is clean.

    rows are the homogeneous rows of the points and vecs the points
    translated to the query, as `_translated_rows` makes them.  Clean means
    that the points are pairwise distinct with no three on one line
    (`_clean_plane`), and that the query point is none of them and on no
    line through two of them: no vector is zero and no two are parallel,
    which `_half_turns` reports from the angular order.

    A triple misses the origin exactly when its other two vectors lie in the
    open half-turn after its first one.  Without colours the count is over
    all triples; with a class index per vector it is over triples of three
    distinct colours.  On clean input the open and closed counts agree.
    """
    if (0, 0) in vecs:
        return None
    n = len(vecs)
    r = 1 if colours is None else max(colours) + 1
    turns = _half_turns(vecs, colours or [0] * n, r)
    if turns is None or not _clean_plane(rows):
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
    scaled = _translated_rows(S, p)
    if d == 2 and not want_witnesses:
        swept = _sweep_depth([q.row for q in S], [w for _, w in scaled])
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
    r = config.num_classes
    _check_query(r, d + 1, mode)
    points = config.points()
    scaled = _translated_rows(points, p)
    labels = [(ci, pi) for ci, cls in enumerate(config.classes) for pi in range(len(cls))]
    if d == 2 and not want_witnesses:
        swept = _sweep_depth([q.row for q in points], [w for _, w in scaled],
                             [ci for ci, _ in labels])
        if swept is not None:
            return DepthReport(mode, swept)
    count, degenerate, boundary, wit = _count_colourful(config, scaled, mode, want_witnesses)
    if wit is not None:
        wit = tuple(tuple(labels[k] for k in keys) for keys in wit)
    return DepthReport(mode, count, wit, degenerate, boundary)


def _count_colourful(config, scaled, mode: Mode, want_witnesses: bool, tally=None):
    """`_count_blocks` over the colourful tuples of config, whose points
    have the (scale, vector) pairs scaled."""
    _check_budget(config.class_sizes(), config.dim + 1, "vertex tuples")
    keys, ends = _class_keys(config.class_sizes())
    blocks = _colourful_blocks(keys, combinations(range(config.num_classes), config.dim + 1))
    return _count_blocks(blocks, *zip(*scaled), ends, mode, want_witnesses, tally)


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
    r = config.num_classes
    d = config.dim
    if not (0 <= colour < r):
        raise InputError(f"colour index {colour} out of range")
    if not (0 <= point < len(config.classes[colour])):
        raise InputError(f"point index {point} out of range")
    _check_query(r - 1, d, mode)
    others = [c for c in range(r) if c != colour]
    _check_budget([len(config.classes[c]) for c in others], d, "vertex tuples")
    scales, cols = zip(*((q.row[-1], q.row[:-1]) for q in config.points()))
    keys, ends = _class_keys(config.class_sizes())
    # The fixed key is a class of its own, first; the face ending on it keeps a row of all keys.
    fixed = keys[colour][point]
    ends[fixed] = 0
    keys = [range(fixed, fixed + 1)] + [keys[c] for c in others]
    blocks = _colourful_blocks(keys, ((0, *c) for c in combinations(range(1, r), d)))
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
    scaled = [(q.row[-1], q.row[:-1]) for q in config.points()]
    tally = [0] * len(scaled)
    count, degenerate, boundary, _ = _count_colourful(config, scaled, mode, False, tally)
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
    r = config.num_classes
    d = config.dim
    if not (0 <= colour < r):
        raise InputError(f"colour index {colour} out of range")
    if all(c == 0 for c in v.coords):
        raise InputError("v must be nonzero")
    _check_query(r - 1, d)
    others = [c for c in range(r) if c != colour]
    _check_budget([len(config.classes[c]) for c in others], d, "vertex tuples")
    cols = [q.row[:-1] for q in config.points() + [v]]
    counts, degenerate = _antipodal_count([*config.class_sizes(), 1], combinations(others, d), cols)
    return ConeCount(counts[0], degenerate)


def _antipodal_count(sizes: Sequence[int], subsets, cols) -> tuple[list[int], int]:
    """`antipodal_cone_count` on integer columns in classes of the given
    sizes, at every antipode at once: for each key v of the last class, the
    cones containing -cols[v] whose generators pick one key from each class
    of a subset, and the number of linearly dependent generator tuples.  So
    each generator minor is computed once for all antipodes."""
    # With the column -(-v) = v last, sum(t_i * g_i) = t_d * (-v) and t_d is
    # the determinant of the generators (see `cone_contains`).
    keys, ends = _class_keys(sizes)
    counts, degenerate = [0] * sizes[-1], 0
    blocks = _colourful_blocks(keys, ((*c, len(sizes) - 1) for c in subsets))
    for _, _, td, sl in _cofactor_blocks(blocks, cols, ends):
        degenerate += td == 0
        if td:
            for j, t in enumerate(zip(*sl)):
                counts[j] += min(t) >= 0
    return counts, degenerate


def core_depth_samples(
    config: ColourfulConfiguration,
    samples: int,
    seed: int,
    bound: int = 10_000,
) -> list[tuple[int, Point]]:
    """Open colourful depths at sampled strict-interior core points.

    Candidate points are the origin plus random convex combinations of
    per-colour convex mixtures; candidates are kept only when they lie
    strictly inside every colour hull and avoid every hyperplane spanned by
    d configuration points.  Deterministic given the seed.

    The weights are integers in [1, bound], drawn class by class and point
    by point, then one per class.  A mixture is kept as an integer vector
    over one integer denominator: the class's points share the lcm s of
    their scales, and sum(w_i * q_i) / sum(w) is
    sum(w_i * (s * q_i)) / (s * sum(w)).  So is the candidate, which becomes
    a `Point` through the pair constructor at the end.
    """
    if samples < 1:
        raise InputError("samples must be at least 1")
    rng = Random(seed)
    pts = config.points()
    d = config.dim
    out: list[tuple[int, Point]] = []

    def consider(candidate: Point):
        if not core_membership(config, candidate, strict=True):
            return
        if not in_general_position_with(pts, candidate):
            return
        out.append((colourful_depth(config, candidate, "open").count, candidate))

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
            w = [rng.randint(1, bound) for _ in range(len(cols[0]))]
            mixtures.append((s * sum(w), [sum(map(mul, w, col)) for col in cols]))
        cw = [rng.randint(1, bound) for _ in mixtures]
        num, den = [0] * d, 1
        for wi, (b, a) in zip(cw, mixtures):
            num = [x * b + wi * y * den for x, y in zip(num, a)]
            den *= b
        den *= sum(cw)
        consider(Point._from_pairs([(x, den) for x in num]))
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
            f"no strict-core sample in general position found in {samples} draws"
        )
    return min(found, key=lambda t: t[0])
