"""Monochrome and colourful simplicial depth counting.

Counting first translates the points so that the query point sits at the
origin, in integers: with q = Q / s_q and p = P / s_p scaled to integer rows,
the vector s_p * Q - s_q * P is q - p times the positive integer s_p * s_q
(`exact._translated_rows`).  Translation leaves every containment decision
unchanged, and so does scaling by a positive number, so no rational is formed
between the input points and the integer kernel.

In the plane, a clean input is counted by one angular sweep (Rousseeuw and
Ruts, AS 307, 1996; the colourful form is Zasenko and Stephen, COCOA 2016).
Clean means that the query point and the points are pairwise distinct and no
three of them lie on one line, which an O(n^2) pass hashing the line through
every pair certifies.  The vectors are then sorted by the exact angular
comparator of `exact`, and one two-pointer pass finds, for each point, how
many points of each colour lie in the open half-turn after it.  A triple
misses the origin exactly when its other two points lie in the half-turn after
its first one, so the depth is the number of triples less the sum of those
pairs, in O(n log n) after the certificate.  On clean input no tuple is
degenerate and the query point is on no simplex boundary, so the open and
closed counts agree and both counters are zero.

Every other count enumerates vertex tuples: dimensions above two, planar input
that is not clean, and every call that asks for witnesses.  Each tuple is
decided by the integer kernel of `exact`: cofactor signs for a simplex, and
the Caratheodory hull search for degenerate tuples in closed mode.  A
cofactor is a d x d minor on the tuple's other d points, and neighbouring
tuples share them, so each query memoises its minors by point keys in a dict
that lives for that call: monochrome counting computes C(n, d) minors rather
than (d+1) C(n, d+1), and colourful d = 3 with four classes of four computes
256 rather than 1,024.
The same enumeration can tally, for every point, the counted simplices that
pick it: `colour_decomposition` returns the depth of the origin together with
these per-point counts, which for the points of any one colour sum to the
depth when there are d+1 colours.
Before enumerating, every count compares its number of tuples, C(n, d+1) or
the elementary symmetric polynomial e_{d+1} of the class sizes, with
`MAX_TUPLES` and refuses a larger input with an `InputError`; the planar
sweep is not limited.
Enumeration is also the oracle the sweep is tested against.  Its order is
lexicographic over colour index then point index, so witness lists and counts
are reproducible byte for byte, and the enumeration space can be partitioned
across workers and summed without changing results.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, product
from math import comb, gcd, lcm
from operator import mul
from random import Random
from typing import Iterable, NamedTuple, Sequence

from .exact import (
    InputError,
    Mode,
    Point,
    _angle_cmp,
    _cross,
    _det_int,
    _hull_contains,
    _int_row,
    _origin_status,
    _scaled_row,
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


def _memo_cofactors(
    key_tuples: Iterable[tuple[int, ...]],
    cols: Sequence[tuple[int, ...]],
    d: int,
    minors: dict[tuple[int, ...], int] | None = None,
):
    """Yield each tuple of d+1 keys with the `_cofactors` of its columns
    cols[k].

    Cofactor i is the minor on every column but the i-th, with the sign
    (-1)^(d+i).  Each minor is computed once and memoised by the keys of its
    columns, so a query costs one determinant per d-subset that occurs
    rather than d+1 per simplex.  The memo lives for the call unless the
    caller passes one to share between calls on the same keys and columns.
    A vertex set must come in one fixed key order.
    """
    if minors is None:
        minors = {}
    get = minors.get
    drops = [(i, (d + i) % 2) for i in range(d + 1)]
    for keys in key_tuples:
        t = []
        for i, negate in drops:
            face = keys[:i] + keys[i + 1:]
            m = get(face)
            if m is None:
                m = minors[face] = _det_int([cols[k] for k in face])
            t.append(-m if negate else m)
        yield keys, t


def _count_tuples(
    key_tuples: Iterable[tuple[int, ...]],
    scales: Sequence[int],
    cols: Sequence[tuple[int, ...]],
    mode: Mode,
    want_witnesses: bool,
    tally: list[int] | None = None,
):
    """Shared counting core.  key_tuples yields the d+1 indices of each
    simplex; cols[k] is the integer vector of translated point k and
    scales[k] its positive scale.  Witnesses are key tuples.  A tally, one entry
    per key, gains one for every key of every counted simplex."""
    count = degenerate = boundary = 0
    witnesses = [] if want_witnesses else None
    for keys, t in _memo_cofactors(key_tuples, cols, len(cols[0])):
        open_hit, closed_hit, degen = _origin_status(
            t, sum(map(mul, map(scales.__getitem__, keys), t))
        )
        if degen:
            degenerate += 1
            hit = mode == "closed" and _hull_contains([cols[k] for k in keys])
        else:
            if closed_hit and not open_hit:
                boundary += 1
            hit = open_hit if mode == "open" else closed_hit
        if hit:
            count += 1
            if want_witnesses:
                witnesses.append(keys)
            if tally is not None:
                for k in keys:
                    tally[k] += 1
    return count, degenerate, boundary, witnesses


MAX_TUPLES = 10_000_000
"""The most vertex tuples one count enumerates.  A d = 3 tuple of random
rationals costs about 6 us (Python 3.11 on a 2-vCPU Xeon), so that is about a
minute, and about three minutes at d = 4.  A count above it raises
`InputError` with the tuple count instead of running for hours."""


def _check_query(classes: int, k: int, mode: Mode = "open") -> None:
    """Refuse a mode other than open or closed, and fewer than k classes to
    pick the k points of a tuple from.  Every enumerating count validates its
    query here; a monochrome count has n classes of one point."""
    if mode not in ("open", "closed"):
        raise InputError(f"mode must be 'open' or 'closed', got {mode!r}")
    if classes < k:
        raise InputError(f"need at least {k} colour classes to pick from, got {classes}")


def _check_budget(sizes: Sequence[int], k: int) -> None:
    """Refuse to enumerate more than MAX_TUPLES tuples.  The tuples pick one
    point from each of k of the classes of the given sizes, so there are
    e_k(sizes) of them, the elementary symmetric polynomial; a monochrome
    count has n classes of one point, and C(n, k) tuples."""
    e = [1] + [0] * k
    for size in sizes:
        for j in range(k, 0, -1):
            e[j] += size * e[j - 1]
    if e[k] > MAX_TUPLES:
        raise InputError(
            f"{e[k]} vertex tuples to enumerate, more than the limit of {MAX_TUPLES}"
        )


def _class_keys(config: ColourfulConfiguration) -> list[range]:
    """The flat point indices of each colour class, classes in order."""
    out, start = [], 0
    for cls in config.classes:
        out.append(range(start, start + len(cls)))
        start += len(cls)
    return out


def _colourful_keys(class_keys: Sequence[range], colours: Sequence[int], k: int):
    """Flat index tuples picking one point from each of k of the colours,
    lexicographic over colour subset then points."""
    for colour_sub in combinations(colours, k):
        yield from product(*(class_keys[c] for c in colour_sub))


def _clean_plane(scaled: Sequence[tuple[int, tuple[int, int]]]) -> bool:
    """True iff the origin and the plane vectors are pairwise distinct and no
    three of them lie on one line.

    scaled holds pairs (s, w), w being the vector times s > 0, as
    `_translated_rows` makes them.
    The difference of vectors j and i times s_i * s_j is s_i * w_j - s_j * w_i;
    reduced by its gcd and sign it names the line through the two, and a name
    repeated from one vector puts three of them on one line.  O(n^2).

    This is the d = 2 pencil of `exact.in_general_position` with the query
    point as row 0: vector i is the prefix, eliminated on its homogeneous
    coordinate s_i, and the differences are the plane vectors of the later
    rows, so it answers in_general_position(points + [query]).
    """
    pts = [(1, (0, 0)), *scaled]
    for i, (si, (xi, yi)) in enumerate(pts):
        seen = set()
        for sj, (xj, yj) in pts[i + 1:]:
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
    and the number of vectors of each of the r colours in the open half-turn
    counter-clockwise after it (one list, updated in place between items).
    The vectors must be nonzero with no two on one line through the origin,
    so that no cross product between two of them is zero.

    This is the package's one angular sort: planar depth and the circle cells
    of `arrangements` both read their order from it.
    """
    n = len(vecs)
    order = sorted(range(n), key=cmp_to_key(lambda a, b: _angle_cmp(vecs[a], vecs[b])))
    vs = [vecs[k] for k in order]
    cs = [colours[k] for k in order]
    window = [0] * r  # colours of the vectors i+1 .. j-1 (cyclically)
    j = 1
    for i in range(n):
        if j == i:
            j += 1
        elif i:
            window[cs[i]] -= 1
        while _cross(vs[i], vs[j % n]) > 0:
            window[cs[j % n]] += 1
            j += 1
        yield order[i], cs[i], window


def _sweep_depth(
    scaled: Sequence[tuple[int, tuple[int, int]]],
    colours: Sequence[int] | None = None,
) -> int | None:
    """Depth of the origin among the plane vectors by one angular sweep, or
    None unless the input is clean (see `_clean_plane`).

    A triple misses the origin exactly when its other two vectors lie in the
    open half-turn after its first one.  Without colours the count is over
    all triples; with a class index per vector it is over triples of three
    distinct colours.  On clean input the open and closed counts agree.
    """
    if not _clean_plane(scaled):
        return None
    vecs = [w for _, w in scaled]
    n = len(vecs)
    if colours is None:
        return comb(n, 3) - sum(comb(h[0], 2) for _, _, h in _half_turns(vecs, [0] * n, 1))
    r = max(colours) + 1
    sizes = [colours.count(c) for c in range(r)]
    missed = 0
    for _, a, h in _half_turns(vecs, colours, r):
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
        swept = _sweep_depth(scaled)
        if swept is not None:
            return DepthReport(mode, swept)
    _check_budget([1] * len(S), d + 1)
    scales, cols = zip(*scaled)
    count, degenerate, boundary, wit = _count_tuples(
        combinations(range(len(S)), d + 1), scales, cols, mode, want_witnesses
    )
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
    scaled = _translated_rows(config.points(), p)
    labels = [(ci, pi) for ci, cls in enumerate(config.classes) for pi in range(len(cls))]
    if d == 2 and not want_witnesses:
        swept = _sweep_depth(scaled, [ci for ci, _ in labels])
        if swept is not None:
            return DepthReport(mode, swept)
    _check_budget(config.class_sizes(), d + 1)
    scales, cols = zip(*scaled)
    count, degenerate, boundary, wit = _count_tuples(
        _colourful_keys(_class_keys(config), range(r), d + 1),
        scales, cols, mode, want_witnesses,
    )
    if wit is not None:
        wit = tuple(tuple(labels[k] for k in keys) for keys in wit)
    return DepthReport(mode, count, wit, degenerate, boundary)


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
    _check_budget([len(config.classes[c]) for c in others], d)
    scales, cols = zip(*(_scaled_row(q.coords) for cls in config.classes for q in cls))
    class_keys = _class_keys(config)
    fixed = (class_keys[colour][point],)
    key_tuples = (fixed + rest for rest in _colourful_keys(class_keys, others, d))
    count, _, _, _ = _count_tuples(key_tuples, scales, cols, mode, False)
    return count


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
    d = config.dim
    r = config.num_classes
    _check_query(r, d + 1, mode)
    _check_budget(config.class_sizes(), d + 1)
    scales, cols = zip(*(_scaled_row(q.coords) for q in config.points()))
    class_keys = _class_keys(config)
    tally = [0] * len(cols)
    count, degenerate, boundary, _ = _count_tuples(
        _colourful_keys(class_keys, range(r), d + 1), scales, cols, mode, False, tally
    )
    counts = tuple(tuple(tally[k] for k in keys) for keys in class_keys)
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
    _check_budget([len(config.classes[c]) for c in others], d)
    cols = [_int_row(q.coords) for cls in config.classes for q in cls]
    cols.append(_int_row(v.coords))
    gen_tuples = _colourful_keys(_class_keys(config), others, d)
    return _antipodal_count(gen_tuples, cols, len(cols) - 1, {})


def _antipodal_count(
    gen_tuples: Iterable[tuple[int, ...]],
    cols: Sequence[tuple[int, ...]],
    v: int,
    minors: dict[tuple[int, ...], int],
) -> ConeCount:
    """`antipodal_cone_count` on integer columns: the cones on the key tuples
    gen_tuples that contain -cols[v].

    minors is the `_memo_cofactors` memo; a caller that counts at several
    columns v over the same generators passes one memo to all its calls, so
    each generator minor is computed once.
    """
    # With the column -(-v) = v last, sum(t_i * g_i) = t_d * (-v) and t_d is
    # the determinant of the generators (see `cone_contains`).
    count = degenerate = 0
    tuples = (gens + (v,) for gens in gen_tuples)
    for _, t in _memo_cofactors(tuples, cols, len(cols[v]), minors):
        if t[-1] == 0:
            degenerate += 1
        elif all(x * t[-1] >= 0 for x in t):
            count += 1
    return ConeCount(count, degenerate)


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
    sum(w_i * (s * q_i)) / (s * sum(w)).  So is the candidate, and each of
    its coordinates becomes one `Fraction` at the end.
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
        scaled = [_scaled_row(q.coords) for q in cls]
        s = lcm(*[sq for sq, _ in scaled])
        classes.append((s, list(zip(*[[x * (s // sq) for x in w] for sq, w in scaled]))))

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
        consider(Point(Fraction(x, den) for x in num))
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
