"""Monochrome and colourful simplicial depth counting.

Counting first translates the points so that the query point sits at the
origin (translation is exact in rationals and leaves every containment
decision unchanged).  Each translated point is then scaled to an integer
vector, since scaling by a positive rational never changes whether the origin
lies in a hull spanned with it.

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
the Caratheodory hull search for degenerate tuples in closed mode.
Enumeration is also the oracle the sweep is tested against.  Its order is
lexicographic over colour index then point index, so witness lists and counts
are reproducible byte for byte, and the enumeration space can be partitioned
across workers and summed without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, product
from math import comb, gcd
from random import Random
from typing import Iterable, NamedTuple, Sequence

from .exact import (
    InputError,
    Mode,
    Point,
    _angle_cmp,
    _cofactors,
    _cross,
    _hull_contains,
    _int_row,
    _origin_status,
    _scaled_row,
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
    "antipodal_cone_count",
    "core_depth_samples",
    "min_core_depth_estimate",
]


class CoreSampleError(RuntimeError):
    """No valid core sample was found within the sampling budget.

    This is evidence of a thin or empty core, not a proof of emptiness."""


@dataclass(frozen=True)
class ColourfulConfiguration:
    """A dimension d plus r colour classes of points."""

    dim: int
    classes: tuple[tuple[Point, ...], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("dimension must be at least 1")
        if not self.classes:
            raise InputError("need at least one colour class")
        for cls in self.classes:
            if not cls:
                raise InputError("every colour class needs at least one point")
            for p in cls:
                if p.dim != self.dim:
                    raise InputError(
                        f"point dimension {p.dim} does not match dim {self.dim}"
                    )

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


@dataclass(frozen=True)
class DepthReport:
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


def _count_tuples(
    vertex_tuples: Iterable[tuple],
    point_scaled,
    mode: Mode,
    want_witnesses: bool,
):
    """Shared counting core.  vertex_tuples yields (witness, keys) pairs;
    point_scaled maps each key to the `_scaled_row` pair (scale, integer
    vector) of its translated point."""
    count = degenerate = boundary = 0
    witnesses = [] if want_witnesses else None
    for witness, keys in vertex_tuples:
        scales, cols = zip(*[point_scaled[k] for k in keys])
        open_hit, closed_hit, degen = _origin_status(cols, scales)
        if degen:
            degenerate += 1
            hit = mode == "closed" and _hull_contains(cols)
        else:
            if closed_hit and not open_hit:
                boundary += 1
            hit = open_hit if mode == "open" else closed_hit
        if hit:
            count += 1
            if want_witnesses:
                witnesses.append(witness)
    return count, degenerate, boundary, witnesses


def _clean_plane(scaled: Sequence[tuple[int, tuple[int, int]]]) -> bool:
    """True iff the origin and the plane vectors are pairwise distinct and no
    three of them lie on one line.

    scaled holds `_scaled_row` pairs (s, w), w being the vector times s > 0.
    The difference of vectors j and i times s_i * s_j is s_i * w_j - s_j * w_i;
    reduced by its gcd and sign it names the line through the two, and a name
    repeated from one vector puts three of them on one line.  O(n^2).
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
    """For each plane vector in angular order, its colour and the number of
    vectors of each of the r colours in the open half-turn counter-clockwise
    after it (one list, updated in place between items).  The vectors must be
    nonzero with no two on one line through the origin, so that no cross
    product between two of them is zero.
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
        yield cs[i], window


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
        return comb(n, 3) - sum(comb(h[0], 2) for _, h in _half_turns(vecs, [0] * n, 1))
    r = max(colours) + 1
    sizes = [colours.count(c) for c in range(r)]
    missed = 0
    for a, h in _half_turns(vecs, colours, r):
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
    if mode not in ("open", "closed"):
        raise InputError(f"mode must be 'open' or 'closed', got {mode!r}")
    if not S:
        raise InputError("empty point set")
    d = p.dim
    for q in S:
        if q.dim != d:
            raise InputError("dimension mismatch between S and p")
    if len(S) < d + 1:
        raise InputError(f"need at least {d + 1} points, got {len(S)}")
    scaled = [_scaled_row((q - p).coords) for q in S]
    if d == 2 and not want_witnesses:
        swept = _sweep_depth(scaled)
        if swept is not None:
            return DepthReport(mode, swept)

    def tuples():
        for sub in combinations(range(len(S)), d + 1):
            yield sub, sub

    count, degenerate, boundary, wit = _count_tuples(
        tuples(), scaled, mode, want_witnesses
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
    if mode not in ("open", "closed"):
        raise InputError(f"mode must be 'open' or 'closed', got {mode!r}")
    _check_config_point(config, p)
    d = config.dim
    r = config.num_classes
    if r < d + 1:
        raise InputError(f"need at least {d + 1} colour classes, got {r}")
    shifted = config.translated(-p)
    scaled = {
        (ci, pi): _scaled_row(q.coords)
        for ci, cls in enumerate(shifted.classes)
        for pi, q in enumerate(cls)
    }
    if d == 2 and not want_witnesses:
        swept = _sweep_depth(list(scaled.values()), [ci for ci, _ in scaled])
        if swept is not None:
            return DepthReport(mode, swept)

    def tuples():
        for colour_sub in combinations(range(r), d + 1):
            sizes = [range(len(config.classes[c])) for c in colour_sub]
            for picks in product(*sizes):
                keys = tuple(zip(colour_sub, picks))
                yield keys, keys

    count, degenerate, boundary, wit = _count_tuples(
        tuples(), scaled, mode, want_witnesses
    )
    return DepthReport(mode, count, tuple(wit) if wit is not None else None,
                       degenerate, boundary)


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
    centred: the query point is the origin."""
    if mode not in ("open", "closed"):
        raise InputError(f"mode must be 'open' or 'closed', got {mode!r}")
    r = config.num_classes
    d = config.dim
    if not (0 <= colour < r):
        raise InputError(f"colour index {colour} out of range")
    if not (0 <= point < len(config.classes[colour])):
        raise InputError(f"point index {point} out of range")
    if r < d + 1:
        raise InputError(f"need at least {d + 1} colour classes, got {r}")
    scaled = {
        (ci, pi): _scaled_row(q.coords)
        for ci, cls in enumerate(config.classes)
        for pi, q in enumerate(cls)
    }
    others = [c for c in range(r) if c != colour]

    def tuples():
        for colour_sub in combinations(others, d):
            sizes = [range(len(config.classes[c])) for c in colour_sub]
            for picks in product(*sizes):
                keys = ((colour, point),) + tuple(zip(colour_sub, picks))
                yield keys, keys

    count, _, _, _ = _count_tuples(tuples(), scaled, mode, False)
    return count


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
    # With the column -(-v) = v last, sum(t_i * g_i) = t_d * (-v) and t_d is
    # the determinant of the generators (see `cone_contains`).
    v_col = _int_row(v.coords)
    rows = [[_int_row(q.coords) for q in cls] for cls in config.classes]
    count = degenerate = 0
    others = [c for c in range(r) if c != colour]
    for colour_sub in combinations(others, d):
        for gens in product(*(rows[c] for c in colour_sub)):
            t = _cofactors([*gens, v_col])
            if t[-1] == 0:
                degenerate += 1
            elif all(x * t[-1] >= 0 for x in t):
                count += 1
    return ConeCount(count, degenerate)


def _random_weights(rng: Random, n: int, bound: int) -> list[Fraction]:
    w = [Fraction(rng.randint(1, bound)) for _ in range(n)]
    total = sum(w)
    return [x / total for x in w]


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

    consider(origin(d))
    for _ in range(samples):
        mixtures = []
        for cls in config.classes:
            w = _random_weights(rng, len(cls), bound)
            mixtures.append(
                Point(
                    sum(wi * q[r] for wi, q in zip(w, cls))
                    for r in range(d)
                )
            )
        cw = _random_weights(rng, len(mixtures), bound)
        consider(
            Point(
                sum(wi * m[r] for wi, m in zip(cw, mixtures))
                for r in range(d)
            )
        )
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
