"""Monochrome and colourful simplicial depth counting.

The counts enumerate vertex tuples and decide containment of the query point
exactly.  Counting first translates the points so that the query point sits
at the origin (translation is exact in rationals and leaves every containment
decision unchanged).  Each translated point is then scaled to an integer
vector, since scaling by a positive rational never changes whether the origin
lies in a hull spanned with it, and every tuple is decided by the integer
kernel of `exact`: cofactor signs for a simplex, and the Caratheodory hull
search for degenerate tuples in closed mode.

Enumeration order is lexicographic over colour index then point index, so
witness lists and counts are reproducible byte for byte, and the enumeration
space can be partitioned across workers and summed without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from random import Random
from typing import Iterable, NamedTuple, Sequence

from .exact import (
    InputError,
    Mode,
    Point,
    _hull_contains,
    _int_row,
    _origin_status,
    cone_contains,
    DegenerateConeError,
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

    degenerate counts enumerated tuples whose vertices were affinely
    dependent; boundary counts non-degenerate tuples whose simplex had the
    query point exactly on its boundary.  Both being zero certifies that the
    open and closed counts agree for this query.
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
    point_cols,
    mode: Mode,
    want_witnesses: bool,
):
    """Shared counting core.  vertex_tuples yields (witness, keys) pairs;
    point_cols maps each key to the integer vector of its translated point."""
    count = degenerate = boundary = 0
    witnesses = [] if want_witnesses else None
    for witness, keys in vertex_tuples:
        cols = [point_cols[k] for k in keys]
        open_hit, closed_hit, degen = _origin_status(cols)
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
    cols = [_int_row((q - p).coords) for q in S]

    def tuples():
        for sub in combinations(range(len(S)), d + 1):
            yield sub, sub

    count, degenerate, boundary, wit = _count_tuples(
        tuples(), cols, mode, want_witnesses
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
    cols = {
        (ci, pi): _int_row(q.coords)
        for ci, cls in enumerate(shifted.classes)
        for pi, q in enumerate(cls)
    }

    def tuples():
        for colour_sub in combinations(range(r), d + 1):
            sizes = [range(len(config.classes[c])) for c in colour_sub]
            for picks in product(*sizes):
                keys = tuple(zip(colour_sub, picks))
                yield keys, keys

    count, degenerate, boundary, wit = _count_tuples(
        tuples(), cols, mode, want_witnesses
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
    cols = {
        (ci, pi): _int_row(q.coords)
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

    count, _, _, _ = _count_tuples(tuples(), cols, mode, False)
    return count


def antipodal_cone_count(
    config: ColourfulConfiguration, colour: int, v: Point
) -> ConeCount:
    """Number of colourful simplicial cones, one generator from each of d
    colours other than the given one, that contain the antipode -v.

    Linearly dependent generator tuples span no simplicial cone; they are
    skipped and reported in the degenerate counter.
    """
    _check_config_point(config, v)
    r = config.num_classes
    d = config.dim
    if not (0 <= colour < r):
        raise InputError(f"colour index {colour} out of range")
    if all(c == 0 for c in v.coords):
        raise InputError("v must be nonzero")
    target = -v
    count = degenerate = 0
    others = [c for c in range(r) if c != colour]
    for colour_sub in combinations(others, d):
        pools = [config.classes[c] for c in colour_sub]
        for gens in product(*pools):
            try:
                if cone_contains(gens, target):
                    count += 1
            except DegenerateConeError:
                degenerate += 1
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
