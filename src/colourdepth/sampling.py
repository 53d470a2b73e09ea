"""Seeded random rational points and core-class rejection sampling.

Directions are drawn as rational vectors with bounded numerators and
denominators (default magnitude bound 10^4), never as rounded reals, so every
downstream computation stays exact.  Numerators are drawn symmetrically about
zero, which makes the per-point distribution centrally symmetric.

Every integer drawn here, and every weight of `depth.core_depth_samples`,
comes from the draw helper `_randints`.  It returns one integer per (lo, hi)
span, in order, equal to successive `Random.randint(lo, hi)` calls on the
same generator: it draws `getrandbits(width.bit_length())` and draws again
while the result is at least the width, as CPython's `randint` does through
`_randbelow`, without the three calls and the type checks around it.  So a
seed gives the same stream, the same points and the same accepted classes.

A point is drawn as integer (numerator, denominator) pairs, one per
coordinate, and drawn again while every numerator is zero; it is the row
`exact._scaled_pairs` makes of them, with no parsing.  Most candidate
classes of the core sampler are rejected, so it builds rows and points
only for the class it accepts.  Whether a class surrounds the origin is
a question no positive scaling of a point changes.  So every class, of any
size, is tested by one `exact._hull_contains` call on its draws' numerators
times the product of their own denominators, with no lcm, gcd or row: the
minors of an open simplex for d+1 points, the hull test for more.
"""

from __future__ import annotations

from math import prod
from random import Random

from .exact import InputError, Point, _hull_contains, _scaled_pairs

__all__ = [
    "SamplingError",
    "random_point",
    "random_points",
    "random_core_class",
]

DEFAULT_BOUND = 10_000


class SamplingError(RuntimeError):
    """A rejection-sampling budget was exhausted."""


def _randints(rng: Random, spans) -> list[int]:
    """One integer per (lo, hi) span, lo <= hi, in order: the values and
    the generator state of successive `rng.randint(lo, hi)` calls on a
    `random.Random`.  A span of one value still draws its bits; an empty
    span, hi < lo, is a `ValueError`, as it is for `randint`."""
    bits = rng.getrandbits
    out = []
    for lo, hi in spans:
        width = hi - lo + 1
        if width < 1:
            raise ValueError(f"empty range ({lo}, {hi})")
        k = width.bit_length()
        r = bits(k)
        while r >= width:
            r = bits(k)
        out.append(lo + r)
    return out


def _draw(rng: Random, dim: int, bound: int) -> list[tuple[int, int]]:
    """The coordinates of one nonzero random point as (numerator,
    denominator) pairs; each coordinate draws its numerator, then its
    denominator.  A dimension below 1 has no nonzero point and a bound
    below 1 no denominator, so either is refused before any draw."""
    if dim < 1:
        raise InputError("dimension must be at least 1")
    if bound < 1:
        raise InputError("bound must be at least 1")
    spans = [(-bound, bound), (1, bound)] * dim
    while True:
        drawn = _randints(rng, spans)
        if any(drawn[::2]):
            return list(zip(drawn[::2], drawn[1::2]))


def _cleared(pairs: list[tuple[int, int]]) -> list[int]:
    """The point of the (numerator, denominator) pairs times the product of
    its denominators: a positive multiple, in integers."""
    den = prod([q for _, q in pairs])
    return [n * (den // q) for n, q in pairs]


def random_point(rng: Random, dim: int, bound: int = DEFAULT_BOUND) -> Point:
    return Point._from_row(_scaled_pairs(_draw(rng, dim, bound)))


def random_points(rng: Random, n: int, dim: int, bound: int = DEFAULT_BOUND) -> list[Point]:
    return [random_point(rng, dim, bound) for _ in range(n)]


def random_core_class(
    rng: Random,
    size: int,
    dim: int,
    bound: int = DEFAULT_BOUND,
    max_tries: int = 2000,
) -> list[Point]:
    """Draw `size` random points whose convex hull strictly contains 0."""
    if size < dim + 1:
        raise InputError(f"need at least {dim + 1} points to surround the origin")
    for _ in range(max_tries):
        draws = [_draw(rng, dim, bound) for _ in range(size)]
        if _hull_contains([_cleared(pairs) for pairs in draws], strict=True):
            return [Point._from_row(_scaled_pairs(pairs)) for pairs in draws]
    raise SamplingError(
        f"no {size}-point class with 0 strictly inside after {max_tries} draws"
    )
