"""Generators for extremal colourful configurations, each self-verifying.

The band generators place points near the unit sphere in three latitude
bands: a low ring at latitude -c*eps holding one point per colour (horizontal
directions u_1..u_d forming a regular simplex), a high ring at +eps holding
the antipodal horizontals, and a cluster near the north pole.  The last
colour is then placed so that the antipodes of its points fall in cells of
prescribed coverage, which fixes how many origin-containing colourful
simplices each point generates.

Every count claimed here depends only on the direction of each point, never
its magnitude (scaling a point by a positive rational cannot change whether
the origin lies in a hull or cone spanned with it).  Construction therefore
proceeds in three steps: compute float targets for the directions, snap them
to nearby rationals, and re-derive every claim in exact arithmetic.  One
enumeration of the colourful simplices at the origin gives both the depth and
the count of every point of the last colour (`colour_decomposition`).  Snapping
gets a tiny deterministic per-point twist (breaking the exact meridian-plane
and mirror coincidences of the symmetric ideal) plus an exact magnitude
stagger (breaking affine coplanarities for free).  Each configuration is
built once and verified once: if any exact check fails, the generator raises
`ConstructionError` carrying the achieved count, never a silently wrong
configuration.

Every generator of a claimed depth, the identical-class one and the planar
straddle `gen_splus(1)` included, ends in the same exact check `_verify`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random
from typing import NamedTuple

from .depth import (
    ColourfulConfiguration,
    colour_decomposition,
    colourful_depth,
    core_membership,
)
from .exact import InputError, Point, _check_budget, _check_count, in_general_position, origin
from .sampling import DEFAULT_BOUND, SamplingError, random_core_class

__all__ = [
    "ConstructionError",
    "VerifiedConfiguration",
    "gen_identical",
    "gen_sminus",
    "gen_sprime",
    "gen_splus",
    "gen_regular_ngon",
    "gen_random_core_config",
]

BASE_DIGITS = 12
RANDOM_CORE_TRIES = 50

# The low ring sits at latitude -LOW_RING_FACTOR*eps, below the high ring at +eps.
LOW_RING_FACTOR = Fraction(2)

# Distinct per-coordinate twist weights; values only need to be generic.
_TWIST_WEIGHTS = (1.0, 0.6180339887, 0.4142135624, 0.3027756377, 0.2360679775)


class ConstructionError(RuntimeError):
    """A generator could not verify its claimed counts."""

    def __init__(self, message: str, achieved: int | None = None):
        super().__init__(message)
        self.achieved = achieved


class VerifiedConfiguration(NamedTuple):
    """A configuration together with its exactly re-checked origin depth.

    verified is always True: a generator whose check fails raises
    `ConstructionError` instead of returning.  retries is the number of
    general-position redraws that `gen_random_core_config` made before its
    configuration passed, and 0 for every other generator.
    last_colour_counts are the origin-containing counts of the points of the
    last colour, from the enumeration that gave the depth."""

    config: ColourfulConfiguration
    claimed_depth_at_origin: int
    verified: bool
    retries: int
    last_colour_counts: tuple[int, ...] = ()


# ----------------------------------------------------------- float scaffolding


def _simplex_dirs(m: int) -> list[list[float]]:
    """m+1 unit vectors in R^m forming a regular simplex (floats)."""
    if m == 1:
        return [[1.0], [-1.0]]
    sub = _simplex_dirs(m - 1)
    r = math.sqrt(1.0 - 1.0 / m**2)
    return [[1.0] + [0.0] * (m - 1)] + [[-1.0 / m] + [r * w for w in ws] for ws in sub]


def _perp_basis(u: list[float]) -> list[list[float]]:
    """Orthonormal basis of the complement of u (floats, Gram-Schmidt)."""
    m = len(u)
    basis = [list(u)]
    out: list[list[float]] = []
    for i in range(m):
        v = [0.0] * m
        v[i] = 1.0
        for b in basis:
            dot = sum(x * y for x, y in zip(v, b))
            nrm2 = sum(x * x for x in b)
            v = [x - dot * y / nrm2 for x, y in zip(v, b)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-9:
            v = [x / n for x in v]
            basis.append(v)
            out.append(v)
        if len(out) == m - 1:
            break
    return out


def _snap(x: float) -> Fraction:
    """The nearest rational with denominator 10**BASE_DIGITS."""
    return Fraction(round(x * 10**BASE_DIGITS), 10**BASE_DIGITS)


class _Snapper:
    """Snap float direction targets to rational points, once per build.

    Applies a deterministic per-point twist (scale eps^2/2000, far below every
    count margin but far above the snap resolution) and an exact rational
    magnitude stagger; the same targets always give the same points.
    """

    def __init__(self, eps: float):
        self.i = 0
        self.tw = eps * eps / 2000.0

    def make(self, hor: list[float], lat) -> Point:
        i = self.i
        self.i += 1
        hor = list(hor)
        for t in range(len(hor)):
            w = _TWIST_WEIGHTS[t % len(_TWIST_WEIGHTS)]
            hor[t] += self.tw * (i + 1) * w * (1 if (i + t) % 2 == 0 else -1)
        coords = [_snap(x) for x in hor]
        coords.append(lat if isinstance(lat, Fraction) else _snap(lat))
        scale = 1 + Fraction(i + 1, 89)
        return Point(c * scale for c in coords)


def _band_classes(
    d: int, eps_f: Fraction, polar_style: str, mk: _Snapper
) -> tuple[list[list[Point]], list[list[float]]]:
    """The first d colour classes shared by the band constructions.

    polar_style "perp" spreads each colour's polar points across the
    directions orthogonal to its low-ring meridian; "toward_high" tucks them
    along the geodesic from the pole toward the colour's high-ring point,
    which is what makes the polar cell deep, offset by a small multiple of
    the same spread so that the class spans every direction and its hull
    holds the origin.
    """
    eps = float(eps_f)
    us = _simplex_dirs(d - 1)
    r_low = math.sqrt(1 - float(LOW_RING_FACTOR * eps_f) ** 2)
    r_high = math.sqrt(1 - eps**2)
    classes = []
    for j in range(d):
        u = us[j]
        cls = [
            mk.make([r_low * x for x in u], -LOW_RING_FACTOR * eps_f),
            mk.make([-r_high * x for x in u], eps_f),
        ]
        if d == 2:
            sgn = 1.0 if polar_style == "perp" else -1.0
            polar = [[sgn * eps * x for x in u]]
        else:
            perp = _perp_basis(u)
            polar = []
            for m, w in enumerate(_simplex_dirs(d - 2)):
                s = eps * (0.5 + 0.5 * (m + 1) / d) * (1 + (j + 1) / (10 * d))
                spread = [sum(w[k] * perp[k][t] for k in range(d - 2)) for t in range(d - 1)]
                if polar_style == "perp":
                    vec = [s * y for y in spread]
                else:
                    tau = eps / (20 * (m + 2))
                    vec = [-s * x + tau * y for x, y in zip(u, spread)]
                polar.append(vec)
        for vec in polar:
            h = math.sqrt(1 - sum(x * x for x in vec))
            cls.append(mk.make(vec, h))
        classes.append(cls)
    return classes, us


# ------------------------------------------------------------------ verification


def _verify(
    config: ColourfulConfiguration,
    expected_last: list[int],
    allow_degeneracy: bool = False,
) -> VerifiedConfiguration:
    """Re-check a built configuration exactly: the open depth at the origin
    is sum(expected_last) with no degenerate or boundary tuple, the points of
    the last colour account for expected_last, the origin is strictly inside
    every colour hull, and the distinct points plus the origin are in general
    position.  The depth and the per-point counts come from one enumeration.
    """
    d = config.dim
    zero = origin(d)
    claimed = sum(expected_last)
    rep, by_colour = colour_decomposition(config, "open")
    if rep.count != claimed:
        raise ConstructionError(
            f"open depth at origin is {rep.count}, wanted {claimed}", rep.count
        )
    if not allow_degeneracy and (rep.degenerate or rep.boundary):
        raise ConstructionError(
            f"{rep.degenerate} degenerate / {rep.boundary} boundary tuples at origin",
            rep.count,
        )
    counts = by_colour[-1]
    if list(counts) != expected_last:
        raise ConstructionError(
            f"per-point counts {list(counts)} != expected {expected_last}", rep.count
        )
    if not core_membership(config, zero, strict=True):
        raise ConstructionError("origin is not strictly inside every colour hull", rep.count)
    if not in_general_position(list(dict.fromkeys(config.points())) + [zero]):
        raise ConstructionError("points plus origin not in general position", rep.count)
    return VerifiedConfiguration(config, claimed, True, 0, counts)


def _build(
    build, d: int, eps_f: Fraction, expected: list[int], what: str
) -> VerifiedConfiguration:
    """Run build(d, eps_f, snapper), which returns the colour classes, once,
    and check its configuration with `_verify` against the expected
    last-colour counts.  A failed check is raised again as what(d=...): ...,
    with the achieved depth.  An oversized colourful enumeration is refused
    before anything is built."""
    _check_budget([d + 1] * (d + 1), d + 1, "vertex tuples")
    classes = build(d, eps_f, _Snapper(float(eps_f)))
    config = ColourfulConfiguration(d, tuple(tuple(x) for x in classes))
    try:
        return _verify(config, expected)
    except ConstructionError as failure:
        raise ConstructionError(f"{what}(d={d}): {failure}", failure.achieved) from None


# ------------------------------------------------------------------- generators


def gen_identical(d: int) -> VerifiedConfiguration:
    """d+1 identical copies of a rational simplex with 0 strictly interior.

    Origin depth is (d+1)! in both modes: a pick of vertices contains the
    origin exactly when it uses all d+1 distinct vertices.
    """
    if d < 1:
        raise InputError("dimension must be at least 1")
    _check_budget([d + 1] * (d + 1), d + 1, "vertex tuples")
    verts = []
    for i in range(d):
        e = [0] * d
        e[i] = 1
        verts.append(Point(e))
    verts.append(Point([-1] * d))
    cls = tuple(verts)
    config = ColourfulConfiguration(d, tuple(cls for _ in range(d + 1)))
    # Repeated vertices make degenerate tuples; none holds the origin, so the
    # closed count must equal the open one.
    vc = _verify(config, [math.factorial(d)] * (d + 1), allow_degeneracy=True)
    closed = colourful_depth(config, origin(d), "closed").count
    if closed != vc.claimed_depth_at_origin:
        raise ConstructionError(
            f"identical-class closed depth {closed}, wanted {vc.claimed_depth_at_origin}",
            achieved=closed,
        )
    return vc


def _resolve_eps(d: int, epsilon) -> Fraction:
    eps = Fraction(1, 100 * d) if epsilon is None else Fraction(epsilon)
    if not 0 < eps <= Fraction(1, 50):
        raise InputError("epsilon must lie in (0, 1/50]")
    return eps


def _sminus_2d_classes(eps_f: Fraction, mk: _Snapper) -> list[list[Point]]:
    """The explicit planar minimum configuration, square roots snapped."""
    e = float(eps_f)

    def rt(k: float) -> float:
        return math.sqrt(1 - k * e * e)

    x1 = mk.make([-rt(4)], -2 * eps_f)
    x2 = mk.make([rt(1)], eps_f)
    x3 = mk.make([-e], rt(1))
    y1 = mk.make([rt(4)], -2 * eps_f)
    y2 = mk.make([-rt(1)], eps_f)
    y3 = mk.make([e], rt(1))
    z1 = mk.make([-rt(16)], -4 * eps_f)
    z2 = mk.make([-rt(9)], 3 * eps_f)
    z3 = mk.make([rt(9)], 3 * eps_f)
    return [[x1, x2, x3], [y1, y2, y3], [z1, z2, z3]]


def _sminus_classes(d: int, eps_f: Fraction, mk: _Snapper) -> list[list[Point]]:
    if d == 2:
        return _sminus_2d_classes(eps_f, mk)
    classes, us = _band_classes(d, eps_f, "perp", mk)
    # Deep-cell antipode: just off the first low-ring meridian, above the
    # antipodes of the low ring.
    sigma = 1.0 / d**2
    wh = [(1 - sigma) * (-a) + sigma * b for a, b in zip(us[0], us[1])]
    n = math.sqrt(sum(x * x for x in wh))
    wh = [x / n for x in wh]
    ell = float((LOW_RING_FACTOR + 2) * eps_f)
    minus_p1 = mk.make([math.sqrt(1 - ell**2) * x for x in wh], ell)
    last = [-minus_p1]
    # Sparse-cell antipodes: a ring just below the low ring, aligned with
    # the low-ring meridians where the sparse cell is widest.
    lat = float((LOW_RING_FACTOR + 1) * eps_f)
    r = math.sqrt(1 - lat**2)
    for j in range(d):
        last.append(-mk.make([r * x for x in us[j]], -lat))
    classes.append(last)
    return classes


def gen_sminus(d: int, epsilon=None, *, seed: int = 0) -> VerifiedConfiguration:
    """Configuration with 0 strictly in the core and origin depth d*d + 1.

    One point of the last colour accounts for 1 + d*(d-1) origin-containing
    simplices (its antipode sits in a deep cell just above the high ring);
    the remaining d points account for one each (their antipodes sit in the
    unique sparse cell below the low ring).  Guaranteed for d in {2, 3};
    larger d is built once and verified, with failure reported as an error.
    The keyword-only seed has no effect; it goes once the benchmark stops
    passing it.
    """
    if d < 2:
        raise InputError("the minimum construction needs dimension at least 2")
    eps_f = _resolve_eps(d, epsilon)
    expected = [1 + d * (d - 1)] + [1] * d
    return _build(_sminus_classes, d, eps_f, expected, "sminus")


def _sprime_classes(d: int, eps_f: Fraction, mk: _Snapper) -> list[list[Point]]:
    classes, us = _band_classes(d, eps_f, "perp", mk)
    lam = float(eps_f) / 2
    r = math.sqrt(1 - lam**2)
    last = [-mk.make([-r * x for x in us[j]], lam) for j in range(d)]
    last.append(Point([0] * (d - 1) + [1]))
    classes.append(last)
    return classes


def gen_sprime(d: int, epsilon=None, *, seed: int = 0) -> VerifiedConfiguration:
    """Alternative d*d + 1 configuration with the final antipode at the south pole.

    Each of the first d points of the last colour has its antipode moved out
    of the sparse cell through a single boundary facet, ending just above the
    equator, so each generates exactly d origin-containing simplices; the
    final point (the north pole) generates exactly one.  The keyword-only
    seed has no effect; it goes once the benchmark stops passing it.
    """
    if d < 2:
        raise InputError("the alternative minimum construction needs dimension at least 2")
    eps_f = _resolve_eps(d, epsilon)
    return _build(_sprime_classes, d, eps_f, [d] * d + [1], "sprime")


def _splus_classes(d: int, eps_f: Fraction, mk: _Snapper) -> list[list[Point]]:
    classes, us = _band_classes(d, eps_f, "toward_high", mk)
    last = []
    rho0 = float(eps_f) / 16
    for j in range(d):
        rho = rho0 * (1 + (j + 1) / (4 * d))
        vec = [rho * x for x in us[j]]
        h = math.sqrt(1 - sum(x * x for x in vec))
        last.append(-mk.make(vec, h))
    last.append(Point([0] * (d - 1) + [1]))
    classes.append(last)
    return classes


def gen_splus(d: int, epsilon=None, *, seed: int = 0) -> VerifiedConfiguration:
    """Configuration with 0 strictly in the core and origin depth d^(d+1) + 1.

    The polar points of every colour hug the geodesic toward that colour's
    high-ring point, which makes the cell at the north pole deep: it is
    covered by all d^d colourful cones picking from high ring and polar
    cluster.  Antipodes of d points of the last colour go in that cell (d^d
    simplices each); the final antipode sits at the south pole (one simplex).
    The keyword-only seed has no effect; it goes once the benchmark stops
    passing it.
    """
    if d < 1:
        raise InputError("dimension must be at least 1")
    if d == 1:
        straddle = ColourfulConfiguration.from_lists(1, [[(-1,), (2,)], [(-2,), (1,)]])
        return _verify(straddle, [1, 1])
    eps_f = _resolve_eps(d, epsilon)
    return _build(_splus_classes, d, eps_f, [d**d] * d + [1], "splus")


def gen_regular_ngon(n: int) -> list[Point]:
    """Rational points approximating the directions of a regular n-gon (d=2).

    Each vertex is produced from a snapped tangent half-angle, so the points
    lie exactly on the unit circle and no three of them can be collinear.
    The points are built once; if two coincide or two are parallel through
    the origin, so that the points plus the origin are not in general
    position, `ConstructionError` is raised.  Odd n only: with even n the
    centre sits on diagonals.  That general-position check reads every pair
    of the points and the origin, so more than `exact.MAX_TUPLES` pairs,
    C(n+1, 2), are refused before any point is built.
    """
    if n < 3:
        raise InputError("need at least 3 vertices")
    if n % 2 == 0:
        raise InputError(
            "even n is rejected: the centre lies on the long diagonals of a "
            "regular even-gon, violating general position"
        )
    _check_count(math.comb(n + 1, 2), "point pairs")
    pts = []
    for k in range(n):
        theta = 2 * math.pi * k / n
        if theta > math.pi:
            theta -= 2 * math.pi
        tf = _snap(math.tan(theta / 2))
        denom = 1 + tf * tf
        pts.append(Point(((1 - tf * tf) / denom, 2 * tf / denom)))
    if not in_general_position(pts + [origin(2)]):
        raise ConstructionError(f"could not place a {n}-gon in general position")
    return pts


def gen_random_core_config(d: int, points_per_colour: int, seed: int) -> VerifiedConfiguration:
    """Random configuration in general position with 0 strictly inside every
    colour hull; d+1 colours.  Deterministic given the seed."""
    if d < 1:
        raise InputError("dimension must be at least 1")
    if points_per_colour < d + 1:
        raise InputError(f"need at least {d + 1} points per colour")
    # Refuse an oversized colourful enumeration before sampling any class.
    _check_budget([points_per_colour] * (d + 1), d + 1, "vertex tuples")
    rng = Random(seed)
    for attempt in range(RANDOM_CORE_TRIES):
        try:
            classes = tuple(
                tuple(random_core_class(rng, points_per_colour, d, DEFAULT_BOUND))
                for _ in range(d + 1)
            )
        except SamplingError as e:
            raise ConstructionError(f"core sampling budget exhausted: {e}") from e
        config = ColourfulConfiguration(d, classes)
        if not in_general_position(config.points() + [origin(d)]):
            continue
        rep, by_colour = colour_decomposition(config, "open")
        return VerifiedConfiguration(config, rep.count, True, attempt, by_colour[d])
    raise ConstructionError(
        f"no general-position core configuration after {RANDOM_CORE_TRIES} attempts"
    )

