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
to nearby rationals, and re-derive every claim in exact arithmetic.  Snapping
gets a tiny deterministic per-point twist (breaking the exact meridian-plane
and mirror coincidences of the symmetric ideal) plus an exact magnitude
stagger (breaking affine coplanarities for free).  If any exact check still
fails, the generator retries with more digits and a seeded jitter; running
out of retries is an error carrying the achieved count, never a silently
wrong configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .depth import (
    ColourfulConfiguration,
    colourful_depth,
    core_membership,
    zero_containing_count,
)
from .exact import InputError, Point, in_general_position, origin
from .sampling import DEFAULT_BOUND, SamplingError, random_core_class

__all__ = [
    "ConstructionError",
    "ConstructionSpec",
    "VerifiedConfiguration",
    "gen_identical",
    "gen_sminus",
    "gen_sprime",
    "gen_splus",
    "gen_regular_ngon",
    "gen_random_core_config",
    "generate",
]

BASE_DIGITS = 12
MAX_DIGITS = 15
MAX_RETRIES = 8

# Distinct per-coordinate twist weights; values only need to be generic.
_TWIST_WEIGHTS = (1.0, 0.6180339887, 0.4142135624, 0.3027756377, 0.2360679775)


class ConstructionError(RuntimeError):
    """A generator could not verify its claimed counts."""

    def __init__(self, message: str, achieved: int | None = None):
        super().__init__(message)
        self.achieved = achieved


class _VerifyFailure(Exception):
    def __init__(self, message: str, achieved: int | None = None):
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True)
class VerifiedConfiguration:
    """A configuration together with its exactly re-checked origin depth."""

    config: ColourfulConfiguration
    claimed_depth_at_origin: int
    verified: bool
    retries: int
    last_colour_counts: tuple[int, ...] = ()


@dataclass(frozen=True)
class ConstructionSpec:
    """Parameters for `generate`; epsilon defaults to 1/(100*dim)."""

    kind: str
    dim: int
    epsilon: Fraction | None = None
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("dimension must be at least 1")
        if self.epsilon is not None and self.epsilon <= 0:
            raise InputError("epsilon must be positive")


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


class _Snapper:
    """Snap float direction targets to rational points.

    Applies a deterministic per-point twist (scale eps^2/2000, far below every
    count margin but far above the snap resolution), an optional seeded jitter
    for retries, and an exact rational magnitude stagger.
    """

    def __init__(self, eps: float, digits: int, rng: Random | None, jitter: float):
        self.i = 0
        self.tw = eps * eps / 2000.0
        self.digits = digits
        self.rng = rng
        self.jitter = jitter

    def snap(self, x: float) -> Fraction:
        return Fraction(round(x * 10**self.digits), 10**self.digits)

    def make(self, hor: list[float], lat) -> Point:
        i = self.i
        self.i += 1
        hor = list(hor)
        for t in range(len(hor)):
            w = _TWIST_WEIGHTS[t % len(_TWIST_WEIGHTS)]
            hor[t] += self.tw * (i + 1) * w * (1 if (i + t) % 2 == 0 else -1)
            if self.jitter:
                hor[t] += self.rng.uniform(-self.jitter, self.jitter)
        coords = [self.snap(x) for x in hor]
        coords.append(lat if isinstance(lat, Fraction) else self.snap(lat))
        scale = 1 + Fraction(i + 1, 89)
        return Point(c * scale for c in coords)


def _band_classes(
    d: int, eps_f: Fraction, c: Fraction, polar_style: str, mk: _Snapper
) -> tuple[list[list[Point]], list[list[float]]]:
    """The first d colour classes shared by the band constructions.

    polar_style "perp" spreads each colour's polar points across the
    directions orthogonal to its low-ring meridian; "toward_high" tucks them
    along the geodesic from the pole toward the colour's high-ring point,
    which is what makes the polar cell deep.
    """
    eps = float(eps_f)
    us = _simplex_dirs(d - 1)
    r_low = math.sqrt(1 - float(c * eps_f) ** 2)
    r_high = math.sqrt(1 - eps**2)
    classes = []
    for j in range(d):
        u = us[j]
        cls = [
            mk.make([r_low * x for x in u], -c * eps_f),
            mk.make([-r_high * x for x in u], eps_f),
        ]
        if d == 2:
            sgn = 1.0 if polar_style == "perp" else -1.0
            polar = [[sgn * eps * x for x in u]]
        else:
            perp = _perp_basis(u)
            polar = []
            for m in range(d - 1):
                s = eps * (0.5 + 0.5 * (m + 1) / d) * (1 + (j + 1) / (10 * d))
                if polar_style == "perp":
                    w = _simplex_dirs(d - 2)[m] if d > 3 else ([1.0] if m == 0 else [-1.0])
                    vec = [
                        s * sum(w[k] * perp[k][t] for k in range(d - 2))
                        for t in range(d - 1)
                    ]
                else:
                    tau = eps / (20 * (m + 2)) * (1 if m % 2 == 0 else -1)
                    vec = [-s * x + tau * y for x, y in zip(u, perp[0])]
                polar.append(vec)
        for vec in polar:
            h = math.sqrt(1 - sum(x * x for x in vec))
            cls.append(mk.make(vec, h))
        classes.append(cls)
    return classes, us


# ------------------------------------------------------------------ verification


def _distinct_points(config: ColourfulConfiguration) -> list[Point]:
    out, seen = [], set()
    for p in config.points():
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def _verify(
    config: ColourfulConfiguration,
    expected_last: list[int],
    allow_degeneracy: bool = False,
) -> tuple[int, tuple[int, ...]]:
    d = config.dim
    zero = origin(d)
    claimed = sum(expected_last)
    rep = colourful_depth(config, zero, "open")
    if rep.count != claimed:
        raise _VerifyFailure(
            f"open depth at origin is {rep.count}, wanted {claimed}", rep.count
        )
    if not allow_degeneracy and (rep.degenerate or rep.boundary):
        raise _VerifyFailure(
            f"{rep.degenerate} degenerate / {rep.boundary} boundary tuples at origin",
            rep.count,
        )
    last = config.num_classes - 1
    counts = tuple(
        zero_containing_count(config, last, k, "open")
        for k in range(len(config.classes[last]))
    )
    if list(counts) != expected_last:
        raise _VerifyFailure(
            f"per-point counts {list(counts)} != expected {expected_last}", rep.count
        )
    if not core_membership(config, zero, strict=True):
        raise _VerifyFailure("origin is not strictly inside every colour hull", rep.count)
    if not in_general_position(_distinct_points(config) + [zero]):
        raise _VerifyFailure("points plus origin not in general position", rep.count)
    return claimed, counts


def _retry_build(build, seed: int, what: str) -> VerifiedConfiguration:
    """Run build(digits, rng, jitter) until its exact verification passes."""
    last_failure: _VerifyFailure | None = None
    for attempt in range(MAX_RETRIES + 1):
        digits = min(BASE_DIGITS + attempt, MAX_DIGITS)
        rng = Random(f"{what}:{seed}:{attempt}")
        jitter = 0.0 if attempt == 0 else 10.0 ** (-(digits - 3))
        try:
            config, expected, allow_deg = build(digits, rng, jitter)
            claimed, counts = _verify(config, expected, allow_deg)
            return VerifiedConfiguration(config, claimed, True, attempt, counts)
        except _VerifyFailure as f:
            last_failure = f
    raise ConstructionError(
        f"{what}: verification failed after {MAX_RETRIES} retries: {last_failure}",
        achieved=last_failure.achieved if last_failure else None,
    )


# ------------------------------------------------------------------- generators


def gen_identical(d: int) -> VerifiedConfiguration:
    """d+1 identical copies of a rational simplex with 0 strictly interior.

    Origin depth is (d+1)! in both modes: a pick of vertices contains the
    origin exactly when it uses all d+1 distinct vertices.
    """
    if d < 1:
        raise InputError("dimension must be at least 1")
    verts = []
    for i in range(d):
        e = [0] * d
        e[i] = 1
        verts.append(Point(e))
    verts.append(Point([-1] * d))
    cls = tuple(verts)
    config = ColourfulConfiguration(d, tuple(cls for _ in range(d + 1)))
    fact = math.factorial(d + 1)
    per_point = math.factorial(d)

    rep_open = colourful_depth(config, origin(d), "open")
    rep_closed = colourful_depth(config, origin(d), "closed")
    if rep_open.count != fact or rep_closed.count != fact:
        raise ConstructionError(
            f"identical-class depth {rep_open.count}/{rep_closed.count}, wanted {fact}",
            achieved=rep_open.count,
        )
    counts = tuple(
        zero_containing_count(config, d, k, "open") for k in range(d + 1)
    )
    if any(c != per_point for c in counts):
        raise ConstructionError(f"per-point counts {counts}, wanted {per_point} each")
    if not core_membership(config, origin(d), strict=True):
        raise ConstructionError("origin not strictly inside the shared simplex")
    if not in_general_position(_distinct_points(config) + [origin(d)]):
        raise ConstructionError("distinct vertices plus origin not in general position")
    return VerifiedConfiguration(config, fact, True, 0, counts)


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


def gen_sminus(
    d: int,
    epsilon=None,
    *,
    c: Fraction = Fraction(2),
    seed: int = 0,
) -> VerifiedConfiguration:
    """Configuration with 0 strictly in the core and origin depth d*d + 1.

    One point of the last colour accounts for 1 + d*(d-1) origin-containing
    simplices (its antipode sits in a deep cell just above the high ring);
    the remaining d points account for one each (their antipodes sit in the
    unique sparse cell below the low ring).  Guaranteed for d in {2, 3};
    larger d is attempted and verified, with failure reported as an error.
    """
    if d < 2:
        raise InputError("the minimum construction needs dimension at least 2")
    eps_f = _resolve_eps(d, epsilon)
    c = Fraction(c)
    if c <= 1:
        raise InputError("the low-ring factor c must exceed 1")
    eps = float(eps_f)
    expected = [1 + d * (d - 1)] + [1] * d

    def build(digits, rng, jitter):
        mk = _Snapper(eps, digits, rng, jitter)
        if d == 2 and c == 2:
            classes = _sminus_2d_classes(eps_f, mk)
            return ColourfulConfiguration(2, tuple(tuple(x) for x in classes)), expected, False
        classes, us = _band_classes(d, eps_f, c, "perp", mk)
        # Deep-cell antipode: just off the first low-ring meridian, above the
        # antipodes of the low ring.
        sigma = 1.0 / d**2
        wh = [(1 - sigma) * (-a) + sigma * b for a, b in zip(us[0], us[1])]
        n = math.sqrt(sum(x * x for x in wh))
        wh = [x / n for x in wh]
        ell = float((c + 2) * eps_f)
        minus_p1 = mk.make([math.sqrt(1 - ell**2) * x for x in wh], ell)
        last = [-minus_p1]
        # Sparse-cell antipodes: a ring just below the low ring, aligned with
        # the low-ring meridians where the sparse cell is widest.
        lat = float((c + 1) * eps_f)
        r = math.sqrt(1 - lat**2)
        for j in range(d):
            last.append(-mk.make([r * x for x in us[j]], -lat))
        classes.append(last)
        return ColourfulConfiguration(d, tuple(tuple(x) for x in classes)), expected, False

    return _retry_build(build, seed, f"sminus(d={d})")


def gen_sprime(
    d: int,
    epsilon=None,
    *,
    c: Fraction = Fraction(2),
    seed: int = 0,
) -> VerifiedConfiguration:
    """Alternative d*d + 1 configuration with the final antipode at the south pole.

    Each of the first d points of the last colour has its antipode moved out
    of the sparse cell through a single boundary facet, ending just above the
    equator, so each generates exactly d origin-containing simplices; the
    final point (the north pole) generates exactly one.
    """
    if d < 2:
        raise InputError("the alternative minimum construction needs dimension at least 2")
    eps_f = _resolve_eps(d, epsilon)
    c = Fraction(c)
    if c <= 1:
        raise InputError("the low-ring factor c must exceed 1")
    eps = float(eps_f)
    expected = [d] * d + [1]

    def build(digits, rng, jitter):
        mk = _Snapper(eps, digits, rng, jitter)
        classes, us = _band_classes(d, eps_f, c, "perp", mk)
        lam = eps / 2
        r = math.sqrt(1 - lam**2)
        last = [-mk.make([-r * x for x in us[j]], lam) for j in range(d)]
        last.append(Point([0] * (d - 1) + [1]))
        classes.append(last)
        return ColourfulConfiguration(d, tuple(tuple(x) for x in classes)), expected, False

    return _retry_build(build, seed, f"sprime(d={d})")


def gen_splus(
    d: int,
    epsilon=None,
    *,
    c: Fraction = Fraction(2),
    seed: int = 0,
) -> VerifiedConfiguration:
    """Configuration with 0 strictly in the core and origin depth d^(d+1) + 1.

    The polar points of every colour hug the geodesic toward that colour's
    high-ring point, which makes the cell at the north pole deep: it is
    covered by all d^d colourful cones picking from high ring and polar
    cluster.  Antipodes of d points of the last colour go in that cell (d^d
    simplices each); the final antipode sits at the south pole (one simplex).
    """
    if d < 1:
        raise InputError("dimension must be at least 1")
    if d == 1:
        config = ColourfulConfiguration.from_lists(
            1, [[(-1,), (2,)], [(-2,), (1,)]]
        )
        counts = tuple(zero_containing_count(config, 1, k, "open") for k in range(2))
        rep = colourful_depth(config, origin(1), "open")
        if rep.count != 2 or list(counts) != [1, 1]:
            raise ConstructionError("1-dimensional straddle failed verification")
        return VerifiedConfiguration(config, 2, True, 0, counts)
    eps_f = _resolve_eps(d, epsilon)
    c = Fraction(c)
    if c <= 1:
        raise InputError("the low-ring factor c must exceed 1")
    eps = float(eps_f)
    expected = [d**d] * d + [1]

    def build(digits, rng, jitter):
        mk = _Snapper(eps, digits, rng, jitter)
        classes, us = _band_classes(d, eps_f, c, "toward_high", mk)
        last = []
        rho0 = eps / 16
        for j in range(d):
            rho = rho0 * (1 + (j + 1) / (4 * d))
            vec = [rho * x for x in us[j]]
            h = math.sqrt(1 - sum(x * x for x in vec))
            last.append(-mk.make(vec, h))
        last.append(Point([0] * (d - 1) + [1]))
        classes.append(last)
        return ColourfulConfiguration(d, tuple(tuple(x) for x in classes)), expected, False

    return _retry_build(build, seed, f"splus(d={d})")


def gen_regular_ngon(
    n: int,
    *,
    digits: int = BASE_DIGITS,
    seed: int = 0,
) -> list[Point]:
    """Rational points approximating the directions of a regular n-gon (d=2).

    Each vertex is produced from a snapped tangent half-angle, so the points
    lie exactly on the unit circle; no three of them can be collinear, and the
    generator retries until no two are parallel through the origin either, so
    the points plus the origin are in general position.  Odd n only: with
    even n the centre sits on diagonals.
    """
    if n < 3:
        raise InputError("need at least 3 vertices")
    if n % 2 == 0:
        raise InputError(
            "even n is rejected: the centre lies on the long diagonals of a "
            "regular even-gon, violating general position"
        )
    for attempt in range(MAX_RETRIES + 1):
        rng = Random(f"ngon:{n}:{seed}:{attempt}")
        jitter = 0.0 if attempt == 0 else 10.0 ** (-(digits - 3))
        pts = []
        for k in range(n):
            theta = 2 * math.pi * k / n
            if theta > math.pi:
                theta -= 2 * math.pi
            t = math.tan(theta / 2) + (rng.uniform(-jitter, jitter) if jitter else 0.0)
            tf = Fraction(round(t * 10**digits), 10**digits)
            denom = 1 + tf * tf
            pts.append(Point(((1 - tf * tf) / denom, 2 * tf / denom)))
        ok = in_general_position(pts + [origin(2)])
        if ok and len(set(pts)) == n:
            return pts
    raise ConstructionError(f"could not place a {n}-gon in general position")


def gen_random_core_config(
    d: int,
    points_per_colour: int,
    seed: int,
    *,
    bound: int = DEFAULT_BOUND,
    max_tries: int = 50,
) -> VerifiedConfiguration:
    """Random configuration in general position with 0 strictly inside every
    colour hull; d+1 colours.  Deterministic given the seed."""
    if points_per_colour < d + 1:
        raise InputError(f"need at least {d + 1} points per colour")
    rng = Random(seed)
    for attempt in range(max_tries):
        try:
            classes = tuple(
                tuple(random_core_class(rng, points_per_colour, d, bound))
                for _ in range(d + 1)
            )
        except SamplingError as e:
            raise ConstructionError(f"core sampling budget exhausted: {e}") from e
        config = ColourfulConfiguration(d, classes)
        if not in_general_position(config.points() + [origin(d)]):
            continue
        rep = colourful_depth(config, origin(d), "open")
        counts = tuple(
            zero_containing_count(config, d, k, "open")
            for k in range(points_per_colour)
        )
        return VerifiedConfiguration(config, rep.count, True, attempt, counts)
    raise ConstructionError(
        f"no general-position core configuration after {max_tries} attempts"
    )


_KINDS = {
    "identical": lambda spec: gen_identical(spec.dim),
    "sminus": lambda spec: gen_sminus(spec.dim, spec.epsilon, seed=spec.seed),
    "sprime": lambda spec: gen_sprime(spec.dim, spec.epsilon, seed=spec.seed),
    "splus": lambda spec: gen_splus(spec.dim, spec.epsilon, seed=spec.seed),
}


def generate(spec: ConstructionSpec) -> VerifiedConfiguration:
    """Dispatch on spec.kind; `random_core` uses dim+1 points per colour."""
    if spec.kind in _KINDS:
        return _KINDS[spec.kind](spec)
    if spec.kind == "random_core":
        return gen_random_core_config(spec.dim, spec.dim + 1, spec.seed)
    raise InputError(f"unknown construction kind {spec.kind!r}")
