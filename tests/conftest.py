"""Shared test helpers: an independent hull-feasibility oracle and friends."""

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import lcm
from random import Random

from colourdepth.exact import Point, in_convex_hull


def rand_point(rng: Random, dim: int, bound: int = 100) -> Point:
    return Point(
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        for _ in range(dim)
    )


def feasible_by_basis_enumeration(p: Point, S) -> bool:
    """Exhaustive basic-solution search for sum(l_i v_i) = p, sum(l_i) = 1,
    l >= 0, by Gaussian elimination over homogeneous columns.

    Deliberately independent of colourdepth internals: this is the oracle the
    library's closed hull test is checked against.
    """
    d = p.dim
    pc = p.coords
    for k in range(1, d + 2):
        for sub in combinations([v.coords for v in S], k):
            rows = [[v[r] for v in sub] + [pc[r]] for r in range(d)]
            rows.append([Fraction(1)] * k + [Fraction(1)])
            mat = [row[:] for row in rows]
            piv_cols = []
            r = 0
            for c in range(k):
                sel = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
                if sel is None:
                    break
                mat[r], mat[sel] = mat[sel], mat[r]
                for i in range(len(mat)):
                    if i != r and mat[i][c] != 0:
                        f = mat[i][c] / mat[r][c]
                        mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
                piv_cols.append((r, c))
                r += 1
            if len(piv_cols) < k:
                continue
            if any(mat[i][-1] != 0 for i in range(r, len(mat))):
                continue
            lams = [mat[i][-1] / mat[i][c] for i, c in piv_cols]
            if all(l >= 0 for l in lams):
                return True
    return False


# ------------------------------------------------------------ kernel oracles
#
# The parent definitions of the predicates that the library now decides with
# closed-form minors and reused facet normals, spelled out on the Leibniz
# formula so that they share no code with `colourdepth.exact`.


@lru_cache(maxsize=None)
def _signed_permutations(n: int) -> tuple:
    out = []
    for perm in permutations(range(n)):
        inversions = sum(1 for i, j in combinations(range(n), 2) if perm[i] > perm[j])
        out.append((-1 if inversions % 2 else 1, perm))
    return tuple(out)


def det_by_permutations(m) -> int:
    """Leibniz determinant: the signed sum over all permutations."""
    total = 0
    for sign, perm in _signed_permutations(len(m)):
        term = sign
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def homogeneous(p: Point) -> list[int]:
    """(p, 1) times the lcm of the denominators of p: a positive row scaling,
    which changes no determinant sign and no rank."""
    coords = p.coords
    s = lcm(*(c.denominator for c in coords))
    return [int(c * s) for c in coords] + [s]


def barycentric_by_elimination(p: Point, vertices):
    """Solve sum(l_i * v_i) = p, sum(l_i) = 1 for the d+1 vertices by
    Gauss-Jordan elimination over Fractions; None when the system is
    singular (the vertices are affinely dependent)."""
    d = p.dim
    cols = [v.coords for v in vertices] + [p.coords]
    mat = [[c[r] for c in cols] for r in range(d)]
    mat.append([Fraction(1)] * (d + 2))
    for c in range(d + 1):
        sel = next((i for i in range(c, d + 1) if mat[i][c] != 0), None)
        if sel is None:
            return None
        mat[c], mat[sel] = mat[sel], mat[c]
        mat[c] = [x / mat[c][c] for x in mat[c]]
        for i in range(d + 1):
            if i != c and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return [row[-1] for row in mat]


def rank_by_elimination(rows) -> int:
    mat = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        sel = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][c] / mat[rank][c]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def general_position_by_subsets(S) -> bool:
    """Every (d+1)-subset has a nonzero homogeneous determinant."""
    d = S[0].dim
    return all(det_by_permutations([homogeneous(q) for q in sub]) != 0
               for sub in combinations(S, d + 1))


def general_position_with_by_subsets(S, p) -> bool:
    """No d-subset of full rank has a zero determinant together with p."""
    d = p.dim
    for sub in combinations(S, d):
        rows = [homogeneous(q) for q in sub]
        if rank_by_elimination(rows) == d and det_by_permutations(rows + [homogeneous(p)]) == 0:
            return False
    return True


def strictly_inside_by_facets(p, S) -> bool:
    """conv(S) is full-dimensional, and p lies strictly on the side of S of
    every hyperplane through d points of S that has no point of S on its
    other side."""
    d = p.dim
    points = [homogeneous(q) for q in S]
    if rank_by_elimination(points) <= d:
        return False
    query = homogeneous(p)
    for facet in combinations(points, d):
        rows = list(facet)
        dets = [det_by_permutations(rows + [q]) for q in points]
        pos, neg = any(x > 0 for x in dets), any(x < 0 for x in dets)
        if pos == neg:
            continue
        det_p = det_by_permutations(rows + [query])
        if not (det_p > 0 if pos else det_p < 0):
            return False
    return True


def degenerate_lattice_case(rng: Random, d: int, n_max: int):
    """d+1 to n_max small-integer points in d dimensions that often repeat a
    point, put d+1 points on one hyperplane or three on one line, and a query
    point that is often a point of the set, a midpoint, on a hyperplane
    spanned by d of the points, or their centroid (interior to a
    full-dimensional hull)."""
    n = rng.randint(d + 1, n_max)
    lat = lambda: Point(rng.randint(-2, 2) for _ in range(d))  # noqa: E731
    shape = rng.randrange(4)
    if shape == 0:  # generic lattice points, duplicates likely in low d
        S = [lat() for _ in range(n)]
    elif shape == 1:  # repeated points
        S = [lat() for _ in range(max(n - 2, 1))]
        S += rng.choices(S, k=2)
    elif shape == 2:  # all but one on the hyperplane x_d = 0
        S = [Point(lat().coords[:-1] + (0,)) for _ in range(n - 1)] + [lat()]
    else:  # three on one line
        a, b = lat(), lat()
        S = [a, a + b, a + b + b] + [lat() for _ in range(n - 3)]
    rng.shuffle(S)
    pick = rng.randrange(5)
    if pick == 0:
        p = Point(Fraction(rng.randint(-4, 4), 2) for _ in range(d))
    elif pick == 1:
        p = rng.choice(S)
    elif pick == 4:
        p = Point(sum(col) / len(S) for col in zip(*[q.coords for q in S]))
    elif pick == 2:  # midpoint of two points of S
        a, b = rng.choice(S), rng.choice(S)
        p = Point((x + y) / 2 for x, y in zip(a.coords, b.coords))
    else:  # an affine combination of d points of S
        sub = rng.sample(S, d)
        w = [Fraction(rng.randint(-2, 3), 2) for _ in range(d - 1)]
        w.append(1 - sum(w))
        p = Point(sum(wi * c for wi, c in zip(w, col)) for col in zip(*[q.coords for q in sub]))
    return S, p


# ------------------------------------------------------ core sample oracle


def _fraction_weights(rng: Random, n: int, bound: int) -> list[Fraction]:
    w = [Fraction(rng.randint(1, bound)) for _ in range(n)]
    total = sum(w)
    return [x / total for x in w]


def core_candidates_by_fractions(config, samples: int, seed: int, bound: int = 10_000):
    """The candidate points of `depth.core_depth_samples`, in order, by the
    Fraction mixture formula: the origin, then for each sample a convex
    combination, with normalised random weights, of one convex mixture per
    colour class.  The weights are drawn class by class, point by point,
    then one per class."""
    rng = Random(seed)
    d = config.dim
    out = [Point([0] * d)]
    for _ in range(samples):
        mixtures = []
        for cls in config.classes:
            w = _fraction_weights(rng, len(cls), bound)
            coords = [q.coords for q in cls]
            mixtures.append([sum(wi * c[r] for wi, c in zip(w, coords)) for r in range(d)])
        cw = _fraction_weights(rng, len(mixtures), bound)
        out.append(Point(sum(wi * m[r] for wi, m in zip(cw, mixtures)) for r in range(d)))
    return out


# ------------------------------------------------------ core class oracle


def core_class_by_rejection(rng: Random, size: int, dim: int, bound: int, max_tries: int):
    """The core sampler as a loop over Fraction points: draw `size` points,
    each coordinate a numerator then a denominator and each point drawn again
    while it is the zero vector, and accept the first class whose hull
    `in_convex_hull` says strictly contains the origin.  None when
    `max_tries` classes are all rejected."""
    zero = Point([0] * dim)
    for _ in range(max_tries):
        pts = []
        while len(pts) < size:
            q = Point(Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                      for _ in range(dim))
            if any(q.coords):
                pts.append(q)
        if in_convex_hull(zero, pts, strict=True):
            return pts
    return None


# ------------------------------------------------------------- parser oracle


def parse_by_fraction_strings(v):
    """A coordinate parsed with every string going through `Fraction(str)`,
    the reference that the library's integer path for ints and "num/den"
    strings must agree with.  Returns ("ok", the Fraction) or ("error", the
    `InputError` message)."""
    if isinstance(v, Fraction):
        return "ok", v
    if isinstance(v, bool):
        return "error", f"not a rational: {v!r}"
    if isinstance(v, int):
        return "ok", Fraction(v)
    if isinstance(v, str):
        text = v.strip()
        try:
            exponent = re.search(r"[eE]([-+]?\d+)$", text)
            if exponent and abs(int(exponent.group(1))) > 4300:
                raise ValueError("exponent beyond 4300")
            return "ok", Fraction(text)
        except (ValueError, ZeroDivisionError) as e:
            return "error", f"malformed rational {v!r}: {e}"
    return "error", f"coordinates must be integers or 'num/den' strings, got {v!r}"
