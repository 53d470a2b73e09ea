"""Seeded randomized audits: parity laws, depth bounds, and the mean-depth
heuristic.

Every audit derives the random state of trial t from seed + t, so a report is
independent of how trials are scheduled or partitioned across workers, and
identical inputs produce identical reports byte for byte.  Extremal
configurations from `constructions` are planted into the bound audits so that
tightness is witnessed, not just bounded.

Parity violations are never expected: the parity statements are theorems for
valid trials, so a nonzero violation count signals an implementation bug.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from random import Random
from typing import NamedTuple

from .constructions import (
    ConstructionError,
    gen_random_core_config,
    gen_sminus,
    gen_splus,
)
from .depth import (
    ColourfulConfiguration,
    CoreSampleError,
    colourful_depth,
    core_depth_samples,
    core_membership,
    min_core_depth_estimate,
    monochrome_depth,
)
from .exact import InputError, in_convex_hull, in_general_position, origin
from .sampling import DEFAULT_BOUND, random_point, random_points

__all__ = [
    "AuditReport",
    "TrialRecord",
    "AuditViolation",
    "parity_audit",
    "mu_audit",
    "nu_audit",
    "depth_stats",
    "known_min_core_depth",
    "write_csv",
]

CSV_HEADER = ["trial", "seed", "depth", "core_flag", "gp_flag"]

PLANTED_TRIAL = -1  # trial index marking a planted extremal configuration

# Proven maxima over interior core points, d+1 points in each of d+1 colours.
_KNOWN_MAX = {1: 2, 2: 9}

MAX_TRIAL_ATTEMPTS = 500


class AuditViolation(AssertionError):
    """An audit observed something a theorem forbids."""


class TrialRecord(NamedTuple):
    trial: int
    seed: int
    depth: int
    core_flag: bool
    gp_flag: bool


class AuditReport(NamedTuple):
    kind: str
    dim: int
    trials: int
    seed: int
    violations: int
    min_observed: int
    max_observed: int
    reference_bounds: tuple[int, int]
    extra: dict  # audit-specific summary fields
    records: tuple[TrialRecord, ...] | None = None
    generation_failures: int = 0

    def summary(self) -> dict:
        out = {
            "kind": self.kind,
            "dim": self.dim,
            "trials": self.trials,
            "seed": self.seed,
            "violations": self.violations,
            "min_observed": self.min_observed,
            "max_observed": self.max_observed,
            "reference_bounds": list(self.reference_bounds),
            "generation_failures": self.generation_failures,
        }
        out.update(self.extra)
        return out

    def summary_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True)


def write_csv(report: AuditReport, path) -> None:
    if report.records is None:
        raise InputError("report was built without per-trial records")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for rec in report.records:
            w.writerow([rec.trial, rec.seed, rec.depth, int(rec.core_flag), int(rec.gp_flag)])


def known_min_core_depth(d: int) -> int:
    """The minimum colourful depth of a core point at dimension d: d^2 + 1.

    The paper conjectures this value and attains it with S-; Sarrabezolles
    proved it for every d ("The colourful simplicial depth conjecture",
    J. Combin. Theory Ser. A 130, 2015).
    """
    return d * d + 1


# ---------------------------------------------------------------------- parity


def _draw_monochrome(rng: Random, d: int, n: int, bound: int):
    for _ in range(MAX_TRIAL_ATTEMPTS):
        S = random_points(rng, n, d, bound)
        p = random_point(rng, d, bound)
        if in_general_position(S + [p]):
            return S, p
    raise AuditViolation("could not draw a general-position monochrome trial")


def _draw_colourful(rng: Random, d: int, sizes, bound: int):
    for _ in range(MAX_TRIAL_ATTEMPTS):
        classes = tuple(tuple(random_points(rng, s, d, bound)) for s in sizes)
        config = ColourfulConfiguration(d, classes)
        p = random_point(rng, d, bound)
        rep = colourful_depth(config, p, "open")
        # Valid trial: no degenerate colourful tuple and p on no tuple
        # boundary; the counted depth is then locally constant, so the parity
        # statements apply.
        if rep.degenerate == 0 and rep.boundary == 0:
            return config, p, rep
    raise AuditViolation("could not draw a clean colourful trial")


def parity_audit(
    kind: str,
    d: int,
    trials: int,
    seed: int,
    *,
    n: int | None = None,
    sizes: tuple[int, ...] | None = None,
    bound: int = DEFAULT_BOUND,
    keep_records: bool = True,
) -> AuditReport:
    """Count parity violations over random general-position instances.

    kinds: "monochrome" (depth of p is even when n - d is even),
    "colourful_odd_d" (d odd, d+1 points in each of d+1 colours),
    "colourful_even_sizes" (all class sizes even).
    """
    if trials < 1:
        raise InputError("trials must be at least 1")
    if kind == "monochrome":
        n = n if n is not None else d + 4
        if (n - d) % 2 != 0:
            raise InputError(f"monochrome parity needs n-d even, got n={n}, d={d}")
        if n < d + 1:
            raise InputError("n too small")
    elif kind == "colourful_odd_d":
        if d % 2 == 0:
            raise InputError("colourful_odd_d requires odd dimension")
        sizes = (d + 1,) * (d + 1)
    elif kind == "colourful_even_sizes":
        sizes = sizes if sizes is not None else (2,) * (d + 1)
        if len(sizes) < d + 1:
            raise InputError(f"need at least {d + 1} colour classes")
        if any(s % 2 for s in sizes):
            raise InputError("every class size must be even")
    else:
        raise InputError(f"unknown parity audit kind {kind!r}")

    violations = 0
    records = [] if keep_records else None
    lo = hi = None
    for t in range(trials):
        rng = Random(seed + t)
        if kind == "monochrome":
            S, p = _draw_monochrome(rng, d, n, bound)
            rep = monochrome_depth(S, p, "open")
        else:
            config, p, rep = _draw_colourful(rng, d, sizes, bound)
        if rep.count % 2 != 0:
            violations += 1
        lo = rep.count if lo is None else min(lo, rep.count)
        hi = rep.count if hi is None else max(hi, rep.count)
        if keep_records:
            if kind == "monochrome":
                core = in_convex_hull(p, S, strict=True)
            else:
                core = core_membership(config, p, strict=True)
            records.append(TrialRecord(t, seed + t, rep.count, core, True))
    return AuditReport(
        kind=f"parity:{kind}",
        dim=d,
        trials=trials,
        seed=seed,
        violations=violations,
        min_observed=lo,
        max_observed=hi,
        reference_bounds=(0, 0),
        records=tuple(records) if records is not None else None,
        extra={"n": n, "sizes": list(sizes) if sizes else None},
    )


# ---------------------------------------------------------------------- bounds


def _planted_minimum(d: int, seed: int):
    if d == 1:
        return gen_splus(1)
    return gen_sminus(d, seed=seed)


def mu_audit(
    d: int,
    trials: int,
    core_samples: int,
    seed: int,
    *,
    keep_records: bool = True,
) -> AuditReport:
    """Minimum sampled core depth over random core configurations, with a
    planted extremal configuration witnessing the proven minimum."""
    if trials < 0:
        raise InputError("trials must be non-negative")
    lower = known_min_core_depth(d)
    upper = d * d + 1
    records = [] if keep_records else None
    estimates = []
    failures = 0

    def run_one(trial: int, config, est_seed: int):
        nonlocal failures
        try:
            est, _ = min_core_depth_estimate(config, core_samples, est_seed)
        except CoreSampleError:
            failures += 1
            return
        estimates.append(est)
        if keep_records:
            records.append(TrialRecord(trial, est_seed, est, True, True))

    try:
        planted = _planted_minimum(d, seed)
        run_one(PLANTED_TRIAL, planted.config, seed)
    except ConstructionError:
        failures += 1  # best-effort dimensions may fail to construct
    for t in range(trials):
        try:
            vc = gen_random_core_config(d, d + 1, seed + t)
        except ConstructionError:
            failures += 1
            continue
        run_one(t, vc.config, seed + t)

    if not estimates:
        raise AuditViolation("no usable trials in minimum-depth audit")
    violations = sum(1 for e in estimates if e < lower)
    return AuditReport(
        kind="mu",
        dim=d,
        trials=trials,
        seed=seed,
        violations=violations,
        min_observed=min(estimates),
        max_observed=max(estimates),
        reference_bounds=(lower, upper),
        records=tuple(records) if records is not None else None,
        generation_failures=failures,
        extra={"core_samples": core_samples},
    )


def nu_audit(
    d: int,
    trials: int,
    seed: int,
    *,
    samples: int = 4,
    keep_records: bool = True,
) -> AuditReport:
    """Maximum depth over sampled strict-interior core points, with a planted
    deep configuration attaining d^(d+1) + 1."""
    if trials < 0:
        raise InputError("trials must be non-negative")
    target = d ** (d + 1) + 1
    proven = _KNOWN_MAX.get(d)
    records = [] if keep_records else None
    observed = []
    failures = 0

    def run_one(trial: int, config, s: int):
        nonlocal failures
        found = core_depth_samples(config, samples, s)
        if not found:
            failures += 1
            return
        depth = max(e for e, _ in found)
        observed.append(depth)
        if keep_records:
            records.append(TrialRecord(trial, s, depth, True, True))

    try:
        run_one(PLANTED_TRIAL, gen_splus(d, seed=seed).config, seed)
    except ConstructionError:
        failures += 1
    for t in range(trials):
        try:
            vc = gen_random_core_config(d, d + 1, seed + t)
        except ConstructionError:
            failures += 1
            continue
        run_one(t, vc.config, seed + t)

    if not observed:
        raise AuditViolation("no usable trials in maximum-depth audit")
    violations = 0
    if proven is not None:
        violations = sum(1 for v in observed if v > proven)
    return AuditReport(
        kind="nu",
        dim=d,
        trials=trials,
        seed=seed,
        violations=violations,
        min_observed=min(observed),
        max_observed=max(observed),
        reference_bounds=(target, target),
        records=tuple(records) if records is not None else None,
        generation_failures=failures,
        extra={"samples": samples, "proven_max": proven},
    )


# ------------------------------------------------------------------ statistics


def depth_stats(
    d: int,
    trials: int,
    seed: int,
    *,
    bound: int = DEFAULT_BOUND,
    keep_records: bool = False,
) -> AuditReport:
    """Mean origin depth of random sign-symmetric configurations of d+1
    points in each of d+1 colours, reported against (d+1)^(d+1) / 2^d.

    The coordinate sampler is uniform on bounded rationals, hence symmetric
    about 0; the heuristic value assumes exactly such symmetric draws.
    """
    if trials < 1:
        raise InputError("trials must be at least 1")
    total = Fraction(0)
    clean = 0
    records = [] if keep_records else None
    lo = hi = None
    zero = origin(d)
    for t in range(trials):
        rng = Random(seed + t)
        classes = tuple(
            tuple(random_points(rng, d + 1, d, bound)) for _ in range(d + 1)
        )
        config = ColourfulConfiguration(d, classes)
        rep = colourful_depth(config, zero, "open")
        gp = rep.degenerate == 0 and rep.boundary == 0
        clean += gp
        total += rep.count
        lo = rep.count if lo is None else min(lo, rep.count)
        hi = rep.count if hi is None else max(hi, rep.count)
        if keep_records:
            core = core_membership(config, zero, strict=True)
            records.append(TrialRecord(t, seed + t, rep.count, core, gp))
    mean = total / trials
    heuristic = Fraction((d + 1) ** (d + 1), 2**d)
    return AuditReport(
        kind="stats",
        dim=d,
        trials=trials,
        seed=seed,
        violations=0,
        min_observed=lo,
        max_observed=hi,
        reference_bounds=(0, (d + 1) ** (d + 1)),
        records=tuple(records) if records is not None else None,
        extra={
            "mean": float(mean),
            "mean_exact": f"{mean.numerator}/{mean.denominator}",
            "heuristic_mean": float(heuristic),
            "clean_trials": clean,
        },
    )
