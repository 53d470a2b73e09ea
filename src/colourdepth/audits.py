"""Seeded randomized audits: parity laws, depth bounds, and the mean-depth
heuristic.

Every audit derives the random state of trial t from seed + t, so a report is
independent of how trials are scheduled or partitioned across workers, and
identical inputs produce identical reports byte for byte.  The parity audits
and `depth_stats` share one trial loop, `_seeded_records`, and every audit
reports through one builder, `_report`.  Extremal configurations from
`constructions` are planted into the bound audits so that tightness is
witnessed, not just bounded.

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
from .exact import InputError, in_general_position, origin
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
    "known_max_core_depth",
    "write_csv",
]

CSV_HEADER = ["trial", "seed", "depth", "core_flag", "gp_flag"]

PLANTED_TRIAL = -1  # trial index marking a planted extremal configuration

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
        out = self._asdict()
        del out["records"]
        out.update(out.pop("extra"), reference_bounds=list(self.reference_bounds))
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


def _check_trials(d: int, trials: int) -> None:
    if d < 1:
        raise InputError("dimension must be at least 1")
    if trials < 1:
        raise InputError("trials must be at least 1")


def _seeded_records(trials: int, seed: int, keep_records: bool, trial) -> list[TrialRecord]:
    """Record trial t of range(trials) from trial(Random(seed + t)), which
    gives the trial's depth report and a call for its strict core flag.  The
    flag is asked for only when records are kept; otherwise it is False."""
    records = []
    for t in range(trials):
        rep, core = trial(Random(seed + t))
        gp = rep.degenerate == 0 and rep.boundary == 0
        records.append(TrialRecord(t, seed + t, rep.count, keep_records and core(), gp))
    return records


def _report(kind: str, d: int, trials: int, seed: int, records, keep_records=True, **fields):
    """The AuditReport of a run, with the extremes of its recorded depths."""
    depths = [r.depth for r in records]
    records = tuple(records) if keep_records else None
    return AuditReport(kind, d, trials, seed, min_observed=min(depths),
                       max_observed=max(depths), records=records, **fields)


def known_min_core_depth(d: int) -> int:
    """The minimum colourful depth of a core point at dimension d: d^2 + 1.

    The paper conjectures this value and attains it with S-; Sarrabezolles
    proved it for every d ("The colourful simplicial depth conjecture",
    J. Combin. Theory Ser. A 130, 2015).
    """
    return d * d + 1


def known_max_core_depth(d: int) -> int:
    """The maximum colourful depth of a core point at dimension d, for d+1
    points in each of d+1 colours: d^(d+1) + 1.

    The paper conjectures this value and attains it with S+; Adiprasito,
    Brinkmann, Padrol, Patak, Patakova and Sanyal proved it for every d
    ("Colorful simplicial depth, Minkowski sums, and generalized Gale
    transforms", Int. Math. Res. Not. IMRN 2020).
    """
    return d ** (d + 1) + 1


# ---------------------------------------------------------------------- parity


def _monochrome_trial(rng: Random, d: int, n: int):
    for _ in range(MAX_TRIAL_ATTEMPTS):
        S = random_points(rng, n, d, DEFAULT_BOUND)
        p = random_point(rng, d, DEFAULT_BOUND)
        if in_general_position(S + [p]):
            # In general position p is interior to conv(S) exactly when it
            # lies in an open simplex of S: when its open depth is positive.
            rep = monochrome_depth(S, p, "open")
            return rep, lambda: rep.count > 0
    raise AuditViolation("could not draw a general-position monochrome trial")


def _colourful_trial(rng: Random, d: int, sizes):
    for _ in range(MAX_TRIAL_ATTEMPTS):
        classes = tuple(tuple(random_points(rng, s, d, DEFAULT_BOUND)) for s in sizes)
        config = ColourfulConfiguration(d, classes)
        p = random_point(rng, d, DEFAULT_BOUND)
        rep = colourful_depth(config, p, "open")
        # Valid trial: no degenerate colourful tuple and p on no tuple
        # boundary; the counted depth is then locally constant, so the parity
        # statements apply.
        if rep.degenerate == 0 and rep.boundary == 0:
            return rep, lambda: core_membership(config, p, strict=True)
    raise AuditViolation("could not draw a clean colourful trial")


def parity_audit(
    kind: str,
    d: int,
    trials: int,
    seed: int,
    *,
    n: int | None = None,
    sizes: tuple[int, ...] | None = None,
    keep_records: bool = True,
) -> AuditReport:
    """Count parity violations over random general-position instances.

    kinds: "monochrome" (depth of p is even when n - d is even),
    "colourful_odd_d" (d odd, d+1 points in each of d+1 colours),
    "colourful_even_sizes" (all class sizes even).
    """
    _check_trials(d, trials)
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
    draw, shape = (_monochrome_trial, n) if kind == "monochrome" else (_colourful_trial, sizes)
    records = _seeded_records(trials, seed, keep_records, lambda rng: draw(rng, d, shape))
    return _report(
        f"parity:{kind}", d, trials, seed, records, keep_records,
        violations=sum(r.depth % 2 for r in records),
        reference_bounds=(0, 0),
        extra={"n": n, "sizes": list(sizes) if sizes else None},
    )


# ---------------------------------------------------------------------- bounds


def _bound_trials(d: int, trials: int, seed: int, planted, measure):
    """Run measure(config, s), a depth or None, on planted(d) and then on
    gen_random_core_config(d, d+1, s) for trial t with s = seed + t.  The
    planted build is deterministic; its record and its measure take s = seed.

    Returns the records of the measured configurations and the number of
    failures: a construction error or a measure of None.
    """
    if trials < 0:
        raise InputError("trials must be non-negative")
    if d < 1:
        raise InputError("dimension must be at least 1")
    records = []
    failures = 0
    for trial in (PLANTED_TRIAL, *range(trials)):
        s = seed + max(trial, 0)  # the planted configuration takes the audit's seed
        try:
            if trial == PLANTED_TRIAL:
                vc = planted(d)  # best-effort dimensions may fail to construct
            else:
                vc = gen_random_core_config(d, d + 1, s)
        except ConstructionError:
            failures += 1
            continue
        depth = measure(vc.config, s)
        if depth is None:
            failures += 1
        else:
            records.append(TrialRecord(trial, s, depth, True, True))
    return records, failures


def mu_audit(d: int, trials: int, core_samples: int, seed: int) -> AuditReport:
    """Minimum sampled core depth over random core configurations, with a
    planted extremal configuration witnessing the proven minimum."""

    def measure(config, s: int):
        try:
            return min_core_depth_estimate(config, core_samples, s)[0]
        except CoreSampleError:
            return None

    planted = gen_splus if d == 1 else gen_sminus
    records, failures = _bound_trials(d, trials, seed, planted, measure)
    if not records:
        raise AuditViolation("no usable trials in minimum-depth audit")
    lower = known_min_core_depth(d)
    return _report(
        "mu", d, trials, seed, records,
        violations=sum(r.depth < lower for r in records),
        reference_bounds=(lower, lower),
        extra={"core_samples": core_samples},
        generation_failures=failures,
    )


def nu_audit(d: int, trials: int, seed: int, *, samples: int = 4) -> AuditReport:
    """Maximum depth over sampled strict-interior core points, with a planted
    deep configuration attaining d^(d+1) + 1."""

    def measure(config, s: int):
        return max((e for e, _ in core_depth_samples(config, samples, s)), default=None)

    records, failures = _bound_trials(d, trials, seed, gen_splus, measure)
    if not records:
        raise AuditViolation("no usable trials in maximum-depth audit")
    target = known_max_core_depth(d)
    return _report(
        "nu", d, trials, seed, records,
        violations=sum(r.depth > target for r in records),
        reference_bounds=(target, target),
        extra={"samples": samples, "proven_max": target},
        generation_failures=failures,
    )


# ------------------------------------------------------------------ statistics


def depth_stats(d: int, trials: int, seed: int, *, keep_records: bool = False) -> AuditReport:
    """Mean origin depth of random sign-symmetric configurations of d+1
    points in each of d+1 colours, reported against (d+1)^(d+1) / 2^d.

    The coordinate sampler is uniform on bounded rationals, hence symmetric
    about 0; the heuristic value assumes exactly such symmetric draws.
    """
    _check_trials(d, trials)
    zero = origin(d)

    def trial(rng: Random):
        classes = tuple(
            tuple(random_points(rng, d + 1, d, DEFAULT_BOUND)) for _ in range(d + 1)
        )
        config = ColourfulConfiguration(d, classes)
        rep = colourful_depth(config, zero, "open")
        return rep, lambda: core_membership(config, zero, strict=True)

    records = _seeded_records(trials, seed, keep_records, trial)
    mean = Fraction(sum(r.depth for r in records), trials)
    return _report(
        "stats", d, trials, seed, records, keep_records,
        violations=0,
        reference_bounds=(0, (d + 1) ** (d + 1)),
        extra={
            "mean": float(mean),
            "mean_exact": f"{mean.numerator}/{mean.denominator}",
            "heuristic_mean": (d + 1) ** (d + 1) / 2**d,
            "clean_trials": sum(r.gp_flag for r in records),
        },
    )
