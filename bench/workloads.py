"""The three benchmark workloads: inputs from the seed, ops and answer checks.

A workload yields its ops in cycles.  Every cycle has the same mix, so a run
that stops at a cycle boundary measures the same mix at any run length.  An
op's `call` does the timed work; `check` validates the result outside the
timed region and returns the canonical output that goes into the digest.
Documented errors of the program (`documented`) are failed ops: they are
counted, never retried or skipped.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from random import Random
from typing import Any, Callable, NamedTuple


class WrongAnswer(AssertionError):
    """The program returned an answer the benchmark knows to be wrong."""


class CliFailure(Exception):
    """The CLI exited with a documented error code (2 input, 3 construction)."""

    def __init__(self, code: int, stderr: str):
        super().__init__(f"exit {code}: {stderr.strip()}")


class Op(NamedTuple):
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Any]
    digest: bool = True


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


# Warm-up ops use fixed seeds, so that set-up time does not depend on --seed.
WARM_UP_SEED = -1_000_000


def seed_base(seed: int) -> int:
    """First per-op seed of a run; runs with different seeds share no op seed."""
    return seed * 1_000_000


def rational(rng: Random, bound: int = 10_000) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def small_rational(rng: Random, den: int = 997) -> Fraction:
    """Rational in [-1/2, 1/2] on a grid of step 1/(2*den)."""
    return Fraction(rng.randint(-den, den), 2 * den)


def _json_coord(c: Fraction):
    return c.numerator if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _point_arg(coords) -> str:
    # "--point=<x,y>": argparse would read "--point -1/2,3" as a flag.
    return "--point=" + ",".join(str(c) for c in coords)


# ----------------------------------------------------------------- audit-parity


class AuditParity:
    """One op is trial t of a parity suite or of depth_stats, run alone."""

    name = "audit-parity"
    documented: tuple = ()
    prefix_cycles = 100
    # The four parity suites of the acceptance tests plus depth_stats d=2.
    KINDS = (
        ("monochrome", 2, {"n": 6}),
        ("monochrome", 3, {"n": 7}),
        ("colourful_odd_d", 3, {}),
        ("colourful_even_sizes", 2, {"sizes": (2, 2, 2)}),
        ("stats", 2, {}),
    )

    def __init__(self, cd, seed: int, workdir):
        self.cd = cd
        self.base = seed_base(seed)

    def _op(self, kind: str, d: int, kw: dict, trial_seed: int) -> Op:
        audits = self.cd.audits
        if kind == "stats":
            return Op(f"stats d={d}",
                      lambda: audits.depth_stats(d, 1, trial_seed),
                      lambda rep: self._check_stats(rep, d, trial_seed))
        return Op(f"parity:{kind} d={d}",
                  lambda: audits.parity_audit(kind, d, 1, trial_seed, **kw),
                  lambda rep: self._check_parity(rep, kind, d, trial_seed))

    @staticmethod
    def _check_parity(rep, kind, d, trial_seed):
        (rec,) = rep.records
        expect(rec.seed == trial_seed, "trial seed not recorded")
        expect(rep.violations == 0 and rec.depth % 2 == 0,
               f"parity:{kind} d={d} seed {trial_seed}: odd depth {rec.depth}")
        return [kind, d, trial_seed, rec.depth, rec.core_flag]

    @staticmethod
    def _check_stats(rep, d, trial_seed):
        depth = rep.min_observed
        expect(rep.max_observed == depth, "one trial, two depths")
        expect(0 <= depth <= (d + 1) ** (d + 1), f"depth {depth} out of range")
        expect(rep.extra["mean_exact"] == f"{depth}/1", "mean of one trial is its depth")
        return ["stats", d, trial_seed, depth, rep.extra["clean_trials"]]

    def warm_up(self) -> None:
        for k, (kind, d, kw) in enumerate(self.KINDS):
            op = self._op(kind, d, kw, WARM_UP_SEED + k)
            op.check(op.call())

    def cycle(self, c: int) -> list[Op]:
        n = len(self.KINDS)
        return [self._op(kind, d, kw, self.base + c * n + k)
                for k, (kind, d, kw) in enumerate(self.KINDS)]


# ------------------------------------------------------------------ core-bounds


class CoreBounds:
    """Cycle 0 builds the planted S-, S' and S+ configurations once; every
    later cycle runs random core-configuration trials as mu_audit (minimum
    estimate) and nu_audit (depth samples) make them."""

    name = "core-bounds"
    prefix_cycles = 11
    # (d, call, samples): 3 of 5 trials at d=2, near the bound audits' mix;
    # most of the time goes to the d=3 trials.
    TRIALS = (
        (2, "min", 8),
        (2, "samples", 4),
        (3, "min", 6),
        (2, "samples", 3),
        (3, "samples", 4),
    )

    # gen_sminus(4) (origin depth 22, not 17) and gen_splus(4) (not strictly
    # in the core) raise ConstructionError at every seed, so they are not ops:
    # a workload has no failing op.  gen_sprime(4) keeps d=4 enumeration here.
    PLANTED = (
        ("sminus", 2), ("sprime", 2), ("splus", 2),
        ("sminus", 3), ("sprime", 3), ("splus", 3),
        ("sprime", 4),
    )

    def __init__(self, cd, seed: int, workdir):
        self.cd = cd
        self.base = seed_base(seed)
        self.documented = (cd.constructions.ConstructionError, cd.depth.CoreSampleError)

    def _planted(self, gen: str, d: int) -> Op:
        want = d ** (d + 1) + 1 if gen == "splus" else d * d + 1
        constructions = self.cd.constructions

        def check(vc):
            expect(vc.verified and vc.claimed_depth_at_origin == want,
                   f"gen_{gen}({d}) claims depth {vc.claimed_depth_at_origin}, want {want}")
            expect(sum(vc.last_colour_counts) == want,
                   f"gen_{gen}({d}) per-point counts {vc.last_colour_counts} do not sum to {want}")
            return [gen, d, want]

        # Checked against the theorem value, not the digest, so that a fix of
        # a failing dimension does not change the pinned digest.
        return Op(f"gen_{gen}({d})",
                  lambda: getattr(constructions, f"gen_{gen}")(d, seed=self.base),
                  check, digest=False)

    def _trial(self, d: int, call: str, samples: int, s: int) -> Op:
        cd = self.cd

        def run():
            vc = cd.constructions.gen_random_core_config(d, d + 1, s)
            if call == "min":
                return vc, cd.depth.min_core_depth_estimate(vc.config, samples, s)
            return vc, cd.depth.core_depth_samples(vc.config, samples, s)

        return Op(f"trial d={d} {call}", run,
                  lambda res: self._check_trial(res, d, call, s))

    @staticmethod
    def _check_trial(res, d, call, s):
        vc, got = res
        depth0 = vc.claimed_depth_at_origin
        expect(vc.verified, "unverified random core configuration")
        expect(sum(vc.last_colour_counts) == depth0,
               f"seed {s}: zero-containing counts {vc.last_colour_counts} "
               f"do not sum to the colourful depth {depth0}")
        found = [got] if call == "min" else got
        # mu(d) = d^2 + 1 bounds every core point below; (d+1)^(d+1) colourful
        # simplices exist in all, and nu(2) = 9 is proven.
        upper = 9 if d == 2 else (d + 1) ** (d + 1)
        for depth, _ in found:
            expect(d * d + 1 <= depth <= upper,
                   f"seed {s}: core depth {depth} outside [{d * d + 1}, {upper}]")
        if call == "min":
            # The origin is always the first candidate and is a strict core
            # point in general position, so the minimum cannot exceed it.
            expect(got[0] <= depth0, f"seed {s}: minimum {got[0]} above origin depth {depth0}")
        else:
            expect(found and found[0][0] == depth0 and not any(found[0][1].coords),
                   f"seed {s}: first sample is not the origin at depth {depth0}")
        return [d, call, s, depth0, list(vc.last_colour_counts), vc.retries,
                [[depth, [str(c) for c in p.coords]] for depth, p in found]]

    def warm_up(self) -> None:
        for k, (d, call, samples) in enumerate(self.TRIALS[:2]):
            op = self._trial(d, call, samples, WARM_UP_SEED + k)
            op.check(op.call())

    def cycle(self, c: int) -> list[Op]:
        if c == 0:
            return [self._planted(gen, d) for gen, d in self.PLANTED]
        n = len(self.TRIALS)
        return [self._trial(d, call, samples, self.base + (c - 1) * n + k)
                for k, (d, call, samples) in enumerate(self.TRIALS)]


# ---------------------------------------------------------------------- queries


def _parse_report(out: str) -> dict:
    fields, witnesses = {}, 0
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key == "witness":
            witnesses += 1
        else:
            fields[key] = value.strip()
    fields["witness_lines"] = witnesses
    return fields


class Queries:
    """In-process CLI runs of depth, cdepth, core and cells2d on JSON files
    written at set-up.  Every input has POOL instances, used in turn by
    successive cycles, and every op has a fresh query point."""

    name = "queries"
    documented = (CliFailure,)
    prefix_cycles = 2
    POOL = 4
    # 19 templates.  Seven are cheaper than a mono30 query and seven dearer,
    # so the p50 of whole cycles is the median of the five mono30 queries of
    # every cycle, and the p90 falls among the mono62 and n-gon queries.
    TEMPLATES = (
        *[("depth", "mono30", "open")] * 5, ("depth", "mono46", "open"),
        ("depth", "mono62", "open"), ("depth", "mono90", "open"),
        ("ngon", "ngon61", "open"),
        ("cdepth", "col2x10", "open"), ("cdepth", "col2x20", "open"),
        ("cdepth", "col2x30", "open"), ("cdepth", "col3x4", "open"),
        ("cdepth", "col3x6", "open"), ("core", "col2x20", None),
        ("core", "col3x6", None), ("cells2d", "cells", None),
        ("depth", "lat20", "closed"), ("cdepth", "latcol2x10", "closed"),
    )

    def __init__(self, cd, seed: int, workdir):
        self.cd = cd
        self.dir = workdir
        self.seed = seed
        rng = Random(f"queries:{seed}")
        self.files = {}
        self.sizes = {}
        rat2 = lambda: (rational(rng), rational(rng))  # noqa: E731
        rat3 = lambda: (rational(rng), rational(rng), rational(rng))  # noqa: E731
        # Small-integer lattice inputs: many degenerate tuples and boundary hits.
        lat2 = lambda: (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))  # noqa: E731
        for i in range(self.POOL):
            for n in (30, 46, 62, 90):
                self._points(f"mono{n}", i, [rat2() for _ in range(n)])
            self._points("ngon61", i, self._ngon(61, rng.random()))
            for m in (10, 20, 30):
                self._config(f"col2x{m}", i, 2, [[rat2() for _ in range(m)] for _ in range(3)])
            for m in (4, 6):
                self._config(f"col3x{m}", i, 3, [[rat3() for _ in range(m)] for _ in range(4)])
            self._points("lat20", i, [lat2() for _ in range(20)])
            self._config("latcol2x10", i, 2, [[lat2() for _ in range(10)] for _ in range(3)])
            self._config("cells", i, 2, self._cell_pair(rng))

    # -- inputs

    def _points(self, name, i, pts):
        self.sizes[name] = (2, (len(pts),))
        self._write(name, i, {"dimension": 2,
                              "points": [[_json_coord(c) for c in p] for p in pts]})

    def _config(self, name, i, d, classes):
        self.sizes[name] = (d, tuple(len(c) for c in classes))
        self._write(name, i, {"dimension": d, "colours": [
            [[_json_coord(c) for c in p] for p in cls] for cls in classes]})

    def _write(self, name, i, data):
        path = self.dir / f"{name}-{i}.json"
        path.write_text(json.dumps(data) + "\n")
        self.files[name, i] = str(path)

    @staticmethod
    def _ngon(n: int, turn: float, digits: int = 12):
        """Odd regular n-gon on the unit circle, rotated by `turn` of a turn;
        every point of its centre cell has depth (n^3 - n) / 24."""
        pts = []
        for k in range(n):
            theta = 2 * math.pi * (turn + k / n)
            theta = math.remainder(theta, 2 * math.pi)
            t = Fraction(round(math.tan(theta / 2) * 10**digits), 10**digits)
            pts.append(((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)))
        return pts

    @staticmethod
    def _triangle(rng: Random):
        """Three rational points with the origin strictly inside their hull."""
        while True:
            a0 = rng.uniform(0, 2 * math.pi)
            pts = []
            for k in range(3):
                a = a0 + k * 2 * math.pi / 3 + rng.uniform(-0.4, 0.4)
                r = rng.uniform(0.5, 2.0)
                pts.append((Fraction(round(r * math.cos(a) * 1000), 1000),
                            Fraction(round(r * math.sin(a) * 1000), 1000)))
            turns = [pts[i][0] * pts[(i + 1) % 3][1] - pts[i][1] * pts[(i + 1) % 3][0]
                     for i in range(3)]
            if all(t > 0 for t in turns) or all(t < 0 for t in turns):
                return pts

    @classmethod
    def _cell_pair(cls, rng: Random):
        """Two such triangles with no two of the six rays on one line."""
        while True:
            pair = [cls._triangle(rng), cls._triangle(rng)]
            rays = pair[0] + pair[1]
            if all(a[0] * b[1] != a[1] * b[0] for a, b in combinations(rays, 2)):
                return pair

    # -- ops

    def _query_point(self, name, c: int, k: int):
        d, _ = self.sizes[name]
        rng = Random(f"queries:{self.seed}:{c}:{k}")
        if name.startswith("ngon"):
            # Well inside the centre cell: its inradius exceeds 1/40 for n <= 61.
            return [Fraction(rng.randint(-1000, 1000), 400_000) for _ in range(d)]
        if name.startswith("lat"):
            return [Fraction(rng.randint(-4, 4), 2) for _ in range(d)]
        return [small_rational(rng) for _ in range(d)]

    def _run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cd.cli.main(argv)
        if code in (2, 3):
            raise CliFailure(code, err.getvalue())
        return code, out.getvalue()

    def _op(self, template, c: int, k: int) -> Op:
        command, name, mode = template
        path = self.files[name, c % self.POOL]
        if command == "cells2d":
            argv = ["cells2d", "--config", path]
        else:
            point = self._query_point(name, c, k)
            flag = "--points" if command in ("depth", "ngon") else "--config"
            argv = ["depth" if command == "ngon" else command, flag, path, _point_arg(point)]
            if mode == "closed":
                argv += ["--mode", "closed", "--witnesses"]
            elif mode == "open":
                argv += ["--mode", "open"]
        label = f"{command} {name}-{c % self.POOL}" + (f" {mode}" if mode else "")
        return Op(label, lambda: self._run_cli(argv),
                  lambda res: self._check(res, command, name, mode, argv))

    def _check(self, res, command, name, mode, argv):
        code, out = res
        fields = _parse_report(out)
        if command == "cells2d":
            seq = [int(x) for x in fields["sequence"].split(",")]
            expect(code == 0 and fields["lemma_ok"] == "true" and len(seq) == 6
                   and min(seq) >= 1, f"cells2d {name}: {out!r}")
        elif command == "core":
            expect(code == 0, f"core {name}: exit {code}")
            member, strict = fields["member"], fields["strict_member"]
            expect(member in ("true", "false") and strict in ("true", "false")
                   and not (strict == "true" and member == "false"),
                   f"core {name}: member {member}, strict {strict}")
        else:
            expect(code == 0, f"{argv}: exit {code}")
            d, sizes = self.sizes[name]
            count = int(fields["count"])
            clean = fields["degenerate"] == "0" and fields["boundary"] == "0"
            total = (comb(sizes[0], d + 1) if len(sizes) == 1
                     else sum(prod(s) for s in combinations(sizes, d + 1)))
            expect(0 <= count <= total, f"{argv}: count {count} of {total} tuples")
            if command == "ngon":
                n = sizes[0]
                expect(clean and count == (n**3 - n) // 24,
                       f"{argv}: n-gon centre depth {count}, want {(n**3 - n) // 24}")
            elif mode == "closed":
                expect(fields["witness_lines"] == count, f"{argv}: witness lines != count")
            else:
                # n - d even (monochrome) and all class sizes even (colourful):
                # the depth of a point in general position is even.
                expect(not clean or count % 2 == 0, f"{argv}: odd depth {count}")
        return [command, name, argv[3:], code, out]

    def warm_up(self) -> None:
        for template in (("cells2d", "cells", None), ("cdepth", "col3x4", "open"),
                         ("core", "col3x6", None), ("depth", "mono30", "open")):
            op = self._op(template, -1, 0)
            op.check(op.call())

    def cycle(self, c: int) -> list[Op]:
        return [self._op(t, c, k) for k, t in enumerate(self.TEMPLATES)]


WORKLOADS = {w.name: w for w in (AuditParity, CoreBounds, Queries)}
