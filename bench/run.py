"""Seeded end-to-end benchmark of colourdepth, with an optional traced run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload audit-parity --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --seed 1            # all workloads, one process each

Each workload runs as a closed loop from a single client: the next op starts
when the previous one has returned.  The program is imported from `src/` of
the checkout; a directory without it is an error (exit 2, no result line).
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
metrics with `--trace 1`).  A wrong answer aborts the run with exit 1.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from workloads import WORKLOADS, WrongAnswer  # noqa: E402

SETUP_REPEATS = 7
# Mean time of one calibration kernel on the reference host (2 vCPU Xeon VM,
# Python 3.11); times are reported at that speed.
CALIBRATION_REFERENCE_S = 0.0035
CALIBRATION_EVERY_S = 0.1
CALIBRATION_NEIGHBOURS = 10
DEFAULT_SEED = 0
# SHA-256 of the ordered outputs of the digest ops in the first
# `prefix_cycles` cycles, for DEFAULT_SEED.
PINNED_DIGESTS = {
    "audit-parity": "39b593d20225d7ae62b1004cfd7af865298d97a69c193f6e1160f23a17855a92",
    "core-bounds": "c1d4747bc5d186087f4ef374f812f4443882a0e8f2f2c659e8ee83a77e729964",
    "queries": "503d13b178fb687dc0c5b71fda6258708c08f8d06de29c5da6f6ce4b90aa5413",
}


class SetupError(RuntimeError):
    """The checkout does not hold the program."""


def calibration_kernel() -> int:
    """Fixed exact-arithmetic work shaped like the program's predicates:
    integer 3x3 determinants over scaled rationals and a Fraction solve."""
    pts = [(Fraction((i * 7919) % 2003 - 1001, (i * 104729) % 997 + 1),
            Fraction((i * 6007) % 1999 - 999, (i * 15485863) % 991 + 1))
           for i in range(10)]
    rows = {}
    for x, y in pts:
        s = x.denominator * y.denominator
        rows[(x, y)] = (int(x * s), int(y * s), s)
    positive = 0
    for a, b, c in combinations(pts, 3):
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows[a], rows[b], rows[c]
        det = a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)
        positive += det > 0
    for a, b, c in combinations(pts[:6], 3):
        m = [[a[0], b[0], c[0], Fraction(1, 3)], [a[1], b[1], c[1], Fraction(1, 5)],
             [Fraction(1), Fraction(1), Fraction(1), Fraction(1)]]
        for col in range(3):
            pivot = next((r for r in range(col, 3) if m[r][col] != 0), None)
            if pivot is None:
                break
            m[col], m[pivot] = m[pivot], m[col]
            for r in range(3):
                if r != col and m[r][col] != 0:
                    f = m[r][col] / m[col][col]
                    m[r] = [u - f * v for u, v in zip(m[r], m[col])]
        positive += all(m[r][3] / m[r][r] > 0 for r in range(3) if m[r][r] != 0)
    return positive


class Calibration:
    """Host speed, from the kernel timed between ops throughout a run.

    The host's speed drifts by up to a quarter within seconds.  Every
    reported time is multiplied by the scale at the time it was taken: the
    reference kernel time over the mean of the CALIBRATION_NEIGHBOURS kernel
    samples nearest to it.  Runs made in fast and slow phases then agree."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self._last = perf_counter()

    def sample(self) -> None:
        t0 = perf_counter()
        calibration_kernel()
        self._last = perf_counter()
        self.times.append(t0)
        self.samples.append(self._last - t0)

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= CALIBRATION_EVERY_S:
            self.sample()

    def scale_at(self, t: float) -> float:
        n = len(self.times)
        k = min(CALIBRATION_NEIGHBOURS, n)
        lo = max(0, min(bisect.bisect_left(self.times, t) - k // 2, n - k))
        return CALIBRATION_REFERENCE_S / statistics.fmean(self.samples[lo:lo + k])

    def scaled(self, starts: list[float], durations: list[float]) -> list[float]:
        return [d * self.scale_at(t + d / 2) for t, d in zip(starts, durations)]


def import_program() -> SimpleNamespace:
    """Fresh import of colourdepth from the checkout's src/ directory."""
    src = ROOT / "src"
    if not (src / "colourdepth" / "__init__.py").is_file():
        raise SetupError(f"no colourdepth package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for key in [k for k in sys.modules if k == "colourdepth" or k.startswith("colourdepth.")]:
        del sys.modules[key]
    return SimpleNamespace(**{
        name: importlib.import_module(f"colourdepth.{name}") for name in tracing.MODULES
    })


def set_up(workload_cls, seed: int, workdir: Path, calibration: Calibration):
    """Import, inputs from the seed, warm-up; returns (workload, start, seconds)."""
    t0 = perf_counter()
    workload = workload_cls(import_program(), seed, workdir)
    workload.warm_up()
    elapsed = perf_counter() - t0
    for _ in range(3):
        calibration.sample()
    return workload, t0, elapsed


class Tally:
    """Latencies, documented failures and the output digest of a run."""

    def __init__(self):
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.failures: list[tuple] = []
        self._digest = hashlib.sha256()
        self.cycles = 0

    def record(self, label: str, output) -> None:
        self._digest.update(json.dumps([label, output]).encode() + b"\n")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def run_cycle(workload, cycle: int, tally: Tally, calibration: Calibration,
              tracer=None) -> None:
    for op in workload.cycle(cycle):
        if tracer is not None:
            tracer.op = len(tally.latencies)
        t0 = perf_counter()
        try:
            raw, error = op.call(), None
        except workload.documented as e:
            raw, error = None, e
        tally.starts.append(t0)
        tally.latencies.append(perf_counter() - t0)
        if error is None:
            output = op.check(raw)
        else:
            achieved = getattr(error, "achieved", None)
            tally.failures.append((op.label, type(error).__name__, achieved, str(error)))
            output = ["failed", type(error).__name__, achieved]
        if cycle < workload.prefix_cycles and op.digest:
            tally.record(op.label, output)
        calibration.maybe_sample()
    tally.cycles += 1


def run_timed(workload, seconds: float, calibration: Calibration) -> Tally:
    """Whole cycles: the digest prefix, then more until `seconds` have passed."""
    tally = Tally()
    started = perf_counter()
    cycle = 0
    while cycle < workload.prefix_cycles or perf_counter() - started < seconds:
        run_cycle(workload, cycle, tally, calibration)
        cycle += 1
    return tally


def run_traced(workload, calibration: Calibration, tracer) -> tuple[Tally, Tally]:
    """The digest prefix twice, cycle by cycle untraced and then traced, so
    that both see the same host speed."""
    plain, traced = Tally(), Tally()
    for cycle in range(workload.prefix_cycles):
        run_cycle(workload, cycle, plain, calibration)
        tracer.install()
        try:
            run_cycle(workload, cycle, traced, calibration, tracer)
        finally:
            tracer.uninstall()
    return plain, traced


def end_to_end(result: Tally, setups, calibration: Calibration) -> dict:
    """Times are scaled to the reference host speed."""
    lat = calibration.scaled(result.starts, result.latencies)
    setup = calibration.scaled([t for _, t, _ in setups], [s for _, _, s in setups])
    ok = len(lat) - len(result.failures)
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ok / sum(lat), "1/s"),
        "op_p50_ms": (deciles[4] * 1e3, "ms"),
        "op_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def check_digest(name: str, seed: int, digest: str) -> None:
    pinned = PINNED_DIGESTS[name]
    if seed == DEFAULT_SEED and digest != pinned:
        raise WrongAnswer(f"{name} seed {seed}: output digest {digest} != pinned {pinned}")


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    workload_cls = WORKLOADS[name]
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{name}-{seed}-inputs"
    result = None
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        calibration = Calibration()
        setups = [set_up(workload_cls, seed, workdir, calibration)
                  for _ in range(SETUP_REPEATS)]
        workload = setups[-1][0]
        if not trace:
            result = run_timed(workload, seconds, calibration)
            metrics = end_to_end(result, setups, calibration)
        else:
            # The calls counts and the digest repeat exactly between the two
            # passes, and their time ratio is the tracing overhead.
            tracer = tracing.Tracer()
            plain, result = run_traced(workload, calibration, tracer)
            if result.digest != plain.digest:
                raise WrongAnswer(f"traced digest {result.digest} != untraced {plain.digest}")
            traced_s = sum(calibration.scaled(result.starts, result.latencies))
            plain_s = sum(calibration.scaled(plain.starts, plain.latencies))
            metrics = tracer.metrics(sum(result.latencies), traced_s / sum(result.latencies),
                                     traced_s / plain_s)
            tracer.write(out_dir / f"spans-{name}-{seed}.csv")
        check_digest(name, seed, result.digest)
    except WrongAnswer as e:
        print(f"{name}: wrong answer: {e}", file=sys.stderr)
        attempted = len(result.latencies) if result else 1
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": len(result.failures) if result else 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {name} seed {seed} trace {int(trace)}: {len(result.latencies)} ops "
          f"in {result.cycles} cycles, digest {result.digest}")
    print(f"calibration kernel mean {statistics.fmean(calibration.samples)} s over "
          f"{len(calibration.samples)} samples; unscaled op time {sum(result.latencies)} s")
    for label, kind, achieved, message in result.failures:
        print(f"failed op {label}: {kind} (achieved {achieved}): {message}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": len(result.latencies),
        "failed": len(result.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, check=False,
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        import_program()
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
