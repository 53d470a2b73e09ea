"""Command-line interface tying generators, depth queries, cell arrangements,
and audits together behind stable file formats.

Exit codes: 0 success and all assertions hold; 1 an audit or assertion was
violated; 2 malformed input (unknown flags, bad rationals, dimension
mismatches); 3 a construction failed its exact verification; 141 (128 +
SIGPIPE, as a shell reports a process that a closed pipe ended) the reader
of stdout closed it, as `head` does, before all output was written: nothing
more is printed, not even an error line.

`main(argv)` may be called any number of times in one process.  The parser is
built once, on the first call, and reused: parsing never changes it, every
default is immutable, and argparse looks up `sys.stdout` and `sys.stderr`
only when it prints, so each call behaves as a fresh process would.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .arrangements import canonical_rotation, cell_depth_sequence, verify_cell_depth_lemma
from .audits import AuditViolation, depth_stats, mu_audit, nu_audit, parity_audit, write_csv
from .constructions import (
    ConstructionError,
    gen_identical,
    gen_random_core_config,
    gen_regular_ngon,
    gen_sminus,
    gen_splus,
    gen_sprime,
)
from .depth import (
    ColourfulConfiguration,
    colourful_depth,
    core_membership,
    monochrome_depth,
)
from .exact import InputError, origin
from .serialization import (
    config_to_dict,
    load_config,
    load_points,
    parse_fraction,
    parse_point,
    save_config,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_CONSTRUCTION = 3
EXIT_PIPE = 141  # 128 + SIGPIPE: the reader of stdout closed it


def _print_report(rep, witnesses: bool):
    lines = [f"mode: {rep.mode}", f"count: {rep.count}",
             f"degenerate: {rep.degenerate}", f"boundary: {rep.boundary}"]
    if witnesses and rep.witnesses is not None:
        lines += [f"witness: {w}" for w in rep.witnesses]
    print("\n".join(lines))


def _cmd_gen(args) -> int:
    if args.kind == "ngon":
        if args.n is None:
            raise InputError("gen ngon requires --n")
        pts = gen_regular_ngon(args.n)
        config = ColourfulConfiguration(2, (tuple(pts),))
        depth = monochrome_depth(pts, origin(2), "open").count
    else:
        if args.dim is None:
            raise InputError(f"gen {args.kind} requires --dim")
        if args.kind == "random":
            per_colour = args.points_per_colour
            vc = gen_random_core_config(
                args.dim, args.dim + 1 if per_colour is None else per_colour, args.seed
            )
        else:
            read = args.epsilon and args.kind != "identical"
            epsilon = parse_fraction(args.epsilon) if read else None
            if args.dim < 1:
                raise InputError("dimension must be at least 1")
            if epsilon is not None and epsilon <= 0:
                raise InputError("epsilon must be positive")
            if args.kind == "identical":
                vc = gen_identical(args.dim)
            else:
                vc = {"sminus": gen_sminus, "sprime": gen_sprime, "splus": gen_splus}[args.kind](
                    args.dim, epsilon
                )
        config, depth = vc.config, vc.claimed_depth_at_origin
    if args.out:
        save_config(config, args.out)
    else:
        print(json.dumps(config_to_dict(config)))
    print(f"depth_at_origin: {depth}")
    return EXIT_OK


def _cmd_depth(args) -> int:
    pts = load_points(args.points)
    p = parse_point(args.point, dim=pts[0].dim)
    rep = monochrome_depth(pts, p, args.mode, want_witnesses=args.witnesses)
    _print_report(rep, args.witnesses)
    return EXIT_OK


def _cmd_cdepth(args) -> int:
    config = load_config(args.config)
    p = parse_point(args.point, dim=config.dim)
    if args.require_core and not core_membership(config, p, strict=True):
        print("query point is not strictly inside every colour hull", file=sys.stderr)
        return EXIT_VIOLATION
    rep = colourful_depth(config, p, args.mode, want_witnesses=args.witnesses)
    _print_report(rep, args.witnesses)
    return EXIT_OK


def _cmd_core(args) -> int:
    config = load_config(args.config)
    p = parse_point(args.point, dim=config.dim)
    member = core_membership(config, p, strict=False)
    strict = core_membership(config, p, strict=True) if member else False
    print(f"member: {str(member).lower()}")
    print(f"strict_member: {str(strict).lower()}")
    return EXIT_OK


def _cmd_cells2d(args) -> int:
    config = load_config(args.config)
    if config.dim != 2:
        raise InputError("cells2d needs a 2-dimensional configuration")
    i, j = args.classes
    if not (0 <= i < config.num_classes and 0 <= j < config.num_classes) or i == j:
        raise InputError("invalid class indices")
    arr = cell_depth_sequence(config.classes[i], config.classes[j])
    rep = verify_cell_depth_lemma(arr)
    print("sequence:", ",".join(str(x) for x in canonical_rotation(arr.cell_depths)))
    print(f"lemma_ok: {str(rep.lemma_ok).lower()}")
    return EXIT_OK if rep.lemma_ok else EXIT_VIOLATION


def _cmd_audit(args) -> int:
    if args.kind == "parity":
        sizes = None
        if args.sizes:
            try:
                sizes = tuple(int(s) for s in args.sizes.split(","))
            except ValueError as e:
                raise InputError(f"--sizes needs comma-separated integers: {e}") from e
        report = parity_audit(
            args.parity_kind,
            args.dim,
            args.trials,
            args.seed,
            n=args.n,
            sizes=sizes,
        )
    elif args.kind == "mu":
        report = mu_audit(args.dim, args.trials, args.core_samples, args.seed)
    elif args.kind == "nu":
        report = nu_audit(args.dim, args.trials, args.seed, samples=args.samples)
    else:
        report = depth_stats(args.dim, args.trials, args.seed, keep_records=True)
    summary = report.summary()
    summary["invocation"] = {
        "command": "audit",
        "kind": args.kind,
        "dim": args.dim,
        "trials": args.trials,
        "seed": args.seed,
    }
    if args.csv:
        write_csv(report, args.csv)
    text = json.dumps(summary, sort_keys=True)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    print(text)
    if report.violations:
        return EXIT_VIOLATION
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="colourdepth",
        description="Exact colourful simplicial depth: generators, counts, audits.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a configuration and verify its depth")
    gen.add_argument("kind", choices=["identical", "sminus", "sprime", "splus", "ngon", "random"])
    gen.add_argument("--dim", type=int)
    gen.add_argument("--epsilon", type=str, default=None,
                     help="rational, e.g. 1/200; read by sminus, sprime and splus")
    gen.add_argument("--seed", type=int, default=0,
                     help="seed of gen random; the other kinds are deterministic and ignore it")
    gen.add_argument("--n", type=int, default=None, help="vertex count for ngon")
    gen.add_argument("--points-per-colour", type=int, default=None)
    gen.add_argument("--out", type=str, default=None, help="write configuration JSON here")
    gen.set_defaults(func=_cmd_gen)

    dep = sub.add_parser("depth", help="monochrome depth of a point")
    dep.add_argument("--points", required=True, help="point-set JSON file")
    dep.add_argument("--point", required=True, help="query, e.g. '1/2,-3'")
    dep.add_argument("--mode", choices=["open", "closed"], default="open")
    dep.add_argument("--witnesses", action="store_true")
    dep.set_defaults(func=_cmd_depth)

    cdep = sub.add_parser("cdepth", help="colourful depth of a point")
    cdep.add_argument("--config", required=True, help="configuration JSON file")
    cdep.add_argument("--point", required=True)
    cdep.add_argument("--mode", choices=["open", "closed"], default="open")
    cdep.add_argument("--witnesses", action="store_true")
    cdep.add_argument("--require-core", action="store_true",
                      help="exit 1 unless the query is strictly inside every colour hull")
    cdep.set_defaults(func=_cmd_cdepth)

    core = sub.add_parser("core", help="core membership of a point")
    core.add_argument("--config", required=True)
    core.add_argument("--point", required=True)
    core.set_defaults(func=_cmd_core)

    cells = sub.add_parser(
        "cells2d", help="cell depth sequence of two planar classes of 3 or more points"
    )
    cells.add_argument("--config", required=True)
    cells.add_argument("--classes", type=int, nargs=2, default=(0, 1))
    cells.set_defaults(func=_cmd_cells2d)

    audit = sub.add_parser("audit", help="randomized audits with CSV/JSON reports")
    audit.add_argument("kind", choices=["parity", "mu", "nu", "stats"])
    audit.add_argument("--dim", type=int, required=True)
    audit.add_argument("--trials", type=int, default=1000)
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--parity-kind", default="monochrome",
                       choices=["monochrome", "colourful_odd_d", "colourful_even_sizes"])
    audit.add_argument("--n", type=int, default=None, help="monochrome sample size")
    audit.add_argument("--sizes", type=str, default=None, help="class sizes, e.g. 2,2,2")
    audit.add_argument("--core-samples", type=int, default=8)
    audit.add_argument("--samples", type=int, default=4)
    audit.add_argument("--csv", type=str, default=None)
    audit.add_argument("--json", type=str, default=None)
    audit.set_defaults(func=_cmd_audit)
    return ap


def _join_negative_points(argv: list[str]) -> list[str]:
    """Rewrite '--point -1/2,0' as '--point=-1/2,0', and so '--epsilon
    -1/2' and '--sizes -2,2,2'.

    argparse takes a value that starts with '-' for an option unless it is a
    plain negative number, so a negative rational query point or a list of
    sizes that starts with a negative one would be refused with "expected
    one argument", and a negative epsilon would never reach the check that
    it is positive.
    """
    out: list[str] = []
    for a in argv:
        if out and out[-1] in ("--point", "--epsilon", "--sizes") and re.match(r"-[\d.]", a):
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


def _silence_stdout() -> None:
    """Point the file descriptor of stdout, if it has one, at os.devnull, so
    that the interpreter's last flush of what the closed reader never took
    neither fails nor reports it."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_join_negative_points(argv))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _silence_stdout()
        return EXIT_PIPE
    except ConstructionError as e:
        print(f"construction failed: {e}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except AuditViolation as e:
        print(f"audit violation: {e}", file=sys.stderr)
        return EXIT_VIOLATION
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
