"""In-memory spans around the public layer functions of `colourdepth`.

The program is not modified: `Tracer.install` replaces each traced function
with a wrapper in every loaded `colourdepth` module that holds a reference to
it, so calls between modules (`depth` calling `exact.in_convex_hull`, the CLI
calling `depth.colourful_depth`) are seen too.  A span is
(name, start, end, parent index, op id); self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import csv
import functools
import sys
from itertools import combinations
from math import comb, prod
from time import perf_counter

MODULES = (
    "exact",
    "depth",
    "constructions",
    "sampling",
    "arrangements",
    "audits",
    "serialization",
    "cli",
)

TRACED = {
    "exact": ("in_convex_hull", "in_general_position", "in_general_position_with"),
    "depth": (
        "monochrome_depth",
        "colourful_depth",
        "core_membership",
        "zero_containing_count",
        "core_depth_samples",
    ),
    "constructions": ("gen_sminus", "gen_sprime", "gen_splus", "gen_random_core_config"),
    "sampling": ("random_core_class",),
    "arrangements": ("cell_depth_sequence",),
    "audits": ("parity_audit", "depth_stats"),
    "serialization": ("load_config", "load_points"),
    "cli": ("main",),
}

# in_convex_hull is reported as two layers: the strict test is the costly one.
SPAN_NAMES = [
    f"{mod}.{fn}{suffix}"
    for mod, fns in TRACED.items()
    for fn in fns
    for suffix in ((".strict", ".closed") if fn == "in_convex_hull" else ("",))
]

TUPLE_COUNTED = ("depth.monochrome_depth", "depth.colourful_depth")
GENERATORS = tuple(f"constructions.{fn}" for fn in TRACED["constructions"])


def _strict_flag(args, kwargs) -> bool:
    return bool(args[2] if len(args) > 2 else kwargs.get("strict", False))


def enumerable_tuples(name: str, args) -> int:
    """Tuples a counting call enumerates, computed from its input sizes."""
    if name == "depth.monochrome_depth":
        points, query = args[0], args[1]
        return comb(len(points), query.dim + 1)
    config = args[0]
    return sum(
        prod(sub) for sub in combinations(config.class_sizes(), config.dim + 1)
    )


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.op = -1
        self.tuples = dict.fromkeys(TUPLE_COUNTED, 0)
        self.retries: list[int] = []
        self._rebound: list[tuple] = []  # (module, attribute, original, wrapper)
        self._wrappers: dict = {}

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        split = name == "exact.in_convex_hull"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if split:
                label += ".strict" if _strict_flag(args, kwargs) else ".closed"
            index = len(spans)
            span = [label, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if name in self.tuples:
                self.tuples[name] += enumerable_tuples(name, args)
            elif name in GENERATORS:
                self.retries.append(result.retries)
            return result

        return traced

    def install(self, package: str = "colourdepth") -> None:
        """Rebind every traced function in each loaded module of the package."""
        loaded = [
            m for key, m in list(sys.modules.items())
            if key == package or key.startswith(package + ".")
        ]
        for mod, fns in TRACED.items():
            home = sys.modules[f"{package}.{mod}"]
            for fn in fns:
                original = getattr(home, fn)
                if original not in self._wrappers:
                    self._wrappers[original] = self._wrap(f"{mod}.{fn}", original)
                wrapper = self._wrappers[original]
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._rebound.append((m, attr, original, wrapper))

    def uninstall(self) -> None:
        for m, attr, original, wrapper in reversed(self._rebound):
            if getattr(m, attr) is wrapper:
                setattr(m, attr, original)
        self._rebound.clear()

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "start", "end", "parent", "op"])
            w.writerows(self.spans)

    def metrics(self, op_seconds: float, scale: float, overhead_ratio: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}.  `op_seconds` is the
        unscaled time of the traced ops; reported times are multiplied by
        `scale`, shares and ratios are not."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        total_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            total_s[name] += end - start
            self_s[name] += end - start - child_time[i]

        def children(parent_name: str, *names: str) -> int:
            return sum(
                1 for name, _, _, parent, _ in spans
                if parent >= 0 and spans[parent][0] == parent_name and name in names
            )

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name] * scale, "s")
            out[f"{name}.total_s"] = (total_s[name] * scale, "s")
        for mod in MODULES:
            mod_self = sum(v for k, v in self_s.items() if k.startswith(mod + "."))
            out[f"{mod}.self_s"] = (mod_self * scale, "s")
            out[f"{mod}.share"] = (ratio(mod_self, op_seconds), "ratio")
        for name in TUPLE_COUNTED:
            out[f"{name}.ns_per_tuple"] = (
                ratio(total_s[name] * scale * 1e9, self.tuples[name]), "ns/tuple"
            )
        # Each candidate draw of a parity trial is one general-position test
        # (monochrome) or one colourful count (colourful kinds).
        out["audits.draw_yield"] = (ratio(
            calls["audits.parity_audit"],
            children("audits.parity_audit", "exact.in_general_position",
                     "depth.colourful_depth"),
        ), "ratio")
        out["sampling.core_class_yield"] = (ratio(
            calls["sampling.random_core_class"],
            children("sampling.random_core_class", "exact.in_convex_hull.strict"),
        ), "ratio")
        # Every candidate core point gets a strict core test; accepted ones
        # get a colourful count.
        out["depth.core_sample_yield"] = (ratio(
            children("depth.core_depth_samples", "depth.colourful_depth"),
            children("depth.core_depth_samples", "depth.core_membership"),
        ), "ratio")
        out["constructions.retries_mean"] = (
            ratio(sum(self.retries), len(self.retries)), "count"
        )
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out
