"""In-memory span tracer that wraps f4cantor's module functions from outside.

`Tracer.install` replaces each named function with a wrapper in every loaded
f4cantor module that refers to it (so `from .cf import eval_finite` inside
`decompose` is wrapped too), and `uninstall` puts the originals back.  A
span records its id, its parent span, the op (trace) it belongs to, the
function name and perf_counter_ns start and end.  A layer's self time is the
span's duration minus the durations of its direct child spans; calls are
nested and single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# functions wrapped in the traced run, by module; the module name is the layer.
# thickness._check_gap_chunk is the per-gap loop that utils.parallel_map
# drives, so its work counts as thickness, not utils.
TRACED = {
    "cli": ("run",),
    "report": ("certify_doc", "oracle_doc", "decompose_doc", "stamp", "to_json"),
    "thickness": ("certify", "_check_gap_chunk", "gap_ratios_exact", "log_conditions_for_gap",
                  "type_bound_records", "constant_cross_checks",
                  "gamma_exclusion_check"),
    "segments": ("generate", "subdivide"),
    "oracle": ("cylinder_level_check", "containment_check"),
    "kernels": ("scan_cylinders", "scan_nested", "containment_scan"),
    "words": ("count_words",),
    "decompose": ("decompose", "witness_for_target", "verify_construction"),
    "cf": ("perron_rho_n", "eval_finite", "convergents"),
    "surd": ("parse_surd",),
    "utils": ("parallel_map",),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, trace, name, start_ns, end_ns)
        self._stack: list[int] = []
        self._next = 0
        self._patched: list[tuple] = []
        self.trace = ""

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, parent, self.trace, name, start, end))
        return traced

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "f4cantor" or n.startswith("f4cantor."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"f4cantor.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, trace, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "trace": trace,
                                     "name": name, "start_ns": start,
                                     "end_ns": end}) + "\n")


def summarize(spans, trace: str) -> dict:
    """Per-function totals for one trace: calls, inclusive and self seconds
    (zeros for a function the trace never called)."""
    mine = [s for s in spans if s[2] == trace]
    child_ns: dict[int, int] = defaultdict(int)
    for sid, parent, _, _, start, end in mine:
        if parent is not None:
            child_ns[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    for sid, _, _, name, start, end in mine:
        row = out[name]
        row["calls"] += 1
        row["incl_s"] += (end - start) / 1e9
        row["self_s"] += (end - start - child_ns[sid]) / 1e9
    return out


def layer_self(summary: dict) -> dict:
    """Self seconds per layer (the module part of each span name)."""
    out: dict[str, float] = defaultdict(float)
    for name, row in summary.items():
        out[name.split(".", 1)[0]] += row["self_s"]
    return dict(out)


def children_of(spans, name: str, trace: str, child: str) -> list[int]:
    """For each span `name` in `trace`, how many direct `child` spans it has."""
    ids = {s[0]: 0 for s in spans if s[2] == trace and s[3] == name}
    for s in spans:
        if s[1] in ids and s[3] == child:
            ids[s[1]] += 1
    return list(ids.values())
