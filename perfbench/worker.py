"""One workload in a fresh interpreter: `run.py` starts this script once per run.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--write-refs]

It imports f4cantor from the checkout's `src/` (and refuses to run if the
import resolves anywhere else), prints what it measured line by line, and
ends with one JSON line that `run.py` turns into the benchmark result.

Untraced (TRACE=0): a closed loop with one client repeats the workload's
pass (`workloads.make_ops`); the next op starts when the previous one
returns, and no pass starts that the last pass's duration says would end
after SECONDS.  wall_s is the time of one pass with every op at the fastest
time the run saw for it: other tenants' load on a shared host only ever
adds time, by up to 1.6x for seconds to minutes at a time, and each op's
fastest run is the figure it inflates least.  Pass times and the op latency
p50/p90 are printed beside it.

Traced (TRACE=1): the workload's pass once untraced and once traced (the
difference is the tracing overhead), then one traced pass of each of the
other three workloads, the `--jobs` probe, the surd and kernel probes and the
attempt bisection.  Every per-layer metric comes from the pass that
exercises its layer, so each traced run reports all of them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFS = HERE / "refs.json"
OUT = HERE / "out"

JOBS_DEPTH = 12
KERNEL_LENGTH = 10
BISECT_TARGETS = 6


def import_checkout() -> None:
    sys.path.insert(0, str(SRC))
    import f4cantor

    where = Path(f4cantor.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"f4cantor resolved to {where}, not the checkout under test")


def provenance() -> dict:
    from f4cantor import kernels

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "f4cantor").rglob("*")):
        if path.suffix in (".py", ".pyx", ".c") and "__pycache__" not in path.parts:
            src_hash.update(str(path.relative_to(SRC)).encode())
            src_hash.update(path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": src_hash.hexdigest()[:16],
        "backend": kernels.backend_name(),
        "available_backends": sorted(kernels.available_backends()),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_pass(ops) -> list:
    return [op() for op in ops]


def pass_seconds(results) -> float:
    return sum(r.seconds for r in results)


def _ref_table(refs: dict, label: str, seed: int) -> dict:
    """References of the op's workload: seed-independent ('*') or per seed."""
    mine = refs.get(label.split("[")[0], {})
    return mine.get("*", mine.get(str(seed), {}))


def check_refs(seed: int, results) -> tuple[int, int]:
    """Byte-identity gate: compare op digests with the stored references.
    Returns (compared, mismatched); a mismatch is a check failure."""
    refs = json.loads(REFS.read_text()) if REFS.is_file() else {}
    compared = mismatched = 0
    for r in results:
        want = _ref_table(refs, r.label, seed).get(r.label)
        if want is None or r.digest is None:
            continue
        compared += 1
        if r.digest != want:
            mismatched += 1
            r.check_fail.append("byte_identity")
    return compared, mismatched


def write_refs(workload: str, seed: int, results) -> None:
    refs = json.loads(REFS.read_text()) if REFS.is_file() else {}
    key = "*" if workload in ("certify", "oracle") else str(seed)
    refs.setdefault(workload, {})[key] = {r.label: r.digest for r in results
                                          if r.digest is not None}
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def report_failures(results) -> None:
    by_name: dict[str, int] = {}
    for r in results:
        for name in r.verdict_fail + r.check_fail:
            by_name[name] = by_name.get(name, 0) + 1
    failed = sum(r.failed for r in results)
    print(f"ops_attempted: {len(results)}  ops_failed: {failed}  "
          f"fail_share: {failed / len(results):.4f}")
    for name, n in sorted(by_name.items()):
        print(f"  failing sub-check {name}: {n} op(s)")
    for r in results:
        if r.failed:
            print(f"  {r.label}: verdict {r.verdict_fail} checks {r.check_fail}")


def untraced(workload: str, seed: int, seconds: float) -> tuple[list, dict]:
    from workloads import make_ops

    ops = make_ops(workload, seed)
    results, passes = [], []
    start = time.perf_counter()
    while True:
        got = run_pass(ops)
        results.extend(got)
        passes.append(pass_seconds(got))
        if time.perf_counter() - start + passes[-1] > seconds:
            break
    best: dict[str, float] = {}
    for r in results:
        best[r.label] = min(best.get(r.label, r.seconds), r.seconds)
    wall = sum(best.values())
    lat_ms = [r.seconds * 1e3 for r in results]
    p90 = percentile(lat_ms, 0.9)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"closed loop, 1 client: {len(passes)} pass(es) of {len(ops)} op(s), "
          f"{len(results)} op(s) in {time.perf_counter() - start:.1f} s")
    print(f"wall_s: {wall:.4f} s  (one pass with each op at its fastest of "
          f"{len(passes)} runs; passes took {min(passes):.4f} s fastest, "
          f"{statistics.median(passes):.4f} s median, {max(passes):.4f} s slowest)")
    print(f"op latency: p50 {percentile(lat_ms, 0.5):.3f} ms, p90 {p90:.3f} ms  "
          f"(n={len(lat_ms)} ops, {sum(x > p90 for x in lat_ms)} beyond p90)")
    print(f"peak_rss_mb: {rss_mb:.1f} MB  (ru_maxrss of this process)")
    return results, {"wall_s": (wall, "s"), "peak_rss_mb": (rss_mb, "MB")}


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, summaries: dict, by_trace: dict) -> dict:
    """Per-layer metrics from the spans of the four traced passes."""
    from tracing import children_of, layer_self

    m: dict[str, tuple[float, str]] = {}
    s = summaries["certify"]
    m["segments.generate_s"] = (s["segments.generate"]["incl_s"], "s")
    m["segments.count"] = (1 + 2 * sum(children_of(spans, "segments.generate", "certify",
                                                   "segments.subdivide")), "count")
    m["thickness.gap_ratios_s"] = (s["thickness.gap_ratios_exact"]["incl_s"], "s")
    m["thickness.log_conditions_s"] = (s["thickness.log_conditions_for_gap"]["incl_s"], "s")
    m["thickness.gaps_checked"] = (s["thickness.gap_ratios_exact"]["calls"], "count")
    m["thickness.certify_self_s"] = (s["thickness.certify"]["self_s"], "s")

    s = summaries["oracle"]
    scanned = sum(r.counts.get("cylinders", 0) for r in by_trace["oracle"])
    for scan in ("scan_cylinders", "scan_nested", "containment_scan"):
        m[f"kernels.{scan}_s"] = (s[f"kernels.{scan}"]["incl_s"], "s")
    m["kernels.cylinders_per_s"] = (_per(scanned, s["kernels.scan_cylinders"]["incl_s"]), "1/s")
    m["words.count_words_s"] = (s["words.count_words"]["incl_s"], "s")
    m["oracle.self_s"] = (layer_self(s).get("oracle", 0.0), "s")

    s = summaries["decompose"]
    m["decompose.decompose_s"] = (_per(s["decompose.decompose"]["incl_s"],
                                       s["decompose.decompose"]["calls"]), "s")
    m["segments.subdivide_us"] = (_per(s["segments.subdivide"]["incl_s"] * 1e6,
                                       s["segments.subdivide"]["calls"]), "us")

    s = summaries["witness"]
    n = len(by_trace["witness"])
    m["decompose.witness_for_target_s"] = (s["decompose.witness_for_target"]["incl_s"] / n, "s")
    m["decompose.verify_construction_s"] = (
        s["decompose.verify_construction"]["incl_s"] / n, "s")
    for fn in ("perron_rho_n", "eval_finite", "convergents"):
        m[f"cf.{fn}_s"] = (s[f"cf.{fn}"]["self_s"] / n, "s")
    done = [r.counts for r in by_trace["witness"] if r.counts]
    digits = sum(c["digits"] for c in done)
    junctions = sum(c["junctions"] for c in done)
    # verify_construction's direct perron_rho_n calls: one per checked junction
    # plus one per sampled off-junction index
    checked = sum(children_of(spans, "decompose.verify_construction", "witness",
                              "cf.perron_rho_n")) - junctions
    m["witness.digits"] = (_per(digits, len(done)), "count")
    m["witness.offjunction_checked"] = (_per(checked, len(done)), "count")
    m["witness.offjunction_coverage"] = (_per(checked, digits), "ratio")
    m["witness.junctions_checked"] = (_per(junctions, len(done)), "count")

    m["report.doc_s"] = (sum(layer_self(summaries[w]).get("report", 0.0) for w in summaries), "s")
    return m


def traced(workload: str, seed: int) -> tuple[list, dict]:
    import probes
    from tracing import Tracer, layer_self, summarize
    from workloads import WORKLOADS, OpResult, make_ops

    order = [workload] + [w for w in WORKLOADS if w != workload]
    results = run_pass(make_ops(workload, seed))
    plain_s = pass_seconds(results)

    tracer = Tracer()
    tracer.install()
    by_trace: dict[str, list] = {}
    try:
        for w in order:
            tracer.trace = w
            by_trace[w] = run_pass(make_ops(w, seed))
        tracer.trace = "jobs"
        speedup, jobs, jobs_ok = probes.jobs_speedup(JOBS_DEPTH)
    finally:
        tracer.uninstall()
    for w in order:
        results.extend(by_trace[w])
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload}-{seed}.jsonl"
    tracer.write(span_file)
    spans = tracer.spans

    overhead = pass_seconds(by_trace[workload]) - plain_s
    print(f"tracing overhead on the {workload} pass: {overhead:+.4f} s "
          f"({overhead / plain_s:+.1%} of {plain_s:.4f} s untraced); "
          f"{len(spans)} spans in {span_file.relative_to(ROOT)}")
    summaries = {w: summarize(spans, w) for w in order}
    for w in order:
        total = pass_seconds(by_trace[w])
        split = layer_self(summaries[w])
        parts = ", ".join(f"{layer} {s / total:.1%}" for layer, s in
                          sorted(split.items(), key=lambda kv: -kv[1]))
        print(f"layer split (self time) of the {w} pass, {total:.3f} s: {parts}, "
              f"outside spans {1 - sum(split.values()) / total:.1%}")

    m = layer_metrics(spans, summaries, by_trace)
    m["utils.parallel_speedup_j2"] = (speedup, "x")
    print(f"--jobs probe: certify({JOBS_DEPTH}) jobs=1 vs jobs={jobs} "
          f"(nproc {len(os.sched_getaffinity(0))}): {speedup:.3f}x")
    for name, value_unit in probes.surd_ops(seed).items():
        m[f"surd.{name}"] = value_unit
    kernels_ok = probes.kernel_scans([KERNEL_LENGTH])
    attempts = probes.decompose_attempts(seed, BISECT_TARGETS)
    m["decompose.attempts"] = (_per(sum(attempts), len(attempts)), "count")
    m["decompose.useful_ratio"] = (_per(len(attempts) * probes.DECOMPOSE_STEPS,
                                        sum(attempts)), "ratio")
    m["trace.overhead_s"] = (overhead, "s")

    for name, ok in (("jobs-probe", jobs_ok), ("kernels-probe", kernels_ok)):
        results.append(OpResult(name, 0.0, check_fail=[] if ok else ["results_agree"]))
    return results, m


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    import_checkout()
    prov = provenance()
    print("provenance: " + json.dumps(prov, sort_keys=True))
    if "compiled" not in prov["available_backends"]:
        print("compiled backend absent: every scan runs on the pure backend")

    if trace:
        results, metrics = traced(workload, seed)
    else:
        results, metrics = untraced(workload, seed, seconds)

    if "--write-refs" in argv:
        if trace:
            raise SystemExit("--write-refs needs an untraced run")
        write_refs(workload, seed, results)
        print(f"wrote references for {workload} seed {seed} to {REFS.relative_to(ROOT)}")
    compared, mismatched = check_refs(seed, results)
    print(f"byte identity: {compared} op(s) compared with references, {mismatched} "
          f"mismatched, {len(results) - compared} without a reference")
    report_failures(results)
    correct = not any(r.check_fail for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
