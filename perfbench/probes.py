"""Layer probes of the traced run: calls that time one layer on its own.

`kernel_scans` is the benchmark's one timing path for the enumeration
kernels: it times each scan on every backend in `available_backends()` and,
when the compiled backend exists, asserts that it agrees with the pure one.
"""

from __future__ import annotations

import os
import random
import statistics
import time

from f4cantor.decompose import Stuck, decompose
from f4cantor.kernels import available_backends
from f4cantor.segments import generate
from f4cantor.surd import QuadSurd, parse_surd
from f4cantor.thickness import certify

from workloads import DECOMPOSE_STEPS, decompose_targets

SCANS = ("scan_cylinders", "scan_nested", "containment_scan")


def jobs_speedup(depth: int) -> tuple[float, int, bool]:
    """certify(depth) with jobs=1 against jobs=min(2, nproc): (speedup, jobs,
    whether the two reports agree)."""
    jobs = min(2, len(os.sched_getaffinity(0)))
    t0 = time.perf_counter()
    one = certify(depth, jobs=1)
    t1 = time.perf_counter()
    many = certify(depth, jobs=jobs)
    t2 = time.perf_counter()
    same = (one.gap_count == many.gap_count and one.worst_ratio == many.worst_ratio
            and one.failures == many.failures and one.passed == many.passed)
    return (t1 - t0) / (t2 - t1), jobs, same


def _ns_per_op(loop, n: int, repeat: int = 15) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter_ns()
        loop()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / n


def surd_ops(seed: int, depth: int = 8, pairs: int = 256) -> dict:
    """Median ns per QuadSurd construction, product, comparison and quotient
    on endpoint pairs drawn (by seed) from the depth-8 segments."""
    segs, _ = generate(depth)
    rng = random.Random(f"surd:{seed}")
    picked = [(rng.choice(segs), rng.choice(segs)) for _ in range(pairs)]
    xs = [(a.lo, b.hi) for a, b in picked]
    parts = [(x.p, x.q, x.r, x.disc) for x, _ in xs]

    def init():
        for p, q, r, d in parts:
            QuadSurd(p, q, r, d)

    def mul():
        for x, y in xs:
            x * y

    def cmp():
        for x, y in xs:
            x < y

    def div():
        for x, y in xs:
            x / y

    return {f"{name}_ns": (_ns_per_op(fn, pairs), "ns")
            for name, fn in (("init", init), ("mul", mul), ("cmp", cmp), ("div", div))}


def kernel_scans(lengths, repeat: int = 1) -> bool:
    """Print the best-of-`repeat` time of each scan per backend and length;
    return False when the compiled and pure backends disagree."""
    backends = available_backends()
    pure, fast = backends["pure"], backends.get("compiled")
    agree = True
    if fast is not None:
        small = min(lengths)
        agree = (pure.scan_cylinders(small) == fast.scan_cylinders(small)
                 and pure.containment_scan(small) == fast.containment_scan(small))
    for length in lengths:
        for scan in SCANS:
            row = []
            for name, mod in backends.items():
                best = float("inf")
                for _ in range(repeat):
                    t0 = time.perf_counter()
                    out = getattr(mod, scan)(length)
                    best = min(best, time.perf_counter() - t0)
                row.append(f"{name} {best:.4f} s")
            print(f"kernel probe {scan} len {length} ({out['count']} counted): "
                  + ", ".join(row))
    if fast is None:
        print("kernel probe: compiled backend not built; pure backend only")
    return agree


def decompose_attempts(seed: int, n: int) -> list[int]:
    """Attempts `decompose` uses on the first n seeded targets, found from
    outside: the least `attempt_budget` that does not raise Stuck."""
    out = []
    for text, disc in decompose_targets(seed)[:n]:
        target = parse_surd(text, disc=disc)
        lo, hi = DECOMPOSE_STEPS - 1, 200 + 50 * DECOMPOSE_STEPS  # fails, default budget
        try:
            decompose(target, DECOMPOSE_STEPS, attempt_budget=hi)
        except Stuck:
            print(f"decompose attempts: {text} is Stuck at the default budget; skipped")
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                decompose(target, DECOMPOSE_STEPS, attempt_budget=mid)
                hi = mid
            except Stuck:
                lo = mid
        out.append(hi)
    print(f"decompose attempts (bisection over attempt_budget, first {n} targets): {out}")
    return out
