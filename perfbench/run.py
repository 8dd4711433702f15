"""f4cantor benchmark entry point.

    python3 perfbench/run.py --workload {certify,oracle,decompose,witness}
                             --seed N --seconds S --trace {0,1} [--write-refs]

Run from the root of a checkout.  With --trace 0 it first times `import
f4cantor` in SETUP_SHOTS fresh interpreters (setup_s is their median), then
runs the workload in a fresh interpreter (perfbench/worker.py) and prints
the end-to-end metrics.  With --trace 1 the worker makes the traced run and
prints the per-layer metrics.  The last line of standard output is the JSON
result.  --write-refs stores the documents' hashes as the new references of
the byte-identity gate; use it only when a change alters documents on purpose.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("certify", "oracle", "decompose", "witness")
SETUP_SHOTS = 21
TIME_LIMIT_S = 170

IMPORT_SHOT = f"""
import sys, time
sys.path.insert(0, {str(SRC)!r})
t0 = time.perf_counter()
import f4cantor
print(time.perf_counter() - t0)
print(f4cantor.__file__)
"""


def setup_seconds(deadline: float) -> list[float]:
    shots = []
    for _ in range(SETUP_SHOTS):
        out = subprocess.run([sys.executable, "-c", IMPORT_SHOT], cwd=ROOT, check=True,
                             capture_output=True, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
        seconds, where = out.stdout.split("\n")[:2]
        if SRC.resolve() not in Path(where).resolve().parents:
            raise SystemExit(f"f4cantor resolved to {where}, not the checkout under test")
        shots.append(float(seconds))
    return shots


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-refs", action="store_true")
    args = ap.parse_args()

    if not (SRC / "f4cantor" / "__init__.py").is_file():
        print(f"error: no f4cantor sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S

    metrics = {}
    if not args.trace:
        shots = setup_seconds(deadline)
        metrics["setup_s"] = {"value": statistics.median(shots), "unit": "s"}
        print(f"setup_s: {statistics.median(shots):.4f} s  (median `import f4cantor` "
              f"over {len(shots)} fresh interpreters; min {min(shots):.4f}, "
              f"max {max(shots):.4f})")

    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace)] + (["--write-refs"] if args.write_refs else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        print(f"error: {args.workload} worker exceeded {TIME_LIMIT_S} s", file=sys.stderr)
        return 3
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print(f"error: {args.workload} worker exited with {proc.returncode}", file=sys.stderr)
        return 3
    result = json.loads(lines[-1])
    result["metrics"] = {**metrics, **result["metrics"]}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
