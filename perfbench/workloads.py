"""Workload inputs, ops and output checks.

Every input is made from the workload seed; the library only ever sees the
generated targets and command lines.  An op returns an `OpResult` holding
its latency, the program's own failure verdicts (exceptions it raises for
known failure modes, `passed: false`, failing witness sub-checks) and the
benchmark's own check failures (outputs that contradict an independent
recomputation or a reference document hash).  Library functions are called
through their module (`cli.run`, `decomposition.witness_for_target`) so the
traced run sees the wrapped versions.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from f4cantor import cli, constants
from f4cantor.decompose import Stuck
from f4cantor.segments import DepthLimit
from f4cantor.surd import DEFAULT_DISC, QuadSurd, cross_field_cmp, parse_surd

WORKLOADS = ("certify", "oracle", "decompose", "witness")

CERTIFY_DEPTH = 14
ORACLE_DEPTH = 8
DECOMPOSE_STEPS = 60
DECOMPOSE_TARGETS = 50
WITNESS_STEPS, WITNESS_BLOCKS = 240, 64
WITNESS_TARGETS = 2           # the mu bound and one seeded rational
FOREIGN_DISC = 2

# the package re-exports the function `decompose` under the module's name
decomposition = importlib.import_module("f4cantor.decompose")

# the program signals these failure modes itself; any other exception is a
# benchmark check failure
EXPECTED_ERRORS = (Stuck, DepthLimit, AssertionError)

# rational corner of the product interval (~[18.1579, 18.5916]) used by the
# acceptance corpus; every target lies inside it
TARGET_LO, TARGET_HI = Fraction(18158, 1000), Fraction(18591, 1000)


@dataclass
class OpResult:
    label: str
    seconds: float
    verdict_fail: list[str] = field(default_factory=list)
    check_fail: list[str] = field(default_factory=list)
    digest: str | None = None
    counts: dict = field(default_factory=dict)   # the few numbers the traced run needs

    @property
    def failed(self) -> bool:
        return bool(self.verdict_fail or self.check_fail)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _uniform_target(rng: random.Random) -> Fraction:
    return TARGET_LO + (TARGET_HI - TARGET_LO) * Fraction(rng.randrange(10 ** 12), 10 ** 12)


def _surd_text(x: Fraction, disc: int, rng: random.Random) -> str:
    """A surd (p + q*sqrt(disc))/r within 1/r of x."""
    q = rng.randrange(1, 60) * rng.choice((1, -1))
    r = rng.randrange(10 ** 4, 10 ** 6)
    root = Fraction(math.isqrt(disc * 10 ** 40), 10 ** 20)
    p = round(x * r - q * root)
    return f"({p} {'+' if q > 0 else '-'} {abs(q)}*sqrt({disc}))/{r}"


def decompose_targets(seed: int) -> list[tuple[str, int | None]]:
    """(target text, --disc or None): rationals, surds in Q(sqrt(26565)) and
    surds over sqrt(2), in rotation."""
    rng = _rng("decompose", seed)
    out = []
    for i in range(DECOMPOSE_TARGETS):
        x = _uniform_target(rng)
        kind = i % 3
        if kind == 0:
            out.append((f"{x.numerator}/{x.denominator}", None))
        elif kind == 1:
            out.append((_surd_text(x, DEFAULT_DISC, rng), None))
        else:
            out.append((_surd_text(x, FOREIGN_DISC, rng), FOREIGN_DISC))
    return out


def witness_targets(seed: int) -> list[QuadSurd]:
    """The mu-bound target first, then seeded rationals."""
    rng = _rng("witness", seed)
    return [constants.MU_BOUND] + [QuadSurd.from_rational(_uniform_target(rng))
                                   for _ in range(WITNESS_TARGETS - 1)]


def digest(doc: dict) -> str:
    """Hash of a document without its `generated_at` stamp."""
    body = {k: v for k, v in doc.items() if k != "generated_at"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _run_cli(argv: list[str], label: str) -> tuple[OpResult, dict | None]:
    args = cli.build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code, text = cli.run(args)
    except EXPECTED_ERRORS as exc:
        return OpResult(label, time.perf_counter() - t0,
                        verdict_fail=[f"raised {type(exc).__name__}: {exc}"]), None
    except Exception as exc:  # a crash is a wrong output, not a verdict
        return OpResult(label, time.perf_counter() - t0,
                        check_fail=[f"raised {type(exc).__name__}: {exc}"]), None
    seconds = time.perf_counter() - t0
    doc = json.loads(text)
    res = OpResult(label, seconds, digest=digest(doc))
    if code != 0 or not doc.get("passed"):
        res.verdict_fail.append("passed")
    return res, doc


def certify_op() -> OpResult:
    res, doc = _run_cli(["certify", "--depth", str(CERTIFY_DEPTH)], "certify")
    if doc is not None:
        if doc["gap_count"] != 2 ** CERTIFY_DEPTH - 1:
            res.check_fail.append("gap_count")
        if doc["failures"] or not (doc["ratio_all_pass"] and doc["log_condition_all_pass"]):
            res.verdict_fail.append("gap_checks")
        if not all(c["passed"] for c in doc["constant_checks"]):
            res.verdict_fail.append("constant_checks")
    return res


def oracle_op() -> OpResult:
    res, doc = _run_cli(["oracle-check", "--depth", str(ORACLE_DEPTH)], "oracle")
    if doc is not None:
        levels = doc["levels"]
        if [lv["word_len"] for lv in levels] != list(range(3, ORACLE_DEPTH + 1)):
            res.check_fail.append("levels")
        if any(lv["cylinders"] != lv["transfer_count"] for lv in levels):
            res.check_fail.append("cylinders_vs_transfer_count")
        res.counts["cylinders"] = sum(lv["cylinders"] for lv in levels)
    return res


def decompose_op(target: str, disc: int | None, index: int) -> OpResult:
    argv = ["--disc", str(disc)] if disc is not None else []
    argv += ["decompose", "--target", target, "--depth", str(DECOMPOSE_STEPS), "--blocks", "0"]
    res, doc = _run_cli(argv, f"decompose[{index}]")
    if doc is not None:
        if len(doc["transcript"]) != DECOMPOSE_STEPS:
            res.check_fail.append("transcript_length")
        if not doc["width_strictly_decreasing"]:
            res.verdict_fail.append("width_strictly_decreasing")
        # recheck the final hull against the target from the document alone
        t = parse_surd(target, disc=disc)
        x, y = doc["x_interval"], doc["y_interval"]
        lo = parse_surd(x["lo"]["exact"]) * parse_surd(y["lo"]["exact"])
        hi = parse_surd(x["hi"]["exact"]) * parse_surd(y["hi"]["exact"])
        if not (cross_field_cmp(lo, t) <= 0 <= cross_field_cmp(hi, t)):
            res.check_fail.append("hull_contains_target")
        if not hi - lo < Fraction(1, 10 ** 6):
            res.check_fail.append("final_width_below_1e-6")
    return res


WITNESS_SUBCHECKS = ("patterns_ok", "distances_strictly_decreasing",
                     "junction_distances_bounded", "off_junction_ok")


def witness_op(target: QuadSurd, index: int) -> OpResult:
    label = f"witness[{index}]"
    t0 = time.perf_counter()
    try:
        w, state = decomposition.witness_for_target(target, steps=WITNESS_STEPS,
                                                    blocks=WITNESS_BLOCKS)
        rep = decomposition.verify_construction(w, target, i_max=6, scan_digits=10_000,
                                                product_width=state.width)
    except EXPECTED_ERRORS as exc:
        return OpResult(label, time.perf_counter() - t0,
                        verdict_fail=[f"raised {type(exc).__name__}: {exc}"])
    except Exception as exc:
        return OpResult(label, time.perf_counter() - t0,
                        check_fail=[f"raised {type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - t0
    doc = {
        "target": target.canonical_text(),
        "digits_sha256": hashlib.sha256(bytes(w.digits)).hexdigest(),
        "digits": len(w.digits),
        "junctions": list(w.junctions),
        "cuts": [list(c) for c in w.cuts],
        "width": state.width.canonical_text(),
        "verify": {**rep, "junction_distances": [d.canonical_text()
                                                 for d in rep["junction_distances"]]},
    }
    res = OpResult(label, seconds, digest=digest(doc),
                   counts={"digits": len(w.digits),
                           "junctions": len(rep["junction_distances"])})
    res.verdict_fail.extend(k for k in WITNESS_SUBCHECKS if not rep[k])
    if len(w.digits) < 10_000:
        res.check_fail.append("digits_below_10000")
    if len(rep["junction_distances"]) != 6:
        res.check_fail.append("junctions_checked")
    if rep["ok"] != all(rep[k] for k in WITNESS_SUBCHECKS):
        res.check_fail.append("ok_flag_consistent")
    return res


def make_ops(workload: str, seed: int) -> list:
    """The ops of one pass, as zero-argument callables; a run repeats the
    pass."""
    if workload == "certify":
        return [certify_op]
    if workload == "oracle":
        return [oracle_op]
    if workload == "decompose":
        return [lambda t=t, d=d, i=i: decompose_op(t, d, i)
                for i, (t, d) in enumerate(decompose_targets(seed))]
    if workload == "witness":
        return [lambda t=t, i=i: witness_op(t, i)
                for i, t in enumerate(witness_targets(seed))]
    raise ValueError(workload)
