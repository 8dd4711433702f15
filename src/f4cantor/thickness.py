"""Thickness certification: exact gap ratios against the per-type uniform
bounds, the global ratio cap and its reciprocal thickness bound, and the
log-scale gap condition that upgrades thickness to log-thickness.

Every pass/fail decision here is an exact sign test; decimals appear only in
rendered reports.
"""

from fractions import Fraction
from typing import NamedTuple

from . import constants
from .segments import TAIL_VALUES, TYPE_TABLE, Gap, generate
from .cf import DomainError, apply_moebius, fold_matrix
from .surd import QuadSurd
from .utils import parallel_map


class TailOrder(ValueError):
    """Tail values not strictly increasing where the ratio bound needs it."""


class Degenerate(ValueError):
    """A zero-length segment where a positive length is required."""


class RatioBoundRecord(NamedTuple):
    """Uniform bounds for one segment type: bound_left caps |G|/|A_{2j-1}|,
    bound_right caps |G|/|A_{2j}|, both at most the decimal cap."""

    type_id: int
    bound_left: QuadSurd
    bound_right: QuadSurd
    decimal_cap: Fraction

    @property
    def bound(self) -> QuadSurd:
        return self.bound_left if self.bound_left >= self.bound_right else self.bound_right


def child_tail_values(type_id: int) -> tuple[QuadSurd, QuadSurd, QuadSurd, QuadSurd]:
    """The four tail values (a < b < c < d) of a type's two children,
    measured from the common prefix; the first child owns (a, b)."""
    spec = TYPE_TABLE[type_id]
    pairs = []
    for child_type, ext in spec.children:
        m = fold_matrix(ext)
        lo, hi = TAIL_VALUES[child_type]
        va, vb = apply_moebius(m, lo), apply_moebius(m, hi)
        pairs.append(tuple(sorted((va, vb))))
    (a, b), (c, d) = pairs
    if not (a < b < c < d):
        raise TailOrder(f"type {type_id} child tails interleave")
    return a, b, c, d


def uniform_ratio_bound_pair(a: QuadSurd, b: QuadSurd, c: QuadSurd, d: QuadSurd):
    """The two uniform ratio caps for tails a < b < c < d: the gap-to-first
    ratio is increasing in eps (cap at eps=1), the gap-to-second ratio is
    decreasing (cap at eps=1/5)."""
    if not (a < b < c < d):
        raise TailOrder(f"need a < b < c < d, got {[str(x) for x in (a, b, c, d)]}")
    left = ((a + 1) * (c - b)) / ((c + 1) * (b - a))
    right = ((d * 5 + 1) * (c - b)) / ((b * 5 + 1) * (d - c))
    return left, right


def uniform_ratio_bound(a: QuadSurd, b: QuadSurd, c: QuadSurd, d: QuadSurd) -> QuadSurd:
    left, right = uniform_ratio_bound_pair(a, b, c, d)
    return left if left >= right else right


def type_bound_records() -> list[RatioBoundRecord]:
    records = []
    for tid in sorted(TYPE_TABLE):
        left, right = uniform_ratio_bound_pair(*child_tail_values(tid))
        cap = constants.TYPE_BOUNDS[tid][2]
        rec = RatioBoundRecord(tid, left, right, cap)
        if rec.bound > cap:
            raise AssertionError(f"type {tid} bound exceeds its cap {cap}")
        records.append(rec)
    return records


def global_lambda(records: list[RatioBoundRecord] | None = None) -> QuadSurd:
    records = records or type_bound_records()
    return max(r.bound for r in records)


def tau_lower(records: list[RatioBoundRecord] | None = None) -> QuadSurd:
    """Reciprocal of the global ratio cap; certified > 1."""
    tau = 1 / global_lambda(records)
    if not tau > 1:
        raise AssertionError("thickness bound failed: 1/lambda <= 1")
    return tau


def gamma_value(lam: QuadSurd | None = None) -> QuadSurd:
    """gamma = ((2/lambda - 1)^2 - 1)/4, the threshold on t/(a+r) below which
    the ratio cap already implies the log condition."""
    lam = lam or global_lambda()
    two_over = 2 / lam
    return ((two_over - 1) ** 2 - 1) / 4


def gap_ratios_exact(gap: Gap) -> tuple[QuadSurd, QuadSurd]:
    """(|G|/|first child|, |G|/|second child|) in rule order, from exact
    endpoint differences."""
    g = gap.length
    first, second = _rule_children(gap)
    l1, l2 = first.length, second.length
    if l1.sign() <= 0 or l2.sign() <= 0:
        raise Degenerate(f"zero-length child under {gap.parent}")
    return g / l1, g / l2


def _rule_children(gap: Gap):
    # gap stores value-ordered children; rule order is (2j-1, 2j), which is
    # value order exactly when the parent prefix has even length
    # (segments._check_rule_shapes)
    if len(gap.parent.prefix) % 2 == 0:
        return gap.left, gap.right
    return gap.right, gap.left


def log_gap_condition(a, r, s, t) -> bool:
    """Sufficient exact condition for |log J2| <= min(|log J1|, |log J3|) on
    consecutive intervals J1=(a,a+r), J2=(a+r,a+r+s), J3=(a+r+s,a+r+s+t):
    s <= r and s^2 + (a+r)s - (a+r)t <= 0 (the radical-free form)."""
    vals = [x if isinstance(x, QuadSurd) else QuadSurd.from_rational(x) for x in (a, r, s, t)]
    a, r, s, t = vals
    if any(v.sign() <= 0 for v in (a, r, s, t)):
        raise DomainError("log gap condition needs positive a, r, s, t")
    if s > r:
        return False
    ar = a + r
    return (s * s + ar * s - ar * t).sign() <= 0


def log_conditions_for_gap(gap: Gap) -> tuple[bool, bool]:
    """The log condition in both orientations.  Forward: J1, J2, J3 are the
    left child, gap, right child.  Mirrored: the same intervals pushed
    through x -> 1/x, which preserves log-lengths and swaps the roles."""
    left, right = gap.left, gap.right
    fwd = log_gap_condition(left.lo, left.length, gap.length, right.length)
    mir = log_gap_condition(
        1 / right.hi,
        right.length / (right.lo * right.hi),
        gap.length / (gap.lo * gap.hi),
        left.length / (left.lo * left.hi),
    )
    return fwd, mir


def gamma_exclusion_check() -> dict:
    """Why the quadratic branch of the log condition cannot bind: gamma times
    the set minimum already exceeds 0.07 while no segment is longer than the
    root interval, whose length is below 0.07."""
    lam = global_lambda()
    gamma = gamma_value(lam)
    identity_ok = gamma == constants.GAMMA
    product = gamma * constants.ROOT_LO
    width = constants.ROOT_HI - constants.ROOT_LO
    return {
        "gamma": gamma,
        "identity_ok": identity_ok,
        "threshold_ok": product > constants.SEVEN_HUNDREDTHS,
        "width_ok": width < constants.SEVEN_HUNDREDTHS,
        "ok": identity_ok and product > constants.SEVEN_HUNDREDTHS
              and width < constants.SEVEN_HUNDREDTHS,
    }


class ConstantCheck(NamedTuple):
    name: str
    computed: QuadSurd
    expected: QuadSurd
    passed: bool


class GapFailure(NamedTuple):
    depth: int
    index: int
    kind: str


class CertReport(NamedTuple):
    """Everything `certify` verified, with exact values; pass flags are
    re-derivable from the stored surds."""

    depth: int
    gap_count: int
    lam: QuadSurd
    tau: QuadSurd
    gamma: QuadSurd
    worst_ratio: QuadSurd
    ratio_all_pass: bool
    log_condition_all_pass: bool
    constant_checks: tuple[ConstantCheck, ...] = ()
    failures: tuple[GapFailure, ...] = ()
    worst_gap: Gap | None = None

    @property
    def passed(self) -> bool:
        return (self.ratio_all_pass and self.log_condition_all_pass
                and not self.failures
                and all(c.passed for c in self.constant_checks))


def _check_gap_chunk(args):
    gaps, bounds_by_type, lam = args
    failures = []
    worst = None
    worst_gap = None
    log_ok = True
    for gap in gaps:
        r1, r2 = gap_ratios_exact(gap)
        bl, br = bounds_by_type[gap.parent.type_id]
        if r1 > bl or r2 > br:
            failures.append((gap.depth, gap.index, "type-bound"))
        big = r1 if r1 >= r2 else r2
        if big > lam:
            failures.append((gap.depth, gap.index, "lambda"))
        if worst is None or big > worst:
            worst, worst_gap = big, gap
        fwd, mir = log_conditions_for_gap(gap)
        if not (fwd and mir):
            log_ok = False
            failures.append((gap.depth, gap.index, "log-condition"))
    return worst, worst_gap, log_ok, failures


def constant_cross_checks(records: list[RatioBoundRecord],
                          lam: QuadSurd, tau: QuadSurd, gamma: QuadSurd) -> list[ConstantCheck]:
    from .decompose import mu_delta_bounds, product_interval
    from .segments import root_segment

    root = root_segment()
    prod_lo, prod_hi = product_interval()
    mu, delta = mu_delta_bounds()
    checks = [
        ConstantCheck("root_lo", root.lo, constants.ROOT_LO, root.lo == constants.ROOT_LO),
        ConstantCheck("root_hi", root.hi, constants.ROOT_HI, root.hi == constants.ROOT_HI),
        ConstantCheck("lambda", lam, constants.LAMBDA, lam == constants.LAMBDA),
        ConstantCheck("tau_lower", tau, constants.TAU_LOWER, tau == constants.TAU_LOWER),
        ConstantCheck("gamma", gamma, constants.GAMMA, gamma == constants.GAMMA),
        ConstantCheck("product_lo", prod_lo, constants.PRODUCT_LO, prod_lo == constants.PRODUCT_LO),
        ConstantCheck("product_hi", prod_hi, constants.PRODUCT_HI, prod_hi == constants.PRODUCT_HI),
        ConstantCheck("mu_bound", mu, constants.MU_BOUND, mu == constants.MU_BOUND),
        ConstantCheck("delta_bound", delta, constants.DELTA_BOUND, delta == constants.DELTA_BOUND),
    ]
    for rec in records:
        el, er, _cap = constants.TYPE_BOUNDS[rec.type_id]
        checks.append(ConstantCheck(f"type{rec.type_id}_bound_left", rec.bound_left, el,
                                    rec.bound_left == el))
        checks.append(ConstantCheck(f"type{rec.type_id}_bound_right", rec.bound_right, er,
                                    rec.bound_right == er))
    return checks


def certify(depth: int, jobs: int = 1, lambda_override: QuadSurd | None = None) -> CertReport:
    """Generate the construction to `depth` and check every gap against the
    ratio and log conditions; cross-check all named constants.

    `lambda_override` is a falsifiability hook for tests: substituting a
    smaller cap must make the report fail with witnesses.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    records = type_bound_records()
    lam_true = global_lambda(records)
    tau = tau_lower(records)
    gamma = gamma_value(lam_true)
    lam = lambda_override if lambda_override is not None else lam_true

    _, gaps = generate(depth)
    bounds_by_type = {r.type_id: (r.bound_left, r.bound_right) for r in records}
    chunks = [gaps[i:i + 512] for i in range(0, len(gaps), 512)]
    results = parallel_map(_check_gap_chunk,
                           [(c, bounds_by_type, lam) for c in chunks], jobs)

    worst = None
    worst_gap = None
    log_all = True
    failures: list[GapFailure] = []
    for w, wg, log_ok, fails in results:
        if w is not None and (worst is None or w > worst):
            worst, worst_gap = w, wg
        log_all = log_all and log_ok
        failures.extend(GapFailure(*f) for f in fails)

    gex = gamma_exclusion_check()
    checks = constant_cross_checks(records, lam_true, tau, gamma)
    checks.append(ConstantCheck("gamma_identity", gamma, constants.GAMMA, gex["ok"]))

    return CertReport(
        depth=depth,
        gap_count=len(gaps),
        lam=lam,
        tau=tau,
        gamma=gamma,
        worst_ratio=worst,
        ratio_all_pass=not any(f.kind in ("type-bound", "lambda") for f in failures),
        log_condition_all_pass=log_all,
        constant_checks=tuple(checks),
        failures=tuple(failures),
        worst_gap=worst_gap,
    )
