"""Thickness certification: exact gap ratios against the per-type uniform
bounds, the global ratio cap and its reciprocal thickness bound, and the
log-scale gap condition that upgrades thickness to log-thickness.

Every pass/fail decision here is an exact sign test; decimals appear only in
rendered reports.
"""

from fractions import Fraction
from typing import NamedTuple

from . import constants
from .segments import (MAX_GENERATE_DEPTH, TYPE_TABLE, DepthLimit, Gap, _endpoints,
                       frame_segment, root_segment, rule_step, segment_frame, subdivide)
from .cf import (DomainError, fold_matrix, moebius_cmp, moebius_mul, moebius_product_cmp,
                 moebius_sub, moebius_surd)
from .surd import DEFAULT_DISC, FieldMismatch, QuadSurd
from .utils import parallel_map, usable_cpus


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
    measured from the common prefix; the first child owns (a, b)
    (`segments._check_rule_shapes` proves the order at import)."""
    (t1, e1), (t2, e2) = TYPE_TABLE[type_id].children
    ends = _endpoints(fold_matrix(e1), t1) + _endpoints(fold_matrix(e2), t2)
    return tuple(moebius_surd(e, DEFAULT_DISC) for e in ends)


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


def _moebius_constant(x: QuadSurd) -> tuple[int, int, int, int]:
    """A constant as a Moebius-form value of the default field, (p, q, r, 0).
    A rational of any field re-embeds; an irrational of another field
    raises `FieldMismatch`, as comparing it with a gap ratio would."""
    if x.q and x.disc != DEFAULT_DISC:
        raise FieldMismatch(f"sqrt({DEFAULT_DISC}) vs sqrt({x.disc})")
    return x.p, x.q, x.r, 0


def _log_conditions(left_lo, left_hi, right_lo, right_hi, g, left_len, right_len):
    """`log_conditions_for_gap` on Moebius-form endpoints, given the gap
    g = right_lo - left_hi and both child lengths.  Forward, a + r = left_hi
    and a + r + s = right_lo, so the condition is g <= |left| and
    g*right_lo <= left_hi*|right|.  Mirrored through x -> 1/x it is
    g*right_hi <= left_hi*|right| and g*left_lo <= left_hi*|left|."""
    fwd = (moebius_cmp(g, left_len, DEFAULT_DISC) <= 0
           and moebius_product_cmp(g, right_lo, left_hi, right_len, DEFAULT_DISC) <= 0)
    mir = (moebius_product_cmp(g, right_hi, left_hi, right_len, DEFAULT_DISC) <= 0
           and moebius_product_cmp(g, left_lo, left_hi, left_len, DEFAULT_DISC) <= 0)
    return fwd, mir


def _worse(a, b) -> bool:
    """Whether worst-gap candidate a = (g, short, depth, index, parent frame)
    beats b: a larger g/short, or an equal one at a smaller (depth, index),
    the first in generation order."""
    c = moebius_product_cmp(a[0], b[1], b[0], a[1], DEFAULT_DISC)
    return c > 0 or (c == 0 and a[2:4] < b[2:4])


def _check_gap_chunk(args):
    """Check every gap of the subtree under the frame `top` down to gap
    depth `stop`, depth-first on `rule_step` frames with O(depth) state.
    Each check is one exact sign test on the children's endpoint images;
    `bounds_by_type` and `lam` are Moebius-form constants.  Returns the gap
    count, the worst candidate for `_worse` (None without a gap) and the
    failures as (depth, index, kind) in walk order.  `perfbench/tracing.py`
    wraps it by this name."""
    top, stop, bounds_by_type, lam = args
    disc = DEFAULT_DISC
    count = 0
    worst = None
    failures = []
    stack = [top] if top[5] < stop else []
    while stack:
        frame = stack.pop()
        c1, c2, first_left = rule_step(frame)
        depth, index = c1[5], frame[6]
        l1 = moebius_sub(c1[4], c1[3], disc)
        l2 = moebius_sub(c2[4], c2[3], disc)
        left, right, left_len, right_len = (c1, c2, l1, l2) if first_left else (c2, c1, l2, l1)
        left_lo, left_hi, right_lo, right_hi = left[3], left[4], right[3], right[4]
        g = moebius_sub(right_lo, left_hi, disc)
        bl, br = bounds_by_type[frame[1]]
        if (moebius_cmp(g, moebius_mul(bl, l1, disc), disc) > 0
                or moebius_cmp(g, moebius_mul(br, l2, disc), disc) > 0):
            failures.append((depth, index, "type-bound"))
        short = l1 if moebius_cmp(l1, l2, disc) <= 0 else l2
        if moebius_cmp(g, moebius_mul(lam, short, disc), disc) > 0:
            failures.append((depth, index, "lambda"))
        cand = (g, short, depth, index, frame)
        if worst is None or _worse(cand, worst):
            worst = cand
        fwd, mir = _log_conditions(left_lo, left_hi, right_lo, right_hi, g, left_len, right_len)
        if not (fwd and mir):
            failures.append((depth, index, "log-condition"))
        count += 1
        if depth < stop:
            stack.extend((c2, c1))
    return count, worst, failures


def constant_cross_checks(records: list[RatioBoundRecord],
                          lam: QuadSurd, tau: QuadSurd, gamma: QuadSurd) -> list[ConstantCheck]:
    from .decompose import mu_delta_bounds, product_interval

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
    """Check every gap of the construction down to `depth` against the ratio
    and log conditions; cross-check all named constants.

    The gaps are walked on integer `rule_step` frames, and surds are built
    only for the constants and the one worst gap reported.  The walk's items
    for `utils.parallel_map` are frames: the subtrees under the first level
    below the root with at least `jobs` nodes (at most one per usable CPU),
    and the levels above them.

    `lambda_override` is a falsifiability hook for tests: substituting a
    smaller cap must make the report fail with witnesses.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > MAX_GENERATE_DEPTH:
        raise DepthLimit(f"depth {depth} exceeds limit {MAX_GENERATE_DEPTH}")
    # the subtrees are split off before the constants are computed, so a
    # broken rule step surfaces as the nesting error it is
    root = segment_frame(root_segment())
    split = min(depth - 1, max(1, (min(jobs, usable_cpus()) - 1).bit_length()))
    tops = [root]
    for _ in range(split):
        tops = [c for f in tops for c in rule_step(f)[:2]]

    records = type_bound_records()
    lam_true = global_lambda(records)
    tau = tau_lower(records)
    gamma = gamma_value(lam_true)
    lam = lambda_override if lambda_override is not None else lam_true
    bounds_by_type = {r.type_id: (_moebius_constant(r.bound_left),
                                  _moebius_constant(r.bound_right)) for r in records}
    consts = (bounds_by_type, _moebius_constant(lam))
    items = [(root, split, *consts)] + [(f, depth, *consts) for f in tops]
    results = parallel_map(_check_gap_chunk, items, jobs)

    gap_count = 0
    worst = None
    failures = []
    for count, cand, fails in results:
        gap_count += count
        if cand is not None and (worst is None or _worse(cand, worst)):
            worst = cand
        failures.extend(fails)
    failures.sort(key=lambda f: (f[0], f[1]))
    g, short, _, _, parent = worst
    _, worst_gap, _ = subdivide(frame_segment(parent))

    gex = gamma_exclusion_check()
    checks = constant_cross_checks(records, lam_true, tau, gamma)
    checks.append(ConstantCheck("gamma_identity", gamma, constants.GAMMA, gex["ok"]))

    return CertReport(
        depth=depth,
        gap_count=gap_count,
        lam=lam,
        tau=tau,
        gamma=gamma,
        worst_ratio=moebius_surd(g, DEFAULT_DISC) / moebius_surd(short, DEFAULT_DISC),
        ratio_all_pass=not any(kind in ("type-bound", "lambda") for _, _, kind in failures),
        log_condition_all_pass=not any(kind == "log-condition" for _, _, kind in failures),
        constant_checks=tuple(checks),
        failures=tuple(GapFailure(*f) for f in failures),
        worst_gap=worst_gap,
    )
