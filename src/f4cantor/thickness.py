"""Thickness certification: exact gap ratios against the per-type uniform
bounds, the global ratio cap and its reciprocal thickness bound, and the
log-scale gap condition that upgrades thickness to log-thickness.

Every pass/fail decision here is an exact sign test; decimals appear only in
rendered reports.
"""

from typing import NamedTuple

from . import constants
from .segments import (MAX_GENERATE_DEPTH, RULE_TABLE, TYPE_TABLE, DepthLimit, Gap, _child,
                       root_frame, rule_step)
from .cf import (DomainError, PeriodicCF, delta_from_mu, eval_periodic, moebius_cmp,
                 moebius_mul, moebius_product_cmp, moebius_sub, moebius_surd)
from .surd import DEFAULT_DISC, QuadSurd
from .utils import parallel_map, usable_cpus


class TailOrder(ValueError):
    """Tail values not strictly increasing where the ratio bound needs it."""


class Degenerate(ValueError):
    """A zero-length segment where a positive length is required."""


class RatioBoundRecord(NamedTuple):
    """Uniform bounds for one segment type: bound_left caps |G|/|A_{2j-1}|,
    bound_right caps |G|/|A_{2j}|; the `bounds` document tests both against
    the type's decimal cap in `constants.TYPE_BOUNDS`."""

    type_id: int
    bound_left: QuadSurd
    bound_right: QuadSurd

    @property
    def bound(self) -> QuadSurd:
        return self.bound_left if self.bound_left >= self.bound_right else self.bound_right


def child_tail_values(type_id: int) -> tuple[QuadSurd, QuadSurd, QuadSurd, QuadSurd]:
    """The four tail values (a < b < c < d) of a type's two children,
    measured from the common prefix: the endpoints of the children that
    `RULE_TABLE` makes under the identity prefix, as `rule_step` makes them.
    The first child owns (a, b) (`segments._check_rule_shapes` proves the
    order at import)."""
    identity = (1, 0, 0, 1)
    ends = [end for row in RULE_TABLE[type_id]
            for end in _child((), identity, row, 0, None, None)[3:5]]
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


def type_bound_records() -> list[RatioBoundRecord]:
    return [RatioBoundRecord(tid, *uniform_ratio_bound_pair(*child_tail_values(tid)))
            for tid in sorted(TYPE_TABLE)]


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


def gamma_exclusion_check(gamma: QuadSurd, root_lo: QuadSurd, root_hi: QuadSurd) -> dict:
    """Why the quadratic branch of the log condition cannot bind: gamma times
    the set minimum `root_lo` already exceeds 0.07 while no segment is longer
    than the root interval [root_lo, root_hi], whose length is below 0.07."""
    identity_ok = gamma == constants.GAMMA
    product = gamma * root_lo
    width = root_hi - root_lo
    return {
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
    worst_gap: tuple | None = None  # (parent, left child, right child) frames

    @property
    def passed(self) -> bool:
        return (self.ratio_all_pass and self.log_condition_all_pass
                and not self.failures
                and all(c.passed for c in self.constant_checks))


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


def constant_cross_checks() -> list[ConstantCheck]:
    """The one table of closed-form constants, each derived once and compared
    with `constants`: rows root_lo, root_hi, lambda, tau_lower, gamma,
    product_lo, product_hi, mu_bound, delta_bound, each type's two bounds,
    and gamma_identity, the whole gamma exclusion.  gamma is the threshold
    on t/(a+r) below which the ratio cap implies the log condition.  Raises
    only on tau <= 1, which `certify`'s verdict rests on; a type bound above
    its cap and mu not below 10 + 6*sqrt(2) are flags of the `bounds`
    document, and a delta unequal to its closed form fails its row."""
    records = type_bound_records()
    lam = max(r.bound for r in records)
    tau = 1 / lam
    if not tau > 1:
        raise AssertionError("thickness bound failed: 1/lambda <= 1")
    gamma = ((2 / lam - 1) ** 2 - 1) / 4
    root_lo, root_hi = (moebius_surd(e, DEFAULT_DISC) for e in root_frame()[3:5])
    mu = (eval_periodic(PeriodicCF((), (4, 1, 4, 1, 3, 1)))
          * eval_periodic(PeriodicCF((), (3, 1, 4, 1, 4, 1))))
    derived = [
        ("root_lo", root_lo, constants.ROOT_LO),
        ("root_hi", root_hi, constants.ROOT_HI),
        ("lambda", lam, constants.LAMBDA),
        ("tau_lower", tau, constants.TAU_LOWER),
        ("gamma", gamma, constants.GAMMA),
        ("product_lo", root_lo * root_lo, constants.PRODUCT_LO),
        ("product_hi", root_hi * root_hi, constants.PRODUCT_HI),
        ("mu_bound", mu, constants.MU_BOUND),
        ("delta_bound", delta_from_mu(mu), constants.DELTA_BOUND),
    ]
    for rec in records:
        el, er, _cap = constants.TYPE_BOUNDS[rec.type_id]
        derived.append((f"type{rec.type_id}_bound_left", rec.bound_left, el))
        derived.append((f"type{rec.type_id}_bound_right", rec.bound_right, er))
    checks = [ConstantCheck(name, value, expected, value == expected)
              for name, value, expected in derived]
    checks.append(ConstantCheck("gamma_identity", gamma, constants.GAMMA,
                                gamma_exclusion_check(gamma, root_lo, root_hi)["ok"]))
    return checks


def certify(depth: int, jobs: int = 1) -> CertReport:
    """Check every gap of the construction down to `depth` against the ratio
    and log conditions; cross-check all named constants.

    The gaps are walked on integer `rule_step` frames, and surds are built
    only for the constants and the worst ratio; the worst gap is reported as
    its parent frame and the parent's two children in value order.  The
    walk's items for `utils.parallel_map` are frames: the subtrees under the
    first level below the root with at least `jobs` nodes (at most one per
    usable CPU), and the levels above them.

    The walk holds O(depth) frames, so `MAX_GENERATE_DEPTH`, the limit that
    bounds `generate`'s memory, bounds only the time `certify` takes.

    Every cap, lambda included, is a row of `constant_cross_checks`.  The
    rows are derived from the types' tails, which `segments` proves at
    import to lie in Q(sqrt(26565)), so each enters the walk as the
    Moebius-form value (p, q, r, 0) of that field.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > MAX_GENERATE_DEPTH:
        raise DepthLimit(f"depth {depth} exceeds limit {MAX_GENERATE_DEPTH}")
    # the subtrees are split off before the constants are computed, so a
    # broken rule step surfaces as the nesting error it is
    root = root_frame()
    split = min(depth - 1, max(1, (min(jobs, usable_cpus()) - 1).bit_length()))
    tops = [root]
    for _ in range(split):
        tops = [c for f in tops for c in rule_step(f)[:2]]

    checks = constant_cross_checks()
    row = {c.name: c.computed for c in checks}
    image = {name: (x.p, x.q, x.r, 0) for name, x in row.items()}
    bounds_by_type = {tid: (image[f"type{tid}_bound_left"], image[f"type{tid}_bound_right"])
                      for tid in TYPE_TABLE}
    consts = (bounds_by_type, image["lambda"])
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
    c1, c2, first_left = rule_step(parent)

    return CertReport(
        depth=depth,
        gap_count=gap_count,
        lam=row["lambda"],
        tau=row["tau_lower"],
        gamma=row["gamma"],
        worst_ratio=moebius_surd(g, DEFAULT_DISC) / moebius_surd(short, DEFAULT_DISC),
        ratio_all_pass=not any(kind in ("type-bound", "lambda") for _, _, kind in failures),
        log_condition_all_pass=not any(kind == "log-condition" for _, _, kind in failures),
        constant_checks=tuple(checks),
        failures=tuple(GapFailure(*f) for f in failures),
        worst_gap=(parent, c1, c2) if first_left else (parent, c2, c1),
    )
