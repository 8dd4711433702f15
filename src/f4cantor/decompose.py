"""Constructive product decomposition: given a target inside the square of
the root interval, refine a pair of segments whose endpoint products always
bracket the target, then interleave the two digit streams into a single
witness word whose Perron products converge to the target.

The refinement splits whichever factor currently has the larger log-length
(the balance that keeps the other factor wide enough to bridge any gap) and
prefers the left child on ties.  Certified log-thickness > 1 is what
guarantees the `Stuck` escape hatch never fires for targets inside the
product interval.

The search runs on integer frames from `segments.rule_step`, whose endpoints
are `cf.moebius_image` 4-tuples, and builds no surd: the balance, hull and
length tests are each one exact `cf` sign test.  Every state on the path
keeps x.lo*y.lo <= target <= x.hi*y.hi (the root is checked on entry), and
the rule-step shape (`segments._check_rule_shapes`) makes the left child
share its parent's lo and the right child its parent's hi.  So a step tests
only the gap-side hull half of each child, one product against the target,
which the move carries as the new hull's product on that side.  Each kept
child shares one endpoint image with its parent and carries its new one, and
the product width after each step is the difference of the carried hull
products.  The result holds the two final frames with the reported endpoint
images, whose products the closing check tests against the target.
"""

from fractions import Fraction
from typing import NamedTuple

from . import constants
from .cf import (CFWord, PeriodicCF, _value_and_enclosure, fold_matrix, moebius_cmp,
                 moebius_mul, moebius_product_cmp, moebius_sub, moebius_surd,
                 moebius_target_cmp)
from .segments import TYPE_TABLE, root_frame, rule_step
from .surd import DEFAULT_DISC, QuadSurd, cross_field_cmp


class Stuck(RuntimeError):
    """No child of either factor keeps the target inside the product hull;
    would indicate a violated thickness hypothesis."""


class BadCut(ValueError):
    """An interleaving cut landed on a digit 4."""


CUT_STRIDE = 3            # witness cut spacing (`default_cuts`)
OFF_JUNCTION_STRIDE = 97  # off-junction sample spacing (`verify_construction`)


class Step(NamedTuple):
    """One refinement: which factor split, which child kept (0 = left), and
    the kept child's exact interval plus the product width afterwards, each
    as an unreduced `cf` Moebius image (so Steps compare by representation)."""

    factor: str
    child: int
    type_id: int
    lo_image: tuple[int, int, int, int]
    hi_image: tuple[int, int, int, int]
    width_image: tuple[int, int, int, int]


class ProductState(NamedTuple):
    """The two final factors as `segments.rule_step` frames, the target (of
    any field), the refinement history, and the attempts the search used
    against its budget (counters the document leaves out)."""

    frame_x: tuple
    frame_y: tuple
    target: QuadSurd
    history: tuple[Step, ...] = ()
    attempts: int = 0  # candidate moves tried, backtracked ones included
    budget: int = 0    # the attempt budget they ran against

    @property
    def hull(self) -> tuple[tuple, tuple]:
        """x.lo*y.lo and x.hi*y.hi, as `cf` Moebius images."""
        (xlo, xhi), (ylo, yhi) = self.frame_x[3:5], self.frame_y[3:5]
        return moebius_mul(xlo, ylo, DEFAULT_DISC), moebius_mul(xhi, yhi, DEFAULT_DISC)

    @property
    def width(self) -> QuadSurd:
        lo, hi = self.hull
        return moebius_surd(moebius_sub(hi, lo, DEFAULT_DISC), DEFAULT_DISC)


def _as_target(target) -> QuadSurd:
    return target if isinstance(target, QuadSurd) else QuadSurd.from_rational(Fraction(target))


def _candidate_moves(fx: tuple, fy: tuple, target: QuadSurd) -> list:
    """Hull-preserving refinements of the log-longer factor, left child
    first, as (factor, pick, child frame, product).  Only the longer factor
    is split: when the target's true factorization lives in this state, the
    child holding its factor always passes the hull test, so an empty result
    marks a branch that lost the target and must be abandoned.  The state's
    hull holds the target, and each child shares its outer endpoint with the
    split factor, so only the gap-side half of each child's hull is tested:
    `product` is that half, x.hi*y.hi after a left child and x.lo*y.lo after
    a right one."""
    # |log X| >= |log Y|  <=>  X.hi * Y.lo >= Y.hi * X.lo
    factor = "x" if moebius_product_cmp(fx[4], fy[3], fy[4], fx[3], DEFAULT_DISC) >= 0 else "y"
    frame, other = (fx, fy) if factor == "x" else (fy, fx)
    c1, c2, first_left = rule_step(frame)
    left, right = (c1, c2) if first_left else (c2, c1)
    moves = []
    hi = moebius_mul(left[4], other[4], DEFAULT_DISC)
    if moebius_target_cmp(hi, DEFAULT_DISC, target) >= 0:
        moves.append((factor, 0, left, hi))
    lo = moebius_mul(right[3], other[3], DEFAULT_DISC)
    if moebius_target_cmp(lo, DEFAULT_DISC, target) <= 0:
        moves.append((factor, 1, right, lo))
    if len(moves) == 2:
        if moebius_cmp(moebius_sub(right[4], right[3], DEFAULT_DISC),
                       moebius_sub(left[4], left[3], DEFAULT_DISC), DEFAULT_DISC) < 0:
            # both hulls contain the target: try the shorter child first
            # (faster width decay); exact ties keep the left child first
            moves.reverse()
    return moves


def decompose(target, steps: int,
              attempt_budget: int | None = None) -> ProductState:
    """Refine (seg_x, seg_y) for `steps` single-factor splits, keeping
    target inside [x.lo*y.lo, x.hi*y.hi].

    Hull containment cannot always see which child the target's actual
    factorization lives in, so the search backtracks: a branch whose hull
    loses the target dies and the previous level tries its next candidate.
    Raises Stuck when no hull-preserving path of the requested depth exists
    within the attempt budget.  Returns the final ProductState, whose
    history holds the product width after each step.
    """
    t = _as_target(target)
    root = root_frame()
    plo, phi = ProductState(root, root, t).hull
    if not (moebius_target_cmp(plo, DEFAULT_DISC, t) <= 0
            <= moebius_target_cmp(phi, DEFAULT_DISC, t)):
        raise ValueError(f"target {t} outside the product interval")
    budget = attempt_budget if attempt_budget is not None else 200 + 50 * steps
    # path of (x frame, y frame, untried candidate moves, move that led here);
    # a node at depth `steps` ends the search, so its moves are never computed
    path: list[tuple[tuple, tuple, list, tuple | None]] = [
        (root, root, _candidate_moves(root, root, t) if steps > 0 else [], None)]
    attempts = 0
    while len(path) - 1 < steps:
        fx, fy, pending, _ = path[-1]
        if not pending:
            path.pop()
            if not path:
                raise Stuck(f"no hull-preserving refinement path reaches "
                            f"depth {steps} for {t}")
            continue
        move = pending.pop(0)
        attempts += 1
        if attempts > budget:
            raise Stuck(f"attempt budget {budget} exhausted for {t}")
        factor, _, child, _ = move
        nx, ny = (child, fy) if factor == "x" else (fx, child)
        path.append((nx, ny, _candidate_moves(nx, ny, t) if len(path) < steps else [], move))

    # the reported path: a kept child shares lo (pick 0) or hi (pick 1) with
    # its parent and brings its new endpoint image; the move's product
    # replaces the hull product on the same side, and the width after the
    # step is their difference
    ends = {"x": root[3:5], "y": root[3:5]}
    history = []
    for _, _, _, (factor, pick, child, product) in path[1:]:
        lo, hi = ends[factor]
        if pick == 0:
            hi, phi = child[4], product
        else:
            lo, plo = child[3], product
        ends[factor] = lo, hi
        history.append(Step(factor, pick, child[1], lo, hi,
                            moebius_sub(phi, plo, DEFAULT_DISC)))
    fx, fy = path[-1][:2]
    state = ProductState((*fx[:3], *ends["x"], *fx[5:]), (*fy[:3], *ends["y"], *fy[5:]),
                         t, tuple(history), attempts=attempts, budget=budget)
    # the products of the reported endpoints, not the carried ones, so a
    # carried product out of step with the endpoints cannot pass
    lo, hi = state.hull
    if not (moebius_target_cmp(lo, DEFAULT_DISC, t) <= 0
            <= moebius_target_cmp(hi, DEFAULT_DISC, t)):
        raise AssertionError("containment invariant broken")
    return state


def frame_element(frame: tuple) -> PeriodicCF:
    """A concrete set element inside a frame's segment: the cylinder
    endpoint obtained by extending its prefix with its type's low tail."""
    tail = TYPE_TABLE[frame[1]].alpha
    return PeriodicCF(frame[0] + tail.preperiod, tail.period)


class WitnessWord(NamedTuple):
    """Interleaved word x = [S_1, S_2, ...] with S_i the reversed x-prefix up
    to cut n_i followed by the y-prefix up to cut m_i; junction k_i marks the
    x_0 digit of block i (the only (4,4) pairs sit at k_i, k_i + 1)."""

    digits: tuple[int, ...]
    junctions: tuple[int, ...]
    cuts: tuple[tuple[int, int], ...]
    block_ends: tuple[int, ...]


def interleave(x_digits, y_digits, cuts) -> WitnessWord:
    """Build the witness word from digit streams and cut pairs (n_i, m_i)."""
    digits: list[int] = []
    junctions: list[int] = []
    block_ends: list[int] = []
    prev_n = prev_m = -1
    for n_i, m_i in cuts:
        if n_i <= prev_n or m_i <= prev_m:
            raise ValueError("cut sequences must be strictly increasing")
        if x_digits[n_i] == 4 or y_digits[m_i] == 4:
            raise BadCut(f"cut ({n_i}, {m_i}) lands on a digit 4")
        junctions.append(len(digits) + n_i)
        digits.extend(reversed(x_digits[: n_i + 1]))
        digits.extend(y_digits[: m_i + 1])
        block_ends.append(len(digits) - 1)
        prev_n, prev_m = n_i, m_i
    return WitnessWord(tuple(digits), tuple(junctions), tuple(cuts), tuple(block_ends))


def default_cuts(x_digits, y_digits, blocks: int):
    """Deterministic cut choice: the i-th cut is the first index at or after
    i*CUT_STRIDE whose digit differs from 4, in each stream separately."""
    out = []
    for i in range(1, blocks + 1):
        n = i * CUT_STRIDE
        while x_digits[n] == 4:
            n += 1
        m = i * CUT_STRIDE
        while y_digits[m] == 4:
            m += 1
        out.append((n, m))
    return tuple(out)


def witness_for_target(target, steps: int = 220,
                       blocks: int = 60) -> tuple[WitnessWord, ProductState]:
    """Decompose the target, pick concrete elements of the two factors, and
    interleave them into a witness word with `blocks` blocks."""
    state = decompose(target, steps)
    need = blocks * CUT_STRIDE + 8
    x_stream = frame_element(state.frame_x)
    y_stream = frame_element(state.frame_y)
    x_digits = [x_stream.digit_at(i) for i in range(need)]
    y_digits = [y_stream.digit_at(i) for i in range(need)]
    cuts = default_cuts(x_digits, y_digits, blocks)
    return interleave(x_digits, y_digits, cuts), state


def verify_construction(w: WitnessWord, target, i_max: int = 5,
                        scan_digits: int = 10_000,
                        product_width: QuadSurd | None = None) -> dict:
    """Check the witness word: patterns, junction convergence, and the
    off-junction Perron cap.

    (i) the first `scan_digits` digits contain (4,4) exactly at the
    junctions and (4,1,4,1,4) nowhere; (ii) |rho_{k_i} - target| strictly
    decreases for i < i_max, and when the decompose hull width is supplied
    each distance is bounded by the truncation enclosures plus that width;
    (iii) non-junction Perron products, every OFF_JUNCTION_STRIDE-th index
    after the second junction, stay below mu_bound plus the truncation
    enclosure width.

    The bound in (ii) (Hall's product argument, made constructive).  Block
    i holds x_{n_i}, ..., x_0, y_0, ..., y_{m_i} of the factor elements
    x = [x_0; x_1, ...] and y = [y_0; y_1, ...].  At junction k_i the first
    factor f agrees with x on x_0, ..., x_{n_i}, so |x - f| <= e_x =
    1/(q_{n_i}*q_{n_i - 1}), the x-stream convergent width; y continues the
    second factor s = [y_0; ..., y_{m_i}], so |y - s| <= e2, its enclosure
    width.  As x*y - f*s = x*(y - s) + s*(x - f), |x*y - f*s| <=
    (f + e_x)*e2 + s*e_x, with s <= 5 for digits at most 4 (the check uses
    s itself).  x*y and the target lie in the hull, so |rho_{k_i} - target|
    adds at most its width.  The cuts increase, so one running fold over
    the x digits gives every e_x.
    """
    t = _as_target(target)
    digits = w.digits[:scan_digits]
    junction_set = set(w.junctions)
    pair_bad = [i for i in range(len(digits) - 1)
                if digits[i] == 4 and digits[i + 1] == 4 and i not in junction_set]
    missing = [k for k in w.junctions if k + 1 < len(digits)
               and (digits[k] != 4 or digits[k + 1] != 4)]
    quint_bad = [i for i in range(len(digits) - 4)
                 if tuple(digits[i:i + 5]) == (4, 1, 4, 1, 4)]

    # one running fold (p_k, p_{k-1}, q_k, q_{k-1}) over the checked indices:
    # digit matrices are symmetric, so the reversed prefix [w_k; ..., w_0] of
    # the witness digits has the transposed matrix and value p_k/p_{k-1}
    junction_at = {w.junctions[i]: i for i in range(min(i_max, len(w.junctions)))}
    start = w.junctions[1] + 2 if len(w.junctions) > 1 else 2
    samples = [k for k in range(start, len(w.digits) - 2, OFF_JUNCTION_STRIDE)
               if k not in junction_set]
    mu = constants.MU_BOUND
    distances = [None] * len(junction_at)
    bounded = True
    off_junction_witness = None
    m, folded = (1, 0, 0, 1), 0
    mx, folded_x = (1, 0, 0, 1), 0  # a second fold, over x_0, x_1, ... (for e_x)
    for k in sorted([*junction_at, *samples]):
        i = junction_at.get(k)
        if i is None and off_junction_witness is not None:
            continue
        m = fold_matrix(w.digits[folded:k + 1], m)
        folded = k + 1
        p, p_prev, _, _ = m
        if i is None:
            # the forward factor truncated after 41 digits, P/Q with enclosure
            # width 1/(Q*Q'), capped by mu plus that width times the first
            # factor p/p_prev: p*(P*Q' - 1)/(p_prev*Q*Q') > mu is one sign
            # test (at least two digits follow k, so Q' >= 1)
            P, _, Q, Q1 = fold_matrix(w.digits[k + 1:k + 42])
            if moebius_target_cmp((p * (P * Q1 - 1), 0, p_prev * Q * Q1, 0), DEFAULT_DISC, mu) > 0:
                off_junction_witness = k
            continue
        first = Fraction(p, p_prev)
        second, e2 = _value_and_enclosure(CFWord(w.digits[k + 1:w.block_ends[i] + 1]))
        d = abs(QuadSurd.from_rational(first * second) - t)
        distances[i] = d
        if product_width is not None:
            # the docstring's bound; block i holds x_j at k - j, and the
            # distance lies in the target's field, the width in Q(sqrt(26565))
            n = w.cuts[i][0]
            mx = fold_matrix(reversed(w.digits[k - n:k - folded_x + 1]), mx)
            folded_x = n + 1
            _, _, qx, qx_prev = mx
            e_x = Fraction(1, qx * qx_prev) if qx_prev else Fraction(1)
            if cross_field_cmp(d, (first + e_x) * e2 + second * e_x + product_width) > 0:
                bounded = False
    decreasing = all(a > b for a, b in zip(distances, distances[1:]))
    off_junction_ok = off_junction_witness is None

    return {
        "patterns_ok": not pair_bad and not missing and not quint_bad,
        "stray_pairs": pair_bad[:5],
        "bad_junctions": missing[:5],
        "forbidden_quints": quint_bad[:5],
        "junction_distances": distances,
        "distances_strictly_decreasing": decreasing,
        "junction_distances_bounded": bounded,
        "off_junction_ok": off_junction_ok,
        "off_junction_witness": off_junction_witness,
        "ok": (not pair_bad and not missing and not quint_bad
               and decreasing and bounded and off_junction_ok),
    }
