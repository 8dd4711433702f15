"""The Cantor-set construction: nine segment types over prefixes starting
(4,3), binary subdivision rules, exact cylinder endpoints, and the type of
a cylinder word by the automaton state its suffix leaves (`STATE_TYPE`).

A segment of type t with rule-prefix p covers the closed interval between the
two values ``[p..., alpha_t]`` and ``[p..., beta_t]``, where the tail pair
(alpha_t, beta_t) is fixed per type with alpha_t < beta_t.  The prefix
matrix has determinant (-1)^len(p), so it preserves order for an even
prefix length and reverses it for an odd one: the endpoints are ordered by
that sign, with no comparison.

Every rule step of every type has one shape, proved once at import by
`_check_rule_shapes` with exact sign tests on the types' own tails: the first
child is the left one exactly when the prefix has even length, the left
child starts at the parent's low endpoint and the right child ends at the
parent's high endpoint.  A prefix matrix maps the identity-prefix picture
monotonically, so the shape holds at every node.

The subdivision rule runs on integer frames (prefix, type, matrix, depth,
index and the two endpoints as `cf.moebius_image` 4-tuples): `rule_step` is
the one rule step, and `subdivide`, `certify` and `decompose` all use it,
building surds from a frame only when a `Segment` is wanted.  It reads
`RULE_TABLE`, built at import: per type, each child's type, extension,
the extension's matrix (the identity for an empty extension) and the
extension's parity.  A child's matrix is then one 2x2 product, skipped for
an empty extension, and its endpoints, its tails' images, are ordered by
its prefix parity.  Each step still checks nesting and its gap by exact
sign tests.  `RULE_TABLE` and `TAIL_TRIPLES` are the one encoding of the
rules: the kernels' rule walks (`kernels._tables`) read these same rows.
"""

from typing import NamedTuple, Optional

from .cf import PeriodicCF, eval_periodic, fold_matrix, moebius_cmp, moebius_image, moebius_surd
from .surd import DEFAULT_DISC, QuadSurd

P_LOW = (1, 4, 1, 4, 1, 3)
P_HIGH = (4, 1, 4, 1, 3, 1)
P_MID = (3, 1, 4, 1, 4, 1)


class DepthLimit(ValueError):
    pass


# `generate(d)` holds all 2^(d+1) - 1 segments down to depth d, so this
# bounds its memory (2^23 segments at the limit).  `certify` keeps the same
# limit, but its walk holds O(depth) frames: for it the limit bounds only
# time.  The commands' default depth is 12.
MAX_GENERATE_DEPTH = 22


class SegmentType(NamedTuple):
    """One row of the type table: tail pair, definite digits beyond the
    prefix, and the subdivision children."""

    id: int
    alpha: PeriodicCF
    beta: PeriodicCF
    word_ext: tuple[int, ...]
    children: tuple[tuple[int, tuple[int, ...]], ...]  # (child type, prefix extension)


TYPE_TABLE: dict[int, SegmentType] = {
    1: SegmentType(1, PeriodicCF((), P_LOW), PeriodicCF((), P_HIGH), (),
                   ((2, ()), (4, ()))),
    2: SegmentType(2, PeriodicCF((), P_LOW), PeriodicCF((), P_MID), (),
                   ((3, ()), (1, (3,)))),
    3: SegmentType(3, PeriodicCF((), P_LOW), PeriodicCF((2,), P_LOW), (),
                   ((1, (1,)), (1, (2,)))),
    4: SegmentType(4, PeriodicCF((4,), P_MID), PeriodicCF((), P_HIGH), (4,),
                   ((1, (4, 3)), (5, ()))),
    5: SegmentType(5, PeriodicCF((4, 2), P_LOW), PeriodicCF((), P_HIGH), (4,),
                   ((1, (4, 2)), (6, ()))),
    6: SegmentType(6, PeriodicCF((4, 1), P_LOW), PeriodicCF((), P_HIGH), (4, 1),
                   ((2, (4, 1)), (7, ()))),
    7: SegmentType(7, PeriodicCF((4, 1, 4), P_MID), PeriodicCF((), P_HIGH), (4, 1, 4),
                   ((1, (4, 1, 4, 3)), (8, ()))),
    8: SegmentType(8, PeriodicCF((4, 1, 4, 2), P_LOW), PeriodicCF((), P_HIGH), (4, 1, 4),
                   ((1, (4, 1, 4, 2)), (9, ()))),
    9: SegmentType(9, PeriodicCF((4, 1, 4, 1), P_LOW), PeriodicCF((), P_HIGH), (4, 1, 4, 1),
                   ((3, (4, 1, 4, 1)), (1, (4, 1, 4, 1, 3)))),
}

# tail values are shared by every segment of a type; computed once
TAIL_VALUES: dict[int, tuple[QuadSurd, QuadSurd]] = {
    tid: (eval_periodic(spec.alpha), eval_periodic(spec.beta))
    for tid, spec in TYPE_TABLE.items()
}
# the same tails as integer triples (p, q, r), for `moebius_image`
TAIL_TRIPLES = {tid: tuple((t.p, t.q, t.r) for t in pair) for tid, pair in TAIL_VALUES.items()}

# segment type of a cylinder word, by the automaton state at its end (see
# words.STATE_SUFFIXES): state 0 ends "plain", 1 ends in 4, 2 in (4,1),
# 3 in (4,1,4), 4 in (4,1,4,1)
STATE_TYPE = (1, 4, 6, 7, 9)


class Segment(NamedTuple):
    """A cylinder interval of the construction.

    `prefix` is the rule prefix (the tail tables attach behind it); `word` is
    the full definite digit string, which is what the brute-force oracle
    enumerates.  `depth`/`index` are tree coordinates when the segment came
    from `generate`, None when built directly from a word (the `index` field
    hides the tuple method of that name).
    """

    prefix: tuple[int, ...]
    type_id: int
    lo: QuadSurd
    hi: QuadSurd
    matrix: tuple[int, int, int, int]
    depth: Optional[int] = None
    index: Optional[int] = None

    @property
    def word(self) -> tuple[int, ...]:
        return definite_word(self.prefix, self.type_id)

    @property
    def length(self) -> QuadSurd:
        return self.hi - self.lo

    def __str__(self) -> str:
        coords = f"A^{self.depth}_{self.index} " if self.depth is not None else ""
        return f"{coords}T{list(self.word)} type {self.type_id}"


class Gap(NamedTuple):
    """Open interval removed between the two children of a subdivision."""

    lo: QuadSurd
    hi: QuadSurd
    parent: Segment
    left: Segment   # value-ordered children flanking the gap
    right: Segment
    depth: Optional[int] = None
    index: Optional[int] = None

    @property
    def length(self) -> QuadSurd:
        return self.hi - self.lo


def definite_word(prefix: tuple[int, ...], type_id: int) -> tuple[int, ...]:
    """A segment's full definite digit string: its prefix, then its type's."""
    return prefix + TYPE_TABLE[type_id].word_ext


def _endpoints(matrix: tuple[int, int, int, int], type_id: int, odd: int) -> tuple:
    """The images of a type's two tails under the matrix of a prefix of
    parity `odd` (its length mod 2), in value order: the matrix has
    determinant (-1)^len, so an even prefix keeps alpha < beta and an odd
    one reverses it."""
    alpha, beta = TAIL_TRIPLES[type_id]
    a, b = moebius_image(matrix, alpha), moebius_image(matrix, beta)
    return (b, a) if odd else (a, b)


# per type, its two children in rule order as (child type, prefix extension,
# the extension's matrix, the extension's parity), read by `rule_step` and by
# the kernels' rule walks; an empty extension's matrix is the identity
RULE_TABLE: dict[int, tuple[tuple, tuple]] = {
    tid: tuple((child_type, ext, fold_matrix(ext), len(ext) % 2)
               for child_type, ext in spec.children)
    for tid, spec in TYPE_TABLE.items()
}


def _child(prefix: tuple, matrix: tuple, row: tuple, odd: int, depth, index) -> tuple:
    """The frame of the child that `row` of `RULE_TABLE` makes of a parent
    with this prefix (of parity `odd`) and matrix.  Its endpoints are what
    `_endpoints` gives, written out here because this is the hot step
    (a call to `_endpoints` costs about a sixth more per rule step)."""
    child_type, ext, ext_matrix, ext_odd = row
    a, b, c, d = matrix
    if ext:
        e, f, g, h = ext_matrix
        a, b, c, d = matrix = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    (p1, q1, r1), (p2, q2, r2) = TAIL_TRIPLES[child_type]
    alpha = (a * p1 + b * r1, a * q1, c * p1 + d * r1, c * q1)
    beta = (a * p2 + b * r2, a * q2, c * p2 + d * r2, c * q2)
    if odd ^ ext_odd:
        return prefix + ext, child_type, matrix, beta, alpha, depth, index
    return prefix + ext, child_type, matrix, alpha, beta, depth, index


def _check_rule_shapes() -> None:
    """Prove the rule-step shape on the types' own tails and on the children
    `RULE_TABLE` makes of them (through `_child`, as `rule_step` does),
    under the identity prefix: both tails lie in the default field,
    alpha < beta, child 1 lies left of child 2 with a gap between them, the
    left child's lo is the parent's alpha and the right child's hi is the
    parent's beta.  A prefix matrix of determinant (-1)^len maps this
    picture monotonically, so `rule_step` may take the first child as the
    left one exactly when the prefix has even length.  Explicit raises, so
    `python -O` keeps them."""
    for tid, (lo, hi) in TAIL_VALUES.items():
        if not lo.disc == hi.disc == DEFAULT_DISC:
            raise AssertionError(f"type {tid} tails lie outside Q(sqrt({DEFAULT_DISC}))")
    tails = {tid: tuple((p, q, r, 0) for p, q, r in pair) for tid, pair in TAIL_TRIPLES.items()}
    for tid, (alpha, beta) in tails.items():
        if moebius_cmp(alpha, beta, DEFAULT_DISC) >= 0:
            raise AssertionError(f"type {tid} tails are not ordered alpha < beta")
    identity = (1, 0, 0, 1)
    for tid, (row1, row2) in RULE_TABLE.items():
        alpha, beta = tails[tid]
        lo1, hi1 = _child((), identity, row1, 0, None, None)[3:5]
        lo2, hi2 = _child((), identity, row2, 0, None, None)[3:5]
        if moebius_cmp(hi1, lo2, DEFAULT_DISC) >= 0:
            raise AssertionError(f"type {tid} rule: child 1 does not lie left of child 2")
        if moebius_cmp(lo1, alpha, DEFAULT_DISC) != 0:
            raise AssertionError(f"type {tid} rule: the left child does not start at alpha")
        if moebius_cmp(hi2, beta, DEFAULT_DISC) != 0:
            raise AssertionError(f"type {tid} rule: the right child does not end at beta")


_check_rule_shapes()


def root_frame() -> tuple:
    """The frame of T[4,3], the type-1 segment the construction starts from."""
    matrix = fold_matrix((4, 3))
    return ((4, 3), 1, matrix, *_endpoints(matrix, 1, 0), 0, 1)


def root_segment() -> Segment:
    """T[4,3] as a `Segment`: `root_frame` with its two endpoint surds."""
    return frame_segment(root_frame())


def segment_frame(seg: Segment) -> tuple:
    """The integer frame (prefix, type_id, matrix, lo, hi, depth, index) of a
    segment; lo and hi are its endpoints as `moebius_image` 4-tuples, in
    the value order `_endpoints` reads off the prefix parity."""
    return (seg.prefix, seg.type_id, seg.matrix,
            *_endpoints(seg.matrix, seg.type_id, len(seg.prefix) % 2), seg.depth, seg.index)


def frame_segment(frame: tuple) -> Segment:
    """The segment of an integer frame: its two endpoint surds built."""
    prefix, type_id, matrix, lo, hi, depth, index = frame
    return Segment(prefix, type_id, moebius_surd(lo, DEFAULT_DISC),
                   moebius_surd(hi, DEFAULT_DISC), matrix, depth, index)


def rule_step(frame: tuple) -> tuple[tuple, tuple, bool]:
    """Split an integer frame by its type's rule: the two child frames in
    rule order, which children 2j-1 and 2j follow, and whether the first
    child lies left of the second.  Each child's matrix is the parent's
    times its extension's (`RULE_TABLE`), its endpoints are its tails'
    images ordered by its prefix parity, and child order is the parent's
    prefix parity (see `_check_rule_shapes`).  Nesting and the gap are
    exact integer sign tests; an outer one is settled by tuple equality
    when the child shares the parent's endpoint image."""
    prefix, type_id, matrix, lo, hi, depth, index = frame
    odd = len(prefix) % 2
    below = None if depth is None else depth + 1
    row1, row2 = RULE_TABLE[type_id]
    if index is None:
        c1 = _child(prefix, matrix, row1, odd, below, None)
        c2 = _child(prefix, matrix, row2, odd, below, None)
    else:
        c1 = _child(prefix, matrix, row1, odd, below, 2 * index - 1)
        c2 = _child(prefix, matrix, row2, odd, below, 2 * index)
    left, right = (c2, c1) if odd else (c1, c2)
    if not ((lo == left[3] or moebius_cmp(lo, left[3], DEFAULT_DISC) <= 0)
            and moebius_cmp(left[4], right[3], DEFAULT_DISC) < 0
            and (right[4] == hi or moebius_cmp(right[4], hi, DEFAULT_DISC) <= 0)):
        raise AssertionError(f"subdivision broke nesting at type {type_id} prefix "
                             f"{list(prefix)} (depth {depth}, index {index})")
    return c1, c2, not odd


def subdivide(seg: Segment) -> tuple[Segment, Gap, Segment]:
    """Split a segment by its type's rule; returns (first child, gap, second
    child) in rule order, which children 2j-1 and 2j follow."""
    f1, f2, first_left = rule_step(segment_frame(seg))
    c1, c2 = frame_segment(f1), frame_segment(f2)
    left, right = (c1, c2) if first_left else (c2, c1)
    gap = Gap(left.hi, right.lo, seg, left, right, depth=c1.depth, index=seg.index)
    return c1, gap, c2


def generate(depth: int) -> tuple[list[Segment], list[Gap]]:
    """All segments with tree depth <= `depth` and the gaps between their
    children, breadth-first, ordered by (depth, index)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > MAX_GENERATE_DEPTH:
        raise DepthLimit(f"depth {depth} exceeds limit {MAX_GENERATE_DEPTH}")
    segments = [root_segment()]
    gaps: list[Gap] = []
    frontier = [segments[0]]
    for _ in range(depth):
        nxt = []
        for seg in frontier:
            c1, gap, c2 = subdivide(seg)
            nxt.extend((c1, c2))
            gaps.append(gap)
        segments.extend(nxt)
        frontier = nxt
    return segments, gaps
