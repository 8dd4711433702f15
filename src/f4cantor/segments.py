"""The Cantor-set construction: nine segment types over prefixes starting
(4,3), binary subdivision rules, exact cylinder endpoints, and the suffix
classifier for cylinder words.

A segment of type t with rule-prefix p covers the closed interval between the
two values ``[p..., alpha_t]`` and ``[p..., beta_t]``, where the tail pair
(alpha_t, beta_t) is fixed per type with alpha_t < beta_t.  The prefix
matrix has determinant (-1)^len(p), so it preserves order for an even
prefix length and reverses it for an odd one: the endpoints are ordered by
that sign, with no comparison, and the parity bit is kept as metadata.

Every rule step of every type has one shape, proved once at import by
`_check_rule_shapes` with exact sign tests on the types' own tails: the first
child is the left one exactly when the prefix has even length, the left
child starts at the parent's low endpoint and the right child ends at the
parent's high endpoint.  A prefix matrix maps the identity-prefix picture
monotonically, so the shape holds at every node.

The subdivision rule runs on integer frames (prefix, type, matrix, depth,
index and the two endpoints as `cf.moebius_image` 4-tuples): `rule_step` is
the one rule step, and `subdivide` and `decompose` both use it, building
surds from a frame only when a `Segment` is wanted.  Each step still checks
nesting and its gap by exact sign tests.
"""

from typing import NamedTuple, Optional

from . import words
from .cf import PeriodicCF, eval_periodic, fold_matrix, moebius_cmp, moebius_image, moebius_surd
from .surd import DEFAULT_DISC, QuadSurd

P_LOW = (1, 4, 1, 4, 1, 3)
P_HIGH = (4, 1, 4, 1, 3, 1)
P_MID = (3, 1, 4, 1, 4, 1)


class Inadmissible(ValueError):
    pass


class DepthLimit(ValueError):
    pass


MAX_GENERATE_DEPTH = 22  # 2^23 segments; repository default is depth 12


class SegmentType(NamedTuple):
    """One row of the type table: tail pair, definite digits beyond the
    prefix, prefix suffix restrictions, and the subdivision children."""

    id: int
    alpha: PeriodicCF
    beta: PeriodicCF
    word_ext: tuple[int, ...]
    forbidden_suffixes: tuple[tuple[int, ...], ...]
    children: tuple[tuple[int, tuple[int, ...]], ...]  # (child type, prefix extension)


TYPE_TABLE: dict[int, SegmentType] = {
    1: SegmentType(1, PeriodicCF((), P_LOW), PeriodicCF((), P_HIGH), (),
                   ((4,), (4, 1), (4, 1, 4), (4, 1, 4, 1)),
                   ((2, ()), (4, ()))),
    2: SegmentType(2, PeriodicCF((), P_LOW), PeriodicCF((), P_MID), (),
                   ((4,), (4, 1, 4), (4, 1, 4, 1)),
                   ((3, ()), (1, (3,)))),
    3: SegmentType(3, PeriodicCF((), P_LOW), PeriodicCF((2,), P_LOW), (),
                   ((4,), (4, 1, 4)),
                   ((1, (1,)), (1, (2,)))),
    4: SegmentType(4, PeriodicCF((4,), P_MID), PeriodicCF((), P_HIGH), (4,),
                   ((4, 1),),
                   ((1, (4, 3)), (5, ()))),
    5: SegmentType(5, PeriodicCF((4, 2), P_LOW), PeriodicCF((), P_HIGH), (4,),
                   ((4, 1),),
                   ((1, (4, 2)), (6, ()))),
    6: SegmentType(6, PeriodicCF((4, 1), P_LOW), PeriodicCF((), P_HIGH), (4, 1),
                   ((4, 1),),
                   ((2, (4, 1)), (7, ()))),
    7: SegmentType(7, PeriodicCF((4, 1, 4), P_MID), PeriodicCF((), P_HIGH), (4, 1, 4),
                   (),
                   ((1, (4, 1, 4, 3)), (8, ()))),
    8: SegmentType(8, PeriodicCF((4, 1, 4, 2), P_LOW), PeriodicCF((), P_HIGH), (4, 1, 4),
                   (),
                   ((1, (4, 1, 4, 2)), (9, ()))),
    9: SegmentType(9, PeriodicCF((4, 1, 4, 1), P_LOW), PeriodicCF((), P_HIGH), (4, 1, 4, 1),
                   (),
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
        return self.prefix + TYPE_TABLE[self.type_id].word_ext

    @property
    def parity(self) -> int:
        """Parity of n for prefix (a_0, ..., a_n); 1 means the alpha-tail
        endpoint is the left one."""
        return (len(self.prefix) - 1) % 2

    @property
    def length(self) -> QuadSurd:
        return self.hi - self.lo

    def __str__(self) -> str:
        coords = f"A^{self.depth}_{self.index} " if self.depth is not None else ""
        return f"{coords}T{list(self.word)} type {self.type_id}"

    def dump_line(self, precision: int = 12) -> str:
        """One-line record: depth, index, type, prefix digits, exact
        endpoints, decimal previews; fixed field order for consumers."""
        d = "-" if self.depth is None else self.depth
        j = "-" if self.index is None else self.index
        digits = ",".join(map(str, self.prefix))
        return (f"{d}\t{j}\t{self.type_id}\t{digits}\t"
                f"{self.lo.canonical_text()}\t{self.hi.canonical_text()}\t"
                f"{self.lo.to_decimal(precision)}\t{self.hi.to_decimal(precision)}")


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


def _check_prefix(prefix: tuple[int, ...], type_id: int) -> None:
    if len(prefix) < 2 or prefix[:2] != (4, 3):
        raise Inadmissible(f"prefix must start (4,3): {prefix}")
    if not words.admissible(prefix):
        raise Inadmissible(f"prefix {prefix} contains a forbidden pattern")
    for suffix in TYPE_TABLE[type_id].forbidden_suffixes:
        if prefix[len(prefix) - len(suffix):] == suffix:
            raise Inadmissible(
                f"prefix {prefix} violates type {type_id} restriction on suffix {suffix}")


def _endpoints(matrix: tuple[int, int, int, int], type_id: int) -> tuple:
    """The images of a type's two tails under `matrix`, in value order: a
    positive determinant keeps alpha < beta, a negative one reverses it."""
    alpha, beta = TAIL_TRIPLES[type_id]
    a, b = moebius_image(matrix, alpha), moebius_image(matrix, beta)
    m00, m01, m10, m11 = matrix
    return (a, b) if m00 * m11 > m01 * m10 else (b, a)


def _check_rule_shapes() -> None:
    """Prove the rule-step shape on the types' own tails, under the identity
    prefix: both tails lie in the default field, alpha < beta, child 1 lies
    left of child 2 with a gap between them, the left child's lo is the
    parent's alpha and the right child's hi is the parent's beta.  A prefix
    matrix of determinant (-1)^len maps this picture monotonically, so
    `rule_step` may take the first child as the left one exactly when the
    prefix has even length.  Explicit raises, so `python -O` keeps them."""
    for tid, (lo, hi) in TAIL_VALUES.items():
        if not lo.disc == hi.disc == DEFAULT_DISC:
            raise AssertionError(f"type {tid} tails lie outside Q(sqrt({DEFAULT_DISC}))")
    tails = {tid: tuple((p, q, r, 0) for p, q, r in pair) for tid, pair in TAIL_TRIPLES.items()}
    for tid, (alpha, beta) in tails.items():
        if moebius_cmp(alpha, beta, DEFAULT_DISC) >= 0:
            raise AssertionError(f"type {tid} tails are not ordered alpha < beta")
    for tid, spec in TYPE_TABLE.items():
        alpha, beta = tails[tid]
        (t1, e1), (t2, e2) = spec.children
        lo1, hi1 = _endpoints(fold_matrix(e1), t1)
        lo2, hi2 = _endpoints(fold_matrix(e2), t2)
        if moebius_cmp(hi1, lo2, DEFAULT_DISC) >= 0:
            raise AssertionError(f"type {tid} rule: child 1 does not lie left of child 2")
        if moebius_cmp(lo1, alpha, DEFAULT_DISC) != 0:
            raise AssertionError(f"type {tid} rule: the left child does not start at alpha")
        if moebius_cmp(hi2, beta, DEFAULT_DISC) != 0:
            raise AssertionError(f"type {tid} rule: the right child does not end at beta")


_check_rule_shapes()


def make_segment(prefix: tuple[int, ...], type_id: int,
                 matrix: tuple[int, int, int, int] | None = None,
                 depth: Optional[int] = None, index: Optional[int] = None,
                 validate: bool = True) -> Segment:
    if validate:
        _check_prefix(prefix, type_id)
    if matrix is None:
        matrix = fold_matrix(prefix)
    return frame_segment((prefix, type_id, matrix, *_endpoints(matrix, type_id),
                          depth, index))


def root_segment() -> Segment:
    """T[4,3], the type-1 segment the whole construction starts from."""
    return make_segment((4, 3), 1, depth=0, index=1)


def segment_frame(seg: Segment) -> tuple:
    """The integer frame (prefix, type_id, matrix, lo, hi, depth, index) of a
    segment; lo and hi are its endpoints as `moebius_image` 4-tuples, in
    the value order `_endpoints` reads off the matrix determinant."""
    return (seg.prefix, seg.type_id, seg.matrix, *_endpoints(seg.matrix, seg.type_id),
            seg.depth, seg.index)


def frame_segment(frame: tuple) -> Segment:
    """The segment of an integer frame: its two endpoint surds built."""
    prefix, type_id, matrix, lo, hi, depth, index = frame
    return Segment(prefix, type_id, moebius_surd(lo, DEFAULT_DISC),
                   moebius_surd(hi, DEFAULT_DISC), matrix, depth, index)


def rule_step(frame: tuple) -> tuple[tuple, tuple, bool]:
    """Split an integer frame by its type's rule: the two child frames in
    rule order, which children 2j-1 and 2j follow, and whether the first
    child lies left of the second.  Child order is the prefix parity (see
    `_check_rule_shapes`); nesting and the gap are exact integer sign
    tests."""
    prefix, type_id, matrix, lo, hi, depth, index = frame
    kids = []
    for k, (child_type, ext) in enumerate(TYPE_TABLE[type_id].children):
        m = fold_matrix(ext, matrix)
        kids.append((prefix + ext, child_type, m, *_endpoints(m, child_type),
                     None if depth is None else depth + 1,
                     None if index is None else 2 * index - 1 + k))
    c1, c2 = kids
    first_left = len(prefix) % 2 == 0
    left, right = (c1, c2) if first_left else (c2, c1)
    if not (moebius_cmp(lo, left[3], DEFAULT_DISC) <= 0
            and moebius_cmp(left[4], right[3], DEFAULT_DISC) < 0
            and moebius_cmp(right[4], hi, DEFAULT_DISC) <= 0):
        raise AssertionError(f"subdivision broke nesting at type {type_id} prefix "
                             f"{list(prefix)} (depth {depth}, index {index})")
    return c1, c2, first_left


def subdivide(seg: Segment) -> tuple[Segment, Gap, Segment]:
    """Split a segment by its type's rule; returns (first child, gap, second
    child) in rule order, which children 2j-1 and 2j follow."""
    f1, f2, first_left = rule_step(segment_frame(seg))
    c1, c2 = frame_segment(f1), frame_segment(f2)
    left, right = (c1, c2) if first_left else (c2, c1)
    gap = Gap(left.hi, right.lo, seg, left, right, depth=c1.depth, index=seg.index)
    return c1, gap, c2


def generate(depth: int, max_depth: int = MAX_GENERATE_DEPTH) -> tuple[list[Segment], list[Gap]]:
    """All segments with tree depth <= `depth` and the gaps between their
    children, breadth-first, ordered by (depth, index)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > max_depth:
        raise DepthLimit(f"depth {depth} exceeds limit {max_depth}")
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


def classify_prefix(word: tuple[int, ...]) -> int:
    """Type of the cylinder T[word], read off the automaton state its suffix
    leaves: ..4 -> 4, ..4,1 -> 6, ..4,1,4 -> 7, ..4,1,4,1 -> 9, else 1."""
    if len(word) < 2 or word[:2] != (4, 3) or not words.admissible(word):
        raise Inadmissible(f"not an admissible (4,3)-word: {word}")
    return STATE_TYPE[words.state_after(word)]


def segment_for_word(word: tuple[int, ...]) -> Segment:
    """The full cylinder T[word] as a segment (oracle route: suffix
    classification instead of rule propagation)."""
    type_id = classify_prefix(word)
    ext = TYPE_TABLE[type_id].word_ext
    prefix = word[: len(word) - len(ext)]
    return make_segment(prefix, type_id, validate=False)
