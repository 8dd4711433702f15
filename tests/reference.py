"""The tests' oracle: paper-definition helpers no command calls.

Each helper restates a definition directly (a convergent table, a word
enumeration, a cylinder built from its word, a rule step folded from the
type table, a cylinder scan that compares values for every check) so the
tests can check the library's faster routes against it.
`enumerate_cn` is the brute-force cylinder route: it classifies each
admissible word by its suffix instead of propagating the subdivision rules.
"""

from fractions import Fraction

from f4cantor import words
from f4cantor.cf import (CFWord, DigitRange, DomainError, EmptyWord, InsufficientDigits,
                         PeriodicCF, convergents, eval_finite, fold_matrix, moebius_cmp,
                         moebius_image)
from f4cantor.kernels import _pure
from f4cantor.segments import (STATE_TYPE, TAIL_TRIPLES, TYPE_TABLE, DepthLimit, Segment,
                               frame_segment)
from f4cantor.surd import DEFAULT_DISC, cross_field_cmp

ENUMERATION_LIMIT = 14  # C_14 means 4^13-ish words; beyond this, refuse


class Inadmissible(ValueError):
    """A word that does not start (4,3) or holds a forbidden pattern."""


# -- continued fractions -----------------------------------------------------

def epsilon_seq(w: CFWord) -> list[Fraction]:
    """The ratios eps_k = q_{k-1}/q_k; eps_k is in [1/5, 1] for k >= 1
    whenever the quotients stay in {1,2,3,4}."""
    if any(d not in (1, 2, 3, 4) for d in w.digits):
        raise DigitRange(f"quotients must lie in 1..4: {w.digits}")
    seq = convergents(w)
    return [Fraction(seq.q(k - 1), seq.q(k)) for k in range(len(w.digits))]


def reverse_star(w: CFWord, n: int) -> CFWord:
    """The reversal value word [0; x_n, x_{n-1}, ..., x_0]."""
    if not 0 <= n < len(w.digits):
        raise IndexError(f"index {n} outside word of length {len(w.digits)}")
    return CFWord((0,) + tuple(reversed(w.digits[: n + 1])))


def psi_of_t(w: CFWord, t) -> Fraction:
    """Smallest ||q * alpha|| over 1 <= q <= t, via the convergent bracket
    q_n <= t < q_{n+1} (alpha is the exact value of the finite word)."""
    t = Fraction(t)
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    seq = convergents(w)
    n = None
    for k in range(len(seq.pairs)):
        if seq.q(k) <= t:
            n = k
        else:
            break
    if n is None or n + 1 >= len(seq.pairs) or seq.q(n + 1) <= t:
        raise InsufficientDigits(f"word too short to bracket t={t}")
    alpha_next = eval_finite(CFWord(w.digits[n + 1:]))
    return 1 / (seq.q(n) * alpha_next + seq.q(n - 1))


def dirichlet_d(rho):
    """Dirichlet constant from a Perron limsup: d = 1/(1 + 1/rho)."""
    return 1 / (1 + 1 / rho)


def parse_word(text: str) -> CFWord | PeriodicCF:
    """Inverse of `cf.format_word` (exact round-trip)."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"malformed word: {text!r}")
    body = s[1:-1].strip()
    if not body:
        raise EmptyWord(text)
    period: tuple[int, ...] | None = None
    if "(" in body:
        open_i = body.index("(")
        if not body.endswith(")"):
            raise ValueError(f"malformed period in {text!r}")
        period = tuple(int(x) for x in body[open_i + 1: -1].split(","))
        body = body[:open_i].rstrip().rstrip(",").rstrip(";").strip()
    if body:
        if ";" in body:
            head_s, rest = body.split(";", 1)
            digits = (int(head_s),) + (tuple(int(x) for x in rest.split(",")) if rest else ())
        else:
            digits = (int(body),)
    else:
        digits = ()
    if period is not None:
        return PeriodicCF(digits, period)
    if not digits:
        raise EmptyWord(text)
    return CFWord(digits)


# -- surds -------------------------------------------------------------------

def cross_field_cmp_by_surds(x, y) -> int:
    """Sign of x - y for surds x, y of any two fields, by surd arithmetic:
    x - y = A - B with A = x - p_y/r_y in x's field and B = (q_y/r_y)*sqrt(D_y);
    when the signs of A and B do not settle it, A^2 - B^2 does, and it stays
    in x's field."""
    if x.disc == y.disc or x.q == 0 or y.q == 0:
        return x._cmp(y)
    a = x - Fraction(y.p, y.r)
    sa = a.sign()
    sb = (y.q > 0) - (y.q < 0)
    if sa != sb:
        return sa if sa != 0 else -sb
    return sa * (a * a - Fraction(y.q * y.q * y.disc, y.r * y.r)).sign()


def as_fraction(x) -> Fraction:
    """A rational surd as a Fraction."""
    if x.q != 0:
        raise ValueError(f"{x} is irrational")
    return Fraction(x.p, x.r)


# -- words and cylinders -----------------------------------------------------

def iter_words(length: int):
    """Yield admissible words of `length` starting with `words.PREFIX`, in
    lexicographic order."""
    prefix = words.PREFIX
    if length < len(prefix):
        return
    if length == len(prefix):
        yield prefix
        return
    stack = [(prefix, words.state_after(prefix))]
    while stack:
        word, state = stack.pop()
        nxt = []
        for d in words.DIGITS:
            t = words.TRANSITIONS[state][d - 1]
            if t == words.DEAD:
                continue
            nxt.append((word + (d,), t))
        if len(word) + 1 == length:
            yield from (w for w, _ in nxt)
        else:
            stack.extend(reversed(nxt))


def classify_prefix(word: tuple[int, ...]) -> int:
    """Type of the cylinder T[word], read off the automaton state its suffix
    leaves: ..4 -> 4, ..4,1 -> 6, ..4,1,4 -> 7, ..4,1,4,1 -> 9, else 1."""
    if len(word) < 2 or word[:2] != (4, 3) or not words.admissible(word):
        raise Inadmissible(f"not an admissible (4,3)-word: {word}")
    return STATE_TYPE[words.state_after(word)]


def segment_for_word(word: tuple[int, ...]) -> Segment:
    """The full cylinder T[word] as a segment (oracle route: suffix
    classification instead of rule propagation), its endpoints ordered by
    its prefix matrix's determinant."""
    type_id = classify_prefix(word)
    prefix = word[: len(word) - len(TYPE_TABLE[type_id].word_ext)]
    matrix = fold_matrix(prefix)
    return frame_segment((prefix, type_id, matrix, *endpoints_by_determinant(matrix, type_id),
                          None, None))


def enumerate_cn(n: int, limit: int = ENUMERATION_LIMIT) -> list[Segment]:
    """The disjoint closed cylinder intervals of C_n (words of length n+1
    starting (4,3)), ascending by position."""
    if n < 1:
        raise ValueError("n must be >= 1 (C_1 is the root cylinder)")
    if n > limit:
        raise DepthLimit(f"C_{n} enumeration exceeds the configured limit {limit}")
    out = [segment_for_word(w) for w in iter_words(n + 1)]
    out.sort(key=lambda s: value_order_key(s.word))
    return out


def value_order_key(word: tuple[int, ...]) -> tuple[int, ...]:
    """Cylinders of equal word length are ordered like their words under
    alternating lexicographic order (digits flip direction at odd indices)."""
    return tuple(d if i % 2 == 0 else -d for i, d in enumerate(word))


def check_disjoint(segments: list[Segment]) -> bool:
    return all(a.hi < b.lo for a, b in zip(segments, segments[1:]))


def check_nested(children: list[Segment], parents: list[Segment]) -> bool:
    by_word = {p.word: p for p in parents}
    for c in children:
        p = by_word.get(c.word[:-1])
        if p is None or not (p.lo <= c.lo and c.hi <= p.hi):
            return False
    return True


def endpoints_by_determinant(matrix, type_id):
    """The images of a type's two tails under `matrix`, in value order: a
    positive determinant keeps alpha < beta, a negative one reverses it."""
    alpha, beta = TAIL_TRIPLES[type_id]
    a, b = moebius_image(matrix, alpha), moebius_image(matrix, beta)
    m00, m01, m10, m11 = matrix
    return (a, b) if m00 * m11 > m01 * m10 else (b, a)


def rule_step_by_folds(frame):
    """`segments.rule_step` from the type table alone: each child's matrix
    folded over its extension, its endpoints ordered by the matrix
    determinant, and all three nesting and gap tests by sign."""
    prefix, type_id, matrix, lo, hi, depth, index = frame
    kids = []
    for k, (child_type, ext) in enumerate(TYPE_TABLE[type_id].children):
        m = fold_matrix(ext, matrix)
        kids.append((prefix + ext, child_type, m, *endpoints_by_determinant(m, child_type),
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


def _frames(length: int):
    """Yield (word, matrix, state) for each admissible word of `length`
    digits in ascending cylinder order, each word built digit by digit from
    `TABLES`' automaton; none below the root prefix."""
    tables = _pure.TABLES
    root, transitions = tables["root_prefix"], tables["transitions"]
    if length < len(root):
        return
    state = 0
    for d in root:
        state = transitions[state][d - 1]
    stack = [(root, fold_matrix(root), state)]
    while stack:
        frame = stack.pop()
        word, matrix, state = frame
        if len(word) == length:
            yield frame
            continue
        digits = (1, 2, 3, 4) if len(word) % 2 == 0 else (4, 3, 2, 1)
        # pushed in descending order, so that they pop ascending
        for d in reversed(digits):
            if transitions[state][d - 1] >= 0:
                stack.append((word + (d,), fold_matrix((d,), matrix), transitions[state][d - 1]))


def iter_cylinders(length: int):
    """Yield (word, lo, hi) for the admissible words of `length` digits,
    ascending by cylinder position: lo and hi are the word matrix's images
    of its end state's two tails, formed from `_frames` and `TABLES`; an
    odd-length word reverses their order."""
    tables = _pure.TABLES
    sigma = tables["sigma"]
    for word, matrix, state in _frames(length):
        i, j = tables["state_post_pair"][state]
        lo_t, hi_t = (sigma[j], sigma[i]) if length & 1 else (sigma[i], sigma[j])
        yield word, moebius_image(matrix, lo_t), moebius_image(matrix, hi_t)


def families_by_values(length: int):
    """Yield ((plo, phi), kids) for each cylinder of `length - 1` digits in
    ascending order: its endpoints and its children at `length`, each
    (word, lo, hi), ascending.  Up to the root prefix there is no parent
    level: one family with no endpoints (None) holds the level's cylinders."""
    if length <= len(_pure.TABLES["root_prefix"]):
        yield None, list(iter_cylinders(length))
        return
    kids = {}
    for cylinder in iter_cylinders(length):
        kids.setdefault(cylinder[0][:-1], []).append(cylinder)
    for word, lo, hi in iter_cylinders(length - 1):
        yield (lo, hi), kids.get(word, [])


def rule_leaves_by_words(word_len: int):
    """Walk the subdivision tree from `TABLES`' rows, stopping at the first
    node whose definite word reaches `word_len`; yield (word, level,
    type_id, matrix) ascending: the leaf's definite word, built digit by
    digit, and its prefix matrix, a product of the rows' matrices, a row
    with no digits keeping its parent's.  Raises where `_pure._rule_leaves`
    does: on a row with digits whose matrix has a determinant other than
    (-1)^b for b digits, on a definite length that skips `word_len` and on a
    stack past `_pure.RULE_STACK` frames."""
    tables = _pure.TABLES
    for type_id, rows in tables["rule_table"].items():
        for j, (_, ext, m, _) in enumerate(rows):
            if ext and m[0] * m[3] - m[1] * m[2] != (-1) ** len(ext):
                raise AssertionError(f"type {type_id} rule {j + 1}: extension matrix "
                                     f"determinant is not (-1)^{len(ext)}")
    ext_digits = tables["type_ext_digits"]
    root = tables["root_prefix"]
    stack = [(1, root, fold_matrix(root), 0)]
    while stack:
        type_id, prefix, matrix, level = stack.pop()
        word = prefix + ext_digits[type_id]
        if len(word) == word_len:
            yield word, level, type_id, matrix
            continue
        if len(word) > word_len:
            raise AssertionError(f"definite length skipped {word_len} at {prefix}")
        if len(stack) + 2 > _pure.RULE_STACK:
            raise AssertionError(f"rule tree deeper than {_pure.RULE_STACK} levels")
        rows = tables["rule_table"][type_id]
        # descending value order, so that the children pop ascending
        for child_type, ext, m, _ in (rows if len(prefix) & 1 else rows[::-1]):
            a, b, c, d = matrix
            e, f, g, h = m
            stack.append((child_type, prefix + ext,
                          (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
                          if ext else matrix, level + 1))


def scan_level_by_values(length: int) -> dict:
    """`kernels._pure.scan_level` with every check a comparison of values:
    each cylinder against its neighbours and its parent's two endpoints, and
    each leaf's two endpoint images, formed from its prefix matrix, against
    its cylinder's.  It forms every image itself (`families_by_values`),
    walks the rule tree itself, building each leaf's word
    (`rule_leaves_by_words`), and reads `TABLES`, so a tampered table reaches
    both scans."""
    tables = _pure.TABLES
    disc = tables["disc"]
    disjoint, nested, rules = [], [], []
    count = nested_count = childless = leaves = max_level = 0
    first_lo = prev_hi = rule_error = None
    walk = rule_leaves_by_words(length)
    unpaired = None  # once the rule walk stops: the first cylinder past its leaves
    for ends, kids in families_by_values(length):
        if ends is not None:
            if not kids:
                childless += 1
                continue
            nested_count += len(kids)
            plo, phi = ends
        for word, lo, hi in kids:
            if moebius_cmp(lo, hi, disc) >= 0:
                disjoint.append(("degenerate", word))
            if count and moebius_cmp(prev_hi, lo, disc) >= 0 and len(disjoint) < 20:
                disjoint.append(("overlap", word))
            if (ends is not None
                    and (moebius_cmp(plo, lo, disc) > 0 or moebius_cmp(hi, phi, disc) > 0)
                    and len(nested) < 20):
                nested.append(("outside-parent", word))
            if unpaired is None:
                try:
                    leaf = next(walk, None)
                except AssertionError as exc:
                    rule_error, leaf = str(exc), None
                if leaf is None:
                    unpaired = count
                else:
                    leaf_word, level, type_id, matrix = leaf
                    leaves += 1
                    max_level = max(max_level, level)
                    prefix_len = len(leaf_word) - len(tables["type_ext_digits"][type_id])
                    lo_t, hi_t = tables["tail_triples"][type_id][::-1 if prefix_len & 1 else 1]
                    if leaf_word != word:
                        rules.append(("word-mismatch", leaf_word, word))
                        unpaired = count + 1
                    elif ((moebius_cmp(moebius_image(matrix, lo_t), lo, disc) != 0
                           or moebius_cmp(moebius_image(matrix, hi_t), hi, disc) != 0)
                          and len(rules) < 20):
                        rules.append(("endpoint-mismatch", word))
            if not count:
                first_lo = lo
            prev_hi = hi
            count += 1
    if unpaired is None:  # every cylinder had its leaf; a further leaf is extra
        try:
            leaf = next(walk, None)
        except AssertionError as exc:
            rule_error, leaf = str(exc), None
        if leaf is not None:
            leaves += 1
            max_level = max(max_level, leaf[1])
            rules.append(("engine-extra", leaf[0]))
    elif unpaired < count:
        rules.append(("oracle-extra",))
    return {
        "cylinders": {"length": length, "count": count, "violations": disjoint,
                      "first_lo": first_lo, "last_hi": prev_hi},
        "nested": {"length": length, "count": nested_count, "violations": nested,
                   "childless_parents": childless},
        "containment": {"word_len": length, "count": leaves, "violations": rules,
                        "max_stop_level": max_level},
        "rule_error": rule_error,
    }


# -- decomposition -------------------------------------------------------------

def contains_target(state) -> bool:
    """Whether a `decompose.ProductState`'s final hull holds its target,
    by products of its frames' endpoints, built here as surds."""
    x, y = frame_segment(state.frame_x), frame_segment(state.frame_y)
    return (cross_field_cmp(x.lo * y.lo, state.target) <= 0
            <= cross_field_cmp(x.hi * y.hi, state.target))
