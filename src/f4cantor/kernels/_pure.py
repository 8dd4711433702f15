"""Pure-Python enumeration kernels (reference backend).

Endpoints travel as unreduced Moebius images: a leaf endpoint is
``(nA + nB*sqrt(D)) / (dA + dB*sqrt(D))`` with a positive denominator value,
so ordering and equality reduce to integer cross-products and one radical
sign test, `cf.moebius_cmp`, which this module re-exports.  The walks are
explicit-stack depth-first searches in value order, with O(depth) state and
no recursion.  A cylinder level is walked once, by `scan_level`: each
cylinder is expanded from its parent frame (word, prefix matrix, automaton
state) one digit up, and every check of the level reads that one stream.
The rule walk reads `segments.RULE_TABLE`'s rows: one 2x2 product per child
by the row's extension matrix, as `segments._child` makes it, with no digits
folded; it yields each leaf's frame, with its prefix matrix and the length
of its definite word, builds no word and forms no endpoint images.

`scan_level` skips the comparisons whose outcome a cheaper exact test
already decides, and compares values wherever that test does not apply:

- Sibling order and nesting, per parent state.  A parent's children by
  digits d have its matrix M's images of the shifted tails d + 1/t as
  endpoints, and M, nonnegative with determinant (-1)^n for n digits, is
  strictly monotone on the positive reals.  So whether each child is
  non-degenerate, above its sibling before it, and the first's lo and the
  last's hi are inside the parent is fixed by the parent's end state and
  the level's parity: a few comparisons of shifted tails per state decide
  it once per scan (`_settled_states`).  Where they do, a family forms only
  its first lo, compared with the family before, and its last hi.  This
  takes every cylinder image to have a positive denominator, so that
  `moebius_cmp` orders them; the scan checks that once, from the tails and
  the root prefix.  Otherwise each child is formed and compared with its
  sibling before it and its parent.
- Leaf words by matrix, under the row premise.  Under the premise checked
  once per scan (`_words_by_matrix`), a leaf's definite word is its
  cylinder's exactly when M*E == W, for the leaf's prefix matrix M, the
  matrix E of its type's definite digits and the cylinder's word matrix W.
  Otherwise, and where the test fails, the leaf's word is built and
  compared, and on a match its endpoints are compared by value.
- Leaf endpoints.  A leaf's endpoints are M's images of its type's tails,
  and its cylinder's are W's images of its end state's tails.  When
  M*E == W, they are equal exactly when the type's tails equal E's images
  of the state's tails (two comparisons, once per type and state in a
  scan): M(E(s)) = (M*E)(s), and M, of determinant +-1, keeps equality.

`scan_cylinders`, `scan_nested` and `containment_scan` are views of
`scan_level`.  The compiled backend, `_fast.c`, compares values for every
check and returns the same results; the tests hold the two backends to each
other and this module to `tests/reference.py`'s value-by-value scan.
"""

from __future__ import annotations

from ..cf import fold_matrix, moebius_cmp, moebius_image
from ..surd import sign_pair

TABLES: dict = {}

# frames the rule walk may hold, as `_fast.c`'s STACK (4 * MAX_WORD); the
# package's rules hold at most 20 at word length 12, and a rule table with a
# cycle of empty extensions outgrows any bound
RULE_STACK = 160


def init(tables: dict) -> None:
    TABLES.update(tables)


def _digit_moves(pos: int) -> list:
    """Per automaton state, the admissible (digit, next state) moves at
    word position `pos`, in ascending cylinder order."""
    digits = (1, 2, 3, 4) if pos % 2 == 0 else (4, 3, 2, 1)
    return [tuple((d, row[d - 1]) for d in digits if row[d - 1] >= 0)
            for row in TABLES["transitions"]]


def _cylinder_tails(length: int) -> list:
    """Per end state, the tail pair whose images under the matrix of a
    `length`-digit word are (lo, hi): an odd-length prefix reverses order."""
    sigma = TABLES["sigma"]
    return [(sigma[j], sigma[i]) if length & 1 else (sigma[i], sigma[j])
            for i, j in TABLES["state_post_pair"]]


def _frames(length: int):
    """Yield (word, matrix, state) for each admissible word of `length`
    digits in ascending cylinder order; none below the root prefix."""
    root = TABLES["root_prefix"]
    if length < len(root):
        return
    transitions = TABLES["transitions"]
    state = 0
    for d in root:
        state = transitions[state][d - 1]
    # children are pushed in descending order so that they pop ascending
    pushes = [[moves[::-1] for moves in _digit_moves(parity)] for parity in (0, 1)]
    stack = [(root, fold_matrix(root), state)]
    pop, push = stack.pop, stack.append
    while stack:
        frame = pop()
        word, (ma, mb, mc, md), state = frame
        pos = len(word)
        if pos == length:
            yield frame
            continue
        for d, nxt in pushes[pos & 1][state]:
            push((word + (d,), (ma * d + mb, ma, mc * d + md, mc), nxt))


def _families(length: int):
    """Yield (parent, kids) for each frame of `length - 1` digits, in
    ascending cylinder order: that frame and its children's frames
    (word, matrix, end state), ascending.  Up to the root prefix there is no
    parent level: one family with no parent (None) holds the level's frames."""
    if length <= len(TABLES["root_prefix"]):
        yield None, list(_frames(length))
        return
    moves = _digit_moves(length - 1)
    for parent in _frames(length - 1):
        word, (ma, mb, mc, md), state = parent
        yield parent, [(word + (d,), (ma * d + mb, ma, mc * d + md, mc), nxt)
                       for d, nxt in moves[state]]


def _settled_states(length: int) -> list:
    """Per end state of a `length - 1`-digit parent, whether its children at
    `length` are each non-degenerate and above the sibling before, with the
    first's lo and the last's hi inside the parent: decided on the shifted
    tails d + 1/t and the parent's tails, in the order the parent's matrix
    keeps (even length) or reverses (odd length).  Valid only where
    `scan_level`'s `ordered` holds."""
    disc = TABLES["disc"]
    tails = _cylinder_tails(length)
    settled = []
    for (plo, phi), moves in zip(_cylinder_tails(length - 1), _digit_moves(length - 1)):
        points = [plo + (0,)]
        for d, nxt in moves:
            points += [moebius_image((d, 1, 1, 0), tail) for tail in tails[nxt]]
        points.append(phi + (0,))
        if (length - 1) & 1:
            points.reverse()
        signs = [moebius_cmp(x, y, disc) for x, y in zip(points, points[1:])]
        settled.append(signs[0] <= 0 and signs[-1] <= 0 and all(s < 0 for s in signs[1:-1]))
    return settled


def _words_by_matrix() -> bool:
    """The row premise: every rule row with digits carries their
    `fold_matrix`, and every rule and type digit is >= 1.  Then a leaf's
    M*E and its cylinder's W are the folds of their words, whose common
    root prefix has an invertible matrix, and a word over digits >= 1 is
    fixed by its matrix: the first column gives p/q, whose two
    continued-fraction expansions differ in length by one, and the
    determinant's sign picks one."""
    rows = [row for rows in TABLES["rule_table"].values() for row in rows]
    return (all(m == fold_matrix(ext) and min(ext) >= 1 for _, ext, m, _ in rows if ext)
            and all(min(ext) >= 1 for ext in TABLES["type_ext_digits"].values() if ext))


def iter_rule_leaves(word_len: int):
    """Walk the subdivision tree, stopping at the first node whose definite
    word reaches `word_len`; yields each such node's frame as it is,
    (type_id, prefix, matrix, level, definite), ascending, where `matrix` is
    the prefix's matrix and `definite` the length of the definite word,
    prefix + the type's `type_ext_digits`, which is not built.  The leaf's
    endpoints are its images of the type's `tail_triples` pair, reversed for
    an odd prefix length.  A child's matrix is made from its `rule_table` row
    as `segments._child` makes it.  Raises on a row with digits whose matrix
    has a determinant other than (-1)^b for b digits, which `_fast.c`'s
    `init` refuses: a singular one would make each leaf below it an image
    that `moebius_cmp` finds equal to any value.  Raises on a stack past
    `RULE_STACK` frames, where `_fast.c` stops."""
    t = TABLES
    for type_id, rows in t["rule_table"].items():
        for j, (_, ext, m, _) in enumerate(rows):
            if ext and m[0] * m[3] - m[1] * m[2] != (-1) ** len(ext):
                raise AssertionError(f"type {type_id} rule {j + 1}: extension matrix "
                                     f"determinant is not (-1)^{len(ext)}")
    ext_len = {tid: len(ext) for tid, ext in t["type_ext_digits"].items()}
    # per type, its rows with the definite digits each adds, in descending
    # value order (so that they pop ascending) for an even and for an odd
    # definite length: the prefix is shorter by the type's digits
    pushes = {}
    for tid, rows in t["rule_table"].items():
        steps = tuple((child, ext, m, len(ext) + ext_len[child] - ext_len[tid])
                      for child, ext, m, _ in rows)
        pushes[tid] = (steps, steps[::-1]) if ext_len[tid] & 1 else (steps[::-1], steps)
    root = t["root_prefix"]
    stack = [(1, root, fold_matrix(root), 0, len(root) + ext_len[1])]
    pop, push = stack.pop, stack.append
    while stack:
        frame = pop()
        type_id, prefix, matrix, level, definite = frame
        if definite == word_len:
            yield frame
            continue
        if definite > word_len:  # rule steps add at most one definite digit
            raise AssertionError(f"definite length skipped {word_len} at {prefix}")
        if len(stack) + 2 > RULE_STACK:
            raise AssertionError(f"rule tree deeper than {RULE_STACK} levels")
        a, b, c, d = matrix
        level += 1
        for child_type, ext, (e, f, g, h), added in pushes[type_id][definite & 1]:
            if ext:
                push((child_type, prefix + ext,
                      (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h), level,
                      definite + added))
            else:
                push((child_type, prefix, matrix, level, definite + added))


def scan_level(length: int) -> dict:
    """One walk over the cylinders of `length` digits, family by family
    (`_families`), with four exact checks on that one stream: each cylinder
    is non-degenerate and lies strictly above the one before it; each lies
    inside its parent, and every parent keeps a child; and the subdivision
    tree's leaves at the first moment their definite word reaches `length`
    (`iter_rule_leaves`) match the cylinders pairwise, word for word and
    endpoint for endpoint.  The leaves are only compared with the cylinders,
    never used to build them.  A word mismatch or a leaf past the last
    cylinder stops the rule walk, not the cylinder checks.  Sibling order,
    nesting, leaf words and leaf endpoints are decided by the exact
    shortcuts of the module docstring where they apply.

    Returns one result per check, each the dict its view returns
    (`scan_cylinders`, `scan_nested`, `containment_scan`), and `rule_error`:
    the message of the AssertionError the rule walk raised, or None."""
    t = TABLES
    disc = t["disc"]
    cmp, image = moebius_cmp, moebius_image
    # every cylinder image has a positive denominator, so that `cmp` orders
    # them, when each tail (p + q*sqrt(D))/r has p + q*sqrt(D) > 0 and r > 0
    # and the word matrices are nonnegative, as the root prefix's digits make
    # them
    ordered = (all(r > 0 and sign_pair(p, q, disc) > 0 for p, q, r in t["sigma"])
               and all(d >= 0 for d in t["root_prefix"]))
    settled = (_settled_states(length) if ordered and length > len(t["root_prefix"])
               else None)
    by_matrix = _words_by_matrix()
    # per type, the matrix E of its definite digits and its tails in image
    # order for this length's leaves; per (type, end state), whether those
    # tails are E's images of the state's cylinder tails, decided on first use
    ext_digits = t["type_ext_digits"]
    ext_matrix, leaf_tails, agree = {}, {}, {}
    for type_id, ext in ext_digits.items():
        ext_matrix[type_id] = fold_matrix(ext)
        pair = t["tail_triples"][type_id]
        leaf_tails[type_id] = pair[::-1] if (length - len(ext)) & 1 else pair
    tails, parent_tails = _cylinder_tails(length), _cylinder_tails(length - 1)

    disjoint, nested, rules = [], [], []
    count = nested_count = childless = leaves = max_level = 0
    first_lo = prev_hi = rule_error = None
    walk = iter_rule_leaves(length)
    unpaired = None  # once the rule walk stops: the first cylinder past its leaves
    for parent, kids in _families(length):
        decided = False
        if parent is not None:
            if not kids:
                childless += 1
                continue
            nested_count += len(kids)
            _, m, state = parent
            decided = settled is not None and settled[state]
            if not decided:
                plo, phi = image(m, parent_tails[state][0]), image(m, parent_tails[state][1])
        last = len(kids) - 1
        for i, (word, cm, state) in enumerate(kids):
            lo_t, hi_t = tails[state]
            if decided:  # in order and inside the parent: its ends are all it forms
                if not i:
                    lo = image(cm, lo_t)
                    if count and cmp(prev_hi, lo, disc) >= 0 and len(disjoint) < 20:
                        disjoint.append(("overlap", word))
                    if not count:
                        first_lo = lo
                if i == last:
                    prev_hi = image(cm, hi_t)
            else:
                lo, hi = image(cm, lo_t), image(cm, hi_t)
                if cmp(lo, hi, disc) >= 0:
                    disjoint.append(("degenerate", word))
                if count and cmp(prev_hi, lo, disc) >= 0 and len(disjoint) < 20:
                    disjoint.append(("overlap", word))
                if (parent is not None and (cmp(plo, lo, disc) > 0 or cmp(hi, phi, disc) > 0)
                        and len(nested) < 20):
                    nested.append(("outside-parent", word))
                if not count:
                    first_lo = lo
                prev_hi = hi
            if unpaired is None:
                try:
                    leaf = next(walk, None)
                except AssertionError as exc:
                    rule_error, leaf = str(exc), None
                if leaf is None:
                    unpaired = count
                else:
                    type_id, prefix, matrix, level, _ = leaf
                    leaves += 1
                    if level > max_level:
                        max_level = level
                    a, b, c, d = matrix
                    e, f, g, h = ext_matrix[type_id]
                    if by_matrix and (a * e + b * g, a * f + b * h,
                                      c * e + d * g, c * f + d * h) == cm:
                        key = (type_id, state)
                        ends = agree.get(key)
                        if ends is None:
                            ends = agree[key] = all(
                                cmp((p, q, r, 0), image((e, f, g, h), tail), disc) == 0
                                for (p, q, r), tail in zip(leaf_tails[type_id], tails[state]))
                        if not ends and len(rules) < 20:
                            rules.append(("endpoint-mismatch", word))
                    elif prefix + ext_digits[type_id] != word:
                        rules.append(("word-mismatch", prefix + ext_digits[type_id], word))
                        unpaired = count + 1
                    elif (any(cmp(image(matrix, leaf_tail), image(cm, tail), disc)
                              for leaf_tail, tail in zip(leaf_tails[type_id], tails[state]))
                          and len(rules) < 20):
                        rules.append(("endpoint-mismatch", word))
            count += 1
    if unpaired is None:  # every cylinder had its leaf; a further leaf is extra
        try:
            leaf = next(walk, None)
        except AssertionError as exc:
            rule_error, leaf = str(exc), None
        if leaf is not None:
            type_id, prefix, _, level, _ = leaf
            leaves += 1
            if level > max_level:
                max_level = level
            rules.append(("engine-extra", prefix + ext_digits[type_id]))
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


def scan_cylinders(length: int) -> dict:
    """One cylinder level's count, its outer endpoints, and its degenerate
    and overlapping cylinders: a view of `scan_level`."""
    return scan_level(length)["cylinders"]


def scan_nested(length: int) -> dict:
    """The cylinders outside their (length-1)-parents and the childless
    parents: a view of `scan_level`."""
    return scan_level(length)["nested"]


def containment_scan(word_len: int) -> dict:
    """Subdivision-tree leaves against the cylinder stream, in lockstep; the
    stop levels bound the tree depth needed per cylinder level.  A view of
    `scan_level` that raises the rule walk's AssertionError."""
    level = scan_level(word_len)
    if level["rule_error"] is not None:
        raise AssertionError(level["rule_error"])
    return level["containment"]
