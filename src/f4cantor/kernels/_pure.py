"""Pure-Python enumeration kernels (reference backend).

Endpoints travel as unreduced Moebius images: a leaf endpoint is
``(nA + nB*sqrt(D)) / (dA + dB*sqrt(D))`` with a positive denominator value,
so ordering and equality reduce to integer cross-products and one radical
sign test, `cf.moebius_cmp`, which this module re-exports.  The walks are
explicit-stack depth-first searches in value order, with O(depth) state and
no recursion.  A cylinder level is walked once, by `scan_level`: each
cylinder is expanded from its parent frame (word, automaton state, prefix
matrix) one digit up, whose endpoints are formed once for all its children,
and every check of the level reads that one stream.  The rule walk reads
`segments.RULE_TABLE`'s rows: one 2x2 product per child by the row's
extension matrix, as `segments._child` makes it, with no digits folded and
endpoints formed only at the leaves.  `scan_cylinders`, `scan_nested` and
`containment_scan` are views of `scan_level`.  The compiled backend,
`_fast.c`, mirrors `scan_level` and its views, with the generators inlined;
this module is the reference that the tests hold it to.
"""

from __future__ import annotations

from ..cf import fold_matrix, moebius_cmp, moebius_image

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
    """Yield (word, state, matrix) for each admissible word of `length`
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
    stack = [(root, state, fold_matrix(root))]
    pop, push = stack.pop, stack.append
    while stack:
        frame = pop()
        word, state, (ma, mb, mc, md) = frame
        pos = len(word)
        if pos == length:
            yield frame
            continue
        for d, nxt in pushes[pos & 1][state]:
            push((word + (d,), nxt, (ma * d + mb, ma, mc * d + md, mc)))


def _families(length: int):
    """Yield ((plo, phi), kids) for each frame of `length - 1` digits, in
    ascending cylinder order: the endpoints of its cylinder and the list of
    its children's cylinders (word, lo, hi), ascending.  Up to the root
    prefix there is no parent level: one family with no endpoints (None)
    holds the level's cylinders."""
    tails = _cylinder_tails(length)
    if length <= len(TABLES["root_prefix"]):
        yield None, [(word, moebius_image(m, tails[state][0]),
                      moebius_image(m, tails[state][1]))
                     for word, state, m in _frames(length)]
        return
    moves = _digit_moves(length - 1)
    parent_tails = _cylinder_tails(length - 1)
    for word, state, m in _frames(length - 1):
        ma, mb, mc, md = m
        kids = []
        for d, nxt in moves[state]:
            cm = (ma * d + mb, ma, mc * d + md, mc)
            lo_t, hi_t = tails[nxt]
            kids.append((word + (d,), moebius_image(cm, lo_t), moebius_image(cm, hi_t)))
        plo_t, phi_t = parent_tails[state]
        yield (moebius_image(m, plo_t), moebius_image(m, phi_t)), kids


def iter_cylinders(length: int):
    """Yield (word, lo, hi) for admissible (4,3)-words of `length`, ascending
    by cylinder position; endpoints in Moebius form."""
    for _, kids in _families(length):
        yield from kids


def iter_rule_leaves(word_len: int):
    """Walk the subdivision tree, stopping at the first node whose definite
    word reaches `word_len`; yields (word, level, type_id, lo, hi) ascending.
    A child's matrix is made from its `rule_table` row as `segments._child`
    makes it.  A stack past `RULE_STACK` frames raises, as in `_fast.c`."""
    t = TABLES
    ext_digits = t["type_ext_digits"]
    # per type, the tail pair in image order for even and for odd prefix
    # length, and the rows in descending value order (so that they pop
    # ascending) for even and for odd prefix length
    tails = {tid: (pair, pair[::-1]) for tid, pair in t["tail_triples"].items()}
    pushes = {tid: (rows[::-1], rows) for tid, rows in t["rule_table"].items()}
    root = t["root_prefix"]
    stack = [(1, root, fold_matrix(root), 0)]
    pop, push = stack.pop, stack.append
    while stack:
        type_id, prefix, matrix, level = pop()
        definite = len(prefix) + len(ext_digits[type_id])
        if definite == word_len:
            lo_t, hi_t = tails[type_id][len(prefix) & 1]
            yield (prefix + ext_digits[type_id], level, type_id,
                   moebius_image(matrix, lo_t), moebius_image(matrix, hi_t))
            continue
        if definite > word_len:  # rule steps add at most one definite digit
            raise AssertionError(f"definite length skipped {word_len} at {prefix}")
        if len(stack) + 2 > RULE_STACK:
            raise AssertionError(f"rule tree deeper than {RULE_STACK} levels")
        a, b, c, d = matrix
        level += 1
        for child_type, ext, (e, f, g, h), _ in pushes[type_id][len(prefix) & 1]:
            if ext:
                push((child_type, prefix + ext,
                      (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h), level))
            else:
                push((child_type, prefix, matrix, level))


def scan_level(length: int) -> dict:
    """One walk over the cylinders of `length` digits, family by family
    (`_families`), with four exact checks on that one stream: each cylinder
    is non-degenerate and lies strictly above the one before it; each lies
    inside its parent, and every parent keeps a child; and the subdivision
    tree's leaves at the first moment their definite word reaches `length`
    (`iter_rule_leaves`) match the cylinders pairwise, word for word and
    endpoint for endpoint.  The leaves are only compared with the cylinders,
    never used to build them.  A word mismatch or a leaf past the last
    cylinder stops the rule walk, not the cylinder checks.

    Returns one result per check, each the dict its view returns
    (`scan_cylinders`, `scan_nested`, `containment_scan`), and `rule_error`:
    the message of the AssertionError the rule walk raised, or None."""
    disc = TABLES["disc"]
    cmp = moebius_cmp
    disjoint, nested, rules = [], [], []
    count = nested_count = childless = leaves = max_level = 0
    first_lo = prev_hi = rule_error = None
    walk = iter_rule_leaves(length)
    unpaired = None  # once the rule walk stops: the first cylinder past its leaves
    for ends, kids in _families(length):
        if ends is not None:
            if not kids:
                childless += 1
                continue
            nested_count += len(kids)
            plo, phi = ends
        for word, lo, hi in kids:
            if cmp(lo, hi, disc) >= 0:
                disjoint.append(("degenerate", word))
            if count and cmp(prev_hi, lo, disc) >= 0 and len(disjoint) < 20:
                disjoint.append(("overlap", word))
            if (ends is not None and (cmp(plo, lo, disc) > 0 or cmp(hi, phi, disc) > 0)
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
                    leaf_word, level, _type_id, leaf_lo, leaf_hi = leaf
                    leaves += 1
                    max_level = max(max_level, level)
                    if leaf_word != word:
                        rules.append(("word-mismatch", leaf_word, word))
                        unpaired = count + 1
                    elif ((cmp(leaf_lo, lo, disc) != 0 or cmp(leaf_hi, hi, disc) != 0)
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
