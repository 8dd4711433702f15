"""Pure-Python enumeration kernels (reference backend).

Endpoints travel as unreduced Moebius images: a leaf endpoint is
``(nA + nB*sqrt(D)) / (dA + dB*sqrt(D))`` with a positive denominator value,
so ordering and equality reduce to integer cross-products and one radical
sign test, `cf.moebius_cmp`, which this module re-exports.  The walks are
explicit-stack depth-first searches in value order, with O(depth) state and
no recursion.  Each cylinder is expanded from its parent frame (word,
automaton state, prefix matrix) one digit up, which `scan_nested` also reads
its parent endpoints from.  The compiled backend,
`_fast.c`, mirrors this module function-for-function, apart from the two
`iter_*` generators, which its scans inline; this module is the reference
that the tests hold it to.
"""

from __future__ import annotations

from ..cf import fold_matrix, moebius_cmp, moebius_image

TABLES: dict = {}


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


def iter_cylinders(length: int):
    """Yield (word, lo, hi) for admissible (4,3)-words of `length`, ascending
    by cylinder position; endpoints in Moebius form."""
    tails = _cylinder_tails(length)
    if length <= len(TABLES["root_prefix"]):  # at most the root, no parent level
        for word, state, m in _frames(length):
            lo_t, hi_t = tails[state]
            yield word, moebius_image(m, lo_t), moebius_image(m, hi_t)
        return
    moves = _digit_moves(length - 1)
    for word, state, (ma, mb, mc, md) in _frames(length - 1):
        for d, nxt in moves[state]:
            m = (ma * d + mb, ma, mc * d + md, mc)
            lo_t, hi_t = tails[nxt]
            yield word + (d,), moebius_image(m, lo_t), moebius_image(m, hi_t)


def iter_rule_leaves(word_len: int):
    """Walk the subdivision tree, stopping at the first node whose definite
    word reaches `word_len`; yields (word, level, type_id, lo, hi) ascending."""
    t = TABLES
    ext_len = t["type_ext_len"]
    ext_digits = t["type_ext_digits"]
    # per type, the tail pair in image order for even and for odd prefix
    # length, and the children in descending value order (so that they pop
    # ascending) for even and for odd prefix length
    tails = {tid: (pair, pair[::-1]) for tid, pair in t["type_tails"].items()}
    pushes = {tid: (kids[::-1], kids) for tid, kids in t["rule_children"].items()}
    root = t["root_prefix"]
    stack = [(1, root, fold_matrix(root), 0)]
    pop, push = stack.pop, stack.append
    while stack:
        type_id, prefix, matrix, level = pop()
        definite = len(prefix) + ext_len[type_id]
        if definite == word_len:
            lo_t, hi_t = tails[type_id][len(prefix) & 1]
            yield (prefix + ext_digits[type_id], level, type_id,
                   moebius_image(matrix, lo_t), moebius_image(matrix, hi_t))
            continue
        if definite > word_len:  # rule steps add at most one definite digit
            raise AssertionError(f"definite length skipped {word_len} at {prefix}")
        for ct, ext in pushes[type_id][len(prefix) & 1]:
            push((ct, prefix + ext, fold_matrix(ext, matrix), level + 1))


def scan_cylinders(length: int) -> dict:
    """Enumerate one cylinder level; verify strict adjacent disjointness."""
    disc = TABLES["disc"]
    count = 0
    violations = []
    prev_hi = None
    first_lo = last_hi = None
    for word, lo, hi in iter_cylinders(length):
        if moebius_cmp(lo, hi, disc) >= 0:
            violations.append(("degenerate", word))
        if prev_hi is not None and moebius_cmp(prev_hi, lo, disc) >= 0:
            if len(violations) < 20:
                violations.append(("overlap", word))
        if first_lo is None:
            first_lo = lo
        prev_hi = hi
        last_hi = hi
        count += 1
    return {"length": length, "count": count, "violations": violations,
            "first_lo": first_lo, "last_hi": last_hi}


def scan_nested(length: int) -> dict:
    """Verify every length-cylinder sits inside its (length-1)-parent and
    every parent keeps at least one child.  Each parent frame's endpoints
    are computed once and its children are checked against them."""
    disc = TABLES["disc"]
    moves = _digit_moves(length - 1)
    tails = _cylinder_tails(length)
    parent_tails = _cylinder_tails(length - 1)
    violations = []
    count = childless = 0
    for word, state, m in _frames(length - 1):
        kids = moves[state]
        if not kids:
            childless += 1
            continue
        count += len(kids)
        plo_t, phi_t = parent_tails[state]
        plo, phi = moebius_image(m, plo_t), moebius_image(m, phi_t)
        ma, mb, mc, md = m
        for d, nxt in kids:
            cm = (ma * d + mb, ma, mc * d + md, mc)
            lo_t, hi_t = tails[nxt]
            if (moebius_cmp(plo, moebius_image(cm, lo_t), disc) > 0
                    or moebius_cmp(moebius_image(cm, hi_t), phi, disc) > 0):
                if len(violations) < 20:
                    violations.append(("outside-parent", word + (d,)))
    return {"length": length, "count": count, "violations": violations,
            "childless_parents": childless}


def containment_scan(word_len: int) -> dict:
    """Lockstep comparison: subdivision-tree leaves at the first moment their
    definite word reaches `word_len` versus the brute-force cylinder stream.
    Words and exact endpoints must agree pairwise; stop levels are reported
    so the caller can bound the tree depth needed per cylinder level."""
    disc = TABLES["disc"]
    violations = []
    count = 0
    max_level = 0
    oracle = iter_cylinders(word_len)
    for word, level, _type_id, lo, hi in iter_rule_leaves(word_len):
        o = next(oracle, None)
        count += 1
        max_level = max(max_level, level)
        if o is None:
            violations.append(("engine-extra", word))
            break
        oword, olo, ohi = o
        if oword != word:
            violations.append(("word-mismatch", word, oword))
            break
        if moebius_cmp(lo, olo, disc) != 0 or moebius_cmp(hi, ohi, disc) != 0:
            if len(violations) < 20:
                violations.append(("endpoint-mismatch", word))
    if next(oracle, None) is not None:
        violations.append(("oracle-extra",))
    return {"word_len": word_len, "count": count, "violations": violations,
            "max_stop_level": max_level}
