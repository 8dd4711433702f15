"""Pure-Python enumeration kernels (reference backend).

Endpoints travel as unreduced Moebius images: a leaf endpoint is
``(nA + nB*sqrt(D)) / (dA + dB*sqrt(D))`` with a positive denominator value,
so ordering and equality reduce to integer cross-products and one radical
sign test.  The compiled backend mirrors this module function-for-function.
"""

from __future__ import annotations

from ..cf import fold_matrix, moebius_image

TABLES: dict = {}


def init(tables: dict) -> None:
    TABLES.update(tables)


def _sign_pair(x: int, y: int, disc: int) -> int:
    """Exact sign of x + y*sqrt(disc)."""
    if y == 0:
        return (x > 0) - (x < 0)
    if x == 0:
        return 1 if y > 0 else -1
    if x > 0 and y > 0:
        return 1
    if x < 0 and y < 0:
        return -1
    lhs, rhs = x * x, y * y * disc
    if x > 0:
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)


def moebius_cmp(e1, e2, disc: int) -> int:
    """Order of two Moebius-form values (denominator values positive)."""
    nA1, nB1, dA1, dB1 = e1
    nA2, nB2, dA2, dB2 = e2
    x = nA1 * dA2 - nA2 * dA1 + (nB1 * dB2 - nB2 * dB1) * disc
    y = nA1 * dB2 + nB1 * dA2 - nA2 * dB1 - nB2 * dA1
    return _sign_pair(x, y, disc)


def iter_cylinders(length: int):
    """Yield (word, lo, hi) for admissible (4,3)-words of `length`, ascending
    by cylinder position; endpoints in Moebius form."""
    t = TABLES
    transitions = t["transitions"]
    sigma = t["sigma"]
    # tail pair behind each end state, ordered so that its images are (lo, hi):
    # the prefix matrix of an odd-length word reverses order
    tails = [(sigma[j], sigma[i]) if length & 1 else (sigma[i], sigma[j])
             for i, j in t["state_post_pair"]]
    root = t["root_prefix"]
    if length < len(root):
        return
    state = 0
    for d in root:
        state = transitions[state][d - 1]

    def rec(word, state, matrix, pos):
        if pos == length:
            lo_t, hi_t = tails[state]
            yield word, moebius_image(matrix, lo_t), moebius_image(matrix, hi_t)
            return
        digits = (1, 2, 3, 4) if pos % 2 == 0 else (4, 3, 2, 1)
        ma, mb, mc, md = matrix
        for d in digits:
            nxt = transitions[state][d - 1]
            if nxt < 0:
                continue
            yield from rec(word + (d,), nxt, (ma * d + mb, ma, mc * d + md, mc), pos + 1)

    yield from rec(root, state, fold_matrix(root), len(root))


def iter_rule_leaves(word_len: int):
    """Walk the subdivision tree, stopping at the first node whose definite
    word reaches `word_len`; yields (word, level, type_id, lo, hi) ascending."""
    t = TABLES
    children = t["rule_children"]
    ext_len = t["type_ext_len"]
    ext_digits = t["type_ext_digits"]
    # per type, the tail pair in image order for even and for odd prefix length
    tails = {tid: (pair, pair[::-1]) for tid, pair in t["type_tails"].items()}
    root = t["root_prefix"]

    def rec(type_id, prefix, matrix, level):
        definite = len(prefix) + ext_len[type_id]
        if definite == word_len:
            lo_t, hi_t = tails[type_id][len(prefix) & 1]
            yield (prefix + ext_digits[type_id], level, type_id,
                   moebius_image(matrix, lo_t), moebius_image(matrix, hi_t))
            return
        if definite > word_len:  # rule steps add at most one definite digit
            raise AssertionError(f"definite length skipped {word_len} at {prefix}")
        kids = children[type_id]
        order = kids if len(prefix) % 2 == 0 else (kids[1], kids[0])
        for ct, ext in order:
            yield from rec(ct, prefix + ext, fold_matrix(ext, matrix), level + 1)

    yield from rec(1, root, fold_matrix(root), 0)


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
    every parent keeps at least one child."""
    disc = TABLES["disc"]
    parents = iter_cylinders(length - 1)
    violations = []
    count = childless = 0
    parent = next(parents, None)
    matched = False
    for word, lo, hi in iter_cylinders(length):
        count += 1
        while parent is not None and parent[0] != word[:-1]:
            if not matched:
                childless += 1
            parent = next(parents, None)
            matched = False
        if parent is None:
            violations.append(("orphan", word))
            break
        matched = True
        _, plo, phi = parent
        if moebius_cmp(plo, lo, disc) > 0 or moebius_cmp(hi, phi, disc) > 0:
            if len(violations) < 20:
                violations.append(("outside-parent", word))
    while parent is not None:
        if not matched:
            childless += 1
        parent = next(parents, None)
        matched = False
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
