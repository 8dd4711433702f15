"""Pure-Python enumeration kernels (reference backend).

Endpoints travel as unreduced Moebius images: a leaf endpoint is
``(nA + nB*sqrt(D)) / (dA + dB*sqrt(D))`` with a positive denominator value,
so ordering and equality reduce to integer cross-products and one radical
sign test, `cf.moebius_cmp`, which this module re-exports.  The walks are
explicit-stack depth-first searches in value order, with O(depth) state and
no recursion, and build no word: a frame links to its parent frame and holds
the digits it adds, and `_word` reads a word back for a violation entry or a
word comparison.  `scan_level` walks a cylinder level once, each child's
matrix formed from its parent's and its move.  What the tables fix is
derived at the first scan after `init`, per parity of the word length, into
one plan (`_plan`) that no scan writes.  The rule walk reads
`segments.RULE_TABLE`'s rows through the plan's push tables
(`_rule_plans`): per type and prefix parity, a child reached by an empty
extension that adds no definite digit is replaced by its own rows, and each
row holds R*E, its matrix R (the identity for an empty extension) times its
child type's definite-digit matrix E, so that a node yields its leading
leaf children at once, each with its M*E from one product.  The walk's one
limit is the tree level B = `levels_per_digit` * (word length - root
length), 0 below the root (`_level_bound`): the paper puts tree level 3n
inside cylinder level n + 2, and a node past B raises.

`scan_level` skips the comparisons whose outcome a cheaper exact test
already decides, and compares values wherever that test does not apply:

- Sibling order and nesting, per parent state.  A parent's children by
  digits d have its matrix M's images of the shifted tails d + 1/t as
  endpoints, and M, nonnegative with determinant (-1)^n for n digits, is
  strictly monotone on the positive reals.  So whether each child is
  non-degenerate, above its sibling before it, and the first's lo and the
  last's hi are inside the parent is fixed by the parent's end state and
  the level's parity: a few comparisons of shifted tails per state decide
  it once per plan and parity (`_settled_states`).  Where they do, a
  family forms no endpoint image; this takes every cylinder image to have
  a positive denominator, so that `moebius_cmp` orders them (`ordered`).
  Otherwise each child is compared with its sibling before it and its parent.
- Leaf words and endpoints by matrix.  Under the row premise
  (`_words_by_matrix`), a leaf's definite word is its cylinder's exactly
  when M*E == W, the cylinder's word matrix.  Then the endpoints, M's
  images of the type's tails and W's of the end state's, are equal exactly
  when the type's tails equal E's images of the state's (two comparisons
  per type, state and parity, made with the plan): M(E(s)) = (M*E)(s), and
  M, of determinant +-1, keeps equality.  Otherwise the leaf's prefix and
  M are formed (`_leaf_prefix`) and words, then endpoint values, are
  compared.
- Order across families, by the cylinder lemma.  Its premises: every tail
  (p + q*sqrt(D))/r has r > 0 and p + q*sqrt(D) > 0; every root digit is
  >= 0; every move digit past the root is in 1-4, in ascending cylinder
  order by the parity of its absolute position (the code fixes these
  digits, not a table).  A child by digit d of a word w is M_w(d + 1/t),
  d + 1/t > 1, so it lies in M_w((1, inf)), and for distinct words of one
  length these are disjoint and walked ascending.  So under `ordered`, no
  family is compared with the one before.

`scan_cylinders`, `scan_nested` and `containment_scan` are views of
`scan_level`.  The compiled backend, `_fast.c`, compares values for every
check and returns the same results; the tests hold the two backends to each
other and this module to `tests/reference.py`'s value-by-value scan.
"""

from __future__ import annotations

from ..cf import fold_matrix, moebius_cmp, moebius_image
from ..surd import sign_pair

TABLES: dict = {}
_PLAN = None  # `_build_plan` of `TABLES`, made at the first scan after `init`


def init(tables: dict) -> None:
    """Read `tables` from the next scan on, as `_fast.init` does: they
    replace `TABLES`, and the plan made of the old ones is dropped."""
    global TABLES, _PLAN
    TABLES, _PLAN = tables, None


def _plan() -> tuple:
    """The set-up `TABLES` fix (`_build_plan`), made at the first scan after
    `init` and kept until the next."""
    global _PLAN
    if _PLAN is None:
        _PLAN = _build_plan(TABLES)
    return _PLAN


def _build_plan(t: dict) -> tuple:
    """(disc, root prefix, type_ext_digits, the row premise, moves, walk,
    levels).  `moves`: per position up to two past the root prefix (`_moves`)
    and per automaton state, the (digit, next state, (digit,)) moves, the
    root's digit, then the admissible ones in ascending cylinder order.
    `walk`: the first row with digits whose matrix has a determinant other
    than (-1)^b, as a message, or None; the root prefix's matrix; without
    such a row, `_rule_plans`; and `levels_per_digit`.  `levels`, per parity
    of the word length: per end state, its tail pair in image order;
    `_settled_states`, or None unless every image has a positive
    denominator; per type, its leaf tails in image order; and per type and
    end state, whether those are E's images of the state's, E the matrix of
    its definite digits."""
    disc, root, sigma = t["disc"], t["root_prefix"], t["sigma"]
    rules, ext_digits = t["rule_table"], t["type_ext_digits"]
    moves = []
    for pos in range(len(root) + 2):  # the root's digit, then ascending cylinder order
        digits = root[pos:pos + 1] or ((4, 3, 2, 1) if pos & 1 else (1, 2, 3, 4))
        moves.append(tuple(tuple((d, row[d - 1], (d,)) for d in digits
                                 if pos < len(root) or row[d - 1] >= 0)
                           for row in t["transitions"]))
    # images have positive denominators (and the cylinder lemma holds) when each
    # tail (p + q*sqrt(D))/r has p + q*sqrt(D) > 0 and r > 0 and every digit >= 0
    ordered = (all(r > 0 and sign_pair(p, q, disc) > 0 for p, q, r in sigma)
               and all(d >= 0 for d in root))
    tails = [tuple((sigma[j], sigma[i]) if odd else (sigma[i], sigma[j])
                   for i, j in t["state_post_pair"]) for odd in (0, 1)]
    levels = []
    for odd in (0, 1):
        leaf_tails = {tid: t["tail_triples"][tid][::-1] if (odd - len(ext)) & 1
                      else t["tail_triples"][tid] for tid, ext in ext_digits.items()}
        agree = {}
        for tid, ext in ext_digits.items():
            e = fold_matrix(ext)
            agree[tid] = tuple(all(moebius_cmp((p, q, r, 0), moebius_image(e, tail), disc) == 0
                                   for (p, q, r), tail in zip(leaf_tails[tid], state_tails))
                               for state_tails in tails[odd])
        # the parents' moves are those at a position past the root of their parity
        settled = (_settled_states(disc, tails, _moves(moves, root, 2 * len(root) + 1 - odd), odd)
                   if ordered else None)
        levels.append((tails[odd], settled, leaf_tails, agree))
    bad = next((f"type {tid} rule {j + 1}: extension matrix determinant is not (-1)^{len(ext)}"
                for tid, rows in rules.items() for j, (_, ext, m, _) in enumerate(rows)
                if ext and m[0] * m[3] - m[1] * m[2] != (-1) ** len(ext)), None)
    plans, cap = (None, None) if bad else _rule_plans(rules, ext_digits)
    return (disc, root, ext_digits, _words_by_matrix(rules, ext_digits), tuple(moves),
            (bad, fold_matrix(root), plans, cap, t["levels_per_digit"]), tuple(levels))


def _moves(moves: tuple, root: tuple, pos: int) -> tuple:
    """Per automaton state, the plan's moves at word position `pos`."""
    return moves[min(pos, len(root) + ((pos - len(root)) & 1))]


def _word(frame) -> tuple:
    """The word of a walk frame, read up its parent links: every frame ends
    with its parent frame (None at the top) and the digits it adds."""
    parts = []
    while frame is not None:
        parts.append(frame[-1])
        frame = frame[-2]
    return tuple(d for part in reversed(parts) for d in part)


def _cylinder_frames(moves: list):
    """Yield (length, matrix, state, parent, digits) for each word whose
    position i takes `moves[i]`, ascending: its matrix, its end state, and
    its parent frame and the digits it adds (`_word`)."""
    length = len(moves)
    stack = [(0, (1, 0, 0, 1), 0, None, ())]
    if not length:  # no position: the empty word is the one word
        yield from stack
        return
    pop, push = stack.pop, stack.append
    while stack:
        frame = pop()
        pos, (ma, mb, mc, md), state, _, _ = frame
        if pos + 1 == length:  # the last level's frames are yielded as made
            for d, nxt, ext in moves[pos][state]:
                yield length, (ma * d + mb, ma, mc * d + md, mc), nxt, frame, ext
        else:  # pushed in descending order, so that they pop ascending
            for d, nxt, ext in reversed(moves[pos][state]):
                push((pos + 1, (ma * d + mb, ma, mc * d + md, mc), nxt, frame, ext))


def _settled_states(disc: int, tails: list, moves: tuple, odd: int) -> tuple:
    """Per end state of a parent whose children's length has parity `odd`,
    whether they are each non-degenerate and above the sibling before, with
    the first's lo and the last's hi inside the parent: decided on the
    shifted tails d + 1/t and the parent's tails (`tails` per parity), in
    the order the parent's matrix keeps, or reverses for an odd parent
    length.  Valid only where every cylinder image has a positive
    denominator."""
    settled = []
    for (plo, phi), kids in zip(tails[1 - odd], moves):
        points = [plo + (0,)]
        for d, nxt, _ in kids:
            points += [moebius_image((d, 1, 1, 0), tail) for tail in tails[odd][nxt]]
        points.append(phi + (0,))
        if not odd:
            points.reverse()
        signs = [moebius_cmp(x, y, disc) for x, y in zip(points, points[1:])]
        settled.append(signs[0] <= 0 and signs[-1] <= 0 and all(s < 0 for s in signs[1:-1]))
    return tuple(settled)


def _words_by_matrix(rules: dict, ext_digits: dict) -> bool:
    """The row premise: every rule row with digits carries their
    `fold_matrix`, and every rule and type digit is >= 1.  Then a leaf's
    M*E and its cylinder's W are the folds of their words, whose common
    root prefix has an invertible matrix, and a word over digits >= 1 is
    fixed by its matrix: the first column gives p/q, whose two
    continued-fraction expansions differ in length by one, and the
    determinant's sign picks one."""
    rows = [row for rows in rules.values() for row in rows]
    return (all(m == fold_matrix(ext) and min(ext) >= 1 for _, ext, m, _ in rows if ext)
            and all(min(ext) >= 1 for ext in ext_digits.values() if ext))


def _rule_plans(rules: dict, ext_digits: dict) -> tuple:
    """The rule walk's push tables for `rule_table` and `type_ext_digits`:
    (plans, cap), a plan per type and prefix parity.  It lists the type's
    rows, ascending, each row to a child through an empty extension that
    adds no definite digit replaced by the child's own rows, recursively,
    except along an edge back to a type on the way.  Indexed by the definite
    digits r a node lacks (from 1 up to `cap`), it holds the leading rows
    whose child is a leaf at r and the rest, descending, as (target, matrix,
    added, levels, tail): a leaf's type, R*E and rule row, or a child's
    plan, R (None for an empty extension) and digits, with the definite
    digits and levels the row adds."""
    ext_len = {tid: len(ext) for tid, ext in ext_digits.items()}

    def rows(type_id, parity, path, levels):
        out = []
        for row in rules[type_id][::-1] if parity else rules[type_id]:
            child, ext, m, _ = row
            added = len(ext) + ext_len[child] - ext_len[type_id]
            if not (ext or added) and child not in path:
                out += rows(child, parity, path + (child,), levels + 1)
            else:
                out.append((child, (parity + len(ext)) & 1, ext, m if ext else None, added,
                            levels + 1, row))
        return out

    plans = {(tid, parity): [None] for tid in rules for parity in (0, 1)}
    tables = {key: rows(*key, key[:1], 0) for key in plans}
    cap = max([row[4] for table in tables.values() for row in table] + [0]) + 1
    for key, table in tables.items():
        for r in range(1, cap + 1):
            lead = 0
            while lead < len(table) and table[lead][4] == r:
                lead += 1
            entries = [(child, fold_matrix(ext_digits[child], m or (1, 0, 0, 1)), added,
                        levels, row) if added == r else
                       (plans[child, cparity], m, added, levels, ext)
                       for child, cparity, ext, m, added, levels, row in table]
            plans[key].append((entries[:lead], entries[lead:][::-1]))
    return plans, cap


def _level_bound(plan: tuple, length: int) -> int:
    """The rule walk's one limit at word length `length`: the tables'
    `levels_per_digit` tree levels per digit past the root prefix, 0 up to
    it."""
    _, root, _, _, _, walk, _ = plan
    return walk[-1] * max(length - len(root), 0)


def _leaf_prefix(leaf) -> tuple:
    """A rule leaf's prefix and prefix matrix, from its parent frame and its
    rule row (the root's own, which has no parent frame)."""
    parent, (_, ext, (e, f, g, h), _) = leaf[4], leaf[5]
    if parent is None:
        return ext, (e, f, g, h)
    a, b, c, d = parent[1]
    return _word(parent) + ext, ((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
                                 if ext else parent[1])


def _rule_leaves(plan: tuple, word_len: int):
    """Walk the subdivision tree on a plan already looked up (`_plan`),
    stopping at the first node whose definite word reaches `word_len`;
    yields each such leaf ascending, as (type_id, M*E, level, 0, parent,
    row): M is its prefix matrix, E its type's definite-digit matrix, 0 the
    definite digits it lacks, and its parent frame and rule row give its
    prefix and M (`_leaf_prefix`).  Its endpoints are M's images of the
    type's `tail_triples` pair, reversed for an odd prefix length.  An inner
    frame is (plan, M, level, lacking, parent, digits); a child's matrix is
    its parent's times its row's as `segments._child` makes it, the
    parent's for an empty extension.

    Replacing children changes nothing.  A replaced child keeps its parent's
    prefix, matrix and definite length, so it is no leaf (its parent was
    none) and skips no length.  Around a cycle of rule steps the added
    definite lengths telescope to the sum of the extension lengths, so a
    cycle that adds no definite digit is made of empty extensions, and it
    keeps one edge unreplaced: every unbounded descent still pops frames,
    whose levels the bound reads.

    Raises on a node past tree level B (`_level_bound`), checked as a frame
    is popped or a leading leaf yielded: that is where, in depth-first
    order, a walk without replaced children expands the node at level B
    above it, and where `_fast.c` and `tests/reference.py` raise.  Raises
    also on a row with digits whose matrix has a determinant other than
    (-1)^b for b digits, which `_fast.c`'s `init` refuses (a singular one
    would make each leaf below it an image `moebius_cmp` finds equal to any
    value)."""
    _, root, ext_digits, _, _, (bad, m, plans, cap, _), _ = plan
    if bad is not None:
        raise AssertionError(bad)
    bound = _level_bound(plan, word_len)
    lacking = word_len - len(root) - len(ext_digits[1])
    stack = [(plans[1, len(root) & 1], m, 0, lacking, None, root) if lacking else
             (1, fold_matrix(ext_digits[1], m), 0, 0, None, (1, root, m, 0))]
    pop, push = stack.pop, stack.append
    while stack:
        frame = pop()
        plan, m, level, lacking, _, _ = frame
        if level > bound:
            raise AssertionError(f"rule tree has no leaf by level {bound}")
        if not lacking:
            yield frame
            continue
        if lacking < 0:  # rule steps add at most one definite digit
            raise AssertionError(f"definite length skipped {word_len} at {_word(frame)}")
        leaves, pushes = plan[lacking if lacking < cap else cap]
        a, b, c, d = m
        for type_id, (e, f, g, h), _, levels, row in leaves:
            if level + levels > bound:
                raise AssertionError(f"rule tree has no leaf by level {bound}")
            yield (type_id, (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h),
                   level + levels, 0, frame, row)
        for target, r, added, levels, tail in pushes:
            if r is not None:
                e, f, g, h = r
                r = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            push((target, r or m, level + levels, lacking - added, frame, tail))


def scan_level(length: int) -> dict:
    """One walk over the cylinders of `length` digits, family by family
    (`_cylinder_frames` gives the parents), with four exact checks on that
    one stream: each cylinder is non-degenerate and lies strictly above the
    one before it; each lies inside its parent, and every parent keeps a
    child; and the subdivision tree's leaves at the first moment their
    definite word reaches `length` (`_rule_leaves`) match the cylinders
    pairwise, word for word and endpoint for endpoint.  The leaves are only
    compared with the cylinders, never used to build them.  A word mismatch
    or a leaf past the last cylinder stops the rule walk, not the cylinder
    checks.  The module docstring's shortcuts decide what they can from the
    plan (`_plan`), looked up once per scan; a settled family forms no
    endpoint image.

    Returns one result per check, each the dict its view returns
    (`scan_cylinders`, `scan_nested`, `containment_scan`), and `rule_error`:
    the message of the AssertionError the rule walk raised, or None."""
    disc, root, ext_digits, by_matrix, by_pos, _, levels = plan = _plan()
    cmp, image = moebius_cmp, moebius_image
    tails, settled, leaf_tails, agree = levels[length & 1]
    parent_tails = levels[~length & 1][0]
    top = length <= len(root)  # no parent level: the root word is the one cylinder
    parents = (_cylinder_frames([_moves(by_pos, root, pos) for pos in range(length - 1)])
               if length >= len(root) else ())
    moves = _moves(by_pos, root, length - 1)

    disjoint, nested, rules = [], [], []
    count = nested_count = childless = leaves = max_level = 0
    rule_error = None
    walk = _rule_leaves(plan, length)
    unpaired = None  # once the rule walk stops: the first cylinder past its leaves
    for parent in parents:
        _, pm, pstate, _, _ = parent
        ma, mb, mc, md = pm
        kids = moves[pstate]
        decided = False
        if not top:
            if not kids:
                childless += 1
                continue
            nested_count += len(kids)
            decided = settled is not None and settled[pstate]
            if not decided:
                plo, phi = image(pm, parent_tails[pstate][0]), image(pm, parent_tails[pstate][1])
        for i, (d, state, ext) in enumerate(kids):
            cm = (ma * d + mb, ma, mc * d + md, mc)
            if not decided:  # a decided family is in order and inside its parent
                lo, hi = image(cm, tails[state][0]), image(cm, tails[state][1])
                if cmp(lo, hi, disc) >= 0:
                    disjoint.append(("degenerate", _word(parent) + ext))
                if ((i or count and settled is None) and cmp(prev_hi, lo, disc) >= 0
                        and len(disjoint) < 20):  # across families only without `ordered`
                    disjoint.append(("overlap", _word(parent) + ext))
                if (not top and (cmp(plo, lo, disc) > 0 or cmp(hi, phi, disc) > 0)
                        and len(nested) < 20):
                    nested.append(("outside-parent", _word(parent) + ext))
                prev_hi = hi
            if unpaired is None:
                try:
                    leaf = next(walk, None)
                except AssertionError as exc:
                    rule_error, leaf = str(exc), None
                if leaf is None:
                    unpaired = count
                else:
                    type_id, me, level, _, _, _ = leaf
                    leaves += 1
                    if level > max_level:
                        max_level = level
                    if by_matrix and me == cm:
                        if not agree[type_id][state] and len(rules) < 20:
                            rules.append(("endpoint-mismatch", _word(parent) + ext))
                    else:
                        word = _word(parent) + ext
                        prefix, matrix = _leaf_prefix(leaf)
                        if prefix + ext_digits[type_id] != word:
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
            leaves += 1
            max_level = max(max_level, leaf[2])
            rules.append(("engine-extra", _leaf_prefix(leaf)[0] + ext_digits[leaf[0]]))
    elif unpaired < count:
        rules.append(("oracle-extra",))
    return {
        "cylinders": {"length": length, "count": count, "violations": disjoint},
        "nested": {"length": length, "count": nested_count, "violations": nested,
                   "childless_parents": childless},
        "containment": {"word_len": length, "count": leaves, "violations": rules,
                        "max_stop_level": max_level, "level_bound": _level_bound(plan, length)},
        "rule_error": rule_error,
    }


def scan_cylinders(length: int) -> dict:
    """One cylinder level's count and its degenerate and overlapping
    cylinders: a view of `scan_level`."""
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
