"""Brute-force cylinder oracle and the engine-vs-oracle cross checks.

Each cylinder level C_n (words of length n+1 starting (4,3)) is checked by
one kernel walk, `kernels.scan_level`, independently of the subdivision
rules: disjointness, nestedness in the level above, and the finite
containment of tree levels in cylinder levels, where the rule-tree leaves
are compared with the cylinders.  Each level's count is cross-checked
against the transfer-matrix path count.
"""

from functools import lru_cache
from typing import NamedTuple

from . import kernels, words


class OracleCheck(NamedTuple):
    """Outcome of one cross-validated cylinder level (the `count` field hides
    the tuple method of that name)."""

    word_len: int
    count: int
    transfer_count: int
    max_stop_level: int
    level_bound: int
    ok: bool
    detail: str = ""


def minimal_definite_length(level: int) -> int:
    """Least definite word length over all subdivision-tree nodes at `level`,
    by dynamic programming over the rule rows the kernels walk
    (`kernels.TABLES`), with no enumeration.  The program runs once per rule
    table (`_definite_minima`) to 64 levels, the level bounds of word
    lengths up to 23, or to the next power of two above a deeper `level`."""
    tables = kernels.TABLES
    minima = _definite_minima(tuple(tables["rule_table"].items()),
                              tuple(tables["type_ext_digits"].items()),
                              1 << max(6, level.bit_length()))
    if level >= len(minima):
        raise ValueError(f"the subdivision tree has no node at level {level}")
    return minima[max(level, 0)]


@lru_cache(maxsize=8)
def _definite_minima(rules: tuple, ext_digits: tuple, levels: int) -> tuple:
    """Per level from 0 to `levels`, the least definite word length of a
    node there, for the items of `rule_table` and `type_ext_digits`; it
    stops early at a level with no node.  The root has the 2 digits of its
    prefix (4, 3)."""
    rules, ext_len = dict(rules), {tid: len(ext) for tid, ext in ext_digits}
    best, minima = {1: 2}, [2]
    while best and len(minima) <= levels:
        nxt: dict[int, int] = {}
        for tid, dlen in best.items():
            base = dlen - ext_len[tid]
            for ct, ext, _, _ in rules[tid]:
                cand = base + len(ext) + ext_len[ct]
                if cand < nxt.get(ct, 1 << 30):
                    nxt[ct] = cand
        best = nxt
        if best:
            minima.append(min(best.values()))
    return tuple(minima)


def _scan(word_len: int) -> tuple[dict, int]:
    """One `kernels.scan_level` walk of a level and its transfer-matrix
    count; the rule walk's AssertionError is raised."""
    scan = kernels.scan_level(word_len)
    if scan["rule_error"] is not None:
        raise AssertionError(scan["rule_error"])
    return scan, words.count_words(word_len)


def _engine_matches(leaves: dict, transfer: int, level_bound: int) -> bool:
    """Whether the rule-tree leaves of a word length match its cylinders one
    for one, stop by tree level `level_bound`, and no node at that level has
    a shorter definite word."""
    return (not leaves["violations"]
            and leaves["count"] == transfer
            and leaves["max_stop_level"] <= level_bound
            and minimal_definite_length(level_bound) >= leaves["word_len"])


def containment_check(n: int) -> OracleCheck:
    """Finite containment check for tree level 3n inside cylinder level C_{n+1}.

    Every level-3n segment first pins down n+2 definite digits at some tree
    level <= 3n, and the pinned cylinders exactly match the admissible-word
    enumeration, word for word and endpoint for endpoint; the count is also
    checked against the transfer-matrix path count.  A view of the level's
    one walk, as `cylinder_level_check` makes it.
    """
    word_len = n + 2
    scan, transfer = _scan(word_len)
    leaves = scan["containment"]
    level_bound = 3 * n
    ok = _engine_matches(leaves, transfer, level_bound)
    detail = "" if ok else repr(leaves["violations"][:5])
    return OracleCheck(word_len, leaves["count"], transfer,
                       leaves["max_stop_level"], level_bound, ok, detail)


def cylinder_level_check(length: int) -> dict:
    """Every check of one cylinder level from one walk: disjointness,
    nestedness, the count against the transfer matrix, and the containment
    of tree level 3(length - 2) (`containment_check`).  Returns the level's
    row of the `oracle-check` document."""
    scan, transfer = _scan(length)
    cylinders, nested = scan["cylinders"], scan["nested"]
    level_bound = 3 * (length - 2)
    disjoint = not cylinders["violations"]
    is_nested = not nested["violations"] and nested["childless_parents"] == 0
    engine_ok = _engine_matches(scan["containment"], transfer, level_bound)
    return {
        "word_len": length,
        "cylinders": cylinders["count"],
        "transfer_count": transfer,
        "disjoint": disjoint,
        "nested": is_nested,
        "tree_level_bound": level_bound,
        "max_stop_level": scan["containment"]["max_stop_level"],
        "engine_matches_oracle": engine_ok,
        "passed": disjoint and is_nested and cylinders["count"] == transfer and engine_ok,
    }
