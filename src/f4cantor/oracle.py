"""Brute-force cylinder oracle and the engine-vs-oracle cross checks.

Each cylinder level C_n (words of length n+1 starting (4,3)) is checked by
one kernel walk, `kernels.scan_level`, independently of the subdivision
rules: disjointness, nestedness in the level above, and the finite
containment of tree levels in cylinder levels, where the rule-tree leaves
are compared with the cylinders.  Each level's count is cross-checked
against the transfer-matrix path count.
"""

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


def _scan(word_len: int) -> tuple[dict, int]:
    """One `kernels.scan_level` walk of a level and its transfer-matrix
    count; the rule walk's AssertionError is raised."""
    scan = kernels.scan_level(word_len)
    if scan["rule_error"] is not None:
        raise AssertionError(scan["rule_error"])
    return scan, words.count_words(word_len)


def _engine_matches(leaves: dict, transfer: int) -> bool:
    """Whether the rule-tree leaves of a word length match its cylinders one
    for one, and no node at the scan's tree level bound B (`level_bound`)
    has a shorter definite word.  The rule walk raises on a node past B
    (`_scan`), so a walk that ends with no violation has reached a leaf on
    every branch by level B, and each node at level B is a leaf or lies
    below one.  A leaf's definite word has the length, so the second holds
    when no rule row shortens the definite word: the one term read from
    `kernels.TABLES`."""
    ext_len = {tid: len(ext) for tid, ext in kernels.TABLES["type_ext_digits"].items()}
    return (not leaves["violations"]
            and leaves["count"] == transfer
            and all(len(ext) + ext_len[child] >= ext_len[tid]
                    for tid, rows in kernels.TABLES["rule_table"].items()
                    for child, ext, _, _ in rows))


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
    ok = _engine_matches(leaves, transfer)
    detail = "" if ok else repr(leaves["violations"][:5])
    return OracleCheck(word_len, leaves["count"], transfer,
                       leaves["max_stop_level"], leaves["level_bound"], ok, detail)


def cylinder_level_check(length: int) -> dict:
    """Every check of one cylinder level from one walk: disjointness,
    nestedness, the count against the transfer matrix, and the containment
    of tree level 3(length - 2) (`containment_check`).  Returns the level's
    row of the `oracle-check` document."""
    scan, transfer = _scan(length)
    cylinders, nested, leaves = scan["cylinders"], scan["nested"], scan["containment"]
    disjoint = not cylinders["violations"]
    is_nested = not nested["violations"] and nested["childless_parents"] == 0
    engine_ok = _engine_matches(leaves, transfer)
    return {
        "word_len": length,
        "cylinders": cylinders["count"],
        "transfer_count": transfer,
        "disjoint": disjoint,
        "nested": is_nested,
        "tree_level_bound": leaves["level_bound"],
        "max_stop_level": leaves["max_stop_level"],
        "engine_matches_oracle": engine_ok,
        "passed": disjoint and is_nested and cylinders["count"] == transfer and engine_ok,
    }
