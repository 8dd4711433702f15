"""Brute-force cylinder oracle and the engine-vs-oracle cross checks.

The scan functions stream the cylinder intervals C_n (words of length n+1
starting (4,3)) through a kernel backend, independently of the subdivision
rules, checking disjointness, nestedness and the finite containment of tree
levels in cylinder levels; each level's count is cross-checked against the
transfer-matrix path count.
"""

from typing import NamedTuple

from . import kernels, words
from .segments import TYPE_TABLE


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
    by dynamic programming over the nine types (no enumeration)."""
    best = {1: 2}
    for _ in range(level):
        nxt: dict[int, int] = {}
        for tid, dlen in best.items():
            spec = TYPE_TABLE[tid]
            base = dlen - len(spec.word_ext)
            for ct, ext in spec.children:
                cand = base + len(ext) + len(TYPE_TABLE[ct].word_ext)
                if cand < nxt.get(ct, 1 << 30):
                    nxt[ct] = cand
        best = nxt
    return min(best.values())


def containment_check(n: int) -> OracleCheck:
    """Finite containment check for tree level 3n inside cylinder level C_{n+1}.

    Every level-3n segment first pins down n+2 definite digits at some tree
    level <= 3n, and the pinned cylinders exactly match the admissible-word
    enumeration, word for word and endpoint for endpoint; the count is also
    checked against the transfer-matrix path count.
    """
    word_len = n + 2
    scan = kernels.containment_scan(word_len)
    transfer = words.count_words(word_len)
    level_bound = 3 * n
    ok = (not scan["violations"]
          and scan["count"] == transfer
          and scan["max_stop_level"] <= level_bound
          and minimal_definite_length(level_bound) >= word_len)
    detail = "" if ok else repr(scan["violations"][:5])
    return OracleCheck(word_len, scan["count"], transfer,
                       scan["max_stop_level"], level_bound, ok, detail)


def cylinder_level_check(length: int) -> dict:
    """Disjointness plus nestedness scans for one cylinder level; the count
    is cross-checked against the transfer matrix."""
    scan = kernels.scan_cylinders(length)
    nested = kernels.scan_nested(length) if length > 2 else {
        "violations": [], "childless_parents": 0}
    transfer = words.count_words(length)
    return {
        "length": length,
        "count": scan["count"],
        "transfer_count": transfer,
        "disjoint": not scan["violations"],
        "nested": not nested["violations"] and nested["childless_parents"] == 0,
        "ok": (not scan["violations"] and not nested["violations"]
               and nested["childless_parents"] == 0 and scan["count"] == transfer),
    }
