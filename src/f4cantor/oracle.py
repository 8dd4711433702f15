"""Brute-force cylinder oracle and the engine-vs-oracle cross checks.

`enumerate_cn(n)` materializes the cylinder intervals C_n (words of length
n+1 starting (4,3)) via suffix classification, independently of the
subdivision rules.  The scan functions stream the same data through a kernel
backend for the large levels, checking disjointness, nestedness and the
finite containment of tree levels in cylinder levels.
"""

from typing import NamedTuple

from . import kernels, words
from .segments import TYPE_TABLE, DepthLimit, Segment, segment_for_word

ENUMERATION_LIMIT = 14  # C_14 means 4^13-ish words; beyond this, refuse


def enumerate_cn(n: int, limit: int = ENUMERATION_LIMIT) -> list[Segment]:
    """The disjoint closed cylinder intervals of C_n, ascending by position."""
    if n < 1:
        raise ValueError("n must be >= 1 (C_1 is the root cylinder)")
    if n > limit:
        raise DepthLimit(f"C_{n} enumeration exceeds the configured limit {limit}")
    out = [segment_for_word(w) for w in words.iter_words(n + 1)]
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
