"""Enumeration kernel backends.

The compiled extension (`_fast.c`) is used when its build artifact is
importable; otherwise the pure-Python reference implementation takes over.
Both are fed the same integer tables (`_tables`), whose subdivision rules
are `segments.RULE_TABLE` and `segments.TAIL_TRIPLES` themselves, the rows
`rule_step` reads, so the rule walk checks the rules `certify` and
`decompose` run.  Both expose the same scans: one level walker,
`scan_level`, which checks disjointness, nestedness and the rule-tree
leaves on one walk of a cylinder level, and three views of it,
`scan_cylinders`, `scan_nested` and `containment_scan`, each of which
returns one of those checks' results.  Results are identical at every word
length (the test suite runs the pair against each other).  The compiled
`scan_level` compares endpoint values for every check; the pure one skips
the comparisons that an exact shortcut decides (sibling order and nesting
once per parent state; order across families by the cylinder lemma, under
the premise that every tail is positive and every root digit >= 0; leaf
words by matrix, under the row premise that each rule row's matrix folds
its digits, all >= 1; leaf endpoints from a matrix identity) and compares
words and values wherever no shortcut applies.  What those shortcuts read
of the tables (the settled parent states, the tail agreement per type and
end state, the digit moves, the row premise and the rule walk's push
tables) is derived once per table content and stack bound, and per parity
of the word length, into one cached plan that no scan writes; a table
changed after the plan was made keys a new one.  Its rule walk reads the
rows through push tables in which a child reached by an empty extension
that adds no definite digit is replaced by its own rows, each row
carrying R*E, its matrix times its child type's definite-digit matrix, so
that a leaf's M*E is one product; it builds a word only for a violation
entry or a word comparison.  Both refuse a rule row with digits whose
matrix is not of determinant (-1)^b for its b digits.
"""

from __future__ import annotations

from ._tables import build_tables
from . import _pure

TABLES = build_tables()
_pure.init(TABLES)

try:
    from . import _fast  # compiled; absent on source-only installs

    _fast.init(TABLES)
except ImportError:
    _fast = None


def backend_name() -> str:
    """"compiled" exactly when `_pick` can choose the compiled kernel: it is
    loaded and accepted its tables (a refused `init` sets `max_len()` to -1)."""
    return "compiled" if _fast is not None and _fast.max_len() >= 0 else "pure"


def available_backends() -> dict:
    out = {"pure": _pure}
    if _fast is not None:
        out["compiled"] = _fast
    return out


def _pick(length: int):
    """The compiled kernel owns lengths within its 64-bit safety bound."""
    if _fast is not None and length <= _fast.max_len():
        return _fast
    return _pure


def scan_level(length: int) -> dict:
    """Every check of one cylinder level in one walk.  The rule walk starts
    from the root, whose definite word already has 2 digits, so below that
    its leaves would check nothing, and those lengths are refused."""
    if length < 2:
        raise ValueError(f"scan_level needs a word length >= 2, got {length}")
    return _pick(length).scan_level(length)


def scan_cylinders(length: int) -> dict:
    return _pick(length).scan_cylinders(length)


def scan_nested(length: int) -> dict:
    """Nestedness of one cylinder level in the level above it.  The root
    level (length 2) has no parent level, so below length 3 the scan would
    check nothing, and those lengths are refused."""
    if length < 3:
        raise ValueError(f"scan_nested needs a word length >= 3, got {length}")
    return _pick(length).scan_nested(length)


def containment_scan(word_len: int) -> dict:
    """Rule-tree leaves against the cylinder stream.  The root's definite
    word already has 2 digits, so no leaf stops at a shorter word, and those
    lengths are refused."""
    if word_len < 2:
        raise ValueError(f"containment_scan needs a word length >= 2, got {word_len}")
    return _pick(word_len).containment_scan(word_len)
