"""Enumeration kernel backends.

`_pick` chooses the compiled extension (`_fast.c`) where its build artifact
is importable and the word length lies within its bound, else the pure-Python
reference (`_pure`, whose docstring states the exact shortcuts of its scan).
Both read the same integer tables (`_tables`, built once here), whose rules
are the rows of `segments.RULE_TABLE` and `segments.TAIL_TRIPLES` that
`rule_step` reads.  A backend keeps what it derives from its `init`'s
tables until its next `init`, so a changed table is seen from that on.  Both
expose `scan_level` and its views `scan_cylinders`, `scan_nested` and
`containment_scan`, with identical results (the tests hold the two to each
other); the wrappers here refuse the word lengths at which a scan would
check nothing.
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
