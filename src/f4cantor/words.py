"""Digit words over {1,2,3,4} avoiding the patterns (4,4) and (4,1,4,1,4).

Provides the admissibility scan with the first-violation index, the 5-state
suffix automaton used by the enumeration kernels, and an independent
transfer-matrix path count used to cross-check enumerations.
"""

from __future__ import annotations

DIGITS = (1, 2, 3, 4)
FORBIDDEN_PAIR = (4, 4)
FORBIDDEN_QUINT = (4, 1, 4, 1, 4)
PREFIX = (4, 3)  # every word of the set starts with these digits

# automaton states: longest suffix that is a proper prefix of a forbidden word
# 0: "",  1: (4,),  2: (4,1),  3: (4,1,4),  4: (4,1,4,1);  -1: dead
STATE_SUFFIXES = ((), (4,), (4, 1), (4, 1, 4), (4, 1, 4, 1))
DEAD = -1


def _build_transitions() -> tuple[tuple[int, ...], ...]:
    table = []
    for suffix in STATE_SUFFIXES:
        row = []
        for d in DIGITS:
            word = suffix + (d,)
            if word[-2:] == FORBIDDEN_PAIR or word[-5:] == FORBIDDEN_QUINT:
                row.append(DEAD)
                continue
            # longest suffix of `word` that is itself a state
            nxt = 0
            for s, cand in enumerate(STATE_SUFFIXES):
                if len(cand) <= len(word) and word[len(word) - len(cand):] == cand:
                    nxt = s
            row.append(nxt)
        table.append(tuple(row))
    return tuple(table)


TRANSITIONS = _build_transitions()


def step_state(state: int, digit: int) -> int:
    if digit not in (1, 2, 3, 4):
        return DEAD
    return TRANSITIONS[state][digit - 1]


def state_after(word) -> int:
    state = 0
    for d in word:
        state = step_state(state, d)
        if state == DEAD:
            return DEAD
    return state


def first_violation(word) -> int | None:
    """The index K of the first forbidden digit or pattern start, or None."""
    n = len(word)
    for i in range(n):
        if word[i] not in (1, 2, 3, 4):
            return i
        if tuple(word[i:i + 2]) == FORBIDDEN_PAIR:
            return i
        if tuple(word[i:i + 5]) == FORBIDDEN_QUINT:
            return i
    return None


def admissible(word) -> bool:
    return first_violation(word) is None


def count_words(length: int) -> int:
    """Number of admissible words of `length` starting with `PREFIX`,
    counted by the automaton's transfer matrix: the per-state path counts
    are stepped one digit at a time (no enumeration involved)."""
    if length < len(PREFIX):
        raise ValueError("length shorter than the fixed prefix")
    paths = [0] * len(STATE_SUFFIXES)
    paths[state_after(PREFIX)] = 1
    for _ in range(length - len(PREFIX)):
        step = [0] * len(paths)
        for state, n in enumerate(paths):
            for t in TRANSITIONS[state]:
                if t != DEAD:
                    step[t] += n
        paths = step
    return sum(paths)
