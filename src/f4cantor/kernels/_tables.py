"""Static integer tables shared by the enumeration kernels.

Everything a kernel needs is plain integers: the admissibility automaton,
the per-state cylinder tail pair (as reduced surd triples), each type's
definite digits, the tree levels the rule walks may descend per digit, and
the subdivision rules: `segments.RULE_TABLE` and
`segments.TAIL_TRIPLES` themselves, the rows `rule_step` runs for `certify`
and `decompose`, so the oracle's rule walk checks the one encoding of the
rules.  Both backends read this one dict.  The compiled kernel's `init`
refuses tables it cannot scan exactly, such as a tail (p + q*sqrt(D))/r
with |q| > 1 or a rule matrix above the all-fours matrix of its digit
count, which its 128-bit headroom bound excludes.
"""

from __future__ import annotations

from ..cf import PeriodicCF, eval_periodic
from ..segments import RULE_TABLE, STATE_TYPE, TAIL_TRIPLES, TYPE_TABLE
from ..surd import DEFAULT_DISC
from ..words import TRANSITIONS

BASE_PERIOD = (1, 4, 1, 4, 1, 3)


def _rotations(period):
    return [period[i:] + period[:i] for i in range(len(period))]


def _triple(s):
    return (s.p, s.q, s.r)


def build_tables() -> dict:
    sigma = [eval_periodic(PeriodicCF((), rot)) for rot in _rotations(BASE_PERIOD)]
    if not all(s.disc == DEFAULT_DISC for s in sigma):
        raise AssertionError(f"a rotation tail lies outside Q(sqrt({DEFAULT_DISC}))")

    # cylinder tails, indexed by the type of the automaton state at the end
    # of the word (segments.STATE_TYPE)
    post_pairs = {
        1: (0, 1),  # continuations per(1,4,1,4,1,3) / per(4,1,4,1,3,1)
        4: (2, 5),  # per(1,4,1,3,1,4) / per(3,1,4,1,4,1)
        6: (0, 3),  # per(1,4,1,4,1,3) / per(4,1,3,1,4,1)
        7: (4, 5),  # per(1,3,1,4,1,4) / per(3,1,4,1,4,1)
        9: (0, 5),  # per(1,4,1,4,1,3) / per(3,1,4,1,4,1)
    }
    for tid, (i, j) in post_pairs.items():
        if not sigma[i] < sigma[j]:
            raise AssertionError(f"type {tid} cylinder tails are not ordered")

    return {
        "disc": DEFAULT_DISC,
        "transitions": tuple(TRANSITIONS),
        "sigma": tuple(_triple(s) for s in sigma),
        "state_post_pair": tuple(post_pairs[t] for t in STATE_TYPE),
        "state_type": STATE_TYPE,
        "rule_table": RULE_TABLE,
        "tail_triples": TAIL_TRIPLES,
        "type_ext_digits": {tid: spec.word_ext for tid, spec in TYPE_TABLE.items()},
        "root_prefix": (4, 3),
        # the rule walks' one limit: tree level 3n lies inside cylinder level
        # n + 2, so a word n digits past the root has its leaves by level 3n
        "levels_per_digit": 3,
    }
