"""`report.to_json` writes exactly what the standard library's `json` writes
with a two-space indent and sorted keys, plus a newline."""

import json
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f4cantor import report
from f4cantor.cli import build_parser, run


def stdlib_json(doc):
    """The reference serialization."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class Pair(NamedTuple):
    first: object
    second: object


class Count(int):
    """An int subclass whose own text differs from `int.__repr__`'s."""

    def __repr__(self):
        return f"Count({int(self)})"

    __str__ = __repr__


class Label(str):
    """A str subclass whose own text differs from its characters."""

    def __repr__(self):
        return f"Label({str.__str__(self)!r})"

    __str__ = __repr__


texts = st.one_of(
    st.text(),
    # quotes, backslashes, control characters, DEL, non-ASCII, an astral
    # character and a lone surrogate
    st.text(alphabet='"\\/\x00\b\t\n\x1f\x7f é €\U0001f600\ud800'),
)
scalars = st.one_of(
    texts,
    st.integers(),
    st.integers(-2 ** 80, 2 ** 80),
    st.integers(2 ** 64, 2 ** 100),
    st.integers().map(Count),
    texts.map(Label),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
        st.builds(Pair, children, children),
    ),
    max_leaves=30,
)


@given(st.dictionaries(texts, values, max_size=5))
@settings(max_examples=150)
def test_to_json_matches_the_stdlib(doc):
    assert report.to_json(doc) == stdlib_json(doc)


@pytest.mark.parametrize("argv", [
    ["endpoints"],
    ["bounds"],
    ["certify", "--depth", "6"],
    ["oracle-check", "--depth", "5"],
    ["decompose", "--target", "18.481", "--blocks", "4"],
    ["--disc", "2", "decompose", "--target", "(72 + 1*sqrt(2))/4", "--blocks", "0"],
    ["report", "--depth", "4", "--oracle-depth", "4"],
], ids=["endpoints", "bounds", "certify", "oracle-check", "decompose",
        "decompose-sqrt2", "report"])
def test_cli_documents_match_the_stdlib(argv):
    code, text = run(build_parser().parse_args(argv))
    assert code == 0
    assert text == stdlib_json(json.loads(text))


def test_decompose_doc_builds_the_final_hull_once(monkeypatch):
    # the parsed target, the search's reported path, and the final hull's
    # two products with their difference, shared by final_width and passed
    from f4cantor.surd import QuadSurd

    built = []
    init = QuadSurd.__init__
    monkeypatch.setattr(QuadSurd, "__init__",
                        lambda self, *args, **kwargs: built.append(args) or init(self, *args, **kwargs))
    doc = report.decompose_doc("18.4813", 60, 12)
    assert doc["passed"]
    assert len(built) <= 67
