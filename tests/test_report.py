"""`report.to_json` writes exactly what the standard library's `json` writes
with a two-space indent and sorted keys, plus a newline; the documents keep
their bytes and do each derivation once."""

import json
from collections import Counter
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


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
        st.builds(Pair, children, children),
    )


values = st.recursive(scalars, _containers, max_leaves=30)
# a row list holds up to 6 keys x 5 rows of values, so its values nest one
# level deep: drawn from `values`, they took most of the test's time
row_values = st.one_of(scalars, _containers(scalars))


class Row(dict):
    """A dict subclass, which the rows path leaves to the general writer."""


def _rows(keys, items, order, extra, subclass):
    """Rows with one key set: each row's values drawn from `items`, its keys
    inserted in a rotated order; `extra` gives one row a different key set
    and `subclass` turns one row into a `Row`."""
    rows = []
    for i, values in enumerate(items):
        turn = (order + i) % len(keys)
        rotated = keys[turn:] + keys[:turn]
        rows.append({key: values[keys.index(key)] for key in rotated})
    if rows and extra is not None:
        rows[extra % len(rows)]["extra" if "extra" not in keys else "other"] = None
    if rows and subclass is not None:
        i = subclass % len(rows)
        rows[i] = Row(rows[i])
    return rows


@st.composite
def row_lists(draw):
    """Lists of dicts that share a key set, as the documents' transcript and
    failure lists are, with nested values."""
    # distinct keys without rejection: duplicates are dropped, the first kept
    keys = list(dict.fromkeys(draw(st.lists(texts, min_size=1, max_size=6))))
    items = draw(st.lists(st.tuples(*(row_values for _ in keys)), max_size=5))
    rows = _rows(keys, items, draw(st.integers(0, 5)),
                 draw(st.none() | st.integers(0, 4)), draw(st.none() | st.integers(0, 4)))
    return draw(st.sampled_from([list, tuple]))(rows)


@given(st.dictionaries(texts, st.one_of(values, row_lists(), st.lists(row_lists(), max_size=2)),
                       max_size=5))
@settings(max_examples=200)
def test_to_json_matches_the_stdlib(doc):
    assert report.to_json(doc) == stdlib_json(doc)


def test_to_json_rows_cases():
    # keys in two insertion orders, a nested value, a row with another key
    # set, a dict subclass row and an empty dict row
    rows = [{"b": 1, "a": [1, {"y": 2, "x": None}]},
            {"a": "s", "b": {"k": [True, 1.5]}},
            {"a": 1},
            Row(a=2, b=3),
            {},
            {"b": 0, "a": 0}]
    assert report.to_json({"rows": rows}) == stdlib_json({"rows": rows})
    assert report.to_json({"rows": rows[::-1]}) == stdlib_json({"rows": rows[::-1]})


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
    # the parsed target, the root and the final segments' endpoints, and the
    # final hull's two products with their difference, shared by final_width
    # and passed; the transcript is written from the Steps' images
    from f4cantor.surd import QuadSurd

    built = []
    init = QuadSurd.__init__
    monkeypatch.setattr(QuadSurd, "__init__",
                        lambda self, *args, **kwargs: built.append(args) or init(self, *args, **kwargs))
    doc = report.decompose_doc("18.4813", 60, 12)
    assert doc["passed"]
    assert len(built) <= 1 + 6 + 4


@pytest.mark.parametrize("n", [3, 8])
def test_oracle_doc_walks_each_level_once(monkeypatch, n):
    # per word length 3..n: one walk of the parent frames, one rule walk,
    # one plan lookup, which the scan hands to its rule walk, and one
    # transfer count, on the pure backend
    from f4cantor import kernels, words
    from f4cantor.kernels import _pure

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(kernels, "_fast", None)
    for name in ("_cylinder_frames", "_rule_leaves", "_plan"):
        monkeypatch.setattr(_pure, name, counted(name, getattr(_pure, name)))
    monkeypatch.setattr(words, "count_words", counted("count_words", words.count_words))
    assert report.oracle_doc(n)["passed"]
    assert calls == {"_cylinder_frames": n - 2, "_rule_leaves": n - 2, "_plan": n - 2,
                     "count_words": n - 2}


@pytest.mark.parametrize("n", [3, 8])
def test_oracle_doc_derives_the_table_set_up_once(monkeypatch, n):
    # the scans' plan depends only on the tables: from a cold plan, a
    # document builds the settled states at most once per length parity,
    # and a second builds none
    from f4cantor import kernels
    from f4cantor.kernels import _pure

    monkeypatch.setattr(kernels, "_fast", None)
    parities = []
    settled = _pure._settled_states
    monkeypatch.setattr(_pure, "_settled_states",
                        lambda *args: parities.append(args[-1]) or settled(*args))
    _pure.init(kernels.TABLES)
    for _ in range(2):
        assert report.oracle_doc(n)["passed"]
        assert sorted(parities) == [0, 1]


@pytest.mark.parametrize("build", ["endpoints", "bounds", "certify"])
def test_each_document_derives_the_constants_once(monkeypatch, build):
    # every closed-form constant comes from one `constant_cross_checks` table,
    # which derives the type-bound records once
    from f4cantor import thickness

    calls = []
    records = thickness.type_bound_records
    monkeypatch.setattr(thickness, "type_bound_records",
                        lambda: calls.append(1) or records())
    {"endpoints": lambda: report.endpoints_doc(12),
     "bounds": lambda: report.bounds_doc(12),
     "certify": lambda: thickness.certify(6)}[build]()
    assert len(calls) == 1


def test_frame_line_format():
    from f4cantor.segments import frame_segment, root_frame, rule_step

    line = report.frame_line(root_frame(), precision=10)
    depth, index, tid, digits, lo, hi, lo_dec, hi_dec = line.split("\t")
    assert (depth, index, tid, digits) == ("0", "1", "1", "4,3")
    assert lo == "(783 + 1*sqrt(26565))/222"
    assert hi == "(5501 - 1*sqrt(26565))/1238"
    assert lo_dec.startswith("4.26") and hi_dec.startswith("4.31")
    # the endpoint fields are those of the frame's built surds, at even and
    # odd prefix lengths
    first, second, _ = rule_step(rule_step(root_frame())[1])
    for frame in (first, second):
        seg = frame_segment(frame)
        for precision in (10, 40):
            assert report.frame_line(frame, precision).split("\t")[4:] == [
                seg.lo.canonical_text(), seg.hi.canonical_text(),
                seg.lo.to_decimal(precision), seg.hi.to_decimal(precision)]


@pytest.mark.parametrize("argv", [
    ["endpoints"], ["bounds"], ["certify", "--depth", "12"],
    ["report", "--depth", "6", "--oracle-depth", "4"],
], ids=["endpoints", "bounds", "certify-12", "report-6-4"])
def test_commands_build_no_segment_from_a_frame(monkeypatch, argv):
    # the constants read the root frame's images and certify keeps its worst
    # gap as frames, so no command builds a `Segment`'s endpoint surds
    import sys

    from f4cantor import segments

    calls = []
    built = segments.frame_segment
    for name, module in list(sys.modules.items()):
        if name.startswith("f4cantor") and getattr(module, "frame_segment", None) is built:
            monkeypatch.setattr(module, "frame_segment",
                                lambda frame: calls.append(frame) or built(frame))
    code, _ = run(build_parser().parse_args(argv))
    assert code == 0
    assert calls == []


# sha256 of each set-wide document's JSON without `generated_at` and
# `params.backend`; a change that alters a document on purpose updates its
# hash here and says so in CHANGES.md
DOCUMENT_SHA256 = {
    "endpoints": ("1f365d5ae2e9ea06cb5de238b1cbe3de990b6bd3fdc8d79dc397e9fc05c73109",
                  ["endpoints"]),
    "bounds": ("563ed5c6a5c97ac50c80e66b47bf8b000c10c04062be8076e3de0e484a3cc8e6",
               ["bounds"]),
    "certify-6": ("ad00e9fe3bf183121e7eba24de35d1e8a0c1245006af4f3f973cf7fa4d43a6ea",
                  ["certify", "--depth", "6"]),
    "report-6-4": ("8511d82e4b931714658d66e6a325a78ccff53f7f2e3d3a918bf9d9d5f64ecb76",
                   ["report", "--depth", "6", "--oracle-depth", "4"]),
}


@pytest.mark.parametrize("name", DOCUMENT_SHA256)
def test_set_wide_documents_keep_their_bytes(name):
    import hashlib

    digest, argv = DOCUMENT_SHA256[name]
    code, text = run(build_parser().parse_args(argv))
    doc = json.loads(text)
    del doc["generated_at"], doc["params"]["backend"]
    assert code == 0
    assert hashlib.sha256(report.to_json(doc).encode()).hexdigest() == digest
