"""Report documents: dict builders shared by the JSON and Markdown outputs.

All pass/fail flags in these documents come from exact comparisons made by
the underlying modules; decimal strings are labeled previews, never inputs
to a decision.
"""

from __future__ import annotations

import datetime as _dt
import json
from functools import lru_cache, partial
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from . import constants
from .cf import moebius_decimal, moebius_text
from .surd import DEFAULT_DISC, QuadSurd
from .thickness import CertReport, constant_cross_checks


def surd_entry(x: QuadSurd, precision: int) -> dict:
    return {"exact": x.canonical_text(), "decimal_preview": x.to_decimal(precision)}


def image_entry(e: tuple, precision: int) -> dict:
    """`surd_entry` of a `cf` Moebius image over the default field, unbuilt."""
    return {"exact": moebius_text(e, DEFAULT_DISC),
            "decimal_preview": moebius_decimal(e, DEFAULT_DISC, precision)}


def frame_line(frame: tuple, precision: int) -> str:
    """One-line record of a `segments` frame: depth, index, type, prefix
    digits, exact endpoints, decimal previews; fixed field order for
    consumers."""
    prefix, type_id, _, lo, hi, depth, index = frame
    return "\t".join((str(depth), str(index), str(type_id), ",".join(map(str, prefix)),
                      moebius_text(lo, DEFAULT_DISC), moebius_text(hi, DEFAULT_DISC),
                      moebius_decimal(lo, DEFAULT_DISC, precision),
                      moebius_decimal(hi, DEFAULT_DISC, precision)))


def endpoints_doc(precision: int) -> dict:
    rows = {c.name: c for c in constant_cross_checks()}
    lo, hi = rows["root_lo"].computed, rows["root_hi"].computed
    return {
        "root_interval": {"lo": surd_entry(lo, precision),
                          "hi": surd_entry(hi, precision),
                          "length": surd_entry(hi - lo, precision)},
        "product_interval": {"lo": surd_entry(rows["product_lo"].computed, precision),
                             "hi": surd_entry(rows["product_hi"].computed, precision)},
        "passed": all(rows[name].passed
                      for name in ("root_lo", "root_hi", "product_lo", "product_hi")),
    }


def bounds_doc(precision: int) -> dict:
    from .surd import cross_field_cmp

    rows = {c.name: c for c in constant_cross_checks()}
    type_rows = []
    for tid, (_, _, cap) in sorted(constants.TYPE_BOUNDS.items()):
        left, right = rows[f"type{tid}_bound_left"], rows[f"type{tid}_bound_right"]
        type_rows.append({
            "type": tid,
            "bound_left": surd_entry(left.computed, precision),
            "bound_right": surd_entry(right.computed, precision),
            "cap": f"{cap.numerator}/{cap.denominator}",
            "passed": (left.passed and right.passed
                       and max(left.computed, right.computed) <= cap),
        })
    tau, mu = rows["tau_lower"], rows["mu_bound"]
    flags = {"lambda": rows["lambda"].passed,
             "tau_lower": tau.passed,
             "gamma": rows["gamma_identity"].passed,
             "mu_bound": mu.passed,
             "delta_bound": rows["delta_bound"].passed}
    checks = {name: {**surd_entry(rows[name].computed, precision), "passed": flag}
              for name, flag in flags.items()}
    checks["mu_below_10_plus_6_sqrt2"] = {
        "exact": "mu_bound < 10 + 6*sqrt(2)",
        "passed": cross_field_cmp(mu.computed, constants.TEN_PLUS_6_SQRT2) < 0,
    }
    passed = all(r["passed"] for r in type_rows) and all(c["passed"] for c in checks.values())
    return {"type_bounds": type_rows, "constants": checks, "passed": passed}


def certify_doc(rep: CertReport, precision: int) -> dict:
    doc = {
        "depth": rep.depth,
        "gap_count": rep.gap_count,
        "lambda": surd_entry(rep.lam, precision),
        "tau_lower": surd_entry(rep.tau, precision),
        "gamma": surd_entry(rep.gamma, precision),
        "worst_ratio": surd_entry(rep.worst_ratio, precision),
        "ratio_all_pass": rep.ratio_all_pass,
        "log_condition_all_pass": rep.log_condition_all_pass,
        "constant_checks": [
            {"name": c.name, "computed": c.computed.canonical_text(),
             "expected": c.expected.canonical_text(), "passed": c.passed}
            for c in rep.constant_checks
        ],
        "failures": [{"depth": f.depth, "index": f.index, "kind": f.kind}
                     for f in rep.failures],
        "passed": rep.passed,
    }
    if rep.worst_gap is not None:
        doc["worst_gap_segments"] = [frame_line(f, precision) for f in rep.worst_gap]
    return doc


def oracle_doc(max_word_len: int) -> dict:
    from .oracle import cylinder_level_check

    levels = [cylinder_level_check(length) for length in range(3, max_word_len + 1)]
    return {"levels": levels, "passed": all(l["passed"] for l in levels)}


def decompose_doc(target_text: str, steps: int, precision: int,
                  verify_blocks: int = 0, disc: int | None = None) -> dict:
    from .cf import moebius_cmp, moebius_sub, moebius_target_cmp
    from .decompose import decompose, verify_construction, witness_for_target
    from .segments import definite_word
    from .surd import parse_surd

    target = parse_surd(target_text, disc=disc)
    state = decompose(target, steps)
    x, y = state.frame_x, state.frame_y
    lo, hi = state.hull
    # a step shares one endpoint image with the step before on its factor,
    # so each distinct image is written once
    text = lru_cache(maxsize=None)(partial(moebius_text, disc=DEFAULT_DISC))

    doc: dict[str, Any] = {
        "target": surd_entry(target, precision),
        "steps": steps,
        "x_word": list(definite_word(*x[:2])),
        "y_word": list(definite_word(*y[:2])),
        "x_interval": {"lo": image_entry(x[3], precision), "hi": image_entry(x[4], precision)},
        "y_interval": {"lo": image_entry(y[3], precision), "hi": image_entry(y[4], precision)},
        "transcript": [
            {"factor": s.factor, "child": s.child, "type": s.type_id,
             "child_lo": text(s.lo_image), "child_hi": text(s.hi_image),
             "width_preview": moebius_decimal(s.width_image, DEFAULT_DISC, precision)}
            for s in state.history
        ],
        "final_width": image_entry(moebius_sub(hi, lo, DEFAULT_DISC), precision),
        "width_strictly_decreasing": all(
            moebius_cmp(a.width_image, b.width_image, DEFAULT_DISC) > 0
            for a, b in zip(state.history, state.history[1:])),
        "passed": (moebius_target_cmp(lo, DEFAULT_DISC, target) <= 0
                   <= moebius_target_cmp(hi, DEFAULT_DISC, target)),
    }
    if verify_blocks:
        witness, found = witness_for_target(target, steps=max(steps, 200), blocks=verify_blocks)
        ver = verify_construction(witness, target, i_max=min(5, verify_blocks),
                                  product_width=found.width)
        doc["witness"] = {
            "digits": list(witness.digits),
            "junctions": list(witness.junctions),
            "cuts": [list(c) for c in witness.cuts],
            "patterns_ok": ver["patterns_ok"],
            "junction_distances": [f"{float(d):.3e}" for d in ver["junction_distances"]],
            "distances_strictly_decreasing": ver["distances_strictly_decreasing"],
            "off_junction_ok": ver["off_junction_ok"],
            "passed": ver["ok"],
        }
        doc["passed"] = doc["passed"] and ver["ok"]
    return doc


def to_json(doc: dict) -> str:
    """The document as `json` writes it with a two-space indent and sorted
    keys, plus a newline, byte for byte.

    With an indent set, `json` encodes through its generator-based Python
    encoder; this writer appends each chunk to one list and joins it once.
    Dict keys must be strings, as in every document here.
    """
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


# JSON text of the scalar types written without calling into `json`, keyed
# by exact type; any other scalar (a float, a str or int subclass) takes
# `json.dumps`'s own text.  The container loops write these items inline,
# saving a call per leaf.
_LEAF_TEXT = {str: _quote, int: int.__repr__,
              bool: {True: "true", False: "false"}.__getitem__,
              type(None): lambda _: "null"}


def _write(value: Any, newline: str, out: list[str]) -> None:
    leaf = _LEAF_TEXT.get(type(value))
    if leaf is not None:
        out.append(leaf(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            leaf = _LEAF_TEXT.get(type(item))
            if leaf is not None:
                out.append(sep + _quote(key) + ": " + leaf(item))
            else:
                out.append(sep + _quote(key) + ": ")
                _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        first = value[0]
        if type(first) is dict and first:
            _write_rows(value, first.keys(), inner, out)
            out.append(newline + "]")
            return
        sep = "[" + inner
        for item in value:
            leaf = _LEAF_TEXT.get(type(item))
            if leaf is not None:
                out.append(sep + leaf(item))
            else:
                out.append(sep)
                _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(value))


def _write_rows(rows: list | tuple, keys, newline: str, out: list[str]) -> None:
    """The items of a list whose first item is a plain non-empty dict: the
    rows that are plain dicts with its key set share one sorted key order
    and one quoted head per key; any other item is written by `_write`."""
    inner = newline + "  "
    order = sorted(keys)
    heads = ["{" + inner + _quote(order[0]) + ": "]
    heads += ["," + inner + _quote(key) + ": " for key in order[1:]]
    fields = list(zip(heads, order))
    close = newline + "}"
    sep = "[" + newline
    for row in rows:
        out.append(sep)
        sep = "," + newline
        if type(row) is not dict or row.keys() != keys:
            _write(row, newline, out)
            continue
        for head, key in fields:
            item = row[key]
            leaf = _LEAF_TEXT.get(type(item))
            if leaf is not None:
                out.append(head + leaf(item))
            else:
                out.append(head)
                _write(item, inner, out)
        out.append(close)


def stamp(doc: dict, command: str, params: dict) -> dict:
    out = {"command": command, "params": params, "generated_at":
           _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")}
    out.update(doc)
    return out


def _md_value(v: Any) -> str:
    if isinstance(v, bool):
        return "PASS" if v else "FAIL"
    if isinstance(v, dict) and "exact" in v:
        dec = v.get("decimal_preview")
        return f"`{v['exact']}` ≈ {dec}" if dec else f"`{v['exact']}`"
    return str(v)


def to_markdown(doc: dict) -> str:
    """Markdown mirror of the JSON document: one section per top-level key,
    tables for lists of flat dicts."""
    lines = [f"# {doc.get('command', 'report')}", ""]
    for key, value in doc.items():
        if key in ("command",):
            continue
        lines.append(f"## {key}")
        lines.extend(_md_block(value))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _md_block(value: Any, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(value, list) and value and all(isinstance(x, dict) for x in value):
        keys = list(value[0].keys())
        out = [pad + "| " + " | ".join(keys) + " |",
               pad + "|" + "---|" * len(keys)]
        for row in value:
            out.append(pad + "| " + " | ".join(_md_value(row.get(k, "")) for k in keys) + " |")
        return out
    if isinstance(value, dict):
        out = []
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                out.append(f"{pad}- **{k}**:")
                out.extend(_md_block(v, indent + 1))
            else:
                out.append(f"{pad}- **{k}**: {_md_value(v)}")
        return out
    return [pad + _md_value(value)]
