import json
from fractions import Fraction

import pytest

from f4cantor.cli import build_parser, main, run


def run_cli(argv):
    args = build_parser().parse_args(argv)
    return run(args)


def strip_timestamp(text):
    doc = json.loads(text)
    doc.pop("generated_at", None)
    return doc


def test_endpoints_json():
    code, text = run_cli(["endpoints"])
    assert code == 0
    doc = json.loads(text)
    assert doc["product_interval"]["lo"]["exact"] == "(106609 + 261*sqrt(26565))/8214"
    assert doc["root_interval"]["lo"]["exact"] == "(783 + 1*sqrt(26565))/222"


def test_endpoints_passed_is_decided_against_the_constants(monkeypatch):
    from f4cantor import constants

    monkeypatch.setattr(constants, "PRODUCT_HI", constants.PRODUCT_LO)
    code, text = run_cli(["endpoints"])
    assert code == 1
    assert json.loads(text)["passed"] is False


def test_bounds_includes_tau_pass():
    code, text = run_cli(["bounds"])
    assert code == 0
    doc = json.loads(text)
    tau = doc["constants"]["tau_lower"]
    assert tau["exact"] == "(-228339 + 83497*sqrt(26565))/13158329"
    assert abs(float(tau["decimal_preview"]) - 1.0169) < 1e-4
    assert tau["passed"] is True


def test_certify_exit_zero():
    code, text = run_cli(["certify", "--depth", "5"])
    assert code == 0
    doc = json.loads(text)
    assert doc["passed"] and doc["gap_count"] == 31


def test_oracle_check():
    code, text = run_cli(["oracle-check", "--depth", "6"])
    assert code == 0
    doc = json.loads(text)
    assert all(level["passed"] for level in doc["levels"])


def test_decompose_command():
    code, text = run_cli([
        "decompose", "--target", "(19425 + 111*sqrt(26565))/2030",
        "--depth", "30", "--blocks", "4"])
    assert code == 0
    doc = json.loads(text)
    assert doc["passed"] and doc["witness"]["passed"]
    assert doc["width_strictly_decreasing"]


def test_decompose_rational_target():
    code, text = run_cli(["decompose", "--target", "18.3", "--depth", "25",
                          "--blocks", "0"])
    assert code == 0


def test_foreign_target_passed_is_decided_on_the_true_target():
    # the search tests each hull against the sqrt(2) target itself, so after
    # 300 steps, with the hull narrower than 1e-60, it still holds the target
    code, text = run_cli(["--disc", "2", "decompose", "--target", "(72 + 1*sqrt(2))/4",
                          "--depth", "300", "--blocks", "0"])
    assert code == 0
    assert json.loads(text)["passed"] is True


def test_bad_target_is_error_exit(capsys):
    for target, blocks in (("nonsense", []), ("2.0", ["--blocks", "0"]),
                           ("(1 + 1*sqrt(26565))/0", ["--blocks", "0"])):
        assert main(["decompose", "--target", target] + blocks) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["oracle-check", "--depth", "2"],
    ["oracle-check", "--depth", "-1"],
    ["report", "--oracle-depth", "0"],
    ["decompose", "--target", "18.4", "--blocks", "-1"],
    ["decompose", "--target", "18.4", "--depth", "-5", "--blocks", "0"],
    ["--precision", "5", "endpoints"],
    ["--jobs", "0", "certify", "--depth", "3"],
], ids=["oracle-depth-2", "oracle-depth-negative", "report-oracle-depth-0",
        "decompose-blocks-negative", "decompose-depth-negative", "precision-5", "jobs-0"])
def test_settings_that_check_nothing_are_refused(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "must be >=" in captured.err


def test_witness_blocks_are_capped(monkeypatch, capsys):
    # the cap admits perfbench's 64 blocks and report's 8; one block more is
    # refused before any search
    from f4cantor import report
    from f4cantor.cli import MAX_BLOCKS

    asked = []
    monkeypatch.setattr(report, "decompose_doc", lambda *args, verify_blocks, disc:
                        asked.append(verify_blocks) or {"passed": True})
    assert MAX_BLOCKS == 128
    assert main(["decompose", "--target", "18.4", "--blocks", "128"]) == 0
    assert asked == [128]
    capsys.readouterr()
    assert main(["decompose", "--target", "18.4", "--blocks", "129"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --blocks must be <= 128, got 129\n"
    assert asked == [128]


def test_exhausted_decompose_budget_is_error_exit(monkeypatch, capsys):
    from f4cantor.decompose import decompose as search

    monkeypatch.setattr("f4cantor.decompose.decompose",
                        lambda target, steps: search(target, steps, attempt_budget=1))
    assert main(["decompose", "--target", "18.4", "--depth", "10", "--blocks", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: attempt budget 1 exhausted")


@pytest.mark.parametrize("argv", [
    ["decompose", "--target", "18.4", "--depth", "10", "--blocks", "0"],
    ["certify", "--depth", "3"],
], ids=["decompose", "certify"])
def test_broken_nesting_is_error_exit(monkeypatch, capsys, argv):
    # type 4 given type 1's tails: the root's second child is the root
    # itself, so the first rule step breaks nesting
    from f4cantor import segments

    monkeypatch.setitem(segments.TAIL_TRIPLES, 4, segments.TAIL_TRIPLES[1])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: subdivision broke nesting at type 1 prefix [4, 3]")


def test_depth_limit_is_error_exit(capsys):
    assert main(["certify", "--depth", "23"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: depth 23 exceeds limit 22\n"


def test_oracle_depth_floor_checks_one_level():
    code, text = run_cli(["oracle-check", "--depth", "3"])
    assert code == 0
    assert [level["word_len"] for level in json.loads(text)["levels"]] == [3]


def test_jobs_do_not_change_output():
    _, a = run_cli(["certify", "--depth", "4"])
    _, b = run_cli(["--jobs", "2", "certify", "--depth", "4"])
    da, db = strip_timestamp(a), strip_timestamp(b)
    da["params"].pop("jobs")
    db["params"].pop("jobs")
    assert da == db


def test_repeat_runs_byte_identical_modulo_timestamp():
    _, a = run_cli(["bounds"])
    _, b = run_cli(["bounds"])
    assert strip_timestamp(a) == strip_timestamp(b)


def test_markdown_mirrors_json():
    code, text = run_cli(["--format", "markdown", "bounds"])
    assert code == 0
    assert text.startswith("# bounds")
    assert "(228339 + 83497*sqrt(26565))/14071116" in text
    assert "PASS" in text


def test_output_file(tmp_path):
    out = tmp_path / "report.json"
    assert main(["--output", str(out), "endpoints"]) == 0
    assert json.loads(out.read_text())["passed"]


def test_unwritable_output_is_error_exit(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["--output", str(out), "endpoints"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: cannot write --output: ")
    assert not out.parent.exists()


def test_report_command_rolls_up():
    code, text = run_cli(["report", "--depth", "5", "--oracle-depth", "5"])
    assert code == 0
    doc = json.loads(text)
    for section in ("endpoints", "bounds", "certify", "oracle", "decompose"):
        assert doc[section]["passed"], section
    assert doc["passed"]


def test_decompose_transcript_and_witness_dump():
    code, text = run_cli(["decompose", "--target", "18.42", "--depth", "20",
                          "--blocks", "3"])
    assert code == 0
    doc = json.loads(text)
    assert len(doc["transcript"]) == 20
    step = doc["transcript"][0]
    assert {"factor", "child", "type", "child_lo", "child_hi",
            "width_preview"} <= set(step)
    assert doc["witness"]["junctions"] == sorted(doc["witness"]["junctions"])
    digits = doc["witness"]["digits"]
    for k in doc["witness"]["junctions"]:
        assert digits[k] == 4 and digits[k + 1] == 4


def test_precision_floor(capsys):
    with pytest.raises(ValueError, match="--precision must be >= 10"):
        run_cli(["--precision", "5", "endpoints"])
    assert run_cli(["--precision", "10", "endpoints"])[0] == 0
    # the ceiling is Python's default limit on converting an int to a
    # string: a longer preview would leak the interpreter's own message
    code, text = run_cli(["--precision", "4300", "endpoints"])
    assert code == 0
    assert len(json.loads(text)["root_interval"]["lo"]["decimal_preview"].split(".")[1]) == 4300
    with pytest.raises(ValueError, match="--precision must be <= 4300, got 4301"):
        run_cli(["--precision", "4301", "endpoints"])
    assert main(["--precision", "4301", "endpoints"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --precision must be <= 4300, got 4301\n"


# each constant of `constants.py` moved by 1/10^6, with the exit codes of
# `endpoints`, `bounds` and `certify --depth 2` and the flag each failing
# document shows false: every document that reports the constant fails, and
# only those
_EPS = Fraction(1, 10 ** 6)
TAMPERED_CONSTANTS = {
    "ROOT_LO": ((1, 0, 1), None, "root_lo"),
    "ROOT_HI": ((1, 0, 1), None, "root_hi"),
    "PRODUCT_LO": ((1, 0, 1), None, "product_lo"),
    "PRODUCT_HI": ((1, 0, 1), None, "product_hi"),
    "LAMBDA": ((0, 1, 1), ("constants", "lambda"), "lambda"),
    "TAU_LOWER": ((0, 1, 1), ("constants", "tau_lower"), "tau_lower"),
    "GAMMA": ((0, 1, 1), ("constants", "gamma"), "gamma"),
    "MU_BOUND": ((0, 1, 1), ("constants", "mu_bound"), "mu_bound"),
    "TYPE_BOUNDS[9].left": ((0, 1, 1), ("type_bounds", 8), "type9_bound_left"),
    "TYPE_BOUNDS[6].right": ((0, 1, 1), ("type_bounds", 5), "type6_bound_right"),
    "DELTA_BOUND": ((0, 1, 1), ("constants", "delta_bound"), "delta_bound"),
}


def _tamper(monkeypatch, name):
    from f4cantor import constants

    if name.startswith("TYPE_BOUNDS"):
        tid, side = int(name[12]), name.endswith("right")
        entry = list(constants.TYPE_BOUNDS[tid])
        entry[side] += _EPS
        monkeypatch.setitem(constants.TYPE_BOUNDS, tid, tuple(entry))
    else:
        monkeypatch.setattr(constants, name, getattr(constants, name) + _EPS)


@pytest.mark.parametrize("name", TAMPERED_CONSTANTS)
def test_a_tampered_constant_fails_every_document_that_reports_it(monkeypatch, name):
    codes, bounds_flag, row = TAMPERED_CONSTANTS[name]
    _tamper(monkeypatch, name)
    runs = [run_cli(argv) for argv in (["endpoints"], ["bounds"], ["certify", "--depth", "2"])]
    assert tuple(code for code, _ in runs) == codes
    endpoints, bounds, cert = (json.loads(text) for _, text in runs)
    if codes[0] == 1:
        assert endpoints["passed"] is False
    if bounds_flag is not None:
        section, key = bounds_flag
        assert bounds[section][key]["passed"] is False
        assert bounds["passed"] is False
    if row is not None:
        failing = {c["name"] for c in cert["constant_checks"] if not c["passed"]}
        assert failing == ({row, "gamma_identity"} if row == "gamma" else {row})
        assert cert["passed"] is False
