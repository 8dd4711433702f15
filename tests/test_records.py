"""The package's value records: immutable, equal and hashed by value, and
picklable, so they can cross a process boundary."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from f4cantor import constants
from f4cantor.cf import CFWord, PeriodicCF, convergents
from f4cantor.decompose import decompose, interleave
from f4cantor.oracle import containment_check
from f4cantor.segments import TYPE_TABLE, root_segment, subdivide
from f4cantor.thickness import GapFailure, certify, type_bound_records


def _records():
    state = decompose(constants.MU_BOUND, 8)
    report = certify(2)
    return {
        "CFWord": CFWord((4, 3, 1)),
        "PeriodicCF": PeriodicCF((4, 1), (1, 4, 1, 4, 1, 3)),
        "ConvergentSeq": convergents(CFWord((4, 3, 1, 2))),
        "SegmentType": TYPE_TABLE[5],
        "Segment": root_segment(),
        "Gap": subdivide(root_segment())[1],
        "RatioBoundRecord": type_bound_records()[0],
        "ConstantCheck": report.constant_checks[0],
        "GapFailure": GapFailure(3, 5, "lambda"),
        "CertReport": report,
        "Step": state.history[0],
        "ProductState": state,
        "WitnessWord": interleave([1, 2, 3, 1, 2], [2, 1, 3, 1, 1], ((1, 1), (3, 2))),
        "OracleCheck": containment_check(1),
    }


RECORDS = _records()


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    obj = RECORDS[request.param]
    assert type(obj).__name__ == request.param
    return obj


def test_fields_and_attributes_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_equal_fields_give_equal_records_and_hashes(record):
    copy = type(record)(*record)
    assert copy is not record
    assert copy == record and not copy != record
    assert hash(copy) == hash(record)


def test_pickle_round_trip(record):
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is type(record)
    assert restored == record


def test_collection_fields_are_fresh_tuples():
    # a record default must not be a shared mutable container
    state = decompose(constants.MU_BOUND, 0)
    assert state.history == ()
    report = certify(1)
    assert type(report.failures) is tuple and type(report.constant_checks) is tuple
    defaults = type(report)(*report[:8])
    assert (defaults.constant_checks, defaults.failures, defaults.worst_gap) == ((), (), None)


def test_cli_import_leaves_dataclasses_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import f4cantor.cli\n"
              "print('dataclasses' in set(sys.modules) - before)\n")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"
