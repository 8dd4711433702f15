"""The package's import surface: submodule names resolve to modules, and the
names the benchmark harness in `perfbench/` imports or wraps still exist."""

import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_decompose_names_the_module(monkeypatch):
    import f4cantor.decompose as m

    assert isinstance(m, types.ModuleType)
    monkeypatch.setattr("f4cantor.decompose.decompose", lambda target, steps: None)
    assert m.decompose(None, 0) is None


HARNESS = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import probes, tracing, workloads
tracer = tracing.Tracer()
tracer.install()
tracer.uninstall()
"""


def test_benchmark_harness_imports_and_wraps_its_names():
    # a fresh interpreter, as `perfbench/run.py` starts one; no bytecode is
    # written under perfbench/
    script = HARNESS.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
