"""Shared fixtures.

`compiled_kernel` builds `_fast.c` into a temporary directory and loads it
without touching the import path, so the backend the rest of the suite
selects stays the one the checkout provides.  The build turns warnings into
errors and traps undefined behaviour at run time, so a signed overflow in the
kernel's 64- and 128-bit arithmetic aborts the suite instead of passing
silently.  `c_toolchain` is the compiler and the Python headers that build
needs; a test that asks for it is skipped where either is missing.
"""

import importlib.util
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from f4cantor import kernels

FAST_C = Path(__file__).resolve().parents[1] / "src" / "f4cantor" / "kernels" / "_fast.c"


@pytest.fixture(scope="session")
def c_toolchain():
    """(cc, include): the C compiler and the directory holding Python.h."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler (cc) to build _fast.c")
    include = sysconfig.get_paths()["include"]
    if not (Path(include) / "Python.h").exists():
        pytest.skip(f"no Python headers (Python.h) in {include}")
    return cc, include


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory, c_toolchain):
    """The compiled kernel module, initialised with the package's tables."""
    cc, include = c_toolchain
    target = tmp_path_factory.mktemp("fast") / ("_fast" + sysconfig.get_config_var("EXT_SUFFIX"))
    build = subprocess.run([cc, "-O2", "-Wall", "-Werror", "-fsanitize=undefined",
                            "-fno-sanitize-recover=all", "-shared", "-fPIC",
                            f"-I{include}", str(FAST_C), "-o", str(target)],
                           capture_output=True, text=True)
    if build.returncode != 0:
        pytest.fail(f"compiling {FAST_C.name} failed:\n{build.stderr[-2000:]}")
    spec = importlib.util.spec_from_file_location("f4cantor.kernels._fast", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.init(kernels.TABLES)
    return module
