"""Build script: compiles the optional enumeration kernel.

The kernel is the hand-written CPython extension `_fast.c`.  Its build is
optional: when it fails (no compiler, no Python headers) the install still
succeeds and `f4cantor.kernels` falls back to the pure-Python implementation
at import time.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("f4cantor.kernels._fast", ["src/f4cantor/kernels/_fast.c"],
                             extra_compile_args=["-O3"], optional=True)])
