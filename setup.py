"""Build script: compiles the optional enumeration kernel.

With Cython installed the kernel is built from `_fast.pyx`; without it, from
the shipped `_fast.c` generated from that source.  The C build is optional:
when it fails (no compiler, no Python headers) the install still succeeds and
`f4cantor.kernels` falls back to the pure-Python implementation at import
time.
"""

import os

from setuptools import Extension, setup

PYX = "src/f4cantor/kernels/_fast.pyx"
C_SRC = "src/f4cantor/kernels/_fast.c"

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

if cythonize is not None and os.path.exists(PYX):
    ext_modules = cythonize(
        [Extension("f4cantor.kernels._fast", [PYX], extra_compile_args=["-O3"])],
        compiler_directives={"language_level": "3"},
    )
else:
    ext_modules = [Extension("f4cantor.kernels._fast", [C_SRC],
                             extra_compile_args=["-O3"], optional=True)]

setup(ext_modules=ext_modules)
