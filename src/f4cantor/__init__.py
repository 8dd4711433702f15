"""Exact-arithmetic certification of a continued-fraction Cantor set.

The set consists of continued fractions with digits in {1,2,3,4} starting
(4,3) and avoiding the patterns (4,4) and (4,1,4,1,4).  This package
reconstructs it by binary subdivision with exact quadratic-surd endpoints,
certifies its thickness and log-thickness bounds, cross-validates the
construction against a brute-force cylinder oracle, and constructively
splits targets in the certified interval into products of two set elements.
"""

from . import cf, constants, decompose, kernels, oracle, segments, surd, thickness, utils, words

__version__ = "0.1.0"
