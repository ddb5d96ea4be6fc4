"""defo5: exact verification of the order-5, conductor-2 deformation
computation over finite Artinian local rings of residue characteristic 5."""

import os
import sys

# defo5's array work is integer einsum, @ and %, which numpy never sends to
# BLAS, so OpenBLAS workers would only spin.  numpy reads the variable once,
# when it loads; a value the user set wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "1.0.0"

from .artin import build_ring
from .nottingham import Automorphism, base_sigma, hasse_conductor, order
from .series import TruncatedSeries

__all__ = ["Automorphism", "TruncatedSeries", "__version__", "base_sigma",
           "build_ring", "hasse_conductor", "order"]
