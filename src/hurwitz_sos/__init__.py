"""Exact sum-of-squares certificates for two-letter matrix word sums.

The package expands the sum of all length-p words with r B letters into
cyclic trace classes, verifies Hermitian-square certificates for those
sums exactly over the Gaussian rationals, searches for new certificates
over a fixed sandwich ansatz, and cross-validates everything against
floating-point word-sum traces on random positive semidefinite matrices.

Each module lists its public names in its own ``__all__``; the package
republishes them.
"""

from . import certificate, kernels, numeric, rational, search, validation, words
from .certificate import *
from .numeric import *
from .rational import *
from .search import *
from .validation import *
from .words import *

__version__ = "0.1.0"

__all__ = [
    *certificate.__all__,
    *numeric.__all__,
    *rational.__all__,
    *search.__all__,
    *validation.__all__,
    *words.__all__,
    "__version__",
]
