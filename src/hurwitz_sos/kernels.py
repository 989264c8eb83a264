"""Brute-force word-sum trace: the sum of Tr(W) over all length-p words with r B's.

Callers validate their inputs; :func:`hurwitz_sos.numeric.trace_hurwitz_numeric`
is the checked entry point.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

# No compiled build exists; perfbench still records this flag in its run metadata.
USING_NUMBA = False


def hurwitz_trace(A, B, p: int, r: int) -> complex:
    """Sum of Tr(W) over the C(p, r) words, one numpy product chain per word."""
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    total = 0.0 + 0.0j
    for positions in combinations(range(p), r):
        chosen = set(positions)
        M = B if 0 in chosen else A
        for i in range(1, p):
            M = M @ (B if i in chosen else A)
        total += np.trace(M)
    return complex(total)
