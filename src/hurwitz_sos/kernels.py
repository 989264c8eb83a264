"""Word-sum trace by the coefficient recurrence of (A + tB)^p.

Write (A + tB)^k = sum_j t^j P_k[j].  Then P_1 = (A, B) and
P_{k+1}[j] = P_k[j] A + P_k[j-1] B, and the sum of Tr(W) over all
length-p words W with r B's is Tr P_p[r].  Only P_k[0..r] is kept, so
each of the p - 1 steps is two batched matmuls over a stack of r + 1
matrices.

Callers validate their inputs; :func:`hurwitz_sos.numeric.trace_hurwitz_numeric`
is the checked entry point.
"""

from __future__ import annotations

import numpy as np

# No compiled build exists; perfbench still records this flag in its run metadata.
USING_NUMBA = False


def hurwitz_trace(A, B, p: int, r: int) -> complex:
    """Sum of Tr(W) over the C(p, r) words, as Tr P_p[r] of the recurrence."""
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    P = np.zeros((r + 1,) + A.shape, dtype=np.complex128)
    P[0] = A
    P[1:2] = B  # an empty slice when r = 0
    for _ in range(p - 1):
        Q = P @ A
        Q[1:] += P[:-1] @ B
        P = Q
    return complex(np.trace(P[r]))
