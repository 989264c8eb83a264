"""Word-sum trace by the coefficient recurrence of (A + tB)^p.

Write (A + tB)^k = sum_j t^j P_k[j].  Then P_1 = (A, B) and
P_{k+1}[j] = P_k[j] A + P_k[j-1] B, and the sum of Tr(W) over all
length-p words W with r B's is Tr P_p[r].  Only P_k[0..r] is kept, as
one (r+1)n x n block column, so each of the p - 1 steps is two matmuls.

The input is a stack of m pairs, arrays of shape (m, n, n), and runs as
one recurrence with m block columns.  numpy evaluates a batched matmul
one slice at a time, so a pair's trace does not depend on the rest of
its stack.

Callers validate their inputs; :func:`hurwitz_sos.numeric.trace_hurwitz_numeric`
is the checked entry point.
"""

from __future__ import annotations

import numpy as np

# No compiled build exists; perfbench still records this flag in its run metadata.
USING_NUMBA = False


def hurwitz_trace(A, B, p: int, r: int):
    """Sum of Tr(W) over the C(p, r) words, as Tr P_p[r] of the recurrence.

    A and B are stacks of shape (m, n, n); the result is a complex vector
    of length m, one trace per pair.
    """
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    m, n, _ = A.shape
    P = np.zeros((m, r + 1, n, n), dtype=np.complex128)
    P[:, 0] = A
    P[:, 1:2] = B[:, np.newaxis]  # an empty slice when r = 0
    for _ in range(p - 1):
        Q = (P.reshape(m, -1, n) @ A).reshape(P.shape)
        Q[:, 1:] += (P[:, :-1].reshape(m, -1, n) @ B).reshape(m, r, n, n)
        P = Q
    return np.trace(P[:, r], axis1=-2, axis2=-1)
