"""Word-sum traces by the coefficient recurrence of (A + tB)^p.

Write (A + tB)^k = sum_j t^j P_k[j].  Then P_1 = (A, B) and
P_{k+1}[j] = P_k[j] A + P_k[j-1] B, and the sum of Tr(W) over all
length-p words W with j B's is Tr P_p[j].  Only P_k[0..r] is kept, as
one (r+1)n x n block column, so each of the p - 1 steps is two matmuls,
and one run gives the traces of every degree j = 0..r.  Block j depends
only on blocks 0..j, so its trace is the same whatever r the run keeps.

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
    """Word-sum traces Tr P_p[j] of the recurrence for every degree j = 0..r.

    A and B are stacks of shape (m, n, n); the result is a complex array
    of shape (m, r + 1) whose entry (k, j) is the sum of Tr(W) over the
    C(p, j) words with j B's, for pair k.
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
    return np.trace(P, axis1=-2, axis2=-1)
