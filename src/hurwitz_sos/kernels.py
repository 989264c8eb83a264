"""Word-sum traces by the coefficient recurrence of (A + tB)^p, met in the middle.

Write (A + tB)^k = sum_j t^j P_k[j].  Then P_1 = (A, B) and
P_{k+1}[j] = P_k[j] A + P_k[j-1] B, and the sum of Tr(W) over all
length-p words W with j B's is Tr P_p[j].  With h = ceil(p/2), the split
(A + tB)^p = (A + tB)^h (A + tB)^(p-h) gives
Tr P_p[j] = sum_{i+l=j} Tr(P_h[i] P_{p-h}[l]), so the recurrence runs
only h - 1 steps, each two matmuls on the blocks P_k[0..min(r, h)], and
keeps P_{p-h} as it passes.  As Tr(XY) = sum_ab X_ab Y_ba, one matmul of
the flattened blocks gives every Tr(P_h[i] P_{p-h}[l]).  Degree j sums
those with i + l = j, which read only blocks 0..j, so its trace is the
same whatever r the run keeps.

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
    hi, lo = (p + 1) // 2, p // 2
    k = min(r, hi) + 1  # P_hi[j] = 0 for j > hi
    P = np.zeros((m, k, n, n), dtype=np.complex128)
    P[:, 0] = A
    P[:, 1:2] = B[:, np.newaxis]  # an empty slice when r = 0
    if lo == 0:  # p = 1: no lower half
        return np.trace(P, axis1=-2, axis2=-1)
    low = P
    for step in range(2, hi + 1):
        Q = (P.reshape(m, -1, n) @ A).reshape(P.shape)
        Q[:, 1:] += (P[:, :-1].reshape(m, -1, n) @ B).reshape(m, k - 1, n, n)
        P = Q
        if step == lo:
            low = P
    # Tr(P_hi[i] P_lo[l]) in column l of row i of width w + 1; read at
    # width w >= r + 1, row i shifts right by i, so column j sums i + l = j
    kl = min(r, lo) + 1
    w = k + kl - 1
    S = np.zeros((m, k, w + 1), dtype=np.complex128)
    lo_t = low[:, :kl].transpose(0, 3, 2, 1).reshape(m, n * n, kl)
    np.matmul(P.reshape(m, k, n * n), lo_t, out=S[:, :, :kl])
    return S.reshape(m, -1)[:, : k * w].reshape(m, k, w).sum(axis=1)[:, : r + 1]
