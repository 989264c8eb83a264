from itertools import product

import numpy as np
import pytest

from hurwitz_sos.kernels import hurwitz_trace
from hurwitz_sos.numeric import random_psd


def oracle_trace(A, B, p, r):
    total = 0.0 + 0.0j
    for bits in product((0, 1), repeat=p):
        if sum(bits) != r:
            continue
        M = np.eye(A.shape[0], dtype=complex)
        for b in bits:
            M = M @ (B if b else A)
        total += np.trace(M)
    return total


@pytest.mark.parametrize("p,r,n", [(4, 2, 2), (5, 3, 3), (6, 3, 2), (7, 3, 3)])
def test_numpy_kernel_matches_oracle(p, r, n):
    A = random_psd(n, seed=p)
    B = random_psd(n, seed=r + 100)
    got = hurwitz_trace(A, B, p, r)
    want = oracle_trace(A, B, p, r)
    assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


def test_numpy_kernel_edge_counts():
    A = random_psd(2, seed=1)
    B = random_psd(2, seed=2)
    # r=0 and r=p are single words
    assert np.isclose(
        hurwitz_trace(A, B, 3, 0), np.trace(A @ A @ A)
    )
    assert np.isclose(
        hurwitz_trace(A, B, 3, 3), np.trace(B @ B @ B)
    )
