import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz_sos.kernels import hurwitz_trace
from hurwitz_sos.numeric import gaussian_stream, random_psd
from hurwitz_sos.words import hurwitz_expand

from oracles import oracle_recurrence, oracle_trace


@pytest.mark.parametrize(
    "p,r,n",
    [
        (4, 2, 2),
        (5, 3, 3),
        (6, 3, 2),
        (7, 3, 3),
        (7, 5, 3),  # r > p/2
        (7, 7, 2),  # r = p
        (6, 0, 3),  # r = 0
        (1, 0, 3),
        (1, 1, 3),
        (5, 2, 1),  # scalars
        (10, 5, 3),  # the largest p of the bmv-scan benchmark
    ],
)
def test_numpy_kernel_matches_oracle(p, r, n):
    A = random_psd(n, seed=p)
    B = random_psd(n, seed=r + 100)
    got = hurwitz_trace(A[np.newaxis], B[np.newaxis], p, r)[0, r]
    want = oracle_trace(A, B, p, r)
    assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


def test_hurwitz_trace_non_hermitian_pair():
    g = gaussian_stream(7, 4 * 9)
    A = (g[0:9] + 1j * g[9:18]).reshape(3, 3)
    B = (g[18:27] + 1j * g[27:36]).reshape(3, 3)
    for r in range(7):
        got = hurwitz_trace(A[np.newaxis], B[np.newaxis], 6, r)[0, r]
        want = oracle_trace(A, B, 6, r)
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


def test_numpy_kernel_edge_counts():
    A = random_psd(2, seed=1)
    B = random_psd(2, seed=2)
    # r=0 and r=p are single words
    assert np.isclose(
        hurwitz_trace(A[np.newaxis], B[np.newaxis], 3, 0)[0, 0], np.trace(A @ A @ A)
    )
    assert np.isclose(
        hurwitz_trace(A[np.newaxis], B[np.newaxis], 3, 3)[0, 3], np.trace(B @ B @ B)
    )


def test_hurwitz_trace_returns_every_degree():
    # block j depends only on blocks 0..j, so a run up to r holds every
    # lower degree's run in its columns
    A = random_psd(3, [1, 2, 3])
    B = random_psd(3, [4, 5, 6])
    for p, r in ((1, 1), (6, 3), (7, 7), (10, 4)):
        got = hurwitz_trace(A, B, p, r)
        assert got.shape == (3, r + 1) and got.dtype == np.complex128
        for j in range(r + 1):
            want = hurwitz_trace(A, B, p, j)[:, j]
            assert np.abs(got[:, j] - want).max() <= 1e-12 * (1.0 + np.abs(want).max())


def _split_cases():
    """(p, r) of every p <= 16 and r <= p, and of p in {40, 60} at r in
    {0, floor(p/2), ceil(p/2), p}; the id names the edge case it is."""
    cases = [(p, r) for p in range(1, 17) for r in range(p + 1)]
    cases += [(p, r) for p in (40, 60) for r in (0, p // 2, (p + 1) // 2, p)]
    for p, r in dict.fromkeys(cases):  # p // 2 == (p + 1) // 2 for even p
        tags = ["no_lower_half"] if p == 1 else ["one_letter_halves"] if p == 2 else []
        if r > (p + 1) // 2:
            tags.append("r_above_ceil_half")
        yield pytest.param(p, r, id="-".join([f"p{p}", f"r{r}", *tags]))


@pytest.mark.parametrize("p,r", _split_cases())
def test_split_kernel_matches_full_recurrence(p, r):
    # the kernel meets (A + tB)^p in the middle; the oracle runs all p - 1 steps
    for m in (1, 3):
        for n in (1, 2, 3):
            seeds = [1000 * p + 10 * r + 3 * n + k for k in range(2 * m)]
            drawn = random_psd(n, seeds)
            A, B = drawn[:m], drawn[m:]
            got = hurwitz_trace(A, B, p, r)
            want = oracle_recurrence(A, B, p, r)
            assert got.shape == want.shape == (m, r + 1) and got.dtype == np.complex128
            for row_got, row_want in zip(got, want):
                assert np.abs(row_got - row_want).max() <= 1e-12 * np.abs(row_want).max()


# ------------------------------------------------------------------ exact oracle

def _gaussian_integer_matrices(n):
    entries = st.integers(min_value=-3, max_value=3)
    return st.lists(entries, min_size=2 * n * n, max_size=2 * n * n)


def _exact_matrix(flat, n):
    """(real part, imaginary part) as object arrays of Python ints."""
    re = np.array(flat[: n * n], dtype=object).reshape(n, n)
    im = np.array(flat[n * n :], dtype=object).reshape(n, n)
    return re, im


def _exact_trace_word(A, B, word):
    re, im = A if word[0] == "A" else B
    for ch in word[1:]:
        yr, yi = A if ch == "A" else B
        re, im = re @ yr - im @ yi, re @ yi + im @ yr
    return complex(int(np.trace(re)), int(np.trace(im)))


@st.composite
def _kernel_cases(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    p = draw(st.integers(min_value=1, max_value=8))
    r = draw(st.integers(min_value=0, max_value=p))
    return n, p, r, draw(_gaussian_integer_matrices(n)), draw(_gaussian_integer_matrices(n))


@settings(max_examples=150, deadline=None)
@given(_kernel_cases())
def test_hurwitz_trace_matches_exact_class_expansion(case):
    # Sum over cyclic classes of multiplicity x Tr(representative), in
    # Gaussian-integer arithmetic; the matrices need not be Hermitian.
    n, p, r, a_flat, b_flat = case
    A_exact, B_exact = _exact_matrix(a_flat, n), _exact_matrix(b_flat, n)
    want = sum(
        int(mult.re) * _exact_trace_word(A_exact, B_exact, str(cls))
        for cls, mult in hurwitz_expand(p, r).items()
    )
    A = (np.array(a_flat[: n * n]) + 1j * np.array(a_flat[n * n :])).reshape(n, n)
    B = (np.array(b_flat[: n * n]) + 1j * np.array(b_flat[n * n :])).reshape(n, n)
    got = hurwitz_trace(A[np.newaxis], B[np.newaxis], p, r)[0, r]
    assert abs(got - want) <= 1e-9 * (1.0 + abs(want))
