import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from hurwitz_sos import numeric
from hurwitz_sos.certificate import (
    Certificate,
    GramMatrix,
    SandwichBlock,
    bundled_certificate,
    certificate_from_json,
    certificate_to_json,
    swap_certificate,
)
from hurwitz_sos.numeric import (
    ConvergenceError,
    NotPsdError,
    _derive_seeds,
    _gaussian_rows,
    _splitmix_rows,
    _uniform_rows,
    bmv_coefficients,
    derive_seed,
    eval_certificate_numeric,
    gaussian_stream,
    gram_to_complex,
    hermitian_eig,
    psd_sqrt,
    random_psd,
    trace_hurwitz_numeric,
)
from hurwitz_sos.rational import grat
from hurwitz_sos.validation import TrialConfig, validate_certificate_trials

from oracles import (
    oracle_trace,
    ref_derive_seed,
    ref_gaussian,
    ref_hermitian,
    ref_psd,
    ref_splitmix64,
)


def splitmix_row(seed, count):
    """The first ``count`` SplitMix64 outputs of one seed, as a list."""
    return _splitmix_rows(np.array([seed], dtype=np.uint64), count)[0].tolist()


# ------------------------------------------------------------------ rng

def test_splitmix64_frozen_vectors():
    assert splitmix_row(0, 4) == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
    ]
    assert splitmix_row(1234567, 4) == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
    ]
    assert splitmix_row((1 << 64) - 1, 3) == [
        16490336266968443936,
        16834447057089888969,
        4048727598324417001,
    ]


@pytest.mark.parametrize("seed", [0, 1, 42, 987654321, (1 << 64) - 1])
def test_splitmix64_matches_reference(seed):
    assert splitmix_row(seed, 17) == ref_splitmix64(seed, 17)


def test_splitmix64_counter_based():
    # stream is a pure function of (seed, index): prefixes agree
    full = splitmix_row(99, 32)
    assert splitmix_row(99, 10) == full[:10]
    assert splitmix_row(99, 0) == []


def test_uniform_stream_range_and_determinism():
    seeds = np.array([7], dtype=np.uint64)
    u = _uniform_rows(seeds, 10_000)[0]
    assert u.dtype == np.float64
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert np.array_equal(u, _uniform_rows(seeds, 10_000)[0])
    # mean of U[0,1) concentrates near 1/2
    assert abs(u.mean() - 0.5) < 0.02


def test_gaussian_stream_moments():
    g = gaussian_stream(3, 40_000)
    assert abs(g.mean()) < 0.02
    assert abs(g.std() - 1.0) < 0.02
    assert np.all(np.isfinite(g))
    assert np.array_equal(g, gaussian_stream(3, 40_000))
    assert gaussian_stream(3, 7).size == 7  # odd lengths fine


def test_derive_seed_distinct():
    seeds = {derive_seed(5, k) for k in range(100)}
    assert len(seeds) == 100
    assert derive_seed(5, 0) != derive_seed(6, 0)
    assert derive_seed(5, 3) == derive_seed(5, 3)


def test_derive_seed_rejects_aliasing_seeds_and_indices():
    # SplitMix64 works modulo 2^64, so each of these would alias a valid input
    for seed in (-1, 2**64, 2**70, True, False, 1.5, "1", None):
        with pytest.raises(ValueError, match=r"seed must be an int in \[0, 2\*\*64\)"):
            derive_seed(seed, 0)
    for index in (-1, 2**64, True, 1.5, 2.0, "1", None):
        with pytest.raises(ValueError, match=r"index must be an int in \[0, 2\*\*64\)"):
            derive_seed(0, index)
    edge = {derive_seed(s, k) for s in (0, 1, 2**64 - 1) for k in (0, 1, 3, 2**64 - 1)}
    assert len(edge) == 12


def test_derive_seed_matches_oracle():
    # derive_seed is the one-row case of _derive_seeds; both must match the
    # scalar oracle, and three values frozen from the scalar finalizer pin it
    seeds = [0, 1, 2**63, 2**64 - 1]
    indices = [0, 1, 3, 2**64 - 1]
    want = [[ref_derive_seed(s, k) for s in seeds] for k in indices]
    got = _derive_seeds(np.array(seeds, dtype=np.uint64), indices)
    assert got.dtype == np.uint64 and got.shape == (4, 4)
    assert got.tolist() == want
    assert [[derive_seed(s, k) for s in seeds] for k in indices] == want
    assert all(type(derive_seed(s, k)) is int for s in seeds for k in indices)
    assert derive_seed(0, 0) == 6238072747940578789
    assert derive_seed(7, 1000) == 4355090155529591177
    assert derive_seed(2**64 - 1, 2**64 - 1) == 5476333178966447588


def test_random_hermitian_properties():
    # the oracle that the eigensolver tests and criterion 8 draw from
    H = ref_hermitian(6, seed=11)
    assert H.shape == (6, 6) and H.dtype == np.complex128
    assert np.allclose(H, H.conj().T)
    assert not np.allclose(H, ref_hermitian(6, seed=12))


def test_random_psd_properties():
    A = random_psd(5, seed=2)
    assert np.allclose(A, A.conj().T)
    w = np.linalg.eigvalsh(A)
    assert w.min() > -1e-12
    assert np.array_equal(A, random_psd(5, seed=2))
    assert random_psd(1, seed=0).shape == (1, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("m", [1, 2, 18, 30])
def test_stacked_draws_match_one_seed_oracle(n, m):
    seeds = [derive_seed(100 * n + m, k) for k in range(m - 1)] + [(1 << 64) - 1]
    count = 2 * n * n - 1  # odd, so the last Box-Muller pair is cut
    stack = random_psd(n, seeds)
    assert stack.shape == (m, n, n)
    for row, seed in zip(stack, seeds):
        assert np.array_equal(row, ref_psd(n, seed))
        assert np.array_equal(row, random_psd(n, seed))
    gauss = _gaussian_rows(np.array(seeds, dtype=np.uint64), count)
    assert gauss.shape == (m, count)
    for row, seed in zip(gauss, seeds):
        assert np.array_equal(row, ref_gaussian(seed, count))
        assert np.array_equal(row, gaussian_stream(seed, count))
    rows = _splitmix_rows(np.array(seeds, dtype=np.uint64), count)
    assert rows.tolist() == [ref_splitmix64(seed, count) for seed in seeds]
    assert random_psd(n, tuple(seeds)).shape == (m, n, n)
    assert np.array_equal(random_psd(n, range(3)), random_psd(n, [0, 1, 2]))


def test_stacked_samplers_reject_bad_seeds():
    for empty in ([], (), range(0)):
        with pytest.raises(ValueError, match="seed sequence must be nonempty"):
            random_psd(2, empty)
    for bad in (-1, 2**64, 2**70, 1.5, True, False, "1", None, [1]):
        message = rf"seed \(stack index 2\) must be an int in \[0, 2\*\*64\), got {re.escape(repr(bad))}"
        with pytest.raises(ValueError, match=message):
            random_psd(2, [0, 5, bad, 7])
    for bad in (-1, 2**64, True):
        message = rf"seed must be an int in \[0, 2\*\*64\), got {bad!r}"
        with pytest.raises(ValueError, match=message):
            random_psd(2, bad)
    assert random_psd(2, [2**64 - 1, 0]).shape[0] == 2


def test_gaussian_stream_takes_one_seed():
    # the search draws each start point from one seed; a sequence is an error
    for bad in ([1, 2], (1, 2), -1, 2**64, True, 1.5):
        message = rf"seed must be an int in \[0, 2\*\*64\), got {re.escape(repr(bad))}"
        with pytest.raises(ValueError, match=message):
            gaussian_stream(bad, 4)
    assert gaussian_stream(2**64 - 1, 4).shape == (4,)
    assert gaussian_stream(0, 0).shape == (0,)
    # a count is a non-bool int like every other size
    for bad in (-1, True, False, 2.5, 4.0, "3", None):
        message = rf"^count must be a nonnegative int, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            gaussian_stream(0, bad)


# ------------------------------------------------------------------ eigensolver

@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_hermitian_eig_reconstruction(n):
    H = ref_hermitian(n, seed=100 + n)
    w, V = hermitian_eig(H)
    scale = 1.0 + np.linalg.norm(H)
    assert np.linalg.norm(V @ np.diag(w) @ V.conj().T - H) <= 1e-10 * scale
    assert np.linalg.norm(V.conj().T @ V - np.eye(n)) <= 1e-10
    assert np.all(np.diff(w) >= -1e-12)  # ascending
    assert np.allclose(np.sort(w), np.sort(np.linalg.eigvalsh(H)), atol=1e-9 * scale)


def test_hermitian_eig_real_symmetric_and_diagonal():
    S = np.array([[2.0, 1.0], [1.0, 2.0]])
    w, _ = hermitian_eig(S)
    assert np.allclose(w, [1.0, 3.0])
    D = np.diag([3.0, -1.0, 0.5])
    w, _ = hermitian_eig(D)
    assert np.allclose(w, [-1.0, 0.5, 3.0])


def test_hermitian_eig_input_validation():
    with pytest.raises(ValueError):
        hermitian_eig(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        hermitian_eig(bad)
    # an int past double range, a string, even one numpy would parse, and a
    # ragged row, as nested lists (np.array itself overflows on 10**400),
    # are named like a NaN
    for bad in (
        [[10**400, 0], [0, 1]],
        [["x", 0], [0, 1]],
        [["1", 0], [0, 1]],
        [[1.0, 0.0], [0.0]],
    ):
        for entry in (hermitian_eig, psd_sqrt):
            with pytest.raises(ValueError, match="^H contains non-finite entries$"):
                entry(bad, "H")
    with pytest.raises(ValueError):
        hermitian_eig(np.zeros((1, 2, 2, 2)))
    # an empty matrix is rejected before it reaches LAPACK
    for entry in (hermitian_eig, psd_sqrt):
        with pytest.raises(ValueError, match="nonempty"):
            entry(np.zeros((0, 0)))


def test_hermitian_eig_tolerance_survives_huge_entries():
    # the Frobenius norms of these matrices overflow; the check must not
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(np.array([[0.0, 1e200], [0.0, 0.0]]))
    stack = np.stack([np.eye(2), np.array([[0.0, 1e200], [0.0, 0.0]])])
    with pytest.raises(ValueError, match=r"stack index 1"):
        hermitian_eig(stack)
    w, _ = hermitian_eig(np.diag([1e200, -1e195]))
    assert np.allclose(w, [-1e195, 1e200], rtol=1e-12, atol=0.0)
    # off Hermitian by 1e-12 relative: inside the tolerance, so accepted
    near = np.array([[1e200, 1e200 * (1.0 + 1e-12)], [1e200, 1e200]])
    assert np.allclose(hermitian_eig(near)[0], [0.0, 2e200], rtol=1e-9, atol=1e189)


def test_hermitian_eig_never_returns_nan_for_finite_input():
    # exactly Hermitian input is not averaged, so (H + H*) cannot overflow
    w, _ = hermitian_eig(np.diag([1.7e308, 1.0]))
    assert w.tolist() == [1.0, 1.7e308]
    # the true eigenvalues are 0 and 2e308, which no float can hold
    with pytest.raises(ArithmeticError, match="not finite"):
        hermitian_eig(np.array([[1e308, 1e308], [1e308, 1e308]]))
    stack = np.stack([np.eye(2), np.full((2, 2), 1e308)])
    with pytest.raises(ArithmeticError, match=r"stack index 1\) has an eigenvalue"):
        hermitian_eig(stack)
    # averaging a near-Hermitian input halves before adding
    near = np.array([[1.7e308, 1.0], [1.0 + 1e-15, 1.0]])
    assert np.isfinite(hermitian_eig(near)[0]).all()


def test_hermitian_eig_convergence_error(monkeypatch):
    def fail(_H):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        hermitian_eig(ref_hermitian(4, seed=1))
    # an arithmetic failure, as a non-finite result is: the command line
    # reports both with one error line and exit code 1
    assert issubclass(ConvergenceError, ArithmeticError)


def test_psd_sqrt_residual():
    A = random_psd(6, seed=9)
    S = psd_sqrt(A)
    scale = 1.0 + np.linalg.norm(A)
    assert np.linalg.norm(S @ S.conj().T - A) <= 1e-8 * scale
    assert np.allclose(S, S.conj().T, atol=1e-9 * scale)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPsdError):
        psd_sqrt(-np.eye(3))
    # tiny negative eigenvalues inside tolerance are clipped, not fatal
    A = random_psd(4, seed=3)
    S = psd_sqrt(A - 1e-14 * np.eye(4))
    assert np.all(np.isfinite(S))


def test_psd_sqrt_tolerance_survives_huge_entries():
    with pytest.raises(NotPsdError, match="-1.000000e\\+195"):
        psd_sqrt(np.diag([1e200, -1e195]))
    # a dip far below PSD_NEG_TOL times the norm is still roundoff
    S = psd_sqrt(np.diag([1e200, -1e185]))
    assert np.allclose(S, np.diag([1e100, 0.0]), rtol=1e-12, atol=0.0)
    S = psd_sqrt(np.diag([1.7e308, 1.0]))
    assert np.allclose(S, np.diag([math.sqrt(1.7e308), 1.0]), rtol=1e-12, atol=0.0)


# ------------------------------------------------------------------ traces

@pytest.mark.parametrize("p,r", [(4, 2), (5, 2), (6, 3), (7, 3), (7, 0), (7, 7)])
def test_trace_hurwitz_matches_brute_force(p, r):
    A = random_psd(3, seed=p * 10 + r)
    B = random_psd(3, seed=p * 10 + r + 1)
    value = trace_hurwitz_numeric(A, B, p, r)
    oracle = oracle_trace(A, B, p, r).real
    assert abs(value - oracle) <= 1e-9 * (1.0 + abs(oracle))


def test_trace_hurwitz_identity_closed_form():
    n = 4
    I = np.eye(n)
    assert np.isclose(trace_hurwitz_numeric(I, I, 7, 3), math.comb(7, 3) * n)


def test_trace_hurwitz_scalars():
    A = np.array([[2.0]])
    B = np.array([[3.0]])
    # sum over words = C(p, r) a^(p-r) b^r
    assert np.isclose(
        trace_hurwitz_numeric(A, B, 7, 3), math.comb(7, 3) * 2.0**4 * 3.0**3
    )


def test_trace_hurwitz_rejects_bad_input():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])  # not Hermitian
    B = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    # Tr(AB) + Tr(BA) = -2i: the imaginary part betrays the bad input
    with pytest.raises(ArithmeticError, match=r"^word-sum trace for \(p=2, r=1\) has imaginary part -2\.000e\+00;"):
        trace_hurwitz_numeric(A, B, 2, 1)
    with pytest.raises(ValueError):
        trace_hurwitz_numeric(np.eye(2), np.eye(3), 3, 1)
    with pytest.raises(ValueError):
        trace_hurwitz_numeric(np.eye(2), np.eye(2), 3, 4)
    E = np.zeros((0, 0))
    cert = bundled_certificate("p7r3.json")
    for A, B in ((E, E), (E, np.eye(2)), (np.eye(2), E)):
        with pytest.raises(ValueError, match="nonempty"):
            trace_hurwitz_numeric(A, B, 3, 1)
        with pytest.raises(ValueError, match="nonempty"):
            eval_certificate_numeric(cert, A, B)


def test_trace_hurwitz_rejects_boolean_degrees():
    I = np.eye(2)
    with pytest.raises(ValueError, match="p must be"):
        trace_hurwitz_numeric(I, I, True, 0)
    with pytest.raises(ValueError, match="r must"):
        trace_hurwitz_numeric(I, I, 3, True)
    with pytest.raises(ValueError, match="p must be"):
        trace_hurwitz_numeric(I, I, True, False)


def test_trace_hurwitz_overflow_raises():
    # Tr((1e200 I)^3) = 3e600 overflows double precision
    I = np.eye(2)
    with pytest.raises(ArithmeticError, match="not finite"):
        trace_hurwitz_numeric(1e200 * I, I, 3, 0)


def test_trace_hurwitz_checks_only_its_degrees():
    I = np.eye(2)
    # an int r checks only its own degree: Tr(I^3) = 2 while degree 0 overflows
    got = trace_hurwitz_numeric(1e200 * I, I, 3, 3)
    assert got == 2.0 and type(got) is float
    # and so does a range, its one-degree case included
    assert trace_hurwitz_numeric(1e200 * I, I, 3, range(3, 4)).tolist() == [2.0]
    with pytest.raises(ArithmeticError, match=r"\(p=3, r=0\) is not finite"):
        bmv_coefficients(1e200 * I, I, 3)


def test_trace_hurwitz_raises_for_the_lowest_bad_degree():
    I = np.eye(2)
    # slice 0 overflows first at degree 5: 5·Tr(B^4) = 1e281, Tr(B^5) = 2e350
    huge = (I, 1e70 * I)
    # B^2 = iI, B^4 = -I: with A = I degree j is C(5, j)·Tr(B^j), and only
    # degree 2 (20i) is not real
    skew = (I, np.array([[0.0, 1.0], [1j, 0.0]]))
    # degree 2 is 10·Tr((1e200 I)^2) = inf, degree 1 is 1e201
    big = (I, 1e200 * I)

    def stack(*pairs):
        return np.stack([A for A, _ in pairs]), np.stack([B for _, B in pairs])

    with pytest.raises(
        ArithmeticError, match=r"\(p=5, r=2\) \(stack index 1\) has imaginary part 2\.000e\+01"
    ):
        bmv_coefficients(*stack(huge, skew), 5)
    # within one degree a non-finite trace is named before an imaginary part
    with pytest.raises(ArithmeticError, match=r"\(p=5, r=2\) \(stack index 2\) is not finite"):
        bmv_coefficients(*stack(huge, skew, big), 5)
    # a stepped range that skips the one bad degree does not raise
    A, B = stack(skew)
    for degrees in (range(1, 6, 2), range(5, 0, -2)):
        got = trace_hurwitz_numeric(A, B, 5, degrees)
        assert got.shape == (1, 3) and np.array_equal(got, np.zeros((1, 3)))
    assert trace_hurwitz_numeric(A, B, 5, range(0, 5, 4)).tolist() == [[2.0, -10.0]]
    with pytest.raises(ArithmeticError, match=r"\(p=5, r=2\) \(stack index 0\) has imaginary"):
        trace_hurwitz_numeric(A, B, 5, range(0, 5, 2))


def test_trace_hurwitz_takes_a_range_of_degrees():
    A = random_psd(3, seed=30)
    B = random_psd(3, seed=31)
    got = trace_hurwitz_numeric(A, B, 6, range(2, 7, 2))
    assert got.shape == (3,) and got.dtype == np.float64
    want = [trace_hurwitz_numeric(A, B, 6, r) for r in (2, 4, 6)]
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    with pytest.raises(ValueError, match="nonempty range"):
        trace_hurwitz_numeric(A, B, 6, range(0))
    with pytest.raises(ValueError, match=r"r must lie in \[0, 6\], got 7"):
        trace_hurwitz_numeric(A, B, 6, range(8))
    with pytest.raises(ValueError, match=r"r must lie in \[0, 6\], got -1"):
        trace_hurwitz_numeric(A, B, 6, range(-1, 3))
    # an int r is the one-degree range without its trailing axis
    As = random_psd(3, [derive_seed(32, k) for k in range(3)])
    Bs = random_psd(3, [derive_seed(33, k) for k in range(3)])
    for X, Y in ((A, B), (As, Bs)):
        for r in range(7):
            one = trace_hurwitz_numeric(X, Y, 6, range(r, r + 1))
            assert np.array_equal(trace_hurwitz_numeric(X, Y, 6, r), one[..., 0])
    # a non-Hermitian pair fails both calls with the same message
    N = np.diag([1.0 + 1.0j, 1.0])
    messages = []
    for r in (1, range(1, 2)):
        with pytest.raises(ArithmeticError, match="imaginary part") as info:
            trace_hurwitz_numeric(N, np.eye(2), 3, r)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize(
    "bad",
    [np.nan, np.inf, -np.inf, pytest.param(10**400, id="int-past-double"),
     pytest.param("x", id="string")],
)
def test_matrix_pairs_reject_non_finite_entries(bad):
    # nested lists, as np.array itself overflows on 10**400
    M = [[bad, 0.0], [0.0, 1.0]]
    I = np.eye(2)
    cert = bundled_certificate("p7r3.json")
    for A, B, name in ((M, I, "A"), (I, M, "B")):
        for call in (
            lambda: trace_hurwitz_numeric(A, B, 3, 1),
            lambda: bmv_coefficients(A, B, 3),
            lambda: eval_certificate_numeric(cert, A, B),
        ):
            with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
                call()


def test_bmv_coefficients():
    A = random_psd(3, seed=20)
    B = random_psd(3, seed=21)
    coeffs = bmv_coefficients(A, B, 5)
    assert len(coeffs) == 6
    for r, c in enumerate(coeffs):
        assert np.isclose(c, trace_hurwitz_numeric(A, B, 5, r))
    # polynomial identity: sum of coefficients = Tr[(A+B)^5]
    total = np.trace(np.linalg.matrix_power(A + B, 5)).real
    assert np.isclose(sum(coeffs), total)
    # every coefficient of a stack against the product over every word,
    # which shares no code with the recurrence
    A = random_psd(2, [derive_seed(22, k) for k in range(3)])
    B = random_psd(2, [derive_seed(23, k) for k in range(3)])
    for p in range(1, 7):
        coeffs = bmv_coefficients(A, B, p)
        assert coeffs.shape == (3, p + 1)
        for a, b, row in zip(A, B, coeffs):
            for r, c in enumerate(row):
                want = oracle_trace(a, b, p, r).real
                assert abs(c - want) <= 1e-9 * (1.0 + abs(want))
    # a degree no brute force reaches: the coefficients sum to Tr[(A+B)^40]
    A = random_psd(3, seed=24)
    B = random_psd(3, seed=25)
    total = np.trace(np.linalg.matrix_power(A + B, 40)).real
    assert abs(bmv_coefficients(A, B, 40).sum() - total) <= 1e-9 * abs(total)


def test_bmv_coefficients_runs_the_recurrence_once(monkeypatch):
    calls = []
    kernel = numeric._hurwitz_trace

    def spy(A, B, p, r):
        calls.append((p, r))
        return kernel(A, B, p, r)

    monkeypatch.setattr(numeric, "_hurwitz_trace", spy)
    A = random_psd(3, [1, 2])
    B = random_psd(3, [3, 4])
    for p in (1, 5, 10):
        bmv_coefficients(A, B, p)
        bmv_coefficients(A[0], B[0], p)
    assert calls == [(1, 1), (1, 1), (5, 5), (5, 5), (10, 10), (10, 10)]


# ------------------------------------------------------------------ certificate evaluation

def test_gram_to_complex():
    G = GramMatrix.from_rows([[6, 6], [6, 2]])
    M = gram_to_complex(G)
    assert M.dtype == np.complex128
    assert np.allclose(M, np.array([[6, 6], [6, 2]], dtype=complex))


def test_gram_to_complex_rounds_each_part_as_float_of_fraction():
    big = Fraction(10**30 + 1, 3**40)
    G = GramMatrix.from_rows([
        [big, grat(Fraction(1, 3), Fraction(-2, 7)), 10**200],
        [grat(Fraction(1, 3), Fraction(2, 7)), Fraction(-5, 3**40), 0],
        [10**200, 0, Fraction(1, 10**300)],
    ])
    M = gram_to_complex(G)
    for j in range(3):
        for k in range(3):
            z = G.at(j, k)
            want = complex(float(z.re), float(z.im))
            assert M[j, k].real.hex() == want.real.hex()
            assert M[j, k].imag.hex() == want.imag.hex()


def test_eval_certificate_matches_trace():
    cert = bundled_certificate("p7r3.json")
    for n in (1, 2, 3, 4):
        A = random_psd(n, seed=derive_seed(50, n))
        B = random_psd(n, seed=derive_seed(51, n))
        sos = eval_certificate_numeric(cert, A, B)
        oracle = trace_hurwitz_numeric(A, B, 7, 3)
        assert abs(sos - oracle) <= 1e-8 * (1.0 + abs(oracle))


def test_eval_certificate_is_nonnegative():
    # each term is a squared Frobenius norm, so the total can't go negative
    cert = bundled_certificate("p7r2.json")
    A = random_psd(3, seed=60)
    B = random_psd(3, seed=61)
    assert eval_certificate_numeric(cert, A, B) >= 0.0


def raises_every_time(error, match, cert, A, B):
    """Two calls raise the same text, and the failed Gram is never stored."""
    messages = []
    for _ in range(2):
        with pytest.raises(error, match=match) as info:
            eval_certificate_numeric(cert, A, B)
        messages.append(str(info.value))
        assert not any(gram in numeric._GRAM_FACTORS for _, gram in cert.blocks)
    assert messages[0] == messages[1]
    return info.type


def test_eval_certificate_rejects_indefinite_gram():
    block = SandwichBlock(prefix=None, suffix="b", basis=("AAA",))
    bad = Certificate(7, 1, ((block, GramMatrix.from_rows([[-1]])),))
    A = random_psd(2, seed=70)
    B = random_psd(2, seed=71)
    raises_every_time(
        NotPsdError, r"^block 0: Gram matrix has negative eigenvalue -1\.000000e\+00$", bad, A, B
    )


def test_eval_certificate_rejects_huge_indefinite_gram():
    # ||G||_F overflows, so an unscaled tolerance would accept this Gram
    block = SandwichBlock(prefix=None, suffix=None, basis=("AB", "BA"))
    gram = GramMatrix.from_rows([[10**200, 0], [0, -10**195]])
    bad = Certificate(4, 2, ((block, gram),))
    raises_every_time(
        NotPsdError, r"^block 0: Gram matrix has negative eigenvalue -1\.000000e\+195$",
        bad, np.eye(2), np.eye(2),
    )


def test_eval_certificate_names_the_block_of_a_gram_beyond_double_range():
    block = SandwichBlock(None, None, ("AB", "BA"))
    # an entry whose int quotient overflows a float, and one whose eigenvalue does
    cases = [
        (GramMatrix.from_rows([[10**400, 0], [0, 1]]), "has an entry that is not finite"),
        (GramMatrix.from_rows([[10**308, 10**308], [10**308, 10**308]]),
         "has an eigenvalue that is not finite"),
    ]
    for gram, what in cases:
        bad = Certificate(4, 2, ((block, gram),))
        error = raises_every_time(ArithmeticError, f"^block 0: Gram matrix {what}",
                                  bad, np.eye(2), np.eye(2))
        assert error is ArithmeticError  # not a bare OverflowError


# the eight p = 7 certificates: r = 0..3 bundled, r = 4..7 their letter swaps
P7_CERTS = [bundled_certificate(f"p7r{r}.json") for r in range(4)]
P7_CERTS += [swap_certificate(cert) for cert in P7_CERTS]


@pytest.mark.parametrize("cert", P7_CERTS, ids=[f"p7r{c.r}" for c in P7_CERTS])
def test_eval_certificate_roots_only_the_half_letter_it_uses(monkeypatch, cert):
    (letter,) = {x for block, _ in cert.blocks for x in (block.prefix, block.suffix) if x}
    names = []

    def spy(M, name="matrix"):
        names.append(name)
        return psd_sqrt(M, name)

    monkeypatch.setattr(numeric, "psd_sqrt", spy)
    A, B = random_psd(3, 80), random_psd(3, 81)
    sos = eval_certificate_numeric(cert, A, B)
    assert names == [letter.upper()]
    oracle = trace_hurwitz_numeric(A, B, 7, cert.r)
    assert abs(sos - oracle) <= 1e-8 * (1.0 + abs(oracle))


def test_eval_certificate_accepts_a_singular_unused_matrix():
    # p7r3 halves only B; a rank-one A fails Cholesky and is accepted by psd_sqrt
    cert = bundled_certificate("p7r3.json")
    v = gaussian_stream(90, 6)
    v = (v[:3] + 1j * v[3:])[:, np.newaxis]
    A, B = v @ v.conj().T, random_psd(3, 91)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(A)
    sos = eval_certificate_numeric(cert, A, B)
    oracle = trace_hurwitz_numeric(A, B, 7, 3)
    assert abs(sos - oracle) <= 1e-8 * (1.0 + abs(oracle))


def test_eval_certificate_rejects_an_unused_matrix_as_psd_sqrt_does():
    cert = bundled_certificate("p7r3.json")  # halves only B
    A, B = random_psd(2, list(range(5))), random_psd(2, list(range(10, 15)))
    A[2] = np.diag([1.0, -1.0])
    with pytest.raises(NotPsdError, match=r"^A \(stack index 2\) has negative eigenvalue -1\.000000e\+00$"):
        eval_certificate_numeric(cert, A, B)
    with pytest.raises(NotPsdError, match=r"^A has negative eigenvalue -1\.000000e\+00$"):
        eval_certificate_numeric(cert, A[2], B[2])
    # Cholesky factors this one with finite entries, but its eigenvalue 2.7e308
    # overflows, so the unused A still raises what psd_sqrt raises
    huge = np.array([[1.7e308, 1e308], [1e308, 1.7e308]])
    assert np.isfinite(np.linalg.cholesky(huge)).all()
    with pytest.raises(ArithmeticError, match=r"^A has an eigenvalue that is not finite"):
        eval_certificate_numeric(cert, huge, np.eye(2))


def test_each_gram_is_factored_once_across_calls_and_dimensions(monkeypatch):
    # swap_certificate keeps the GramMatrix, so p7r3 and p7r4 share one factor
    cert = bundled_certificate("p7r3.json")
    swapped = swap_certificate(cert)
    grams = {gram for c in (cert, swapped) for _, gram in c.blocks}
    names, roots = [], []

    def eig_spy(H, name="matrix"):
        names.append(name)
        return hermitian_eig(H, name)

    def sqrt_spy(M, name="matrix"):
        roots.append(name)
        return psd_sqrt(M, name)

    monkeypatch.setattr(numeric, "_GRAM_FACTORS", type(numeric._GRAM_FACTORS)())
    monkeypatch.setattr(numeric, "hermitian_eig", eig_spy)
    monkeypatch.setattr(numeric, "psd_sqrt", sqrt_spy)
    config = TrialConfig(seed=5, dims=(1, 2, 3, 4, 5, 6), trials=3)
    for c in (cert, swapped):
        assert validate_certificate_trials(c, config).summary["failed"] == 0
    gram_calls = [name for name in names if "Gram" in name]
    assert len(gram_calls) == len(grams) == 1
    # one root per dimension group and call: p7r3 halves B, its swap A
    assert roots == ["B"] * 6 + ["A"] * 6
    assert len(names) == len(roots) + len(grams)


def test_stored_gram_factors_are_read_only():
    cert = bundled_certificate("p7r2.json")
    eval_certificate_numeric(cert, random_psd(2, 1), random_psd(2, 2))
    for _, gram in cert.blocks:
        for array in numeric._GRAM_FACTORS[gram]:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0


def test_gram_factor_memo_leaves_rows_bit_for_bit(monkeypatch):
    cert = bundled_certificate("p7r2.json")
    copy = certificate_from_json(certificate_to_json(cert))
    assert copy == cert and copy.blocks[0][1] is not cert.blocks[0][1]
    config = TrialConfig(seed=9, dims=(1, 2, 3, 4, 5, 6), trials=4)

    def rows(c):
        report = validate_certificate_trials(c, config)
        return [(row.oracle.hex(), row.value.hex()) for row in report.rows]

    monkeypatch.setattr(numeric, "_GRAM_FACTORS", type(numeric._GRAM_FACTORS)())
    cold = rows(cert)
    assert cert.blocks[0][1] in numeric._GRAM_FACTORS
    warm = rows(cert)
    numeric._GRAM_FACTORS.clear()
    distinct = rows(copy)
    assert cold == warm == distinct


def test_samplers_reject_bad_dimension_and_seed():
    for n in (0, -1, 1.5, 2.0, True, False, "2", None):
        with pytest.raises(ValueError, match="n must be a positive int"):
            random_psd(n, 1)
    # numpy indexes an array of at most intp-max bytes, 16 n^2 bytes a matrix;
    # both limits are checked before anything is allocated
    largest = math.isqrt(np.iinfo(np.intp).max // 16)
    with pytest.raises(ValueError, match=rf"^n must be at most {largest}, .* complex matrix "):
        random_psd(largest + 1, 1)
    in_four = math.isqrt(np.iinfo(np.intp).max // 64)
    with pytest.raises(ValueError, match=rf"^n must be at most {in_four}, .* stack of 4 "):
        random_psd(in_four + 1, [1, 2, 3, 4])
    # SplitMix64 works modulo 2^64, so seed 2^64 would alias seed 0
    for seed in (-1, 2**64, 2**70, 1.5, True, "1", None):
        with pytest.raises(ValueError, match=r"seed must be an int in \[0, 2\*\*64\)"):
            random_psd(2, seed)
    assert random_psd(2, 2**64 - 1).shape == (2, 2)
    assert not np.array_equal(random_psd(2, 2**64 - 1), random_psd(2, 0))


def test_dimension_bound_is_numpys_index_limit():
    # the bound is computed without numpy: an intp is a C ssize_t
    assert sys.maxsize == np.iinfo(np.intp).max
