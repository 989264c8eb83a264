import math
import re
from itertools import product

import numpy as np
import pytest

from hurwitz_sos import kernels
from hurwitz_sos.certificate import (
    Certificate,
    GramMatrix,
    SandwichBlock,
    bundled_certificate,
)
from hurwitz_sos.numeric import (
    ConvergenceError,
    NotPsdError,
    _derive_seeds,
    bmv_coefficients,
    derive_seed,
    eval_certificate_numeric,
    gaussian_stream,
    gram_to_complex,
    hermitian_eig,
    psd_sqrt,
    random_hermitian,
    random_psd,
    splitmix64_stream,
    trace_hurwitz_numeric,
    uniform_stream,
)
from hurwitz_sos.words import check_word

MASK = (1 << 64) - 1


def ref_splitmix64(seed, count):
    # scalar reference implementation, kept independent of the package
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def word_matrix(A, B, word):
    """Product of the matrices spelled by ``word`` (A and B full letters)."""
    check_word(word)
    M = np.eye(A.shape[0], dtype=complex)
    for ch in word:
        M = M @ (A if ch == "A" else B)
    return M


def trace_word_product(A, B, word):
    """Trace of the product spelled by ``word``."""
    return complex(np.trace(word_matrix(A, B, word)))


def oracle_trace_hurwitz(A, B, p, r):
    # brute force: sum over all words of length p with r B's
    total = 0.0 + 0.0j
    for letters in product("AB", repeat=p):
        if letters.count("B") == r:
            total += trace_word_product(A, B, "".join(letters))
    return total.real


# ------------------------------------------------------------------ rng

def test_splitmix64_frozen_vectors():
    assert splitmix64_stream(0, 4).tolist() == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
    ]
    assert splitmix64_stream(1234567, 4).tolist() == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
    ]
    assert splitmix64_stream((1 << 64) - 1, 3).tolist() == [
        16490336266968443936,
        16834447057089888969,
        4048727598324417001,
    ]


@pytest.mark.parametrize("seed", [0, 1, 42, 987654321, (1 << 64) - 1])
def test_splitmix64_matches_reference(seed):
    assert splitmix64_stream(seed, 17).tolist() == ref_splitmix64(seed, 17)


def test_splitmix64_counter_based():
    # stream is a pure function of (seed, index): prefixes agree
    full = splitmix64_stream(99, 32)
    assert splitmix64_stream(99, 10).tolist() == full[:10].tolist()
    assert splitmix64_stream(99, 0).size == 0


def test_uniform_stream_range_and_determinism():
    u = uniform_stream(7, 10_000)
    assert u.dtype == np.float64
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert np.array_equal(u, uniform_stream(7, 10_000))
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
    # mix64 reduces modulo 2^64, so each of these would alias a valid input
    for seed in (-1, 2**64, 2**70, True, False, 1.5, "1", None):
        with pytest.raises(ValueError, match=r"seed must be an int in \[0, 2\*\*64\)"):
            derive_seed(seed, 0)
    for index in (-1, 2**64, True, 1.5, 2.0, "1", None):
        with pytest.raises(ValueError, match=r"index must be an int in \[0, 2\*\*64\)"):
            derive_seed(0, index)
    edge = {derive_seed(s, k) for s in (0, 1, 2**64 - 1) for k in (0, 1, 3, 2**64 - 1)}
    assert len(edge) == 12


def test_derive_seeds_matches_derive_seed():
    seeds = [0, 1, 2**63, 2**64 - 1]
    indices = [0, 1, 3]
    got = _derive_seeds(np.array(seeds, dtype=np.uint64), indices)
    assert got.dtype == np.uint64 and got.shape == (3, 4)
    assert got.tolist() == [[derive_seed(s, k) for s in seeds] for k in indices]


def test_random_hermitian_properties():
    H = random_hermitian(6, seed=11)
    assert H.shape == (6, 6) and H.dtype == np.complex128
    assert np.allclose(H, H.conj().T)
    assert not np.allclose(H, random_hermitian(6, seed=12))


def test_random_psd_properties():
    A = random_psd(5, seed=2)
    assert np.allclose(A, A.conj().T)
    w = np.linalg.eigvalsh(A)
    assert w.min() > -1e-12
    assert np.array_equal(A, random_psd(5, seed=2))
    assert random_psd(1, seed=0).shape == (1, 1)


# One-seed samplers written out step by step, on the scalar SplitMix64
# reference: the oracle that every stacked draw must match bit for bit.

def ref_gaussian(seed, count):
    pairs = (count + 1) // 2
    bits = np.array(ref_splitmix64(seed, 2 * pairs), dtype=np.uint64)
    u = (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    rad = np.sqrt(-2.0 * np.log1p(-u[:pairs]))
    ang = 2.0 * np.pi * u[pairs:]
    out = np.empty(2 * pairs)
    out[0::2] = rad * np.cos(ang)
    out[1::2] = rad * np.sin(ang)
    return out[:count]


def ref_complex_gaussian(n, seed):
    g = ref_gaussian(seed, 2 * n * n)
    return (g[: n * n] + 1j * g[n * n :]).reshape(n, n) / math.sqrt(2.0)


def ref_hermitian(n, seed):
    X = ref_complex_gaussian(n, seed)
    return (X + X.conj().T) / 2.0


def ref_psd(n, seed):
    R = ref_complex_gaussian(n, seed)
    M = R.conj().T @ R
    return (M + M.conj().T) / 2.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("m", [1, 2, 18, 30])
def test_stacked_draws_match_one_seed_oracle(n, m):
    seeds = [derive_seed(100 * n + m, k) for k in range(m - 1)] + [(1 << 64) - 1]
    count = 2 * n * n - 1  # odd, so the last Box-Muller pair is cut
    cases = (
        (lambda s: random_psd(n, s), lambda s: ref_psd(n, s)),
        (lambda s: random_hermitian(n, s), lambda s: ref_hermitian(n, s)),
        (lambda s: gaussian_stream(s, count), lambda s: ref_gaussian(s, count)),
        (lambda s: splitmix64_stream(s, count), lambda s: ref_splitmix64(s, count)),
    )
    for draw, oracle in cases:
        stack = draw(seeds)
        assert stack.shape[0] == m
        for row, seed in zip(stack, seeds):
            assert np.array_equal(row, oracle(seed))
            assert np.array_equal(row, draw(seed))
    assert random_psd(n, tuple(seeds)).shape == (m, n, n)
    assert np.array_equal(random_psd(n, range(3)), random_psd(n, [0, 1, 2]))


def test_stacked_samplers_reject_bad_seeds():
    samplers = (
        lambda s: random_psd(2, s),
        lambda s: random_hermitian(2, s),
        lambda s: gaussian_stream(s, 4),
        lambda s: splitmix64_stream(s, 3),
        lambda s: uniform_stream(s, 2),
    )
    for draw in samplers:
        for empty in ([], (), range(0)):
            with pytest.raises(ValueError, match="seed sequence must be nonempty"):
                draw(empty)
        for bad in (-1, 2**64, 2**70, 1.5, True, False, "1", None, [1]):
            message = rf"seed \(stack index 2\) must be an int in \[0, 2\*\*64\), got {re.escape(repr(bad))}"
            with pytest.raises(ValueError, match=message):
                draw([0, 5, bad, 7])
        for bad in (-1, 2**64, True):
            message = rf"seed must be an int in \[0, 2\*\*64\), got {bad!r}"
            with pytest.raises(ValueError, match=message):
                draw(bad)
        assert draw([2**64 - 1, 0]).shape[0] == 2


# ------------------------------------------------------------------ eigensolver

@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_hermitian_eig_reconstruction(n):
    H = random_hermitian(n, seed=100 + n)
    res = hermitian_eig(H)
    V, w = res.vectors, res.eigenvalues
    scale = 1.0 + np.linalg.norm(H)
    assert np.linalg.norm(V @ np.diag(w) @ V.conj().T - H) <= 1e-10 * scale
    assert np.linalg.norm(V.conj().T @ V - np.eye(n)) <= 1e-10
    assert np.all(np.diff(w) >= -1e-12)  # ascending
    assert np.allclose(np.sort(w), np.sort(np.linalg.eigvalsh(H)), atol=1e-9 * scale)


def test_hermitian_eig_real_symmetric_and_diagonal():
    S = np.array([[2.0, 1.0], [1.0, 2.0]])
    res = hermitian_eig(S)
    assert np.allclose(res.eigenvalues, [1.0, 3.0])
    D = np.diag([3.0, -1.0, 0.5])
    res = hermitian_eig(D)
    assert np.allclose(res.eigenvalues, [-1.0, 0.5, 3.0])


def test_hermitian_eig_input_validation():
    with pytest.raises(ValueError):
        hermitian_eig(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        hermitian_eig(bad)
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
    res = hermitian_eig(np.diag([1e200, -1e195]))
    assert np.allclose(res.eigenvalues, [-1e195, 1e200], rtol=1e-12, atol=0.0)
    # off Hermitian by 1e-12 relative: inside the tolerance, so accepted
    near = np.array([[1e200, 1e200 * (1.0 + 1e-12)], [1e200, 1e200]])
    assert np.allclose(hermitian_eig(near).eigenvalues, [0.0, 2e200], rtol=1e-9, atol=1e189)


def test_hermitian_eig_never_returns_nan_for_finite_input():
    # exactly Hermitian input is not averaged, so (H + H*) cannot overflow
    res = hermitian_eig(np.diag([1.7e308, 1.0]))
    assert res.eigenvalues.tolist() == [1.0, 1.7e308]
    # the true eigenvalues are 0 and 2e308, which no float can hold
    with pytest.raises(ArithmeticError, match="not finite"):
        hermitian_eig(np.array([[1e308, 1e308], [1e308, 1e308]]))
    stack = np.stack([np.eye(2), np.full((2, 2), 1e308)])
    with pytest.raises(ArithmeticError, match=r"stack index 1\) has an eigenvalue"):
        hermitian_eig(stack)
    # averaging a near-Hermitian input halves before adding
    near = np.array([[1.7e308, 1.0], [1.0 + 1e-15, 1.0]])
    assert np.isfinite(hermitian_eig(near).eigenvalues).all()


def test_hermitian_eig_convergence_error(monkeypatch):
    def fail(_H):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        hermitian_eig(random_hermitian(4, seed=1))


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

def test_word_matrix_and_trace():
    A = random_psd(3, seed=4)
    B = random_psd(3, seed=5)
    M = word_matrix(A, B, "AB")
    assert np.allclose(M, A @ B)
    assert np.isclose(trace_word_product(A, B, "AAB"), np.trace(A @ A @ B))
    with pytest.raises(ValueError):
        word_matrix(A, B, "AXB")


@pytest.mark.parametrize("p,r", [(4, 2), (5, 2), (6, 3), (7, 3), (7, 0), (7, 7)])
def test_trace_hurwitz_matches_brute_force(p, r):
    A = random_psd(3, seed=p * 10 + r)
    B = random_psd(3, seed=p * 10 + r + 1)
    value = trace_hurwitz_numeric(A, B, p, r)
    oracle = oracle_trace_hurwitz(A, B, p, r)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_pairs_reject_non_finite_entries(bad):
    M = np.array([[bad, 0.0], [0.0, 1.0]])
    I = np.eye(2)
    cert = bundled_certificate("p7r3.json")
    for A, B in ((M, I), (I, M)):
        with pytest.raises(ValueError, match="non-finite"):
            trace_hurwitz_numeric(A, B, 3, 1)
        with pytest.raises(ValueError, match="non-finite"):
            eval_certificate_numeric(cert, A, B)


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
                want = oracle_trace_hurwitz(a, b, p, r)
                assert abs(c - want) <= 1e-9 * (1.0 + abs(want))
    # a degree no brute force reaches: the coefficients sum to Tr[(A+B)^40]
    A = random_psd(3, seed=24)
    B = random_psd(3, seed=25)
    total = np.trace(np.linalg.matrix_power(A + B, 40)).real
    assert abs(bmv_coefficients(A, B, 40).sum() - total) <= 1e-9 * abs(total)


def test_bmv_coefficients_runs_the_recurrence_once(monkeypatch):
    calls = []
    kernel = kernels.hurwitz_trace

    def spy(A, B, p, r):
        calls.append((p, r))
        return kernel(A, B, p, r)

    monkeypatch.setattr(kernels, "hurwitz_trace", spy)
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


def test_eval_certificate_rejects_indefinite_gram():
    block = SandwichBlock(prefix=None, suffix="b", basis=("AAA",))
    bad = Certificate(7, 1, ((block, GramMatrix.from_rows([[-1]])),))
    A = random_psd(2, seed=70)
    B = random_psd(2, seed=71)
    with pytest.raises(NotPsdError):
        eval_certificate_numeric(bad, A, B)


def test_eval_certificate_rejects_huge_indefinite_gram():
    # ||G||_F overflows, so an unscaled tolerance would accept this Gram
    block = SandwichBlock(prefix=None, suffix=None, basis=("AB", "BA"))
    gram = GramMatrix.from_rows([[10**200, 0], [0, -10**195]])
    bad = Certificate(4, 2, ((block, gram),))
    with pytest.raises(NotPsdError, match="block 0"):
        eval_certificate_numeric(bad, np.eye(2), np.eye(2))


def test_samplers_reject_bad_dimension_and_seed():
    for sampler in (random_psd, random_hermitian):
        for n in (0, -1, 1.5, 2.0, True, False, "2", None):
            with pytest.raises(ValueError, match="n must be a positive int"):
                sampler(n, 1)
        # mix64 reduces seeds modulo 2^64, so 2^64 would alias seed 0
        for seed in (-1, 2**64, 2**70, 1.5, True, "1", None):
            with pytest.raises(ValueError, match=r"seed must be an int in \[0, 2\*\*64\)"):
                sampler(2, seed)
        assert sampler(2, 2**64 - 1).shape == (2, 2)
        assert not np.array_equal(sampler(2, 2**64 - 1), sampler(2, 0))
