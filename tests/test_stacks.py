"""Stacked evaluation: an (m, n, n) stack against m calls on (n, n) pairs.

Every numeric entry point that takes a pair also takes a stack of pairs.
A stacked call must equal the per-slice calls, raise what the call on a
bad slice raises, and give each slice a value that does not depend on
the rest of its stack, so that a runner's row replays bit for bit from
its recorded seed.
"""

import numpy as np
import pytest

from hurwitz_sos.certificate import bundled_certificate, swap_certificate
from hurwitz_sos.numeric import (
    NotPsdError,
    _hurwitz_trace,
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
from hurwitz_sos.validation import TrialConfig, bmv_check_trials, validate_certificate_trials

from oracles import oracle_recurrence

REL = 1e-12
CERTS = ("p7r2.json", "p7r3.json")  # a suffix block and a prefix block


def psd_stack(n, m, base):
    return np.stack([random_psd(n, derive_seed(base, k)) for k in range(m)])


def close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.abs(got - want).max() <= REL * (1.0 + np.abs(want).max())


# ------------------------------------------------------------------ per-pair oracles

def per_pair_certificate(cert, A, B):
    """The sum of squares one pair and one eigenvector at a time."""
    half = {"a": psd_sqrt(A), "b": psd_sqrt(B)}
    total = 0.0
    for block, gram in cert.blocks:
        w, V = np.linalg.eigh(gram_to_complex(gram))
        sandwiches = []
        for word in block.basis:
            M = np.eye(A.shape[0], dtype=np.complex128)
            for ch in word:
                M = M @ (A if ch == "A" else B)
            if block.prefix is not None:
                M = half[block.prefix] @ M
            if block.suffix is not None:
                M = M @ half[block.suffix]
            sandwiches.append(M)
        for l in range(len(w)):
            if w[l] <= 0.0:
                continue
            C = sum(V[j, l] * sandwiches[j] for j in range(len(w)))
            total += w[l] * float(np.vdot(C, C).real)
    return total


# ------------------------------------------------------------------ stack equals slices

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 7])
def test_stacked_traces_equal_slices(n, m):
    A, B = psd_stack(n, m, 10 * n + m), psd_stack(n, m, 100 + 10 * n + m)
    for p, r in ((1, 0), (1, 1), (5, 2), (7, 3), (7, 7), (10, 4)):
        got = _hurwitz_trace(A, B, p, r)[:, r]
        assert got.shape == (m,) and got.dtype == np.complex128
        assert close(got, [_hurwitz_trace(a[None], b[None], p, r)[0, r] for a, b in zip(A, B)])
        got = trace_hurwitz_numeric(A, B, p, r)
        assert got.shape == (m,) and got.dtype == np.float64
        want = [trace_hurwitz_numeric(a, b, p, r) for a, b in zip(A, B)]
        assert close(got, want)
        want = [oracle_recurrence(a[None], b[None], p, r)[0, r].real for a, b in zip(A, B)]
        assert close(got, want)
    got = bmv_coefficients(A, B, 7)
    assert got.shape == (m, 8)
    assert close(got, [bmv_coefficients(a, b, 7) for a, b in zip(A, B)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 7])
def test_stacked_kernel_equals_slices_off_hermitian(n, m):
    # the kernel is defined on any complex pair, not only Hermitian ones
    g = gaussian_stream(n + 10 * m, 4 * m * n * n).reshape(4, m, n, n)
    A, B = g[0] + 1j * g[1], g[2] + 1j * g[3]
    for r in range(7):
        got = _hurwitz_trace(A, B, 6, r)[:, r]
        assert close(got, [_hurwitz_trace(a[None], b[None], 6, r)[0, r] for a, b in zip(A, B)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 7])
def test_stacked_psd_sqrt_and_certificate_equal_slices(n, m):
    A, B = psd_stack(n, m, 20 * n + m), psd_stack(n, m, 200 + 20 * n + m)
    roots = psd_sqrt(A)
    assert roots.shape == (m, n, n)
    for root, a in zip(roots, A):
        assert close(root, psd_sqrt(a))
    for name in CERTS:
        cert = bundled_certificate(name)
        got = eval_certificate_numeric(cert, A, B)
        assert got.shape == (m,) and got.dtype == np.float64
        assert close(got, [eval_certificate_numeric(cert, a, b) for a, b in zip(A, B)])
        assert close(got, [per_pair_certificate(cert, a, b) for a, b in zip(A, B)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 7])
def test_stacked_hermitian_eig_equals_slices(n, m):
    A = psd_stack(n, m, 30 * n + m) - np.eye(n)
    for H in (A, A.real.copy()):
        ws, Vs = hermitian_eig(H)
        assert ws.shape == (m, n) and Vs.shape == (m, n, n)
        assert Vs.dtype == H.dtype
        for k, h in enumerate(H):
            assert close(ws[k], hermitian_eig(h)[0])
            V, w = Vs[k], ws[k]
            assert close((V * w) @ V.conj().T, h)


def test_certificate_overflow_names_block_and_slice():
    cert = bundled_certificate("p7r3.json")
    I = np.eye(2)
    # the squares of these sandwiches overflow to inf, and to NaN
    for A, B, value in ((1e60 * I, 1e60 * I, "inf"), (1e200 * I, I, "nan")):
        with pytest.raises(ArithmeticError, match=rf"block 0: sum of squares is not finite \({value}\)"):
            eval_certificate_numeric(cert, A, B)
    A, B = psd_stack(2, 5, 1), psd_stack(2, 5, 2)
    A[3] = 1e60 * I
    B[3] = 1e60 * I
    with pytest.raises(ArithmeticError, match=r"block 0: sum of squares \(stack index 3\) is not finite"):
        eval_certificate_numeric(cert, A, B)


def test_a_pair_keeps_its_scalar_types():
    A, B = random_psd(3, 1), random_psd(3, 2)
    cert = bundled_certificate("p7r3.json")
    assert type(trace_hurwitz_numeric(A, B, 7, 3)) is float
    degrees = trace_hurwitz_numeric(A, B, 7, range(8))
    assert type(degrees) is np.ndarray and degrees.shape == (8,) and degrees.dtype == np.float64
    assert type(eval_certificate_numeric(cert, A, B)) is float
    assert bmv_coefficients(A, B, 7).shape == (8,)
    assert psd_sqrt(A).shape == (3, 3)


def test_stacks_reject_bad_shapes():
    I = np.eye(2)
    with pytest.raises(ValueError, match="stack of square"):
        trace_hurwitz_numeric(np.zeros((2, 2, 3)), np.zeros((2, 2, 3)), 3, 1)
    with pytest.raises(ValueError, match="stack of square"):
        psd_sqrt(np.zeros((1, 2, 2, 2)))
    with pytest.raises(ValueError, match="equal shape"):
        trace_hurwitz_numeric(np.stack([I, I]), np.stack([I, I, I]), 3, 1)
    with pytest.raises(ValueError, match="equal shape"):
        trace_hurwitz_numeric(I, np.stack([I]), 3, 1)
    with pytest.raises(ValueError, match="nonempty"):
        trace_hurwitz_numeric(np.zeros((0, 2, 2)), np.zeros((0, 2, 2)), 3, 1)


@pytest.mark.parametrize("m", [1, 7])
def test_stacked_degree_range_equals_its_degrees(m):
    A, B = psd_stack(3, m, 40 + m), psd_stack(3, m, 400 + m)
    got = trace_hurwitz_numeric(A, B, 7, range(8))
    assert got.shape == (m, 8) and got.dtype == np.float64
    for r in range(8):
        assert close(got[:, r], trace_hurwitz_numeric(A, B, 7, r))


# ------------------------------------------------------------------ a bad slice

def _raised(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc)
    raise AssertionError("call did not raise")


NON_HERMITIAN = (
    np.array([[0.0, 1.0], [0.0, 0.0]]),
    np.array([[0.0, 1.0j], [-1.0j, 0.0]]),
)

# (name, bad A, bad B, entry points that must reject the pair)
BAD_SLICES = (
    ("nan", np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2), ("trace", "bmv", "sqrt", "cert")),
    ("inf", np.eye(2), np.array([[1.0, 0.0], [0.0, np.inf]]), ("trace", "bmv", "cert")),
    ("non-Hermitian", *NON_HERMITIAN, ("trace", "bmv", "sqrt", "cert")),
    ("indefinite", -np.eye(2), np.eye(2), ("sqrt", "cert")),
    ("overflow", 1e200 * np.eye(2), 1e200 * np.eye(2), ("trace", "bmv", "cert")),
)

CALLS = {
    "trace": lambda A, B: trace_hurwitz_numeric(A, B, 2, 1),
    "bmv": lambda A, B: bmv_coefficients(A, B, 2),
    "sqrt": lambda A, B: psd_sqrt(A),
    "cert": lambda A, B: eval_certificate_numeric(bundled_certificate("p7r3.json"), A, B),
}


@pytest.mark.parametrize("name,bad_a,bad_b,entries", BAD_SLICES, ids=[c[0] for c in BAD_SLICES])
@pytest.mark.parametrize("where", [0, 3, 6])
def test_one_bad_slice_raises_like_its_pair(name, bad_a, bad_b, entries, where):
    A, B = psd_stack(2, 7, 1), psd_stack(2, 7, 2)
    A[where], B[where] = bad_a, bad_b
    for entry in entries:
        call = CALLS[entry]
        expected = _raised(lambda: call(bad_a, bad_b))
        assert _raised(lambda: call(A, B)) is expected, (name, entry)
        if not (np.isfinite(bad_a).all() and np.isfinite(bad_b).all()):
            assert expected is ValueError
        elif name == "indefinite":
            assert expected is NotPsdError
        elif name == "overflow":
            assert expected is ArithmeticError


def test_bad_slice_message_names_its_index():
    A, B = psd_stack(2, 5, 1), psd_stack(2, 5, 2)
    A[3] = 1e200 * np.eye(2)
    with pytest.raises(ArithmeticError, match=r"stack index 3\) is not finite"):
        trace_hurwitz_numeric(A, B, 3, 0)
    A[3] = -np.eye(2)
    with pytest.raises(NotPsdError, match=r"stack index 3\) has negative"):
        psd_sqrt(A)
    A[3] = NON_HERMITIAN[0]
    for entry in (hermitian_eig, psd_sqrt):
        with pytest.raises(ValueError, match=r"stack index 3\) is not Hermitian"):
            entry(A)


def test_certificate_error_names_a_or_b():
    # the message calls the input A or B, with a stack index only for a stack
    cert = bundled_certificate("p7r3.json")
    I = np.eye(2)
    with pytest.raises(NotPsdError, match=r"^B has negative eigenvalue -1\.000000e\+00$"):
        eval_certificate_numeric(cert, I, -I)
    with pytest.raises(NotPsdError, match=r"^A has negative eigenvalue -1\.000000e\+00$"):
        eval_certificate_numeric(cert, -I, I)
    with pytest.raises(ValueError, match=r"^A is not Hermitian$"):
        eval_certificate_numeric(cert, NON_HERMITIAN[0], I)
    A, B = psd_stack(2, 5, 1), psd_stack(2, 5, 2)
    B[3] = -I
    with pytest.raises(NotPsdError, match=r"^B \(stack index 3\) has negative eigenvalue -1\.0"):
        eval_certificate_numeric(cert, A, B)
    A[1] = NON_HERMITIAN[0]
    with pytest.raises(ValueError, match=r"^A \(stack index 1\) is not Hermitian$"):
        eval_certificate_numeric(cert, A, B)
    # psd_sqrt and hermitian_eig call their input "matrix" unless given a name
    with pytest.raises(ValueError, match=r"^B contains non-finite entries$"):
        psd_sqrt(np.array([[np.nan]]), "B")
    with pytest.raises(ValueError, match=r"^matrix contains non-finite entries$"):
        hermitian_eig(np.array([[np.inf]]))


# ------------------------------------------------------------------ runners replay

def test_certificate_rows_replay_alone():
    config = TrialConfig(seed=40, dims=(1, 2, 3, 4, 5, 6), trials=4)
    for cert in (bundled_certificate("p7r1.json"), swap_certificate(bundled_certificate("p7r3.json"))):
        report = validate_certificate_trials(cert, config)
        labels = [row.label for row in report.rows]
        assert labels == ["scalar(2,3)"] + ["identity"] * 6 + [str(40 + k) for k in range(24)]
        assert [row.n for row in report.rows] == [1, *range(1, 7)] + [
            n for n in range(1, 7) for _ in range(4)
        ]
        for row in report.rows[7:]:
            seed = int(row.label)
            alone = validate_certificate_trials(cert, TrialConfig(seed=seed, dims=(row.n,), trials=1))
            assert (alone.rows[-1].oracle, alone.rows[-1].value) == (row.oracle, row.value)
            A = random_psd(row.n, derive_seed(seed, 0))
            B = random_psd(row.n, derive_seed(seed, 1))
            oracle = oracle_recurrence(A[None], B[None], cert.p, cert.r)[0, -1].real
            value = per_pair_certificate(cert, A, B)
            assert close(row.oracle, oracle) and close(row.value, value)
            assert row.passed == (abs(value - oracle) <= config.tol_rel * (1.0 + abs(oracle)))


@pytest.mark.parametrize("p", [5, 7, 10])
def test_coefficient_rows_replay_alone(p):
    config = TrialConfig(seed=5, dims=(2, 3, 4, 5), trials=14)
    report = bmv_check_trials(p, config)
    assert [row.trial_seed for row in report.rows] == list(range(5, 19))
    assert [row.n for row in report.rows] == [(2, 3, 4, 5)[t % 4] for t in range(14)]
    for row in report.rows:
        alone = bmv_check_trials(p, TrialConfig(seed=row.trial_seed, dims=(row.n,), trials=1))
        assert alone.rows[0] == row
        A = random_psd(row.n, derive_seed(row.trial_seed, 0))
        B = random_psd(row.n, derive_seed(row.trial_seed, 1))
        want = oracle_recurrence(A[None], B[None], p, p)[0].real
        assert close(row.coefficients, want)
        assert row.passed


def test_bmv_coefficients_names_the_failing_degree():
    A, B = psd_stack(2, 5, 1), psd_stack(2, 5, 2)
    A[3], B[3] = NON_HERMITIAN
    # degree 0 is Tr(A^2) = 0, so degree 1 is the first that fails
    with pytest.raises(ArithmeticError, match=r"\(p=2, r=1\) \(stack index 3\) has imaginary part"):
        bmv_coefficients(A, B, 2)
