"""Numerics: seeded RNG, Hermitian eigensolver, evaluators.

Randomness is a counter-based SplitMix64 stream rather than numpy's
Generator objects, so trials are reproducible from an integer seed
across platforms.  The eigensolver is LAPACK ``eigh`` through numpy.
That is safe because floats never decide a result on their own: they
cross-check certificates and steer the search, every search result is
re-verified in exact rational arithmetic before it is returned, and the
random inputs stay seeded by SplitMix64, so a different LAPACK changes
rounding, not which matrices are tried.

``random_psd`` (the trial matrices) takes one seed or a sequence of m
seeds, and ``gaussian_stream`` (the search's start points) takes one
seed.  A sequence is drawn in one pass: one (m, count) array of
SplitMix64 counters, one Box-Muller transform over its rows and one
batched R* R.  Every step is elementwise, runs along a row or is a matmul
batched over the stack, so row k is still a function of seed k alone,
bit for bit what that seed draws on its own; a single seed is the
one-row case of the same code.  ``_derive_seeds`` gives ``derive_seed``
of a whole seed vector in one uint64 pass, so the validation runners
derive the seeds of a dimension group without a per-trial Python call,
and ``derive_seed`` is its one-row case.

The evaluators take one pair of (n, n) matrices or a stack of m pairs of
shape (m, n, n); a single pair is a stack of one inside.  The validation
runners stack all trials of one dimension, so each call costs one batched
recurrence, not one Python-level call per trial.  Every product is a
matmul batched over the stack and every sum runs along a fixed axis, so a
slice's value does not depend on the other slices of its stack.
The word-sum trace (``_hurwitz_trace``, whose docstring gives the
recurrence) is the oracle that exact certificates are cross-checked
against.  It shares no code with the sum-of-squares evaluator
``eval_certificate_numeric``, which contracts the sandwiches of all pairs
against the eigenvectors of each Gram matrix in one matmul.  It
diagonalizes each ``GramMatrix`` once, not once per call, and keeps the
factor while that object lives: a ``GramMatrix`` is immutable, so the
factor is a function of it, and the stored arrays are read-only, so no
caller can change them.  It computes ``psd_sqrt`` only of the half
letters its blocks use; the other matrix is checked by a Cholesky
factorization, and falls back to ``psd_sqrt`` only when that fails, so
it raises what its root would.  The tests check the trace against a
product over every word, the full-length recurrence and exact
cyclic-class expansions.
"""

from __future__ import annotations

import math
import weakref
from typing import Sequence, Tuple

import numpy as np

from .certificate import Certificate, GramMatrix
from .options import SEED_LIMIT, _check_dimension, _check_seed
from .words import check_degrees, is_int

__all__ = [
    "ConvergenceError",
    "NotPsdError",
    "bmv_coefficients",
    "derive_seed",
    "eval_certificate_numeric",
    "gaussian_stream",
    "hermitian_eig",
    "psd_sqrt",
    "random_psd",
    "trace_hurwitz_numeric",
]


# Relative size of a negative eigenvalue that psd_sqrt treats as roundoff.
PSD_NEG_TOL = 1e-9


class ConvergenceError(ArithmeticError):
    """The eigensolver failed to converge."""


class NotPsdError(ValueError):
    """A matrix required to be positive semidefinite has a clearly negative eigenvalue."""


# ------------------------------------------------------------------
# SplitMix64 stream and Gaussian sampling
# ------------------------------------------------------------------

_MASK64 = SEED_LIMIT - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def derive_seed(seed: int, index: int) -> int:
    """Stable child seed for substream ``index`` of ``seed``; both are ints
    in [0, 2**64), as anything outside would alias a seed inside."""
    _check_seed(seed)
    _check_seed(index, "index")
    return int(_derive_seeds(np.array([seed], dtype=np.uint64), [index])[0, 0])


def _seed_vector(seed) -> Tuple[np.ndarray, bool]:
    """The seeds of a draw as a uint64 vector, and whether ``seed`` was one int.

    ``seed`` is an int or a nonempty list, tuple or range of ints, each in
    [0, SEED_LIMIT); a bad seed of a sequence is named by its stack index.
    """
    single = not isinstance(seed, (list, tuple, range))
    seeds = [seed] if single else list(seed)
    if not seeds:
        raise ValueError("seed sequence must be nonempty")
    # plain ints in range need one pass over the types and the extremes;
    # anything else is checked seed by seed, naming the first bad one
    if set(map(type, seeds)) != {int} or min(seeds) < 0 or max(seeds) >= SEED_LIMIT:
        for k, s in enumerate(seeds):
            _check_seed(s, f"seed{_which(single, k)}")
    return np.array(seeds, dtype=np.uint64), single


# numpy wraps uint64 array arithmetic modulo 2^64 without a warning (only
# scalar arithmetic warns), so the array helpers below need no errstate
def _mix64_array(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer on every entry of a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _derive_seeds(seeds: np.ndarray, indices: Sequence[int]) -> np.ndarray:
    """Row i, column k: ``derive_seed(seeds[k], indices[i])``, as uint64.

    ``seeds`` is a checked uint64 vector and every index an int in
    [0, SEED_LIMIT); both finalizer passes run over the whole array.
    """
    salts = np.array([(i + 1) & _MASK64 for i in indices], dtype=np.uint64)
    return _mix64_array(_mix64_array(seeds) ^ salts[:, np.newaxis])


def _splitmix_rows(seeds: np.ndarray, count: int) -> np.ndarray:
    """Row k: the first ``count`` SplitMix64 outputs of seeds[k], as uint64."""
    steps = np.uint64(_GOLDEN) * np.arange(1, count + 1, dtype=np.uint64)
    return _mix64_array(seeds[:, np.newaxis] + steps)


def _uniform_rows(seeds: np.ndarray, count: int) -> np.ndarray:
    bits = _splitmix_rows(seeds, count)
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def _gaussian_rows(seeds: np.ndarray, count: int) -> np.ndarray:
    """Row k: ``count`` standard normals from seeds[k] by Box-Muller.

    Each row pairs the first half of its uniforms (radii) with the second
    half (angles); every step is elementwise or runs along a row, so a
    row does not depend on the other seeds.
    """
    pairs = (count + 1) // 2
    u = _uniform_rows(seeds, 2 * pairs)
    # log1p(-u1) keeps the argument strictly negative even when u1 == 0
    rad = np.sqrt(-2.0 * np.log1p(-u[:, :pairs]))
    ang = 2.0 * np.pi * u[:, pairs:]
    out = np.empty((len(seeds), 2 * pairs), dtype=np.float64)
    out[:, 0::2] = rad * np.cos(ang)
    out[:, 1::2] = rad * np.sin(ang)
    return out[:, :count]


def _complex_gaussian_rows(seeds: np.ndarray, n: int) -> np.ndarray:
    """An (m, n, n) stack of complex Gaussian matrices, slice k from seeds[k]."""
    g = _gaussian_rows(seeds, 2 * n * n)
    X = (g[:, : n * n] + 1j * g[:, n * n :]).reshape(len(seeds), n, n)
    return X / math.sqrt(2.0)


def gaussian_stream(seed: int, count: int) -> np.ndarray:
    """``count`` IID standard normals from one seed via the Box-Muller transform."""
    if not is_int(count) or count < 0:
        raise ValueError(f"count must be a nonnegative int, got {count!r}")
    _check_seed(seed)
    return _gaussian_rows(np.array([seed], dtype=np.uint64), count)[0]


def random_psd(n: int, seed) -> np.ndarray:
    """Random positive semidefinite matrix R* R with complex Gaussian R.

    An int seed gives an (n, n) matrix; a sequence of m seeds gives an
    (m, n, n) stack, drawn in one pass, whose slice k is what seed k
    alone gives.  An n too large for numpy to index the stack is rejected.
    """
    seeds, single = _seed_vector(seed)
    _check_dimension(n, "n", len(seeds))
    R = _complex_gaussian_rows(seeds, n)
    M = _adjoint(R) @ R
    M = (M + _adjoint(M)) / 2.0
    return M[0] if single else M


# ------------------------------------------------------------------
# Hermitian eigensolver and PSD square root
# ------------------------------------------------------------------

def _checked_square(M, name: str = "matrix") -> np.ndarray:
    """M as a finite square matrix or a stack of them (m, n, n).

    A real input (bool, integer or float) becomes float64, so its
    eigensystem is real; any other input becomes complex128.
    """
    M = np.asarray(M)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise ValueError(
            f"{name} must be square or a stack of square matrices, got shape {M.shape}"
        )
    if M.size == 0:
        raise ValueError(f"{name} must be nonempty, got shape {M.shape}")
    M = M.astype(np.float64 if M.dtype.kind in "biuf" else np.complex128, copy=False)
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _pair_stack(A, B):
    """A and B as checked stacks (m, n, n), and whether they were one pair."""
    A = _checked_square(A, "A")
    B = _checked_square(B, "B")
    if A.shape != B.shape:
        raise ValueError(f"A and B must have equal shape, got {A.shape} and {B.shape}")
    single = A.ndim == 2
    if single:
        A, B = A[np.newaxis], B[np.newaxis]
    return A, B, single


def _which(single: bool, k: int) -> str:
    """Names slice k of a stack in an error message; nothing for a single input."""
    return "" if single else f" (stack index {k})"


def _adjoint(M: np.ndarray) -> np.ndarray:
    return M.conj().swapaxes(-1, -2)


def _frobenius(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of a matrix, or of each matrix of a stack."""
    return np.sqrt(np.square(np.abs(M)).sum(axis=(-2, -1)))


def _clearly_negative(w: np.ndarray) -> np.ndarray:
    """Whether min(w) < -PSD_NEG_TOL (1 + ||w||) for ascending eigenvalues w, per row.

    ||w|| is the Frobenius norm of the matrix whose eigenvalues are w.  The
    check runs on w u, u = 1 / max(1, max |w|), as min(w u) < -PSD_NEG_TOL
    (u + ||w u||), so a huge eigenvalue cannot overflow the norm.
    """
    u = 1.0 / np.abs(w).max(axis=-1, keepdims=True, initial=1.0)
    ws = w * u
    norm = np.sqrt(np.square(ws).sum(axis=-1))
    return ws[..., 0] < -PSD_NEG_TOL * (u[..., 0] + norm)


def _eigh(H: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """LAPACK ``eigh`` of H, raising ConvergenceError if it does not converge."""
    try:
        return np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc


def _hermitian(H, name: str) -> np.ndarray:
    """H as a checked square matrix or stack (see :func:`_checked_square`)
    made exactly Hermitian: H itself if it is, else H/2 + H*/2.  An input
    far from Hermitian raises ``ValueError`` naming ``name`` and its stack
    index."""
    H = _checked_square(H, name)
    adjoint = _adjoint(H)
    # H == H* passes the tolerance below exactly and needs no average, so
    # skip both; the norms run on H u, u = 1 / max(1, max |H|), and the
    # average halves before it adds, so a huge entry overflows neither
    if (H == adjoint).all():
        return H
    u = 1.0 / np.abs(H).max(axis=(-2, -1), keepdims=True, initial=1.0)
    Hs = H * u
    off = _frobenius(Hs - _adjoint(Hs)) > 1e-8 * (u[..., 0, 0] + _frobenius(Hs))
    if off.any():
        k = int(np.argmax(off))
        raise ValueError(f"{name}{_which(H.ndim == 2, k)} is not Hermitian")
    return H / 2.0 + adjoint / 2.0


def hermitian_eig(H, name: str = "matrix") -> Tuple[np.ndarray, np.ndarray]:
    """Eigensystem (w, V) of a Hermitian matrix, or of each matrix of a stack (m, n, n).

    Computed by LAPACK ``eigh`` on H, or on H/2 + H*/2 when H is not
    exactly Hermitian; a real input gets a real eigensystem.  An input
    far from Hermitian is rejected, naming its stack index.  Raises
    ConvergenceError if LAPACK does not converge, and ArithmeticError,
    naming the stack index, if an eigenvalue exceeds double precision.
    Error messages call the input ``name``.
    As from ``eigh``, w is ascending and column j of V goes with w[j]; a
    stack gives w of shape (m, n) and V of shape (m, n, n).
    """
    H = _hermitian(H, name)
    w, V = _eigh(H)
    # a Python pass costs less than a numpy reduction on the short
    # stacks of small matrices of the search's Weyl margin and float twin
    if not all(map(math.isfinite, w.ravel().tolist())):
        k = int(np.argmin(np.isfinite(w).all(axis=-1)))
        raise ArithmeticError(
            f"{name}{_which(H.ndim == 2, k)} has an eigenvalue that is not finite; "
            "it exceeds double precision"
        )
    return w, V


def psd_sqrt(A, name: str = "matrix") -> np.ndarray:
    """Hermitian square root of a PSD matrix, or of each matrix of a stack (m, n, n).

    Eigenvalues below zero by more than ``PSD_NEG_TOL * (1 + ||A||_F)``
    are an error; smaller dips are treated as roundoff and clamped to zero.
    The input is checked and diagonalized by :func:`hermitian_eig`, and
    ||A||_F is read off its eigenvalues.  Error messages call the input ``name``.
    """
    w, V = hermitian_eig(A, name)
    single = w.ndim == 1
    lowest = np.ravel(w[..., 0])
    low = np.ravel(_clearly_negative(w))
    if low.any():
        k = int(np.argmax(low))
        raise NotPsdError(
            f"{name}{_which(single, k)} has negative eigenvalue {lowest[k]:.6e}"
        )
    S = (V * np.sqrt(np.clip(w, 0.0, None))[..., np.newaxis, :]) @ _adjoint(V)
    return (S + _adjoint(S)) / 2.0


def _check_psd(A, name: str) -> None:
    """Accept or reject A as ``psd_sqrt(A, name)`` does, usually without its eigensolve.

    A is made Hermitian as :func:`hermitian_eig` makes it, then factored
    by Cholesky.  A finite factor L passes A.  By Cholesky's backward
    error (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., §10.1, Thm 10.3), L L* = A + dA with ||dA||_2 <= n (n + 1) u
    ||A||_2 to first order, u the unit roundoff; L L* is PSD, so
    lambda_min(A) >= -n (n + 1) u ||A||_2.  That is far above psd_sqrt's
    bound -PSD_NEG_TOL (1 + ||A||_F) while n (n + 1) u << PSD_NEG_TOL,
    for n up to about 3000, and the n^2 is a worst case.  ||L||_F^2 =
    Tr(L L*) bounds every eigenvalue of L L*, so a finite ||L||_F^2 also
    means that no eigenvalue of A exceeds double precision.  Anything else
    (a failed or non-finite factorization, of a singular PSD A among
    others) goes to ``psd_sqrt`` itself, whose root is dropped: it raises
    its NotPsdError, ArithmeticError or ConvergenceError, or accepts A.
    """
    H = _hermitian(A, name)
    try:
        L = np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        pass
    else:
        # vdot flattens the whole stack: an overflow there only costs the
        # eigensolve below, never a wrong pass
        with np.errstate(over="ignore", invalid="ignore"):
            if math.isfinite(np.vdot(L, L).real):
                return
    psd_sqrt(H, name)


# ------------------------------------------------------------------
# evaluators
# ------------------------------------------------------------------

def _word_product(A: np.ndarray, B: np.ndarray, word: str) -> np.ndarray:
    M = A if word[0] == "A" else B
    for ch in word[1:]:
        M = M @ (A if ch == "A" else B)
    return M


def _check_traces(
    totals: np.ndarray, p: int, degrees: Sequence[int], single: bool
) -> None:
    """Raise ArithmeticError if a trace of the stack is inf, NaN or not real.

    ``totals`` has one column per degree of ``degrees``, ascending.  Both
    tests run over the whole array at once; only when one fails is the
    lowest bad degree found, and within it a non-finite trace is reported
    before an imaginary part, as a check of that degree alone would.
    """
    finite = np.isfinite(totals)
    imaginary = np.abs(totals.imag) > 1e-9 * (1.0 + np.abs(totals.real))
    bad = imaginary | ~finite
    if not bad.any():
        return
    j = int(np.argmax(bad.any(axis=0)))
    r, column = degrees[j], totals[:, j]
    if not finite[:, j].all():
        k = int(np.argmin(finite[:, j]))
        raise ArithmeticError(
            f"word-sum trace for (p={p}, r={r}){_which(single, k)} is not finite "
            f"({complex(column[k])}); it exceeds double precision"
        )
    k = int(np.argmax(imaginary[:, j]))
    raise ArithmeticError(
        f"word-sum trace for (p={p}, r={r}){_which(single, k)} has imaginary "
        f"part {column[k].imag:.3e}; inputs are probably not Hermitian"
    )


def _hurwitz_trace(A, B, p: int, r: int):
    """Word-sum traces Tr P_p[j] for every degree j = 0..r, met in the middle.

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

    A and B are stacks of shape (m, n, n), unchecked (the caller is
    :func:`trace_hurwitz_numeric`), run as one recurrence with m block
    columns; numpy evaluates a batched matmul one slice at a time, so a
    pair's trace does not depend on the rest of its stack.  Entry (k, j)
    of the complex (m, r + 1) result is Tr P_p[j] for pair k.
    """
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    m, n, _ = A.shape
    hi, lo = (p + 1) // 2, p // 2
    k = min(r, hi) + 1  # P_hi[j] = 0 for j > hi
    # the blocks stacked by rows: P[:, j*n:(j+1)*n] is P_k[j]
    P = np.zeros((m, k * n, n), dtype=np.complex128)
    P[:, :n] = A
    if k > 1:  # at r = 0 there is no B block
        P[:, n : 2 * n] = B
    if lo == 0:  # p = 1: no lower half
        return np.trace(P.reshape(m, k, n, n), axis1=-2, axis2=-1)
    low = P
    for step in range(2, hi + 1):
        Q = P @ A
        Q[:, n:] += P[:, :-n] @ B
        P = Q
        if step == lo:
            low = P
    # Tr(P_hi[i] P_lo[l]) in column l of row i of width w + 1; read at
    # width w >= r + 1, row i shifts right by i, so column j sums i + l = j
    kl = min(r, lo) + 1
    w = k + kl - 1
    S = np.zeros((m, k, w + 1), dtype=np.complex128)
    lo_t = low[:, : kl * n].reshape(m, kl, n, n).transpose(0, 3, 2, 1).reshape(m, n * n, kl)
    np.matmul(P.reshape(m, k, n * n), lo_t, out=S[:, :, :kl])
    return S.reshape(m, -1)[:, : k * w].reshape(m, k, w).sum(axis=1)[:, : r + 1]


def trace_hurwitz_numeric(A, B, p: int, r):
    """Sum of Tr(W) over all length-p words with r B's, for one r or a range of them.

    Computed as the t^r coefficient of Tr (A + tB)^p by
    :func:`_hurwitz_trace`.  For Hermitian inputs the result is real; a
    significant imaginary part indicates bad input and raises
    ArithmeticError, as does a total that overflowed to inf or NaN.

    ``r`` is an int or a nonempty ``range`` of degrees in [0, p], and an
    int r is the one-degree case of a range.  The recurrence runs once,
    up to the largest degree, and only the requested degrees are
    checked, all in one pass; the lowest bad degree raises what its own
    call would.  A range adds a trailing axis with one entry per
    degree: a vector for a pair, an (m, len(r)) array for a stack of m
    pairs.  An int r adds none: a float for a pair, a float vector of
    length m for a stack.
    """
    degrees = sorted(r) if isinstance(r, range) else [r]
    if not degrees:
        raise ValueError(f"r must be an int or a nonempty range, got {r!r}")
    check_degrees(p, degrees[0])
    check_degrees(p, degrees[-1])
    A, B, single = _pair_stack(A, B)
    # overflow is reported below as an ArithmeticError, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        columns = _hurwitz_trace(A, B, p, degrees[-1])
        _check_traces(columns[:, degrees], p, degrees, single)
    totals = (columns[0] if single else columns)[..., r].real.copy()
    return float(totals) if totals.ndim == 0 else totals


def bmv_coefficients(A, B, p: int) -> np.ndarray:
    """All word-sum traces for degrees r = 0..p, from one run of the recurrence.

    A pair gives a float vector of length p + 1; a stack of m pairs gives
    an (m, p + 1) array, one row per pair.  Degree r holds what
    ``trace_hurwitz_numeric(A, B, p, r)`` returns, and the first degree
    that is not finite or not real raises its error.
    """
    return trace_hurwitz_numeric(A, B, p, range(p + 1))


def gram_to_complex(gram: GramMatrix) -> np.ndarray:
    """Gram matrix as a complex128 array; each part is int / int, correctly rounded."""
    s = gram.scale
    rows = [[complex(x / s, y / s) for x, y in zip(a, b)]
            for a, b in zip(gram.re, gram.im)]
    return np.array(rows, dtype=np.complex128)


# GramMatrix -> its (rows, weights) from :func:`_gram_factor`.  Weak keys: an
# entry dies with its Gram, and an equal Gram, whose factor is the same, finds it
_GRAM_FACTORS = weakref.WeakKeyDictionary()


def _gram_factor(gram: GramMatrix, block_index: int) -> Tuple[np.ndarray, np.ndarray]:
    """The positive part of the float eigensystem (w, V) of a Gram matrix:
    the rows ``V[:, w > 0].T`` and the weights ``w[w > 0]``, both read-only.

    Computed on the first call for an equal Gram and then reused; a Gram
    that fails (an entry or eigenvalue beyond double precision raises
    ArithmeticError, a clearly negative eigenvalue NotPsdError, each
    naming ``block_index``) is not stored, so it raises on every call.
    """
    factor = _GRAM_FACTORS.get(gram)
    if factor is not None:
        return factor
    name = f"block {block_index}: Gram matrix"
    try:
        G = gram_to_complex(gram)
    except OverflowError as exc:  # int / int beyond the float range
        raise ArithmeticError(
            f"{name} has an entry that is not finite as a float; "
            "it exceeds double precision"
        ) from exc
    w, V = hermitian_eig(G, name)
    if _clearly_negative(w):
        raise NotPsdError(
            f"{name} is numerically indefinite "
            f"(min eigenvalue {w[0]:.3e}); verify exactly first"
        )
    positive = w > 0.0
    factor = (V[:, positive].T, w[positive])
    for array in factor:
        array.flags.writeable = False
    _GRAM_FACTORS[gram] = factor
    return factor


# overflow is reported as an ArithmeticError, not as a warning
@np.errstate(over="ignore", invalid="ignore")
def eval_certificate_numeric(cert: Certificate, A, B):
    """Evaluate a certificate as an explicit sum of squared Frobenius norms.

    Each block's Gram matrix is factored through its (floating point)
    eigensystem into vectors c_l, every c_l is contracted against the
    sandwich matrices, whose half letters are psd_sqrt(A) and
    psd_sqrt(B), and the squared norms ||C_l||_F^2 are summed over the
    positive eigenvalues.  The factor is computed once per ``GramMatrix``
    (:func:`_gram_factor`) and reused by every later call: the object is
    immutable and the stored arrays are read-only, so a reused factor is
    bit for bit the one a fresh call would compute.  Only the roots of
    the half letters that some block uses (as prefix or suffix) are
    computed; a matrix no block halves is checked by Cholesky
    (:func:`_check_psd`), which raises what its psd_sqrt would.  This
    follows the sum-of-squares reading of the certificate, not the exact
    expansion, which is what makes it a meaningful cross-check.
    A pair gives a float; a stack of m pairs gives a float vector of
    length m.
    A total that overflows to inf or NaN raises ArithmeticError naming
    the block and, for a stack, the pair, as does a Gram matrix beyond
    double precision; an error about A or B names it.
    """
    A, B, single = _pair_stack(A, B)
    used = {x for block, _ in cert.blocks for x in (block.prefix, block.suffix)}
    # a pair's roots stay (n, n), so an error names A or B with no stack
    # index; the matmuls below broadcast them over the stack of one
    half = {}
    for letter, M in (("a", A), ("b", B)):
        M = M[0] if single else M
        if letter in used:
            half[letter] = psd_sqrt(M, letter.upper())
        else:
            _check_psd(M, letter.upper())
    total = np.zeros(A.shape[0])
    for block_index, (block, gram) in enumerate(cert.blocks):
        rows, weights = _gram_factor(gram, block_index)
        sandwiches = []
        for word in block.basis:
            M = _word_product(A, B, word)
            if block.prefix is not None:
                M = half[block.prefix] @ M
            if block.suffix is not None:
                M = M @ half[block.suffix]
            sandwiches.append(M.reshape(M.shape[0], -1))
        # (k, d) @ (m, d, n*n): row l of slice i is C_l for pair i, flattened
        C = rows @ np.stack(sandwiches, axis=1)
        norms = (C.real ** 2 + C.imag ** 2).sum(axis=-1)
        total = total + (norms * weights).sum(axis=-1)
        bad = ~np.isfinite(total)
        if bad.any():
            k = int(np.argmax(bad))
            raise ArithmeticError(
                f"block {block_index}: sum of squares{_which(single, k)} is not "
                f"finite ({total[k]}); it exceeds double precision"
            )
    return float(total[0]) if single else total
