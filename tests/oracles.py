"""Test oracles and test-only builders, kept apart from the package.

The ``ref_*`` and ``oracle_*`` functions redo a package job by another
route, written out step by step: the scalar SplitMix64 and seed
derivation, the one-seed samplers, the word-sum trace over every word,
the by-hand reduction of a sandwich pair, the Gram matrices a target
forces on a determined ansatz, the letter swap of a polynomial and the
entrywise quadratic form.  ``words_with`` and the Gram builders assemble
test inputs.  The package calls none of them; the tests compare its
results against them.
"""

import math
from itertools import combinations

import numpy as np

from hurwitz_sos.certificate import GramMatrix
from hurwitz_sos.rational import ZERO, GaussianRational
from hurwitz_sos.words import TracePolynomial

MASK = (1 << 64) - 1


# ------------------------------------------------------------------ sampling

def ref_mix64(z):
    """The SplitMix64 finalizer on one int, with every step masked to 64 bits."""
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def ref_splitmix64(seed, count):
    """The first ``count`` SplitMix64 outputs of ``seed``, one state step at a time."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        out.append(ref_mix64(state))
    return out


def ref_derive_seed(seed, index):
    """Child seed ``index`` of ``seed``: the finalizer of the finalized seed xor index + 1."""
    return ref_mix64(ref_mix64(seed) ^ ((index + 1) & MASK))


# One-seed samplers on the scalar SplitMix64 above: the oracle that every
# stacked draw of the package must match bit for bit.

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
    """Random Hermitian matrix with independent complex Gaussian entries."""
    X = ref_complex_gaussian(n, seed)
    return (X + X.conj().T) / 2.0


def ref_psd(n, seed):
    R = ref_complex_gaussian(n, seed)
    M = R.conj().T @ R
    return (M + M.conj().T) / 2.0


# ------------------------------------------------------------------ words

def words_with(length, b_count):
    """All words of ``length`` letters with ``b_count`` B's."""
    return tuple(
        "".join("B" if i in pos else "A" for i in range(length))
        for pos in combinations(range(length), b_count)
    )


def oracle_trace(A, B, p, r):
    """The word-sum trace by brute force: the sum of Tr(W) over the words
    W of length p with r B's, each a product of matrices, as a complex."""
    total = 0.0 + 0.0j
    for word in words_with(p, r):
        M = np.eye(A.shape[0], dtype=complex)
        for letter in word:
            M = M @ (B if letter == "B" else A)
        total += np.trace(M)
    return total


def oracle_least_rotation(word):
    return sorted(word[i:] + word[:i] for i in range(len(word)))[0]


def oracle_pair_word(block, j, k):
    """The word of sandwich j times the adjoint of sandwich k, by hand."""
    word = block.basis[j]
    if block.suffix:
        word += block.suffix.upper()
    word += block.basis[k][::-1]
    if block.prefix:
        word += block.prefix.upper()
    return word


def oracle_pair_class(block, j, k):
    """Least rotation of sandwich j times the adjoint of sandwich k, by hand."""
    return oracle_least_rotation(oracle_pair_word(block, j, k))


def oracle_forced_grams(blocks, target):
    """Each block's Gram matrix when every pair is its class's only one:
    entry (j, k) is the target coefficient of the by-hand class of pair
    (j, k), or zero if the target lacks that class."""
    terms = {str(cls): value for cls, value in target.items()}
    return [
        GramMatrix.from_rows([
            [terms.get(oracle_pair_class(block, j, k), ZERO) for k in range(block.dimension)]
            for j in range(block.dimension)
        ])
        for block in blocks
    ]


def swap_letters(poly):
    """``poly`` with A and B exchanged in every class."""
    swap = str.maketrans("AB", "BA")
    return TracePolynomial(
        poly.degree,
        {str(cls).translate(swap): value for cls, value in poly.items()},
    )


# ------------------------------------------------------------------ Gram matrices

def gram_from_vectors(vectors):
    """Sum of rank-one outer products v v* over the given coefficient vectors."""
    vecs = [tuple(GaussianRational.of(x) for x in v) for v in vectors]
    if not vecs:
        raise ValueError("need at least one vector")
    dim = len(vecs[0])
    if any(len(v) != dim for v in vecs):
        raise ValueError("vectors must share one dimension")
    rows = [[ZERO for _ in range(dim)] for _ in range(dim)]
    for v in vecs:
        for j in range(dim):
            for k in range(dim):
                rows[j][k] = rows[j][k] + v[j] * v[k].conjugate()
    return GramMatrix.from_rows(rows)


def oracle_quadratic_form(gram, vector):
    """v* G v as a sum of d^2 GaussianRational products, one entry at a time."""
    v = tuple(GaussianRational.of(x) for x in vector)
    total = ZERO
    for j in range(gram.dimension):
        for k in range(gram.dimension):
            total = total + v[j].conjugate() * gram.at(j, k) * v[k]
    return total


def zeros(n):
    return GramMatrix.from_rows([[ZERO] * n for _ in range(n)])


def scaled_identity(n, value):
    value = GaussianRational.of(value)
    return GramMatrix.from_rows(
        [[value if j == k else ZERO for k in range(n)] for j in range(n)]
    )


def oracle_entries(gram):
    """Every entry of ``gram`` as a GaussianRational, row by row, read through ``at``."""
    n = gram.dimension
    return [[gram.at(j, k) for k in range(n)] for j in range(n)]


def scaled(gram, factor):
    """``factor`` times ``gram``; a non-real factor fails GramMatrix's Hermitian check."""
    factor = GaussianRational.of(factor)
    return GramMatrix.from_rows([[x * factor for x in row] for row in oracle_entries(gram)])


def add(first, second):
    """Entrywise sum of two Gram matrices of one dimension."""
    return GramMatrix.from_rows(
        [[x + y for x, y in zip(a, b)]
         for a, b in zip(oracle_entries(first), oracle_entries(second))]
    )
