import json
import os
import random
import stat
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import hurwitz_sos as hs
from hurwitz_sos import certificate
from hurwitz_sos.cli import main
from hurwitz_sos.certificate import (
    AnsatzMismatchError,
    Certificate,
    CertificateFormatError,
    CertificateStructureError,
    GramMatrix,
    PsdCheckResult,
    SandwichBlock,
    ansatz_from_json,
    bundled_certificate,
    bundled_path,
    certificate_expansion,
    certificate_from_json,
    certificate_to_json,
    expand_gram,
    pair_classes,
    psd_check_exact,
    quadratic_form,
    swap_certificate,
    verify_against,
    verify_certificate,
)
from hurwitz_sos.rational import ZERO, GaussianRational, _parts_quad, grat, rational_quad
from hurwitz_sos.words import CyclicClass, TracePolynomial, hurwitz_expand

from oracles import (
    add,
    gram_from_vectors,
    oracle_least_rotation,
    oracle_pair_class,
    oracle_pair_word,
    oracle_quadratic_form,
    scaled,
    scaled_identity,
    swap_letters,
    words_with,
    zeros,
)

BLOCK_73 = SandwichBlock(prefix="b", suffix=None, basis=("AAB", "ABA", "BAA"))
GRAM_73 = GramMatrix.from_rows([[7, 0, 0], [0, 7, 7], [0, 7, 7]])


CORE_4 = words_with(4, 1)
# the blocks of the search-mix benchmark's ansatzes, bar the bundled p6 one
SEARCH_MIX_BLOCKS = (
    BLOCK_73,
    SandwichBlock(None, None, words_with(5, 1)),
    SandwichBlock(None, None, words_with(4, 2)),
    SandwichBlock("b", None, CORE_4),
    SandwichBlock(None, "b", CORE_4),
)


def oracle_principal_minors_psd(gram):
    # exact PSD test for n <= 3: every principal minor nonnegative
    n = gram.dimension
    assert n <= 3

    def det(idx):
        m = [[gram.at(a, b) for b in idx] for a in idx]
        if len(idx) == 1:
            return m[0][0]
        if len(idx) == 2:
            return m[0][0] * m[1][1] - m[0][1] * m[1][0]
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    for size in range(1, n + 1):
        for idx in combinations(range(n), size):
            value = det(list(idx))
            assert value.is_real
            if value.re < 0:
                return False
    return True


def oracle_psd_check(gram):
    # the elimination over Gaussian rationals that psd_check_exact replaced
    def normalize(vec):
        for x in vec:
            if x.is_zero:
                continue
            if x.re < 0 or (x.re == 0 and x.im < 0):
                return tuple(-y for y in vec)
            break
        return tuple(vec)

    n = gram.dimension
    S = [[gram.at(j, k) for k in range(n)] for j in range(n)]
    u = [[grat(1 if i == j else 0) for j in range(n)] for i in range(n)]
    remaining = list(range(n))
    pivots = []
    while remaining:
        for i in remaining:
            if S[i][i].re < 0:
                return PsdCheckResult(False, normalize(u[i]), tuple(pivots))
        q = max(remaining, key=lambda i: S[i][i].re)
        d = S[q][q].re
        if d == 0:
            culprit = next(
                ((i, j) for i in remaining for j in remaining
                 if i < j and not S[i][j].is_zero),
                None,
            )
            if culprit is None:
                pivots.extend(Fraction(0) for _ in remaining)
                break
            i, j = culprit
            s = S[i][j]
            witness = [uj - s * ui for ui, uj in zip(u[i], u[j])]
            return PsdCheckResult(False, normalize(witness), tuple(pivots))
        pivots.append(d)
        remaining.remove(q)
        for i in remaining:
            coeff = S[q][i] / d
            u[i] = [ui - coeff * uq for ui, uq in zip(u[i], u[q])]
        for i in remaining:
            left = S[i][q]
            for j in remaining:
                S[i][j] = S[i][j] - left * S[q][j] / d
    return PsdCheckResult(True, None, tuple(pivots))


# ------------------------------------------------------------------ blocks

def test_block_validation():
    with pytest.raises(ValueError):
        SandwichBlock(prefix="c", suffix=None, basis=("A",))
    with pytest.raises(ValueError):
        SandwichBlock(prefix=None, suffix=None, basis=())
    with pytest.raises(ValueError):
        SandwichBlock(prefix=None, suffix=None, basis=("AB", "AB"))
    with pytest.raises(ValueError):
        SandwichBlock(prefix=None, suffix=None, basis=("AB", "ABA"))
    with pytest.raises(ValueError):
        SandwichBlock(prefix=None, suffix=None, basis=("AXB",))
    # a str is a sequence of one-letter words: it would pass as ("A", "B")
    with pytest.raises(ValueError, match="got str 'AB'"):
        SandwichBlock(prefix=None, suffix=None, basis="AB")


def test_block_shape_accounting():
    assert BLOCK_73.dimension == 3
    BLOCK_73.check_shape(7, 3)
    with pytest.raises(
        AnsatzMismatchError,
        match=r"^block: sandwich products have length 7, target degree is 6$",
    ):
        BLOCK_73.check_shape(6, 3)
    with pytest.raises(
        AnsatzMismatchError,
        match=r"^block: word 'AAB' yields products with 3 B letters, target needs 2$",
    ):
        BLOCK_73.check_shape(7, 2)
    both = SandwichBlock(prefix="a", suffix="b", basis=("AB", "BA"))
    both.check_shape(6, 3)


@st.composite
def shaped_blocks(draw):
    # 1-4 distinct words of one length, of one B count or, half the time,
    # possibly of two
    length = draw(st.integers(min_value=1, max_value=4))
    pool = list(words_with(length, draw(st.integers(min_value=0, max_value=length))))
    if draw(st.booleans()):
        pool += words_with(length, draw(st.integers(min_value=0, max_value=length)))
    basis = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    half = st.sampled_from((None, "a", "b"))
    return SandwichBlock(draw(half), draw(half), tuple(basis))


@given(shaped_blocks(), st.integers(min_value=-1, max_value=1), st.integers(min_value=-1, max_value=1))
def test_check_shape_agrees_with_pair_words(block, dp, dr):
    # the shape check passes exactly when every by-hand pair word has
    # length p and r B's; (p, r) lies next to the shape of pair (0, 0)
    d = block.dimension
    words = [oracle_pair_class(block, j, k) for j in range(d) for k in range(d)]
    p, r = len(words[0]) + dp, words[0].count("B") + dr
    fits = all(len(word) == p and word.count("B") == r for word in words)
    try:
        block.check_shape(p, r)
    except AnsatzMismatchError:
        assert not fits
    else:
        assert fits


def test_pair_classes_frozen_three_word_block():
    # all nine ordered pairs of the three-word block, frozen
    expected = {
        (0, 0): "AABAABB",
        (0, 1): "AABABAB",
        (0, 2): "AABAABB",
        (1, 0): "AABABAB",
        (1, 1): "AABABAB",
        (1, 2): "AAABBAB",
        (2, 0): "AABAABB",
        (2, 1): "AAABABB",
        (2, 2): "AAAABBB",
    }
    table = pair_classes(BLOCK_73)
    for (j, k), rep in expected.items():
        assert str(table[j][k]) == rep
        assert rep == oracle_pair_class(BLOCK_73, j, k)


def test_pair_classes_suffix_and_both_sides():
    block = SandwichBlock(prefix=None, suffix="a", basis=("BAA", "ABA", "AAB"))
    table = pair_classes(block)
    for j in range(3):
        for k in range(3):
            assert str(table[j][k]) == oracle_pair_class(block, j, k)
    both = pair_classes(SandwichBlock(prefix="a", suffix="b", basis=("AB", "BA")))
    assert str(both[0][0]) == "AAABBB"
    assert str(both[0][1]) == "AABBAB"
    assert str(both[1][0]) == "AABABB"
    assert str(both[1][1]) == "ABABAB"


def assert_pair_classes_match_oracle(block):
    """Every entry of the table equals the by-hand oracle and a checked
    CyclicClass, type included: the table takes unchecked least rotations."""
    table = pair_classes(block)
    d = block.dimension
    assert len(table) == d and all(len(row) == d for row in table)
    for j in range(d):
        for k in range(d):
            cls = table[j][k]
            assert str(cls) == oracle_pair_class(block, j, k)
            assert type(cls) is CyclicClass and cls == CyclicClass(str(cls))


def test_pair_classes_match_oracle():
    _p, _r, p6_blocks = hs.load_ansatz(bundled_path("p6r3_restricted_ansatz.json"))
    blocks = list(SEARCH_MIX_BLOCKS + p6_blocks)
    for name in ("p7r0.json", "p7r1.json", "p7r2.json", "p7r3.json"):
        cert = bundled_certificate(name)
        for c in (cert, swap_certificate(cert)):
            blocks.extend(block for block, _gram in c.blocks)
    # the exact-scale benchmark's d = 20 and d = 35 blocks
    blocks.extend(SandwichBlock(None, None, words_with(n, 3)) for n in (6, 7))
    for block in blocks:
        assert_pair_classes_match_oracle(block)


@st.composite
def rotation_rich_blocks(draw):
    """Blocks with a random prefix and suffix whose basis words share one
    length and B count, so that many pair words are rotations of another."""
    length = draw(st.integers(min_value=2, max_value=5))
    pool = words_with(length, draw(st.integers(min_value=1, max_value=length - 1)))
    basis = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=8, unique=True))
    half = st.sampled_from((None, "a", "b"))
    return SandwichBlock(draw(half), draw(half), tuple(basis))


@given(rotation_rich_blocks())
def test_pair_classes_match_oracle_where_pair_words_repeat_as_rotations(block):
    # a pair word that is a rotation of an earlier, different one takes the
    # class recorded for the earlier word's rotations
    d = block.dimension
    words = {oracle_pair_word(block, j, k) for j in range(d) for k in range(d)}
    assume(len(words) > len({oracle_least_rotation(word) for word in words}))
    assert_pair_classes_match_oracle(block)


def test_pair_classes_transpose_is_reversal():
    # class(k, j) is the reversal class of class(j, k)
    from hurwitz_sos.words import reverse_class

    for block in (
        BLOCK_73,
        SandwichBlock(prefix="a", suffix="b", basis=("AB", "BA")),
        SandwichBlock(prefix=None, suffix="a", basis=("BAA", "AAB")),
    ):
        table = pair_classes(block)
        for j in range(block.dimension):
            for k in range(block.dimension):
                assert table[k][j] == reverse_class(table[j][k])


# ------------------------------------------------------------------ gram

def test_gram_validation():
    with pytest.raises(ValueError):
        GramMatrix.from_rows([])
    with pytest.raises(ValueError):
        GramMatrix.from_rows([[1, 0]])
    with pytest.raises(ValueError):
        GramMatrix.from_rows([[1, 2], [3, 4]])  # 2 != conj(3)
    with pytest.raises(ValueError):
        GramMatrix.from_rows([[grat(0, 1), grat(0)], [grat(0), grat(0)]])
    G = GramMatrix.from_rows([[2, grat(1, 1)], [grat(1, -1), 3]])
    assert G.at(0, 1) == grat(1, 1)
    assert G.dimension == 2


def test_gram_helpers():
    G = scaled_identity(3, 7)
    assert G.at(0, 0) == grat(7) and G.at(0, 1).is_zero
    Z = zeros(2)
    assert all(Z.at(j, k).is_zero for j in range(2) for k in range(2))
    S = scaled(G, Fraction(1, 7))
    assert S.at(2, 2) == grat(1)
    assert add(Z, Z).dimension == 2
    with pytest.raises(ValueError):
        scaled(G, grat(0, 1))


def test_gram_from_vectors_frozen():
    G = gram_from_vectors([(0, 1, 1)])
    assert [[G.at(j, k) for k in range(3)] for j in range(3)] == [
        [grat(0), grat(0), grat(0)],
        [grat(0), grat(1), grat(1)],
        [grat(0), grat(1), grat(1)],
    ]
    # complex vector: G[j][k] = v[j] * conj(v[k])
    G = gram_from_vectors([(grat(0, 1), grat(1))])
    assert G.at(0, 1) == grat(0, 1)
    assert G.at(1, 0) == grat(0, -1)
    assert G.at(0, 0) == grat(1)


def test_gram_from_vectors_accumulates():
    G = gram_from_vectors([(1, 0), (0, 1), (1, 1)])
    assert G.at(0, 0) == grat(2)
    assert G.at(0, 1) == grat(1)
    with pytest.raises(ValueError):
        gram_from_vectors([])
    with pytest.raises(ValueError):
        gram_from_vectors([(1,), (1, 2)])


def test_quadratic_form_frozen():
    G = GramMatrix.from_rows([[6, 6], [6, 2]])
    assert quadratic_form(G, (1, -1)) == grat(-4)
    assert quadratic_form(G, (1, 0)) == grat(6)
    assert quadratic_form(G, (grat(0, 1), 0)) == grat(6)
    with pytest.raises(ValueError, match="vector length 3 does not match dimension 2"):
        quadratic_form(G, (1, 0, 0))


# ------------------------------------------------------------------ psd

def test_psd_check_bundled_gram():
    result = psd_check_exact(GRAM_73)
    assert result.psd
    assert result.witness is None
    assert result.pivots == (Fraction(7), Fraction(7), Fraction(0))


def test_psd_check_p6_forced_gram():
    result = psd_check_exact(GramMatrix.from_rows([[6, 6], [6, 2]]))
    assert not result.psd
    assert result.witness == (grat(1), grat(-1))
    assert result.pivots == (Fraction(6),)


def test_psd_check_negative_diagonal():
    result = psd_check_exact(GramMatrix.from_rows([[-1]]))
    assert not result.psd
    assert result.witness == (grat(1),)
    assert quadratic_form(GramMatrix.from_rows([[-1]]), result.witness) == grat(-1)


def test_psd_check_zero_diagonal_trap():
    G = GramMatrix.from_rows([[0, 1], [1, 0]])
    result = psd_check_exact(G)
    assert not result.psd
    assert quadratic_form(G, result.witness) == grat(-2)


def test_psd_check_complex_hermitian():
    # v v* for v = (1, i) is PSD with an imaginary off-diagonal part
    G = gram_from_vectors([(grat(1), grat(0, 1))])
    result = psd_check_exact(G)
    assert result.psd
    indefinite = GramMatrix.from_rows(
        [[grat(1), grat(0, 2)], [grat(0, -2), grat(1)]]
    )
    result = psd_check_exact(indefinite)
    assert not result.psd
    assert quadratic_form(indefinite, result.witness).re < 0


def test_psd_witness_normalization():
    # first nonzero entry of the witness has positive real part
    for rows in ([[6, 6], [6, 2]], [[2, 6], [6, 6]], [[0, grat(0, 1)], [grat(0, -1), 0]]):
        result = psd_check_exact(GramMatrix.from_rows(rows))
        assert not result.psd
        lead = next(x for x in result.witness if not x.is_zero)
        assert lead.re > 0 or (lead.re == 0 and lead.im > 0)


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
small_entries = st.builds(GaussianRational, small_fracs, small_fracs)


def draw_hermitian_rows(draw, n, fracs=small_fracs):
    """The rows of an n x n Hermitian matrix whose parts are drawn from ``fracs``."""
    rows = [[None] * n for _ in range(n)]
    for j in range(n):
        rows[j][j] = GaussianRational(draw(fracs))
        for k in range(j + 1, n):
            x = GaussianRational(draw(fracs), draw(fracs))
            rows[j][k] = x
            rows[k][j] = x.conjugate()
    return rows


def draw_hermitian(draw, n, fracs=small_fracs):
    """An n x n Hermitian Gram whose parts are drawn from ``fracs``."""
    return GramMatrix.from_rows(draw_hermitian_rows(draw, n, fracs))


@st.composite
def hermitian_grams(draw, max_n=3):
    return draw_hermitian(draw, draw(st.integers(min_value=1, max_value=max_n)))


@given(hermitian_grams())
def test_psd_check_matches_minor_oracle(gram):
    assert psd_check_exact(gram).psd == oracle_principal_minors_psd(gram)


@given(hermitian_grams())
def test_psd_witness_is_sound(gram):
    result = psd_check_exact(gram)
    if not result.psd:
        value = quadratic_form(gram, result.witness)
        assert value.is_real and value.re < 0


@st.composite
def vector_lists(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    count = draw(st.integers(min_value=1, max_value=3))
    return [
        tuple(draw(small_entries) for _ in range(dim)) for _ in range(count)
    ]


@given(vector_lists())
def test_true_grams_are_psd(vectors):
    assert psd_check_exact(gram_from_vectors(vectors)).psd


@st.composite
def oracle_grams(draw):
    # general Hermitian, V V* of rank <= n, or V V* minus a planted c w w*
    n = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["hermitian", "low_rank", "planted"]))
    if kind == "hermitian":
        rows = [[None] * n for _ in range(n)]
        for j in range(n):
            rows[j][j] = GaussianRational(draw(small_fracs))
            for k in range(j + 1, n):
                rows[j][k] = draw(small_entries)
                rows[k][j] = rows[j][k].conjugate()
        return GramMatrix.from_rows(rows)
    rank = draw(st.integers(min_value=1, max_value=n))
    gram = gram_from_vectors(
        [tuple(draw(small_entries) for _ in range(n)) for _ in range(rank)]
    )
    if kind == "planted":
        w = tuple(draw(st.integers(min_value=-2, max_value=2)) for _ in range(n))
        c = draw(st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4))
        gram = add(gram, scaled(gram_from_vectors([w]), -c))
    return gram


@given(oracle_grams())
def test_psd_check_matches_rational_oracle(gram):
    assert psd_check_exact(gram) == oracle_psd_check(gram)


def test_psd_check_dimension_20_matches_rational_oracle():
    # V V* / 3 with 16 complex integer vectors: PSD, rank 16, four zero pivots
    rng = random.Random(20)
    vectors = [
        tuple(grat(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(20))
        for _ in range(16)
    ]
    gram = scaled(gram_from_vectors(vectors), Fraction(1, 3))
    result = psd_check_exact(gram)
    assert result == oracle_psd_check(gram)
    assert result.psd and len(result.pivots) == 20
    assert sum(1 for x in result.pivots if x == 0) == 4


def planted_gram(d, seed):
    """V V* - m w w^T as in the exact-scale benchmark: d complex integer
    vectors of length d, and m just large enough that w* G w < 0."""
    rng = random.Random(seed)
    vecs = [[(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
    re = [[sum(v[j][0] * v[k][0] + v[j][1] * v[k][1] for v in vecs) for k in range(d)]
          for j in range(d)]
    im = [[sum(v[j][1] * v[k][0] - v[j][0] * v[k][1] for v in vecs) for k in range(d)]
          for j in range(d)]
    w = [rng.randint(-2, 2) for _ in range(d)]
    w[rng.randrange(d)] = 2
    form = sum(w[j] * re[j][k] * w[k] for j in range(d) for k in range(d))
    m = form // sum(x * x for x in w) ** 2 + 1
    return GramMatrix.from_rows(
        [[grat(re[j][k] - m * w[j] * w[k], im[j][k]) for k in range(d)] for j in range(d)]
    )


@pytest.mark.parametrize("d, seed, min_pivots", [(20, 0, 10), (35, 2, 22)])
def test_psd_witness_after_many_pivots_matches_rational_oracle(d, seed, min_pivots):
    # the witness is rebuilt from every stored pivot row, so a long run of
    # pivots before the negative diagonal exercises the whole back-substitution
    gram = planted_gram(d, seed)
    result = psd_check_exact(gram)
    assert result == oracle_psd_check(gram)
    assert not result.psd and len(result.pivots) >= min_pivots
    value = quadratic_form(gram, result.witness)
    assert value.is_real and value.re < 0


def test_psd_check_zero_diagonal_after_two_pivots():
    # G = L K L* with K = diag(10, 6) + [[0, s], [conj s, 0]] and L unit lower
    # triangular: pivots 10 and 6 leave the Schur complement [[0, s], [conj s, 0]]
    s = grat(1, Fraction(1, 2))
    K = [[grat(10), ZERO, ZERO, ZERO], [ZERO, grat(6), ZERO, ZERO],
         [ZERO, ZERO, ZERO, s], [ZERO, ZERO, s.conjugate(), ZERO]]
    L = [[grat(1), ZERO, ZERO, ZERO],
         [grat(Fraction(1, 2)), grat(1), ZERO, ZERO],
         [grat(0, Fraction(1, 2)), grat(Fraction(1, 3)), grat(1), ZERO],
         [grat(Fraction(-1, 4)), grat(Fraction(1, 3), Fraction(-1, 3)), ZERO, grat(1)]]
    LK = [[sum((L[j][t] * K[t][k] for t in range(4)), ZERO) for k in range(4)]
          for j in range(4)]
    G = GramMatrix.from_rows(
        [[sum((LK[j][t] * L[k][t].conjugate() for t in range(4)), ZERO) for k in range(4)]
         for j in range(4)]
    )
    result = psd_check_exact(G)
    assert result == oracle_psd_check(G)
    assert not result.psd
    assert result.pivots == (Fraction(10), Fraction(6))
    assert quadratic_form(G, result.witness) == grat(-2 * s.norm2())


def test_psd_check_zero_diagonal_after_a_pivot():
    # the Schur complement after pivot 0 is [[0, s], [conj s, 0]], s = 1/3 + i/6;
    # the lcm of the denominators is 6 and the first integer pivot is 9
    G = GramMatrix.from_rows(
        [
            [Fraction(3, 2), Fraction(1, 2), grat(0, Fraction(-1, 2))],
            [Fraction(1, 2), Fraction(1, 6), Fraction(1, 3)],
            [grat(0, Fraction(1, 2)), Fraction(1, 3), Fraction(1, 6)],
        ]
    )
    result = psd_check_exact(G)
    assert result == oracle_psd_check(G)
    assert not result.psd
    assert result.pivots == (Fraction(3, 2),)
    s = grat(Fraction(1, 3), Fraction(1, 6))
    assert quadratic_form(G, result.witness) == grat(-2 * s.norm2())


def test_exact_quotient_refuses_a_remainder(monkeypatch):
    # Sylvester's identity makes every division exact, so a remainder is
    # forced by a divmod that reports one for every divisor but 1; the
    # second step divides by the first pivot, 3
    G = GramMatrix.from_rows([[3, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert psd_check_exact(G).psd
    monkeypatch.setattr(
        certificate, "divmod", lambda x, y: (x // y, int(y != 1)), raising=False
    )
    with pytest.raises(ArithmeticError, match="fraction-free step: 3 does not divide"):
        psd_check_exact(G)


# ------------------------------------------------------------------ expansion

def test_expand_gram_matches_target():
    poly = expand_gram(BLOCK_73, GRAM_73)
    assert poly == hurwitz_expand(7, 3)


def test_expand_gram_q_table():
    # rank-one squares: the expansion of |c|^2-weighted pair classes
    q100 = expand_gram(BLOCK_73, gram_from_vectors([(1, 0, 0)]))
    assert {str(c): v for c, v in q100.items()} == {"AABAABB": grat(1)}
    q011 = expand_gram(BLOCK_73, gram_from_vectors([(0, 1, 1)]))
    assert {str(c): v for c, v in q011.items()} == {
        "AAAABBB": grat(1),
        "AAABABB": grat(1),
        "AAABBAB": grat(1),
        "AABABAB": grat(1),
    }
    # 7 Q(1,0,0) + 7 Q(0,1,1) is the whole target
    total = TracePolynomial(7, {cls: 7 * v for cls, v in (q100 + q011).items()})
    assert total == hurwitz_expand(7, 3)


def test_expand_gram_linearity():
    G1 = gram_from_vectors([(1, 2, 0)])
    G2 = gram_from_vectors([(0, 1, -1)])
    lhs = expand_gram(BLOCK_73, add(G1, G2))
    rhs = expand_gram(BLOCK_73, G1) + expand_gram(BLOCK_73, G2)
    assert lhs == rhs
    e = expand_gram(BLOCK_73, G1)
    assert expand_gram(BLOCK_73, scaled(G1, 3)) == e + e + e


def oracle_expand_gram(block, gram):
    # the per-pair sum of Gaussian rationals that expand_gram replaced
    acc = {}
    for j in range(block.dimension):
        for k in range(block.dimension):
            key = oracle_pair_class(block, j, k)
            acc[key] = acc.get(key, grat(0)) + gram.at(j, k)
    return TracePolynomial(len(next(iter(acc))), acc)


# denominators up to 12, so the entries of one Gram mix denominators
mixed_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def blocks_with_grams(draw):
    block = draw(st.sampled_from(SEARCH_MIX_BLOCKS + (
        SandwichBlock("a", "b", ("AB", "BA")),
        SandwichBlock(None, "a", ("BAA", "ABA", "AAB")),
    )))
    return block, draw_hermitian(draw, block.dimension, mixed_fracs)


@given(blocks_with_grams())
def test_expand_gram_matches_per_pair_sum(block_gram):
    block, gram = block_gram
    assert expand_gram(block, gram) == oracle_expand_gram(block, gram)


def test_gram_integers_scale_by_the_lcm():
    G = GramMatrix.from_rows(
        [[Fraction(1, 2), grat(Fraction(1, 3), Fraction(-1, 4))],
         [grat(Fraction(1, 3), Fraction(1, 4)), 5]]
    )
    assert (G.scale, G.re, G.im) == (12, ((6, 4), (4, 60)), ((0, -3), (3, 0)))


def test_gram_is_held_in_lowest_terms():
    G = GramMatrix(2, [[14]], [[0]])
    assert G == GramMatrix.from_rows([[7]]) and hash(G) == hash(GramMatrix.from_rows([[7]]))
    assert (G.scale, G.re, G.im) == (1, ((7,),), ((0,),))
    # the gcd runs over the scale and every part, imaginary ones included
    H = GramMatrix(12, [[6, 4], [4, 60]], [[0, -3], [3, 0]])
    assert (H.scale, H.re, H.im) == (12, ((6, 4), (4, 60)), ((0, -3), (3, 0)))
    Z = GramMatrix(35, [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    assert (Z.scale, Z.re, Z.im) == (1, ((0, 0), (0, 0)), ((0, 0), (0, 0)))
    assert Z == zeros(2)


@st.composite
def mixed_hermitian_rows(draw):
    return draw_hermitian_rows(draw, draw(st.integers(min_value=1, max_value=4)), mixed_fracs)


@given(st.data())
def test_quadratic_form_matches_entrywise_oracle(data):
    # complex Hermitian Grams, complex vectors over mixed denominators; zero
    # entries come up often, and an all-zero vector now and then
    rows = data.draw(mixed_hermitian_rows())
    gram = GramMatrix.from_rows(rows)
    entry = st.one_of(st.just(ZERO), st.builds(GaussianRational, mixed_fracs, mixed_fracs))
    vector = data.draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    assert quadratic_form(gram, vector) == oracle_quadratic_form(gram, vector)


@given(mixed_hermitian_rows())
def test_gram_at_round_trips_its_rows(rows):
    G = GramMatrix.from_rows(rows)
    n = len(rows)
    assert G.dimension == n
    for j in range(n):
        for k in range(n):
            assert G.at(j, k) == GaussianRational.of(rows[j][k])
    assert GramMatrix(G.scale, G.re, G.im) == G


def _assert_parts_quads(gram):
    for j in range(gram.dimension):
        for k in range(gram.dimension):
            want = rational_quad(gram.at(j, k))
            assert _parts_quad(gram.re[j][k], gram.im[j][k], gram.scale) == want


@pytest.mark.parametrize("name", ["p7r0.json", "p7r1.json", "p7r2.json", "p7r3.json"])
def test_parts_quad_reads_the_bundled_grams(name):
    for _, gram in bundled_certificate(name).blocks:
        _assert_parts_quads(gram)


@given(mixed_hermitian_rows())
def test_parts_quad_is_the_quad_of_each_entry(rows):
    # mixed fractions give zero, negative and unreduced-over-the-scale parts
    _assert_parts_quads(GramMatrix.from_rows(rows))


@pytest.mark.parametrize("args, error, message", [
    ((0, [[1]], [[0]]), ValueError, "scale must be positive"),
    ((-1, [[1]], [[0]]), ValueError, "scale must be positive"),
    ((True, [[1]], [[0]]), TypeError, "scale must be an int"),
    ((1.5, [[1]], [[0]]), TypeError, "scale must be an int"),
    ((1, [[1.0]], [[0]]), TypeError, "Gram parts must be ints"),
    ((1, [[1]], [[False]]), TypeError, "Gram parts must be ints"),
    ((1, [[1, 0]], [[0, 0]]), ValueError, "must be square"),
    ((1, [[1, 0], [0, 1]], [[0]]), ValueError, "must be square"),
    ((1, [[1, 2], [3, 1]], [[0, 0], [0, 0]]), ValueError, r"not Hermitian at \(0, 1\)"),
    ((1, [[1, 0], [0, 1]], [[0, 0], [0, 1]]), ValueError, r"not Hermitian at \(1, 1\)"),
    ((1, [], []), ValueError, "must be nonempty"),
    ((np.int64(2), [[1]], [[0]]), TypeError, "scale must be an int"),
    ((1, np.array([[1]]), [[0]]), TypeError, "Gram parts must be ints"),
], ids=["scale-0", "scale-neg", "scale-bool", "scale-float", "float-part", "bool-part",
        "re-not-square", "im-other-size", "re-asymmetric", "im-diagonal", "empty",
        "numpy-scale", "numpy-part"])
def test_gram_constructor_rejects(args, error, message):
    with pytest.raises(error, match=message):
        GramMatrix(*args)


def test_expand_gram_dimension_mismatch():
    with pytest.raises(ValueError):
        expand_gram(BLOCK_73, scaled_identity(2, 1))


# ------------------------------------------------------------------ certificates

def test_certificate_structural_errors():
    with pytest.raises(CertificateStructureError):
        Certificate(0, 0, ((BLOCK_73, GRAM_73),))
    with pytest.raises(CertificateStructureError):
        Certificate(7, 8, ((BLOCK_73, GRAM_73),))
    with pytest.raises(CertificateStructureError):
        Certificate(7, 3, ())
    with pytest.raises(CertificateStructureError):
        Certificate(7, 3, ((BLOCK_73, scaled_identity(2, 1)),))
    with pytest.raises(AnsatzMismatchError):
        Certificate(7, 2, ((BLOCK_73, GRAM_73),))
    # a list pair is a pair, stored as a tuple
    assert Certificate(7, 3, [[BLOCK_73, GRAM_73]]).blocks == ((BLOCK_73, GRAM_73),)


@pytest.mark.parametrize(
    "entry",
    [
        (BLOCK_73,),
        (BLOCK_73, GRAM_73, GRAM_73),
        1,
        None,
        "ab",
        (GRAM_73, BLOCK_73),
        (BLOCK_73, [[1]]),
        ("b|AAB|", GRAM_73),
    ],
    ids=["1-tuple", "3-tuple", "int", "None", "str", "swapped", "rows", "block-name"],
)
def test_certificate_rejects_malformed_block_entries(entry):
    # every entry that is not a (SandwichBlock, GramMatrix) pair is named by index
    message = r"^block 1: expected \(SandwichBlock, GramMatrix\) pair$"
    with pytest.raises(CertificateStructureError, match=message):
        Certificate(7, 3, ((BLOCK_73, GRAM_73), entry))


def test_certificate_rejects_boolean_degrees():
    block = SandwichBlock(prefix=None, suffix=None, basis=("A",))
    with pytest.raises(CertificateStructureError, match="p must be"):
        Certificate(True, 1, ((block, scaled_identity(1, 1)),))
    with pytest.raises(CertificateStructureError, match="r must"):
        Certificate(2, True, ((block, scaled_identity(1, 1)),))


def test_verify_bundled_shape():
    cert = Certificate(7, 3, ((BLOCK_73, GRAM_73),))
    report = verify_certificate(cert)
    assert report.ok and report.matched and report.psd
    assert report.residual.is_zero
    assert report.witness is None


def test_verify_two_rank_one_blocks():
    # same identity split into two rank-one squares scaled by 7
    cert = Certificate(
        7,
        3,
        (
            (BLOCK_73, scaled(gram_from_vectors([(1, 0, 0)]), 7)),
            (BLOCK_73, scaled(gram_from_vectors([(0, 1, 1)]), 7)),
        ),
    )
    assert verify_certificate(cert).ok


def test_verify_diagonal_gram_residual_frozen():
    # scaled identity misses the off-diagonal classes; frozen residual
    cert = Certificate(7, 3, ((BLOCK_73, scaled_identity(3, 7)),))
    report = verify_certificate(cert)
    assert report.psd and not report.matched
    assert {str(c): v for c, v in report.residual.items()} == {
        "AAABABB": grat(-7),
        "AAABBAB": grat(-7),
    }


def test_verify_catches_non_psd():
    bad = GramMatrix.from_rows([[7, 0, 0], [0, -7, -7], [0, -7, -7]])
    cert = Certificate(7, 3, ((BLOCK_73, bad),))
    report = verify_certificate(cert)
    assert not report.psd and report.witness_block == 0
    value = quadratic_form(bad, report.witness)
    assert value.re < 0
    # the negative diagonal is seen before any pivot
    assert report.min_pivots == (None,)


def verify_json_min_pivots(path, capsys):
    """The "min_pivots" of the ``verify --format json`` document of ``path``."""
    main(["verify", "--cert", str(path), "--format", "json"])
    return json.loads(capsys.readouterr().out)["min_pivots"]


def test_verify_min_pivots_per_block_checked(tmp_path, capsys):
    report = verify_certificate(bundled_certificate("p7r3.json"))
    assert report.ok
    assert report.min_pivots == (Fraction(0),)
    assert verify_json_min_pivots(bundled_path("p7r3.json"), capsys) == [[0, 1]]
    # block 1 fails after two pivots of 7; block 2 is not checked
    bad = GramMatrix.from_rows([[7, 0, 0], [0, 7, 7], [0, 7, 1]])
    cert = Certificate(
        7,
        3,
        (
            (BLOCK_73, scaled_identity(3, Fraction(7, 2))),
            (BLOCK_73, bad),
            (BLOCK_73, GRAM_73),
        ),
    )
    report = verify_certificate(cert)
    assert not report.psd and report.witness_block == 1
    assert report.min_pivots == (Fraction(7, 2), Fraction(7))
    path = tmp_path / "bad.json"
    hs.save_certificate(cert, str(path))
    assert verify_json_min_pivots(path, capsys) == [[7, 2], [7, 1]]


def test_verify_against_zero_target():
    cert = Certificate(7, 3, ((BLOCK_73, zeros(3)),))
    report = verify_against(cert, TracePolynomial(7))
    assert report.ok
    with pytest.raises(ValueError):
        verify_against(cert, TracePolynomial(6))


def test_swap_certificate_round_trip():
    cert = Certificate(7, 3, ((BLOCK_73, GRAM_73),))
    swapped = swap_certificate(cert)
    assert swapped.r == 4
    block = swapped.blocks[0][0]
    assert block.prefix == "a" and block.basis == ("BBA", "BAB", "ABB")
    assert verify_certificate(swapped).ok
    assert swap_certificate(swapped).blocks[0][0] == BLOCK_73
    # expansion commutes with the letter swap
    assert certificate_expansion(swapped) == swap_letters(certificate_expansion(cert))


# ------------------------------------------------------------------ bundled data

BUNDLED = ["p7r0.json", "p7r1.json", "p7r2.json", "p7r3.json"]


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_certificates_verify(name):
    cert = bundled_certificate(name)
    assert verify_certificate(cert).ok
    swapped = swap_certificate(cert)
    assert verify_certificate(swapped).ok
    assert swapped.r == 7 - cert.r


def test_bundled_path_missing():
    with pytest.raises(FileNotFoundError):
        bundled_path("nope.json")


# ------------------------------------------------------------------ json

def test_certificate_json_round_trip(tmp_path):
    cert = bundled_certificate("p7r3.json")
    doc = certificate_to_json(cert)
    again = certificate_from_json(json.loads(json.dumps(doc)))
    assert again == cert
    path = tmp_path / "cert.json"
    hs.save_certificate(cert, str(path))
    assert hs.load_certificate(str(path)) == cert


def test_failed_save_leaves_the_old_file(tmp_path, monkeypatch):
    # json.dump writes part of the document, then the write fails
    path = tmp_path / "cert.json"
    path.write_text("old contents\n")

    def dump_half(doc, fh, **kwargs):
        fh.write(json.dumps(doc, **kwargs)[:100])
        fh.flush()
        raise OSError(27, "File too large")

    monkeypatch.setattr(json, "dump", dump_half)
    with pytest.raises(OSError, match="File too large"):
        hs.save_certificate(bundled_certificate("p7r3.json"), str(path))
    assert path.read_text() == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cert.json"]
    # with no file there before, a failed write leaves no file at all
    with pytest.raises(OSError, match="File too large"):
        hs.save_certificate(bundled_certificate("p7r3.json"), str(tmp_path / "new.json"))
    assert [p.name for p in tmp_path.iterdir()] == ["cert.json"]
    monkeypatch.undo()
    hs.save_certificate(bundled_certificate("p7r3.json"), str(path))
    assert hs.load_certificate(str(path)) == bundled_certificate("p7r3.json")
    assert [p.name for p in tmp_path.iterdir()] == ["cert.json"]


def test_save_gives_the_mode_open_would(tmp_path):
    cert = bundled_certificate("p7r3.json")
    umask = os.umask(0o027)
    try:
        hs.save_certificate(cert, str(tmp_path / "new.json"))
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "new.json").stat().st_mode) == 0o640
    # an existing file keeps its own mode, and a symlink is written through
    old = tmp_path / "old.json"
    old.write_text("{}")
    old.chmod(0o604)
    link = tmp_path / "link.json"
    link.symlink_to(old)
    hs.save_certificate(cert, str(link))
    assert link.is_symlink() and hs.load_certificate(str(old)) == cert
    assert stat.S_IMODE(old.stat().st_mode) == 0o604


def test_save_writes_a_fifo_in_place(tmp_path):
    # a FIFO (like a device) has no contents to keep: it is opened and
    # written, never replaced by a regular file
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDWR | os.O_NONBLOCK)
    try:
        cert = bundled_certificate("p7r0.json")
        hs.save_certificate(cert, str(fifo))
        text = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert certificate_from_json(json.loads(text)) == cert
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


def test_save_syncs_the_temporary_file_or_writes_in_place(tmp_path, monkeypatch):
    path = tmp_path / "cert.json"
    path.write_text("old contents\n")
    cert = bundled_certificate("p7r3.json")
    real_open, opened = os.open, []

    def spy(name, flags, mode=0o777, **kwargs):
        opened.append((name, flags, mode))
        return real_open(name, flags, mode, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    hs.save_certificate(cert, str(path))
    [(name, flags, mode)] = opened
    assert os.path.dirname(name) == str(tmp_path) and mode == 0o666
    assert flags & os.O_SYNC and flags & os.O_EXCL
    # a directory that admits no new file: the file is written in place
    path.write_text("old contents\n")

    def refuse(name, flags, mode=0o777, **kwargs):
        raise PermissionError(13, "Permission denied", name)

    monkeypatch.setattr(os, "open", refuse)
    hs.save_certificate(cert, str(path))
    monkeypatch.undo()
    assert hs.load_certificate(str(path)) == cert
    assert [p.name for p in tmp_path.iterdir()] == ["cert.json"]


def test_certificate_json_complex_entries(tmp_path):
    G = gram_from_vectors([(grat(1), grat(Fraction(1, 2), Fraction(-1, 3)))])
    block = SandwichBlock(prefix="b", suffix=None, basis=("AAB", "ABA"))
    cert = Certificate(7, 3, ((block, G),))
    path = tmp_path / "c.json"
    hs.save_certificate(cert, str(path))
    assert hs.load_certificate(str(path)) == cert


# (p, r, blocks that fit it): small certificates for the round trip
CERT_SHAPES = (
    (7, 3, (BLOCK_73, SandwichBlock("b", None, ("AAB", "ABA")),
            SandwichBlock(None, "b", ("BAA",)))),
    (6, 3, (SandwichBlock("a", "b", ("AB", "BA")),)),
    (9, 3, (SandwichBlock("b", None, CORE_4), SandwichBlock(None, "b", CORE_4))),
)


@st.composite
def small_certificates(draw):
    p, r, shapes = draw(st.sampled_from(CERT_SHAPES))
    chosen = draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=3))
    return Certificate(
        p, r, tuple((block, draw_hermitian(draw, block.dimension, mixed_fracs))
                    for block in chosen)
    )


@given(small_certificates())
def test_certificate_json_round_trip_property(cert):
    doc = json.loads(json.dumps(certificate_to_json(cert)))
    assert certificate_from_json(doc) == cert


@given(small_certificates(), st.data())
def test_certificate_json_reads_pairs_not_in_lowest_terms(cert, data):
    # each [num, den] pair times its own nonzero k, negative k included
    doc = certificate_to_json(cert)
    factors = st.integers(min_value=-12, max_value=12).filter(bool)
    for raw in doc["blocks"]:
        for cell in (cell for row in raw["gram"] for cell in row):
            for part in ("re", "im"):
                k = data.draw(factors)
                cell[part] = [x * k for x in cell[part]]
    again = certificate_from_json(json.loads(json.dumps(doc)))
    assert again == cert
    for raw, (_block, gram) in zip(doc["blocks"], again.blocks):
        rows = [[grat(Fraction(*cell["re"]), Fraction(*cell["im"])) for cell in row]
                for row in raw["gram"]]
        assert gram == GramMatrix.from_rows(rows)


@pytest.mark.parametrize(
    "cell, message",
    [
        ({"re": [1, 1]}, ": expected an object with re and im"),
        ({"re": [1, 0], "im": "x"}, ".re: zero denominator"),
        ({"re": [1], "im": [1, 0]}, ".re: expected [numerator, denominator]"),
        ({"re": [1, 1], "im": [True, 1]}, ".im: expected [numerator, denominator]"),
        ({"re": [1, 1], "im": [1, 0]}, ".im: zero denominator"),
    ],
)
def test_certificate_json_names_the_first_bad_part(cell, message):
    # re is checked whole before im, so a cell bad in both names re
    doc = certificate_to_json(bundled_certificate("p7r3.json"))
    doc["blocks"][0]["gram"][1][2] = cell
    with pytest.raises(CertificateFormatError) as info:
        certificate_from_json(doc)
    assert str(info.value) == "block 0[1][2]" + message


def test_certificate_json_accepts_tuple_pairs():
    doc = certificate_to_json(bundled_certificate("p7r3.json"))
    for cell in (cell for row in doc["blocks"][0]["gram"] for cell in row):
        cell["re"], cell["im"] = tuple(cell["re"]), tuple(cell["im"])
    assert certificate_from_json(doc) == bundled_certificate("p7r3.json")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("p"),
        lambda d: d.__setitem__("p", "7"),
        lambda d: d.__setitem__("blocks", []),
        lambda d: d["blocks"][0].pop("gram"),
        lambda d: d["blocks"][0].pop("basis"),
        lambda d: d["blocks"][0].__setitem__("prefix", "x"),
        lambda d: d["blocks"][0]["gram"][0].__setitem__(0, {"re": [1, 0], "im": [0, 1]}),
        lambda d: d["blocks"][0]["gram"][0].__setitem__(0, {"re": [1, 1]}),
        lambda d: d["blocks"][0]["gram"][0].__setitem__(0, 7),
        lambda d: d["blocks"][0]["basis"].__setitem__(0, "AXB"),
        lambda d: d.__setitem__("r", True),
    ],
)
def test_certificate_json_malformed(mutate):
    doc = certificate_to_json(bundled_certificate("p7r3.json"))
    mutate(doc)
    with pytest.raises(CertificateFormatError):
        certificate_from_json(doc)


def test_certificate_json_non_hermitian_gram():
    doc = certificate_to_json(bundled_certificate("p7r3.json"))
    doc["blocks"][0]["gram"][0][1] = {"re": [5, 1], "im": [0, 1]}
    with pytest.raises(CertificateFormatError):
        certificate_from_json(doc)


def test_certificate_json_shape_mismatch_is_format_error():
    doc = certificate_to_json(bundled_certificate("p7r3.json"))
    doc["r"] = 2
    with pytest.raises(CertificateFormatError):
        certificate_from_json(doc)


def test_ansatz_json():
    p, r, blocks = hs.load_ansatz(bundled_path("p6r3_restricted_ansatz.json"))
    assert (p, r) == (6, 3)
    assert blocks == (SandwichBlock(prefix="a", suffix="b", basis=("AB", "BA")),)
    with pytest.raises(CertificateFormatError):
        ansatz_from_json({"blocks": []})
    with pytest.raises(CertificateFormatError):
        ansatz_from_json({"blocks": [{"prefix": None, "suffix": None}]})
    with pytest.raises(CertificateFormatError):
        ansatz_from_json([1, 2])
    with pytest.raises(CertificateFormatError, match="^ansatz document missing key 'blocks'"):
        ansatz_from_json({"p": 6, "r": 3})
    p, r, blocks = ansatz_from_json(
        {"blocks": [{"prefix": None, "suffix": None, "basis": ["AB"]}]}
    )
    assert p is None and r is None and len(blocks) == 1


def test_truncated_file(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"p": 7, "r"')
    with pytest.raises(CertificateFormatError):
        hs.load_certificate(str(path))
