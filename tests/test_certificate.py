import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hurwitz_sos as hs
from hurwitz_sos import certificate
from hurwitz_sos.certificate import (
    AnsatzMismatchError,
    Certificate,
    CertificateFormatError,
    CertificateStructureError,
    GramMatrix,
    PsdCheckResult,
    SandwichBlock,
    _gram_integers,
    ansatz_from_json,
    bundled_certificate,
    bundled_path,
    certificate_expansion,
    certificate_from_json,
    certificate_to_json,
    expand_gram,
    gram_from_vectors,
    pair_classes,
    psd_check_exact,
    quadratic_form,
    reduce_pair,
    swap_certificate,
    verify_against,
    verify_certificate,
    verify_report_to_json,
)
from hurwitz_sos.rational import GaussianRational, grat
from hurwitz_sos.words import CyclicClass, TracePolynomial, hurwitz_expand, swap_letters

BLOCK_73 = SandwichBlock(prefix="b", suffix=None, basis=("AAB", "ABA", "BAA"))
GRAM_73 = GramMatrix.from_rows([[7, 0, 0], [0, 7, 7], [0, 7, 7]])


def oracle_least_rotation(word):
    return sorted(word[i:] + word[:i] for i in range(len(word)))[0]


def oracle_pair_class(block, j, k):
    # independent reduction: concatenate the strings by hand
    word = block.basis[j]
    if block.suffix:
        word += block.suffix.upper()
    word += block.basis[k][::-1]
    if block.prefix:
        word += block.prefix.upper()
    return oracle_least_rotation(word)


def words_with(length, b_count):
    """All words of ``length`` letters with ``b_count`` B's."""
    return tuple(
        "".join("B" if i in pos else "A" for i in range(length))
        for pos in combinations(range(length), b_count)
    )


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


def test_block_shape_accounting():
    assert BLOCK_73.dimension == 3
    assert BLOCK_73.core_length == 3
    assert BLOCK_73.product_degree == 7
    assert BLOCK_73.product_b_count("AAB") == 3
    BLOCK_73.check_shape(7, 3)
    with pytest.raises(AnsatzMismatchError):
        BLOCK_73.check_shape(6, 3)
    with pytest.raises(AnsatzMismatchError):
        BLOCK_73.check_shape(7, 2)
    both = SandwichBlock(prefix="a", suffix="b", basis=("AB", "BA"))
    assert both.product_degree == 6
    assert both.product_b_count("AB") == 3
    both.check_shape(6, 3)


def test_reduce_pair_frozen_three_word_block():
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
    for (j, k), rep in expected.items():
        cls = reduce_pair(BLOCK_73, j, k)
        assert cls.representative == rep
        assert cls.representative == oracle_pair_class(BLOCK_73, j, k)


def test_reduce_pair_suffix_and_both_sides():
    block = SandwichBlock(prefix=None, suffix="a", basis=("BAA", "ABA", "AAB"))
    for j in range(3):
        for k in range(3):
            assert (
                reduce_pair(block, j, k).representative
                == oracle_pair_class(block, j, k)
            )
    both = SandwichBlock(prefix="a", suffix="b", basis=("AB", "BA"))
    assert reduce_pair(both, 0, 0).representative == "AAABBB"
    assert reduce_pair(both, 0, 1).representative == "AABBAB"
    assert reduce_pair(both, 1, 0).representative == "AABABB"
    assert reduce_pair(both, 1, 1).representative == "ABABAB"
    with pytest.raises(IndexError):
        reduce_pair(both, 0, 2)


def test_pair_classes_match_reduce_pair():
    # the table takes unchecked least rotations; every entry must equal
    # the checked reduce_pair and the by-hand oracle, fields included
    _p, _r, p6_blocks = hs.load_ansatz(bundled_path("p6r3_restricted_ansatz.json"))
    blocks = list(SEARCH_MIX_BLOCKS + p6_blocks)
    for name in ("p7r0.json", "p7r1.json", "p7r2.json", "p7r3.json"):
        cert = bundled_certificate(name)
        for c in (cert, swap_certificate(cert)):
            blocks.extend(block for block, _gram in c.blocks)
    for block in blocks:
        table = pair_classes(block)
        d = block.dimension
        assert len(table) == d and all(len(row) == d for row in table)
        for j in range(d):
            for k in range(d):
                cls = table[j][k]
                assert cls == reduce_pair(block, j, k)
                assert cls.representative == oracle_pair_class(block, j, k)
                assert vars(cls) == vars(CyclicClass(cls.representative))


def test_reduce_pair_transpose_is_reversal():
    # class(k, j) is the reversal class of class(j, k)
    from hurwitz_sos.words import reverse_class

    for block in (
        BLOCK_73,
        SandwichBlock(prefix="a", suffix="b", basis=("AB", "BA")),
        SandwichBlock(prefix=None, suffix="a", basis=("BAA", "AAB")),
    ):
        for j in range(block.dimension):
            for k in range(block.dimension):
                assert reduce_pair(block, k, j) == reverse_class(
                    reduce_pair(block, j, k)
                )


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
    G = GramMatrix.scaled_identity(3, 7)
    assert G.at(0, 0) == grat(7) and G.at(0, 1).is_zero
    Z = GramMatrix.zeros(2)
    assert all(Z.at(j, k).is_zero for j in range(2) for k in range(2))
    S = G.scaled(Fraction(1, 7))
    assert S.at(2, 2) == grat(1)
    assert (Z + Z).dimension == 2
    with pytest.raises(ValueError):
        G.scaled(grat(0, 1))


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
    with pytest.raises(ValueError):
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


def draw_hermitian(draw, n, fracs=small_fracs):
    """An n x n Hermitian Gram whose parts are drawn from ``fracs``."""
    rows = [[None] * n for _ in range(n)]
    for j in range(n):
        rows[j][j] = GaussianRational(draw(fracs))
        for k in range(j + 1, n):
            x = GaussianRational(draw(fracs), draw(fracs))
            rows[j][k] = x
            rows[k][j] = x.conjugate()
    return GramMatrix.from_rows(rows)


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
        gram = gram + gram_from_vectors([w]).scaled(-c)
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
    gram = gram_from_vectors(vectors).scaled(Fraction(1, 3))
    result = psd_check_exact(gram)
    assert result == oracle_psd_check(gram)
    assert result.psd and len(result.pivots) == 20
    assert sum(1 for x in result.pivots if x == 0) == 4


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
    total = q100.scaled(7) + q011.scaled(7)
    assert total == hurwitz_expand(7, 3)


def test_expand_gram_linearity():
    G1 = gram_from_vectors([(1, 2, 0)])
    G2 = gram_from_vectors([(0, 1, -1)])
    lhs = expand_gram(BLOCK_73, G1 + G2)
    rhs = expand_gram(BLOCK_73, G1) + expand_gram(BLOCK_73, G2)
    assert lhs == rhs
    assert expand_gram(BLOCK_73, G1.scaled(3)) == expand_gram(
        BLOCK_73, G1
    ).scaled(3)


def oracle_expand_gram(block, gram):
    # the per-pair sum of Gaussian rationals that expand_gram replaced
    acc = {}
    for j in range(block.dimension):
        for k in range(block.dimension):
            key = oracle_pair_class(block, j, k)
            acc[key] = acc.get(key, grat(0)) + gram.at(j, k)
    return TracePolynomial(block.product_degree, acc)


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
    assert _gram_integers(G) == (12, [[6, 4], [4, 60]], [[0, -3], [3, 0]])


def test_expand_gram_dimension_mismatch():
    with pytest.raises(ValueError):
        expand_gram(BLOCK_73, GramMatrix.scaled_identity(2, 1))


# ------------------------------------------------------------------ certificates

def test_certificate_structural_errors():
    with pytest.raises(CertificateStructureError):
        Certificate(0, 0, ((BLOCK_73, GRAM_73),))
    with pytest.raises(CertificateStructureError):
        Certificate(7, 8, ((BLOCK_73, GRAM_73),))
    with pytest.raises(CertificateStructureError):
        Certificate(7, 3, ())
    with pytest.raises(CertificateStructureError):
        Certificate(7, 3, ((BLOCK_73, GramMatrix.scaled_identity(2, 1)),))
    with pytest.raises(AnsatzMismatchError):
        Certificate(7, 2, ((BLOCK_73, GRAM_73),))


def test_certificate_rejects_boolean_degrees():
    block = SandwichBlock(prefix=None, suffix=None, basis=("A",))
    with pytest.raises(CertificateStructureError, match="p must be"):
        Certificate(True, 1, ((block, GramMatrix.scaled_identity(1, 1)),))
    with pytest.raises(CertificateStructureError, match="r must"):
        Certificate(2, True, ((block, GramMatrix.scaled_identity(1, 1)),))


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
            (BLOCK_73, gram_from_vectors([(1, 0, 0)]).scaled(7)),
            (BLOCK_73, gram_from_vectors([(0, 1, 1)]).scaled(7)),
        ),
    )
    assert verify_certificate(cert).ok


def test_verify_diagonal_gram_residual_frozen():
    # scaled identity misses the off-diagonal classes; frozen residual
    cert = Certificate(7, 3, ((BLOCK_73, GramMatrix.scaled_identity(3, 7)),))
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


def test_verify_min_pivots_per_block_checked():
    report = verify_certificate(bundled_certificate("p7r3.json"))
    assert report.ok
    assert report.min_pivots == (Fraction(0),)
    assert verify_report_to_json(report)["min_pivots"] == [[0, 1]]
    # block 1 fails after two pivots of 7; block 2 is not checked
    bad = GramMatrix.from_rows([[7, 0, 0], [0, 7, 7], [0, 7, 1]])
    cert = Certificate(
        7,
        3,
        (
            (BLOCK_73, GramMatrix.scaled_identity(3, Fraction(7, 2))),
            (BLOCK_73, bad),
            (BLOCK_73, GRAM_73),
        ),
    )
    report = verify_certificate(cert)
    assert not report.psd and report.witness_block == 1
    assert report.min_pivots == (Fraction(7, 2), Fraction(7))
    assert verify_report_to_json(report)["min_pivots"] == [[7, 2], [7, 1]]


def test_verify_against_zero_target():
    cert = Certificate(7, 3, ((BLOCK_73, GramMatrix.zeros(3)),))
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
    p, r, blocks = ansatz_from_json(
        {"blocks": [{"prefix": None, "suffix": None, "basis": ["AB"]}]}
    )
    assert p is None and r is None and len(blocks) == 1


def test_truncated_file(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"p": 7, "r"')
    with pytest.raises(CertificateFormatError):
        hs.load_certificate(str(path))
