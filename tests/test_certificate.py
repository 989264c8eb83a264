import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hurwitz_sos as hs
from hurwitz_sos.certificate import (
    AnsatzMismatchError,
    Certificate,
    CertificateFormatError,
    CertificateStructureError,
    GramMatrix,
    SandwichBlock,
    ansatz_from_json,
    bundled_certificate,
    bundled_path,
    certificate_expansion,
    certificate_from_json,
    certificate_to_json,
    expand_gram,
    gram_from_vectors,
    psd_check_exact,
    quadratic_form,
    reduce_pair,
    swap_certificate,
    verify_against,
    verify_certificate,
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


@st.composite
def hermitian_grams(draw, max_n=3):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = [[None] * n for _ in range(n)]
    for j in range(n):
        rows[j][j] = GaussianRational(draw(small_fracs))
        for k in range(j + 1, n):
            x = draw(small_entries)
            rows[j][k] = x
            rows[k][j] = x.conjugate()
    return GramMatrix.from_rows(rows)


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
