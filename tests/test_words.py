import copy
import pickle
from fractions import Fraction
from itertools import product
from math import comb, gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hurwitz_sos.certificate import GramMatrix, SandwichBlock, expand_gram
from hurwitz_sos.rational import grat
from hurwitz_sos.words import (
    CyclicClass,
    TracePolynomial,
    check_word,
    hurwitz_expand,
    is_int,
    reverse_class,
    swap_word,
)

from oracles import oracle_least_rotation, swap_letters

words = st.text(alphabet="AB", min_size=1, max_size=12)


def oracle_class_count(p: int, r: int) -> int:
    # Burnside count of binary necklaces with exactly r B's
    def phi(n: int) -> int:
        return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)

    g = gcd(p, r) if r else p
    total = sum(
        phi(d) * comb(p // d, r // d) for d in range(1, g + 1) if g % d == 0
    )
    assert total % p == 0
    return total // p


def test_is_int_excludes_bool():
    assert is_int(0) and is_int(-3) and is_int(10**30)
    for value in (True, False, 1.0, "1", None, Fraction(1)):
        assert not is_int(value)


def test_check_word_validation():
    assert check_word("ABBA") == "ABBA"
    with pytest.raises(ValueError):
        check_word("")
    with pytest.raises(ValueError):
        check_word("ABC")
    with pytest.raises(TypeError):
        check_word(7)


def test_least_rotation_frozen():
    assert CyclicClass("BBA") == "ABB"
    assert CyclicClass("AABBAAB") == "AABAABB"
    assert CyclicClass("BABABA") == "ABABAB"
    assert CyclicClass("A") == "A"
    assert CyclicClass("BBBB") == "BBBB"


@given(words)
def test_least_rotation_matches_oracle(word):
    assert CyclicClass(word) == oracle_least_rotation(word)


@given(words, st.integers(min_value=0, max_value=11))
def test_rotation_invariance(word, k):
    k %= len(word)
    rotated = word[k:] + word[:k]
    assert CyclicClass(rotated) == CyclicClass(word)


def test_cyclic_class_fields():
    cls = CyclicClass("BAB")
    assert str(cls) == "ABB"
    assert len(cls) == 3
    assert cls.count("B") == 2
    assert str(cls) == "ABB"
    assert CyclicClass("ABB") == cls
    assert str(sorted([CyclicClass("B"), CyclicClass("A")])[0]) == "A"


def test_class_is_its_least_rotation_string():
    cls = CyclicClass("BAB")
    assert isinstance(cls, str) and type(cls) is CyclicClass
    assert cls == "ABB" and hash(cls) == hash("ABB")
    assert cls != "BAB"
    assert {"ABB": 1}[cls] == 1 and {cls: 1}["ABB"] == 1
    assert CyclicClass(cls) is cls
    spellings = ["BBA", "AB", "BAAB", "A", "BA", "ABAB", "B", "AAB"]
    classes = [CyclicClass(w) for w in spellings]
    assert [str(c) for c in sorted(classes)] == sorted(str(c) for c in classes)
    for copied in (
        pickle.loads(pickle.dumps(cls)),
        pickle.loads(pickle.dumps(cls, protocol=0)),
        copy.copy(cls),
        copy.deepcopy(cls),
    ):
        assert type(copied) is CyclicClass and copied == cls
    with pytest.raises(TypeError):
        CyclicClass(7)
    with pytest.raises(ValueError):
        CyclicClass("")
    with pytest.raises(ValueError):
        CyclicClass("AC")


def test_reverse_and_swap_words():
    assert swap_word("AAB") == "BBA"
    assert reverse_class("AAB") == CyclicClass("BAA")


@given(words)
def test_reverse_class_is_involution(word):
    cls = CyclicClass(word)
    assert reverse_class(reverse_class(cls)) == cls


def test_trace_polynomial_basics():
    poly = TracePolynomial(2, {"AB": 1, "BA": 2, "AA": Fraction(1, 2)})
    # AB and BA share a class, coefficients accumulate
    assert poly.coefficient("BA") == grat(3)
    assert poly.coefficient("AA") == grat(Fraction(1, 2))
    assert poly.coefficient("BB").is_zero
    assert len(poly) == 2
    assert poly.support() == (CyclicClass("AA"), CyclicClass("AB"))
    assert [str(c) for c, _ in poly.items()] == ["AA", "AB"]


def test_trace_polynomial_prunes_zeros():
    poly = TracePolynomial(2, {"AB": 1, "BA": -1})
    assert poly.is_zero
    assert len(poly) == 0
    assert poly == TracePolynomial(2)


def test_trace_polynomial_validation():
    with pytest.raises(ValueError):
        TracePolynomial(0)
    with pytest.raises(ValueError):
        TracePolynomial(3, {"AB": 1})
    with pytest.raises(ValueError):
        TracePolynomial(2, {"AB": 1}) + TracePolynomial(3)
    # a polynomial adds and subtracts only polynomials, and equals no scalar
    poly = TracePolynomial(2, {"AB": 1})
    for other in (1, grat(1), "AB", None):
        with pytest.raises(TypeError):
            poly + other
        with pytest.raises(TypeError):
            poly - other
        with pytest.raises(TypeError):
            other - poly
        assert poly != other


def test_trace_polynomial_rejects_boolean_degree():
    with pytest.raises(ValueError, match="degree must be"):
        TracePolynomial(True, {"A": 1})


def test_trace_polynomial_repr():
    poly = TracePolynomial(3, {"ABA": grat(1, 2), "ABB": Fraction(-3, 4)})
    assert repr(poly) == "TracePolynomial(3, {AAB: 1+2i, ABB: -3/4})"
    assert repr(TracePolynomial(1)) == "TracePolynomial(1, {})"


def test_trace_polynomial_arithmetic():
    a = TracePolynomial(2, {"AB": 2, "AA": 1})
    b = TracePolynomial(2, {"AB": -2, "BB": 5})
    total = a + b
    assert total.coefficient("AB").is_zero
    assert total.coefficient("AA") == grat(1)
    assert total.coefficient("BB") == grat(5)
    assert a - a == TracePolynomial(2)
    assert -a == TracePolynomial(2, {"AB": -2, "AA": -1})


small_coeffs = st.builds(
    grat,
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
    st.fractions(min_value=-1, max_value=1, max_denominator=2),
)
length_4_terms = st.dictionaries(
    st.text(alphabet="AB", min_size=4, max_size=4), small_coeffs, max_size=6
)


def rebuilt(pairs):
    """The checked constructor's polynomial for (class or word, value) pairs."""
    acc = {}
    for key, value in pairs:
        word = oracle_least_rotation(str(key))
        acc[word] = acc.get(word, grat(0)) + value
    return TracePolynomial(4, acc)


@given(length_4_terms, length_4_terms)
def test_trace_polynomial_arithmetic_matches_checked_constructor(a_terms, b_terms):
    # + and - build their results unchecked; equality with the
    # checked constructor, whose form is normal, also rules out a kept
    # zero or a common factor left in the scale
    a, b = TracePolynomial(4, a_terms), TracePolynomial(4, b_terms)
    assert a == rebuilt(a_terms.items())
    assert a + b == rebuilt(list(a.items()) + list(b.items()))
    assert a - b == rebuilt(list(a.items()) + [(c, -v) for c, v in b.items()])
    assert -a == rebuilt((c, -v) for c, v in a.items())
    total = a + b
    assert total - b == a and hash(total - b) == hash(a)


def summed_by_hand(terms):
    """Each class's coefficient as the plain sum of its terms, zero sums dropped."""
    acc = {}
    for word, value in terms.items():
        cls = oracle_least_rotation(word)
        acc[cls] = acc.get(cls, grat(0)) + value
    return {cls: value for cls, value in acc.items() if value}


complex_coeffs = st.builds(
    grat,
    st.fractions(min_value=-9, max_value=9, max_denominator=30),
    st.fractions(min_value=-9, max_value=9, max_denominator=30).filter(bool),
)
length_5_terms = st.dictionaries(
    st.text(alphabet="AB", min_size=5, max_size=5), complex_coeffs, max_size=8
)


@given(length_5_terms, length_5_terms)
@example(
    {"AABAB": grat(Fraction(1, 6), Fraction(-5, 4)), "BBBBA": grat(2, Fraction(1, 3))},
    {"BABAA": grat(Fraction(1, 6), Fraction(3, 10)), "AAAAA": grat(0, Fraction(-7, 9))},
)
def test_negation_and_difference_class_by_class(p_terms, q_terms):
    # unary minus flips the signs of the integer parts; every coefficient,
    # real and imaginary part, must come out as the by-hand sum says, with
    # the two polynomials over different scales
    p, q = TracePolynomial(5, p_terms), TracePolynomial(5, q_terms)
    hand_p, hand_q = summed_by_hand(p_terms), summed_by_hand(q_terms)
    zero = grat(0)
    want_neg = {cls: -value for cls, value in hand_p.items()}
    want_diff = {
        cls: hand_p.get(cls, zero) - hand_q.get(cls, zero) for cls in {*hand_p, *hand_q}
    }
    neg, diff = -p, p - q
    assert {str(c): v for c, v in neg.items()} == want_neg
    assert {str(c): v for c, v in diff.items()} == {c: v for c, v in want_diff.items() if v}
    for cls in {*hand_p, *hand_q}:
        assert neg.coefficient(cls) == -p.coefficient(cls)
        assert diff.coefficient(cls) == p.coefficient(cls) - q.coefficient(cls)
    # still in normal form: equal to, and hashed like, the checked constructor's
    checked = TracePolynomial(5, want_neg)
    assert neg == checked and hash(neg) == hash(checked)
    assert -neg == p and diff + q == p


def test_trace_polynomial_normal_form():
    # equal coefficients written over different denominators and words
    a = TracePolynomial(2, {"AB": Fraction(2, 4)})
    b = TracePolynomial(2, {"BA": Fraction(1, 2)})
    assert a == b and hash(a) == hash(b)
    # scale 4 stays after the Gram's own reduction, but both class sums
    # are even: AABB gets G00 + G11 = 1 and ABAB gets G01 + G10 = 1/2
    block = SandwichBlock(None, None, ("AB", "BA"))
    gram = GramMatrix(4, [[1, 1], [1, 3]], [[0, 1], [-1, 0]])
    assert gram.scale == 4
    expanded = expand_gram(block, gram)
    checked = TracePolynomial(4, {"AABB": 1, "ABAB": Fraction(1, 2)})
    assert expanded == checked and hash(expanded) == hash(checked)


def test_trace_polynomial_total():
    assert hurwitz_expand(7, 3).total() == grat(comb(7, 3))


def folded_total(poly):
    """The sum of the coefficients as a plain GaussianRational fold."""
    out = grat(0)
    for _cls, value in poly.items():
        out = out + value
    return out


mixed_coeffs = st.builds(
    grat,
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
)


@given(st.dictionaries(st.text(alphabet="AB", min_size=7, max_size=7), mixed_coeffs))
@example({})
@example({
    "AAAABBB": grat(Fraction(1, 3), Fraction(-2, 7)),
    "AAABABB": grat(Fraction(5, 6), Fraction(1, 14)),
    "AABABAB": grat(-2, Fraction(3, 4)),
    "AAABBAB": grat(Fraction(7, 10)),
})
def test_trace_polynomial_total_matches_a_fold(terms):
    """Mixed denominators and imaginary parts, and the empty polynomial."""
    poly = TracePolynomial(7, terms)
    assert poly.total() == folded_total(poly)


def test_hurwitz_expand_frozen_p7r3():
    poly = hurwitz_expand(7, 3)
    assert {str(c): v for c, v in poly.items()} == {
        "AAAABBB": grat(7),
        "AAABABB": grat(7),
        "AAABBAB": grat(7),
        "AABAABB": grat(7),
        "AABABAB": grat(7),
    }


def test_hurwitz_expand_frozen_p6r3():
    poly = hurwitz_expand(6, 3)
    assert {str(c): v for c, v in poly.items()} == {
        "AAABBB": grat(6),
        "AABABB": grat(6),
        "AABBAB": grat(6),
        "ABABAB": grat(2),
    }


def test_hurwitz_expand_edges():
    assert {str(c): v for c, v in hurwitz_expand(1, 0).items()} == {"A": grat(1)}
    assert {str(c): v for c, v in hurwitz_expand(1, 1).items()} == {"B": grat(1)}
    assert {str(c): v for c, v in hurwitz_expand(4, 0).items()} == {"AAAA": grat(1)}
    with pytest.raises(ValueError):
        hurwitz_expand(0, 0)
    with pytest.raises(ValueError):
        hurwitz_expand(3, 4)
    with pytest.raises(ValueError):
        hurwitz_expand(3, -1)


def test_hurwitz_expand_rejects_booleans():
    with pytest.raises(ValueError, match="p must be"):
        hurwitz_expand(True, 0)
    with pytest.raises(ValueError, match="r must"):
        hurwitz_expand(3, True)


@pytest.mark.parametrize("p", range(1, 10))
def test_hurwitz_expand_invariants(p):
    for r in range(p + 1):
        poly = hurwitz_expand(p, r)
        # total multiplicity is the binomial coefficient
        assert poly.total() == grat(comb(p, r))
        # number of classes matches the Burnside necklace count
        assert len(poly) == oracle_class_count(p, r)
        for cls, value in poly.items():
            assert cls.count("B") == r
            assert len(cls) == p
            assert value.is_real and value.re > 0
            # reversal symmetry class by class
            assert poly.coefficient(reverse_class(cls)) == value


def test_hurwitz_expand_against_direct_enumeration():
    # independent oracle: walk every word of length p and bucket it
    for p in range(1, 13):
        buckets = [{} for _ in range(p + 1)]
        for letters in product("AB", repeat=p):
            word = "".join(letters)
            bucket = buckets[word.count("B")]
            key = oracle_least_rotation(word)
            bucket[key] = bucket.get(key, 0) + 1
        for r in range(p + 1):
            poly = hurwitz_expand(p, r)
            assert {str(c): v for c, v in poly.items()} == {
                k: grat(v) for k, v in buckets[r].items()
            }, (p, r)


def test_hurwitz_expand_emits_least_rotations():
    # the necklaces become classes without a rotation or a check: each
    # must be its own least rotation, of the type the checked path builds
    for p in range(1, 21):
        for r in range(p + 1):
            for cls in hurwitz_expand(p, r).support():
                assert str(cls) == oracle_least_rotation(str(cls))
                assert type(cls) is CyclicClass and cls == CyclicClass(str(cls))


def test_hurwitz_expand_long_word_is_not_recursive():
    # one class per rotation orbit: A^1199 B has 1200 distinct rotations
    poly = hurwitz_expand(1200, 1)
    assert {str(c): v for c, v in poly.items()} == {"A" * 1199 + "B": grat(1200)}


def test_hurwitz_expand_p20r10_at_scale():
    poly = hurwitz_expand(20, 10)
    assert len(poly) == 9252 == oracle_class_count(20, 10)
    assert poly.total() == grat(comb(20, 10))


@pytest.mark.parametrize("p", range(13, 25))
def test_hurwitz_expand_counts_past_the_brute_force_range(p):
    # beyond the direct enumeration: class count and total multiplicity
    for r in range(p + 1):
        poly = hurwitz_expand(p, r)
        assert len(poly) == oracle_class_count(p, r), (p, r)
        assert poly.total() == grat(comb(p, r)), (p, r)


@pytest.mark.parametrize("r", [2, 1199, 1200])
def test_hurwitz_expand_long_word_edges(r):
    # r = 2: the last run alone decides each leaf; r = 1199: a walk of depth
    # 1198 with one A to place; r = 1200: no A at all, a walk of depth 1199
    poly = hurwitz_expand(1200, r)
    assert len(poly) == oracle_class_count(1200, r)
    assert poly.total() == grat(comb(1200, r))


def test_swap_letters_frozen():
    poly = swap_letters(hurwitz_expand(6, 2))
    assert poly == hurwitz_expand(6, 4)


@pytest.mark.parametrize("p", range(1, 9))
def test_swap_letters_symmetry(p):
    for r in range(p + 1):
        assert swap_letters(hurwitz_expand(p, r)) == hurwitz_expand(p, p - r)


def test_swap_letters_is_involution():
    poly = TracePolynomial(3, {"AAB": grat(1, 2), "ABB": 3})
    assert swap_letters(swap_letters(poly)) == poly
