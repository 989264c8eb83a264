from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hurwitz_sos.rational import ZERO, GaussianRational, grat, rational_quad


def test_construction_and_coercion():
    x = GaussianRational(Fraction(1, 2), Fraction(-3))
    assert x.re == Fraction(1, 2)
    assert x.im == -3
    assert GaussianRational.of(5) == GaussianRational(Fraction(5))
    assert GaussianRational.of(Fraction(2, 3)).re == Fraction(2, 3)
    y = GaussianRational.of(x)
    assert y is x
    # the shorthand is the class itself, not a second coercion
    assert grat is GaussianRational


def test_rejects_floats():
    with pytest.raises(TypeError):
        GaussianRational(0.5, Fraction(0))
    with pytest.raises(TypeError):
        GaussianRational.of(0.5)


def test_rejects_bools():
    # a bool is not an int here, as in every other int check of the package
    with pytest.raises(TypeError, match="got bool"):
        GaussianRational(True)
    with pytest.raises(TypeError, match="got bool"):
        GaussianRational.of(False)
    with pytest.raises(TypeError):
        grat(1) + True
    assert grat(1) != True and grat(0) != False


def test_predicates():
    assert ZERO.is_zero and ZERO.is_real
    assert grat(1).is_real and not grat(1).is_zero
    assert not grat(0, 1).is_real
    assert bool(grat(0, 1)) and not bool(ZERO)


def test_arithmetic_against_complex():
    # float complex arithmetic is the sanity oracle on exact-dyadic inputs
    a = grat(Fraction(3, 4), Fraction(-1, 2))
    b = grat(Fraction(-2), Fraction(5, 8))
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        exact = getattr(a, op)(b)
        approx = getattr(complex(a), op)(complex(b))
        assert complex(exact) == pytest.approx(approx)


def test_division_exact():
    a = grat(1, 1)
    b = grat(1, -1)
    assert a / b == grat(0, 1)
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / ZERO


def test_int_interop():
    a = grat(Fraction(1, 3), 2)
    assert a + 1 == grat(Fraction(4, 3), 2)
    assert 1 + a == a + 1
    assert 2 * a == a + a
    assert 1 - a == -(a - 1)
    assert a / 2 == grat(Fraction(1, 6), 1)
    assert a == a and a != grat(0)
    assert grat(7) == 7 and grat(7, 1) != 7


def test_conjugate_and_norm():
    a = grat(Fraction(2, 3), Fraction(-5, 7))
    assert a.conjugate().im == Fraction(5, 7)
    assert a * a.conjugate() == GaussianRational(a.norm2())
    assert a.norm2() == Fraction(4, 9) + Fraction(25, 49)


def test_rational_quad_and_str():
    assert rational_quad(grat(Fraction(1, 2), Fraction(-3, 4))) == [1, 2, -3, 4]
    assert rational_quad(grat(-6)) == [-6, 1, 0, 1]
    assert str(grat(7)) == "7"
    assert str(grat(0, Fraction(1, 2))) == "1/2i"
    assert str(grat(1, -2)) == "1-2i"
    assert str(grat(1, 2)) == "1+2i"


def test_hashable_key():
    d = {grat(1, 2): "x"}
    assert d[grat(1, 2)] == "x"


@pytest.mark.parametrize("x", [0, 1, -7, 10**30, Fraction(1, 3), Fraction(-22, 7)])
def test_real_value_hashes_like_its_int_or_fraction(x):
    z = GaussianRational.of(x)
    assert z == x and hash(z) == hash(x)
    assert len({z, x}) == 1
    assert {x: "x"}[z] == "x" and {z: "z"}[x] == "z"
    assert x in {z} and z in {x}


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)


@given(gaussians, gaussians, gaussians)
def test_field_identities(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    if not b.is_zero:
        assert (a / b) * b == a


@given(gaussians)
def test_norm_is_nonnegative(a):
    assert a.norm2() >= 0
    assert (a.norm2() == 0) == a.is_zero
