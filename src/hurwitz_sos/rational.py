"""Exact complex rational scalars (Gaussian rationals).

The exact layer computes on integers: a Gram matrix and a trace
polynomial hold int real and imaginary parts over one positive scale, so
matching a target expansion and checking positive semidefiniteness are
exact statements, not floating-point ones.  A ``GaussianRational`` is how
an exact value is written in and read out.  The codec is here:
``_over_lcm`` lifts ``rational_quad`` forms, with any nonzero
denominators, over one scale; ``_ratio`` reads parts out as a
``GaussianRational``, and ``_parts_quad`` as the ``rational_quad`` form
that files hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence, Tuple, Union

Rationalish = Union[int, Fraction]
Scalarish = Union[int, Fraction, "GaussianRational"]


def is_int(value: object) -> bool:
    """Whether ``value`` is an int and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _frac(value: Rationalish) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if is_int(value):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True)
class GaussianRational:
    """A complex number ``re + im*i`` with exact rational parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    @classmethod
    def of(cls, value: Scalarish) -> "GaussianRational":
        """Coerce an int, Fraction, or GaussianRational."""
        if isinstance(value, GaussianRational):
            return value
        return cls(_frac(value))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        """Squared modulus re**2 + im**2, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __add__(self, other: Scalarish) -> "GaussianRational":
        other = GaussianRational.of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: Scalarish) -> "GaussianRational":
        other = GaussianRational.of(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: Scalarish) -> "GaussianRational":
        return GaussianRational.of(other) - self

    def __mul__(self, other: Scalarish) -> "GaussianRational":
        other = GaussianRational.of(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Scalarish) -> "GaussianRational":
        other = GaussianRational.of(other)
        denom = other.norm2()
        if denom == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        conj = other.conjugate()
        return GaussianRational(
            (self.re * conj.re - self.im * conj.im) / denom,
            (self.re * conj.im + self.im * conj.re) / denom,
        )

    def __rtruediv__(self, other: Scalarish) -> "GaussianRational":
        return GaussianRational.of(other) / self

    def __eq__(self, other: object) -> bool:
        try:
            other = GaussianRational.of(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        # a real value equals, so must hash like, its int or Fraction
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


ZERO = GaussianRational()


# shorthand: the constructor coerces both parts itself
grat = GaussianRational


def rational_quad(value: GaussianRational) -> List[int]:
    """[re_num, re_den, im_num, im_den] in lowest terms, as files and reports write it."""
    re, im = value.re, value.im
    return [re.numerator, re.denominator, im.numerator, im.denominator]


def _over_lcm(quads: Sequence[Sequence[int]]) -> Tuple[int, List[Tuple[int, int]]]:
    """L, the lcm of the denominators of ``quads``, and L times each value as int parts.

    A denominator is any nonzero int: L is positive and L // den carries its sign."""
    scale = lcm(*(q[1] for q in quads), *(q[3] for q in quads))
    return scale, [(a * (scale // b), c * (scale // d)) for a, b, c, d in quads]


def _ratio(x: int, y: int, scale: int) -> GaussianRational:
    """The value (x + i y) / scale of int parts over a nonzero int scale."""
    return GaussianRational(Fraction(x, scale), Fraction(y, scale))


def _parts_quad(x: int, y: int, scale: int) -> List[int]:
    """``rational_quad`` of (x + i y) / scale for int parts over a positive
    scale, reduced with one gcd per part and no ``GaussianRational``."""
    g, h = gcd(x, scale), gcd(y, scale)
    return [x // g, scale // g, y // h, scale // h]
