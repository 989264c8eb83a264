"""Exact complex rational scalars (Gaussian rationals).

Everything on the certificate side of the package is computed in this
field so matching a target expansion and checking positive
semidefiniteness are exact statements, not floating-point ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple, Union

Rationalish = Union[int, Fraction]
Scalarish = Union[int, Fraction, "GaussianRational"]


def _frac(value: Rationalish) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
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
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(_frac(other))
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        # a real value equals, so must hash like, its int or Fraction
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def as_tuple(self) -> Tuple[int, int, int, int]:
        """Numerator/denominator quadruple (re_num, re_den, im_num, im_den)."""
        return (
            self.re.numerator,
            self.re.denominator,
            self.im.numerator,
            self.im.denominator,
        )

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


def grat(re: Rationalish = 0, im: Rationalish = 0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(_frac(re), _frac(im))


def _over_lcm(values: Sequence[GaussianRational]) -> Tuple[int, List[Tuple[int, int]]]:
    """L, the lcm of the denominators of ``values``, and L times each value as int parts."""
    scale = lcm(*(x.denominator for v in values for x in (v.re, v.im)))
    return scale, [
        (v.re.numerator * (scale // v.re.denominator),
         v.im.numerator * (scale // v.im.denominator))
        for v in values
    ]
