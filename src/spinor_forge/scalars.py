"""Exact scalar arithmetic: rationals and Gaussian rationals.

Rationals are ``fractions.Fraction`` (arbitrary precision, always reduced,
so equality is structural).  ``GaussianRational`` (a+bi in Q(i)) is a boundary
type: ``ScaledSpinor`` input and ``coeffs`` view, ``scale`` factor and
``twisted_hermitian`` result; the kernel computes on integer pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InexactScalar

Rational = Fraction

RationalLike = Union[Fraction, int]


def exact_rational(x: Union[RationalLike, str]) -> Fraction:
    """Fraction(x) for ints, Fractions and 'p/q' strings.  Floats are refused
    rather than expanded into their binary value, and bools are refused
    rather than read as 0 or 1; any other value that is not a rational
    (a complex number, None, a string that does not parse or has a zero
    denominator) is refused too, each with ``InexactScalar``."""
    if isinstance(x, (float, bool)):
        raise InexactScalar(f"{x!r} is not an exact rational")
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InexactScalar(f"{x!r} is not an exact rational") from None


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """Exact complex number a+bi with rational a, b."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", exact_rational(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", exact_rational(self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other: GaussianRational) -> GaussianRational:
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: GaussianRational) -> GaussianRational:
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: Union[GaussianRational, RationalLike, str]) -> GaussianRational:
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        x = exact_rational(other)  # as gr reads it: a bool or None is refused
        return GaussianRational(self.re * x, self.im * x)

    __rmul__ = __mul__

    def conj(self) -> GaussianRational:
        return GaussianRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        """Squared modulus |a+bi|^2 = a^2 + b^2, an exact rational."""
        return self.re * self.re + self.im * self.im

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!s}, {self.im!s})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


GR_I = GaussianRational(Fraction(0), Fraction(1))


def gr(re: RationalLike = 0, im: RationalLike = 0) -> GaussianRational:
    """Convenience constructor accepting ints, Fractions or 'p/q' strings."""
    return GaussianRational(re, im)
