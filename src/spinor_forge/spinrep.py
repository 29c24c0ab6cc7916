"""The spin representation on Delta_n = C^(2^k), k = floor(n/2), and the
one spinor type.

``ScaledSpinor`` is an element of Delta_n (x) Delta_r^(x m) (see ``twisted``
for the twist slots and scale2).  An untwisted spinor of Delta_n is its m = 0
case; ``SpinorVector(n, {eps: c})`` builds one.

Basis vectors are indexed by sign tuples eps in {+1,-1}^k; the tuple entry
order matches the tensor-factor order of the underlying (C^2)^(x k), leftmost
entry = leftmost factor.  The n Clifford generators act as Kronecker products
of the 2x2 blocks Id, g1, g2, T; generator e_(2j-1) (resp. e_(2j)) carries g1
(resp. g2) in factor k-j+1 with T's to its right and identities to its left,
and for odd n the last generator is i*(T x ... x T).  On the chosen basis the
blocks act by

    g1. u_eps = i   . u_(-eps)      g2. u_eps = eps . u_(-eps)
    T . u_eps = -eps. u_eps

so every generator is a signed permutation up to a factor of i: it sends each
basis vector to +-1 or +-i times another.  A generator application is a
single walk over the sparse coefficient map that flips one tuple entry and
moves the coefficient a+bi to +-(a+bi) or +-(-b+ai) by swapping and negating
its parts; no multiplication happens.  Nothing of size 2^k x 2^k is ever
materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import IndexOutOfRange, NotUnitVector, OddLength, ShapeMismatch, UnsupportedDimension
from .scalars import GaussianRational, Rational, exact_rational

BasisIndex = Tuple[int, ...]
CoeffMap = Dict[BasisIndex, GaussianRational]


# Caps on the dimensions of a spinor space Delta_n (x) Delta_r^(x m).  They
# admit every catalog entry (qk(m) for m <= 8 at (4m, 3, m), spin7 at
# (8, 7, 1), generic(n) for n <= 8) and refuse a hostile wire dimension
# before anything of its size is built, such as eta's n x n matrix or the
# n^2-wide rows of a commutant.
MAX_N = 32
MAX_R = 16
MAX_M = 8


def check_dimensions(n: int, r: int = 0, m: int = 0) -> None:
    """Refuse negative dimensions (ShapeMismatch) and dimensions above the
    caps MAX_N, MAX_R, MAX_M (UnsupportedDimension)."""
    if 0 <= n <= MAX_N and 0 <= r <= MAX_R and 0 <= m <= MAX_M:
        return
    for name, value, cap in (("n", n, MAX_N), ("r", r, MAX_R), ("m", m, MAX_M)):
        if value < 0:
            raise ShapeMismatch(f"{name} must be >= 0, got {value}")
        if value > cap:
            raise UnsupportedDimension(f"{name} must be <= {cap}, got {value}")


def spinor_dim_exponent(n: int) -> int:
    """k = floor(n/2); Delta_n has dimension 2^k."""
    return n // 2


def all_basis_indices(n: int) -> List[BasisIndex]:
    k = spinor_dim_exponent(n)
    out: List[BasisIndex] = [()]
    for _ in range(k):
        out = [eps + (s,) for eps in out for s in (1, -1)]
    return out


TwistedIndex = Tuple[BasisIndex, Tuple[BasisIndex, ...]]
TwistedCoeffMap = Dict[TwistedIndex, GaussianRational]
_SIGNS = frozenset((1, -1))


def _merge(acc: TwistedCoeffMap, inc: TwistedCoeffMap,
           factor: Fraction = Fraction(1)) -> None:
    """acc += factor * inc for a real factor: two multiplies per entry, none
    when factor is 1."""
    scaled = factor != 1
    for idx, c in inc.items():
        if scaled:
            c = c * factor
        s = acc.get(idx)
        if s is None:
            acc[idx] = c
            continue
        s = s + c
        if s:
            acc[idx] = s
        else:
            del acc[idx]


@dataclass(frozen=True)
class ScaledSpinor:
    """Element of Delta_n (x) Delta_r^(x m) as coefficients plus scale2 > 0.

    The one spinor type: an untwisted spinor of Delta_n is the m = 0 case,
    whose basis indices are (eps, ())."""

    n: int
    r: int
    m: int
    coeffs: TwistedCoeffMap = field(default_factory=dict)
    scale2: Rational = Fraction(1)

    def __post_init__(self) -> None:
        check_dimensions(self.n, self.r, self.m)
        if not isinstance(self.scale2, Fraction):
            object.__setattr__(self, "scale2", exact_rational(self.scale2))
        if self.scale2 <= 0:
            raise ShapeMismatch("scale2 must be a positive rational")
        ks, kt = spinor_dim_exponent(self.n), spinor_dim_exponent(self.r)
        cleaned: TwistedCoeffMap = {}
        for (spin, twist), c in self.coeffs.items():
            if (len(spin) != ks or not _SIGNS.issuperset(spin) or len(twist) != self.m
                    or any(len(t) != kt or not _SIGNS.issuperset(t) for t in twist)):
                raise ShapeMismatch(f"index {(spin, twist)} invalid for shape "
                                    f"(n={self.n}, r={self.r}, m={self.m})")
            if c:
                cleaned[(spin, twist)] = c
        object.__setattr__(self, "coeffs", cleaned)

    def shape(self) -> Tuple[int, int, int]:
        return (self.n, self.r, self.m)

    def is_zero(self) -> bool:
        return not self.coeffs

    def with_coeffs(self, coeffs: TwistedCoeffMap) -> ScaledSpinor:
        return ScaledSpinor(self.n, self.r, self.m, coeffs, self.scale2)

    def __add__(self, other: ScaledSpinor) -> ScaledSpinor:
        return self._plus(other, Fraction(1))

    def __sub__(self, other: ScaledSpinor) -> ScaledSpinor:
        return self._plus(other, Fraction(-1))

    def _plus(self, other: ScaledSpinor, factor: Fraction) -> ScaledSpinor:
        if self.shape() != other.shape() or self.scale2 != other.scale2:
            raise ShapeMismatch("adding spinors of different shape or scale")
        out = dict(self.coeffs)
        _merge(out, other.coeffs, factor)
        return self.with_coeffs(out)

    def scale(self, c: GaussianRational) -> ScaledSpinor:
        if not c:
            return self.with_coeffs({})
        return self.with_coeffs({idx: v * c for idx, v in self.coeffs.items()})


def SpinorVector(n: int, coeffs: CoeffMap) -> ScaledSpinor:
    """The untwisted spinor sum c_eps u_eps of Delta_n, from {eps: c}: an
    m = 0 ``ScaledSpinor`` with scale2 = 1."""
    return ScaledSpinor(n, 0, 0, {(eps, ()): c for eps, c in coeffs.items()})


def basis_spinor(n: int, eps: Sequence[int]) -> ScaledSpinor:
    return SpinorVector(n, {tuple(eps): GaussianRational(Fraction(1))})


def _generator_on_map(n: int, i: int, coeffs: CoeffMap) -> CoeffMap:
    """Apply the i-th Clifford generator to a raw coefficient map.

    With tail parity p (the number of +1 entries right of the generator's
    factor, mod 2) the unit is (-1)^p * i for g1 and (-1)^p * eps for g2;
    the odd-n generator i * (T x ... x T) has unit (-1)^#(+1) * i.  A unit
    multiple of a nonzero coefficient is nonzero, so nothing is dropped."""
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"generator index {i} outside 1..{n}")
    k = spinor_dim_exponent(n)
    out: CoeffMap = {}
    if n % 2 == 1 and i == n:
        for eps, c in coeffs.items():
            if eps.count(1) & 1:
                out[eps] = GaussianRational(c.im, -c.re)
            else:
                out[eps] = GaussianRational(-c.im, c.re)
        return out
    pos = k - (i + 1) // 2  # 0-indexed tensor factor carrying g1/g2
    if i % 2 == 1:  # g1: times (-1)^p * i
        for eps, c in coeffs.items():
            new = eps[:pos] + (-eps[pos],) + eps[pos + 1:]
            if eps[pos + 1:].count(1) & 1:
                out[new] = GaussianRational(c.im, -c.re)
            else:
                out[new] = GaussianRational(-c.im, c.re)
    else:  # g2: times (-1)^p * eps[pos], eps read before the flip
        for eps, c in coeffs.items():
            new = eps[:pos] + (-eps[pos],) + eps[pos + 1:]
            if (eps[pos + 1:].count(1) & 1) == (eps[pos] == 1):
                out[new] = GaussianRational(-c.re, -c.im)
            else:
                out[new] = c
    return out


def _spin_generator(phi: ScaledSpinor, i: int, coeffs: TwistedCoeffMap) -> TwistedCoeffMap:
    """kappa(e_i) on the Delta_n slot of a raw coefficient map."""
    grouped: Dict[Tuple[Tuple[int, ...], ...], Dict[Tuple[int, ...], GaussianRational]] = {}
    for (spin, twist), c in coeffs.items():
        grouped.setdefault(twist, {})[spin] = c
    out: TwistedCoeffMap = {}
    for twist, sub in grouped.items():
        for spin, c in _generator_on_map(phi.n, i, sub).items():
            out[(spin, twist)] = c
    return out


def kappa_generator(n: int, i: int, psi: ScaledSpinor) -> ScaledSpinor:
    """Clifford action of the i-th orthonormal generator on the Delta_n slot."""
    if psi.n != n:
        raise ShapeMismatch(f"spinor lives in Delta_{psi.n}, not Delta_{n}")
    if not 1 <= i <= n:  # checked here too: a zero spinor never reaches the kernel
        raise IndexOutOfRange(f"generator index {i} outside 1..{n}")
    return psi.with_coeffs(_spin_generator(psi, i, psi.coeffs))


@dataclass(frozen=True)
class FormTerm:
    """A basis Clifford product e_{i1}...e_{is} (strictly increasing) with a
    rational coefficient; the empty product is the identity."""

    factors: Tuple[int, ...]
    coeff: Rational = Fraction(1)

    def __post_init__(self) -> None:
        if not isinstance(self.coeff, Fraction):
            object.__setattr__(self, "coeff", exact_rational(self.coeff))
        if list(self.factors) != sorted(set(self.factors)):
            raise IndexOutOfRange(f"factors {self.factors} not strictly increasing")


def gamma_apply(psi: ScaledSpinor) -> ScaledSpinor:
    """The real/quaternionic structure on Delta_n, for an m = 0 spinor.

    Built as the tensor product of the antilinear 2x2 blocks
    alpha(z1,z2) = (-conj(z2), conj(z1)) and beta(z1,z2) = (conj(z1), conj(z2)),
    alternating alpha, beta, alpha, ... from the leftmost factor.  On basis
    vectors: alpha.u_eps = -eps*i*u_(-eps), beta.u_eps = u_(-eps), so the whole
    map flips every tuple entry, conjugates the coefficient and multiplies by
    a unit from the odd (alpha) positions.  gamma^2 = +Id for
    n = 0,1,6,7 (mod 8) and -Id for n = 2,3,4,5 (mod 8).
    """
    if psi.m:
        raise ShapeMismatch(f"gamma acts on Delta_n alone, got m = {psi.m}")
    out: TwistedCoeffMap = {}
    for (eps, _), c in psi.coeffs.items():
        val = c.conj()
        for t in range(0, spinor_dim_exponent(psi.n), 2):  # alpha positions
            s = -eps[t]
            val = GaussianRational(-s * val.im, s * val.re)  # multiply by s*i
        out[(tuple(-s for s in eps), ())] = val
    return psi.with_coeffs(out)


RationalVector = List[Fraction]


def _check_unit_vectors(n: int, vectors: Sequence[Sequence[Rational]]) -> List[RationalVector]:
    if len(vectors) % 2 != 0:
        raise OddLength("group elements are even products of unit vectors")
    clean: List[RationalVector] = []
    for x in vectors:
        v = [exact_rational(c) for c in x]
        if len(v) != n:
            raise ShapeMismatch(f"vector of length {len(v)} in R^{n}")
        if sum(c * c for c in v) != 1:
            raise NotUnitVector(f"vector {v} has squared norm != 1")
        clean.append(v)
    return clean


def reflect(v: RationalVector, x: RationalVector) -> RationalVector:
    dot = sum(a * b for a, b in zip(v, x))
    return [a - 2 * dot * b for a, b in zip(v, x)]


def spin_action_on_vector(
    n: int, vectors: Sequence[Sequence[Rational]], v: Sequence[Rational]
) -> RationalVector:
    """The SO(n) image of v under the covering of x_1 ... x_2l: the
    composition of the 2l reflections, rightmost first."""
    clean = _check_unit_vectors(n, vectors)
    out = [exact_rational(c) for c in v]
    if len(out) != n:
        raise ShapeMismatch(f"vector of length {len(out)} in R^{n}")
    for x in reversed(clean):
        out = reflect(out, x)
    return out
