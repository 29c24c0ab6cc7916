"""The untwisted spin representation on Delta_n = C^(2^k), k = floor(n/2).

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
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import IndexOutOfRange, NotUnitVector, OddLength, ShapeMismatch
from .scalars import GR_ZERO, GaussianRational, Rational, exact_rational

BasisIndex = Tuple[int, ...]
CoeffMap = Dict[BasisIndex, GaussianRational]


def spinor_dim_exponent(n: int) -> int:
    """k = floor(n/2); Delta_n has dimension 2^k."""
    return n // 2


def all_basis_indices(n: int) -> List[BasisIndex]:
    k = spinor_dim_exponent(n)
    out: List[BasisIndex] = [()]
    for _ in range(k):
        out = [eps + (s,) for eps in out for s in (1, -1)]
    return out


@dataclass(frozen=True)
class SpinorVector:
    """Sparse element of Delta_n; absent indices are zero."""

    n: int
    coeffs: CoeffMap = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ShapeMismatch(f"n must be >= 0, got {self.n}")
        k = spinor_dim_exponent(self.n)
        cleaned = {}
        for idx, c in self.coeffs.items():
            if len(idx) != k or any(s not in (1, -1) for s in idx):
                raise ShapeMismatch(f"index {idx} invalid for Delta_{self.n}")
            if c:
                cleaned[idx] = c
        object.__setattr__(self, "coeffs", cleaned)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: SpinorVector) -> SpinorVector:
        if self.n != other.n:
            raise ShapeMismatch("adding spinors of different dimension")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            s = out.get(idx, GR_ZERO) + c
            if s:
                out[idx] = s
            else:
                out.pop(idx, None)
        return SpinorVector(self.n, out)

    def __sub__(self, other: SpinorVector) -> SpinorVector:
        return self + other.scale(GaussianRational(Fraction(-1)))

    def scale(self, c: GaussianRational) -> SpinorVector:
        if not c:
            return SpinorVector(self.n, {})
        return SpinorVector(self.n, {idx: v * c for idx, v in self.coeffs.items()})


def basis_spinor(n: int, eps: Sequence[int]) -> SpinorVector:
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


def kappa_generator(n: int, i: int, psi: SpinorVector) -> SpinorVector:
    """Clifford action of the i-th orthonormal generator on Delta_n."""
    if psi.n != n:
        raise ShapeMismatch(f"spinor lives in Delta_{psi.n}, not Delta_{n}")
    return SpinorVector(n, _generator_on_map(n, i, psi.coeffs))


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


def clifford_action(n: int, omega: Iterable[FormTerm], psi: SpinorVector) -> SpinorVector:
    """Apply a sum of basis Clifford products; rightmost factor acts first."""
    acc: CoeffMap = {}
    for term in omega:
        if term.factors and not 1 <= term.factors[0] <= term.factors[-1] <= n:
            raise IndexOutOfRange(f"factors {term.factors} outside 1..{n}")
        cur = psi.coeffs
        for gen in reversed(term.factors):
            cur = _generator_on_map(n, gen, cur)
        for idx, c in cur.items():
            s = acc.get(idx, GR_ZERO) + c * term.coeff
            if s:
                acc[idx] = s
            else:
                acc.pop(idx, None)
    return SpinorVector(n, acc)


def hermitian(psi1: SpinorVector, psi2: SpinorVector) -> GaussianRational:
    """<psi1, psi2>: linear in the first slot, conjugate-linear in the second."""
    if psi1.n != psi2.n:
        raise ShapeMismatch("Hermitian product across different dimensions")
    acc = GR_ZERO
    small, big = psi1.coeffs, psi2.coeffs
    if len(big) < len(small):
        for idx, c in big.items():
            o = small.get(idx)
            if o is not None:
                acc = acc + o * c.conj()
        return acc
    for idx, c in small.items():
        o = big.get(idx)
        if o is not None:
            acc = acc + c * o.conj()
    return acc


def gamma_apply(n: int, psi: SpinorVector) -> SpinorVector:
    """The real/quaternionic structure on Delta_n.

    Built as the tensor product of the antilinear 2x2 blocks
    alpha(z1,z2) = (-conj(z2), conj(z1)) and beta(z1,z2) = (conj(z1), conj(z2)),
    alternating alpha, beta, alpha, ... from the leftmost factor.  On basis
    vectors: alpha.u_eps = -eps*i*u_(-eps), beta.u_eps = u_(-eps), so the whole
    map flips every tuple entry, conjugates the coefficient and multiplies by
    a unit from the odd (alpha) positions.  gamma^2 = +Id for
    n = 0,1,6,7 (mod 8) and -Id for n = 2,3,4,5 (mod 8).
    """
    k = spinor_dim_exponent(n)
    out: CoeffMap = {}
    for eps, c in psi.coeffs.items():
        val = c.conj()
        for t in range(0, k, 2):  # alpha positions
            s = -eps[t]
            val = GaussianRational(-s * val.im, s * val.re)  # multiply by s*i
        out[tuple(-s for s in eps)] = val
    return SpinorVector(n, out)


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


def vector_action(n: int, x: Sequence[Rational], psi: SpinorVector) -> SpinorVector:
    """Clifford action of an arbitrary vector sum(x_j e_j)."""
    acc: CoeffMap = {}
    for j, c in enumerate(x, start=1):
        cf = exact_rational(c)
        if not cf:
            continue
        for idx, val in _generator_on_map(n, j, psi.coeffs).items():
            s = acc.get(idx, GR_ZERO) + val * cf
            if s:
                acc[idx] = s
            else:
                acc.pop(idx, None)
    return SpinorVector(n, acc)


def spin_action_on_spinor(
    n: int, vectors: Sequence[Sequence[Rational]], psi: SpinorVector
) -> SpinorVector:
    """Action of the group element x_1 x_2 ... x_2l; rightmost factor first."""
    clean = _check_unit_vectors(n, vectors)
    out = psi
    for x in reversed(clean):
        out = vector_action(n, x, out)
    return out


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
