"""The spinor-to-geometry transfer: induced real 2-forms and endomorphisms.

For a twisted spinor phi and a twist bivector f_k f_l, the induced 2-form on
R^n is

    eta_kl(X, Y) = scale2 * Re< X ^ Y . kappa(f_kl) . v, v >

with v the coefficient vector of phi.  Clifford generators are skew-adjoint,
so with w = kappa(f_kl) . v the entry for a < b is

    eta_kl(e_a, e_b) = scale2 * Re< e_a e_b . w, v > = -scale2 * Re< e_b . w, e_a . v >

and all pairs need only the 2n vectors e_a . v and e_b . w.  ``ImageTable``
builds the images e_a . v once per spinor, for every twist pair, and
``etas`` reads every pair of one spinor from one table.  The images are the
kernel's maps (``spinrep``): int index, spin bits lowest and a set bit +1;
e_a flips one bit, signed by the parity of the bits below it; (re, im)
numerators over the spinor's one denominator D.  So an entry is one int sum
over D_v * D_w and one Fraction, and a 2-form acts at one generator
application per column:

    eta . v = sum_(a<b) eta_ab e_a e_b . v = -sum_b e_b . (sum_(a<b) eta_ab e_a . v).

The rank-2 (spin^c) form of an untwisted spinor is the same kernel with
w = i . v.  The dual endomorphism follows the contraction convention
eta_hat(e_a) = sum_b eta(e_a, e_b) e_b, i.e. its operator matrix is the
transpose of the 2-form's coefficient matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import IndexOutOfRange, ShapeMismatch, WrongRank, ZeroSpinor
from .linalg import Matrix, mat_add, mat_mul, mat_sub, transpose, zeros
from .scalars import GR_I, Rational, exact_rational
from .spinrep import FormTerm, IntCoeffMap, ScaledSpinor, _merge, _spin_generator, check_dimensions
from .twisted import twist_bivector_action


@dataclass(frozen=True)
class TwoForm:
    """Exactly antisymmetric n x n rational matrix; entry (a, b) is the
    coefficient of e_a ^ e_b (0-indexed rows/columns)."""

    n: int
    mat: Matrix

    def __post_init__(self) -> None:
        if len(self.mat) != self.n or any(len(row) != self.n for row in self.mat):
            raise ShapeMismatch("2-form matrix has wrong shape")
        for a in range(self.n):
            for b in range(a, self.n):
                if self.mat[a][b] != -self.mat[b][a]:
                    raise ShapeMismatch("2-form matrix is not antisymmetric")

    def entry(self, a: int, b: int) -> Fraction:
        """Coefficient of e_a ^ e_b, 1-based."""
        return self.mat[a - 1][b - 1]

    def is_zero(self) -> bool:
        return all(not x for row in self.mat for x in row)

    def terms(self) -> List[Tuple[int, int, Fraction]]:
        """Nonzero (a, b, coeff) with a < b, 1-based, ascending."""
        return [(a + 1, b + 1, self.mat[a][b])
                for a in range(self.n) for b in range(a + 1, self.n)
                if self.mat[a][b]]

    def form_terms(self) -> List[FormTerm]:
        """As Clifford products e_a e_b, ready for spinor action."""
        return [FormTerm((a, b), c) for a, b, c in self.terms()]

    def __add__(self, other: TwoForm) -> TwoForm:
        if self.n != other.n:
            raise ShapeMismatch("adding 2-forms of different dimension")
        return TwoForm(self.n, mat_add(self.mat, other.mat))

    def scale(self, c: Rational) -> TwoForm:
        c = exact_rational(c)
        return TwoForm(self.n, [[x * c for x in row] for row in self.mat])

    def __neg__(self) -> TwoForm:
        return self.scale(Fraction(-1))


@dataclass(frozen=True)
class Endo:
    """An endomorphism of R^n: mat[i][j] = <e_i, T(e_j)> (column convention)."""

    n: int
    mat: Matrix

    def __post_init__(self) -> None:
        if len(self.mat) != self.n or any(len(row) != self.n for row in self.mat):
            raise ShapeMismatch("endomorphism matrix has wrong shape")

    def compose(self, other: Endo) -> Endo:
        return Endo(self.n, mat_mul(self.mat, other.mat))

    def commutator(self, other: Endo) -> Endo:
        return Endo(self.n, mat_sub(mat_mul(self.mat, other.mat), mat_mul(other.mat, self.mat)))

    def is_minus_identity(self) -> bool:
        return all(self.mat[i][j] == (-1 if i == j else 0)
                   for i in range(self.n) for j in range(self.n))

    def scale(self, c: Rational) -> Endo:
        c = exact_rational(c)
        return Endo(self.n, [[x * c for x in row] for row in self.mat])

    def __neg__(self) -> Endo:
        return self.scale(Fraction(-1))


def two_form_from_terms(n: int, terms: Dict[Tuple[int, int], Rational]) -> TwoForm:
    """Build from {(a, b): coeff} with 1-based a != b; (b, a) entries negate.
    n is checked against the cap MAX_N before the n x n matrix exists."""
    check_dimensions(n)
    mat = zeros(n)
    for (a, b), c in terms.items():
        if not (1 <= a <= n and 1 <= b <= n) or a == b:
            raise IndexOutOfRange(f"bad 2-form term indices ({a},{b})")
        c = exact_rational(c)
        mat[a - 1][b - 1] += c
        mat[b - 1][a - 1] -= c
    return TwoForm(n, mat)


class ImageTable:
    """The images e_a . phi, a = 1..n-1, of one spinor as integer maps over
    phi's denominator, shared by its induced forms and 2-form actions."""

    def __init__(self, phi: ScaledSpinor) -> None:
        self.phi = phi
        self.maps = [_spin_generator(phi, a, phi._data) for a in range(1, phi.n)]

    def induced_terms(self, w: ScaledSpinor) -> Dict[Tuple[int, int], Fraction]:
        """The nonzero entries {(a, b): eta_ab}, 1-based a < b, of
        -scale2 * Re< e_b . w, e_a . phi >, for w of phi's shape."""
        s2 = self.phi.scale2
        num, den = -s2.numerator, s2.denominator * self.phi._den * w._den
        out: Dict[Tuple[int, int], Fraction] = {}
        for b in range(2, self.phi.n + 1):
            e_w = _spin_generator(self.phi, b, w._data)
            for a in range(1, b):
                ea = self.maps[a - 1]
                acc = 0
                for idx, (cr, ci) in e_w.items():
                    o = ea.get(idx)
                    if o is not None:
                        acc += cr * o[0] + ci * o[1]
                if acc:
                    out[(a, b)] = Fraction(num * acc, den)
        return out

    def form_action(self, terms: Dict[Tuple[int, int], Fraction]) -> Tuple[int, IntCoeffMap]:
        """sum eta_ab e_a e_b . phi (1-based a < b) as
        -sum_b e_b . (sum_(a<b) eta_ab e_a . phi): (D, an integer map over D)."""
        lcm = math.lcm(*(x.denominator for x in terms.values()))
        inner: Dict[int, IntCoeffMap] = {}
        for (a, b), x in terms.items():
            _merge(inner.setdefault(b, {}), self.maps[a - 1], -x.numerator * (lcm // x.denominator))
        acc: IntCoeffMap = {}
        for b, col in inner.items():
            _merge(acc, _spin_generator(self.phi, b, col))
        return self.phi._den * lcm, acc


def _check_pair(phi: ScaledSpinor, k: int, l: int) -> None:
    if not (1 <= k <= phi.r and 1 <= l <= phi.r):
        raise IndexOutOfRange(f"twist indices ({k},{l}) outside 1..{phi.r}")


def eta(phi: ScaledSpinor, k: int, l: int) -> TwoForm:
    """The induced 2-form for the twist bivector f_k f_l: the induced form
    of w = kappa(f_kl) . phi."""
    _check_pair(phi, k, l)
    if k == l:
        return TwoForm(phi.n, zeros(phi.n))
    w = twist_bivector_action(k, l, phi)
    return two_form_from_terms(phi.n, ImageTable(phi).induced_terms(w))


def etas(phi: ScaledSpinor) -> Dict[Tuple[int, int], TwoForm]:
    """{(k, l): eta(phi, k, l)} for all k < l, ascending, from one ``ImageTable``."""
    images = ImageTable(phi)
    return {(k, l): two_form_from_terms(
                phi.n, images.induced_terms(twist_bivector_action(k, l, phi)))
            for k in range(1, phi.r + 1) for l in range(k + 1, phi.r + 1)}


def eta_hat(omega: TwoForm) -> Endo:
    """Metric-dual endomorphism: eta_hat(e_a) = sum_b omega(e_a, e_b) e_b."""
    return Endo(omega.n, transpose(omega.mat))


def phi_extend(phi: ScaledSpinor, beta: Dict[Tuple[int, int], Rational]) -> TwoForm:
    """Linear extension over twist bivectors: sum c_kl eta(phi, k, l)."""
    out = TwoForm(phi.n, zeros(phi.n))
    table: Dict[Tuple[int, int], TwoForm] = {}
    for (k, l), c in beta.items():
        c = exact_rational(c)
        if not c or k == l:
            continue
        _check_pair(phi, k, l)
        table = table or etas(phi)
        out = out + (table[(k, l)].scale(c) if k < l else table[(l, k)].scale(-c))
    return out


def spinc_form(phi: ScaledSpinor) -> TwoForm:
    """The single induced 2-form of a rank-2 twisted spinor, (r, m) = (2, 1),
    or of an untwisted (m = 0) spinor in even dimension, where it is
    Re( i * <e_a e_b . phi, phi> ): the induced form of w = i * phi."""
    if phi.m == 0:
        if phi.n % 2 != 0:
            raise ShapeMismatch("untwisted rank-2 form needs even dimension")
        if phi.is_zero():
            raise ZeroSpinor("zero spinor")
        return two_form_from_terms(phi.n, ImageTable(phi).induced_terms(phi.scale(GR_I)))
    if phi.r != 2 or phi.m != 1:
        raise WrongRank(f"rank-2 form needs (r, m) = (2, 1) or m = 0, got ({phi.r}, {phi.m})")
    return eta(phi, 1, 2)
