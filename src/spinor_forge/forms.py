"""The spinor-to-geometry transfer: induced real 2-forms and endomorphisms.

For a twisted spinor phi and a twist bivector f_k f_l, the induced 2-form on
R^n is eta_kl(X, Y) = scale2 * Re< X ^ Y . kappa(f_kl) . phi, phi >, phi read
as its coefficient vector.  Clifford generators are skew-adjoint, so with
w = kappa(f_kl) . phi the entry for a < b is

    eta_kl(e_a, e_b) = scale2 * Re< e_a e_b . w, phi > = -scale2 * Re< w, e_a e_b . phi >.

The integer sums Re< w, e_a e_b . phi > of every image w come from one call
of the kernel's induced-form pass ``twisted._induced`` (``_induced_forms``,
called once by each of ``eta``, ``etas``, ``spinc_form`` and ``phi_extend``,
whose sum of etas is the form of one image); a twist pair is checked once,
by ``twisted._check_twist_pair``.  A 2-form (``form_action``) and Phi's twist
element act through ``twisted._bivector_map``; neither applies a generator.

The rank-2 (spin^c) form of an untwisted spinor is the same kernel with
w = i . phi.  The dual endomorphism eta_hat(e_a) = sum_b eta(e_a, e_b) e_b is
the transpose of the 2-form's matrix.  Both types hold integers over one
positive denominator, reduced by the content gcd: a ``TwoForm`` its upper
triangle {(a, b): int}, an ``Endo`` sparse rows.  So sums (``form_lincomb``),
products, commutators and equality run in ints; each dense ``mat`` is a view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .errors import IndexOutOfRange, ShapeMismatch, WrongRank, ZeroSpinor
from .linalg import Matrix, SparseRow, transpose
from .scalars import GR_I, Rational, exact_rational
from .spinrep import ScaledSpinor, check_dimensions, check_mapping, check_sequence, index_pair
from .twisted import _bivector_map, _check_twist_pair, _induced, twist_bivector_action


def _square(n: int, mat: Matrix, what: str) -> Matrix:
    """mat as an n x n matrix of Fractions: n is checked first, a matrix or
    a row that is not a sequence raises InvalidValue, a wrong shape
    ShapeMismatch and an entry that is not an exact rational InexactScalar."""
    check_dimensions(n)
    rows = [check_sequence(what, row) for row in check_sequence(what, mat)]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ShapeMismatch(f"{what} has wrong shape")
    return [[x if type(x) is Fraction else exact_rational(x) for x in row] for row in rows]


@dataclass(frozen=True, eq=False)
class TwoForm:
    """A 2-form on R^n: mat[a][b] is the coefficient of e_a ^ e_b (0-indexed),
    an exactly antisymmetric rational matrix.  Held as integer upper-triangle
    terms over one positive denominator, reduced by the content gcd:
    ``_terms[(a, b)]``, 1-based a < b, is a nonzero ``_den * mat[a-1][b-1]``.
    ``==`` compares that layout; ``mat`` is a read-only dense Fraction view."""

    n: int
    mat: Matrix

    def __post_init__(self) -> None:
        view = _square(self.n, self.mat, "2-form matrix")
        if any(view[a][b] != -view[b][a] for a in range(self.n) for b in range(a, self.n)):
            raise ShapeMismatch("2-form matrix is not antisymmetric")
        upper = {(a + 1, b + 1): row[b] for a, row in enumerate(view) for b in range(a + 1, self.n)}
        vars(self).update(vars(two_form_from_terms(self.n, upper)), mat=view)

    def __getattr__(self, name: str) -> Matrix:
        if name != "mat":  # the one lazy field: the dense Fraction view
            raise AttributeError(name)
        view = vars(self)["mat"] = transpose(eta_hat(self).mat)
        return view

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwoForm):
            return NotImplemented
        return (self.n, self._den, self._terms) == (other.n, other._den, other._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> List[Tuple[int, int, Fraction]]:
        """Nonzero (a, b, coeff) with a < b, 1-based, ascending."""
        return [(a, b, Fraction(v, self._den)) for (a, b), v in sorted(self._terms.items())]

    def __add__(self, other: TwoForm) -> TwoForm:
        if self.n != other.n:
            raise ShapeMismatch("adding 2-forms of different dimension")
        return form_lincomb(self.n, (self, other))((1, 1))

    def scale(self, c: Rational) -> TwoForm:
        c = exact_rational(c)
        return form_lincomb(self.n, (self,))((c.numerator,), c.denominator)

    def __neg__(self) -> TwoForm:
        return form_lincomb(self.n, (self,))((-1,))


def _two_form(n: int, den: int, terms: Dict[Tuple[int, int], int]) -> TwoForm:
    """The 2-form terms / den (den > 0), reduced; every integer 2-form ends here."""
    g = math.gcd(den, *terms.values())
    out = object.__new__(TwoForm)
    vars(out).update(n=n, _den=den // g, _terms={ab: v // g for ab, v in terms.items() if v})
    return out


def form_lincomb(n: int, forms: Sequence[TwoForm]) -> Callable[[Sequence[int], int], TwoForm]:
    """The map (xs, den) -> sum xs[i] * forms[i] / den for int xs, in ints over den
    times the forms' lcm, reduced once; the lcm is taken once, here."""
    lcm = math.lcm(*(omega._den for omega in forms))
    scaled = [(lcm // omega._den, omega._terms) for omega in forms]

    def combine(xs: Sequence[int], den: int = 1) -> TwoForm:
        acc: Dict[Tuple[int, int], int] = {}
        for x, (q, terms) in zip(xs, scaled):
            if x:
                x *= q
                for ab, v in terms.items():
                    acc[ab] = acc.get(ab, 0) + x * v
        return _two_form(n, lcm * den, acc)
    return combine


@dataclass(frozen=True, eq=False)
class Endo:
    """An endomorphism of R^n: mat[i][j] = <e_i, T(e_j)> (column convention).

    Held as sparse integer rows over one positive denominator: ``_rows[i]``
    maps j to the nonzero entries of ``_den * mat[i]``, reduced by the
    content gcd, so equal endomorphisms have one layout and ``==`` compares
    it.  ``mat`` reads back a dense Fraction view, built on first read for
    kernel results; treat it as read-only."""

    n: int
    mat: Matrix

    def __post_init__(self) -> None:
        view = _square(self.n, self.mat, "endomorphism matrix")
        den = math.lcm(*(x.denominator for row in view for x in row))
        # over the lcm of the reduced denominators the content is already 1
        vars(self).update(mat=view, _den=den, _rows=[
            {j: x.numerator * (den // x.denominator) for j, x in enumerate(row) if x}
            for row in view])

    def __getattr__(self, name: str) -> Matrix:
        if name != "mat":  # the one lazy field: the dense Fraction view
            raise AttributeError(name)
        view = vars(self)["mat"] = [[Fraction(row.get(j, 0), self._den) for j in range(self.n)]
                                    for row in self._rows]
        return view

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Endo):
            return NotImplemented
        return (self.n, self._den, self._rows) == (other.n, other._den, other._rows)

    def compose(self, other: Endo) -> Endo:
        return _endo(self.n, self._den * other._den, _mul_rows(self._rows, other._rows))

    def commutator(self, other: Endo) -> Endo:
        ab, ba = _mul_rows(self._rows, other._rows), _mul_rows(other._rows, self._rows)
        rows = [{k: x.get(k, 0) - y.get(k, 0) for k in x.keys() | y.keys()} for x, y in zip(ab, ba)]
        return _endo(self.n, self._den * other._den, rows)

    def is_minus_identity(self) -> bool:
        return self._den == 1 and all(row == {i: -1} for i, row in enumerate(self._rows))

    def squares_to_minus_identity(self) -> bool:
        """self^2 == -Id, as ``self.compose(self).is_minus_identity()`` but
        row by row: row i of the integer product is sum_j rows[i][j] rows[j],
        and it must be -den^2 at i and 0 elsewhere.  Stops at the first row
        that fails, and builds no product ``Endo``."""
        rows, target = self._rows, -self._den * self._den
        for i, row in enumerate(rows):
            acc: SparseRow = {}
            get = acc.get
            for j, x in row.items():
                for k, y in rows[j].items():
                    acc[k] = get(k, 0) + x * y
            if acc.pop(i, 0) != target or any(acc.values()):
                return False
        return True

    def scale(self, c: Rational) -> Endo:
        c = exact_rational(c)
        return _endo(self.n, self._den * c.denominator,
                     [{j: v * c.numerator for j, v in row.items()} for row in self._rows])

    def __neg__(self) -> Endo:
        return _endo(self.n, self._den, [{j: -v for j, v in row.items()} for row in self._rows])


def _mul_rows(a: List[SparseRow], b: List[SparseRow]) -> List[SparseRow]:
    """The product a b of sparse integer rows; cancelled entries stay as 0."""
    out: List[SparseRow] = []
    for row in a:
        acc: SparseRow = {}
        for j, x in row.items():
            for k, y in b[j].items():
                acc[k] = acc.get(k, 0) + x * y
        out.append(acc)
    return out


def _endo(n: int, den: int, rows: List[SparseRow]) -> Endo:
    """The endomorphism rows / den (den > 0): zero entries dropped, reduced
    by the content gcd.  Every integer operation on ``Endo`` ends here."""
    g = math.gcd(den, *(v for row in rows for v in row.values()))
    out = object.__new__(Endo)
    vars(out).update(n=n, _den=den // g,
                     _rows=[{j: v // g for j, v in row.items() if v} for row in rows])
    return out


def two_form_from_terms(n: int, terms: Dict[Tuple[int, int], Rational]) -> TwoForm:
    """Build from {(a, b): coeff} with 1-based a != b; (b, a) entries negate.
    n is checked against the cap MAX_N; only the upper triangle is stored."""
    check_dimensions(n)
    upper: Dict[Tuple[int, int], Fraction] = {}
    for pair, c in check_mapping("2-form terms", terms).items():
        a, b = index_pair("2-form index", pair)
        if not (1 <= a <= n and 1 <= b <= n) or a == b:
            raise IndexOutOfRange(f"bad 2-form term indices ({a},{b})")
        key, c = ((a, b), exact_rational(c)) if a < b else ((b, a), -exact_rational(c))
        upper[key] = upper.get(key, 0) + c
    den = math.lcm(*(c.denominator for c in upper.values()))
    return _two_form(n, den, {ab: c.numerator * (den // c.denominator) for ab, c in upper.items()})


def _induced_forms(phi: ScaledSpinor, images: Iterable[ScaledSpinor]) -> List[TwoForm]:
    """The 2-form -scale2 * Re< w, e_a e_b . phi >, a < b, for each w of
    phi's shape in ``images``, from one pass of ``twisted._induced``."""
    num, q = -phi.scale2.numerator, phi.scale2.denominator
    return [_two_form(phi.n, q * den, {ab: num * x for ab, x in sums.items()})
            for den, sums in _induced(phi, images)]


def form_action(omega: TwoForm, phi: ScaledSpinor) -> ScaledSpinor:
    """omega . phi = sum omega_ab e_a e_b . phi (a < b) on the Delta_n slot:
    omega's integer terms through the one bivector action
    ``twisted._bivector_map``, in one walk over supp phi per pattern."""
    if omega.n != phi.n:
        raise ShapeMismatch(f"2-form on R^{omega.n} acting on a spinor of Delta_{phi.n}")
    return phi._with(phi._den * omega._den, _bivector_map(phi, omega._terms))


def eta(phi: ScaledSpinor, k: int, l: int) -> TwoForm:
    """The induced 2-form for the twist bivector f_k f_l: the induced form
    of w = kappa(f_kl) . phi, the pair checked by ``twist_bivector_action``.
    At k = l, w = -m phi, and the form is zero: e_a e_b is skew-adjoint."""
    return _induced_forms(phi, [twist_bivector_action(k, l, phi)])[0]


def etas(phi: ScaledSpinor) -> Dict[Tuple[int, int], TwoForm]:
    """{(k, l): eta(phi, k, l)} for all k < l, ascending, from one ``_induced_forms``."""
    pairs = list(combinations(range(1, phi.r + 1), 2))
    return dict(zip(pairs, _induced_forms(phi, (twist_bivector_action(k, l, phi)
                                                for k, l in pairs))))


def eta_hat(omega: TwoForm) -> Endo:
    """Metric dual eta_hat(e_a) = sum_b omega(e_a, e_b) e_b: the transpose of omega's matrix."""
    rows: List[SparseRow] = [{} for _ in range(omega.n)]
    for (a, b), v in omega._terms.items():
        rows[b - 1][a - 1] = v
        rows[a - 1][b - 1] = -v
    out = object.__new__(Endo)  # omega's layout is reduced, so this one is too
    vars(out).update(n=omega.n, _den=omega._den, _rows=rows)
    return out


def phi_extend(phi: ScaledSpinor, beta: Dict[Tuple[int, int], Rational]) -> TwoForm:
    """Linear extension sum c_kl eta(phi, k, l): the form is real-linear in
    w, so it is the induced form of the one image of the twist element
    {(n + k, n + l): c_kl}, c_kl != 0 and k != l, under ``_bivector_map``.
    Every key is checked as eta checks its pair, and every c_kl read
    exactly, also where c_kl is zero or k = l."""
    n, parts = phi.n, {}
    for key, c in check_mapping("beta", beta).items():
        k, l = index_pair("twist index", key)
        _check_twist_pair(phi, k, l)
        c = exact_rational(c)
        if c and k != l:
            parts[(n + k, n + l)] = c
    q = math.lcm(*(c.denominator for c in parts.values()))
    w = _bivector_map(phi, {p: c.numerator * (q // c.denominator) for p, c in parts.items()})
    return _induced_forms(phi, [phi._with(phi._den * q, w)])[0]


def spinc_form(phi: ScaledSpinor) -> TwoForm:
    """The single induced 2-form of a rank-2 twisted spinor, (r, m) = (2, 1),
    or of an untwisted (m = 0) spinor in even dimension, where it is
    Re( i * <e_a e_b . phi, phi> ): the induced form of w = i * phi."""
    if phi.m == 0:
        if phi.n % 2 != 0:
            raise ShapeMismatch("untwisted rank-2 form needs even dimension")
        if phi.is_zero():
            raise ZeroSpinor("zero spinor")
        return _induced_forms(phi, [phi.scale(GR_I)])[0]
    if phi.r != 2 or phi.m != 1:
        raise WrongRank(f"rank-2 form needs (r, m) = (2, 1) or m = 0, got ({phi.r}, {phi.m})")
    return eta(phi, 1, 2)
