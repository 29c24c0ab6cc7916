"""The spinor-to-geometry transfer: induced real 2-forms and endomorphisms.

For a twisted spinor phi and a twist bivector f_k f_l, the induced 2-form on
R^n is eta_kl(X, Y) = scale2 * Re< X ^ Y . kappa(f_kl) . phi, phi >, phi read
as its coefficient vector.  Clifford generators are skew-adjoint, so with
w = kappa(f_kl) . phi the entry for a < b is

    eta_kl(e_a, e_b) = scale2 * Re< e_a e_b . w, phi > = -scale2 * Re< w, e_a e_b . phi >.

In the kernel's layout (``spinrep``: int index, spin bits lowest and a set
bit +1; (re, im) numerators over the spinor's one denominator D) e_a e_b
sends phi_v to v ^ d, d = f_a ^ f_b, times a unit signed by a parity of v:
the one pair table ``spinrep._pair_acts``, grouped by d (d = 0 holds the
k = n // 2 pairs (2j-1, 2j), each two-bit d four pairs, and for odd n
each one-bit d the two pairs with the last generator, which flips
nothing), and eta_ab = -scale2 * Re< w, e_a e_b . phi > pairs w at u
only with phi at v = u ^ d.  A pattern flips spin bits only, so
``ImageTable`` groups supp phi by the bits above the spin slot; for each u
in supp w it walks u's group, and each v whose u ^ v is a pattern adds
the signed real or imaginary part of w_u conj(phi_v) to every pair of that
pattern.  A 2-form acts (``form_action``) through the one bivector action
of spin(n) + spin(r), ``twisted._bivector_map``, on its integer terms:
per pattern d that omega uses, one walk over supp phi, in which the signed
omega_ab of the pattern's pairs sum to one Gaussian integer that
multiplies phi_v into v ^ d.  Neither applies a generator.

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
from functools import cache
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from .errors import IndexOutOfRange, ShapeMismatch, WrongRank, ZeroSpinor
from .linalg import Matrix, SparseRow, transpose
from .scalars import GR_I, Rational, exact_rational
from .spinrep import ScaledSpinor, _pair_acts, check_dimensions
from .twisted import _bivector_map, twist_bivector_action


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
        if len(self.mat) != self.n or any(len(row) != self.n for row in self.mat):
            raise ShapeMismatch("2-form matrix has wrong shape")
        view = [[x if type(x) is Fraction else exact_rational(x) for x in row] for row in self.mat]
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
        if len(self.mat) != self.n or any(len(row) != self.n for row in self.mat):
            raise ShapeMismatch("endomorphism matrix has wrong shape")
        view = [[x if type(x) is Fraction else exact_rational(x) for x in row] for row in self.mat]
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
    for (a, b), c in terms.items():
        if not (1 <= a <= n and 1 <= b <= n) or a == b:
            raise IndexOutOfRange(f"bad 2-form term indices ({a},{b})")
        key, c = ((a, b), exact_rational(c)) if a < b else ((b, a), -exact_rational(c))
        upper[key] = upper.get(key, 0) + c
    den = math.lcm(*(c.denominator for c in upper.values()))
    return _two_form(n, den, {ab: c.numerator * (den // c.denominator) for ab, c in upper.items()})


@cache
def _pattern_slots(n: int) -> Dict[int, Tuple[Tuple[int, int, bool, int], ...]]:
    """``spinrep._pair_acts(n)`` grouped by d, as {d: ((slot, mask, neg,
    mixed), ...)}: slot the place of (a, b) in the table's b-major order,
    and neg says x = -1."""
    groups: Dict[int, List[Tuple[int, int, bool, int]]] = {}
    for slot, (d, x, mask, mixed) in enumerate(_pair_acts(n).values()):
        groups.setdefault(d, []).append((slot, mask, x < 0, mixed))
    return {d: tuple(group) for d, group in groups.items()}


class ImageTable:
    """One spinor's side of its induced forms, read off the one pair table
    ``spinrep._pair_acts`` grouped by d; no generator is applied.

    A pattern flips only spin bits, so phi is grouped once by the bits
    above the spin slot (``idx >> (n // 2)``): ``induced_form`` walks, for
    each u in supp w, only the v of u's group, and looks u ^ v up among the
    patterns.  A 2-form acts on phi through ``form_action``, not here."""

    def __init__(self, phi: ScaledSpinor) -> None:
        self.phi = phi
        self.groups: Dict[int, List[Tuple[int, int, int]]] = {}
        k = phi.n // 2
        for v, (re, im) in phi._data.items():
            self.groups.setdefault(v >> k, []).append((v, re, im))

    def induced_form(self, w: ScaledSpinor) -> TwoForm:
        """The 2-form with entries -scale2 * Re< w, e_a e_b . phi >, a < b,
        for w of phi's shape, summed in ints over D_phi * D_w."""
        n, s2, k = self.phi.n, self.phi.scale2, self.phi.n // 2
        acc = [0] * (n * (n - 1) // 2)
        pattern, group = _pattern_slots(n).get, self.groups.get
        for u, (wr, wi) in w._data.items():
            for v, pr, pi in group(u >> k, ()):
                entries = pattern(u ^ v)
                if entries is None:
                    continue
                z = (wr * pr + wi * pi, wi * pr - wr * pi)  # w_u conj(phi_v)
                for slot, mask, neg, mixed in entries:  # Re of conj(i) z is Im z
                    if ((v & mask).bit_count() + neg) & 1:
                        acc[slot] -= z[mixed]
                    else:
                        acc[slot] += z[mixed]
        num = -s2.numerator
        out = {ab: num * x for ab, x in zip(_pair_acts(n), acc) if x}
        return _two_form(n, s2.denominator * self.phi._den * w._den, out)


def form_action(omega: TwoForm, phi: ScaledSpinor) -> ScaledSpinor:
    """omega . phi = sum omega_ab e_a e_b . phi (a < b) on the Delta_n slot:
    omega's integer terms through the one bivector action
    ``twisted._bivector_map``, in one walk over supp phi per pattern."""
    if omega.n != phi.n:
        raise ShapeMismatch(f"2-form on R^{omega.n} acting on a spinor of Delta_{phi.n}")
    return phi._with(phi._den * omega._den, _bivector_map(phi, omega._terms, phi._data))


def _check_pair(phi: ScaledSpinor, k: int, l: int) -> None:
    if not (1 <= k <= phi.r and 1 <= l <= phi.r):
        raise IndexOutOfRange(f"twist indices ({k},{l}) outside 1..{phi.r}")


def eta(phi: ScaledSpinor, k: int, l: int) -> TwoForm:
    """The induced 2-form for the twist bivector f_k f_l: the induced form
    of w = kappa(f_kl) . phi."""
    _check_pair(phi, k, l)
    if k == l:
        return _two_form(phi.n, 1, {})
    return ImageTable(phi).induced_form(twist_bivector_action(k, l, phi))


def etas(phi: ScaledSpinor) -> Dict[Tuple[int, int], TwoForm]:
    """{(k, l): eta(phi, k, l)} for all k < l, ascending, from one ``ImageTable``."""
    images = ImageTable(phi)
    return {(k, l): images.induced_form(twist_bivector_action(k, l, phi))
            for k in range(1, phi.r + 1) for l in range(k + 1, phi.r + 1)}


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
    """Linear extension over twist bivectors: sum c_kl eta(phi, k, l)."""
    parts: List[Tuple[Tuple[int, int], Fraction]] = []
    for (k, l), c in beta.items():
        c = exact_rational(c)
        if c and k != l:
            _check_pair(phi, k, l)
            parts.append(((k, l), c) if k < l else ((l, k), -c))
    table = etas(phi) if parts else {}
    q = math.lcm(*(c.denominator for _, c in parts))
    return form_lincomb(phi.n, [table[kl] for kl, _ in parts])(
        [c.numerator * (q // c.denominator) for _, c in parts], q)


def spinc_form(phi: ScaledSpinor) -> TwoForm:
    """The single induced 2-form of a rank-2 twisted spinor, (r, m) = (2, 1),
    or of an untwisted (m = 0) spinor in even dimension, where it is
    Re( i * <e_a e_b . phi, phi> ): the induced form of w = i * phi."""
    if phi.m == 0:
        if phi.n % 2 != 0:
            raise ShapeMismatch("untwisted rank-2 form needs even dimension")
        if phi.is_zero():
            raise ZeroSpinor("zero spinor")
        return ImageTable(phi).induced_form(phi.scale(GR_I))
    if phi.r != 2 or phi.m != 1:
        raise WrongRank(f"rank-2 form needs (r, m) = (2, 1) or m = 0, got ({phi.r}, {phi.m})")
    return eta(phi, 1, 2)
