"""Exact constructors for the reference spinors and their expected data.

Catalog names: qk(m), spin7_pure, spin7_reducing, generic(n).  Expected
tables stored here are inputs to regression tests; the purity / reducing
verdicts themselves are always re-derived by the certifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .analysis import AmbientElement, pairs
from .errors import InvalidValue, UnsupportedDimension
from .forms import TwoForm, form_action, two_form_from_terms
from .scalars import gr
from .spinrep import (
    MAX_M, ScaledSpinor, SpinorVector, TwistedCoeffMap, all_basis_indices, basis_spinor,
    check_dimensions, check_indices, check_sequence, gamma_apply,
)

Pair = Tuple[int, int]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # "pure" | "reducing"
    spinor: ScaledSpinor
    expected_etas: Optional[Dict[Pair, TwoForm]] = None
    expected_annihilator_dim: Optional[int] = None


def maps_G_H(eps: Sequence[int]) -> Tuple[Tuple[int, ...], int]:
    """Entry doubling G(eps) = (e1, e1, ..., em, em) and the count H(eps) of
    -1 entries."""
    for e in check_sequence("eps", eps):
        if type(e) is not int or e not in (1, -1):  # a bool is not read as +-1
            raise InvalidValue(f"entries must be +-1, got {e!r}")
    return tuple(e for e in eps for _ in (0, 1)), sum(1 for e in eps if e == -1)


def sign_tuples(m: int, minus_count: int) -> List[Tuple[int, ...]]:
    """The {+1,-1}^m tuples with minus_count entries -1."""
    check_indices("sign tuple count", m, minus_count)
    return [t for t in all_basis_indices(2 * m) if t.count(-1) == minus_count]


def psi_level(m: int, j: int) -> ScaledSpinor:
    """Sum of u_G(eps) over eps with exactly j entries -1; an element of
    Delta_{4m} (an m = 0 spinor).  Zero outside 0 <= j <= m."""
    check_indices("psi_level index", m, j)
    check_dimensions(4 * m)
    if j < 0 or j > m:
        return SpinorVector(4 * m, {})
    coeffs = {maps_G_H(eps)[0]: gr(1) for eps in sign_tuples(m, j)}
    return SpinorVector(4 * m, coeffs)


def build_qk_pure(m: int) -> CatalogEntry:
    """The n = 4m, r = 3 pure spinor of the quaternion-Kaehler family."""
    check_indices("m", m)
    if m < 1:
        raise UnsupportedDimension("need m >= 1")
    if m > MAX_M:
        raise UnsupportedDimension(f"need m <= {MAX_M}, got {m}")
    n = 4 * m
    coeffs: TwistedCoeffMap = {}
    for j in range(m + 1):
        c = gr(Fraction(1, comb(m, j)))
        for eps in sign_tuples(m, j):
            spin = maps_G_H(eps)[0]
            for delta in sign_tuples(m, m - j):
                twist = tuple((d,) for d in delta)
                coeffs[(spin, twist)] = c
    scale2 = Fraction(3, (m + 2) * (m + 1))
    phi = ScaledSpinor(n, 3, m, coeffs, scale2)
    # every 4-block of R^(4m) carries the same two terms (a, b, sign) of each form
    blocks = {(1, 2): ((1, 2, 1), (3, 4, 1)), (1, 3): ((1, 3, -1), (2, 4, 1)),
              (2, 3): ((1, 4, -1), (2, 3, -1))}
    expected = {pair: two_form_from_terms(n, {(b + x, b + y): Fraction(s) for b in range(0, n, 4)
                                              for x, y, s in rows})
                for pair, rows in blocks.items()}
    return CatalogEntry(
        name=f"qk(m={m})",
        kind="pure",
        spinor=phi,
        expected_etas=expected,
        expected_annihilator_dim=m * (2 * m + 1) + 3,
    )


# The rank-7 pure spinor's eight terms (sign, u-index, twist index).
_SPIN7_PURE_TERMS: List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = [
    (+1, (-1, -1, -1, -1), (1, 1, 1)),
    (-1, (1, -1, -1, 1), (1, 1, -1)),
    (+1, (1, -1, 1, -1), (1, -1, 1)),
    (-1, (1, 1, -1, -1), (1, -1, -1)),
    (-1, (-1, -1, 1, 1), (-1, 1, 1)),
    (+1, (-1, 1, -1, 1), (-1, 1, -1)),
    (-1, (-1, 1, 1, -1), (-1, -1, 1)),
    (+1, (1, 1, 1, 1), (-1, -1, -1)),
]

# Expected 2-forms of the rank-7 pure spinor, rows (k, l) -> signed quadruple
# of basis 2-forms ((a, b), coeff).
_SPIN7_PURE_ETAS: Dict[Pair, List[Tuple[int, int, int]]] = {
    (1, 2): [(1, 2, 1), (3, 4, -1), (5, 6, 1), (7, 8, 1)],
    (1, 3): [(1, 3, 1), (2, 4, 1), (5, 7, 1), (6, 8, -1)],
    (1, 4): [(1, 4, 1), (2, 3, -1), (5, 8, 1), (6, 7, 1)],
    (1, 5): [(1, 5, 1), (2, 6, -1), (3, 7, -1), (4, 8, -1)],
    (1, 6): [(1, 6, 1), (2, 5, 1), (3, 8, 1), (4, 7, -1)],
    (1, 7): [(1, 7, 1), (2, 8, -1), (3, 5, 1), (4, 6, 1)],
    (2, 3): [(1, 4, -1), (2, 3, 1), (5, 8, 1), (6, 7, 1)],
    (2, 4): [(1, 3, 1), (2, 4, 1), (5, 7, -1), (6, 8, 1)],
    (2, 5): [(1, 6, 1), (2, 5, 1), (3, 8, -1), (4, 7, 1)],
    (2, 6): [(1, 5, -1), (2, 6, 1), (3, 7, -1), (4, 8, -1)],
    (2, 7): [(1, 8, 1), (2, 7, 1), (3, 6, 1), (4, 5, -1)],
    (3, 4): [(1, 2, -1), (3, 4, 1), (5, 6, 1), (7, 8, 1)],
    (3, 5): [(1, 7, 1), (2, 8, 1), (3, 5, 1), (4, 6, -1)],
    (3, 6): [(1, 8, -1), (2, 7, 1), (3, 6, 1), (4, 5, 1)],
    (3, 7): [(1, 5, -1), (2, 6, -1), (3, 7, 1), (4, 8, -1)],
    (4, 5): [(1, 8, 1), (2, 7, -1), (3, 6, 1), (4, 5, 1)],
    (4, 6): [(1, 7, 1), (2, 8, 1), (3, 5, -1), (4, 6, 1)],
    (4, 7): [(1, 6, -1), (2, 5, 1), (3, 8, 1), (4, 7, 1)],
    (5, 6): [(1, 2, 1), (3, 4, 1), (5, 6, 1), (7, 8, -1)],
    (5, 7): [(1, 3, 1), (2, 4, -1), (5, 7, 1), (6, 8, 1)],
    (6, 7): [(1, 4, 1), (2, 3, 1), (5, 8, -1), (6, 7, 1)],
}


def _terms_to_spinor(terms, coeff: Fraction, scale2: Fraction) -> ScaledSpinor:
    """The spinor sum sign * coeff * u_spin (x) u_twist in Delta_8 (x) Delta_7."""
    coeffs = {(spin, (twist,)): gr(sign * coeff) for sign, spin, twist in terms}
    return ScaledSpinor(8, 7, 1, coeffs, scale2)


def build_spin7_pure() -> CatalogEntry:
    """The rank-7 pure spinor in Delta_8 (x) Delta_7: eight terms with
    coefficients +-1/2 and scale2 = 1 (squared norm 2, the unique positive
    scale at which both purity conditions hold; pinned by regression test)."""
    phi = _terms_to_spinor(_SPIN7_PURE_TERMS, Fraction(1, 2), Fraction(1))
    expected = {
        pair: two_form_from_terms(8, {(a, b): Fraction(c) for a, b, c in rows})
        for pair, rows in _SPIN7_PURE_ETAS.items()
    }
    return CatalogEntry(
        name="spin7_pure",
        kind="pure",
        spinor=phi,
        expected_etas=expected,
        expected_annihilator_dim=21,
    )


def build_spin7_reducing() -> CatalogEntry:
    """The rank-7 reducing spinor: eight terms +-1 with scale2 = 1/8 (unit
    norm); every induced 2-form is the basic e_k ^ e_l.  Its terms are the
    pure spinor's with the u-indices of terms 4 and 5 swapped."""
    terms = list(_SPIN7_PURE_TERMS)
    (s4, u4, v4), (s5, u5, v5) = terms[3:5]
    terms[3:5] = [(s4, u5, v4), (s5, u4, v5)]
    phi = _terms_to_spinor(terms, Fraction(1), Fraction(1, 8))
    expected = {pair: two_form_from_terms(8, {pair: Fraction(1)}) for pair in pairs(7)}
    return CatalogEntry(
        name="spin7_reducing",
        kind="reducing",
        spinor=phi,
        expected_etas=expected,
        expected_annihilator_dim=21,
    )


def build_generic_reducing(n: int) -> CatalogEntry:
    """The rank-n reducing spinor sum_eps u_eps (x) gamma(u_eps) in
    Delta_n (x) Delta_n, gamma the real/quaternionic structure of
    ``spinrep.gamma_apply``, stored at unit norm (scale2 = 2^-floor(n/2));
    the raw coefficient vector induces 2-forms 2^floor(n/2) e_p ^ e_q, the
    normalized spinor the basic ones."""
    check_indices("n", n)
    if not 2 <= n <= 8:
        raise UnsupportedDimension(f"supported range is 2 <= n <= 8, got {n}")
    coeffs: TwistedCoeffMap = {}
    for eps in all_basis_indices(n):
        ((target, _), c), = gamma_apply(basis_spinor(n, eps)).coeffs.items()
        coeffs[(eps, (target,))] = c
    phi = ScaledSpinor(n, n, 1, coeffs, Fraction(1, 2 ** (n // 2)))
    expected = {pair: two_form_from_terms(n, {pair: Fraction(1)}) for pair in pairs(n)}
    return CatalogEntry(
        name=f"generic(n={n})",
        kind="reducing",
        spinor=phi,
        expected_etas=expected,
    )


# The fourteen generators of the common annihilator of the two rank-7
# spinors; each is (pairs, signs) acting identically in both summands.
# The two-pair patterns group into seven classes of three aligned basis
# pairs, two independent generators per class.
_G2_ROWS: List[List[Tuple[int, int, int]]] = [
    [(1, 2, 1), (3, 4, -1)],
    [(1, 2, 1), (5, 6, 1)],
    [(1, 3, 1), (2, 4, 1)],
    [(1, 4, 1), (2, 3, -1)],
    [(1, 4, 1), (6, 7, 1)],
    [(2, 4, 1), (5, 7, -1)],
    [(1, 5, 1), (3, 7, -1)],
    [(1, 7, 1), (4, 6, 1)],
    [(2, 5, 1), (4, 7, 1)],
    [(1, 6, 1), (2, 5, 1)],
    [(1, 7, 1), (3, 5, 1)],
    [(2, 7, 1), (4, 5, -1)],
    [(2, 7, 1), (3, 6, 1)],
    [(1, 5, 1), (2, 6, -1)],
]


def g2_generators() -> List[AmbientElement]:
    """The 14 elements of spin(8) + spin(7) spanning the common annihilator
    of the two rank-7 catalog spinors."""
    maps = ({(i, j): Fraction(s) for i, j, s in rows} for rows in _G2_ROWS)
    return [AmbientElement(n=8, r=7, a=x, b=x) for x in maps]


# The quaternion units 1, i, j, k as signed 4x4 matrices, rows (a, b, sign).
_QUATERNION_UNITS: List[List[Tuple[int, int, int]]] = [
    [(1, 1, 1), (2, 2, 1), (3, 3, 1), (4, 4, 1)],
    [(1, 2, 1), (2, 1, -1), (3, 4, -1), (4, 3, 1)],
    [(1, 3, 1), (2, 4, 1), (3, 1, -1), (4, 2, -1)],
    [(1, 4, 1), (2, 3, -1), (3, 2, 1), (4, 1, -1)],
]


def beta_forms(m: int) -> List[TwoForm]:
    """The quaternionic-block 2-forms on R^(4m), one per quaternion unit
    1, i, j, k and index pair 1 <= i <= j <= m.

    An off-diagonal pair i < j takes each unit whole, as the real matrix of
    that unit acting between blocks i and j, so each form individually
    annihilates the rank-3 spinor.  A diagonal pair keeps the entries a < b:
    the unit 1 gives the degenerate zero form and i, j, k the three block
    complex structures."""
    check_indices("m", m)
    if not 1 <= m <= MAX_M:
        raise UnsupportedDimension(f"need 1 <= m <= {MAX_M}, got {m}")
    n = 4 * m
    out: List[TwoForm] = []
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            p, q = 4 * i - 4, 4 * j - 4
            out += [two_form_from_terms(n, {(p + a, q + b): Fraction(s)
                                            for a, b, s in unit if i < j or a < b})
                    for unit in _QUATERNION_UNITS]
    return out


def eta13_recursion_check(m: int) -> bool:
    """Verify the ladder action of the (1,3) 2-form on the graded sums
    psi_j:  eta13 . psi_j = -2 [ (j+1) psi_(j+1) + (j-1-m) psi_(j-1) ]."""
    form = build_qk_pure(m).expected_etas[(1, 3)]
    for j in range(m + 1):
        lhs = form_action(form, psi_level(m, j))
        rhs = psi_level(m, j + 1).scale(gr(-2 * (j + 1))) + \
            psi_level(m, j - 1).scale(gr(-2 * (j - 1 - m)))
        if lhs != rhs:
            return False
    return True


# name -> (builder, the dimension it takes: "m", "n" or None)
ENTRIES = {
    "qk": (build_qk_pure, "m"),
    "spin7_pure": (build_spin7_pure, None),
    "spin7_reducing": (build_spin7_reducing, None),
    "generic": (build_generic_reducing, "n"),
}


def build(name: str, *, m: Optional[int] = None, n: Optional[int] = None) -> CatalogEntry:
    """Build a catalog entry by name; qk needs m, generic needs n."""
    if not isinstance(name, str) or name not in ENTRIES:
        raise InvalidValue(f"unknown catalog name {name!r}")
    builder, dim = ENTRIES[name]
    value = {"m": m, "n": n}.get(dim)
    if dim and value is None:
        raise UnsupportedDimension(f"{name} needs --{dim}")
    return builder(value) if dim else builder()
