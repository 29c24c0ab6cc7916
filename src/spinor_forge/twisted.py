"""Twisted spinors: sparse elements of Delta_n (x) Delta_r^(x m).

A basis index is a pair (spin tuple, m twist tuples); the spin slot comes
first, then twist slots 1..m.  ``ScaledSpinor`` (defined in ``spinrep``, the
one spinor type; m = 0 is an untwisted spinor) carries an extra positive
rational ``scale2``: the represented spinor is sqrt(scale2) times the stored
coefficient vector, which keeps all arithmetic inside Q(i) while representing
irrational global normalizations exactly.  Every sesquilinear quantity is
multiplied by scale2; purely linear operations leave it untouched.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import IndexOutOfRange, ScaleMismatch, ShapeMismatch
from .scalars import GR_ZERO, GaussianRational, Rational, exact_rational
from .spinrep import (
    FormTerm,
    ScaledSpinor,
    TwistedCoeffMap,
    _check_unit_vectors,
    _generator_on_map,
    _merge,
    _spin_generator,
)


def _check_shapes(a: ScaledSpinor, b: ScaledSpinor) -> None:
    if a.shape() != b.shape():
        raise ShapeMismatch(f"shapes {a.shape()} and {b.shape()} differ")


def _twist_generator(phi: ScaledSpinor, slot: int, i: int,
                     coeffs: TwistedCoeffMap) -> TwistedCoeffMap:
    """kappa(f_i) on twist slot ``slot`` (1-based) of a raw coefficient map."""
    a = slot - 1
    grouped: Dict[Tuple, Dict[Tuple[int, ...], GaussianRational]] = {}
    for (spin, twist), c in coeffs.items():
        key = (spin, twist[:a], twist[a + 1 :])
        grouped.setdefault(key, {})[twist[a]] = c
    out: TwistedCoeffMap = {}
    for (spin, head, tail), sub in grouped.items():
        for t, c in _generator_on_map(phi.r, i, sub).items():
            out[(spin, head + (t,) + tail)] = c
    return out


def tangent_action(X: Sequence[Rational], phi: ScaledSpinor) -> ScaledSpinor:
    """Clifford action of the tangent vector sum(X_j e_j) on the Delta_n slot."""
    if len(X) != phi.n:
        raise ShapeMismatch(f"vector of length {len(X)} in R^{phi.n}")
    acc: TwistedCoeffMap = {}
    for j, c in enumerate(X, start=1):
        cf = exact_rational(c)
        if not cf:
            continue
        _merge(acc, _spin_generator(phi, j, phi.coeffs), cf)
    return phi.with_coeffs(acc)


def form_action_on_spin_slot(terms: Iterable[FormTerm], phi: ScaledSpinor) -> ScaledSpinor:
    """A sum of basis Clifford products over R^n acting on the Delta_n slot."""
    acc: TwistedCoeffMap = {}
    for term in terms:
        if term.factors and not 1 <= term.factors[0] <= term.factors[-1] <= phi.n:
            raise IndexOutOfRange(f"factors {term.factors} outside 1..{phi.n}")
        cur = phi.coeffs
        for gen in reversed(term.factors):
            cur = _spin_generator(phi, gen, cur)
        _merge(acc, cur, term.coeff)
    return phi.with_coeffs(acc)


def mu_slot(a: int, omega: Iterable[FormTerm], phi: ScaledSpinor) -> ScaledSpinor:
    """Clifford multiplication by omega in twist slot a only."""
    if not 1 <= a <= phi.m:
        raise IndexOutOfRange(f"twist slot {a} outside 1..{phi.m}")
    acc: TwistedCoeffMap = {}
    for term in omega:
        if term.factors and not 1 <= term.factors[0] <= term.factors[-1] <= phi.r:
            raise IndexOutOfRange(f"factors {term.factors} outside 1..{phi.r}")
        cur = phi.coeffs
        for gen in reversed(term.factors):
            cur = _twist_generator(phi, a, gen, cur)
        _merge(acc, cur, term.coeff)
    return phi.with_coeffs(acc)


def twist_bivector_action(k: int, l: int, phi: ScaledSpinor) -> ScaledSpinor:
    """The bivector f_k f_l acting as the sum of its m slot actions."""
    if not (1 <= k <= phi.r and 1 <= l <= phi.r):
        raise IndexOutOfRange(f"bivector indices ({k},{l}) outside 1..{phi.r}")
    acc: TwistedCoeffMap = {}
    for a in range(1, phi.m + 1):
        cur = _twist_generator(phi, a, l, phi.coeffs)
        cur = _twist_generator(phi, a, k, cur)
        _merge(acc, cur)
    return phi.with_coeffs(acc)


def twisted_group_action(
    g_vectors: Sequence[Sequence[Rational]],
    h_vectors: Sequence[Sequence[Rational]],
    phi: ScaledSpinor,
) -> ScaledSpinor:
    """Action of [g, h]: g on the Delta_n slot, h diagonally on all twist slots."""
    g_clean = _check_unit_vectors(phi.n, g_vectors)
    h_clean = _check_unit_vectors(phi.r, h_vectors)
    out = phi
    for x in reversed(g_clean):
        out = tangent_action(x, out)
    for a in range(1, phi.m + 1):
        for y in reversed(h_clean):
            acc: TwistedCoeffMap = {}
            for j, c in enumerate(y, start=1):
                if not c:
                    continue
                _merge(acc, _twist_generator(out, a, j, out.coeffs), c)
            out = out.with_coeffs(acc)
    return out


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    pn, pd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def twisted_hermitian(phi1: ScaledSpinor, phi2: ScaledSpinor) -> GaussianRational:
    """<phi1, phi2> including the sqrt(scale2_1 * scale2_2) prefactor, which
    must be rational (always true for equal scales)."""
    _check_shapes(phi1, phi2)
    if phi1.scale2 == phi2.scale2:
        pref = phi1.scale2
    else:
        pref = _rational_sqrt(phi1.scale2 * phi2.scale2)
        if pref is None:
            raise ScaleMismatch(
                f"sqrt({phi1.scale2} * {phi2.scale2}) is irrational")
    acc = GR_ZERO
    small, big = phi1.coeffs, phi2.coeffs
    if len(big) < len(small):
        for idx, c in big.items():
            o = small.get(idx)
            if o is not None:
                acc = acc + o * c.conj()
    else:
        for idx, c in small.items():
            o = big.get(idx)
            if o is not None:
                acc = acc + c * o.conj()
    return acc * pref


def norm2(phi: ScaledSpinor) -> Fraction:
    """|phi|^2 = scale2 * sum |coeff|^2."""
    return phi.scale2 * sum((c.norm2() for c in phi.coeffs.values()), Fraction(0))


def from_untwisted(psi: ScaledSpinor, r: int, m: int = 0,
                   twist: Tuple[Tuple[int, ...], ...] = ()) -> ScaledSpinor:
    """Embed an untwisted (m = 0) spinor, optionally tensored with fixed twist
    basis vectors (one tuple per slot); scale2 is kept."""
    if psi.m:
        raise ShapeMismatch(f"need an untwisted (m = 0) spinor, got m = {psi.m}")
    if len(twist) != m:
        raise ShapeMismatch("need one twist index per slot")
    return ScaledSpinor(psi.n, r, m, {(eps, twist): c for (eps, _), c in psi.coeffs.items()},
                        psi.scale2)
