"""Twisted spinors: sparse elements of Delta_n (x) Delta_r^(x m).

A basis index is a pair (spin tuple, m twist tuples); the spin slot comes
first, then twist slots 1..m.  ``ScaledSpinor`` (defined in ``spinrep``, the
one spinor type; m = 0 is an untwisted spinor) carries an extra positive
rational ``scale2``: the represented spinor is sqrt(scale2) times the stored
coefficient vector, which keeps all arithmetic inside Q(i) while representing
irrational global normalizations exactly.  Every sesquilinear quantity is
multiplied by scale2; purely linear operations leave it untouched.

Everything here runs on the kernel layout of ``spinrep``: an int index per
basis vector (spin bits lowest, then each twist slot's, a set bit meaning
+1) and int (re, im) pairs over one denominator D per spinor.  A twist
generator flips one bit of its slot, signed by the parity of the slot's
bits below it.  ``_bivector_map`` is the one bivector action of
spin(n) + spin(r) inside spin(n + r), f_k = e_(n+k): it takes integer
terms {(i, j): x} over pairs i < j, reads a spin pair's entry of the sign
table ``spinrep._pair_patterns`` for dim = n and a twist pair's for
dim = r, shifted to each slot's bits, and walks the data once per XOR
pattern.  A twist bivector f_k f_l (``twist_bivector_action``), a 2-form
(``forms.form_action``) and a Lie-algebra element
(``analysis.ambient_annihilates``) all act through it.  A sesquilinear sum
is an int sum over D1 * D2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from .errors import IndexOutOfRange, ScaleMismatch, ShapeMismatch
from .scalars import GaussianRational, Rational, exact_rational, gr
from .spinrep import (
    FormTerm,
    IntCoeffMap,
    ScaledSpinor,
    _check_unit_vectors,
    _generator_on_map,
    _lincomb,
    _pair_index,
    _slot_unit,
    _spin_generator,
    spinor_dim_exponent,
)


def _twist_generator(phi: ScaledSpinor, slot: int, i: int, data: IntCoeffMap) -> IntCoeffMap:
    """kappa(f_i) on twist slot ``slot`` (1-based) of an integer coefficient
    map of phi's shape."""
    ks, kt = spinor_dim_exponent(phi.n), spinor_dim_exponent(phi.r)
    return _generator_on_map(data, *_slot_unit(ks + (slot - 1) * kt, phi.r, i))


def _bivector_map(phi: ScaledSpinor, terms: Mapping[Tuple[int, int], int],
                  data: IntCoeffMap) -> IntCoeffMap:
    """sum x e_i e_j over the integer terms {(i, j): x}, i < j pairs of
    spin(n + r) with f_k = e_(n+k), on an integer map of phi's shape, over
    the same denominator; the layout of ``AmbientElement._terms``.

    A spin pair (j <= n) reads its entry of ``_pair_index(n)``; a twist
    pair (n + k, n + l) reads the entry of (k, l) in ``_pair_index(r)``,
    its d and mask shifted to each of the m slots, so it acts on all of
    them.  The sign of each entry is folded into x once, and the entries
    are grouped by d.  Then one walk over data per d: the x of the
    pattern's entries, signed by the parity of v & mask, sum to cr + i ci,
    and (cr + i ci) data_v goes to v ^ d.  No generator is applied."""
    n, acts = phi.n, {}
    spin = twist = None
    for (i, j), x in terms.items():
        if j <= n:
            if spin is None:
                spin = _pair_index(n)
            d, mask, sign, mixed = spin[(i, j)]
            acts.setdefault(d, []).append((-x if sign else x, mask, mixed))
        else:
            if twist is None:
                twist = _pair_index(phi.r)
                ks, kt = spinor_dim_exponent(n), spinor_dim_exponent(phi.r)
                offsets = range(ks, ks + phi.m * kt, kt)
            d, mask, sign, mixed = twist[(i - n, j - n)]
            for off in offsets:
                acts.setdefault(d << off, []).append((-x if sign else x, mask << off, mixed))
    acc: IntCoeffMap = {}
    get = acc.get
    for d, entries in acts.items():
        for v, (pr, pi) in data.items():
            cr = ci = 0
            for x, mask, mixed in entries:
                if (v & mask).bit_count() & 1:
                    x = -x
                if mixed:
                    ci += x
                else:
                    cr += x
            if not (cr or ci):
                continue
            u, re, im = v ^ d, cr * pr - ci * pi, cr * pi + ci * pr
            s = get(u)
            if s is not None:
                re, im = re + s[0], im + s[1]
                if not (re or im):
                    del acc[u]
                    continue
            acc[u] = (re, im)
    return acc


def _on_slot(phi: ScaledSpinor, slot: int,
             terms: Iterable[Tuple[Tuple[int, ...], Rational]]) -> ScaledSpinor:
    """sum c e_(i1)...e_(is) . phi over (factors, c) terms on slot ``slot`` (0 = Delta_n)."""
    dim = phi.r if slot else phi.n
    parts = []
    for factors, c in terms:
        if factors and not 1 <= factors[0] <= factors[-1] <= dim:
            raise IndexOutOfRange(f"factors {factors} outside 1..{dim}")
        cur = phi._data
        for gen in reversed(factors):
            cur = _twist_generator(phi, slot, gen, cur) if slot else _spin_generator(phi, gen, cur)
        parts.append((c, phi._den, cur))
    return phi._with(*_lincomb(parts))


def _vector_terms(X: Sequence[Rational]) -> list:
    return [((j,), c) for j, x in enumerate(X, start=1)
            if (c := x if type(x) is Fraction else exact_rational(x))]


def tangent_action(X: Sequence[Rational], phi: ScaledSpinor) -> ScaledSpinor:
    """Clifford action of the tangent vector sum(X_j e_j) on the Delta_n slot."""
    if len(X) != phi.n:
        raise ShapeMismatch(f"vector of length {len(X)} in R^{phi.n}")
    return _on_slot(phi, 0, _vector_terms(X))


def form_action_on_spin_slot(terms: Iterable[FormTerm], phi: ScaledSpinor) -> ScaledSpinor:
    """A sum of basis Clifford products over R^n acting on the Delta_n slot."""
    return _on_slot(phi, 0, ((t.factors, t.coeff) for t in terms))


def mu_slot(a: int, omega: Iterable[FormTerm], phi: ScaledSpinor) -> ScaledSpinor:
    """Clifford multiplication by omega in twist slot a only."""
    if not 1 <= a <= phi.m:
        raise IndexOutOfRange(f"twist slot {a} outside 1..{phi.m}")
    return _on_slot(phi, a, ((t.factors, t.coeff) for t in omega))


def twist_bivector_action(k: int, l: int, phi: ScaledSpinor) -> ScaledSpinor:
    """The bivector f_k f_l acting as the sum of its m slot actions:
    f_k f_l = -f_l f_k, and f_k f_k = -1 on every slot."""
    if not (1 <= k <= phi.r and 1 <= l <= phi.r):
        raise IndexOutOfRange(f"bivector indices ({k},{l}) outside 1..{phi.r}")
    if k == l:
        return phi.scale(gr(-phi.m))
    n = phi.n
    terms = {(n + k, n + l): 1} if k < l else {(n + l, n + k): -1}
    return phi._with(phi._den, _bivector_map(phi, terms, phi._data))


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
            out = _on_slot(out, a, _vector_terms(y))
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
    if phi1.shape() != phi2.shape():
        raise ShapeMismatch(f"shapes {phi1.shape()} and {phi2.shape()} differ")
    if phi1.scale2 == phi2.scale2:
        pref = phi1.scale2
    else:
        pref = _rational_sqrt(phi1.scale2 * phi2.scale2)
        if pref is None:
            raise ScaleMismatch(
                f"sqrt({phi1.scale2} * {phi2.scale2}) is irrational")
    # sum c1 * conj(c2) = sum (a1 a2 + b1 b2) + i (b1 a2 - a1 b2)
    re = im = 0
    other = phi2._data
    for idx, (a1, b1) in phi1._data.items():
        o = other.get(idx)
        if o is not None:
            re += a1 * o[0] + b1 * o[1]
            im += b1 * o[0] - a1 * o[1]
    den = pref.denominator * phi1._den * phi2._den
    return GaussianRational(Fraction(pref.numerator * re, den), Fraction(pref.numerator * im, den))


def norm2(phi: ScaledSpinor) -> Fraction:
    """|phi|^2 = scale2 * sum |coeff|^2."""
    return _norm2(phi.scale2, phi._den, phi._data)


def _norm2(scale2: Fraction, den: int, data: IntCoeffMap) -> Fraction:
    return Fraction(scale2.numerator * sum(re * re + im * im for re, im in data.values()),
                    scale2.denominator * den * den)

