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
+1) and int (re, im) pairs over one denominator D per spinor.  Every
Clifford monomial on a slot is one signed flip, ``spinrep._monomial``:
(d, mask, phase), folded right to left from the generators' flips, with
phi_v going to v ^ d times (-1)^parity(v & mask) i^phase; a twist slot
shifts d and mask to its bits.  ``_walk`` is the one kernel: it takes the
flips grouped by d, each sign folded into an integer coefficient, and
walks phi once per distinct d.  A slot action (``tangent_action``,
``form_action_on_spin_slot``, ``mu_slot``, ``twisted_group_action``)
clears its rational coefficients to integers and makes one walk per
distinct flip; a twist bivector f_k f_l reads its acts on all m slots
from a cache per (n, r, m, k, l) (``_twist_acts``); and
``_bivector_map`` is the one bivector action of spin(n) + spin(r) inside
spin(n + r), f_k = e_(n+k), on integer terms {(i, j): x} over pairs
i < j, through which a 2-form (``forms.form_action``), a Lie-algebra
element (``analysis.ambient_annihilates``) and each column of the
annihilator's system act; a spin pair is one read of the pair table
``spinrep._pair_acts``.  None applies a generator.  A sesquilinear sum
is an int sum over D1 * D2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import IndexOutOfRange, ScaleMismatch, ShapeMismatch
from .scalars import GaussianRational, Rational, exact_rational
from .spinrep import (
    FormTerm,
    IntCoeffMap,
    ScaledSpinor,
    _check_unit_vectors,
    _generator_on_map,
    _merge,
    _monomial,
    _pair_acts,
    _slot_unit,
    _spin_generator,  # kept only for bench/tracing.py, which counts it as a slot action
    spinor_dim_exponent,
)


def _twist_generator(phi: ScaledSpinor, slot: int, i: int, data: IntCoeffMap) -> IntCoeffMap:
    """kappa(f_i) on twist slot ``slot`` (1-based) of an integer coefficient
    map of phi's shape.  Nothing in ``src/`` calls it: every twist-slot
    action is a signed-flip walk (``_walk``).  It stays because
    ``bench/tracing.py`` counts it among the slot actions."""
    ks, kt = spinor_dim_exponent(phi.n), spinor_dim_exponent(phi.r)
    return _generator_on_map(data, *_slot_unit(ks + (slot - 1) * kt, phi.r, i))


# One signed flip in a walk: (x, mask, mixed) sends phi_v to v ^ d times
# (-1)^parity(v & mask) x, times i if mixed; x is an int with the sign of
# i^phase folded in.  Acts are grouped by d, as (d, acts) pairs.
Act = Tuple[int, int, int]
Acts = Iterable[Tuple[int, Sequence[Act]]]


def _add_act(acts: Dict[int, List[Act]], flip: Tuple[int, int, int], x: int, off: int = 0) -> None:
    """Add x times the signed flip (d, mask, phase) of ``_monomial``, on a
    slot whose bits start at ``off``, to acts."""
    d, mask, phase = flip
    acts.setdefault(d << off, []).append((-x if phase & 2 else x, mask << off, phase & 1))


def _walk(acts: Acts, data: IntCoeffMap) -> IntCoeffMap:
    """The one kernel: sum over the acts (d, [(x, mask, mixed), ...]) on an
    integer map, over the same denominator.  One walk over data per d: the
    signed x of d's acts sum to cr + i ci, and (cr + i ci) data_v goes to
    v ^ d (a lone act is a unit multiple of x, so nothing cancels in it).
    v -> v ^ d is one-to-one, so the first d's image is the sum so far, and
    each later one is merged in; cancelled entries are dropped.  No
    generator is applied."""
    acc: IntCoeffMap = {}
    for d, entries in acts:
        if len(entries) == 1:
            [(x, mask, mixed)] = entries
            neg = -x
            if mixed:  # i x (pr + i pi) = (-x pi, x pr)
                img = {v ^ d: (x * pi, neg * pr) if (v & mask).bit_count() & 1
                       else (neg * pi, x * pr) for v, (pr, pi) in data.items()}
            else:
                img = {v ^ d: (neg * pr, neg * pi) if (v & mask).bit_count() & 1
                       else (x * pr, x * pi) for v, (pr, pi) in data.items()}
        else:
            img = {}
            for v, (pr, pi) in data.items():
                cr = ci = 0
                for x, mask, mixed in entries:
                    if (v & mask).bit_count() & 1:
                        x = -x
                    if mixed:
                        ci += x
                    else:
                        cr += x
                if cr or ci:
                    img[v ^ d] = (cr * pr - ci * pi, cr * pi + ci * pr)
        if acc:
            _merge(acc, img)
        else:
            acc = img
    return acc


@lru_cache(maxsize=1 << 12)  # per shape and pair; f_k f_k = -1 on every slot
def _twist_acts(n: int, r: int, m: int, k: int, l: int) -> Tuple[Tuple[int, Tuple[Act, ...]], ...]:
    """The acts of f_k f_l (any k, l in 1..r) on all m twist slots of shape
    (n, r, m): ``_monomial(r, (k, l))`` with d and mask shifted to each
    slot's bits, its sign folded into x = +-1."""
    ks, kt = spinor_dim_exponent(n), spinor_dim_exponent(r)
    acts: Dict[int, List[Act]] = {}
    for a in range(m):
        _add_act(acts, _monomial(r, (k, l)), 1, ks + a * kt)
    return tuple((d, tuple(entries)) for d, entries in acts.items())


def _bivector_map(phi: ScaledSpinor, terms: Mapping[Tuple[int, int], int],
                  data: IntCoeffMap) -> IntCoeffMap:
    """sum x e_i e_j over the integer terms {(i, j): x}, i < j pairs of
    spin(n + r) with f_k = e_(n+k), on an integer map of phi's shape, over
    the same denominator; the layout of ``AmbientElement._terms``.

    A spin pair (j <= n) is one read of the pair table
    ``spinrep._pair_acts(n)``, its sign already folded; a twist pair
    (n + k, n + l) reads the acts of f_k f_l on all m slots
    (``_twist_acts``).  Each act's sign times x is its integer, and the
    acts are grouped by d for one ``_walk``."""
    n, acts = phi.n, {}
    spin = _pair_acts(n)
    for (i, j), x in terms.items():
        if not x:
            continue
        if j <= n:
            d, s, mask, mixed = spin[(i, j)]
            acts.setdefault(d, []).append((s * x, mask, mixed))
        else:
            for d, entries in _twist_acts(n, phi.r, phi.m, i - n, j - n):
                acts.setdefault(d, []).extend([(s * x, mask, mixed) for s, mask, mixed in entries])
    return _walk(acts.items(), data)


def _on_slot(phi: ScaledSpinor, slot: int,
             terms: Iterable[Tuple[Tuple[int, ...], Rational]]) -> ScaledSpinor:
    """sum c e_(i1)...e_(is) . phi over (factors, c) terms on slot ``slot``
    (0 = Delta_n): each product is the signed flip ``_monomial``, shifted
    to the slot's bits, and the coefficients are cleared to integers over
    their lcm; then one ``_walk`` over phi per distinct flip d."""
    dim = phi.r if slot else phi.n
    off = spinor_dim_exponent(phi.n) + (slot - 1) * spinor_dim_exponent(phi.r) if slot else 0
    parts = []
    for factors, c in terms:
        if factors and not 1 <= factors[0] <= factors[-1] <= dim:
            raise IndexOutOfRange(f"factors {factors} outside 1..{dim}")
        if c:
            parts.append((factors, c))
    den = math.lcm(*(c.denominator for _, c in parts))
    acts: Dict[int, List[Act]] = {}
    for factors, c in parts:
        _add_act(acts, _monomial(dim, tuple(factors)), c.numerator * (den // c.denominator), off)
    return phi._with(phi._den * den, _walk(acts.items(), phi._data))


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
    """The bivector f_k f_l acting as the sum of its m slot actions, from
    the cached acts ``_twist_acts``: f_k f_l = -f_l f_k, and f_k f_k = -1
    on every slot."""
    if not (1 <= k <= phi.r and 1 <= l <= phi.r):
        raise IndexOutOfRange(f"bivector indices ({k},{l}) outside 1..{phi.r}")
    return phi._with(phi._den, _walk(_twist_acts(phi.n, phi.r, phi.m, k, l), phi._data))


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


_ZERO = Fraction(0)


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
    return GaussianRational(Fraction(pref.numerator * re, den) if re else _ZERO,
                            Fraction(pref.numerator * im, den) if im else _ZERO)


def norm2(phi: ScaledSpinor) -> Fraction:
    """|phi|^2 = scale2 * sum |coeff|^2."""
    return _norm2(phi.scale2, phi._den, phi._data)


def _norm2(scale2: Fraction, den: int, data: IntCoeffMap) -> Fraction:
    return Fraction(scale2.numerator * sum(re * re + im * im for re, im in data.values()),
                    scale2.denominator * den * den)

