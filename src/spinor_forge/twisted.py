"""Twisted spinors: sparse elements of Delta_n (x) Delta_r^(x m).

A basis index is a pair (spin tuple, m twist tuples); the spin slot comes
first, then twist slots 1..m.  ``ScaledSpinor`` (defined in ``spinrep``, the
one spinor type; m = 0 is an untwisted spinor) carries an extra positive
rational ``scale2``: the represented spinor is sqrt(scale2) times the stored
coefficient vector, which keeps all arithmetic inside Q(i) while representing
irrational global normalizations exactly.  Every sesquilinear quantity is
multiplied by scale2; purely linear operations leave it untouched.

Everything here runs on the kernel layout and the signed flip records
(d, x, mask, mixed) that the ``spinrep`` docstring states, and builds
through its one walk ``spinrep._walk``.  ``_pair`` pairs one record: it
sums the integer <A.a, b>, each a_v against b_(v ^ d), with no image
built; ``twisted_hermitian`` and the reality identities
(``vanishing_identity_failures``) run on it.
A slot action (``tangent_action``, ``form_action_on_spin_slot``, ``mu_slot``,
``twisted_group_action``) clears its rational coefficients to integers
and walks its flips once (``_slot_acts``); a twist bivector f_k f_l reads
its m flips, one per slot, from a cache per (n, r, m, k, l)
(``_twist_acts``); and ``_bivector_map`` is the one bivector action of
spin(n) + spin(r) inside spin(n + r), f_k = e_(n+k), on integer terms
{(i, j): x} over pairs i < j, through which a 2-form
(``forms.form_action``), a Lie-algebra element
(``analysis.ambient_annihilates``), each certificate defect (eta_kl + c
f_kl) . phi (``analysis._certify``) and each column of the annihilator's
system act; a spin pair is one read of the pair table
``spinrep._pair_acts``.  None applies a generator.  A sesquilinear sum is
an int sum over D1 * D2.

``_induced(phi, images)`` is the other pairing and the one induced-form
pass, with its own grouping (a general one measured slower on eta): the
sums Re< w, e_a e_b . phi > of the induced forms (``forms``) for every
image w of one call.  The pair table grouped by d = f_a ^ f_b
(``_pattern_slots``) holds at d = 0 the k = n // 2 pairs (2j-1, 2j), four
pairs at each two-bit d and, for odd n, two at each one-bit d.  A pattern
flips spin bits only, so supp phi is grouped once per call by the bits
above the spin slot, and each u in supp w walks only u's group: each v
whose u ^ v is a pattern adds the signed real or imaginary part of
w_u conj(phi_v) to every pair of that pattern.  A twist pair (k, l) is
checked in one place, ``_check_twist_pair``, for ``twist_bivector_action``
(and through it ``forms.eta``) and for ``forms.phi_extend``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import IndexOutOfRange, ScaleMismatch, ShapeMismatch
from .linalg import _clear_denominators
from .scalars import GaussianRational, Rational, exact_rational
from .spinrep import (
    Flip,
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
    _walk,
    check_indices,
    check_sequence,
    spinor_dim_exponent,
)


def _twist_generator(phi: ScaledSpinor, slot: int, i: int, data: IntCoeffMap) -> IntCoeffMap:
    """kappa(f_i) on twist slot ``slot`` (1-based) of an integer coefficient
    map of phi's shape.  Nothing in ``src/`` calls it: every twist-slot
    action is a signed-flip walk (``_walk``).  It stays because
    ``bench/tracing.py`` counts it among the slot actions."""
    ks, kt = spinor_dim_exponent(phi.n), spinor_dim_exponent(phi.r)
    return _generator_on_map(data, *_shifted(_slot_unit(phi.r, i), 1, ks + (slot - 1) * kt))


def _shifted(flip: Flip, c: int, off: int) -> Flip:
    """c times the signed flip (d, x, mask, mixed) on a slot whose bits
    start at ``off``."""
    d, x, mask, mixed = flip
    return d << off, c * x, mask << off, mixed


# The identity as one signed flip: d = 0, x = 1, no mask, not mixed.
_IDENTITY: Flip = (0, 1, 0, 0)


def _pair(flip: Flip, a: IntCoeffMap, b: IntCoeffMap) -> Tuple[int, int]:
    """The integer <A.a, b> = sum_u (A a)_u conj(b_u), over the two maps'
    denominators, for one signed flip A = (d, x, mask, mixed) of ``_walk``.
    (A a)_(v ^ d) is a_v times (-1)^parity(v & mask) x, times i if mixed,
    so the signed a_v conj(b_(v ^ d)) = (pr qr + pi qi) + i (pi qr - pr qi)
    are summed and the sum is multiplied by x, or i x, once; no image of a
    is built; a sum of flips pairs as their ``_walk`` against the identity."""
    d, x, mask, mixed = flip
    sr = si = 0
    get = b.get
    for v, (pr, pi) in a.items():
        o = get(v ^ d)
        if o is not None:
            qr, qi = o
            if mask and (v & mask).bit_count() & 1:
                sr -= pr * qr + pi * qi
                si -= pi * qr - pr * qi
            else:
                sr += pr * qr + pi * qi
                si += pi * qr - pr * qi
    if mixed:  # i x (sr + i si)
        return -x * si, x * sr
    return x * sr, x * si


@cache
def _pattern_slots(n: int) -> Dict[int, Tuple[Tuple[int, int, bool, int], ...]]:
    """``spinrep._pair_acts(n)`` grouped by d, as {d: ((slot, mask, neg,
    mixed), ...)}: slot the place of (a, b) in the table's b-major order,
    and neg says x = -1."""
    groups: Dict[int, List[Tuple[int, int, bool, int]]] = {}
    for slot, (d, x, mask, mixed) in enumerate(_pair_acts(n).values()):
        groups.setdefault(d, []).append((slot, mask, x < 0, mixed))
    return {d: tuple(group) for d, group in groups.items()}


def _induced(phi: ScaledSpinor, images: Iterable[ScaledSpinor]
             ) -> List[Tuple[int, Dict[Tuple[int, int], int]]]:
    """(D_phi * D_w, the nonzero integer sums Re< w, e_a e_b . phi > over it,
    keyed (a, b), a < b) for each w of phi's shape in ``images``: supp phi
    is grouped once by the bits above the spin slot, which no pattern of
    ``_pattern_slots`` flips, and each v of u's group is looked up by u ^ v
    among the patterns."""
    n, k = phi.n, phi.n // 2
    keys, pattern = _pair_acts(n), _pattern_slots(n).get
    groups: Dict[int, List[Tuple[int, int, int]]] = {}
    for v, (pr, pi) in phi._data.items():
        groups.setdefault(v >> k, []).append((v, pr, pi))
    group, out = groups.get, []
    for w in images:
        acc = [0] * len(keys)
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
        out.append((phi._den * w._den, {ab: x for ab, x in zip(keys, acc) if x}))
    return out


@lru_cache(maxsize=1 << 12)  # per shape and pair; f_k f_k = -1 on every slot
def _twist_acts(n: int, r: int, m: int, k: int, l: int) -> Tuple[Flip, ...]:
    """The m signed flips of f_k f_l (any k, l in 1..r) on the twist slots
    of shape (n, r, m): ``_monomial(r, (k, l))`` with d and mask shifted to
    each slot's bits."""
    ks, kt = spinor_dim_exponent(n), spinor_dim_exponent(r)
    flip = _monomial(r, (k, l))
    return tuple(_shifted(flip, 1, ks + a * kt) for a in range(m))


def _bivector_map(phi: ScaledSpinor, terms: Mapping[Tuple[int, int], int]) -> IntCoeffMap:
    """sum x e_i e_j . phi over the integer terms {(i, j): x}, i < j pairs
    of spin(n + r) with f_k = e_(n+k), as an integer map over phi's
    denominator; the layout of ``AmbientElement._terms``.

    A spin pair (j <= n) is one read of the pair table
    ``spinrep._pair_acts(n)``; a twist pair (n + k, n + l) reads the m
    signed flips of f_k f_l (``_twist_acts``).  Each flip's sign times x
    is its integer, and all the flips go to one ``_walk``."""
    n, flips = phi.n, []
    spin = _pair_acts(n)
    for (i, j), x in terms.items():
        if not x:
            continue
        if j <= n:
            d, s, mask, mixed = spin[(i, j)]
            flips.append((d, s * x, mask, mixed))
        else:
            flips.extend([(d, s * x, mask, mixed)
                          for d, s, mask, mixed in _twist_acts(n, phi.r, phi.m, i - n, j - n)])
    return _walk(flips, phi._data)


def _on_slot(phi: ScaledSpinor, slot: int,
             terms: Iterable[Tuple[Tuple[int, ...], Rational]]) -> ScaledSpinor:
    """sum c e_(i1)...e_(is) . phi over (factors, c) terms on slot ``slot``
    (0 = Delta_n): one ``_walk`` of the flips of ``_slot_acts``."""
    den, flips = _slot_acts(phi, slot, terms)
    return phi._with(phi._den * den, _walk(flips, phi._data))


def _slot_acts(phi: ScaledSpinor, slot: int, terms: Iterable[Tuple[Tuple[int, ...], Rational]]
               ) -> Tuple[int, List[Flip]]:
    """(den, flips) of sum c e_(i1)...e_(is) over (factors, c) terms on slot
    ``slot`` of phi's shape: each product is the signed flip ``_monomial``,
    shifted to the slot's bits, and each c is cleared to an integer over
    den, the lcm of the denominators."""
    dim = phi.r if slot else phi.n
    off = spinor_dim_exponent(phi.n) + (slot - 1) * spinor_dim_exponent(phi.r) if slot else 0
    parts = []
    for factors, c in terms:
        if factors and not 1 <= factors[0] <= factors[-1] <= dim:
            raise IndexOutOfRange(f"factors {factors} outside 1..{dim}")
        if c:
            parts.append((factors, c))
    den = math.lcm(*(c.denominator for _, c in parts))
    return den, [_shifted(_monomial(dim, tuple(factors)), c.numerator * (den // c.denominator), off)
                 for factors, c in parts]


def _vector_terms(X: Sequence[Rational]) -> list:
    return [((j,), c) for j, x in enumerate(X, start=1)
            if (c := x if type(x) is Fraction else exact_rational(x))]


def tangent_action(X: Sequence[Rational], phi: ScaledSpinor) -> ScaledSpinor:
    """Clifford action of the tangent vector sum(X_j e_j) on the Delta_n slot."""
    if len(check_sequence("vector", X)) != phi.n:
        raise ShapeMismatch(f"vector of length {len(X)} in R^{phi.n}")
    return _on_slot(phi, 0, _vector_terms(X))


def form_action_on_spin_slot(terms: Iterable[FormTerm], phi: ScaledSpinor) -> ScaledSpinor:
    """A sum of basis Clifford products over R^n acting on the Delta_n slot."""
    return _on_slot(phi, 0, ((t.factors, t.coeff) for t in terms))


def mu_slot(a: int, omega: Iterable[FormTerm], phi: ScaledSpinor) -> ScaledSpinor:
    """Clifford multiplication by omega in twist slot a only."""
    check_indices("twist slot", a)
    if not 1 <= a <= phi.m:
        raise IndexOutOfRange(f"twist slot {a} outside 1..{phi.m}")
    return _on_slot(phi, a, ((t.factors, t.coeff) for t in omega))


def _check_twist_pair(phi: ScaledSpinor, k: int, l: int) -> None:
    """The one check of a twist pair: k and l ints (bools refused) in 1..r."""
    check_indices("twist index", k, l)
    if not (1 <= k <= phi.r and 1 <= l <= phi.r):
        raise IndexOutOfRange(f"twist indices ({k},{l}) outside 1..{phi.r}")


def twist_bivector_action(k: int, l: int, phi: ScaledSpinor) -> ScaledSpinor:
    """The bivector f_k f_l acting as the sum of its m slot actions, from
    the cached flips ``_twist_acts``: f_k f_l = -f_l f_k, and f_k f_k = -1
    on every slot."""
    _check_twist_pair(phi, k, l)
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
    must be rational (always true for equal scales); the sum is ``_pair``
    of the identity flip."""
    if phi1.shape() != phi2.shape():
        raise ShapeMismatch(f"shapes {phi1.shape()} and {phi2.shape()} differ")
    if phi1.scale2 == phi2.scale2:
        pref = phi1.scale2
    else:
        pref = _rational_sqrt(phi1.scale2 * phi2.scale2)
        if pref is None:
            raise ScaleMismatch(
                f"sqrt({phi1.scale2} * {phi2.scale2}) is irrational")
    re, im = _pair(_IDENTITY, phi1._data, phi2._data)
    den = pref.denominator * phi1._den * phi2._den
    return GaussianRational(Fraction(pref.numerator * re, den) if re else _ZERO,
                            Fraction(pref.numerator * im, den) if im else _ZERO)


def norm2(phi: ScaledSpinor) -> Fraction:
    """|phi|^2 = scale2 * sum |coeff|^2."""
    return _norm2(phi.scale2, phi._den, phi._data)


def _norm2(scale2: Fraction, den: int, data: IntCoeffMap) -> Fraction:
    return Fraction(scale2.numerator * sum(re * re + im * im for re, im in data.values()),
                    scale2.denominator * den * den)


def vanishing_identity_failures(
    phi: ScaledSpinor,
    x: Sequence[Rational],
    y: Sequence[Rational],
    quads: Sequence[Sequence[Tuple[int, int, int, int]]],
) -> int:
    """The number of failing instances of the reality identities of phi for
    tangent vectors X, Y and each twist pair k < l, in ``combinations``
    order, with ``quads`` the quadruples 1 <= a < b < c < d <= n of each
    pair in that order: (1) Re<kappa(f_kl) phi, phi> = 0, (2) Re<X^Y phi,
    phi> = 0, (3) Im<X^Y kappa(f_kl) phi, phi> = 0, (4) Re<X phi, Y phi> =
    <X, Y>|phi|^2 and (5) Re<e_abcd kappa(f_kl) phi, phi> = 0.

    Each is one integer ``_pair`` of one flip, so no spinor and no Fraction
    is built per instance.  X and Y are cleared to integers X', Y' over one
    d; then X^Y phi = (X'Y' phi + <X', Y'> phi) / d^2, and every side of an
    identity carries the same positive factor scale2 / (D d)^2, which drops
    out.  Each twist pair walks w = kappa(f_kl) phi once: (1) is Re<w, phi>,
    and since kappa(f_kl) is skew-adjoint and commutes with X^Y (spin slot),
    (3) is -Im<X^Y phi, w>."""
    n, r, m = phi.shape()
    if len(check_sequence("vector", x)) != n or len(check_sequence("vector", y)) != n:
        raise ShapeMismatch(f"vectors of lengths {len(x)}, {len(y)} in R^{n}")
    if len(check_sequence("quadruple lists", quads)) != r * (r - 1) // 2:
        raise ShapeMismatch(f"{len(quads)} quadruple lists for {r * (r - 1) // 2} twist pairs")
    for qs in quads:
        for quad in check_sequence("quadruple list", qs):
            check_indices("quadruple index", *check_sequence("quadruple", quad))
            if len(quad) != 4 or not 1 <= quad[0] < quad[1] < quad[2] < quad[3] <= n:
                raise IndexOutOfRange(f"quadruple {tuple(quad)} is not 1 <= a < b < c < d <= {n}")
    (xs, ys), _ = _clear_denominators([[exact_rational(c) for c in v] for v in (x, y)])
    data = phi._data
    ax = _slot_acts(phi, 0, [((j,), c) for j, c in enumerate(xs, 1)])[1]
    ay = _slot_acts(phi, 0, [((j,), c) for j, c in enumerate(ys, 1)])[1]
    x_phi, y_phi = _walk(ax, data), _walk(ay, data)
    dot = sum(a * b for a, b in zip(xs, ys))
    wedge = _walk(ax, y_phi)  # X^Y acts as X.Y + <X, Y>
    if dot:
        _merge(wedge, data, dot)
    norm, _ = _pair(_IDENTITY, data, data)
    failures = _pair(_IDENTITY, wedge, data)[0] != 0
    failures += _pair(_IDENTITY, x_phi, y_phi)[0] != dot * norm
    for (k, l), qs in zip(combinations(range(1, r + 1), 2), quads):
        w = _walk(_twist_acts(n, r, m, k, l), data)
        failures += _pair(_IDENTITY, w, data)[0] != 0
        failures += _pair(_IDENTITY, wedge, w)[1] != 0
        for quad in qs:
            failures += _pair(_monomial(n, tuple(quad)), w, data)[0] != 0
    return failures
