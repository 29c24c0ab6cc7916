"""The spin representation on Delta_n = C^(2^k), k = floor(n/2), and the
one spinor type, ``ScaledSpinor``: an element of Delta_n (x) Delta_r^(x m)
(see ``twisted``); an untwisted spinor is its m = 0 case.

Basis vectors are indexed by sign tuples eps in {+1,-1}^k, leftmost entry =
leftmost tensor factor of (C^2)^(x k).  Generator e_(2j-1) (resp. e_(2j))
is g1 (resp. g2) in factor k-j+1 with T's to its right, and for odd n the
last generator is i*(T x ... x T), where

    g1. u_eps = i . u_(-eps)    g2. u_eps = eps . u_(-eps)    T . u_eps = -eps . u_eps

Kernel layout.  A basis index (spin, twist_1, ..., twist_m) is one int: the
spin slot's bits lowest, then each twist slot's bits in slot order; within
a slot the tuple's last entry is the lowest bit, and a set bit means +1.
So e_(2j-1) and e_(2j) of any slot flip the slot's bit j-1, with the sign
from the parity p (``int.bit_count``) of the in-slot tail mask, the slot's
bits below j-1:

    e_(2j-1): c -> (-1)^p i c        e_(2j): c -> -(-1)^(p + bit j-1) c

and the odd-dimension generator flips nothing and gives (-1)^p i c with p
the parity of the whole slot.  So every Clifford monomial e_(i1)...e_(is)
on a slot is one signed flip (``_monomial``): phi_v goes to v ^ d times
(-1)^parity(v & mask) i^phase.  Composition rule: the factors act right
to left, and a generator (f, m) applied after (d, mask, phase) reads its
parity at v ^ d, so d ^= f, mask ^= m and phase += 2 parity(d & m) + 1
(g1, odd generator) or + 2 (g2), the parity taken before d moves.  The
products e_a e_b, a < b, have one table, ``_pair_acts``: each pair's
flip with its sign folded into x = +-1, which induced forms, 2-forms and
annihilator columns read.  A slot action (``twisted._walk``) walks phi
once per distinct flip d, and nothing of size 2^k x 2^k is built.
Coefficients are (int re, int im) pairs over one positive integer
denominator per spinor, reduced by the content gcd after every public
operation, so equal spinors have equal layouts; sums run in ints and a
Fraction appears only in an output.  ``_entries()`` reads the layout back
in wire order; the tuple-keyed ``coeffs`` view is built from it on
demand, and the wire encoders read it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from .errors import IndexOutOfRange, NotUnitVector, OddLength, ShapeMismatch, UnsupportedDimension
from .scalars import GaussianRational, Rational, exact_rational, gr

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
# The kernel's coefficients: bit index -> (re, im) numerators.
IntCoeffMap = Dict[int, Tuple[int, int]]

# Sign tuples of up to _CHUNK entries and their bit patterns.  A slot has at
# most MAX_N // 2 = 2 * _CHUNK entries, so a longer one is two lookups.  A
# failed lookup is an invalid tuple: a wrong length or an entry other than +-1.
_CHUNK = 8
_TUPLE_OF = [all_basis_indices(2 * k)[::-1] for k in range(_CHUNK + 1)]
_BITS_OF = [{t: v for v, t in enumerate(table)} for table in _TUPLE_OF]


def _slot_bits(t: BasisIndex, k: int) -> int:
    if k <= _CHUNK:
        return _BITS_OF[k][t]
    return _BITS_OF[k - _CHUNK][t[:k - _CHUNK]] << _CHUNK | _BITS_OF[_CHUNK][t[k - _CHUNK:]]


def _slot_tuple(v: int, k: int) -> BasisIndex:
    if k <= _CHUNK:
        return _TUPLE_OF[k][v]
    return _TUPLE_OF[k - _CHUNK][v >> _CHUNK] + _TUPLE_OF[_CHUNK][v & 0xFF]


def _merge(acc: IntCoeffMap, inc: IntCoeffMap, factor: int = 1) -> None:
    """acc += factor * inc, in integers; entries that cancel are dropped."""
    get = acc.get
    for idx, (re, im) in inc.items():
        if factor != 1:
            re, im = factor * re, factor * im
        s = get(idx)
        if s is None:
            acc[idx] = (re, im)
            continue
        re, im = re + s[0], im + s[1]
        if re or im:
            acc[idx] = (re, im)
        else:
            del acc[idx]


def _lincomb(terms: Iterable[Tuple[Union[int, Fraction], int, IntCoeffMap]]
             ) -> Tuple[int, IntCoeffMap]:
    """sum x * data / den over the (x, den, data) terms, as (D, an integer
    map over D), D the lcm of the x.denominator * den; not reduced."""
    terms = [(x, d, data) for x, d, data in terms if x]
    den = math.lcm(*(x.denominator * d for x, d, _ in terms))
    acc: IntCoeffMap = {}
    for x, d, data in terms:
        _merge(acc, data, x.numerator * (den // (x.denominator * d)))
    return den, acc


@dataclass(frozen=True, eq=False)
class ScaledSpinor:
    """Element of Delta_n (x) Delta_r^(x m) as coefficients plus scale2 > 0.

    The constructor takes tuple-keyed coefficients {(spin, twist): c}, c a
    ``GaussianRational`` or a real int or Fraction (floats and bools are
    refused); the kernel keeps ``_data``, integer (re, im) pairs by bit
    index over the denominator ``_den`` (see the module docstring).  ``_entries()`` reads
    them back in wire order, and ``coeffs`` is a read-only view of that."""

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
        coeffs = vars(self).pop("coeffs")  # the view is built from _data when read
        indices = [self._index(*key) for key in coeffs]  # every key, zero or not
        values = [c if isinstance(c, GaussianRational) else gr(c) for c in coeffs.values()]
        entries = [(idx, c.re, c.im) for idx, c in zip(indices, values) if c]
        den = math.lcm(*(x.denominator for _, re, im in entries for x in (re, im)))
        # over the lcm of the reduced denominators the content is already 1
        vars(self).update(_den=den, _data={
            idx: (re.numerator * (den // re.denominator), im.numerator * (den // im.denominator))
            for idx, re, im in entries})

    def _index(self, spin: BasisIndex, twist: Tuple[BasisIndex, ...]) -> int:
        ks, kt = self.n // 2, self.r // 2
        twist_bits = _BITS_OF[kt]  # r <= MAX_R, so kt <= _CHUNK
        try:
            if len(twist) != self.m:
                raise KeyError(twist)
            idx, off = _slot_bits(spin, ks), ks
            for t in twist:
                idx |= twist_bits[t] << off
                off += kt
            return idx
        except KeyError:
            raise ShapeMismatch(f"index {(spin, twist)} invalid for shape "
                                f"(n={self.n}, r={self.r}, m={self.m})") from None

    def _entries(self) -> List[Tuple[TwistedIndex, int, int]]:
        """Every coefficient as ((spin, twist), re, im) over ``_den``, in wire
        order: by spin tuple, then twist slot 1, ..., m.  ``_TUPLE_OF[k]`` is
        ascending, so that is the order of (spin bits, slot 1 bits, ...,
        slot m bits), not of the raw index, whose lowest bits are the spin's."""
        ks, kt, m = spinor_dim_exponent(self.n), spinor_dim_exponent(self.r), self.m
        twists: Dict[int, Tuple[Tuple[int, ...], Tuple[BasisIndex, ...]]] = {}  # by bits above spin
        rows = []
        for idx, (re, im) in self._data.items():
            if (t := twists.get(idx >> ks)) is None:
                slots = tuple([idx >> (ks + a * kt) & ((1 << kt) - 1) for a in range(m)])
                t = twists[idx >> ks] = (slots, tuple([_TUPLE_OF[kt][v] for v in slots]))
            rows.append((idx & ((1 << ks) - 1), t[0], t[1], re, im))
        rows.sort()
        return [((_slot_tuple(spin, ks), twist), re, im) for spin, _, twist, re, im in rows]

    def __getattr__(self, name: str) -> Mapping[TwistedIndex, GaussianRational]:
        if name != "coeffs":  # the one lazy field: the read-only tuple-keyed view
            raise AttributeError(name)
        entries, den = self._entries(), self._den
        frac = {x: Fraction(x, den) for x in {v for _, re, im in entries for v in (re, im)}}
        view = vars(self)["coeffs"] = MappingProxyType({
            key: GaussianRational(frac[re], frac[im]) for key, re, im in entries})
        return view

    def _with(self, den: int, data: IntCoeffMap) -> ScaledSpinor:
        """This shape and scale2 with coefficients data / den, reduced by the
        content gcd."""
        g = den
        for re, im in data.values():
            if g == 1:
                break
            g = math.gcd(g, re, im)
        if g != 1:
            den //= g
            data = {idx: (re // g, im // g) for idx, (re, im) in data.items()}
        out = object.__new__(ScaledSpinor)
        vars(out).update(n=self.n, r=self.r, m=self.m, scale2=self.scale2, _den=den, _data=data)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScaledSpinor):
            return NotImplemented
        return ((self.shape(), self.scale2, self._den, self._data)
                == (other.shape(), other.scale2, other._den, other._data))

    def shape(self) -> Tuple[int, int, int]:
        return (self.n, self.r, self.m)

    def is_zero(self) -> bool:
        return not self._data

    def __add__(self, other: ScaledSpinor) -> ScaledSpinor:
        return self._plus(other, 1)

    def __sub__(self, other: ScaledSpinor) -> ScaledSpinor:
        return self._plus(other, -1)

    def _plus(self, other: ScaledSpinor, factor: int) -> ScaledSpinor:
        if self.shape() != other.shape() or self.scale2 != other.scale2:
            raise ShapeMismatch("adding spinors of different shape or scale")
        return self._with(*_lincomb([(1, self._den, self._data),
                                     (factor, other._den, other._data)]))

    def scale(self, c: GaussianRational) -> ScaledSpinor:
        den = math.lcm(c.re.denominator, c.im.denominator)
        p, q = c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator)
        return self._with(self._den * den, {idx: (re * p - im * q, re * q + im * p)
                                            for idx, (re, im) in self._data.items() if p or q})


def SpinorVector(n: int, coeffs: CoeffMap) -> ScaledSpinor:
    """The untwisted spinor sum c_eps u_eps of Delta_n, from {eps: c}: an
    m = 0 ``ScaledSpinor`` with scale2 = 1."""
    return ScaledSpinor(n, 0, 0, {(eps, ()): c for eps, c in coeffs.items()})


def basis_spinor(n: int, eps: Sequence[int]) -> ScaledSpinor:
    return SpinorVector(n, {tuple(eps): GaussianRational(Fraction(1))})


def _slot_unit(offset: int, dim: int, i: int) -> Tuple[int, int, bool]:
    """(flip, mask, imaginary) of generator i of a Delta_dim slot whose bits
    start at ``offset``, for ``_generator_on_map``."""
    if not 1 <= i <= dim:
        raise IndexOutOfRange(f"generator index {i} outside 1..{dim}")
    k = spinor_dim_exponent(dim)
    if dim % 2 == 1 and i == dim:  # i * (T x ... x T): parity of the whole slot
        return 0, ((1 << k) - 1) << offset, True
    bit = 1 << (offset + (i + 1) // 2 - 1)
    tail = bit - (1 << offset)  # the slot's bits below the flipped one
    return (bit, tail, True) if i % 2 == 1 else (bit, tail | bit, False)


def _generator_on_map(data: IntCoeffMap, flip: int, mask: int, imaginary: bool) -> IntCoeffMap:
    """One slot generator on an integer coefficient map: index idx goes to
    idx ^ flip, with p the parity of idx & mask, and the coefficient is
    multiplied by (-1)^p i (imaginary, g1 and the odd-n generator) or by
    -(-1)^p (g2, whose mask includes the flipped bit).  A unit multiple of
    a nonzero coefficient is nonzero, so nothing is dropped."""
    out: IntCoeffMap = {}
    if imaginary:
        for idx, (re, im) in data.items():
            out[idx ^ flip] = (im, -re) if (idx & mask).bit_count() & 1 else (-im, re)
    else:
        for idx, (re, im) in data.items():
            out[idx ^ flip] = (re, im) if (idx & mask).bit_count() & 1 else (-re, -im)
    return out


@lru_cache(maxsize=1 << 14)  # bounded: a caller may pass any of 2^dim products
def _monomial(dim: int, factors: Tuple[int, ...]) -> Tuple[int, int, int]:
    """(d, mask, phase) of the Clifford product e_(i1)...e_(is) of
    ``factors`` (any order, repeats allowed) on a Delta_dim slot whose bits
    start at 0: one signed flip,

        (e_(i1)...e_(is) . phi)[v ^ d] = (-1)^parity(v & mask) i^phase phi_v.

    Composition rule: the factors act right to left, each the signed flip
    (f, m, imaginary) of ``_slot_unit``.  A generator applied after (d,
    mask, phase) reads its parity at v ^ d, and parity((v ^ d) & m) =
    parity(v & m) + parity(d & m); so phase += 2 parity(d & m) + (1 if
    imaginary else 2), with d taken before the flip (i for g1 and the odd
    generator, -1 = i^2 for g2), then d ^= f and mask ^= m.  The empty
    product is (0, 0, 0), and e_j e_j gives (0, 0, 2) = -1.  A slot whose
    bits start at offset o shifts d and mask left by o."""
    d = mask = phase = 0
    for i in reversed(factors):
        f, m, imaginary = _slot_unit(0, dim, i)
        phase += 2 * ((d & m).bit_count() & 1) + (1 if imaginary else 2)
        d ^= f
        mask ^= m
    return d, mask, phase & 3


PairAct = Tuple[int, int, int, int]


@cache  # a constant of dim <= MAX_N
def _pair_acts(dim: int) -> Dict[Tuple[int, int], PairAct]:
    """The one table of the products e_a e_b (a < b) on a Delta_dim slot
    whose bits start at 0, in b-major order: (a, b) -> (d, x, mask, mixed)
    reads

        (e_a e_b . phi)[v ^ d] = (-1)^parity(v & mask) x (i if mixed else 1) phi_v,

    which is ``_monomial(dim, (a, b))`` = (d, mask, phase) with the sign of
    i^phase folded into x = +-1 and mixed = phase & 1: a and b are of
    different kinds (one unit i, one -1).  By d = flip_a ^ flip_b, d = 0
    holds the k = dim // 2 pairs (2j-1, 2j), each two-bit d four pairs, and
    for odd dim each one-bit d the two pairs with the last generator, which
    flips nothing.  Read-only."""
    acts: Dict[Tuple[int, int], PairAct] = {}
    for b in range(2, dim + 1):
        for a in range(1, b):
            d, mask, phase = _monomial(dim, (a, b))
            acts[(a, b)] = (d, -1 if phase & 2 else 1, mask, phase & 1)
    return acts


def _spin_generator(phi: ScaledSpinor, i: int, data: IntCoeffMap) -> IntCoeffMap:
    """kappa(e_i) on the Delta_n slot of an integer coefficient map of phi's shape."""
    return _generator_on_map(data, *_slot_unit(0, phi.n, i))


def kappa_generator(n: int, i: int, psi: ScaledSpinor) -> ScaledSpinor:
    """Clifford action of the i-th orthonormal generator on the Delta_n slot."""
    if psi.n != n:
        raise ShapeMismatch(f"spinor lives in Delta_{psi.n}, not Delta_{n}")
    return psi._with(psi._den, _spin_generator(psi, i, psi._data))


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
    map flips every tuple entry (every bit), conjugates the coefficient and
    multiplies by i^A (-1)^p, A the number of alpha positions and p the
    parity of the +1 entries at them.  gamma^2 = +Id for n = 0,1,6,7 (mod 8)
    and -Id for n = 2,3,4,5 (mod 8).
    """
    if psi.m:
        raise ShapeMismatch(f"gamma acts on Delta_n alone, got m = {psi.m}")
    k = spinor_dim_exponent(psi.n)
    alpha = sum(1 << (k - 1 - t) for t in range(0, k, 2))
    turns = ((k + 1) // 2) % 4
    out: IntCoeffMap = {}
    for idx, (re, im) in psi._data.items():
        im = -im
        for _ in range(turns):  # times i
            re, im = -im, re
        if (idx & alpha).bit_count() & 1:
            re, im = -re, -im
        out[idx ^ ((1 << k) - 1)] = (re, im)
    return psi._with(psi._den, out)


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
