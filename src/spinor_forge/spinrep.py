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
the parity of the whole slot.  Each is one signed flip (d, x, mask,
mixed) (``_slot_unit``): phi_v goes to v ^ d times (-1)^parity(v & mask)
x, times i if mixed, with x = +-1.  A product of generators folds into
one such record (``_monomial``, the one place their phases add up), the
products e_a e_b, a < b, have one table of them, ``_pair_acts``, and a
twist slot shifts d and mask to its bits.  Induced forms, 2-forms,
annihilator columns and every slot action read these records.  ``_walk``
is the one code that applies them: it takes a list of records as they
are, x times a coefficient, groups them by d itself and goes over phi
once per distinct d, and nothing of size 2^k x 2^k is built; a lone
generator (``_generator_on_map``) and gamma (``gamma_apply``) are walks
of one record.
Coefficients are (int re, int im) pairs over one positive integer
denominator per spinor, reduced by the content gcd after every public
operation, so equal spinors have equal layouts; sums run in ints and a
Fraction appears only in an output.  ``_entries()`` reads the layout back
in wire order; the tuple-keyed ``coeffs`` view is built from it on
demand, and the wire encoder reads it directly.
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from .errors import (
    IndexOutOfRange, InvalidValue, NotUnitVector, OddLength, ShapeMismatch, UnsupportedDimension,
)
from .scalars import GaussianRational, Rational, exact_rational, gr

BasisIndex = Tuple[int, ...]
CoeffMap = Dict[BasisIndex, GaussianRational]


# Caps on the dimensions of a spinor space Delta_n (x) Delta_r^(x m).  They
# admit every catalog entry (qk(m) for m <= 8 at (4m, 3, m), spin7 at
# (8, 7, 1), generic(n) for n <= 8) and refuse a hostile wire dimension
# before anything of its size is built, such as eta's n x n matrix or the
# n^2 entries of a commutant basis.
MAX_N = 32
MAX_R = 16
MAX_M = 8


def check_dimensions(n: int, r: int = 0, m: int = 0) -> None:
    """Refuse each of n, r, m that is not an int, bools included
    (InvalidValue, before it is compared), is negative (ShapeMismatch) or
    is above its cap MAX_N, MAX_R, MAX_M (UnsupportedDimension)."""
    if (type(n) is type(r) is type(m) is int
            and 0 <= n <= MAX_N and 0 <= r <= MAX_R and 0 <= m <= MAX_M):
        return
    for name, value, cap in (("n", n, MAX_N), ("r", r, MAX_R), ("m", m, MAX_M)):
        if type(value) is not int:  # a bool, a float or a Fraction is no dimension
            raise InvalidValue(f"{name} must be an int, got {value!r}")
        if value < 0:
            raise ShapeMismatch(f"{name} must be >= 0, got {value}")
        if value > cap:
            raise UnsupportedDimension(f"{name} must be <= {cap}, got {value}")


def check_indices(what: str, *indices: object) -> None:
    """Refuse each index that is not an int, bools included, with
    InvalidValue before it is compared, as ``check_dimensions`` does."""
    for i in indices:
        if type(i) is not int:
            raise InvalidValue(f"{what} must be an int, got {i!r}")


def check_sequence(what: str, value: object) -> Sequence:
    """value if it is a sequence other than a string; anything else is
    refused with InvalidValue before it is measured or iterated.  A list or
    a tuple is let through before the slower abstract check."""
    if type(value) is list or type(value) is tuple or (
            isinstance(value, abc.Sequence) and not isinstance(value, str)):
        return value
    raise InvalidValue(f"{what} must be a sequence, got {value!r}")


def check_mapping(what: str, value: object) -> Mapping:
    """value if it is a mapping; anything else is refused with InvalidValue."""
    if type(value) is dict or isinstance(value, abc.Mapping):
        return value
    raise InvalidValue(f"{what} must be a mapping, got {value!r}")


def index_pair(what: str, key: object) -> Tuple[int, int]:
    """key as a pair of int indices; anything else is refused with InvalidValue."""
    if type(key) is not tuple or len(key) != 2:
        raise InvalidValue(f"{what} must be a pair of ints, got {key!r}")
    check_indices(what, *key)
    return key


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


def _lincomb(terms: Iterable[Tuple[int, int, IntCoeffMap]]) -> Tuple[int, IntCoeffMap]:
    """sum x * data / den over the (x, den, data) terms, x an int, as (D, an
    integer map over D), D the lcm of the dens of the nonzero x; not reduced."""
    terms = [(x, d, data) for x, d, data in terms if x]
    den = math.lcm(*(d for _, d, _ in terms))
    acc: IntCoeffMap = {}
    for x, d, data in terms:
        _merge(acc, data, x * (den // d))
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
        coeffs = check_mapping("coeffs", vars(self).pop("coeffs"))  # the view is built from _data
        try:
            indices = [self._index(*key) for key in coeffs]  # every key, zero or not
        except TypeError:  # a key that is not a (spin, twist) pair of tuples
            raise ShapeMismatch("a coefficient key is not a (spin, twist) pair of sign tuples "
                                f"of shape (n={self.n}, r={self.r}, m={self.m})") from None
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

    def scale(self, c: Union[GaussianRational, Rational]) -> ScaledSpinor:
        """This spinor times c; an int or a Fraction is read through ``gr``."""
        if not isinstance(c, GaussianRational):
            c = gr(c)
        den = math.lcm(c.re.denominator, c.im.denominator)
        p, q = c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator)
        return self._with(self._den * den, {idx: (re * p - im * q, re * q + im * p)
                                            for idx, (re, im) in self._data.items() if p or q})


def SpinorVector(n: int, coeffs: CoeffMap) -> ScaledSpinor:
    """The untwisted spinor sum c_eps u_eps of Delta_n, from {eps: c}: an
    m = 0 ``ScaledSpinor`` with scale2 = 1."""
    coeffs = check_mapping("coeffs", coeffs)
    return ScaledSpinor(n, 0, 0, {(eps, ()): c for eps, c in coeffs.items()})


def basis_spinor(n: int, eps: Sequence[int]) -> ScaledSpinor:
    return SpinorVector(n, {tuple(check_sequence("eps", eps)): GaussianRational(Fraction(1))})


# One signed flip: (d, x, mask, mixed) sends phi_v to v ^ d times
# (-1)^parity(v & mask) x, times i if mixed; x = +-1 for a monomial, and
# any int once a walk's coefficient scales it.
Flip = Tuple[int, int, int, int]


def _slot_unit(dim: int, i: int) -> Flip:
    """The signed flip (d, x, mask, mixed) of generator i of a Delta_dim
    slot whose bits start at 0: (bit, 1, tail, 1) for g1, (bit, -1, tail |
    bit, 0) for g2 and (0, 1, slot mask, 1) for the odd-n generator."""
    if not 1 <= i <= dim:
        raise IndexOutOfRange(f"generator index {i} outside 1..{dim}")
    k = spinor_dim_exponent(dim)
    if dim % 2 == 1 and i == dim:  # i * (T x ... x T): parity of the whole slot
        return 0, 1, (1 << k) - 1, 1
    bit = 1 << ((i + 1) // 2 - 1)
    tail = bit - 1  # the slot's bits below the flipped one
    return (bit, 1, tail, 1) if i % 2 == 1 else (bit, -1, tail | bit, 0)


def _walk(flips: Iterable[Flip], data: IntCoeffMap) -> IntCoeffMap:
    """The one kernel: sum over the signed flips (d, x, mask, mixed), x any
    int, on an integer map, over the same denominator.  The flips are
    grouped by d, and data is walked once per d: the signed x of d's flips
    sum to cr + i ci, and (cr + i ci) data_v goes to v ^ d (a lone flip is
    a unit multiple of x, so nothing cancels in it).  v -> v ^ d is
    one-to-one, so the first d's image is the sum so far, and each later
    one is merged in; cancelled entries are dropped.  No generator is
    applied."""
    groups: Dict[int, List[Flip]] = {}
    for flip in flips:
        groups.setdefault(flip[0], []).append(flip)
    acc: IntCoeffMap = {}
    for d, group in groups.items():
        if len(group) == 1:
            [(_, x, mask, mixed)] = group
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
                for _, x, mask, mixed in group:
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


def _generator_on_map(data: IntCoeffMap, d: int, x: int, mask: int, mixed: int) -> IntCoeffMap:
    """One signed flip of ``_slot_unit`` on an integer coefficient map: a
    ``_walk`` of the one record.  Nothing in ``src/`` calls it but the
    generator path that ``bench/`` counts and times."""
    return _walk(((d, x, mask, mixed),), data)


@lru_cache(maxsize=1 << 14)  # bounded: a caller may pass any of 2^dim products
def _monomial(dim: int, factors: Tuple[int, ...]) -> Flip:
    """The signed flip (d, x, mask, mixed) of the Clifford product
    e_(i1)...e_(is) of ``factors`` (any order, repeats allowed) on a
    Delta_dim slot whose bits start at 0.  The factors act right to left,
    each the flip (f, y, m, mixed) of ``_slot_unit``, its unit y i^mixed =
    i^(2 [y < 0] + mixed).  A factor applied after (d, mask) reads its
    parity at v ^ d, which adds parity(d & m) to parity(v & m); so the
    phase gains 2 parity(d & m) + 2 [y < 0] + mixed, with d taken before
    the flip, and then d ^= f and mask ^= m.  x = i^(phase & 2) and mixed
    = phase & 1; e_j e_j is (0, -1, 0, 0) = -1.  At slot offset o, d and
    mask shift left by o."""
    d = mask = phase = 0
    for i in reversed(factors):
        f, y, m, mixed = _slot_unit(dim, i)
        phase += 2 * ((d & m).bit_count() + (y < 0)) + mixed
        d ^= f
        mask ^= m
    return d, -1 if phase & 2 else 1, mask, phase & 1


@cache  # a constant of dim <= MAX_N
def _pair_acts(dim: int) -> Dict[Tuple[int, int], Flip]:
    """The one table of the products e_a e_b (a < b) on a Delta_dim slot
    whose bits start at 0, in b-major order: (a, b) -> ``_monomial(dim,
    (a, b))``.  mixed says a and b are of different kinds (one unit i,
    one -1).  By d = flip_a ^ flip_b, d = 0 holds the k = dim // 2 pairs
    (2j-1, 2j), each two-bit d four pairs, and for odd dim each one-bit d
    the two pairs with the last generator, which flips nothing.  Read-only."""
    return {(a, b): _monomial(dim, (a, b)) for b in range(2, dim + 1) for a in range(1, b)}


def _spin_generator(phi: ScaledSpinor, i: int, data: IntCoeffMap) -> IntCoeffMap:
    """kappa(e_i) on the Delta_n slot of an integer coefficient map of phi's shape."""
    return _generator_on_map(data, *_slot_unit(phi.n, i))


def kappa_generator(n: int, i: int, psi: ScaledSpinor) -> ScaledSpinor:
    """Clifford action of the i-th orthonormal generator on the Delta_n slot."""
    check_indices("generator index", i)
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
        check_indices("factor", *check_sequence("factors", self.factors))
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
    parity of the +1 entries at them: one ``_walk`` of the record (all k
    bits, x, the alpha bits, mixed), x i^mixed = i^A, on the conjugated
    coefficients.  gamma^2 = +Id for n = 0,1,6,7 (mod 8) and -Id for
    n = 2,3,4,5 (mod 8).
    """
    if psi.m:
        raise ShapeMismatch(f"gamma acts on Delta_n alone, got m = {psi.m}")
    k = spinor_dim_exponent(psi.n)
    turns = (k + 1) // 2  # A; i^A is x = -1 when A & 2, times i when A & 1
    alpha = sum(1 << (k - 1 - t) for t in range(0, k, 2))
    conj = {idx: (re, -im) for idx, (re, im) in psi._data.items()}
    return psi._with(psi._den, _walk((((1 << k) - 1, -1 if turns & 2 else 1, alpha, turns & 1),), conj))


RationalVector = List[Fraction]


def _check_unit_vectors(n: int, vectors: Sequence[Sequence[Rational]]) -> List[RationalVector]:
    if len(check_sequence("vectors", vectors)) % 2 != 0:
        raise OddLength("group elements are even products of unit vectors")
    clean: List[RationalVector] = []
    for x in vectors:
        v = [exact_rational(c) for c in check_sequence("vector", x)]
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
    check_dimensions(n)
    clean = _check_unit_vectors(n, vectors)
    out = [exact_rational(c) for c in check_sequence("vector", v)]
    if len(out) != n:
        raise ShapeMismatch(f"vector of length {len(out)} in R^{n}")
    for x in reversed(clean):
        out = reflect(out, x)
    return out
