"""Certification layer: purity / reducing checks, even-Clifford relations,
annihilator and commutant Lie algebras, frame and equivariance harnesses.

Everything here is exact; a verdict is a boolean backed by rational
witnesses (defect norms, violated relations), never a tolerance call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    EmptyInput,
    IndexOutOfRange,
    InvalidValue,
    MissingPair,
    NotOrthogonal,
    RankTooSmall,
    ShapeMismatch,
    UnsupportedDimension,
    ZeroSpinor,
)
from .forms import Endo, ImageTable, TwoForm, _endo, eta_hat, form_action, form_lincomb, spinc_form
from .linalg import (
    Matrix, RowReducer, SparseRow, _back_substitute, _clear_denominators, check_special_orthogonal,
    nullspace,
)
from .scalars import Rational, exact_rational, gr
from .spinrep import MAX_R, IntCoeffMap, _lincomb
from .twisted import ScaledSpinor, _bivector_map, _norm2, twist_bivector_action, twisted_group_action

Pair = Tuple[int, int]


def pairs(upper: int) -> List[Pair]:
    return list(combinations(range(1, upper + 1), 2))


# -- ambient Lie algebra elements ---------------------------------------------

@dataclass(frozen=True, eq=False)
class AmbientElement:
    """Element of spin(n) + spin(r) as bivector coefficient maps: ``a`` over
    pairs i < j of e_i e_j, ``b`` over pairs k < l of f_k f_l.

    spin(n) + spin(r) is block-diagonal in spin(n + r), with f_k = e_(n+k):
    ``_terms`` maps each pair of spin(n + r), the b-pair (k, l) as
    (n + k, n + l), to a nonzero integer over one positive denominator
    ``_den``, reduced by the content gcd, and ``==`` compares that layout.
    ``a`` and ``b`` are read-only Fraction views, built on first read."""

    n: int
    r: int
    a: Mapping[Pair, Fraction] = field(default_factory=dict)
    b: Mapping[Pair, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n, a, b = self.n, vars(self).pop("a"), vars(self).pop("b")
        for (i, j) in a:
            if not 1 <= i < j <= n:
                raise ShapeMismatch(f"a-part index ({i},{j}) outside 1..{n}")
        for (k, l) in b:
            if not 1 <= k < l <= self.r:
                raise ShapeMismatch(f"b-part index ({k},{l}) outside 1..{self.r}")
        exact = [(p, exact_rational(c)) for p, c in a.items()]
        exact += [((n + k, n + l), exact_rational(c)) for (k, l), c in b.items()]
        den = math.lcm(*(c.denominator for _, c in exact))
        vars(self).update(vars(_ambient(n, self.r, den, {
            p: c.numerator * (den // c.denominator) for p, c in exact})))

    def __getattr__(self, name: str) -> Mapping[Pair, Fraction]:
        if name not in ("a", "b"):  # the lazy fields: the read-only Fraction views
            raise AttributeError(name)
        n, a, b = self.n, {}, {}
        for (i, j), v in sorted(self._terms.items()):
            if j <= n:
                a[(i, j)] = Fraction(v, self._den)
            else:
                b[(i - n, j - n)] = Fraction(v, self._den)
        vars(self).update(a=MappingProxyType(a), b=MappingProxyType(b))
        return vars(self)[name]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AmbientElement):
            return NotImplemented
        return (self.n, self.r, self._den, self._terms) == (other.n, other.r, other._den, other._terms)

    def flat(self) -> List[Fraction]:
        """The coefficients in the order of ``_ambient_pairs``."""
        zero, terms = Fraction(0), self._terms
        return [Fraction(terms[p], self._den) if p in terms else zero
                for p in _ambient_pairs(self.n, self.r)]

    def is_zero(self) -> bool:
        return not self._terms


def _ambient(n: int, r: int, den: int, terms: Dict[Pair, int]) -> AmbientElement:
    """The element terms / den (den > 0), reduced; every integer element ends here."""
    g = math.gcd(den, *terms.values())
    out = object.__new__(AmbientElement)
    vars(out).update(n=n, r=r, _den=den // g, _terms={p: v // g for p, v in terms.items() if v})
    return out


def _ambient_pairs(n: int, r: int) -> List[Pair]:
    """The pairs of spin(n) then of spin(r), as keys of ``_terms``: the flat columns."""
    return pairs(n) + [(n + k, n + l) for (k, l) in pairs(r)]


def _bivector_bracket(x: Dict[Pair, int], y: Dict[Pair, int]) -> Dict[Pair, int]:
    """[sum x e_ie_j, sum y e_ke_l] inside the bivector space, using

        [e_ie_j, e_ke_l] = 2( d_ik e_je_l + d_jl e_ie_k
                              - d_jk e_ie_l - d_il e_je_k ).
    """
    out: Dict[Pair, int] = {}

    def put(p: int, q: int, c: int) -> None:
        if p == q or not c:
            return
        if p > q:
            p, q, c = q, p, -c
        out[(p, q)] = out.get((p, q), 0) + c

    for (i, j), ci in x.items():
        for (k, l), cj in y.items():
            c = 2 * ci * cj
            if i == k:
                put(j, l, c)
            if j == l:
                put(i, k, c)
            if j == k:
                put(i, l, -c)
            if i == l:
                put(j, k, -c)
    return {p: c for p, c in out.items() if c}


def bracket(x: AmbientElement, y: AmbientElement) -> AmbientElement:
    """Componentwise bracket in the direct sum spin(n) + spin(r): one bracket
    in spin(n + r), where the two blocks commute."""
    if (x.n, x.r) != (y.n, y.r):
        raise ShapeMismatch("bracket across different ambient shapes")
    return _ambient(x.n, x.r, x._den * y._den, _bivector_bracket(x._terms, y._terms))


@dataclass(frozen=True)
class LieSubalgebra:
    basis: List[AmbientElement]
    dim: int
    closed: bool
    # structure constants [x_i, x_j] = sum_k c[(i, j)][k] x_k, present iff the
    # span is closed and the basis independent ({} for the zero algebra)
    structure: Optional[Dict[Pair, List[Fraction]]] = None
    # the first (i, j) whose bracket leaves the span; None when closed
    open_pair: Optional[Pair] = None


def lie_closure_report(basis: Sequence[AmbientElement]) -> LieSubalgebra:
    """Check bracket closure of the span of ``basis``; structure constants
    (over the given basis) are reported only when closed and independent.

    Each x_i is the integer row X_i = d_i x_i of its layout, and the rows
    [X_i | e_i] are brought once to reduced echelon form: a row with pivot
    q_k in the X part is R_k = sum_i t_ki X_i, equal to lead_k on q_k and 0
    on the other pivots.  So z = [X_i, X_j] = d_i d_j [x_i, x_j] lies in the
    span iff L z = sum_k z[q_k] (L / lead_k) R_k, with L the lcm of the
    leads, and the same sum over the t_ki d_i gives its coordinates: each
    bracket is read off in integers, with no elimination."""
    if not basis:
        raise EmptyInput("empty basis")
    shape = (basis[0].n, basis[0].r)
    if any((x.n, x.r) != shape for x in basis):
        raise ShapeMismatch("mixed ambient shapes in basis")
    # the brackets are taken in spin(n + r), whose pairs in order are the flat columns
    n, r = shape
    keys = _ambient_pairs(n, r)
    col = {p: c for c, p in enumerate(keys)}
    offset, size = len(keys), len(basis)
    ints = [x._terms for x in basis]
    dens = [x._den for x in basis]
    red = RowReducer()
    for i, x in enumerate(ints):
        red.add({**{col[p]: v for p, v in x.items()}, offset + i: 1})
    span = {q: row for q, row in _back_substitute(red.pivots).items() if q < offset}
    dim = len(span)
    independent = dim == size
    lcm = math.lcm(*(row[q] for q, row in span.items()))
    # (L / lead_k) R_k, and its coordinates (L / lead_k) t_km d_m over the x_m
    read = {keys[q]: ({keys[c]: v * (lcm // row[q]) for c, v in row.items() if c < offset},
                      {c - offset: v * (lcm // row[q]) * dens[c - offset]
                       for c, v in row.items() if c >= offset})
            for q, row in span.items()}
    zero = Fraction(0)
    structure: Dict[Pair, List[Fraction]] = {}
    for i, j in combinations(range(size), 2):
        z = _bivector_bracket(ints[i], ints[j])
        rest = {p: -lcm * v for p, v in z.items()}
        coords: Dict[int, int] = {}
        for q in z.keys() & read.keys():
            v = z[q]
            part, coord = read[q]
            for p, w in part.items():
                rest[p] = rest.get(p, 0) + v * w
            for m, w in coord.items():
                coords[m] = coords.get(m, 0) + v * w
        if any(rest.values()):
            return LieSubalgebra(list(basis), dim, closed=False, open_pair=(i, j))
        if independent:
            consts = [zero] * size
            for m, v in coords.items():
                if v:
                    consts[m] = Fraction(v, lcm * dens[i] * dens[j])
            structure[(i, j)] = consts
    return LieSubalgebra(list(basis), dim, closed=True,
                         structure=structure if independent else None)


# -- purity / reducing certificates -------------------------------------------

@dataclass(frozen=True)
class PairVerdict:
    defect_norm2: Fraction
    square_ok: Optional[bool] = None   # pure mode: (eta_hat)^2 = -Id
    eta_nonzero: Optional[bool] = None  # reducing mode: eta != 0


@dataclass(frozen=True)
class PurityReport:
    is_pure: bool
    per_pair: Dict[Pair, PairVerdict]


@dataclass(frozen=True)
class ReducingReport:
    is_reducing: bool
    per_pair: Dict[Pair, PairVerdict]


_DEFECT_COEFFICIENT = {"pure": 2, "reducing": 1}


def _check_kind(kind: str) -> None:
    if kind not in _DEFECT_COEFFICIENT:
        raise InvalidValue(f"kind must be 'pure' or 'reducing', got {kind!r}")


def _certify(phi: ScaledSpinor, kind: str,
             frames: Sequence[Optional[Matrix]] = (None,)
             ) -> List[Tuple[bool, Dict[Pair, PairVerdict]]]:
    """Verdict and per-pair witnesses of ``kind`` in each frame (the rows of
    an SO(r) matrix; None is the standard frame).

    One ``forms.ImageTable`` of phi serves every pair: with w_st = kappa(f_st) . phi
    it gives eta_st by XOR-pattern pairing, and D_st = eta_st . phi + c w_st
    (c = 2 "pure", 1 "reducing").  w_st is one walk of the cached acts of
    f_s f_t and eta_st . phi the one bivector action
    ``twisted._bivector_map`` on eta_st's integer terms, over phi's
    denominator times eta_st's; all three read the signed flips of
    ``spinrep._monomial``, so no generator is applied.  eta_hat^2 = -Id is
    checked row by row (``Endo.squares_to_minus_identity``), stopping at
    the first failing row.  Both are linear in
    f'_k f'_l = sum_(s<t) c_st f_s f_t, and c_st = a_ks a_lt - a_kt a_ls is an
    integer over d^2 once A is an integer matrix over d: a rotated pair is one
    ``forms.form_lincomb`` sum of the eta_st and one ``_lincomb`` of the D_st."""
    _check_kind(kind)
    c = _DEFECT_COEFFICIENT[kind]
    images = ImageTable(phi)
    table: Dict[Pair, Tuple[TwoForm, int, IntCoeffMap]] = {}
    for (s, t) in pairs(phi.r):
        w = twist_bivector_action(s, t, phi)
        form = images.induced_form(w)
        action = (phi._den * form._den, _bivector_map(phi, form._terms, phi._data))
        table[(s, t)] = (form, *_lincomb([(1, *action), (c, w._den, w._data)]))
    forms, d_dens, d_maps = zip(*table.values()) if table else ((), (), ())
    combine = form_lincomb(phi.n, forms)
    out = []
    for a in frames:
        if a is not None:
            ia, d = _clear_denominators(a)
        per: Dict[Pair, PairVerdict] = {}
        ok = True
        for (k, l) in pairs(phi.r):
            if a is None:
                form, den, defect = table[(k, l)]
            else:
                ak, al = ia[k - 1], ia[l - 1]
                cs = [ak[s - 1] * al[t - 1] - ak[t - 1] * al[s - 1] for (s, t) in table]
                form = combine(cs, d * d)
                den, defect = _lincomb(zip(cs, d_dens, d_maps))
                den *= d * d
            dn2 = _norm2(phi.scale2, den, defect)
            if kind == "pure":
                h = eta_hat(form)
                flag = h.squares_to_minus_identity()
                per[(k, l)] = PairVerdict(defect_norm2=dn2, square_ok=flag)
            else:
                flag = not form.is_zero()
                per[(k, l)] = PairVerdict(defect_norm2=dn2, eta_nonzero=flag)
            ok = ok and flag and dn2 == 0
        out.append((ok, per))
    return out


def check_pure(phi: ScaledSpinor) -> PurityReport:
    """Certify the two purity conditions for every twist pair k < l."""
    if phi.is_zero():
        raise ZeroSpinor("purity is defined for nonzero spinors")
    if phi.r < 3:
        raise RankTooSmall("purity needs twisting rank r >= 3")
    [(ok, per)] = _certify(phi, "pure")
    return PurityReport(is_pure=ok, per_pair=per)


def check_reducing(phi: ScaledSpinor) -> ReducingReport:
    """Certify the reducing conditions (defect coefficient 1, eta != 0).

    Rank 2 is accepted: the defining equations make sense there and the
    rank-n generic family includes n = 2."""
    if phi.is_zero():
        raise ZeroSpinor("the reducing property is defined for nonzero spinors")
    if phi.r < 2:
        raise RankTooSmall("reducing needs twisting rank r >= 2")
    [(ok, per)] = _certify(phi, "reducing")
    return ReducingReport(is_reducing=ok, per_pair=per)


def check_spinc_pure(psi: ScaledSpinor) -> bool:
    """Rank-2 analogue for an untwisted (m = 0) spinor in Delta_(2n): the
    induced form must satisfy (eta + n*sqrt(-1)) . psi = 0 and square to -Id."""
    if psi.m:
        raise ShapeMismatch(f"spinc purity needs an untwisted (m = 0) spinor, got m = {psi.m}")
    if psi.is_zero():
        raise ZeroSpinor("zero spinor")
    if psi.n % 2 != 0:
        raise ShapeMismatch("need an even-dimensional spinor space")
    half = psi.n // 2
    form = spinc_form(psi)
    d = form_action(form, psi) + psi.scale(gr(0, half))
    h = eta_hat(form)
    return d.is_zero() and h.squares_to_minus_identity()


# -- even Clifford relation verification --------------------------------------

@dataclass(frozen=True)
class RelationReport:
    ok: bool
    violation: Optional[str] = None


def even_clifford_verify(etas: Dict[Pair, Endo]) -> RelationReport:
    """Exact verification of the even-Clifford relations of a complete
    family {eta_hat_kl : 1 <= k < l <= r}: squares are -Id, disjoint pairs
    commute, chained pairs anticommute with product -eta_hat_ik, and the
    alternating four-index product chain holds."""
    if not etas:
        raise EmptyInput("empty family")
    bad = [(k, l) for (k, l) in etas if not 1 <= k < l]
    if bad:
        raise IndexOutOfRange(f"pair {bad[0]} is not 1 <= k < l")
    r = max(max(p) for p in etas)
    n = next(iter(etas.values())).n
    full: Dict[Pair, Endo] = {}
    for (k, l) in pairs(r):
        h = etas.get((k, l))
        if h is None:
            raise MissingPair(f"missing pair ({k},{l})")
        if h.n != n:
            raise ShapeMismatch("mixed dimensions in family")
        full[(k, l)] = h
        full[(l, k)] = -h

    for (k, l) in pairs(r):
        h = full[(k, l)]
        if not h.squares_to_minus_identity():
            return RelationReport(False, f"square(({k},{l})) != -Id")

    for (i, j) in pairs(r):
        for (k, l) in pairs(r):
            if {i, j} & {k, l}:
                continue
            a, b = full[(i, j)], full[(k, l)]
            if a.compose(b) != b.compose(a):
                return RelationReport(False, f"disjoint ({i},{j}),({k},{l}) do not commute")

    for i, j, k in permutations(range(1, r + 1), 3):
        ab = full[(i, j)].compose(full[(j, k)])
        ba = full[(j, k)].compose(full[(i, j)])
        if ab != -ba:
            return RelationReport(False, f"chained ({i},{j}),({j},{k}) do not anticommute")
        if ab != -full[(i, k)]:
            return RelationReport(False, f"product ({i},{j})({j},{k}) != -({i},{k})")

    for (i, j, k, l) in combinations(range(1, r + 1), 4):
        lhs = full[(i, j)].compose(full[(k, l)])
        chain = [
            (-full[(i, k)].compose(full[(j, l)]), f"-({i},{k})({j},{l})"),
            (-full[(j, l)].compose(full[(i, k)]), f"-({j},{l})({i},{k})"),
            (full[(k, l)].compose(full[(i, j)]), f"({k},{l})({i},{j})"),
            (full[(j, k)].compose(full[(i, l)]), f"({j},{k})({i},{l})"),
            (full[(i, l)].compose(full[(j, k)]), f"({i},{l})({j},{k})"),
        ]
        for rhs, label in chain:
            if lhs != rhs:
                return RelationReport(False, f"product chain ({i},{j})({k},{l}) != {label}")
    return RelationReport(True)


# -- annihilator and commutant -------------------------------------------------

def annihilator(spinors: Sequence[ScaledSpinor]) -> LieSubalgebra:
    """The subalgebra of spin(n) + spin(r) annihilating every given spinor,
    solved as one exact linear system over the bivector coefficients
    (a_ij; b_kl).  Column j is the pair keys[j] of ``_ambient_pairs``
    acting on phi through the one bivector action ``twisted._bivector_map``
    (a spin pair one read of the pair table, a twist pair the cached acts
    of f_k f_l), over phi's one denominator; no generator is applied.  The
    real and the imaginary part of each basis coefficient of the action
    give one sparse integer row each, gathered in one walk over each
    column's map."""
    if not spinors:
        raise EmptyInput("need at least one spinor")
    shape = spinors[0].shape()
    if any(s.shape() != shape for s in spinors):
        raise ShapeMismatch("annihilator spinors must share (n, r, m)")
    n, r, _ = shape
    keys = _ambient_pairs(n, r)  # a-major: the columns are labelled in this order
    rows: List[Dict[int, int]] = []
    for phi in spinors:
        re_rows: Dict[int, Dict[int, int]] = {}
        im_rows: Dict[int, Dict[int, int]] = {}
        for j, p in enumerate(keys):
            for idx, (re, im) in _bivector_map(phi, {p: 1}, phi._data).items():
                if re:
                    re_rows.setdefault(idx, {})[j] = re
                if im:
                    im_rows.setdefault(idx, {})[j] = im
        for idx in sorted(re_rows.keys() | im_rows.keys()):
            for part in (re_rows, im_rows):
                if idx in part:
                    rows.append(part[idx])
    basis = [_ambient(n, r, den, {keys[c]: v for c, v in vec.items()})
             for den, vec in nullspace(rows, len(keys))]
    if not basis:
        return LieSubalgebra(basis=[], dim=0, closed=True, structure={})
    return lie_closure_report(basis)


def ambient_annihilates(x: AmbientElement, phi: ScaledSpinor) -> bool:
    """Does sum a_ij e_ie_j + sum b_kl kappa(f_kl) kill phi?  x's integer
    terms, keyed by the pairs of spin(n + r), go to the one bivector action
    ``twisted._bivector_map`` as they are: one walk over supp phi per XOR
    pattern, and no generator.  Its denominator does not change the answer."""
    if (x.n, x.r) != (phi.n, phi.r):
        raise ShapeMismatch("ambient element and spinor shapes differ")
    return not _bivector_map(phi, x._terms, phi._data)


def commutant(etas: Sequence[Endo], restrict_skew: bool) -> Tuple[int, List[Endo]]:
    """All X with [X, h] = 0 for every h in the family (optionally skew X),
    as an exact nullspace over the n^2 matrix entries: one sparse row per
    nonzero entry of [X, h], built from the nonzero entries of h."""
    if not etas:
        raise EmptyInput("empty family")
    n = etas[0].n
    if any(h.n != n for h in etas):
        raise ShapeMismatch("mixed dimensions in family")
    width = n * n

    def var(p: int, q: int) -> int:
        return p * n + q

    rows: List[Dict[int, int]] = []
    for h in etas:
        # (X M - M X)[a][b] = sum_c X[a][c] M[c][b] - M[a][c] X[c][b], with
        # M = h's integer rows (its denominator scales every row alike)
        in_col = [[(c, row[b]) for c, row in enumerate(h._rows) if b in row] for b in range(n)]
        for a, in_row in enumerate(h._rows):
            for b in range(n):
                row = {var(a, c): x for c, x in in_col[b]}
                for c, x in in_row.items():
                    k = var(c, b)
                    v = row.get(k, 0) - x
                    if v:
                        row[k] = v
                    else:
                        row.pop(k, None)
                if row:
                    rows.append(row)
    if restrict_skew:
        for p in range(n):
            rows.append({var(p, p): 1})
            for q in range(p + 1, n):
                rows.append({var(p, q): 1, var(q, p): 1})
    basis = []
    for den, vec in nullspace(rows, width):
        entries: List[SparseRow] = [{} for _ in range(n)]
        for k, v in vec.items():
            entries[k // n][k % n] = v
        basis.append(_endo(n, den, entries))
    return len(basis), basis


# -- frame independence and equivariance ---------------------------------------

def frame_rotation_check(phi: ScaledSpinor, a: Matrix, kind: str = "pure") -> bool:
    """Does the pure (or reducing) verdict survive replacing the twist frame
    by the rows of the exact special-orthogonal matrix A?"""
    if len(a) != phi.r:
        raise NotOrthogonal(f"need an SO({phi.r}) matrix")
    (base, _), (rotated, _) = _certify(phi, kind, (None, check_special_orthogonal(a)))
    return base == rotated


def equivariance_check(
    phi: ScaledSpinor,
    g_vectors: Sequence[Sequence[Rational]],
    h_vectors: Sequence[Sequence[Rational]],
    kind: str = "pure",
) -> bool:
    """Does the verdict survive the twisted group action [g, h]?"""
    _check_kind(kind)
    moved = twisted_group_action(g_vectors, h_vectors, phi)
    if kind == "pure":
        return check_pure(moved).is_pure == check_pure(phi).is_pure
    return check_reducing(moved).is_reducing == check_reducing(phi).is_reducing


# -- representation-theory constants -------------------------------------------

@dataclass(frozen=True)
class ClDims:
    r: int
    d_r: int
    v_r: int


def cl_dims(r: int) -> ClDims:
    """Dimension of an irreducible real module of the even Clifford algebra
    of rank r, and the number of distinct irreducibles, by r mod 8.  r is
    an int in 1..MAX_R, checked before any power is taken."""
    if type(r) is not int:  # a bool, a float or a Fraction is no rank
        raise InvalidValue(f"rank must be an int, got {r!r}")
    if r < 1:
        raise ShapeMismatch("rank must be >= 1")
    if r > MAX_R:
        raise UnsupportedDimension(f"r must be <= {MAX_R}, got {r}")
    residue = ((r - 1) % 8) + 1
    shift = {3: 1, 5: 1, 8: -1}.get(residue, 0)  # d_r = 2^(floor(r/2) + shift)
    return ClDims(r=r, d_r=2 ** (r // 2 + shift), v_r=2 if residue in (4, 8) else 1)
