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
    ZeroSpinor,
)
from .forms import Endo, _endo, _mul_rows, eta_hat, etas, form_action, form_lincomb, spinc_form
from .linalg import (
    Matrix, _back_substitute, _clear_denominators, _reduced, canonical_basis,
    check_special_orthogonal, nullspace_of_columns,
)
from .scalars import Rational, exact_rational, gr
from .spinrep import (
    _lincomb, check_dimensions, check_indices, check_mapping, check_sequence, index_pair)
from .twisted import ScaledSpinor, _bivector_map, _norm2, twisted_group_action

Pair = Tuple[int, int]


def pairs(upper: int) -> List[Pair]:
    check_indices("pair bound", upper)
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
        check_dimensions(self.n, self.r)
        exact = []
        for part, dim, off in (("a", self.n, 0), ("b", self.r, self.n)):
            for key, c in check_mapping(f"{part}-part", vars(self).pop(part)).items():
                i, j = index_pair(f"{part}-part index", key)
                if not 1 <= i < j <= dim:
                    raise ShapeMismatch(f"{part}-part index ({i},{j}) outside 1..{dim}")
                exact.append(((off + i, off + j), exact_rational(c)))
        den = math.lcm(*(c.denominator for _, c in exact))
        vars(self).update(vars(_ambient(self.n, self.r, den, {
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


def _by_vector(terms: Dict[Pair, int]) -> Dict[int, List[Tuple[int, int]]]:
    """The terms c e_ie_j of an element by vector index, each oriented from
    it: i -> (j, c) and j -> (i, -c), as e_je_i = -e_ie_j."""
    out: Dict[int, List[Tuple[int, int]]] = {}
    for (i, j), c in terms.items():
        out.setdefault(i, []).append((j, c))
        out.setdefault(j, []).append((i, -c))
    return out


def _bracket(x: Dict[int, List[Tuple[int, int]]],
             y: Dict[int, List[Tuple[int, int]]]) -> Dict[Pair, int]:
    """[x, y] of two elements by vector index (``_by_vector``): by
    [e_ie_j, e_ke_l] = 2(d_ik e_je_l + d_jl e_ie_k - d_jk e_ie_l - d_il e_je_k),
    terms e_se_a and e_se_b sharing only s give 2 e_ae_b, met once, at s;
    terms sharing no index or both commute."""
    out: Dict[Pair, int] = {}
    for s, xs in x.items():
        for b, d in y.get(s, ()):
            for a, c in xs:
                if a < b:
                    out[(a, b)] = out.get((a, b), 0) + 2 * c * d
                elif a > b:
                    out[(b, a)] = out.get((b, a), 0) - 2 * c * d
    return {p: c for p, c in out.items() if c}


def bracket(x: AmbientElement, y: AmbientElement) -> AmbientElement:
    """Componentwise bracket in the direct sum spin(n) + spin(r): one bracket
    in spin(n + r), where the two blocks commute."""
    if (x.n, x.r) != (y.n, y.r):
        raise ShapeMismatch("bracket across different ambient shapes")
    return _ambient(x.n, x.r, x._den * y._den,
                    _bracket(_by_vector(x._terms), _by_vector(y._terms)))


@dataclass(frozen=True)
class LieSubalgebra:
    """The span of ``basis`` in spin(n) + spin(r).  ``dim`` is the rank of
    the span and may be less than ``len(basis)``; ``open_pair`` is the first
    (i, j), in ``combinations`` order, whose bracket leaves the span, and
    None when it is closed."""

    basis: List[AmbientElement]
    dim: int
    closed: bool
    open_pair: Optional[Pair] = None


def lie_closure_report(basis: Sequence[AmbientElement]) -> LieSubalgebra:
    """Check bracket closure of the span of ``basis``.

    The integer terms of the basis, keyed by the pairs of spin(n + r) as
    they are, are reduced and back-substituted once, so row_p is zero on
    the other pivots.  A bracket y of the terms by vector index (a multiple
    of the elements' bracket) lies in the span iff L y - sum_p y_p (L /
    lead_p) row_p = 0, L the lcm of the leads: one pass per bracket."""
    if not basis:
        raise EmptyInput("empty basis")
    shape = (basis[0].n, basis[0].r)
    if any((x.n, x.r) != shape for x in basis):
        raise ShapeMismatch("mixed ambient shapes in basis")
    red = _reduced([x._terms for x in basis])
    rows = _back_substitute(red.pivots)
    lcm = math.lcm(*(row[p] for p, row in rows.items()))
    by_vector = [_by_vector(x._terms) for x in basis]
    for i, j in combinations(range(len(basis)), 2):
        y = _bracket(by_vector[i], by_vector[j])
        acc = {c: lcm * v for c, v in y.items()}
        for p in y.keys() & rows.keys():
            q = y[p] * (lcm // rows[p][p])
            for c, v in rows[p].items():
                acc[c] = acc.get(c, 0) - q * v
        if any(acc.values()):
            return LieSubalgebra(list(basis), red.rank, closed=False, open_pair=(i, j))
    return LieSubalgebra(list(basis), red.rank, closed=True)


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


# kind -> (defect coefficient c, least rank r, zero-spinor and low-rank refusals,
#          the PairVerdict flag and its test of eta_kl)
_KINDS = {
    "pure": (2, 3, "purity is defined for nonzero spinors", "purity needs twisting rank r >= 3",
             "square_ok", lambda form: eta_hat(form).squares_to_minus_identity()),
    "reducing": (1, 2, "the reducing property is defined for nonzero spinors",
                 "reducing needs twisting rank r >= 2",  # the generic family starts at r = 2
                 "eta_nonzero", lambda form: not form.is_zero()),
}


def _certify(phi: ScaledSpinor, kind: str,
             frames: Sequence[Optional[Matrix]] = (None,)
             ) -> List[Tuple[bool, Dict[Pair, PairVerdict]]]:
    """Verdict and per-pair witnesses of ``kind`` in each frame (the rows of
    an SO(r) matrix; None is the standard frame).

    eta_st comes from ``forms.etas``, and the defect D_st = (eta_st + c f_s
    f_t) . phi (c = 2 "pure", 1 "reducing") is the action of one element of
    spin(n) + spin(r), the element the report's qk row tests: eta_st's
    integer terms plus the twist pair (n + s, n + t) at c times eta_st's
    denominator, in one call of the bivector action
    ``twisted._bivector_map``, over phi's denominator times eta_st's.  No
    generator is applied.  eta_hat^2 = -Id is checked row by row
    (``Endo.squares_to_minus_identity``), stopping at the first failing
    row.  Both are linear in f'_k f'_l = sum_(s<t) c_st f_s f_t, and c_st =
    a_ks a_lt - a_kt a_ls is an integer over d^2 once A is an integer matrix
    over d: a rotated pair is one ``forms.form_lincomb`` sum of the eta_st
    and one ``_lincomb`` of the D_st.  The standard frame reads its table
    directly, which spares failing certificates a copy of every defect.
    Before any eta, a kind that is not a key of ``_KINDS`` (its type tested
    first) raises InvalidValue, the zero spinor ZeroSpinor and a rank below
    the kind's least RankTooSmall: every certificate's one entry."""
    if not isinstance(kind, str) or kind not in _KINDS:
        raise InvalidValue(f"kind must be 'pure' or 'reducing', got {kind!r}")
    c, least, zero, low, flag_name, test = _KINDS[kind]
    if phi.is_zero():
        raise ZeroSpinor(zero)
    if phi.r < least:
        raise RankTooSmall(low)
    n = phi.n
    table = {(s, t): (form, phi._den * form._den,
                      _bivector_map(phi, {**form._terms, (n + s, n + t): c * form._den}))
             for (s, t), form in etas(phi).items()}
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
            flag = test(form)
            per[(k, l)] = PairVerdict(defect_norm2=dn2, **{flag_name: flag})
            ok = ok and flag and dn2 == 0
        out.append((ok, per))
    return out


def check_pure(phi: ScaledSpinor) -> PurityReport:
    """Certify the two purity conditions for every twist pair k < l."""
    [(ok, per)] = _certify(phi, "pure")
    return PurityReport(is_pure=ok, per_pair=per)


def check_reducing(phi: ScaledSpinor) -> ReducingReport:
    """Certify the reducing conditions (defect coefficient 1, eta != 0)."""
    [(ok, per)] = _certify(phi, "reducing")
    return ReducingReport(is_reducing=ok, per_pair=per)


def check_spinc_pure(psi: ScaledSpinor) -> bool:
    """Rank-2 analogue for an untwisted (m = 0) spinor in Delta_(2n): the
    induced form must satisfy (eta + n*sqrt(-1)) . psi = 0 and square to -Id.
    ``spinc_form`` refuses an odd n and the zero spinor."""
    if psi.m:
        raise ShapeMismatch(f"spinc purity needs an untwisted (m = 0) spinor, got m = {psi.m}")
    form = spinc_form(psi)
    d = form_action(form, psi) + psi.scale(gr(0, psi.n // 2))
    h = eta_hat(form)
    return d.is_zero() and h.squares_to_minus_identity()


# -- even Clifford relation verification --------------------------------------

@dataclass(frozen=True)
class RelationReport:
    ok: bool
    violation: Optional[str] = None


def even_clifford_verify(etas: Dict[Pair, Endo]) -> RelationReport:
    """Exact verification of the even-Clifford relations of a complete
    family {h_kl = eta_hat_kl : 1 <= k < l <= r}: squares are -Id, disjoint
    pairs commute, and chained pairs anticommute with h_ij h_jk = -h_ik.
    A mirrored triple (k, j, i) gives the same two equations, so only i < k is
    checked; the three imply the four-index chain h_ab h_cd = -h_ac h_bd."""
    if not check_mapping("family", etas):
        raise EmptyInput("empty family")
    bad = [(k, l) for k, l in (index_pair("family key", key) for key in etas) if not 1 <= k < l]
    if bad:
        raise IndexOutOfRange(f"pair {bad[0]} is not 1 <= k < l")
    r = max(max(p) for p in etas)
    check_dimensions(0, r)  # before any pair of a hostile rank is built
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

    for (i, j), (k, l) in combinations(pairs(r), 2):
        if {i, j} & {k, l}:
            continue
        a, b = full[(i, j)], full[(k, l)]
        if a.compose(b) != b.compose(a):
            return RelationReport(False, f"disjoint ({i},{j}),({k},{l}) do not commute")

    for i, j, k in permutations(range(1, r + 1), 3):
        if i > k:
            continue
        ab = full[(i, j)].compose(full[(j, k)])
        ba = full[(j, k)].compose(full[(i, j)])
        if ab != -ba:
            return RelationReport(False, f"chained ({i},{j}),({j},{k}) do not anticommute")
        if ab != -full[(i, k)]:
            return RelationReport(False, f"product ({i},{j})({j},{k}) != -({i},{k})")
    return RelationReport(True)


# -- annihilator and commutant -------------------------------------------------

def annihilator(spinors: Sequence[ScaledSpinor]) -> LieSubalgebra:
    """The subalgebra of spin(n) + spin(r) annihilating every given spinor,
    solved as one exact linear system over the bivector coefficients
    (a_ij; b_kl).  Column j is the pair keys[j] of ``_ambient_pairs``
    acting on phi through the one bivector action ``twisted._bivector_map``
    (a spin pair one read of the pair table, a twist pair the cached flips
    of f_k f_l), over phi's one denominator; no generator is applied.  Its
    entries are the real and imaginary parts p of the action on spinor s at
    index v, in row 2 (v len(spinors) + s) + p; ``nullspace_of_columns`` solves it."""
    if not spinors:
        raise EmptyInput("need at least one spinor")
    shape = spinors[0].shape()
    if any(s.shape() != shape for s in spinors):
        raise ShapeMismatch("annihilator spinors must share (n, r, m)")
    n, r, _ = shape
    keys = _ambient_pairs(n, r)  # a-major: the columns are labelled in this order
    columns: List[Dict[int, int]] = [{} for _ in keys]
    count = len(spinors)
    for s, phi in enumerate(spinors):
        for col, p in zip(columns, keys):
            for idx, (re, im) in _bivector_map(phi, {p: 1}).items():
                label = 2 * (idx * count + s)
                if re:
                    col[label] = re
                if im:
                    col[label + 1] = im
    basis = [_ambient(n, r, den, {keys[c]: v for c, v in vec.items()})
             for den, vec in nullspace_of_columns(columns)]
    return lie_closure_report(basis) if basis else LieSubalgebra(basis=[], dim=0, closed=True)


def ambient_annihilates(x: AmbientElement, phi: ScaledSpinor) -> bool:
    """Does sum a_ij e_ie_j + sum b_kl kappa(f_kl) kill phi?  x's integer
    terms, keyed by the pairs of spin(n + r), go to the one bivector action
    ``twisted._bivector_map`` as they are: one walk over supp phi per XOR
    pattern, and no generator.  Its denominator does not change the answer."""
    if (x.n, x.r) != (phi.n, phi.r):
        raise ShapeMismatch("ambient element and spinor shapes differ")
    return not _bivector_map(phi, x._terms)


def commutant(etas: Sequence[Endo], restrict_skew: bool) -> Tuple[int, List[Endo]]:
    """All X with [X, h] = 0 for every h in the family (optionally skew X),
    by successive restriction: from a basis of all n x n matrices (of the
    E_pq - E_qp when skew), integer maps over the entries p n + q, each h
    keeps the combinations of the current basis B_1..B_d whose commutator
    with h vanishes, by ``nullspace_of_columns`` on the entry maps of the
    [B_j, h].  No n^2-wide system is built, and ``canonical_basis`` gives
    the last basis as that system's ``nullspace`` would."""
    if not etas:
        raise EmptyInput("empty family")
    n = etas[0].n
    if any(h.n != n for h in etas):
        raise ShapeMismatch("mixed dimensions in family")
    basis = ([{p * n + q: 1, q * n + p: -1} for p, q in combinations(range(n), 2)]
             if restrict_skew else [{k: 1} for k in range(n * n)])
    for h in etas:
        # [X, M][a][b] = sum_c X[a][c] M[c][b] - M[a][c] X[c][b], with M =
        # h's integer rows (its denominator scales every row alike)
        cols = [[(a, row[c]) for a, row in enumerate(h._rows) if c in row] for c in range(n)]
        columns: List[Dict[int, int]] = [{} for _ in basis]
        for col, x in zip(columns, basis):
            for k, v in x.items():
                p, q = divmod(k, n)
                for b, y in h._rows[q].items():
                    col[p * n + b] = col.get(p * n + b, 0) + v * y
                for a, y in cols[p]:
                    col[a * n + q] = col.get(a * n + q, 0) - y * v
        basis = _mul_rows([vec for _, vec in nullspace_of_columns(columns)], basis)
    out = [_endo(n, den, [{k - p * n: v for k, v in vec.items() if k // n == p} for p in range(n)])
           for den, vec in canonical_basis(basis, n * n)]
    return len(out), out


# -- frame independence and equivariance ---------------------------------------

def frame_rotation_check(phi: ScaledSpinor, a: Matrix, kind: str = "pure") -> bool:
    """Does the pure (or reducing) verdict survive replacing the twist frame
    by the rows of the exact special-orthogonal matrix A?"""
    if len(check_sequence("frame", a)) != phi.r:
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
    [(verdict, _)] = _certify(phi, kind)
    [(moved, _)] = _certify(twisted_group_action(g_vectors, h_vectors, phi), kind)
    return moved == verdict


# -- representation-theory constants -------------------------------------------

@dataclass(frozen=True)
class ClDims:
    r: int
    d_r: int
    v_r: int


def cl_dims(r: int) -> ClDims:
    """Dimension of an irreducible real module of the even Clifford algebra
    of rank r, and the number of distinct irreducibles, by r mod 8.  r is
    an int in 1..MAX_R (``check_dimensions``), checked before any power is
    taken."""
    check_dimensions(0, r)
    if r < 1:
        raise ShapeMismatch("rank must be >= 1")
    residue = ((r - 1) % 8) + 1
    shift = {3: 1, 5: 1, 8: -1}.get(residue, 0)  # d_r = 2^(floor(r/2) + shift)
    return ClDims(r=r, d_r=2 ** (r // 2 + shift), v_r=2 if residue in (4, 8) else 1)
