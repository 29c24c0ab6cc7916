"""Exact rational linear algebra.

Row reduction is fraction-free and sparse.  A row, dense or a ``{col: value}``
map, is cleared to a ``{col: int}`` map over its nonzero entries and stripped
by its gcd; elimination uses integer cross-multiples only, so no rational
reconstruction happens until a nullspace vector is read off.  ``nullspace``
drops rows equal up to scale before eliminating and back-substitutes in
integers; its basis is read from the canonical reduced row echelon form, so
it does not depend on the order or the scale of the rows.  Also houses the
exact generators of rational orthogonal matrices (Cayley transforms, Givens
rotations from Pythagorean pairs) and rational unit vectors used by the group
tests.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import NotOrthogonal, NotUnitVector
from .scalars import exact_rational

Vector = List[Fraction]
Matrix = List[List[Fraction]]
IntRow = List[int]
SparseRow = Dict[int, int]
# A row as a dense sequence or as a {col: value} map of its nonzero entries.
Row = Union[Sequence[Fraction], Mapping[int, Fraction]]


def _sparse_int_row(row: Row) -> SparseRow:
    """The nonzero entries of ``row`` times the lcm of their denominators,
    divided by the gcd of the results: a primitive integer row."""
    items = row.items() if type(row) is dict or isinstance(row, Mapping) else enumerate(row)
    out = {col: x for col, x in items if x}
    if any(type(x) is not int for x in out.values()):
        den = math.lcm(*(x.denominator for x in out.values()))
        out = {col: x.numerator * (den // x.denominator) for col, x in out.items()}
    g = math.gcd(*out.values())
    if g > 1:
        out = {col: v // g for col, v in out.items()}
    return out


def _eliminate(row: SparseRow, piv: SparseRow, col: int) -> SparseRow:
    """a * row - b * piv, with a > 0 when piv[col] > 0, cancelling the entry at ``col``."""
    v, p = row[col], piv[col]
    g = math.gcd(v, p)
    a, b = p // g, v // g
    out = {c: a * x for c, x in row.items()} if a != 1 else dict(row)
    for c, y in piv.items():
        s = out.get(c, 0) - b * y
        if s:
            out[c] = s
        else:
            del out[c]
    return out


class RowReducer:
    """Incremental integer row echelon form on sparse rows of ``width``
    columns.  Each pivot row is primitive with a positive leading entry, and
    its pivot column is its smallest key."""

    def __init__(self, width: int) -> None:
        self.width = width
        self.pivots: Dict[int, SparseRow] = {}  # pivot column -> reduced row

    def _reduce(self, row: SparseRow) -> SparseRow:
        while row:
            col = min(row)
            piv = self.pivots.get(col)
            if piv is None:
                break
            row = _eliminate(row, piv, col)
        return row

    def _add(self, row: SparseRow) -> bool:
        r = self._reduce(row)
        if not r:
            return False
        g = math.gcd(*r.values())
        col = min(r)
        if r[col] < 0:
            g = -g
        if g != 1:
            r = {c: v // g for c, v in r.items()}
        self.pivots[col] = r
        return True

    def reduce(self, row: Row) -> SparseRow:
        """Clear ``row`` to integers and reduce it by the pivot rows.  The
        result is a positive multiple of ``row`` minus an integer combination
        of the pivot rows, as a {col: int} map; it is empty iff ``row`` lies
        in the row space."""
        return self._reduce(_sparse_int_row(row))

    def add(self, row: Row) -> bool:
        """Insert a row; returns True if it enlarged the row space."""
        return self._add(_sparse_int_row(row))

    def contains(self, row: Row) -> bool:
        return not self.reduce(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _back_substitute(pivots: Dict[int, SparseRow]) -> Dict[int, SparseRow]:
    """Integer back-substitution of an echelon form: clear every later pivot
    column from each pivot row, last pivot first, so that reduced[col] is a
    primitive positive multiple of the RREF row of col."""
    reduced: Dict[int, SparseRow] = {}
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for k in [k for k in row if k != col and k in reduced]:
            row = _eliminate(row, reduced[k], k)
        g = math.gcd(*row.values())
        reduced[col] = {c: v // g for c, v in row.items()} if g > 1 else row
    return reduced


def rank(rows: Sequence[Row], width: Optional[int] = None) -> int:
    if not rows:
        return 0
    red = RowReducer(width if width is not None else len(rows[0]))
    for row in rows:
        red.add(row)
    return red.rank


def span_contains(basis: Sequence[Row], vec: Row) -> bool:
    red = RowReducer(len(vec))
    for row in basis:
        red.add(row)
    return red.contains(vec)


def spans_equal(a: Sequence[Row], b: Sequence[Row]) -> bool:
    if not a and not b:
        return True
    width = len(a[0]) if a else len(b[0])
    ra = RowReducer(width)
    for row in a:
        ra.add(row)
    rb = RowReducer(width)
    for row in b:
        rb.add(row)
    if ra.rank != rb.rank:
        return False
    return all(ra.contains(row) for row in b)


def nullspace(rows: Sequence[Row], width: int) -> List[Vector]:
    """Basis of {x : A x = 0} for the matrix with the given rows, dense or
    {col: value} maps: one vector per free column f, with x_f = 1, zero on
    the other free columns, read off the reduced row echelon form."""
    red = RowReducer(width)
    seen = set()
    for row in rows:
        r = _sparse_int_row(row)
        if not r:
            continue
        if r[min(r)] < 0:
            r = {c: -v for c, v in r.items()}
        key = frozenset(r.items())
        if key in seen:
            continue
        seen.add(key)
        if min(r) < 0 or max(r) >= width:
            raise ValueError(f"row has a column outside 0..{width - 1}")
        red._add(r)
    reduced = _back_substitute(red.pivots)
    basis: Dict[int, Vector] = {}
    for fc in range(width):
        if fc not in reduced:
            vec = [Fraction(0)] * width
            vec[fc] = Fraction(1)
            basis[fc] = vec
    for col, row in reduced.items():
        lead = row[col]
        for c, v in row.items():
            if c != col:
                basis[c][col] = Fraction(-v, lead)
    return list(basis.values())


# -- dense Fraction matrices ------------------------------------------------

def identity(n: int) -> Matrix:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def zeros(n: int) -> Matrix:
    return [[Fraction(0)] * n for _ in range(n)]


def _clear_denominators(a: Matrix) -> Tuple[List[IntRow], int]:
    """(A', d) with A' = d * A an integer matrix, d the lcm of A's denominators."""
    d = math.lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in a], d


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product, multiplied out in integers: one Fraction per entry."""
    ia, da = _clear_denominators(a)
    ib, db = _clear_denominators(b)
    d = da * db
    cols = list(zip(*ib))
    return [[Fraction(sum(map(operator.mul, row, col)), d) for col in cols] for row in ia]


def transpose(a: Matrix) -> Matrix:
    return [list(row) for row in zip(*a)]


def mat_inv(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan; raises ZeroDivisionError if singular."""
    n = len(a)
    aug = [list(row) + ident for row, ident in zip(a, identity(n))]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def det(a: Matrix) -> Fraction:
    n = len(a)
    m = [list(row) for row in a]
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            out = -out
        out *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return out


def check_special_orthogonal(a: Matrix) -> Matrix:
    """A as an exact Fraction matrix, after checking it lies in SO(n)."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise NotOrthogonal("matrix is not square")
    a = [[exact_rational(x) for x in row] for row in a]
    if mat_mul(transpose(a), a) != identity(n):
        raise NotOrthogonal("A^T A != Id")
    if det(a) != 1:
        raise NotOrthogonal("det A != 1")
    return a


# -- exact orthogonal generators ---------------------------------------------

def cayley_so(skew: Matrix) -> Matrix:
    """(I - S)(I + S)^(-1) for skew S: always in SO(n), rational in S."""
    minus = [[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(skew)]
    return mat_mul(minus, mat_inv(transpose(minus)))  # I + S = (I - S)^T for skew S


def givens(n: int, i: int, j: int, c: Fraction, s: Fraction) -> Matrix:
    """Rotation by (c, s) with c^2 + s^2 = 1 in the (i, j) plane, 1-based."""
    if c * c + s * s != 1:
        raise NotOrthogonal(f"({c}, {s}) is not on the unit circle")
    g = identity(n)
    g[i - 1][i - 1] = c
    g[j - 1][j - 1] = c
    g[i - 1][j - 1] = -s
    g[j - 1][i - 1] = s
    return g


def rational_cos_sin(t: Fraction) -> Tuple[Fraction, Fraction]:
    """The rational point ((1-t^2)/(1+t^2), 2t/(1+t^2)) on the unit circle."""
    d = 1 + t * t
    return (1 - t * t) / d, 2 * t / d


def random_skew(n: int, rng: random.Random, bound: int = 3) -> Matrix:
    s = zeros(n)
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            s[i][j] = v
            s[j][i] = -v
    return s


def random_so_matrix(n: int, rng: random.Random, bound: int = 3) -> Matrix:
    return cayley_so(random_skew(n, rng, bound))


def random_unit_vector(n: int, rng: random.Random, support: int = 3) -> Vector:
    """Exact unit vector built by chaining rational plane rotations onto a
    basis vector.  Support is kept small so denominators stay moderate."""
    coords = rng.sample(range(n), k=min(support, n))
    v: Vector = [Fraction(0)] * n
    v[coords[0]] = Fraction(1)
    for j in coords[1:]:
        t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        c, s = rational_cos_sin(t)
        a, b = v[coords[0]], v[j]
        v[coords[0]], v[j] = c * a - s * b, s * a + c * b
    if sum(x * x for x in v) != 1:
        raise NotUnitVector("plane rotations left a vector of norm != 1")
    return v
