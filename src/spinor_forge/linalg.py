"""Exact rational linear algebra on one eliminator, ``RowReducer``.

Rank, span tests, the nullspace, the Cayley transform and the SO(n) check
all run on it.  A row, dense or a ``{col: value}`` map, is cleared to a
primitive ``{col: int}`` map over its nonzero entries, and elimination uses
integer cross-multiples only, so no rational is built until a result is
read off.  ``nullspace`` drops rows equal up to scale, back-substitutes in
integers and reads its basis from the canonical reduced row echelon form,
so it does not depend on the order or the scale of the rows.

Rational SO(n) comes from Givens rotations of Pythagorean pairs and from
Cayley transforms: for skew S, (I - S)(I + S)^(-1) = 2 (I + S)^(-1) - I, read
off the reduced rows [I + S | I].  A = A'/d passes the SO(n) check when
A'^T A' = d^2 I in integers; an orthogonal A is normal, so then
det A = (-1)^dim ker(A + I), read off the rank of A' + d I.  Also houses the
exact unit vectors used by the group tests.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .errors import IndexOutOfRange, NotOrthogonal, NotUnitVector
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
    """Incremental integer row echelon form on sparse rows.  Each pivot row
    is primitive with a positive leading entry, and its pivot column is its
    smallest key."""

    def __init__(self) -> None:
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


def _reduced(rows: Sequence[Row]) -> RowReducer:
    red = RowReducer()
    for row in rows:
        red.add(row)
    return red


def rank(rows: Sequence[Row]) -> int:
    return _reduced(rows).rank


def span_contains(basis: Sequence[Row], vec: Row) -> bool:
    return _reduced(basis).contains(vec)


def spans_equal(a: Sequence[Row], b: Sequence[Row]) -> bool:
    ra = _reduced(a)
    return ra.rank == _reduced(b).rank and all(ra.contains(row) for row in b)


def nullspace(rows: Sequence[Row], width: int) -> List[Vector]:
    """Basis of {x : A x = 0} for the matrix with the given rows, dense or
    {col: value} maps: one vector per free column f, with x_f = 1, zero on
    the other free columns, read off the reduced row echelon form."""
    red = RowReducer()
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


def _clear_denominators(a: Matrix) -> Tuple[List[IntRow], int]:
    """(A', d) with A' = d * A an integer matrix, d the lcm of A's denominators."""
    d = math.lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in a], d


def transpose(a: Matrix) -> Matrix:
    return [list(row) for row in zip(*a)]


def check_special_orthogonal(a: Matrix) -> Matrix:
    """A as an exact Fraction matrix, after checking it lies in SO(n)."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise NotOrthogonal("matrix is not square")
    a = [[exact_rational(x) for x in row] for row in a]
    ia, d = _clear_denominators(a)
    cols = list(zip(*ia))
    if any(sum(map(operator.mul, ci, cj)) != d * d * (i == j)
           for i, ci in enumerate(cols) for j, cj in enumerate(cols[i:], i)):
        raise NotOrthogonal("A^T A != Id")
    # A is orthogonal, hence normal: det A = (-1)^dim ker(A + I).
    if (n - rank([[x + d * (i == j) for j, x in enumerate(row)] for i, row in enumerate(ia)])) % 2:
        raise NotOrthogonal("det A != 1")
    return a


# -- exact orthogonal generators ---------------------------------------------

def cayley_so(skew: Matrix) -> Matrix:
    """(I - S)(I + S)^(-1) = 2 (I + S)^(-1) - I for skew S: always in SO(n),
    rational in S.  Row k of the reduced [I + S | I] is lead_k [e_k | row k
    of (I + S)^(-1)]."""
    n = len(skew)
    red = RowReducer()
    for i, row in enumerate(skew):
        red.add({**{j: int(i == j) + x for j, x in enumerate(row)}, n + i: 1})
    reduced = _back_substitute(red.pivots)
    if any(k not in reduced for k in range(n)):
        raise ZeroDivisionError("I + S is singular")
    out: Matrix = []
    for k in range(n):
        row, lead = reduced[k], reduced[k][k]
        out.append([Fraction(2 * row.get(n + j, 0) - lead * (j == k), lead) for j in range(n)])
    return out


def givens(n: int, i: int, j: int, c: Fraction, s: Fraction) -> Matrix:
    """Rotation by (c, s) with c^2 + s^2 = 1 in the (i, j) plane, 1-based."""
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise IndexOutOfRange(f"rotation plane ({i},{j}) is not two distinct indices in 1..{n}")
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
    s = [[Fraction(0)] * n for _ in range(n)]
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
