"""Exact rational linear algebra on one eliminator, ``RowReducer``.

Rank, span tests, the nullspace, the Cayley transform and the SO(n) check
all run on it.  A row, dense or a ``{col: value}`` map, is cleared to a
primitive ``{col: int}`` map over its nonzero entries, and elimination uses
integer cross-multiples only, so no rational is built until a result is
read off.  The pivot rows, kept reduced as rows arrive, are the canonical
reduced row echelon form: spans are equal exactly when their pivot rows are,
and ``nullspace`` drops rows equal up to scale and reads its basis off them,
whatever the rows' order or scale, as integers over one denominator.

Rational SO(n) comes from Cayley transforms: for skew S, (I - S)(I + S)^(-1)
= 2 (I + S)^(-1) - I, read off the reduced rows [I + S | I].  A = A'/d
passes the SO(n) check when A'^T A' = d^2 I in integers; an orthogonal A is
normal, so then det A = (-1)^dim ker(A + I), read off the rank of A' + d I.
Also houses the exact unit vectors used by the group tests.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple, Union

from .errors import InvalidValue, NotOrthogonal, NotUnitVector
from .scalars import exact_rational
from .spinrep import check_dimensions, check_indices, check_mapping, check_sequence

Vector = List[Fraction]
Matrix = List[List[Fraction]]
IntRow = List[int]
SparseRow = Dict[int, int]
# A row as a dense sequence or as a {col: value} map of its nonzero entries.
Row = Union[Sequence[Fraction], Mapping[int, Fraction]]
_EXACT_TYPES = frozenset((int, Fraction))  # entries whose zeros are dropped unread


def _sparse_int_row(row: Row) -> SparseRow:
    """The nonzero entries of ``row`` times the lcm of their denominators,
    divided by the gcd of the results: a primitive integer row.  Only int
    and Fraction zeros are dropped unread; every other entry, zero or not,
    goes through ``exact_rational``, so a float or a bool raises
    ``InexactScalar``, and a row that is no mapping and no sequence raises
    ``InvalidValue``.  An int row never goes through ``exact_rational``."""
    items = (row.items() if type(row) is dict or isinstance(row, Mapping)
             else enumerate(check_sequence("row", row)))
    out = {col: x for col, x in items if x or type(x) not in _EXACT_TYPES}
    if any(type(x) is not int for x in out.values()):
        out = {col: x if type(x) is Fraction else exact_rational(x) for col, x in out.items()}
        den = math.lcm(*(x.denominator for x in out.values()))
        out = {col: v for col, x in out.items() if (v := x.numerator * (den // x.denominator))}
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
    """Incremental reduced row echelon form on sparse integer rows.  Each
    pivot row is primitive, positive at its pivot column, which is its
    smallest key, and zero on every other pivot column.  A kept row whose
    keys do not compare (ints and tuples, say) raises ``InvalidValue``."""

    def __init__(self) -> None:
        self.pivots: Dict[int, SparseRow] = {}  # pivot column -> reduced row

    def _reduce(self, row: SparseRow) -> SparseRow:
        pivots = self.pivots  # reduced: each pivot column of row is eliminated once
        for col in [c for c in row if c in pivots]:
            row = _eliminate(row, pivots[col], col)
        return row

    def _add(self, row: SparseRow) -> bool:
        r = self._reduce(row)
        if not r:
            return False
        try:
            col = min(r)
        except TypeError:
            raise InvalidValue("row keys do not compare") from None
        g = math.gcd(*r.values())
        if r[col] < 0:
            g = -g
        if g != 1:
            r = {c: v // g for c, v in r.items()}
        for p, piv in self.pivots.items():  # clear col, keeping piv[p] > 0
            if col in piv:
                piv = _eliminate(piv, r, col)
                g = math.gcd(*piv.values())
                self.pivots[p] = {c: v // g for c, v in piv.items()} if g > 1 else piv
        self.pivots[col] = r
        return True

    def add(self, row: Row) -> bool:
        """Insert a row; returns True if it enlarged the row space."""
        return self._add(_sparse_int_row(row))

    def contains(self, row: Row) -> bool:
        """Does ``row`` lie in the row space?  Exactly when reducing it,
        cleared to integers, by the pivot rows leaves nothing."""
        return not self._reduce(_sparse_int_row(row))

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _lead(r: SparseRow, width: int) -> int:
    """The first column of the nonzero row r; InvalidValue unless its keys are
    int columns 0..width - 1 (a float or Fraction key makes their sum no int)."""
    try:
        lead = min(r)
        if lead >= 0 and max(r) < width and type(sum(r)) is int:
            return lead
    except TypeError:
        pass
    raise InvalidValue(f"row has a column that is no int in 0..{width - 1}")


def _reduced(rows: Sequence[Row]) -> RowReducer:
    red = RowReducer()
    for row in check_sequence("rows", rows):
        red.add(row)
    return red


def rank(rows: Sequence[Row]) -> int:
    return _reduced(rows).rank


def span_contains(basis: Sequence[Row], vec: Row) -> bool:
    return _reduced(basis).contains(vec)


def spans_equal(a: Sequence[Row], b: Sequence[Row]) -> bool:
    """Equal row spaces: equal canonical reduced forms, ``RowReducer``'s pivot rows."""
    return _reduced(a).pivots == _reduced(b).pivots


def nullspace(rows: Sequence[Row], width: int) -> List[Tuple[int, SparseRow]]:
    """Basis of {x : A x = 0} for the matrix with the given rows, dense or
    {col: value} maps on columns 0..width - 1 (InvalidValue otherwise): one
    vector per free column f, ascending, with x_f = 1, zero on the other free
    columns, read off the reduced pivot rows as they stand.  Each is an integer form
    (den, {col: int}) with x = vec / den, den > 0 the lcm of the pivot leads,
    so vec[f] = den; it is not reduced."""
    check_indices("width", width)
    red = RowReducer()
    raw_seen, seen = set(), set()
    for row in check_sequence("rows", rows):
        if type(row) is dict:  # a repeated map needs no clearing
            raw = tuple(row.items())
            if raw in raw_seen:
                continue
            raw_seen.add(raw)
        r = _sparse_int_row(row)
        if not r:
            continue
        if r[_lead(r, width)] < 0:
            r = {c: -v for c, v in r.items()}
        key = frozenset(r.items())
        if key not in seen:
            seen.add(key)
            red._add(r)
    den = math.lcm(*(row[col] for col, row in red.pivots.items()))
    basis = {f: {f: den} for f in range(width) if f not in red.pivots}
    for col, row in red.pivots.items():
        q = den // row[col]
        for c, v in row.items():
            if c != col:
                basis[c][col] = -v * q
    return [(den, vec) for vec in basis.values()]


def nullspace_of_columns(columns: Sequence[Mapping[Hashable, int]]) -> List[Tuple[int, SparseRow]]:
    """``nullspace`` of the matrix whose column j is the integer map ``columns[j]``
    {row label: value}; the rows are made in the order their labels are first met."""
    rows: Dict[Hashable, SparseRow] = {}
    for j, col in enumerate(check_sequence("columns", columns)):
        for label, v in check_mapping("column", col).items():
            rows.setdefault(label, {})[j] = v
    return nullspace(list(rows.values()), len(columns))


def canonical_basis(vectors: Sequence[Row], width: int) -> List[Tuple[int, SparseRow]]:
    """The basis ``nullspace`` gives for the kernel that ``vectors`` span, in
    any order, scale or dependence, as integer forms (den, vec) with
    vec[f] = den.  Its free columns are the last columns on which the span
    projects one-to-one, so one ``RowReducer`` pass over the reversed
    columns (c read as width - 1 - c) pivots on exactly them, and the
    reduced row of free column f is zero on the others."""
    check_indices("width", width)
    red, last = RowReducer(), width - 1
    for vec in check_sequence("vectors", vectors):
        r = _sparse_int_row(vec)
        if r:
            _lead(r, width)
            red._add({last - c: v for c, v in r.items()})
    return [(red.pivots[p][p], {last - c: v for c, v in red.pivots[p].items()})
            for p in sorted(red.pivots, reverse=True)]


# -- dense Fraction matrices ------------------------------------------------

def _clear_denominators(a: Matrix) -> Tuple[List[IntRow], int]:
    """(A', d) with A' = d * A an integer matrix, d the lcm of A's denominators."""
    d = math.lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in a], d


def check_special_orthogonal(a: Matrix) -> Matrix:
    """A as an exact Fraction matrix, after checking it lies in SO(n)."""
    n = len(check_sequence("matrix", a))
    if any(len(check_sequence("matrix row", row)) != n for row in a):
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
    rational in S, and x^T (I + S) x = |x|^2, so I + S is invertible.  Row k
    of the reduced [I + S | I] is lead_k [e_k | row k of (I + S)^(-1)].
    Before anything is reduced, a non-sequence S or row raises ``InvalidValue``,
    a float or bool entry ``InexactScalar``, a non-square or non-skew S ``NotOrthogonal``."""
    s = [[exact_rational(x) for x in check_sequence("matrix row", row)]
         for row in check_sequence("matrix", skew)]
    n = len(s)
    if any(len(row) != n for row in s) or any(
            s[i][j] != -s[j][i] for i in range(n) for j in range(i, n)):
        raise NotOrthogonal("S is not a square skew matrix")
    red = RowReducer()
    for i, row in enumerate(s):
        red.add({**{j: (i == j) + x for j, x in enumerate(row)}, n + i: 1})
    out: Matrix = []
    for k in range(n):
        row, lead = red.pivots[k], red.pivots[k][k]
        out.append([Fraction(2 * row.get(n + j, 0) - lead * (j == k), lead) for j in range(n)])
    return out


def rational_cos_sin(t: Fraction) -> Tuple[Fraction, Fraction]:
    """The rational point ((1-t^2)/(1+t^2), 2t/(1+t^2)) on the unit circle."""
    t = exact_rational(t)
    d = 1 + t * t
    return (1 - t * t) / d, 2 * t / d


def random_skew(n: int, rng: random.Random, bound: int = 3) -> Matrix:
    check_indices("entry bound", bound)
    check_dimensions(n)  # before the n x n matrix is allocated
    if bound < 1:
        raise InvalidValue(f"entry bound must be >= 1, got {bound}")
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
    check_dimensions(n)
    check_indices("support", support)
    if n < 1 or support < 1:
        raise InvalidValue(f"need dimension and support >= 1, got {n} and {support}")
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
