import itertools
import math
import random
from collections.abc import Mapping
from fractions import Fraction as F
from types import MappingProxyType

import pytest

from spinor_forge import linalg
from spinor_forge.errors import (
    InexactScalar, InvalidValue, NotOrthogonal, NotUnitVector,
)
from spinor_forge.linalg import (
    RowReducer,
    canonical_basis,
    cayley_so,
    check_special_orthogonal,
    nullspace,
    random_skew,
    random_so_matrix,
    random_unit_vector,
    rank,
    rational_cos_sin,
    span_contains,
    spans_equal,
    transpose,
)

from .helpers import naive_mat_mul, plain_nullspace, plain_rref, random_matrix


def plain_gauss_rank(rows):
    """Independent rank oracle."""
    return len(plain_rref(rows, len(rows[0]) if rows else 0)[1])


def dense_nullspace(rows, n_cols):
    """``nullspace`` read back as dense Fraction vectors, after checking each
    integer form (den, vec): int den > 0, nonzero int entries in range, and
    vec[f] = den on its free column f, the oracle's free columns ascending."""
    dense_rows = [[F(row.get(c, 0)) for c in range(n_cols)] if isinstance(row, Mapping) else row
                  for row in rows]
    free = [c for c in range(n_cols) if c not in plain_rref(dense_rows, n_cols)[1]]
    basis = nullspace(rows, n_cols)
    assert len(basis) == len(free)
    out = []
    for f, (den, vec) in zip(free, basis):
        assert type(den) is int and den > 0 and vec[f] == den
        assert all(type(v) is int and v and 0 <= c < n_cols for c, v in vec.items())
        out.append([F(vec.get(c, 0), den) for c in range(n_cols)])
    return out


def test_rank_matches_plain_gauss_oracle():
    rng = random.Random(0)
    for _ in range(30):
        rows = random_matrix(rng.randint(1, 8), rng.randint(1, 8), rng, bound=3)
        # inject dependent rows
        if len(rows) > 2 and rng.random() < 0.5:
            rows.append([a + b for a, b in zip(rows[0], rows[1])])
        assert rank(rows) == plain_gauss_rank(rows)


def test_nullspace_vectors_are_exact_kernel_elements():
    rng = random.Random(1)
    for _ in range(30):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
        rows = random_matrix(n_rows, n_cols, rng, bound=3)
        basis = dense_nullspace(rows, n_cols)
        assert len(basis) == n_cols - plain_gauss_rank(rows)
        for vec in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0
        assert rank(basis) == len(basis)


def _mixed_system(rng, n_rows, n_cols):
    """Seeded sparse-ish rows with zero rows, repeats and rescaled copies
    (negative scales included) mixed in, in shuffled order."""
    rows = [[F(rng.randint(-4, 4), rng.randint(1, 5)) if rng.random() < 0.6 else F(0)
             for _ in range(n_cols)] for _ in range(n_rows)]
    extra = [[F(0)] * n_cols]
    for _ in range(rng.randint(1, 4) if rows else 0):
        src = rng.choice(rows)
        scale = rng.choice((F(1), F(-1), F(3), F(-2, 7), F(5, 3)))
        extra.append([scale * x for x in src])
    rows += extra
    rng.shuffle(rows)
    return rows


def test_nullspace_is_the_canonical_basis_of_a_plain_rref_oracle():
    rng = random.Random(7)
    for _ in range(60):
        n_cols = rng.randint(1, 9)
        rows = _mixed_system(rng, rng.randint(0, 8), n_cols)
        want = plain_nullspace(rows, n_cols)
        assert dense_nullspace(rows, n_cols) == want
        # The same rows as {col: value} maps, some with explicit zero entries.
        maps = [{c: x for c, x in enumerate(row) if x or rng.random() < 0.2} for row in rows]
        assert dense_nullspace(maps, n_cols) == want
        assert dense_nullspace(maps[::-1], n_cols) == want
        # As int maps (each row times the lcm of its denominators), and as
        # read-only mappings that are not dicts.
        ints = [{c: int(x * math.lcm(*(y.denominator for y in row))) for c, x in m.items()}
                for m, row in zip(maps, rows)]
        assert dense_nullspace(ints, n_cols) == want
        assert dense_nullspace([MappingProxyType(m) for m in maps], n_cols) == want


def test_nullspace_of_structured_systems():
    # No rows: the standard basis.  A full-rank system: nothing.
    assert dense_nullspace([], 3) == [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    assert dense_nullspace([{0: F(1)}, {1: F(2)}], 2) == []
    # A row mixing ints and Fractions: 2 x0 + 4/3 x1 = 0.
    assert dense_nullspace([{0: 2, 1: F(4, 3)}], 2) == [[F(-2, 3), F(1)]]
    # x0 + 2 x2 = 0 and x1 - x2/3 = 0, given as rescaled and duplicated rows.
    rows = [{0: F(-3), 2: F(-6)}, {1: F(3), 2: F(-1)}, {1: F(-1, 2), 2: F(1, 6)},
            {0: F(1, 5), 2: F(2, 5)}, {}]
    assert dense_nullspace(rows, 4) == [[F(-2), F(1, 3), F(1), F(0)], [F(0), F(0), F(0), F(1)]]
    with pytest.raises(InvalidValue):
        nullspace([{5: F(1)}], 4)


def _dense_forms(forms, free, n_cols):
    """Integer forms (den, vec) read back as dense Fraction vectors, after
    checking that den > 0, that the entries are nonzero ints in range, and
    that vec[f] = den on its free column f, ``free`` ascending."""
    assert len(forms) == len(free)
    out = []
    for f, (den, vec) in zip(free, forms):
        assert type(den) is int and den > 0 and vec[f] == den
        assert all(type(v) is int and v and 0 <= c < n_cols for c, v in vec.items())
        out.append([F(vec.get(c, 0), den) for c in range(n_cols)])
    return out


def test_canonical_basis_is_nullspace_of_any_spanning_set():
    """Any spanning set of a kernel, shuffled, rescaled, with zero vectors
    and dependent combinations, dense or as int maps, gives ``nullspace``'s
    basis, vector for vector, on the oracle's free columns."""
    rng = random.Random(11)
    seen = {"empty": 0, "full": 0, "dependent": 0}
    for _ in range(150):
        n_cols = rng.randint(1, 9)
        rows = _mixed_system(rng, rng.randint(0, 8), n_cols)
        free = [c for c in range(n_cols) if c not in plain_rref(rows, n_cols)[1]]
        want = _dense_forms(nullspace(rows, n_cols), free, n_cols)
        span = [[x * c for x in v] for v in want
                for c in [F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))]]
        for _ in range(rng.randint(0, 3) if want else 0):
            u, w = rng.choice(want), rng.choice(want)
            c = F(rng.randint(-3, 3), rng.randint(1, 3))
            span.append([x + c * y for x, y in zip(u, w)])
            seen["dependent"] += 1
        if rng.random() < 0.3:
            span.append([F(0)] * n_cols)
        rng.shuffle(span)
        assert _dense_forms(canonical_basis(span, n_cols), free, n_cols) == want
        ints = [{c: int(x * math.lcm(*(y.denominator for y in v))) for c, x in enumerate(v) if x}
                for v in span]
        assert _dense_forms(canonical_basis(ints, n_cols), free, n_cols) == want
        seen["empty"] += not want
        seen["full"] += len(want) == n_cols
    assert min(seen.values()) >= 5, seen
    assert canonical_basis([], 3) == []


def test_nullspace_of_columns_is_nullspace_of_the_hand_transposed_rows(monkeypatch):
    """Seeded sparse integer columns keyed by tuple and int labels, some
    columns zero and some rows repeated (one label's entries copied to
    another): the basis of the rows transposed by hand, and the kernel hands
    ``nullspace`` its rows in the order their labels are first met."""
    rng = random.Random(31)
    pool = [(s, idx, part) for s in range(2) for idx in range(4) for part in range(2)] + [7, -1]
    seen = {"zero column": 0, "repeated row": 0, "nonzero kernel": 0}
    handed = []
    real = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace", lambda rows, width: handed.append(rows) or
                        real(rows, width))
    for _ in range(80):
        columns = []
        for _ in range(rng.randint(1, 7)):
            labels = [] if rng.random() < 0.15 else rng.sample(pool, rng.randint(1, 5))
            columns.append({lab: rng.choice((-3, -2, -1, 1, 2, 3)) for lab in labels})
            seen["zero column"] += not labels
        if rng.random() < 0.5:
            a, b = rng.sample(pool, 2)
            for col in columns:
                col.pop(b, None)
                if a in col:
                    col[b] = col[a]
                    seen["repeated row"] += 1
        order = list(dict.fromkeys(lab for col in columns for lab in col))
        hand = [{j: col[lab] for j, col in enumerate(columns) if lab in col} for lab in order]
        handed.clear()
        got = linalg.nullspace_of_columns(columns)
        assert handed == [hand]
        assert got == real(sorted(hand, key=lambda row: sorted(row.items())), len(columns))
        seen["nonzero kernel"] += bool(got)
    assert min(seen.values()) >= 5, seen
    assert linalg.nullspace_of_columns([]) == []


def test_span_membership_and_equality():
    a = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    b = [[F(1), F(1), F(2)], [F(1), F(-1), F(0)]]
    assert spans_equal(a, b)
    assert span_contains(a, [F(2), F(3), F(5)])
    assert not span_contains(a, [F(0), F(0), F(1)])
    assert not spans_equal(a, [[F(1), F(0), F(0)]])


def test_row_reducer_incremental():
    red = RowReducer()
    assert red.add([F(1), F(2), F(3)])
    assert not red.add([F(2), F(4), F(6)])
    assert red.add([F(0), F(1), F(0)])
    assert red.rank == 2


def test_row_reducer_pivots_away_from_column_zero():
    red = RowReducer()
    assert red.add([F(0), F(0), F(3), F(-6)])
    assert red.add({1: F(2, 3), 2: F(1, 3)})
    assert sorted(red.pivots) == [1, 2]
    assert not red.add({2: F(-1, 2), 3: F(1)})           # -1/6 of the first row
    assert red.contains([F(0), F(4), F(5), F(-6)])       # 2 * second + first, cleared
    assert not red.contains([F(1), F(0), F(0), F(0)])
    assert not red.contains({3: F(7)})
    assert red.add({3: F(7)}) and red.rank == 3
    assert red.contains([F(0), F(0), F(0), F(-1, 9)])


def plain_det(a):
    """Independent determinant oracle: Fraction Gaussian elimination with
    row swaps."""
    m = [list(row) for row in a]
    out = F(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c]), None)
        if piv is None:
            return F(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out


def test_cayley_transform_lands_in_so():
    rng = random.Random(3)
    for n in (2, 3, 5, 7):
        a = cayley_so(random_skew(n, rng))
        check_special_orthogonal(a)


@pytest.mark.parametrize("s", [
    [[0, 1, 5], [-1, 0, 7]],
    [[0, 1], [2, 0]],
    [[1, 0], [0, 1]],
], ids=["not square", "not skew", "identity"])
def test_cayley_refuses_what_is_not_square_and_skew(s, monkeypatch):
    """The Cayley formula would read each off as a matrix outside SO(n), so
    it is refused before any row is reduced."""
    monkeypatch.setattr(linalg, "RowReducer", None)
    with pytest.raises(NotOrthogonal, match="square skew"):
        cayley_so(s)


@pytest.mark.parametrize("call", [
    lambda rng: random_unit_vector(3, rng, support=0),
    lambda rng: random_unit_vector(0, rng),
    lambda rng: random_skew(3, rng, bound=0),
    lambda rng: random_so_matrix(3, rng, bound=0),
], ids=["unit vector support 0", "unit vector dim 0", "skew bound 0", "so bound 0"])
def test_random_generators_refuse_empty_ranges(call):
    """A typed InvalidValue, not an IndexError or a bare ValueError from randint."""
    with pytest.raises(InvalidValue):
        call(random.Random(0))


def test_check_special_orthogonal_rejects_reflections():
    refl = [[F(1), F(0)], [F(0), F(-1)]]
    with pytest.raises(NotOrthogonal):
        check_special_orthogonal(refl)


def test_random_unit_vectors_are_exact():
    rng = random.Random(4)
    for n in (2, 3, 7, 8):
        for _ in range(5):
            v = random_unit_vector(n, rng)
            assert sum(x * x for x in v) == 1


def test_random_unit_vector_refuses_a_non_unit_result(monkeypatch):
    """The norm check is a raise, not an assert, so it holds under python -O."""
    monkeypatch.setattr(linalg, "rational_cos_sin", lambda t: (F(1), F(1)))
    with pytest.raises(NotUnitVector):
        random_unit_vector(4, random.Random(0))


def test_random_so_matrix_orthogonal():
    rng = random.Random(5)
    a = random_so_matrix(4, rng)
    assert naive_mat_mul(transpose(a), a) == [[F(int(i == j)) for j in range(4)] for i in range(4)]
    assert plain_det(a) == 1


def test_cayley_so_solves_the_defining_equation():
    """A (I + S) = I - S, multiplied out by the plain triple loop."""
    rng = random.Random(8)
    for n in (1, 2, 3, 5, 8, 16):
        for _ in range(3 if n < 16 else 1):
            s = random_skew(n, rng)
            a = cayley_so(s)
            plus = [[int(i == j) + x for j, x in enumerate(row)] for i, row in enumerate(s)]
            minus = [[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(s)]
            assert naive_mat_mul(a, plus) == minus
            assert all(isinstance(x, F) for row in a for x in row)


def _orthogonal_cases():
    """Orthogonal matrices of both determinants: permutation matrices,
    -I, Cayley matrices with one row negated, Cayley matrices times a
    rotation by pi."""
    rng = random.Random(9)
    for n in range(1, 5):
        for perm in itertools.permutations(range(n)):
            yield [[F(int(perm[i] == j)) for j in range(n)] for i in range(n)]
    for n in range(1, 7):
        yield [[F(-int(i == j)) for j in range(n)] for i in range(n)]
    for n in (1, 2, 3, 5, 7, 8):
        a = cayley_so(random_skew(n, rng))
        k = rng.randrange(n)
        yield [[-x for x in row] if i == k else row for i, row in enumerate(a)]
        if n >= 2:
            yield naive_mat_mul(a, [[F(-int(i == j) if j < 2 else int(i == j)) for j in range(n)]
                                    for i in range(n)])


def test_check_special_orthogonal_matches_the_determinant_oracle():
    dets = set()
    for a in _orthogonal_cases():
        assert naive_mat_mul(transpose(a), a) == [[F(int(i == j)) for j in range(len(a))]
                                                  for i in range(len(a))]
        want = plain_det(a)
        dets.add(want)
        if want == 1:
            assert check_special_orthogonal(a) == a
        else:
            with pytest.raises(NotOrthogonal, match=r"^det A != 1$"):
                check_special_orthogonal(a)
    assert dets == {F(1), F(-1)}


def test_check_special_orthogonal_refuses_a_shear_of_determinant_one():
    """A shear, and a stretch whose columns are orthogonal but not unit."""
    for a in ([[F(1), F(1, 2)], [F(0), F(1)]], [[F(2), F(0)], [F(0), F(1, 2)]]):
        assert plain_det(a) == 1
        with pytest.raises(NotOrthogonal, match=r"^A\^T A != Id$"):
            check_special_orthogonal(a)


@pytest.mark.parametrize("call", [
    lambda: rank([[0.5]]),
    lambda: rank([[True]]),
    lambda: rank([{0: F(1), 1: 0.25}]),
    lambda: nullspace([{0: 0.5}], 1),
    lambda: span_contains([[F(1)]], [1.0]),
    lambda: cayley_so([[0, 0.5], [-0.5, 0]]),
    lambda: rational_cos_sin(0.5),
    lambda: rational_cos_sin(True),
    lambda: rank([[0.0]]),
    lambda: rank([[False, 1]]),
    lambda: nullspace([{0: 0.0, 1: 1}], 2),
    lambda: span_contains([[1, 0]], [1, 0.0]),
    lambda: cayley_so([[0, True], [-True, 0]]),
], ids=["rank float", "rank bool", "rank mixed map", "nullspace float", "span float",
        "cayley float", "cos_sin float", "cos_sin bool",
        "rank zero float", "rank false", "nullspace zero float", "span zero float",
        "cayley bool"])
def test_inexact_entries_raise_inexact_scalar(call):
    """A float or a bool where an exact rational belongs raises InexactScalar,
    not an AttributeError, and is never read as a number; a zero float or
    False is refused too, not dropped as a zero."""
    with pytest.raises(InexactScalar):
        call()


def test_int_rows_do_not_go_through_exact_rational(monkeypatch):
    """The type check reads ints directly: with ``exact_rational`` raising,
    dense and sparse int rows, zeros included, still reduce."""
    def refuse(x):
        raise AssertionError(f"exact_rational({x!r}) on an int row")

    monkeypatch.setattr(linalg, "exact_rational", refuse)
    assert rank([[1, 0, 2], [2, 0, 4], [0, 0, 3]]) == 2
    assert nullspace([{0: 1, 1: -1}, {1: 2, 2: 0}], 3) == [(1, {2: 1})]
    assert span_contains([[1, 0], [0, 3]], [5, 0])


def test_exact_entries_still_read():
    assert rank([[1, F(1, 2)], [2, 1]]) == 1 and rank([{0: 2, 3: F(-1, 3)}]) == 1
    # an exact zero of another type is read, then dropped like an int zero
    assert rank([["0"]]) == 0 and nullspace([{0: "0", 1: 1}], 2) == [(1, {0: 1})]
    assert rational_cos_sin(1) == (0, 1) and rational_cos_sin(F(1, 2)) == (F(3, 5), F(4, 5))

