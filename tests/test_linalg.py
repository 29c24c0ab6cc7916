import math
import random
from fractions import Fraction as F
from types import MappingProxyType

import pytest

from spinor_forge import linalg
from spinor_forge.errors import NotOrthogonal, NotUnitVector
from spinor_forge.linalg import (
    RowReducer,
    cayley_so,
    check_special_orthogonal,
    det,
    givens,
    identity,
    mat_inv,
    mat_mul,
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


def random_matrix(rows, cols, rng, bound=4):
    return [[F(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)]


def plain_rref(rows, n_cols):
    """Independent oracle: straightforward Gauss-Jordan over Fraction.
    Returns the nonzero rows of the reduced row echelon form and their
    pivot columns."""
    m = [list(r) for r in rows]
    n_rows = len(m)
    pivots = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        piv = next((i for i in range(r, n_rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def plain_gauss_rank(rows):
    """Independent rank oracle."""
    return len(plain_rref(rows, len(rows[0]) if rows else 0)[1])


def plain_nullspace(rows, n_cols):
    """The canonical kernel basis: for each free column f, the vector with
    x_f = 1, zero on the other free columns, from the oracle's RREF."""
    rref, pivots = plain_rref(rows, n_cols)
    basis = []
    for f in range(n_cols):
        if f in pivots:
            continue
        vec = [F(0)] * n_cols
        vec[f] = F(1)
        for row, p in zip(rref, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


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
        basis = nullspace(rows, n_cols)
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
        assert nullspace(rows, n_cols) == want
        # The same rows as {col: value} maps, some with explicit zero entries.
        maps = [{c: x for c, x in enumerate(row) if x or rng.random() < 0.2} for row in rows]
        assert nullspace(maps, n_cols) == want
        assert nullspace(maps[::-1], n_cols) == want
        # As int maps (each row times the lcm of its denominators), and as
        # read-only mappings that are not dicts.
        ints = [{c: int(x * math.lcm(*(y.denominator for y in row))) for c, x in m.items()}
                for m, row in zip(maps, rows)]
        assert nullspace(ints, n_cols) == want
        assert nullspace([MappingProxyType(m) for m in maps], n_cols) == want


def test_nullspace_of_structured_systems():
    # No rows: the standard basis.  A full-rank system: nothing.
    assert nullspace([], 3) == [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    assert nullspace([{0: F(1)}, {1: F(2)}], 2) == []
    # A row mixing ints and Fractions: 2 x0 + 4/3 x1 = 0.
    assert nullspace([{0: 2, 1: F(4, 3)}], 2) == [[F(-2, 3), F(1)]]
    # x0 + 2 x2 = 0 and x1 - x2/3 = 0, given as rescaled and duplicated rows.
    rows = [{0: F(-3), 2: F(-6)}, {1: F(3), 2: F(-1)}, {1: F(-1, 2), 2: F(1, 6)},
            {0: F(1, 5), 2: F(2, 5)}, {}]
    assert nullspace(rows, 4) == [[F(-2), F(1, 3), F(1), F(0)], [F(0), F(0), F(0), F(1)]]
    with pytest.raises(ValueError):
        nullspace([{5: F(1)}], 4)


def test_span_membership_and_equality():
    a = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    b = [[F(1), F(1), F(2)], [F(1), F(-1), F(0)]]
    assert spans_equal(a, b)
    assert span_contains(a, [F(2), F(3), F(5)])
    assert not span_contains(a, [F(0), F(0), F(1)])
    assert not spans_equal(a, [[F(1), F(0), F(0)]])


def test_row_reducer_incremental():
    red = RowReducer(3)
    assert red.add([F(1), F(2), F(3)])
    assert not red.add([F(2), F(4), F(6)])
    assert red.add([F(0), F(1), F(0)])
    assert red.rank == 2


def test_row_reducer_pivots_away_from_column_zero():
    red = RowReducer(4)
    assert red.add([F(0), F(0), F(3), F(-6)])
    assert red.add({1: F(2, 3), 2: F(1, 3)})
    assert sorted(red.pivots) == [1, 2]
    assert not red.add({2: F(-1, 2), 3: F(1)})           # -1/6 of the first row
    assert red.contains([F(0), F(4), F(5), F(-6)])       # 2 * second + first, cleared
    assert not red.contains([F(1), F(0), F(0), F(0)])
    assert not red.contains({3: F(7)})
    assert red.add({3: F(7)}) and red.rank == 3
    assert red.contains([F(0), F(0), F(0), F(-1, 9)])


def naive_mat_mul(a, b):
    """Independent product oracle: the plain Fraction triple loop."""
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), F(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_mat_mul_matches_naive_triple_loop():
    rng = random.Random(6)
    cases = [([[F(-7, 3)]], [[F(5, 14)]])]
    for rows, inner, cols in ((2, 3, 4), (4, 1, 3), (3, 5, 2), (1, 4, 1)):
        a = random_matrix(rows, inner, rng)
        b = [[F(rng.randint(-9, 9), rng.choice((1, 2, 7, 12))) for _ in range(cols)]
             for _ in range(inner)]
        a[0] = [F(0)] * inner  # an all-zero row
        cases.append((a, b))
    cases.append(([[F(0)] * 3] * 2, [[F(0)] * 2] * 3))
    for a, b in cases:
        got = mat_mul(a, b)
        assert got == naive_mat_mul(a, b)
        assert all(isinstance(x, F) for row in got for x in row)


def test_mat_inv_and_det():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(1, 5)
        a = random_matrix(n, n, rng, bound=3)
        if det(a) == 0:
            continue
        assert mat_mul(a, mat_inv(a)) == identity(n)
    assert det([[F(2), F(0)], [F(0), F(3)]]) == 6
    assert det([[F(0), F(1)], [F(1), F(0)]]) == -1


def test_cayley_transform_lands_in_so():
    rng = random.Random(3)
    for n in (2, 3, 5, 7):
        a = cayley_so(random_skew(n, rng))
        check_special_orthogonal(a)


def test_givens_and_pythagorean_pairs():
    g = givens(4, 1, 3, F(3, 5), F(4, 5))
    check_special_orthogonal(g)
    with pytest.raises(NotOrthogonal):
        givens(4, 1, 3, F(1, 2), F(1, 2))
    c, s = rational_cos_sin(F(1, 2))
    assert c * c + s * s == 1


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
    assert mat_mul(transpose(a), a) == identity(4)
    assert det(a) == 1
