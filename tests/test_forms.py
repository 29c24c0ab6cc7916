import math
import random
import re
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from spinor_forge import catalog, forms, spinrep, twisted
from spinor_forge.analysis import (
    AmbientElement, ambient_annihilates, annihilator, check_pure, check_reducing,
    check_spinc_pure, frame_rotation_check,
)
from spinor_forge.errors import (
    IndexOutOfRange, InexactScalar, InvalidValue, ShapeMismatch, UnsupportedDimension, WrongRank,
    ZeroSpinor,
)
from spinor_forge.forms import (
    Endo,
    TwoForm,
    _endo,
    _induced_forms,
    _two_form,
    eta,
    eta_hat,
    etas,
    form_action,
    form_lincomb,
    phi_extend,
    spinc_form,
    two_form_from_terms,
)
from spinor_forge.linalg import random_so_matrix
from spinor_forge.scalars import gr
from spinor_forge.spinrep import (
    FormTerm,
    SpinorVector,
    _pair_acts,
    _slot_unit,
    all_basis_indices,
    basis_spinor,
    kappa_generator,
    spin_action_on_vector,
)
from spinor_forge.twisted import (
    ScaledSpinor,
    _pattern_slots,
    form_action_on_spin_slot,
    tangent_action,
    twist_bivector_action,
    twisted_group_action,
)

from . import oracle
from .helpers import (
    definition_form, naive_mat_mul, random_gaussian, random_matrix, random_scaled, transpose,
)


def test_eta_diagonal_pair_is_zero():
    rng = random.Random(0)
    phi = random_scaled(4, 3, 1, rng)
    assert eta(phi, 2, 2).is_zero()


def test_eta_antisymmetric_in_pair_and_matrix():
    rng = random.Random(1)
    phi = random_scaled(4, 3, 2, rng)
    a = eta(phi, 1, 3)
    b = eta(phi, 3, 1)
    assert a.mat == [[-x for x in row] for row in b.mat]
    # constructor enforces antisymmetry of the matrix itself
    for i in range(4):
        for j in range(4):
            assert a.mat[i][j] == -a.mat[j][i]


def _sparse_and_full(n, r, m, rng):
    """A spinor of shape (n, r, m) on three random basis vectors and one on
    every basis vector, with general Gaussian rational coefficients."""
    spin_idx, twist_idx = all_basis_indices(n), all_basis_indices(r)
    keys = [(s, t) for s in spin_idx for t in product(twist_idx, repeat=m)]
    return [ScaledSpinor(n, r, m, {key: random_gaussian(rng) for key in picks}, F(3, 5))
            for picks in (rng.sample(keys, min(3, len(keys))), keys)]


@pytest.mark.parametrize("n,r", [(5, 3), (4, 4)])
def test_eta_matches_dense_oracle(n, r):
    rng = random.Random(n * 10 + r)
    spin_idx, twist_idx = all_basis_indices(n), all_basis_indices(r)
    coeffs = {(rng.choice(spin_idx), (rng.choice(twist_idx), rng.choice(twist_idx))):
              random_gaussian(rng) for _ in range(8)}
    phi = ScaledSpinor(n, r, 2, coeffs, F(3, 5))
    want = oracle.etas(phi)
    assert any(x for mat in want.values() for row in mat for x in row)
    for (k, l), mat in want.items():
        assert eta(phi, k, l).mat == mat, (k, l)


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("m", range(4))
def test_eta_matches_dense_oracle_for_every_small_n(n, m):
    """Both parities of n (odd n pairs through the last generator, which
    flips no bit) and every twist count up to 3, in a dense space of
    dimension 2^(n//2 + m); r = 2 at m = 3 keeps the oracle's operators few."""
    r = 2 if m == 3 else 3
    rng = random.Random(n * 10 + m)
    for sample, phi in enumerate(_sparse_and_full(n, r, m, rng)):
        want = oracle.etas(phi)
        if sample and m and n > 1:
            assert any(x for mat in want.values() for row in mat for x in row)
        for (k, l), mat in want.items():
            assert eta(phi, k, l).mat == mat, (k, l)
        if m == 0:  # eta vanishes untwisted; the rank-2 form pairs i . phi instead
            assert _induced_forms(phi, [phi.scale(gr(0, 1))])[0].mat == oracle.spinc_form(phi)


def test_induced_forms_match_definition():
    rng = random.Random(15)
    for n in range(1, 17):
        for r, m in ((2, 1), (3, 2), (5, 1)):
            phi = random_scaled(n, r, m, rng, terms=rng.choice((1, 6, 40)))
            for k, l in combinations(range(1, r + 1), 2):
                want = definition_form(twist_bivector_action(k, l, phi), phi)
                got = eta(phi, k, l)
                assert (got._den, got._terms) == (want._den, want._terms), (n, r, m, k, l)
        if n % 2 == 0:
            psi = random_scaled(n, 0, 0, rng, terms=rng.choice((1, 6, 40)))
            assert spinc_form(psi) == definition_form(psi.scale(gr(0, 1)), psi)


def test_pair_patterns_partition_the_pairs():
    """Every pair a < b has one entry of the pair table, in b-major order,
    at d = flip_a ^ flip_b.  Grouped by d (``_pattern_slots``): k pairs at
    d = 0, four at each two-bit d and, for odd n, two at each one-bit d;
    each slot is the pair's place in the table, with its mask, sign and kind."""
    for n in range(1, 33):
        k = n // 2
        table = _pair_acts(n)
        assert list(table) == [(a, b) for b in range(2, n + 1) for a in range(1, b)]
        for (a, b), (d, *_) in table.items():
            assert d == _slot_unit(n, a)[0] ^ _slot_unit(n, b)[0]
        entries, patterns = list(table.values()), _pattern_slots(n)
        slots = [slot for group in patterns.values() for slot, *_ in group]
        assert sorted(slots) == list(range(len(table)))
        for d, group in patterns.items():
            for slot, mask, neg, mixed in group:
                assert entries[slot] == (d, -1 if neg else 1, mask, mixed), (n, slot)
        sizes = {d: len(group) for d, group in patterns.items()}
        assert len(sizes) == (1 + k * (k - 1) // 2 + k * (n % 2) if n > 1 else 0)
        assert all(size == {0: k, 1: 2, 2: 4}[d.bit_count()] for d, size in sizes.items())


def test_induced_forms_apply_no_spin_generator(monkeypatch):
    """Induced forms, 2-form actions, Lie-algebra element actions, the
    annihilator and the certificates read the pair table: with every
    generator application refused they give the same results."""
    def refuse(*args):
        raise AssertionError("generator applied")

    rng = random.Random(16)
    phi, psi = random_scaled(6, 4, 2, rng, terms=8), random_scaled(6, 0, 0, rng, terms=8)
    rank2 = random_scaled(5, 2, 1, rng, terms=8)
    qk = catalog.build_qk_pure(2).spinor
    spinc_pure = basis_spinor(4, (1, 1))
    expected = (etas(phi), eta(phi, 1, 3), spinc_form(psi), spinc_form(rank2))
    actions = [form_action(form, phi) for form in expected[0].values()]
    verdicts = (check_pure(phi), check_pure(qk), check_reducing(phi))
    spinc_verdicts = (check_spinc_pure(psi), check_spinc_pure(spinc_pure))
    assert spinc_verdicts == (False, True)
    stabilizer = annihilator([qk]).basis
    moved = [AmbientElement(x.n, x.r, a={**x.a, (1, 2): x.a.get((1, 2), 0) + 1}, b=x.b)
             for x in stabilizer]
    for module in (spinrep, twisted):
        monkeypatch.setattr(module, "_generator_on_map", refuse)
    with pytest.raises(AssertionError, match="generator applied"):  # the patch holds
        kappa_generator(6, 1, phi)
    assert (etas(phi), eta(phi, 1, 3), spinc_form(psi), spinc_form(rank2)) == expected
    assert [form_action(form, phi) for form in expected[0].values()] == actions
    assert (check_pure(phi), check_pure(qk), check_reducing(phi)) == verdicts
    assert (check_spinc_pure(psi), check_spinc_pure(spinc_pure)) == spinc_verdicts
    assert all(ambient_annihilates(x, qk) for x in stabilizer) and len(stabilizer) == 13
    assert [(x._den, x._terms) for x in annihilator([qk]).basis] == \
        [(x._den, x._terms) for x in stabilizer]
    assert not any(ambient_annihilates(x, qk) for x in moved)
    assert catalog.eta13_recursion_check(2)
    assert verdicts[1].is_pure
    table = expected[0]
    assert phi_extend(phi, {(1, 2): F(1, 2), (3, 4): F(-2)}) == \
        table[(1, 2)].scale(F(1, 2)) + table[(3, 4)].scale(-2)


def test_eta_index_range():
    """eta checks its pair by the one twist-pair check, so its texts are
    those of ``twist_bivector_action`` and ``phi_extend``."""
    rng = random.Random(2)
    phi = random_scaled(4, 3, 1, rng)
    for k, l in ((0, 2), (1, 4), (4, 4), (-1, 1)):
        with pytest.raises(IndexOutOfRange, match=re.escape(f"twist indices ({k},{l}) outside 1..3")):
            eta(phi, k, l)
    with pytest.raises(InvalidValue, match="twist index must be an int"):
        eta(phi, True, 2)


def test_each_induced_form_entry_makes_one_pass(monkeypatch):
    """eta, etas, spinc_form (both routes) and phi_extend each pair all
    their images in one call of the induced-form pass; phi_extend's one
    image is its twist element's, so it walks no twist bivector alone and
    sums no forms."""
    calls = []

    def spy(phi, images):
        images = list(images)
        calls.append(len(images))
        return induced(phi, images)

    def refuse(*args):
        raise AssertionError("called")

    induced = forms._induced
    monkeypatch.setattr(forms, "_induced", spy)
    rng = random.Random(21)
    phi = random_scaled(5, 4, 2, rng, terms=12)
    for call, images in ((lambda: eta(phi, 1, 3), 1), (lambda: etas(phi), 6),
                         (lambda: spinc_form(random_scaled(4, 0, 0, rng, terms=4)), 1),
                         (lambda: spinc_form(random_scaled(4, 2, 1, rng, terms=4)), 1)):
        calls.clear()
        call()
        assert calls == [images]
    monkeypatch.setattr(forms, "twist_bivector_action", refuse)
    monkeypatch.setattr(forms, "form_lincomb", refuse)
    for beta in ({(1, 2): 1, (4, 3): F(1, 2)}, {(1, 2): 1, (2, 1): 1}, {(3, 3): 2}, {}):
        calls.clear()
        phi_extend(phi, beta)
        assert calls == [1], beta


def test_eta_unit_scaling_invariance():
    rng = random.Random(3)
    phi = random_scaled(4, 3, 1, rng)
    for c in (gr(0, 1), gr(-1), gr(0, -1)):
        scaled = phi.scale(c)
        for (k, l) in ((1, 2), (1, 3), (2, 3)):
            assert eta(scaled, k, l).mat == eta(phi, k, l).mat


def test_eta_hat_rank2_block():
    omega = two_form_from_terms(2, {(1, 2): F(1)})
    h = eta_hat(omega)
    assert h.compose(h).is_minus_identity()
    # zero form gives the zero endomorphism
    z = eta_hat(TwoForm(2, [[F(0)] * 2 for _ in range(2)]))
    assert all(not x for row in z.mat for x in row)


def test_eta_hat_catalog_square():
    from spinor_forge.catalog import build_spin7_pure

    ent = build_spin7_pure()
    h = eta_hat(ent.expected_etas[(1, 2)])
    assert h.compose(h).is_minus_identity()


def test_endo_compose_and_commutator_match_naive_products():
    rng = random.Random(8)
    for n in (1, 3, 5):
        a = Endo(n, random_matrix(n, n, rng))
        b = Endo(n, [[F(rng.randint(-9, 9), rng.choice((1, 4, 6, 35))) for _ in range(n)]
                     for _ in range(n)])
        ab, ba = naive_mat_mul(a.mat, b.mat), naive_mat_mul(b.mat, a.mat)
        assert a.compose(b).mat == ab
        assert a.commutator(b).mat == [[x - y for x, y in zip(r1, r2)]
                                       for r1, r2 in zip(ab, ba)]


def _sparse_matrix(n, rng):
    """Mostly zero, mixed denominators, so rows differ in support and scale."""
    return [[F(rng.randint(-9, 9), rng.choice((1, 2, 3, 10, 21))) if rng.random() < 0.4 else F(0)
             for _ in range(n)] for _ in range(n)]


def _endo_cases():
    rng = random.Random(19)
    zero = [[F(0)] * 3 for _ in range(3)]
    minus_id = [[F(-int(i == j)) for j in range(3)] for i in range(3)]
    out = [(zero, zero), (zero, minus_id), (minus_id, minus_id), (minus_id, zero)]
    for n in (1, 2, 4, 6):
        for _ in range(4):
            out.append((_sparse_matrix(n, rng), _sparse_matrix(n, rng)))
    return out


def test_endo_layout_is_one_per_endomorphism():
    rng = random.Random(20)
    for n in (1, 3, 5):
        mat = _sparse_matrix(n, rng)
        a = Endo(n, mat)
        assert a.mat == mat and a.mat is not mat
        assert a._den > 0 and all(v for row in a._rows for v in row.values())
        assert math.gcd(a._den, *(v for row in a._rows for v in row.values())) == 1
        # rescaled numerators over a rescaled denominator: the same layout
        assert _endo(n, 6 * a._den, [{j: 6 * v for j, v in row.items()} for row in a._rows]) == a
        assert a.scale(F(1, 2)).scale(2) == a == Endo(n, [[x / 2 for x in row] for row in mat]).scale(2)
        assert a.scale(F(1, 2)).scale(2)._rows == a._rows
        for i in range(n):
            for j in range(n):
                changed = [list(row) for row in mat]
                changed[i][j] += F(1, 7)
                assert Endo(n, changed) != a
    # the same numerators over another denominator are another endomorphism
    half = Endo(2, [[F(1, 2), F(0)], [F(0), F(1, 2)]])
    assert half._rows == Endo(2, [[F(1), F(0)], [F(0), F(1)]])._rows
    assert half != Endo(2, [[F(1), F(0)], [F(0), F(1)]])
    assert Endo(3, [[F(0)] * 3 for _ in range(3)]) != Endo(2, [[F(0)] * 2 for _ in range(2)])


def test_endo_operations_match_fraction_oracle():
    """compose, commutator, scale, negation and the -Id test on the integer
    rows against the plain Fraction triple loop, on the dense view and on
    the layout (the oracle's matrix, rebuilt as an Endo, compares equal)."""
    for ma, mb in _endo_cases():
        n = len(ma)
        a, b = Endo(n, ma), Endo(n, mb)
        ab, ba = naive_mat_mul(ma, mb), naive_mat_mul(mb, ma)
        comm = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]
        for got, want in ((a.compose(b), ab), (b.compose(a), ba), (a.commutator(b), comm),
                          (-a, [[-x for x in row] for row in ma])):
            assert got.mat == want and got == Endo(n, want)
        for c in (F(0), F(-3, 4), F(5), F(1, 6)):
            want = [[c * x for x in row] for row in ma]
            assert a.scale(c).mat == want and a.scale(c) == Endo(n, want)
        for e, m in ((a, ma), (a.compose(b), ab)):
            want = all(m[i][j] == (-1 if i == j else 0) for i in range(n) for j in range(n))
            assert e.is_minus_identity() is want
    j = Endo(4, [[F(0), F(-1), F(0), F(0)], [F(1), F(0), F(0), F(0)],
                 [F(0), F(0), F(0), F(1)], [F(0), F(0), F(-1), F(0)]])
    assert j.compose(j).is_minus_identity()
    assert j.scale(F(1, 3)).compose(j.scale(3)).is_minus_identity()
    assert not j.scale(2).compose(j).is_minus_identity()
    assert not j.scale(F(1, 2)).compose(j).is_minus_identity()


def _conjugated(h, p, p_inv):
    return naive_mat_mul(naive_mat_mul(p, h), p_inv)


def _complex_structures(rng):
    """Seeded matrices with h^2 = -Id, from J0 (blocks [[0, -1], [1, 0]]):
    Q J0 Q^T for a rational rotation Q (skew, den != 1), P J0 P^T for a
    signed permutation P (skew, den 1), U J0 U^-1 for an integer
    unimodular U (not skew, den 1) and D U J0 U^-1 D^-1 for a diagonal D
    (not skew, den != 1)."""
    out = []
    for n in (2, 4, 6, 8):
        j0 = [[F(0)] * n for _ in range(n)]
        for a in range(0, n, 2):
            j0[a][a + 1], j0[a + 1][a] = F(-1), F(1)
        q = random_so_matrix(n, rng, bound=2)
        out.append(_conjugated(j0, q, transpose(q)))
        perm, signs = rng.sample(range(n), n), [rng.choice((1, -1)) for _ in range(n)]
        p = [[F(signs[i] * (perm[i] == j)) for j in range(n)] for i in range(n)]
        out.append(_conjugated(j0, p, transpose(p)))
        h = j0
        for _ in range(3):  # elementary row operations E and their inverses
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            e = [[F(int(a == b)) for b in range(n)] for a in range(n)]
            e_inv = [list(row) for row in e]
            e[i][j], e_inv[i][j] = F(c), F(-c)
            h = _conjugated(h, e, e_inv)
        out.append(h)
        d = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
        out.append([[d[i] * x / d[j] for j, x in enumerate(row)] for i, row in enumerate(h)])
    return out


def test_square_check_row_by_row_matches_compose():
    """``squares_to_minus_identity`` agrees with ``compose`` and
    ``is_minus_identity`` on every eta_hat of qk(1..3), spin7_pure and
    spin7_reducing, on seeded complex structures (skew and not, den 1 and
    not) and on seeded skew and non-skew matrices; and again on each with
    one entry of its last row changed, so a check that stops early cannot
    pass a case that is -Id up to its last row."""
    rng = random.Random(1904)
    phis = [catalog.build_qk_pure(m).spinor for m in (1, 2, 3)]
    phis += [catalog.build_spin7_pure().spinor, catalog.build_spin7_reducing().spinor]
    cases = [eta_hat(form) for phi in phis for form in etas(phi).values()]
    cases += [Endo(len(m), m) for m in _complex_structures(rng)]
    for n in (1, 2, 3, 4, 6):
        for scale in (1, 6):
            skew = [[F(0)] * n for _ in range(n)]
            for a, b in combinations(range(n), 2):
                skew[a][b] = F(rng.randint(-3, 3), scale)
                skew[b][a] = -skew[a][b]
            cases.append(Endo(n, skew))
            cases.append(Endo(n, [[F(rng.randint(-3, 3), scale) for _ in range(n)] for _ in range(n)]))
    squares = 0
    for h in cases:
        want = h.compose(h).is_minus_identity()
        assert h.squares_to_minus_identity() is want
        changed = [list(row) for row in h.mat]
        changed[-1][rng.randrange(h.n)] += F(1, rng.choice((1, 2, 3)))
        g = Endo(h.n, changed)
        want_g = g.compose(g).is_minus_identity()
        assert g.squares_to_minus_identity() is want_g
        if want:
            squares += 1
            assert not want_g
    # qk(1..3) and spin7_pure give 3 * 3 + 21 squares, the structures 16
    assert squares == 3 * 3 + 21 + 16


def _random_form(n, rng):
    """An antisymmetric matrix, about half zero above the diagonal, with
    denominators 1, 2, 3, 10 and 21."""
    mat = [[F(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.5:
                mat[a][b] = F(rng.randint(-9, 9), rng.choice((1, 2, 3, 10, 21)))
                mat[b][a] = -mat[a][b]
    return mat


def test_two_form_layout_is_one_per_form():
    rng = random.Random(21)
    for n in (2, 3, 5, 8):
        mat, other = _random_form(n, rng), _random_form(n, rng)
        a, b = TwoForm(n, mat), TwoForm(n, other)
        assert a.mat == mat and a.mat is not mat
        assert a._den > 0 and all(a._terms.values()) and all(x < y for x, y in a._terms)
        assert math.gcd(a._den, *a._terms.values()) == 1
        # rescaled numerators over a rescaled denominator: the same layout
        assert _two_form(n, 6 * a._den, {ab: 6 * v for ab, v in a._terms.items()}) == a
        assert a.scale(F(1, 2)).scale(2) == a
        assert a + b + -b == a
        upper = {(x + 1, y + 1): mat[x][y] for x in range(n) for y in range(x + 1, n)}
        assert two_form_from_terms(n, upper) == a
        assert two_form_from_terms(n, {(y, x): -c for (x, y), c in upper.items()}) == a
        for (x, y), c in upper.items():
            assert two_form_from_terms(n, {**upper, (x, y): c + F(1, 7)}) != a
    # the same numerators over another denominator are another form
    half, one = two_form_from_terms(2, {(1, 2): F(1, 2)}), two_form_from_terms(2, {(1, 2): 1})
    assert half._terms == one._terms and half != one
    assert two_form_from_terms(3, {}) != two_form_from_terms(2, {})
    # (a, b) and (b, a) terms that cancel leave the zero form
    gone = two_form_from_terms(4, {(1, 3): F(2, 3), (3, 1): F(2, 3), (2, 4): 1, (4, 2): 1})
    assert gone.is_zero() and gone == two_form_from_terms(4, {})
    assert gone.terms() == [] and gone.mat == [[F(0)] * 4 for _ in range(4)]
    with pytest.raises(ShapeMismatch):
        TwoForm(2, [[F(0), F(1)], [F(1), F(0)]])
    with pytest.raises(ShapeMismatch):
        TwoForm(2, [[F(1), F(0)], [F(0), F(-1)]])


def test_two_form_operations_match_fraction_oracle():
    """+, scale, negation and form_lincomb on the integer terms against plain
    Fraction matrix arithmetic, on the dense view and on the layout; eta_hat
    against the transpose."""
    rng = random.Random(22)
    for n in (1, 2, 4, 7):
        for _ in range(4):
            ma, mb = _random_form(n, rng), _random_form(n, rng)
            a, b = TwoForm(n, ma), TwoForm(n, mb)
            assert a.terms() == [(x + 1, y + 1, ma[x][y]) for x in range(n)
                                 for y in range(x + 1, n) if ma[x][y]]
            assert a.is_zero() is not any(x for row in ma for x in row)
            cases = [(a + b, [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(ma, mb)]),
                     (-a, [[-x for x in row] for row in ma])]
            cases += [(a.scale(c), [[c * x for x in row] for row in ma]) for c in (F(0), F(-3, 4), F(5))]
            xs, den = [rng.randint(-5, 5) for _ in range(3)], rng.choice((1, 4, 9))
            cases.append((form_lincomb(n, [a, b, a])(xs, den),
                          [[(xs[0] * p + xs[1] * q + xs[2] * p) / den for p, q in zip(r1, r2)]
                           for r1, r2 in zip(ma, mb)]))
            for got, want in cases:
                assert got.mat == want and got == TwoForm(n, want)
            assert eta_hat(a).mat == transpose(ma) and eta_hat(a) == Endo(n, transpose(ma))
    assert form_lincomb(3, [])([], 7) == two_form_from_terms(3, {})


@pytest.mark.parametrize("bad", [0.1, True, 1j, None, "x", "1/0"])
@pytest.mark.parametrize("call", [
    lambda x: tangent_action([x, 0, 0, 0], ScaledSpinor(4, 3, 1, {((1, 1), ((1,),)): gr(1)})),
    lambda x: tangent_action([x, 0, 0, 0], basis_spinor(4, (1, 1))),
    lambda x: twisted_group_action([[x, 0, 0, 0], [1, 0, 0, 0]], [], basis_spinor(4, (1, 1))),
    lambda x: spin_action_on_vector(4, [[1, 0, 0, 0], [1, 0, 0, 0]], [x, 0, 0, 0]),
    lambda x: two_form_from_terms(4, {(1, 2): x}),
    lambda x: two_form_from_terms(4, {(1, 2): 1}).scale(x),
    lambda x: Endo(2, [[F(1), F(0)], [F(0), F(1)]]).scale(x),
    lambda x: Endo(2, [[x, F(0)], [F(0), F(1)]]),
    lambda x: phi_extend(random_scaled(4, 3, 1, random.Random(0)), {(1, 2): x}),
    lambda x: AmbientElement(4, 3, {(1, 2): x}, {}),
    lambda x: AmbientElement(4, 3, {}, {(1, 2): x}),
    lambda x: TwoForm(2, [[0, x], [x, 0]]),  # x is refused before the antisymmetry check
    lambda x: frame_rotation_check(catalog.build_qk_pure(1).spinor,
                                   [[x, 0, 0], [0, 1, 0], [0, 0, 1]]),
    lambda x: ScaledSpinor(2, 0, 0, {((1,), ()): x}),
    lambda x: SpinorVector(2, {(1,): x}),
], ids=["tangent_action", "vector_action", "unit_vectors", "spin_action_on_vector",
        "two_form_from_terms", "TwoForm.scale", "Endo.scale", "Endo", "phi_extend",
        "AmbientElement", "AmbientElement.b", "TwoForm", "frame_rotation_check",
        "ScaledSpinor", "SpinorVector"])
def test_entry_points_refuse_floats_and_bools(call, bad):
    """Floats, bools and every other value that is not a rational (complex,
    None, a string that does not parse, a zero denominator) raise the typed
    error, which names the value."""
    with pytest.raises(InexactScalar, match=re.escape(repr(bad))):
        call(bad)


def test_spinor_constructors_read_ints_and_fractions_as_real_coefficients():
    half = ScaledSpinor(2, 1, 1, {((1,), ((),)): F(1, 2), ((-1,), ((),)): gr(0, 1)})
    assert half.coeffs == {((-1,), ((),)): gr(0, 1), ((1,), ((),)): gr(F(1, 2))}
    assert SpinorVector(2, {(1,): 1, (-1,): 0}) == basis_spinor(2, (1,))
    assert SpinorVector(2, {(1,): F(-3, 4)}) == basis_spinor(2, (1,)).scale(gr(F(-3, 4)))


def test_etas_equals_eta_per_pair():
    rng = random.Random(7)
    for shape in ((4, 3, 1), (5, 4, 2), (6, 2, 1), (4, 1, 1)):
        phi = random_scaled(*shape, rng)
        table = etas(phi)
        assert list(table) == [(k, l) for k in range(1, phi.r + 1) for l in range(k + 1, phi.r + 1)]
        assert all(form.mat == eta(phi, *pair).mat for pair, form in table.items())


def test_phi_extend_checks_every_key():
    """Every key is checked as eta checks its pair, and every coefficient
    read exactly, also where the term is zero or diagonal; only then are
    those terms skipped."""
    phi = random_scaled(4, 3, 1, random.Random(8))
    for beta in ({(1, 4): F(0)}, {(5, 5): F(1)}, {(99, 99): 1}, {(99, 100): 0}, {(1, 4): F(1)},
                 {(1, 2): F(1), (0, 0): F(0)}):
        with pytest.raises(IndexOutOfRange):
            phi_extend(phi, beta)
    for beta in ({(1.5, 1.5): 1}, {(True, 2): 1}, {(1, 2, 3): 1}, {2: 1}, {(1, 2): 1, "12": 0}):
        with pytest.raises(InvalidValue):
            phi_extend(phi, beta)
    for beta in ({(1, 1): 0.5}, {(2, 2): True}, {(2, 3): 0, (1, 1): 0.5}):
        with pytest.raises(InexactScalar):  # read, though the term adds nothing
            phi_extend(phi, beta)
    assert phi_extend(phi, {(1, 1): F(1), (2, 3): F(0)}).is_zero()
    assert phi_extend(phi, {(3, 1): F(2)}).mat == eta(phi, 1, 3).scale(-2).mat


def test_phi_extend_is_the_sum_of_its_etas_and_walks_only_nonzero_pairs(monkeypatch):
    """phi_extend equals sum c_kl eta(phi, k, l), with (l, k) keys read as
    -f_k f_l, zero coefficients and diagonal keys adding nothing; its one
    call of the bivector action gets exactly the terms with c_kl != 0 and
    k != l, each (k, l) as the twist pair (n + k, n + l) of spin(n + r),
    cleared to integers over the lcm of their denominators, in key order."""
    walked = []

    def spy(phi, terms):
        walked.append(dict(terms))
        return action(phi, terms)

    action = forms._bivector_map
    monkeypatch.setattr(forms, "_bivector_map", spy)
    rng = random.Random(22)
    for shape in ((4, 3, 1), (5, 4, 2), (6, 5, 1), (3, 3, 3)):
        phi = random_scaled(*shape, rng, terms=10)
        n, r = phi.n, phi.r
        keys = [(k, l) for k in range(1, r + 1) for l in range(1, r + 1)]
        beta = {key: rng.choice((0, 0, 1, -2, F(3, 4), F(-5, 6))) for key in rng.sample(keys, 6)}
        beta[(r, 1)] = F(1, 3)  # an (l, k) key
        beta[(2, 2)] = 5  # a diagonal key
        beta[(1, 2)] = 0  # a zero coefficient
        want = two_form_from_terms(phi.n, {})
        for (k, l), c in beta.items():
            want = want + eta(phi, k, l).scale(c)
        walked.clear()
        got = phi_extend(phi, beta)
        parts = {(n + k, n + l): F(c) for (k, l), c in beta.items() if c and k != l}
        q = math.lcm(*(c.denominator for c in parts.values()))
        assert walked == [{p: int(c * q) for p, c in parts.items()}], shape
        assert list(walked[0]) == list(parts)
        assert (got._den, got._terms) == (want._den, want._terms), shape


def test_phi_extend_is_the_sum_of_its_etas_on_catalog_spinors():
    """On qk(4), spin7_pure and generic(8), Phi(beta) of a seeded beta over
    every pair k < l, plus one (r, 1) key read as -eta_1r and one diagonal
    key read as nothing, is exactly sum c_kl eta_kl."""
    rng = random.Random(39)
    for name, dims in (("qk", {"m": 4}), ("spin7_pure", {}), ("generic", {"n": 8})):
        phi = catalog.build(name, **dims).spinor
        table = etas(phi)
        beta = {pair: F(rng.randint(-9, 9), rng.randint(1, 6)) for pair in table}
        beta[(phi.r, 1)] = F(rng.randint(1, 9), rng.randint(1, 6))
        beta[(2, 2)] = F(rng.randint(1, 9))
        want = two_form_from_terms(phi.n, {})
        for (k, l), c in beta.items():
            if k != l:
                want = want + (table[(k, l)].scale(c) if k < l else -table[(l, k)].scale(c))
        assert phi_extend(phi, beta) == want, name


# n = 1..9 and r = 2..5, both parities, and m = 0..3, where the oracle's
# dense space, of dimension 2^(n//2 + m (r//2)), has at most 128 entries
PHI_EXTEND_SHAPES = [(n, r, m) for n in range(1, 10) for m in range(4)
                     for r in (2 + (n + m) % 4,) if n // 2 + m * (r // 2) <= 7]


@pytest.mark.parametrize("n,r,m", PHI_EXTEND_SHAPES)
def test_phi_extend_matches_the_dense_oracle(n, r, m):
    """phi_extend(phi, beta).mat is sum c_kl of the oracle's eta_kl, an
    (l, k) key entering as -eta_kl and a k = l key as nothing, on a sparse
    and a full spinor of each shape."""
    rng = random.Random(700 * n + 10 * r + m)
    for phi in _sparse_and_full(n, r, m, rng):
        table = oracle.etas(phi)
        beta = {(k, l) if rng.random() < 0.5 else (l, k):
                F(rng.choice((-5, -2, 1, 3)), rng.randint(1, 4)) for k, l in table}
        beta[(1, 1)] = F(7, 3)  # a diagonal key
        want = [[F(0)] * n for _ in range(n)]
        for (k, l), c in beta.items():
            if k != l:
                sign, mat = (1, table[(k, l)]) if k < l else (-1, table[(l, k)])
                want = [[x + sign * c * y for x, y in zip(row, other)]
                        for row, other in zip(want, mat)]
        assert phi_extend(phi, beta).mat == want, (n, r, m, beta)
    if m and n > 1:  # the full spinor's sum is not the zero form
        assert any(x for row in want for x in row)


def test_phi_extend_basis_and_cancellation():
    rng = random.Random(4)
    phi = random_scaled(4, 3, 1, rng)
    assert phi_extend(phi, {(1, 2): F(1)}).mat == eta(phi, 1, 2).mat
    # f1^f2 + f2^f1 = 0
    both = phi_extend(phi, {(1, 2): F(1), (2, 1): F(1)})
    assert both.is_zero()


def test_phi_extend_rotated_frame_identity():
    rng = random.Random(5)
    phi = random_scaled(4, 3, 1, rng)
    a = random_so_matrix(3, rng)
    for k in range(1, 4):
        for l in range(k + 1, 4):
            coeffs = {}
            for s in range(1, 4):
                for t in range(s + 1, 4):
                    c = a[k - 1][s - 1] * a[l - 1][t - 1] - a[k - 1][t - 1] * a[l - 1][s - 1]
                    coeffs[(s, t)] = c
            rotated = phi_extend(phi, coeffs)
            # the rotated-bivector form is the linear combination of the etas
            expect = TwoForm(4, [[F(0)] * 4 for _ in range(4)])
            for (s, t), c in coeffs.items():
                expect = expect + eta(phi, s, t).scale(c)
            assert rotated.mat == expect.mat


def test_spinc_prototype_form_and_annihilation():
    # u_(1,1) in Delta_4
    psi = basis_spinor(4, (1, 1))
    form = spinc_form(psi)
    assert form.terms() == [(1, 2, F(-1)), (3, 4, F(-1))]
    h = eta_hat(form)
    # -J0 has blocks [[0,1],[-1,0]] in operator convention
    expect = [[F(0)] * 4 for _ in range(4)]
    expect[0][1], expect[1][0] = F(1), F(-1)
    expect[2][3], expect[3][2] = F(1), F(-1)
    assert h.mat == expect
    # (eta + 2i) psi = 0
    terms = [FormTerm((a, b), c) for a, b, c in form.terms()]
    d = form_action_on_spin_slot(terms, psi) + psi.scale(gr(0, 2))
    assert d.is_zero()


def test_spinc_twisted_route_agrees_with_untwisted():
    rng = random.Random(6)
    samples = [basis_spinor(4, (1, 1))]  # the prototype itself, then random
    for _ in range(5):
        coeffs = {
            eps: gr(rng.randint(-3, 3), rng.randint(-3, 3))
            for eps in [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        }
        psi = SpinorVector(4, coeffs)
        if not psi.is_zero():
            samples.append(psi)
    for psi in samples:
        twisted = ScaledSpinor(4, 2, 1, {(eps, ((1,),)): c for (eps, _), c in psi.coeffs.items()},
                               psi.scale2)
        assert spinc_form(twisted).mat == spinc_form(psi).mat


def test_spinc_form_wrong_rank():
    rng = random.Random(7)
    phi = random_scaled(4, 3, 1, rng)
    with pytest.raises(WrongRank):
        spinc_form(phi)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_untwisted_spinc_form_matches_dense_oracle(n):
    rng = random.Random(100 + n)
    basis = all_basis_indices(n)
    samples = [basis_spinor(n, basis[0])]
    for size in (1, 3, len(basis)):
        picks = rng.sample(basis, min(size, len(basis)))
        samples.append(SpinorVector(n, {eps: random_gaussian(rng) for eps in picks}))
    samples.append(ScaledSpinor(n, 0, 0, samples[-1].coeffs, F(3, 5)))
    for psi in samples:
        want = oracle.spinc_form(psi)
        assert any(x for row in want for x in row)
        assert spinc_form(psi).mat == want


def test_untwisted_spinc_form_needs_even_dimension_and_nonzero_spinor():
    with pytest.raises(ShapeMismatch):
        spinc_form(basis_spinor(3, (1,)))
    with pytest.raises(ZeroSpinor):
        spinc_form(SpinorVector(4, {}))


def test_two_form_dimension_cap():
    assert two_form_from_terms(32, {(1, 32): 1}).n == 32
    for n in (33, 2000):
        with pytest.raises(UnsupportedDimension, match="^n must be <= 32"):
            two_form_from_terms(n, {})
    # the dense constructor stores its terms through two_form_from_terms, cap included
    with pytest.raises(UnsupportedDimension, match="^n must be <= 32"):
        TwoForm(33, [[F(0)] * 33 for _ in range(33)])


def test_dense_constructors_check_n_before_any_entry():
    """``Endo`` and ``TwoForm`` refuse an n that is no dimension before any
    row is read: a bool or a float that would match a 1 x 1 matrix, and an
    n over the cap, here with no matrix at all."""
    for cls in (Endo, TwoForm):
        for n in (True, 1.0):
            with pytest.raises(InvalidValue, match=f"^n must be an int, got {n!r}$"):
                cls(n, [[0]])
        with pytest.raises(UnsupportedDimension, match="^n must be <= 32"):
            cls(33, None)
