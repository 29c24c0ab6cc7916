from fractions import Fraction as F

import pytest

from spinor_forge.analysis import AmbientElement, ambient_annihilates, pairs
from spinor_forge.catalog import (
    ENTRIES,
    beta_forms,
    build,
    build_generic_reducing,
    build_qk_pure,
    build_spin7_pure,
    build_spin7_reducing,
    eta13_recursion_check,
    g2_generators,
    maps_G_H,
    psi_level,
    sign_tuples,
)
from spinor_forge.errors import InvalidValue, SpinorForgeError, UnsupportedDimension
from spinor_forge.forms import eta
from spinor_forge.scalars import gr
from spinor_forge.spinrep import MAX_M, FormTerm, all_basis_indices, basis_spinor, gamma_apply
from spinor_forge.twisted import ScaledSpinor, form_action_on_spin_slot, norm2, twist_bivector_action


def test_maps_G_H():
    assert maps_G_H((1, -1)) == ((1, 1, -1, -1), 1)
    assert maps_G_H((1, 1, 1)) == ((1, 1, 1, 1, 1, 1), 0)
    for bad in ((0,), (1, 2), (1, -1, 3), [True], (1, -1.0)):  # a bool is not read as +1
        with pytest.raises(InvalidValue, match="entries must be"):
            maps_G_H(bad)
    # level sizes follow binomials; total 2^m
    assert sum(len(sign_tuples(4, j)) for j in range(5)) == 16
    from math import comb
    assert [len(sign_tuples(4, j)) for j in range(5)] == [comb(4, j) for j in range(5)]


def test_qk_normalization_and_eta_table():
    ent = build_qk_pure(1)
    assert ent.spinor.scale2 == F(1, 2)
    assert ent.expected_etas[(1, 2)].terms() == [(1, 2, F(1)), (3, 4, F(1))]
    got = eta(ent.spinor, 1, 2)
    assert got.mat == ent.expected_etas[(1, 2)].mat
    assert ent.expected_annihilator_dim == 6


def test_qk_coefficients_are_inverse_binomials():
    ent = build_qk_pure(2)
    phi = ent.spinor
    # H(eps)=1 level carries coefficient 1/binom(2,1) = 1/2
    key = ((1, 1, -1, -1), ((1,), (-1,)))
    assert phi.coeffs[key] == gr(F(1, 2))
    assert norm2(phi) == F(3, 4)


@pytest.mark.parametrize("m", [1, 2])
def test_qk_eta_tables(m):
    ent = build_qk_pure(m)
    for pair, expect in ent.expected_etas.items():
        assert eta(ent.spinor, *pair).mat == expect.mat


def test_spin7_pure_entry():
    ent = build_spin7_pure()
    assert norm2(ent.spinor) == 2  # printed +-1/2 coefficients at scale2 = 1
    assert ent.spinor.scale2 == 1  # pinned: reproduces the printed table
    assert ent.expected_etas[(6, 7)].terms() == \
        [(1, 4, F(1)), (2, 3, F(1)), (5, 8, F(-1)), (6, 7, F(1))]
    assert ent.expected_etas[(3, 4)].terms() == \
        [(1, 2, F(-1)), (3, 4, F(1)), (5, 6, F(1)), (7, 8, F(1))]
    for pair, expect in ent.expected_etas.items():
        assert eta(ent.spinor, *pair).mat == expect.mat


def test_spin7_pure_hat_span_dimension():
    from spinor_forge.linalg import rank

    ent = build_spin7_pure()
    rows = []
    for form in ent.expected_etas.values():
        rows.append([form.mat[i][j] for i in range(8) for j in range(i + 1, 8)])
    assert rank(rows) == 21


def test_spin7_reducing_entry():
    ent = build_spin7_reducing()
    assert norm2(ent.spinor) == 1
    assert ent.spinor.scale2 == F(1, 8)
    assert eta(ent.spinor, 1, 2).terms() == [(1, 2, F(1))]
    for (k, l) in pairs(7):
        assert eta(ent.spinor, k, l).terms() == [(k, l, F(1))]


def test_generic_reducing_n2_explicit():
    ent = build_generic_reducing(2)
    # sum psi (x) gamma(psi) = -i u_+ (x) u_-  +  i u_- (x) u_+
    assert ent.spinor.coeffs == {
        ((1,), ((-1,),)): gr(0, -1),
        ((-1,), ((1,),)): gr(0, 1),
    }
    assert ent.spinor.scale2 == F(1, 2)


_PRINTED_PHASES = {2: gr(1), 3: gr(1), 8: gr(1),
                   4: gr(0, -1), 5: gr(0, -1), 6: gr(0, -1), 7: gr(0, -1)}


def _printed_coefficient(n, eps):
    """The published coefficient table for the rank-n reducing spinor."""
    k = n // 2
    residue = n % 8
    odd = [eps[2 * j] for j in range((k + 1) // 2)]  # eps_1, eps_3, ...
    e_sum = sum((e + 1) // 2 for e in odd)
    if residue in (0, 1):
        kk = n // 8
        return gr((-1) ** (kk + e_sum))
    if residue in (2, 3):
        kk = (n - 2) // 8
        return gr(0, (-1) ** (kk + e_sum))
    if residue in (4, 5):
        kk = (n - 4) // 8
        return gr((-1) ** (kk + e_sum))
    kk = (n - 6) // 8
    return gr(0, (-1) ** (kk + e_sum))


@pytest.mark.parametrize("n", list(range(2, 9)))
def test_generic_reducing_matches_printed_table_up_to_phase(n):
    """The defining sum and the published coefficient table agree up to one
    global unit phase per dimension (the verdicts are phase-invariant)."""
    ent = build_generic_reducing(n)
    phase = _PRINTED_PHASES[n]
    for eps in all_basis_indices(n):
        got = ent.spinor.coeffs[(eps, (tuple(-s for s in eps),))]
        assert got * phase == _printed_coefficient(n, eps)


@pytest.mark.parametrize("n", list(range(2, 9)))
def test_generic_reducing_is_the_gamma_sum(n):
    """sum_eps u_eps (x) gamma(u_eps), with gamma from spinrep.gamma_apply."""
    want = {}
    for eps in all_basis_indices(n):
        ((target, _), c), = gamma_apply(basis_spinor(n, eps)).coeffs.items()
        want[(eps, (target,))] = c
    assert build_generic_reducing(n).spinor.coeffs == want


def test_generic_reducing_rejects_out_of_range():
    with pytest.raises(UnsupportedDimension):
        build_generic_reducing(9)
    with pytest.raises(UnsupportedDimension):
        build_generic_reducing(1)


def test_g2_generator_list():
    gens = g2_generators()
    assert len(gens) == 14
    phi1 = build_spin7_pure().spinor
    phi2 = build_spin7_reducing().spinor
    for x in gens:
        assert ambient_annihilates(x, phi1)
        assert ambient_annihilates(x, phi2)


def test_beta_forms_counts_and_example():
    b1 = beta_forms(1)
    assert len(b1) == 4
    assert b1[0].is_zero()  # the degenerate diagonal form
    assert b1[1].terms() == [(1, 2, F(1)), (3, 4, F(-1))]
    assert len(beta_forms(2)) == 12


def test_beta_forms_annihilate_qk():
    for m in (1, 2):
        phi = build_qk_pure(m).spinor
        for tf in beta_forms(m):
            amb = AmbientElement(phi.n, 3, {(a, b): c for a, b, c in tf.terms()}, {})
            assert ambient_annihilates(amb, phi)


# beta_forms(m) for m = 1..3 as explicit lists of terms (a, b, sign), in order:
# per block pair (i, j), the units 1, i, j, k.
_BETA_FORMS = {
    1: [
        [],
        [(1, 2, 1), (3, 4, -1)],
        [(1, 3, 1), (2, 4, 1)],
        [(1, 4, 1), (2, 3, -1)],
    ],
    2: [
        [],
        [(1, 2, 1), (3, 4, -1)],
        [(1, 3, 1), (2, 4, 1)],
        [(1, 4, 1), (2, 3, -1)],
        [(1, 5, 1), (2, 6, 1), (3, 7, 1), (4, 8, 1)],
        [(1, 6, 1), (2, 5, -1), (3, 8, -1), (4, 7, 1)],
        [(1, 7, 1), (2, 8, 1), (3, 5, -1), (4, 6, -1)],
        [(1, 8, 1), (2, 7, -1), (3, 6, 1), (4, 5, -1)],
        [],
        [(5, 6, 1), (7, 8, -1)],
        [(5, 7, 1), (6, 8, 1)],
        [(5, 8, 1), (6, 7, -1)],
    ],
    3: [
        [],
        [(1, 2, 1), (3, 4, -1)],
        [(1, 3, 1), (2, 4, 1)],
        [(1, 4, 1), (2, 3, -1)],
        [(1, 5, 1), (2, 6, 1), (3, 7, 1), (4, 8, 1)],
        [(1, 6, 1), (2, 5, -1), (3, 8, -1), (4, 7, 1)],
        [(1, 7, 1), (2, 8, 1), (3, 5, -1), (4, 6, -1)],
        [(1, 8, 1), (2, 7, -1), (3, 6, 1), (4, 5, -1)],
        [(1, 9, 1), (2, 10, 1), (3, 11, 1), (4, 12, 1)],
        [(1, 10, 1), (2, 9, -1), (3, 12, -1), (4, 11, 1)],
        [(1, 11, 1), (2, 12, 1), (3, 9, -1), (4, 10, -1)],
        [(1, 12, 1), (2, 11, -1), (3, 10, 1), (4, 9, -1)],
        [],
        [(5, 6, 1), (7, 8, -1)],
        [(5, 7, 1), (6, 8, 1)],
        [(5, 8, 1), (6, 7, -1)],
        [(5, 9, 1), (6, 10, 1), (7, 11, 1), (8, 12, 1)],
        [(5, 10, 1), (6, 9, -1), (7, 12, -1), (8, 11, 1)],
        [(5, 11, 1), (6, 12, 1), (7, 9, -1), (8, 10, -1)],
        [(5, 12, 1), (6, 11, -1), (7, 10, 1), (8, 9, -1)],
        [],
        [(9, 10, 1), (11, 12, -1)],
        [(9, 11, 1), (10, 12, 1)],
        [(9, 12, 1), (10, 11, -1)],
    ],
}


@pytest.mark.parametrize("m", sorted(_BETA_FORMS))
def test_beta_forms_are_the_pinned_lists(m):
    """Every beta form, its sign included, entry by entry."""
    assert [tf.terms() for tf in beta_forms(m)] == \
        [[(a, b, F(s)) for a, b, s in rows] for rows in _BETA_FORMS[m]]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_eta13_recursion(m):
    assert eta13_recursion_check(m)


def test_eta13_hand_cases_m1():
    # j=0: eta13 . psi_0 = -2 psi_1 ; j=1: eta13 . psi_1 = +2 psi_0
    ent = build_qk_pure(1)
    terms = [FormTerm((a, b), c) for a, b, c in ent.expected_etas[(1, 3)].terms()]
    out0 = form_action_on_spin_slot(terms, psi_level(1, 0))
    assert out0.coeffs == psi_level(1, 1).scale(gr(-2)).coeffs
    out1 = form_action_on_spin_slot(terms, psi_level(1, 1))
    assert out1.coeffs == psi_level(1, 0).scale(gr(2)).coeffs


@pytest.mark.parametrize("m", [1, 2, 3])
def test_twist_ladder_expansion(m):
    """kappa(f_13) maps the level sum phi_(m-j) to
    (m-j+1) phi_(m-j+1) - (j+1) phi_(m-j-1), slot-by-slot."""
    def twist_level(j):
        if j < 0 or j > m:
            return ScaledSpinor(2, 3, m, {})
        coeffs = {}
        for delta in sign_tuples(m, j):
            coeffs[((1,), tuple((d,) for d in delta))] = gr(1)
        return ScaledSpinor(2, 3, m, coeffs)

    for j in range(m + 1):
        lhs = twist_bivector_action(1, 3, twist_level(m - j))
        rhs = twist_level(m - j + 1).scale(gr(m - j + 1)) + \
            twist_level(m - j - 1).scale(gr(-(j + 1)))
        assert lhs.coeffs == rhs.coeffs


@pytest.mark.parametrize("bad", [1.0, 2.5, True, None, "x", -1, MAX_M + 1])
def test_catalog_refuses_bad_dimensions_with_typed_errors(bad):
    """A float, a bool, None, a string, a negative or an over-cap dimension
    raises a SpinorForgeError subclass before anything is built; a level j
    outside 0..m is the zero level, so only a j that is no int is refused."""
    calls = [build_qk_pure, build_generic_reducing, beta_forms, eta13_recursion_check,
             lambda m: psi_level(m, 0)]
    if type(bad) is not int:
        calls.append(lambda j: psi_level(1, j))
    for call in calls:
        with pytest.raises(SpinorForgeError):
            call(bad)
    if bad == MAX_M + 1:  # by beta_forms' own cap, not by the first 2-form it builds
        with pytest.raises(UnsupportedDimension, match=f"need 1 <= m <= {MAX_M}, got {bad}"):
            beta_forms(bad)


def test_build_dispatch():
    """``ENTRIES`` names each builder and the one dimension it takes; build
    passes that dimension alone, refuses its absence with the entry's own
    text and refuses an unknown or unhashable name with InvalidValue."""
    assert {name: dim for name, (_, dim) in ENTRIES.items()} == {
        "qk": "m", "spin7_pure": None, "spin7_reducing": None, "generic": "n"}
    assert build("qk", m=1).name == "qk(m=1)"
    assert build("spin7_pure").name == "spin7_pure"
    assert build("generic", n=3).name == "generic(n=3)"
    assert build("qk", m=2, n=5).name == "qk(m=2)"
    assert build("generic", m=2, n=5).name == "generic(n=5)"
    assert build("spin7_reducing", m=2, n=5).name == "spin7_reducing"
    with pytest.raises(InvalidValue, match="unknown catalog name 'nope'"):
        build("nope")
    for bad in ([], {}, 5, None, "QK"):
        with pytest.raises(InvalidValue, match="^unknown catalog name "):
            build(bad)
    with pytest.raises(UnsupportedDimension):
        build("qk")
    for name, dim, other in (("qk", "m", {"n": 3}), ("generic", "n", {"m": 3})):
        with pytest.raises(UnsupportedDimension, match=f"^{name} needs --{dim}$"):
            build(name, **other)
