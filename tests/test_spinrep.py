import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from spinor_forge.errors import (
    IndexOutOfRange, InexactScalar, InvalidValue, NotUnitVector, OddLength, ShapeMismatch,
    UnsupportedDimension,
)
from spinor_forge.analysis import AmbientElement
from spinor_forge.forms import eta, two_form_from_terms
from spinor_forge.linalg import random_unit_vector
from spinor_forge.scalars import gr
from spinor_forge.spinrep import (
    FormTerm,
    SpinorVector,
    all_basis_indices,
    basis_spinor,
    check_dimensions,
    gamma_apply,
    kappa_generator,
    spin_action_on_vector,
)
from spinor_forge.twisted import (
    ScaledSpinor,
    form_action_on_spin_slot,
    mu_slot,
    twist_bivector_action,
    twisted_group_action,
    twisted_hermitian,
)

from . import oracle
from .helpers import random_gaussian


def spin_coeffs(psi):
    """{eps: c} of an untwisted (m = 0) spinor, whose indices are (eps, ())."""
    assert psi.m == 0
    return {eps: c for (eps, _), c in psi.coeffs.items()}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_lazy_generator_matches_dense_oracle(n):
    rng = random.Random(n)
    basis = all_basis_indices(n)
    spinors = [basis_spinor(n, eps) for eps in basis]
    spinors += [SpinorVector(n, {eps: random_gaussian(rng) for eps in basis})
                for _ in range(3)]
    for i in range(1, n + 1):
        for psi in spinors:
            got = spin_coeffs(kappa_generator(n, i, psi))
            want = oracle.coefficients(n, oracle.act((n, 0, 0), [(0, (i,), 1)], oracle.vector(psi)))
            assert got == want, (n, i, psi)


# ---------------------------------------------------------------------------
# Pinned small cases (hand-multiplied 2x2 blocks).

def test_generator_examples():
    # g1 against (1, -i)/sqrt(2) gives i * (1, i)/sqrt(2)
    assert spin_coeffs(kappa_generator(2, 1, basis_spinor(2, (1,)))) == {(-1,): gr(0, 1)}
    # e1(e1 u) = -u
    twice = kappa_generator(2, 1, kappa_generator(2, 1, basis_spinor(2, (1,))))
    assert spin_coeffs(twice) == {(1,): gr(-1)}
    # i*T = [[0,1],[-1,0]] against (1,-i)/sqrt(2) gives (-i,-1)/sqrt(2) = -i u_+
    assert spin_coeffs(kappa_generator(3, 3, basis_spinor(3, (1,)))) == {(1,): gr(0, -1)}


def test_generator_index_range():
    for psi in (basis_spinor(4, (1, 1)), SpinorVector(4, {})):
        with pytest.raises(IndexOutOfRange):
            kappa_generator(4, 5, psi)


def test_clifford_relations_all_basis_spinors():
    for n in range(2, 11):
        for eps in all_basis_indices(n):
            b = basis_spinor(n, eps)
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    lhs = kappa_generator(n, i, kappa_generator(n, j, b)) + \
                        kappa_generator(n, j, kappa_generator(n, i, b))
                    if i == j:
                        assert lhs.coeffs == b.scale(gr(-2)).coeffs
                    else:
                        assert lhs.is_zero()


def test_clifford_action_examples():
    rng = random.Random(1)
    psi = SpinorVector(4, {
        eps: gr(F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
        for eps in all_basis_indices(4)
    })
    # e_i e_j + e_j e_i kills everything for i != j
    anti = form_action_on_spin_slot([FormTerm((1, 3))], psi)
    swapped = kappa_generator(4, 3, kappa_generator(4, 1, psi))
    assert (anti + swapped).is_zero()
    # empty product = identity
    assert form_action_on_spin_slot([FormTerm(())], psi).coeffs == psi.coeffs
    # composite product equals composed generator calls
    quad = form_action_on_spin_slot([FormTerm((1, 2, 3, 4))], psi)
    byhand = psi
    for g in (4, 3, 2, 1):
        byhand = kappa_generator(4, g, byhand)
    assert quad.coeffs == byhand.coeffs


def test_scale_reads_its_factor_through_gr():
    """An int or a Fraction factor scales like its ``gr``; a float or a
    bool is refused with InexactScalar."""
    psi = SpinorVector(4, {(1, 1): gr(F(1, 3), 2), (1, -1): gr(-1)})
    for c in (2, F(1, 2), 0, -3):
        assert psi.scale(c) == psi.scale(gr(c))
    assert psi.scale(2).coeffs == {(k, ()): v * 2 for k, v in spin_coeffs(psi).items()}
    for bad in (0.5, 2.0, True, 1j, None):
        with pytest.raises(InexactScalar):
            psi.scale(bad)


@pytest.mark.parametrize("bad", [0.5, True])
def test_form_term_coeff_rejects_floats_and_bools(bad):
    with pytest.raises(InexactScalar):
        FormTerm((1, 2), bad)


def test_hermitian_orthonormal_basis():
    assert twisted_hermitian(basis_spinor(2, (1,)), basis_spinor(2, (1,))) == gr(1)
    assert twisted_hermitian(basis_spinor(2, (1,)), basis_spinor(2, (-1,))) == gr(0)


def test_hermitian_skew_symmetry_example():
    up, dn = basis_spinor(2, (1,)), basis_spinor(2, (-1,))
    lhs = twisted_hermitian(kappa_generator(2, 1, up), dn)
    rhs = twisted_hermitian(up, kappa_generator(2, 1, dn))
    assert lhs == gr(0, 1)
    assert rhs == -lhs


def test_hermitian_skew_symmetry_random():
    rng = random.Random(5)
    for n in (3, 5, 6):
        psi1 = SpinorVector(n, {
            eps: gr(rng.randint(-3, 3), rng.randint(-3, 3))
            for eps in rng.sample(all_basis_indices(n), min(3, 2 ** (n // 2)))
        })
        psi2 = SpinorVector(n, {
            eps: gr(rng.randint(-3, 3), rng.randint(-3, 3))
            for eps in rng.sample(all_basis_indices(n), min(3, 2 ** (n // 2)))
        })
        for x in range(1, n + 1):
            lhs = twisted_hermitian(kappa_generator(n, x, psi1), psi2)
            rhs = twisted_hermitian(psi1, kappa_generator(n, x, psi2))
            assert lhs + rhs == gr(0)


coeff_st = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@st.composite
def spinors(draw, n=4):
    idx = all_basis_indices(n)
    picks = draw(st.lists(st.sampled_from(idx), min_size=1, max_size=4))
    coeffs = {}
    for eps in picks:
        coeffs[eps] = gr(draw(coeff_st), draw(coeff_st))
    return SpinorVector(n, coeffs)


@given(spinors(), spinors())
def test_hermitian_sesquilinear(psi1, psi2):
    c = gr(F(2, 3), F(-1, 2))
    assert twisted_hermitian(psi1.scale(c), psi2) == c * twisted_hermitian(psi1, psi2)
    assert twisted_hermitian(psi1, psi2.scale(c)) == twisted_hermitian(psi1, psi2) * c.conj()
    assert twisted_hermitian(psi1, psi2) == twisted_hermitian(psi2, psi1).conj()


@given(spinors(), st.integers(min_value=1, max_value=4))
def test_generator_skew_and_square(psi, i):
    # kappa(e_i)^2 = -Id and <e_i psi, psi> is purely imaginary
    assert kappa_generator(4, i, kappa_generator(4, i, psi)).coeffs == \
        psi.scale(gr(-1)).coeffs
    assert twisted_hermitian(kappa_generator(4, i, psi), psi).re == 0


def test_gamma_small_case():
    assert spin_coeffs(gamma_apply(basis_spinor(2, (1,)))) == {(-1,): gr(0, -1)}


def test_gamma_antilinear():
    c = gr(F(2, 3), F(-1, 5))
    psi = basis_spinor(4, (1, -1)).scale(c)
    assert gamma_apply(psi).coeffs == \
        gamma_apply(basis_spinor(4, (1, -1))).scale(c.conj()).coeffs


@pytest.mark.parametrize("n", range(9))
def test_gamma_matches_dense_oracle(n):
    """gamma against ``oracle.gamma``, its antilinear 2x2 blocks in standard
    coordinates, on every basis spinor and on seeded random spinors whose
    general coefficients tell conjugation apart."""
    rng = random.Random(70 + n)
    basis = all_basis_indices(n)
    spinors = [basis_spinor(n, eps) for eps in basis]
    spinors += [SpinorVector(n, {eps: random_gaussian(rng) for eps in basis}) for _ in range(3)]
    for psi in spinors:
        assert oracle.vector(gamma_apply(psi)) == oracle.gamma(oracle.vector(psi)), (n, psi)


@pytest.mark.parametrize("n,sign", [
    (1, 1), (2, -1), (3, -1), (4, -1), (5, -1),
    (6, 1), (7, 1), (8, 1), (9, 1), (10, -1),
])
def test_gamma_square_signs(n, sign):
    for eps in all_basis_indices(n):
        b = basis_spinor(n, eps)
        assert gamma_apply(gamma_apply(b)).coeffs == b.scale(gr(sign)).coeffs


def test_spin_action_repeated_vector_is_minus_one():
    rng = random.Random(9)
    x = random_unit_vector(4, rng)
    psi = basis_spinor(4, (1, -1))
    assert twisted_group_action([x, x], [], psi).coeffs == psi.scale(gr(-1)).coeffs


def test_spin_action_g1g2_eigenvector():
    # g1 g2 = [[0,-1],[1,0]] sends u_+ to i u_+
    out = twisted_group_action([[1, 0], [0, 1]], [], basis_spinor(2, (1,)))
    assert spin_coeffs(out) == {(1,): gr(0, 1)}


def test_spin_action_norm_preservation():
    rng = random.Random(11)
    for n in (3, 4, 5):
        vectors = [random_unit_vector(n, rng) for _ in range(4)]
        psi = SpinorVector(n, {
            eps: gr(rng.randint(-2, 2), rng.randint(-2, 2))
            for eps in rng.sample(all_basis_indices(n), min(3, 2 ** (n // 2)))
        })
        moved = twisted_group_action(vectors, [], psi)
        assert twisted_hermitian(moved, moved) == twisted_hermitian(psi, psi)


def test_spin_action_validation():
    psi = basis_spinor(4, (1, 1))
    with pytest.raises(NotUnitVector):
        twisted_group_action([[1, 1, 0, 0], [1, 0, 0, 0]], [], psi)
    with pytest.raises(OddLength):
        twisted_group_action([[1, 0, 0, 0]], [], psi)


def test_vector_action_identity_rotation():
    rng = random.Random(13)
    x = random_unit_vector(5, rng)
    v = [F(3), F(-1), F(2), F(0), F(7)]
    assert spin_action_on_vector(5, [x, x], v) == v


def test_vector_action_is_isometry():
    rng = random.Random(17)
    vectors = [random_unit_vector(6, rng) for _ in range(4)]
    v = [F(rng.randint(-5, 5)) for _ in range(6)]
    w = [F(rng.randint(-5, 5)) for _ in range(6)]
    gv = spin_action_on_vector(6, vectors, v)
    gw = spin_action_on_vector(6, vectors, w)
    assert sum(a * b for a, b in zip(gv, gw)) == sum(a * b for a, b in zip(v, w))


def test_equivariance_of_clifford_multiplication():
    rng = random.Random(19)
    for n in (3, 4):
        vectors = [random_unit_vector(n, rng) for _ in range(2)]
        x = [F(rng.randint(-3, 3)) for _ in range(n)]
        psi = SpinorVector(n, {
            eps: gr(rng.randint(-2, 2), rng.randint(-2, 2))
            for eps in rng.sample(all_basis_indices(n), min(2, 2 ** (n // 2)))
        })
        x_psi = form_action_on_spin_slot([FormTerm((j,), c) for j, c in enumerate(x, 1) if c], psi)
        lhs = twisted_group_action(vectors, [], x_psi)
        gx = spin_action_on_vector(n, vectors, x)
        g_psi = twisted_group_action(vectors, [], psi)
        rhs = form_action_on_spin_slot([FormTerm((j,), c) for j, c in enumerate(gx, 1) if c], g_psi)
        assert lhs.coeffs == rhs.coeffs


def test_untwisted_spinor_is_the_m0_scaled_spinor():
    c = gr(F(2, 3), F(-1, 5))
    assert SpinorVector(4, {(1, -1): c}) == ScaledSpinor(4, 0, 0, {((1, -1), ()): c})
    for bad in ({(2,): c}, {(1, 1): c}):
        with pytest.raises(ShapeMismatch):
            SpinorVector(2, bad)
    with pytest.raises(ShapeMismatch):
        gamma_apply(ScaledSpinor(2, 2, 1, {((1,), ((1,),)): c}))


def test_index_entries_must_be_signs():
    c = gr(1)
    for coeffs in ({((2,), ()): c}, {((0, 1), ()): c}):
        with pytest.raises(ShapeMismatch):
            ScaledSpinor(2 * len(next(iter(coeffs))[0]), 0, 0, coeffs)
    for twist in (((0,),), ((1,), (-2,))):
        with pytest.raises(ShapeMismatch):
            ScaledSpinor(2, 3, len(twist), {((1,), twist): c})
    assert ScaledSpinor(2, 3, 2, {((1,), ((1,), (-1,))): c}).coeffs
    # a zero coefficient does not excuse its key
    with pytest.raises(ShapeMismatch, match=r"^index \(\(2,\), \(\)\) invalid for shape "
                                            r"\(n=2, r=0, m=0\)$"):
        ScaledSpinor(2, 0, 0, {((1,), ()): c, ((2,), ()): gr(0)})


@pytest.mark.parametrize("shape,field", [((33, 0, 0), "n"), ((4, 17, 1), "r"),
                                         ((4, 3, 9), "m"), ((10 ** 12, 0, 0), "n")])
def test_dimension_caps_refuse_larger_spaces(shape, field):
    with pytest.raises(UnsupportedDimension, match=f"^{field} must be <= "):
        ScaledSpinor(*shape, {})


@pytest.mark.parametrize("make", [
    lambda: ScaledSpinor(2.5, 0, 0, {}),
    lambda: ScaledSpinor(True, 3, 1, {}),
    lambda: ScaledSpinor(4, 3.0, 1, {}),
    lambda: ScaledSpinor(4, 3, F(1), {}),
    lambda: ScaledSpinor(None, 3, 1, {}),
    lambda: ScaledSpinor("4", 3, 1, {}),
    lambda: SpinorVector(True, {}),
    lambda: two_form_from_terms(2.5, {}),
    lambda: check_dimensions(4, 3, False),
    lambda: spin_action_on_vector(True, [], [1]),
    lambda: spin_action_on_vector(1.0, [], [1]),
], ids=["n=2.5", "n=True", "r=3.0", "m=Fraction", "n=None", "n='4'", "vector n=True",
        "two-form n=2.5", "m=False", "SO(n) action n=True", "SO(n) action n=1.0"])
def test_dimensions_must_be_ints(make):
    """A dimension that is not an int, a bool included, is refused with
    InvalidValue before it is compared with anything."""
    with pytest.raises(InvalidValue, match="must be an int, got "):
        make()


TWISTED = ScaledSpinor(4, 3, 1, {((1, 1), ((1,),)): gr(1)})


@pytest.mark.parametrize("make", [
    lambda: two_form_from_terms(4, {(1.0, 2): 1}),
    lambda: two_form_from_terms(4, {(True, 2): 1}),
    lambda: two_form_from_terms(4, {(1, 2, 3): 1}),
    lambda: AmbientElement(4, 3, {(1.0, 2): 1}),
    lambda: AmbientElement(4, 3, {(1,): 1}),
    lambda: AmbientElement(4, 3, b={(True, 2): 1}),
    lambda: eta(TWISTED, 1.0, 2),
    lambda: eta(TWISTED, True, 2),
    lambda: FormTerm((1.0, 2)),
    lambda: mu_slot(True, [FormTerm((1,))], TWISTED),
    lambda: twist_bivector_action(True, 2, TWISTED),
    lambda: twist_bivector_action(1.0, 2, TWISTED),
    lambda: twist_bivector_action(1, 2.0, TWISTED),
    lambda: kappa_generator(4, True, TWISTED),
    lambda: kappa_generator(4, 1.0, TWISTED),
], ids=["2-form a=1.0", "2-form a=True", "2-form triple", "ambient a=1.0", "ambient (1,)",
        "ambient b k=True", "eta k=1.0", "eta k=True", "FormTerm 1.0", "mu_slot a=True",
        "twist bivector k=True", "twist bivector k=1.0",
        "twist bivector l=2.0", "generator i=True", "generator i=1.0"])
def test_indices_must_be_ints(make):
    """An index that is not an int, a bool included, or a pair key that is
    not a pair is refused with InvalidValue at the public entry, before it
    is compared, shifted or written out."""
    with pytest.raises(InvalidValue, match=r" must be (an int|a pair of ints), got "):
        make()


def test_dimension_caps_admit_the_catalog():
    from spinor_forge.catalog import build_qk_pure
    from spinor_forge.spinrep import MAX_M, MAX_N, MAX_R

    # qk(5) at (20, 3, 5), spin7 at r = 7, generic(n) up to n = 8, and the
    # largest qk(m) whose (4m, 3, m) fits.
    assert (MAX_N, MAX_R, MAX_M) >= (20, 7, 5) and 4 * MAX_M <= MAX_N
    assert ScaledSpinor(MAX_N, MAX_R, MAX_M, {}).shape() == (MAX_N, MAX_R, MAX_M)
    with pytest.raises(UnsupportedDimension):
        build_qk_pure(MAX_M + 1)
