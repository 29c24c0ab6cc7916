import random
import re
from fractions import Fraction as F

import pytest

from spinor_forge.errors import (
    IndexOutOfRange, InexactScalar, InvalidValue, ScaleMismatch, ShapeMismatch,
)
from spinor_forge.linalg import random_unit_vector
from spinor_forge.scalars import gr
from spinor_forge.spinrep import FormTerm, all_basis_indices, spin_action_on_vector
from spinor_forge.twisted import (
    ScaledSpinor,
    form_action_on_spin_slot,
    mu_slot,
    norm2,
    tangent_action,
    twist_bivector_action,
    twisted_group_action,
    twisted_hermitian,
)

from .helpers import random_scaled


def dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def vec_terms(x):
    return [FormTerm((j,), c) for j, c in enumerate(x, 1) if c]


def test_tangent_action_zero_vector():
    rng = random.Random(0)
    phi = random_scaled(4, 3, 1, rng)
    assert tangent_action([0, 0, 0, 0], phi).is_zero()


def test_tangent_action_square_is_minus_norm():
    rng = random.Random(1)
    for shape in ((4, 3, 1), (5, 3, 2), (6, 7, 1)):
        phi = random_scaled(*shape, rng)
        x = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(shape[0])]
        xx = tangent_action(x, tangent_action(x, phi))
        assert xx.coeffs == phi.scale(gr(-dot(x, x))).coeffs


def test_tangent_vectors_do_not_annihilate():
    rng = random.Random(2)
    for _ in range(20):
        phi = random_scaled(4, 3, 1, rng)
        x = [F(rng.randint(-3, 3)) for _ in range(4)]
        if all(c == 0 for c in x):
            continue
        assert not tangent_action(x, phi).is_zero()


def test_twist_bivector_single_slot_matrix():
    # r=3, m=1: f_1 f_2 acts as [[0,-1],[1,0]] which has v_+ as an
    # i-eigenvector.
    phi = ScaledSpinor(2, 3, 1, {((1,), ((1,),)): gr(1)})
    out = twist_bivector_action(1, 2, phi)
    assert out.coeffs == {((1,), ((1,),)): gr(0, 1)}


def test_twist_bivector_two_slot_leibniz():
    rng = random.Random(3)
    idx = all_basis_indices(3)
    v = rng.choice(idx)
    phi = ScaledSpinor(2, 3, 2, {((1,), (v, v)): gr(1)})
    out = twist_bivector_action(1, 3, phi)
    first = mu_slot(1, [FormTerm((1, 3))], phi)
    second = mu_slot(2, [FormTerm((1, 3))], phi)
    assert out.coeffs == (first + second).coeffs


def test_twist_bivector_antisymmetry():
    rng = random.Random(4)
    phi = random_scaled(4, 3, 2, rng)
    a = twist_bivector_action(1, 3, phi)
    b = twist_bivector_action(3, 1, phi)
    assert (a + b).is_zero()


def test_twist_bivector_index_range():
    rng = random.Random(5)
    phi = random_scaled(4, 3, 1, rng)
    with pytest.raises(IndexOutOfRange, match=re.escape("twist indices (1,4) outside 1..3")):
        twist_bivector_action(1, 4, phi)
    with pytest.raises(InvalidValue, match="twist index must be an int"):
        twist_bivector_action(1, True, phi)


def test_mu_slot_identity_and_single_slot():
    rng = random.Random(6)
    phi = random_scaled(4, 3, 1, rng)
    assert mu_slot(1, [FormTerm(())], phi).coeffs == phi.coeffs
    assert mu_slot(1, [FormTerm((1, 2))], phi).coeffs == \
        twist_bivector_action(1, 2, phi).coeffs


def test_mu_slot_disjoint_slots_commute():
    rng = random.Random(7)
    phi = random_scaled(4, 3, 2, rng)
    ab = mu_slot(2, [FormTerm((1, 2))], mu_slot(1, [FormTerm((1, 2))], phi))
    ba = mu_slot(1, [FormTerm((1, 2))], mu_slot(2, [FormTerm((1, 2))], phi))
    assert ab.coeffs == ba.coeffs


def test_mu_slot_range():
    rng = random.Random(8)
    phi = random_scaled(4, 3, 1, rng)
    with pytest.raises(IndexOutOfRange):
        mu_slot(2, [FormTerm((1, 2))], phi)


def test_group_action_sign_bookkeeping():
    rng = random.Random(9)
    for m in (1, 2, 3):
        phi = random_scaled(4, 3, m, rng)
        x = random_unit_vector(4, rng)
        y = random_unit_vector(3, rng)
        out = twisted_group_action([x, x], [y, y], phi)
        sign = (-1) ** (1 + m)
        assert out.coeffs == phi.scale(gr(sign)).coeffs


def test_group_action_empty_twist_reduces_to_spin_slot():
    rng = random.Random(10)
    phi = random_scaled(4, 3, 1, rng)
    x1, x2 = random_unit_vector(4, rng), random_unit_vector(4, rng)
    out = twisted_group_action([x1, x2], [], phi)
    byhand = tangent_action(x1, tangent_action(x2, phi))
    assert out.coeffs == byhand.coeffs


def test_group_action_unitary():
    rng = random.Random(11)
    phi = random_scaled(4, 3, 2, rng)
    g = [random_unit_vector(4, rng) for _ in range(2)]
    h = [random_unit_vector(3, rng) for _ in range(2)]
    moved = twisted_group_action(g, h, phi)
    assert twisted_hermitian(moved, moved) == twisted_hermitian(phi, phi)


def test_group_action_equivariance_on_tangent_vectors():
    rng = random.Random(12)
    phi = random_scaled(4, 3, 1, rng)
    g = [random_unit_vector(4, rng) for _ in range(2)]
    h = [random_unit_vector(3, rng) for _ in range(2)]
    x = [F(rng.randint(-2, 2)) for _ in range(4)]
    lhs = twisted_group_action(g, h, tangent_action(x, phi))
    rhs = tangent_action(spin_action_on_vector(4, g, x),
                         twisted_group_action(g, h, phi))
    assert lhs.coeffs == rhs.coeffs


def test_twisted_hermitian_scale_handling():
    phi = ScaledSpinor(2, 3, 1, {((1,), ((1,),)): gr(1)}, F(1, 8))
    other = ScaledSpinor(2, 3, 1, {((1,), ((1,),)): gr(1)}, F(1, 4))
    with pytest.raises(ScaleMismatch):  # sqrt(1/32) is irrational
        twisted_hermitian(phi, other)
    # sqrt(1/8 * 1/2) = 1/4 is rational, so mixed scales are fine here
    ok = ScaledSpinor(2, 3, 1, {((1,), ((1,),)): gr(1)}, F(2))
    assert twisted_hermitian(phi, ok) == gr(F(1, 2))


def test_twisted_hermitian_zero_and_unit_norm():
    phi = ScaledSpinor(2, 3, 1,
                       {((s,), ((t,),)): gr(1) for s in (1, -1) for t in (1, -1)},
                       F(1, 4))
    zero = ScaledSpinor(2, 3, 1, {}, F(1, 4))
    assert twisted_hermitian(phi, zero) == gr(0)
    assert norm2(phi) == 1


def test_twisted_hermitian_shape_mismatch():
    a = ScaledSpinor(2, 3, 1, {((1,), ((1,),)): gr(1)})
    b = ScaledSpinor(4, 3, 1, {((1, 1), ((1,),)): gr(1)})
    with pytest.raises(ShapeMismatch):
        twisted_hermitian(a, b)


def test_clifford_norm_identity():
    rng = random.Random(13)
    for shape in ((4, 3, 1), (6, 3, 1)):
        phi = random_scaled(*shape, rng)
        x = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(shape[0])]
        xphi = tangent_action(x, phi)
        assert twisted_hermitian(xphi, xphi) == twisted_hermitian(phi, phi) * gr(dot(x, x))


def test_zero_twist_slots_permitted():
    # m = 0 is a legal shape: the twist bivector action is the empty sum
    phi = ScaledSpinor(4, 3, 0, {((1, 1), ()): gr(1)})
    assert twist_bivector_action(1, 2, phi).is_zero()
    moved = tangent_action([F(1), F(0), F(0), F(0)], phi)
    assert not moved.is_zero()
    from spinor_forge.analysis import check_reducing

    # with no twist slots every eta vanishes, so the spinor never reduces
    assert not check_reducing(phi).is_reducing


@pytest.mark.parametrize("bad", [0.5, True])
def test_scale2_rejects_floats_and_bools(bad):
    with pytest.raises(InexactScalar):
        ScaledSpinor(2, 2, 1, {}, bad)


def test_odd_dimension_never_pure():
    from spinor_forge.analysis import check_pure

    rng = random.Random(99)
    phi = random_scaled(5, 3, 1, rng)
    # (eta_hat)^2 = -Id is impossible in odd dimension
    assert not check_pure(phi).is_pure


# Vanishing/reality identity suite on random spinors, module-scale version
# (the acceptance suite runs the large sweep).
@pytest.mark.parametrize("shape", [(4, 3, 1), (5, 4, 1), (6, 3, 2), (8, 7, 1)])
def test_vanishing_identity_suite_small(shape):
    rng = random.Random(sum(shape))
    n, r, m = shape
    quads = [(a, b, c, d)
             for a in range(1, n + 1) for b in range(a + 1, n + 1)
             for c in range(b + 1, n + 1) for d in range(c + 1, n + 1)]
    for _ in range(5):
        phi = random_scaled(n, r, m, rng)
        x = [F(rng.randint(-2, 2)) for _ in range(n)]
        y = [F(rng.randint(-2, 2)) for _ in range(n)]
        xy = dot(x, y)
        xy_phi = form_action_on_spin_slot(
            vec_terms(x), form_action_on_spin_slot(vec_terms(y), phi)) + \
            phi.scale(gr(xy))
        assert twisted_hermitian(xy_phi, phi).re == 0
        x_phi = form_action_on_spin_slot(vec_terms(x), phi)
        y_phi = form_action_on_spin_slot(vec_terms(y), phi)
        assert twisted_hermitian(x_phi, y_phi).re == xy * twisted_hermitian(phi, phi).re
        for k in range(1, r + 1):
            for l in range(k + 1, r + 1):
                fphi = twist_bivector_action(k, l, phi)
                assert twisted_hermitian(fphi, phi).re == 0
                xyf = form_action_on_spin_slot(
                    vec_terms(x), form_action_on_spin_slot(vec_terms(y), fphi)) + \
                    fphi.scale(gr(xy))
                assert twisted_hermitian(xyf, phi).im == 0
                for quad in rng.sample(quads, k=min(2, len(quads))):
                    e4 = form_action_on_spin_slot([FormTerm(quad)], fphi)
                    assert twisted_hermitian(e4, phi).re == 0


