from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from spinor_forge.errors import InexactScalar
from spinor_forge.scalars import GR_I, GaussianRational, gr

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_unit_products():
    assert gr(1, 1) * gr(1, -1) == gr(2)
    assert GR_I * GR_I == gr(-1)


def test_conj_examples():
    assert gr(1, 1).conj() == gr(1, -1)
    assert gr(0).conj() == gr(0)
    a, b = gr(2, 3), gr(-1, 1)
    assert (a * b).conj() == a.conj() * b.conj()


@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + (-a) == gr(0)


@given(gaussians, gaussians)
def test_conj_is_involutive_ring_automorphism(a, b):
    assert a.conj().conj() == a
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()


@given(gaussians)
def test_norm2_is_conj_product(a):
    assert gr(a.norm2()) == a * a.conj()


def test_string_forms():
    assert str(gr(F(1, 2))) == "1/2"
    assert str(gr(0, -1)) == "-1i"
    assert str(gr(1, F(3, 4))) == "1+3/4i"


@pytest.mark.parametrize("bad", [0.1, True])
def test_gr_rejects_floats_and_bools(bad):
    with pytest.raises(InexactScalar):
        gr(bad)
    with pytest.raises(InexactScalar):
        gr(1, bad)


@pytest.mark.parametrize("bad", [0.5, False])
def test_gaussian_rational_rejects_floats_and_bools(bad):
    with pytest.raises(InexactScalar):
        GaussianRational(bad)
    with pytest.raises(InexactScalar):
        GaussianRational(F(1), bad)


@pytest.mark.parametrize("bad", [True, False, None, [1], 0.5])
def test_products_refuse_a_factor_gr_refuses(bad):
    """A factor that is no GaussianRational is read as ``gr`` reads it, on
    either side of ``*``: a bool is not read as 0 or 1, and None or a list
    is refused with InexactScalar rather than a bare TypeError."""
    with pytest.raises(InexactScalar):
        gr(1, 1) * bad
    with pytest.raises(InexactScalar):
        bad * gr(1, 1)


@pytest.mark.parametrize("factor, want", [(2, gr(2, 2)), (F(1, 3), gr(F(1, 3), F(1, 3))),
                                          ("-3/4", gr(F(-3, 4), F(-3, 4)))])
def test_products_read_the_rationals_gr_reads(factor, want):
    assert gr(1, 1) * factor == want
    assert factor * gr(1, 1) == want
