"""The public surface and its typed-error contract.

Every name of ``spinor_forge.__all__`` has a row in the README's "Public
API" table and an entry in ``CONTRACT`` below; both tests fail when either
is missing.

The contract: every parameter that takes a scalar, or a sequence or mapping
of scalars (a dimension, an index, a coefficient, a vector, a matrix, a key,
a kind string), either works or raises a ``SpinorForgeError`` on any value.
A parameter that takes a library object (a spinor, a form, an ``Endo``, an
element) is not covered, so a name whose parameters are all such objects
has an empty entry.  A size is probed at -1 and at its cap + 1 and never
beyond, so a missing cap fails by its error type and builds nothing large.
"""

import re
from fractions import Fraction as F
from pathlib import Path

import pytest

import spinor_forge
from spinor_forge import (
    AmbientElement, CatalogEntry, ClDims, Endo, FormTerm, GaussianRational, LieSubalgebra,
    PurityReport, ReducingReport, ScaledSpinor, SpinorVector, TwoForm, basis_spinor,
    beta_forms, build_generic_reducing, build_qk_pure, cl_dims, commutant, equivariance_check,
    eta, eta13_recursion_check, eta_hat, etas, even_clifford_verify, frame_rotation_check, gr,
    kappa_generator, maps_G_H, mu_slot, phi_extend, spin_action_on_vector, tangent_action,
    twist_bivector_action, twisted_group_action,
)
from spinor_forge.errors import SpinorForgeError, UnsupportedDimension
from spinor_forge.spinrep import MAX_M, MAX_N, MAX_R

README = Path(__file__).resolve().parent.parent / "README.md"

PHI = build_qk_pure(1).spinor  # n = 4, r = 3, m = 1
HATS = [eta_hat(form) for form in etas(PHI).values()]
H = HATS[0]
KEY = ((1, 1), ((1,),))  # a basis index of PHI's shape
IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

# Scalars that are not what a parameter wants: no large int among them.
SCALARS = (None, True, False, 2.5, float("nan"), 1j, "x", "", -1, 0, F(1, 2), object())


class Hostile(tuple):
    """Hostile values of one parameter; those in ``over`` exceed a cap and
    must raise ``UnsupportedDimension``."""

    def __new__(cls, values, over=()):
        out = super().__new__(cls, (*values, *over))
        out.over = over
        return out


def size(cap):
    return Hostile(SCALARS, over=(cap + 1,))


def vector(length):
    """Non-sequences, a string, and sequences of the right length with one
    hostile scalar throughout."""
    return SCALARS + tuple([v] * length for v in SCALARS) + ([1] * (length + 1),)


def matrix(rows, cols):
    return vector(rows) + tuple([[v] * cols] * rows for v in SCALARS)


def mapping(key, value=1, values=True):
    """Non-mappings, hostile keys (a hostile entry in each place of a tuple
    key) and, unless the values are library objects, hostile values."""
    keys = list(SCALARS)
    if isinstance(key, tuple):
        keys += [key[:i] + (v,) + key[i + 1:] for i in range(len(key)) for v in SCALARS]
        keys += [key[:-1], key + key[-1:]]
    out = SCALARS + tuple({k: value} for k in keys)
    return out + tuple({key: v} for v in SCALARS) if values else out


# name -> [(parameter, hostile values, call)]
CONTRACT = {
    "AmbientElement": [
        ("n", size(MAX_N), lambda v: AmbientElement(v, 3)),
        ("r", size(MAX_R), lambda v: AmbientElement(4, v)),
        ("a", mapping((1, 2)), lambda v: AmbientElement(4, 3, v, {})),
        ("b", mapping((1, 2)), lambda v: AmbientElement(4, 3, {}, v)),
    ],
    "CatalogEntry": [  # a record: its fields are stored as given
        ("name", SCALARS, lambda v: CatalogEntry(v, "pure", PHI)),
        ("kind", SCALARS, lambda v: CatalogEntry("qk", v, PHI)),
        ("expected_annihilator_dim", SCALARS, lambda v: CatalogEntry("qk", "pure", PHI, None, v)),
    ],
    "ClDims": [("r", SCALARS, lambda v: ClDims(v, v, v))],
    "Endo": [
        ("n", SCALARS, lambda v: Endo(v, [[0] * 4] * 4)),
        ("mat", matrix(4, 4), lambda v: Endo(4, v)),
    ],
    "FormTerm": [
        ("factors", vector(2), lambda v: FormTerm(v)),
        ("coeff", SCALARS, lambda v: FormTerm((1, 2), v)),
    ],
    "GaussianRational": [
        ("re", SCALARS, lambda v: GaussianRational(v)),
        ("im", SCALARS, lambda v: GaussianRational(0, v)),
    ],
    "LieSubalgebra": [  # a record
        ("dim", SCALARS, lambda v: LieSubalgebra([], v, True)),
        ("closed", SCALARS, lambda v: LieSubalgebra([], 0, v)),
        ("open_pair", SCALARS, lambda v: LieSubalgebra([], 0, False, v)),
    ],
    "PurityReport": [("is_pure", SCALARS, lambda v: PurityReport(v, {}))],  # a record
    "ReducingReport": [("is_reducing", SCALARS, lambda v: ReducingReport(v, {}))],  # a record
    "ScaledSpinor": [
        ("n", size(MAX_N), lambda v: ScaledSpinor(v, 3, 1)),
        ("r", size(MAX_R), lambda v: ScaledSpinor(4, v, 1)),
        ("m", size(MAX_M), lambda v: ScaledSpinor(4, 3, v)),
        ("coeffs", mapping(KEY), lambda v: ScaledSpinor(4, 3, 1, v)),
        ("scale2", SCALARS, lambda v: ScaledSpinor(4, 3, 1, {}, v)),
    ],
    "SpinorVector": [
        ("n", size(MAX_N), lambda v: SpinorVector(v, {})),
        ("coeffs", mapping((1, 1)), lambda v: SpinorVector(4, v)),
    ],
    "TwoForm": [
        ("n", SCALARS, lambda v: TwoForm(v, [[0] * 4] * 4)),
        ("mat", matrix(4, 4), lambda v: TwoForm(4, v)),
    ],
    "ambient_annihilates": [],
    "annihilator": [],
    "basis_spinor": [
        ("n", size(MAX_N), lambda v: basis_spinor(v, (1, 1))),
        ("eps", vector(2), lambda v: basis_spinor(4, v)),
    ],
    "beta_forms": [("m", size(MAX_M), beta_forms)],
    "bracket": [],
    "build_generic_reducing": [("n", size(8), build_generic_reducing)],
    "build_qk_pure": [("m", size(MAX_M), build_qk_pure)],
    "build_spin7_pure": [],
    "build_spin7_reducing": [],
    "check_pure": [],
    "check_reducing": [],
    "check_spinc_pure": [],
    "cl_dims": [("r", size(MAX_R), cl_dims)],
    "commutant": [("restrict_skew", SCALARS, lambda v: commutant(HATS, v))],
    "equivariance_check": [
        ("g_vectors", matrix(2, 4), lambda v: equivariance_check(PHI, v, [])),
        ("h_vectors", matrix(2, 3), lambda v: equivariance_check(PHI, [], v)),
        ("kind", SCALARS, lambda v: equivariance_check(PHI, [], [], v)),
    ],
    "eta": [
        ("k", SCALARS, lambda v: eta(PHI, v, 2)),
        ("l", SCALARS, lambda v: eta(PHI, 1, v)),
    ],
    "eta13_recursion_check": [("m", size(MAX_M), eta13_recursion_check)],
    "eta_hat": [],
    "etas": [],
    "even_clifford_verify": [  # the keys' largest index is the rank r
        ("etas", Hostile(mapping((1, 2), H, values=False), over=({(1, MAX_R + 1): H},)),
         even_clifford_verify),
    ],
    "frame_rotation_check": [
        ("a", matrix(3, 3), lambda v: frame_rotation_check(PHI, v)),
        ("kind", SCALARS, lambda v: frame_rotation_check(PHI, IDENTITY3, v)),
    ],
    "g2_generators": [],
    "gamma_apply": [],
    "gr": [
        ("re", SCALARS, lambda v: gr(v)),
        ("im", SCALARS, lambda v: gr(0, v)),
    ],
    "kappa_generator": [
        ("n", SCALARS, lambda v: kappa_generator(v, 1, PHI)),
        ("i", SCALARS, lambda v: kappa_generator(4, v, PHI)),
    ],
    "lie_closure_report": [],
    "maps_G_H": [("eps", vector(2), maps_G_H)],
    "mu_slot": [("a", SCALARS, lambda v: mu_slot(v, [FormTerm((1,))], PHI))],
    "norm2": [],
    "phi_extend": [("beta", mapping((1, 2)), lambda v: phi_extend(PHI, v))],
    "spin_action_on_vector": [
        ("n", SCALARS, lambda v: spin_action_on_vector(v, [], [1, 0, 0, 0])),
        ("n", size(MAX_N), lambda v: spin_action_on_vector(v, [], [1])),
        ("vectors", matrix(2, 4), lambda v: spin_action_on_vector(4, v, [1, 0, 0, 0])),
        ("v", vector(4), lambda v: spin_action_on_vector(4, [], v)),
    ],
    "spinc_form": [],
    "tangent_action": [("X", vector(4), lambda v: tangent_action(v, PHI))],
    "twist_bivector_action": [
        ("k", SCALARS, lambda v: twist_bivector_action(v, 2, PHI)),
        ("l", SCALARS, lambda v: twist_bivector_action(1, v, PHI)),
    ],
    "twisted_group_action": [
        ("g_vectors", matrix(2, 4), lambda v: twisted_group_action(v, [], PHI)),
        ("h_vectors", matrix(2, 3), lambda v: twisted_group_action([], v, PHI)),
    ],
    "twisted_hermitian": [],
}


def test_every_public_name_has_a_contract_entry():
    assert sorted(CONTRACT) == sorted(spinor_forge.__all__)


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_hostile_values_raise_only_typed_errors(name):
    """Each covered parameter of ``name``, given each hostile value with
    every other argument valid, works or raises a ``SpinorForgeError``; a
    value over a cap raises ``UnsupportedDimension``."""
    leaks = []
    for param, values, call in CONTRACT[name]:
        for value in values:
            over = any(value is v for v in getattr(values, "over", ()))
            try:
                call(value)
            except UnsupportedDimension:
                continue
            except SpinorForgeError as exc:
                if over:
                    leaks.append(f"{name}({param}={value!r}) is over its cap: {exc!r}")
            except Exception as exc:  # noqa: BLE001 - the leak is the finding
                leaks.append(f"{name}({param}={value!r}): {type(exc).__name__}: {exc}")
            else:
                if over:
                    leaks.append(f"{name}({param}={value!r}) is over its cap and worked")
    assert not leaks, "\n".join(leaks)


def _api_rows():
    """The backticked names of the first column of the README's "Public API" table."""
    text = README.read_text()
    assert "\n## Public API\n" in text
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return [m.group(1) for m in re.finditer(r"^\| `([A-Za-z_0-9]+)` \|", section, re.M)]


def test_every_public_name_has_one_readme_row():
    rows = _api_rows()
    assert len(rows) == len(set(rows)), rows
    assert sorted(rows) == sorted(spinor_forge.__all__)
