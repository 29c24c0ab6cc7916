"""The public surface and its typed-error contract.

Every name of ``spinor_forge.__all__`` has a row in the README's "Public
API" table and an entry in ``CONTRACT`` below; both tests fail when either
is missing.

The contract: every parameter that takes a scalar, or a sequence or mapping
of scalars (a dimension, an index, a coefficient, a vector, a matrix, a key,
a kind string), either works or raises a ``SpinorForgeError`` on any value.
A parameter that takes a library object (a spinor, a form, an ``Endo``, an
element) is not covered, so a name whose parameters are all such objects
has an empty entry.  The hostile values are wrong scalars and unhashable
containers, as a whole argument, as entries of a sequence and as values of
a mapping; the keys of a mapping are probed with the scalars alone.
A size is probed at -1 and at its cap + 1 and never beyond, so a missing
cap fails by its error type and builds nothing large.
"""

import random
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
from spinor_forge.analysis import pairs
from spinor_forge.catalog import sign_tuples
from spinor_forge.errors import InvalidValue, SpinorForgeError, UnsupportedDimension
from spinor_forge.forms import two_form_from_terms
from spinor_forge.linalg import (
    RowReducer, canonical_basis, cayley_so, nullspace, nullspace_of_columns, random_so_matrix,
    random_unit_vector, rank, span_contains, spans_equal, transpose,
)
from spinor_forge.spinrep import MAX_M, MAX_N, MAX_R

README = Path(__file__).resolve().parent.parent / "README.md"

PHI = build_qk_pure(1).spinor  # n = 4, r = 3, m = 1
HATS = [eta_hat(form) for form in etas(PHI).values()]
H = HATS[0]
KEY = ((1, 1), ((1,),))  # a basis index of PHI's shape
IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

# Scalars that are not what a parameter wants: no large int among them.
SCALARS = (None, True, False, 2.5, float("nan"), 1j, "x", "", -1, 0, F(1, 2), object())
# ... and unhashable containers, which cannot be part of a mapping key.
HOSTILE = SCALARS + ([], {}, set(), [1])


class Hostile(tuple):
    """Hostile values of one parameter; those in ``over`` exceed a cap and
    must raise ``UnsupportedDimension``."""

    def __new__(cls, values, over=()):
        out = super().__new__(cls, (*values, *over))
        out.over = over
        return out


def size(cap):
    return Hostile(HOSTILE, over=(cap + 1,))


def vector(length):
    """Non-sequences, a string, and sequences of the right length with one
    hostile value, a container included, throughout."""
    return HOSTILE + tuple([v] * length for v in HOSTILE) + ([1] * (length + 1),)


def matrix(rows, cols):
    return vector(rows) + tuple([[v] * cols] * rows for v in HOSTILE)


def mapping(key, value=1, values=True):
    """Non-mappings, hostile keys (a hostile scalar in each place of a tuple
    key; a container cannot be part of a key) and, unless the values are
    library objects, hostile values, containers included."""
    keys = list(SCALARS)
    if isinstance(key, tuple):
        keys += [key[:i] + (v,) + key[i + 1:] for i in range(len(key)) for v in SCALARS]
        keys += [key[:-1], key + key[-1:]]
    out = HOSTILE + tuple({k: value} for k in keys)
    return out + tuple({key: v} for v in HOSTILE) if values else out


# name -> [(parameter, hostile values, call)]
CONTRACT = {
    "AmbientElement": [
        ("n", size(MAX_N), lambda v: AmbientElement(v, 3)),
        ("r", size(MAX_R), lambda v: AmbientElement(4, v)),
        ("a", mapping((1, 2)), lambda v: AmbientElement(4, 3, v, {})),
        ("b", mapping((1, 2)), lambda v: AmbientElement(4, 3, {}, v)),
    ],
    "CatalogEntry": [  # a record: its fields are stored as given
        ("name", HOSTILE, lambda v: CatalogEntry(v, "pure", PHI)),
        ("kind", HOSTILE, lambda v: CatalogEntry("qk", v, PHI)),
        ("expected_annihilator_dim", HOSTILE, lambda v: CatalogEntry("qk", "pure", PHI, None, v)),
    ],
    "ClDims": [("r", HOSTILE, lambda v: ClDims(v, v, v))],
    "Endo": [
        ("n", size(MAX_N), lambda v: Endo(v, [[0] * 4] * 4)),
        ("mat", matrix(4, 4), lambda v: Endo(4, v)),
    ],
    "FormTerm": [
        ("factors", vector(2), lambda v: FormTerm(v)),
        ("coeff", HOSTILE, lambda v: FormTerm((1, 2), v)),
    ],
    "GaussianRational": [
        ("re", HOSTILE, lambda v: GaussianRational(v)),
        ("im", HOSTILE, lambda v: GaussianRational(0, v)),
    ],
    "LieSubalgebra": [  # a record
        ("dim", HOSTILE, lambda v: LieSubalgebra([], v, True)),
        ("closed", HOSTILE, lambda v: LieSubalgebra([], 0, v)),
        ("open_pair", HOSTILE, lambda v: LieSubalgebra([], 0, False, v)),
    ],
    "PurityReport": [("is_pure", HOSTILE, lambda v: PurityReport(v, {}))],  # a record
    "ReducingReport": [("is_reducing", HOSTILE, lambda v: ReducingReport(v, {}))],  # a record
    "ScaledSpinor": [
        ("n", size(MAX_N), lambda v: ScaledSpinor(v, 3, 1)),
        ("r", size(MAX_R), lambda v: ScaledSpinor(4, v, 1)),
        ("m", size(MAX_M), lambda v: ScaledSpinor(4, 3, v)),
        ("coeffs", mapping(KEY), lambda v: ScaledSpinor(4, 3, 1, v)),
        ("scale2", HOSTILE, lambda v: ScaledSpinor(4, 3, 1, {}, v)),
    ],
    "SpinorVector": [
        ("n", size(MAX_N), lambda v: SpinorVector(v, {})),
        ("coeffs", mapping((1, 1)), lambda v: SpinorVector(4, v)),
    ],
    "TwoForm": [
        ("n", size(MAX_N), lambda v: TwoForm(v, [[0] * 4] * 4)),
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
    "commutant": [("restrict_skew", HOSTILE, lambda v: commutant(HATS, v))],
    "equivariance_check": [
        ("g_vectors", matrix(2, 4), lambda v: equivariance_check(PHI, v, [])),
        ("h_vectors", matrix(2, 3), lambda v: equivariance_check(PHI, [], v)),
        ("kind", HOSTILE, lambda v: equivariance_check(PHI, [], [], v)),
    ],
    "eta": [
        ("k", HOSTILE, lambda v: eta(PHI, v, 2)),
        ("l", HOSTILE, lambda v: eta(PHI, 1, v)),
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
        ("kind", HOSTILE, lambda v: frame_rotation_check(PHI, IDENTITY3, v)),
    ],
    "g2_generators": [],
    "gamma_apply": [],
    "gr": [
        ("re", HOSTILE, lambda v: gr(v)),
        ("im", HOSTILE, lambda v: gr(0, v)),
    ],
    "kappa_generator": [
        ("n", HOSTILE, lambda v: kappa_generator(v, 1, PHI)),
        ("i", HOSTILE, lambda v: kappa_generator(4, v, PHI)),
    ],
    "lie_closure_report": [],
    "maps_G_H": [("eps", vector(2), maps_G_H)],
    "mu_slot": [("a", HOSTILE, lambda v: mu_slot(v, [FormTerm((1,))], PHI))],
    "norm2": [],
    "phi_extend": [("beta", mapping((1, 2)), lambda v: phi_extend(PHI, v))],
    "spin_action_on_vector": [
        ("n", HOSTILE, lambda v: spin_action_on_vector(v, [], [1, 0, 0, 0])),
        ("n", size(MAX_N), lambda v: spin_action_on_vector(v, [], [1])),
        ("vectors", matrix(2, 4), lambda v: spin_action_on_vector(4, v, [1, 0, 0, 0])),
        ("v", vector(4), lambda v: spin_action_on_vector(4, [], v)),
    ],
    "spinc_form": [],
    "tangent_action": [("X", vector(4), lambda v: tangent_action(v, PHI))],
    "twist_bivector_action": [
        ("k", HOSTILE, lambda v: twist_bivector_action(v, 2, PHI)),
        ("l", HOSTILE, lambda v: twist_bivector_action(1, v, PHI)),
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


# Module helpers that the report, the CLI and CI reach by module: a bool is
# not read as 1, a float is no index, a dimension over MAX_N is refused
# before anything is drawn or allocated, a matrix, a row or a list of rows
# that is no sequence (a string included) is refused as a value, and so is
# a nullspace width that is no int or a column outside it.
HELPER_CASES = {
    "two_form_from_terms list": (lambda rng: two_form_from_terms(4, [1]), InvalidValue),
    "two_form_from_terms None": (lambda rng: two_form_from_terms(4, None), InvalidValue),
    "two_form_from_terms str": (lambda rng: two_form_from_terms(4, "ab"), InvalidValue),
    "two_form_from_terms int": (lambda rng: two_form_from_terms(4, 5), InvalidValue),
    "random_so_matrix n bool": (lambda rng: random_so_matrix(True, rng), InvalidValue),
    "random_so_matrix n float": (lambda rng: random_so_matrix(2.5, rng), InvalidValue),
    "random_so_matrix bound bool": (lambda rng: random_so_matrix(3, rng, bound=True), InvalidValue),
    "random_so_matrix bound float": (lambda rng: random_so_matrix(3, rng, bound=2.5), InvalidValue),
    "random_so_matrix n over cap": (lambda rng: random_so_matrix(MAX_N + 1, rng),
                                    UnsupportedDimension),
    "random_unit_vector n bool": (lambda rng: random_unit_vector(True, rng), InvalidValue),
    "random_unit_vector n float": (lambda rng: random_unit_vector(2.5, rng), InvalidValue),
    "random_unit_vector support bool": (lambda rng: random_unit_vector(3, rng, support=True),
                                        InvalidValue),
    "random_unit_vector support float": (lambda rng: random_unit_vector(3, rng, support=1.5),
                                         InvalidValue),
    "pairs bool": (lambda rng: pairs(True), InvalidValue),
    "pairs float": (lambda rng: pairs(2.5), InvalidValue),
    "sign_tuples m bool": (lambda rng: sign_tuples(True, 1), InvalidValue),
    "sign_tuples m float": (lambda rng: sign_tuples(1.5, 1), InvalidValue),
    "sign_tuples minus_count bool": (lambda rng: sign_tuples(2, True), InvalidValue),
    "cayley_so int": (lambda rng: cayley_so(5), InvalidValue),
    "cayley_so int row": (lambda rng: cayley_so([5]), InvalidValue),
    "cayley_so str": (lambda rng: cayley_so("ab"), InvalidValue),
    "rank int": (lambda rng: rank(5), InvalidValue),
    "rank int row": (lambda rng: rank([5]), InvalidValue),
    "rank str row": (lambda rng: rank(["ab"]), InvalidValue),
    "RowReducer.add int row": (lambda rng: RowReducer().add(5), InvalidValue),
    "spans_equal int row": (lambda rng: spans_equal([5], [[1]]), InvalidValue),
    "span_contains int vec": (lambda rng: span_contains([[1]], 5), InvalidValue),
    "nullspace int": (lambda rng: nullspace(5, 2), InvalidValue),
    "nullspace int row": (lambda rng: nullspace([5], 2), InvalidValue),
    "nullspace width float": (lambda rng: nullspace([[1, 0]], 2.5), InvalidValue),
    "nullspace width str": (lambda rng: nullspace([[1, 0]], "2"), InvalidValue),
    "nullspace width bool": (lambda rng: nullspace([[1]], True), InvalidValue),
    "nullspace column outside width": (lambda rng: nullspace([{5: 1}], 4), InvalidValue),
    "nullspace_of_columns int": (lambda rng: nullspace_of_columns(5), InvalidValue),
    "nullspace_of_columns int column": (lambda rng: nullspace_of_columns([5]), InvalidValue),
    "canonical_basis int": (lambda rng: canonical_basis(5, 2), InvalidValue),
    "canonical_basis width bool": (lambda rng: canonical_basis([[1]], True), InvalidValue),
    "canonical_basis width float": (lambda rng: canonical_basis([[1]], 2.5), InvalidValue),
    "canonical_basis column outside width": (lambda rng: canonical_basis([{5: 1}], 2),
                                             InvalidValue),
    "transpose int": (lambda rng: transpose(5), InvalidValue),
    "transpose int row": (lambda rng: transpose([5]), InvalidValue),
}


@pytest.mark.parametrize("call,error", HELPER_CASES.values(), ids=HELPER_CASES)
def test_module_helpers_refuse_bools_floats_and_hostile_terms(call, error):
    """Each raises its typed error, and the generator's state is untouched."""
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(error):
        call(rng)
    assert rng.getstate() == state
