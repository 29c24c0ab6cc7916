import json
import random
import re
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from spinor_forge.catalog import build_qk_pure, build_spin7_reducing
from spinor_forge.errors import MalformedInput, ShapeMismatch, SpinorForgeError, UnsupportedDimension
from spinor_forge.forms import eta, two_form_from_terms
from spinor_forge.scalars import gr
from spinor_forge.analysis import AmbientElement
from spinor_forge.serialize import (
    gaussian_from_json,
    render_ambient,
    render_two_form,
    scaled_spinor_from_json,
    scaled_spinor_to_json,
    spinor_from_json,
    spinor_to_json,
    two_form_to_json,
)
from spinor_forge.spinrep import ScaledSpinor, all_basis_indices, basis_spinor
from spinor_forge.twisted import tangent_action, twist_bivector_action

from .test_twisted import random_scaled


def test_gaussian_round_trip():
    c = gr(F(-3, 7), F(22, 5))
    entry, = scaled_spinor_to_json(ScaledSpinor(2, 0, 0, {((1,), ()): c}))["coeffs"]
    assert (entry["re"], entry["im"]) == ("-3/7", "22/5")
    assert gaussian_from_json(entry) == c


def test_spinor_round_trip():
    psi = basis_spinor(4, (1, -1)).scale(gr(F(1, 2), F(-2)))
    obj = spinor_to_json(psi)
    assert json.loads(json.dumps(obj)) == obj
    assert spinor_from_json(obj).coeffs == psi.coeffs


def test_untwisted_wire_format_is_an_m0_spinor():
    obj = {"n": 4, "coeffs": [{"eps": [-1, 1], "re": "3/7", "im": "-2"},
                              {"eps": [1, -1], "re": "1/2", "im": "0"}]}
    psi = spinor_from_json(obj)
    assert (psi.m, psi.scale2) == (0, 1)
    assert json.dumps(spinor_to_json(psi)) == json.dumps(obj)


@pytest.mark.parametrize("psi", [
    ScaledSpinor(4, 2, 1, {((1, 1), ((1,),)): gr(1)}),
    ScaledSpinor(4, 0, 0, {((1, 1), ()): gr(1)}, F(1, 2)),
], ids=["m=1", "scale2=1/2"])
def test_untwisted_wire_format_refuses_what_it_cannot_hold(psi):
    with pytest.raises(ValueError):
        spinor_to_json(psi)


def test_scaled_spinor_round_trip():
    rng = random.Random(0)
    phi = random_scaled(4, 3, 2, rng)
    obj = scaled_spinor_to_json(phi)
    back = scaled_spinor_from_json(json.loads(json.dumps(obj)))
    assert back.coeffs == phi.coeffs
    assert back.scale2 == phi.scale2
    assert back.shape() == phi.shape()


def _oracle_coeffs(phi):
    """The coefficient entries of the wire formats, written from the
    tuple-keyed view: sorted by key, each part as str(Fraction)."""
    return [({"spin": list(spin), "twist": [list(t) for t in twist]}, str(c.re), str(c.im))
            for (spin, twist), c in sorted(phi.coeffs.items())]


def _pooled_spinor(n, r, m, rng):
    """A spinor over a few spin and twist tuples, so that entries tie on the
    spin slot and on leading twist slots, with denominators > 1."""
    spins = rng.sample(all_basis_indices(n), 3) if n >= 4 else all_basis_indices(n)
    twists = [rng.sample(all_basis_indices(r), min(3, 2 ** (r // 2))) for _ in range(m)]
    coeffs = {}
    for _ in range(12):
        key = (rng.choice(spins), tuple(rng.choice(pool) for pool in twists))
        coeffs[key] = gr(F(rng.randint(-4, 4), rng.randint(1, 6)),
                         F(rng.randint(-4, 4), rng.randint(1, 6)))
    items = list(coeffs.items())
    rng.shuffle(items)
    return dict(items), ScaledSpinor(n, r, m, dict(items), F(rng.randint(1, 5), rng.randint(1, 5)))


# (n, r, m): two-chunk spin slots (n = 32, 18), r = 16, m = 3, odd n and r,
# r = 1 (empty twist tuples) and the untwisted m = 0 case.
ENCODER_SHAPES = [(32, 16, 3), (18, 15, 2), (7, 5, 2), (5, 3, 3), (3, 4, 1), (31, 1, 2),
                  (9, 0, 0), (32, 0, 0), (4, 0, 0)]


@pytest.mark.parametrize("shape", ENCODER_SHAPES, ids=lambda s: "n%d_r%d_m%d" % s)
def test_encoders_match_sorted_coeffs_oracle(shape):
    n, r, m = shape
    rng = random.Random(sum(shape))
    for _ in range(3):
        given_coeffs, phi = _pooled_spinor(n, r, m, rng)
        assert phi.coeffs == {k: c for k, c in given_coeffs.items() if c}
        x = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
        moved = tangent_action(x, phi)
        if r >= 2:
            moved = moved + twist_bivector_action(1, 2, phi).scale(gr(F(1, 7)))
        for psi in (phi, moved, moved.scale(gr(F(3, 2), F(-1, 5)))):
            assert psi._den > 1 or psi.is_zero(), shape
            want = {"n": n, "r": r, "m": m, "scale2": str(psi.scale2),
                    "coeffs": [{**key, "re": re, "im": im} for key, re, im in _oracle_coeffs(psi)]}
            assert json.dumps(scaled_spinor_to_json(psi)) == json.dumps(want)
            if m == 0:
                flat = replace(psi, scale2=F(1))
                want = {"n": n, "coeffs": [{"eps": key["spin"], "re": re, "im": im}
                                           for key, re, im in _oracle_coeffs(flat)]}
                assert json.dumps(spinor_to_json(flat)) == json.dumps(want)


def test_two_form_to_json_matches_literal():
    """Terms a < b ascending, each coefficient one "p/q" string; a (b, a)
    term is negated onto (a, b) and a zero term is left out."""
    form = eta(build_qk_pure(1).spinor, 1, 2)
    assert json.dumps(two_form_to_json(form)) == json.dumps({"n": 4, "terms": [
        {"a": 1, "b": 2, "coeff": "1"}, {"a": 3, "b": 4, "coeff": "1"}]})
    form = two_form_from_terms(5, {(4, 5): F(6, 4), (3, 1): F(1, 2), (2, 4): -3, (1, 2): 0})
    assert json.dumps(two_form_to_json(form)) == json.dumps({"n": 5, "terms": [
        {"a": 1, "b": 3, "coeff": "-1/2"}, {"a": 2, "b": 4, "coeff": "-3"},
        {"a": 4, "b": 5, "coeff": "3/2"}]})


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        gaussian_from_json({"re": "1"})
    with pytest.raises(ValueError):
        gaussian_from_json({"re": "x", "im": "0"})
    with pytest.raises(ValueError):
        spinor_from_json({"n": 2})
    with pytest.raises(ValueError):
        spinor_from_json({"n": 2, "coeffs": [{"eps": [2], "re": "1", "im": "0"}]})
    with pytest.raises(ValueError):
        scaled_spinor_from_json({"n": 2, "r": 3, "m": 1, "coeffs": []})


_ENTRY = {"spin": [1, 1], "twist": [[1]], "re": "1", "im": "0"}
_TWISTED = {"n": 4, "r": 3, "m": 1, "scale2": "1", "coeffs": [_ENTRY]}


@pytest.mark.parametrize("decode,obj", [
    (scaled_spinor_from_json, {**_TWISTED, "coeffs": [1]}),
    (scaled_spinor_from_json, {**_TWISTED, "coeffs": {"a": 1}}),
    (scaled_spinor_from_json, {**_TWISTED, "n": None}),
    (scaled_spinor_from_json, {**_TWISTED, "coeffs": None}),
    (scaled_spinor_from_json, {**_TWISTED, "n": 4.7}),
    (scaled_spinor_from_json, {**_TWISTED, "coeffs": [{**_ENTRY, "spin": [True, 1]}]}),
    (spinor_from_json, {"n": 4, "coeffs": [1]}),
    (spinor_from_json, {"n": 4, "coeffs": {"a": 1}}),
    (spinor_from_json, {"n": None, "coeffs": []}),
    (spinor_from_json, {"n": 4, "coeffs": None}),
    (spinor_from_json, {"n": 4.7, "coeffs": []}),
    (spinor_from_json, {"n": 4, "coeffs": [{"eps": [True, 1], "re": "1", "im": "0"}]}),
])
def test_malformed_wire_objects_raise_typed_errors(decode, obj):
    with pytest.raises(MalformedInput) as info:
        decode(obj)
    assert isinstance(info.value, ValueError)  # callers catching ValueError still do


def test_repeated_index_on_the_wire_is_refused():
    """A repeated basis index would silently replace the earlier entry;
    each decoder refuses it and names the index.  The same entries without
    the repeat decode."""
    entry = {"spin": [1, 1], "twist": [[1]], "re": "1", "im": "0"}
    twisted = [entry, {**entry, "spin": [1, -1]}, {**entry, "re": "-1"}]
    untwisted = [{"eps": [1, -1], "re": "1", "im": "0"}, {"eps": [1, 1], "re": "2", "im": "0"},
                 {"eps": [1, -1], "re": "0", "im": "3"}]
    for decode, obj, entries, index in (
            (scaled_spinor_from_json, {"n": 4, "r": 3, "m": 1, "scale2": "1"}, twisted,
             "((1, 1), ((1,),))"),
            (spinor_from_json, {"n": 4}, untwisted, "(1, -1)")):
        decode({**obj, "coeffs": entries[:2]})
        with pytest.raises(MalformedInput, match="repeated .*" + re.escape(index)):
            decode({**obj, "coeffs": entries})


# Arbitrary JSON trees, and objects whose fields are usually well typed so
# that the decoders get past their first checks.  Dimensions range past the
# caps (a spinor with a huge n is refused before anything of its size exists),
# and rationals include an exponent string that Fraction would expand.
_RATIONALS = st.sampled_from(("1", "-2/3", "1/0", "0", "1.5", "", "x", "3/4",
                              "1e999999999")) | st.text(max_size=4)
_LEAVES = (st.none() | st.booleans() | st.integers(-3, 12) | st.integers(-2 ** 40, 2 ** 40)
           | st.floats() | _RATIONALS)
_ANY = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=4),
    max_leaves=20)


def _field(good):
    """Usually a well-typed value, sometimes any JSON."""
    return st.one_of(good, good, good, _ANY)


def _object(required, **optional):
    """Usually an object with every required field, sometimes any JSON."""
    return _field(st.fixed_dictionaries(required, optional=optional))


_SIGN_LIST = st.lists(st.sampled_from((1, -1)), max_size=3)
_GAUSSIAN = {"re": _field(_RATIONALS), "im": _field(_RATIONALS)}
_TWISTED_ENTRY = _object({"spin": _field(_SIGN_LIST),
                          "twist": _field(st.lists(_SIGN_LIST, max_size=2))}, **_GAUSSIAN)
_UNTWISTED_ENTRY = _object({"eps": _field(_SIGN_LIST)}, **_GAUSSIAN)
_DIM = _field(st.integers(-2, 7) | st.integers(30, 10 ** 12))
_TWISTED = _object({"n": _DIM, "r": _field(st.integers(-1, 5) | st.integers(15, 10 ** 12)),
                    "m": _field(st.integers(-1, 2) | st.integers(7, 10 ** 12)),
                    "scale2": _field(_RATIONALS),
                    "coeffs": _field(st.lists(_TWISTED_ENTRY, max_size=4))})
_UNTWISTED = _object({"n": _DIM, "coeffs": _field(st.lists(_UNTWISTED_ENTRY, max_size=4))})


@pytest.mark.parametrize("decode,own", [(scaled_spinor_from_json, _TWISTED),
                                        (spinor_from_json, _UNTWISTED)])
@settings(derandomize=True, max_examples=150, database=None, deadline=None)
@given(data=st.data())
def test_decoders_raise_only_typed_errors_on_arbitrary_json(decode, own, data):
    obj = data.draw(own)
    try:
        decode(obj)
    except SpinorForgeError:
        pass


@pytest.mark.parametrize("decode,obj,field", [
    (scaled_spinor_from_json, {"n": -4, "r": -1, "m": 2, "scale2": "1", "coeffs": []}, "n"),
    (scaled_spinor_from_json, {"n": 4, "r": -1, "m": 1, "scale2": "1", "coeffs": []}, "r"),
    (scaled_spinor_from_json, {"n": 4, "r": 3, "m": -2, "scale2": "1", "coeffs": []}, "m"),
    (spinor_from_json, {"n": -1, "coeffs": []}, "n"),
])
def test_negative_dimensions_refused(decode, obj, field):
    with pytest.raises(ShapeMismatch, match=f"^{field} must be >= 0"):
        decode(obj)


_HUGE = "1e999999999"


@pytest.mark.parametrize("decode,obj", [
    (scaled_spinor_from_json, {"n": 4, "r": 3, "m": 1, "scale2": _HUGE, "coeffs": []}),
    (scaled_spinor_from_json, {"n": 4, "r": 3, "m": 1, "scale2": "1", "coeffs": [
        {"spin": [1, 1], "twist": [[1]], "re": _HUGE, "im": "0"}]}),
    (spinor_from_json, {"n": 4, "coeffs": [{"eps": [1, 1], "re": "1", "im": "-2E9"}]}),
])
def test_exponent_strings_refused_promptly(decode, obj):
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="exponent"):
        decode(obj)
    assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize("decode,obj,field", [
    (scaled_spinor_from_json, {"n": 10 ** 12, "r": 3, "m": 1, "scale2": "1", "coeffs": [1]}, "n"),
    (scaled_spinor_from_json, {"n": 4, "r": 17, "m": 1, "scale2": "1", "coeffs": []}, "r"),
    (scaled_spinor_from_json, {"n": 4, "r": 3, "m": 9, "scale2": "1", "coeffs": []}, "m"),
    (spinor_from_json, {"n": 33, "coeffs": []}, "n"),
])
def test_decoders_refuse_dimensions_above_the_caps(decode, obj, field):
    t0 = time.monotonic()
    with pytest.raises(UnsupportedDimension, match=f"^{field} must be <= "):
        decode(obj)
    assert time.monotonic() - t0 < 1.0


def test_render_two_form():
    assert render_two_form(eta(build_spin7_reducing().spinor, 1, 2)) == "e1^e2"
    form = two_form_from_terms(4, {(1, 2): F(1), (3, 4): F(-1)})
    assert render_two_form(form) == "e1^e2 - e3^e4"
    form2 = two_form_from_terms(4, {(1, 2): F(-3, 2), (1, 3): F(1, 2)})
    assert render_two_form(form2) == "-3/2 * e1^e2 + 1/2 * e1^e3"
    zero = two_form_from_terms(4, {})
    assert render_two_form(zero) == "0"


def test_render_ambient():
    x = AmbientElement(4, 3, {(1, 2): 1, (3, 4): F(-1, 2)}, {(1, 2): 2})
    assert render_ambient(x) == "e1^e2 - 1/2 * e3^e4 + 2 * f1^f2"
    assert render_ambient(AmbientElement(4, 3, {}, {(1, 3): -1})) == "-f1^f3"
    assert render_ambient(AmbientElement(4, 3)) == "0"
