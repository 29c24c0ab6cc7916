"""JSON wire formats.

Rationals travel as decimal strings "p/q" ("/q" omitted when q = 1);
exponent notation is refused.  Gaussian rationals travel as
{"re": "p/q", "im": "p/q"}.  All decoders validate shape and raise
``errors.MalformedInput`` (a ``SpinorForgeError`` and a ``ValueError``) with a
diagnostic on malformed input, a repeated basis index included;
dimensions are checked against the caps of ``spinrep.check_dimensions``
before the coefficients are read.  2-forms, Lie algebras and their text
renderings are only encoded: nothing reads them back.

There is one spinor type, ``ScaledSpinor``, and two spinor formats: the
twisted one {"n", "r", "m", "scale2", "coeffs": [{"spin", "twist", "re",
"im"}]} and the untwisted one {"n", "coeffs": [{"eps", "re", "im"}]}, which
decodes to an m = 0 spinor with scale2 = 1 and can encode nothing else.
Both encoders write ``ScaledSpinor._entries()``: keys in tuple order, each
part as "p/q" over the spinor's one denominator, one string per numerator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Tuple

from .analysis import AmbientElement, LieSubalgebra
from .errors import MalformedInput
from .forms import TwoForm
from .scalars import GaussianRational
from .spinrep import ScaledSpinor, SpinorVector, TwistedCoeffMap, TwistedIndex, check_dimensions


def rational_from_json(s: Any) -> Fraction:
    if not isinstance(s, str):
        raise MalformedInput(f"expected a rational string, got {s!r}")
    # Fraction expands "1e999999999" into a billion-digit integer; the wire
    # format writes only "p" and "p/q".
    if "e" in s or "E" in s:
        raise MalformedInput(f"bad rational {s!r}: exponent notation is not allowed")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"bad rational {s!r}: {exc}") from None


def gaussian_from_json(obj: Any) -> GaussianRational:
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise MalformedInput(f"expected {{'re','im'}}, got {obj!r}")
    return GaussianRational(rational_from_json(obj["re"]), rational_from_json(obj["im"]))


def _int_from_json(v: Any, what: str) -> int:
    if type(v) is not int:  # bools and floats are not wire integers
        raise MalformedInput(f"{what} must be an integer, got {v!r}")
    return v


def _list_from_json(v: Any, what: str) -> list:
    if not isinstance(v, list):
        raise MalformedInput(f"{what} must be a list, got {type(v).__name__}")
    return v


def _object_from_json(v: Any, fields: Tuple[str, ...], what: str) -> Dict[str, Any]:
    if not isinstance(v, dict):
        raise MalformedInput(f"{what} must be an object, got {type(v).__name__}")
    for f in fields:
        if f not in v:
            raise MalformedInput(f"{what} needs field {f!r}")
    return v


def _eps_from_json(v: Any, what: str) -> tuple:
    if not isinstance(v, list) or any(type(s) is not int or s not in (1, -1) for s in v):
        raise MalformedInput(f"{what} must be a list of +-1, got {v!r}")
    return tuple(v)


def _check_new(seen: Dict[Any, Any], key: Any, what: str) -> None:
    """A key may appear once on the wire: a repeat would silently replace
    the earlier entry, so it is refused."""
    if key in seen:
        raise MalformedInput(f"repeated {what} {key!r}")


def _coeff_strings(phi: ScaledSpinor) -> List[Tuple[TwistedIndex, str, str]]:
    """phi's coefficients as (key, re, im) strings, in wire order: x / den in
    lowest terms, as str(Fraction(x, den)) writes it, one gcd per distinct x."""
    entries, den = phi._entries(), phi._den
    gcds = {x: math.gcd(x, den) for x in {v for _, re, im in entries for v in (re, im)}}
    text = {x: f"{x // g}/{den // g}" if g != den else str(x // g) for x, g in gcds.items()}
    return [(key, text[re], text[im]) for key, re, im in entries]


def spinor_to_json(psi: ScaledSpinor) -> Dict[str, Any]:
    if psi.m or psi.scale2 != 1:
        raise MalformedInput("the untwisted wire format holds only m = 0 spinors with "
                         f"scale2 = 1, got m = {psi.m}, scale2 = {psi.scale2}")
    return {
        "n": psi.n,
        "coeffs": [{"eps": list(eps), "re": re, "im": im}
                   for (eps, _), re, im in _coeff_strings(psi)],
    }


def spinor_from_json(obj: Any) -> ScaledSpinor:
    obj = _object_from_json(obj, ("n", "coeffs"), "spinor JSON")
    n = _int_from_json(obj["n"], "n")
    check_dimensions(n)
    coeffs = {}
    for entry in _list_from_json(obj["coeffs"], "coeffs"):
        entry = _object_from_json(entry, ("eps",), "coefficient entry")
        eps = _eps_from_json(entry["eps"], "eps")
        _check_new(coeffs, eps, "basis index")
        coeffs[eps] = gaussian_from_json(entry)
    return SpinorVector(n, coeffs)


def scaled_spinor_to_json(phi: ScaledSpinor) -> Dict[str, Any]:
    return {
        "n": phi.n,
        "r": phi.r,
        "m": phi.m,
        "scale2": str(phi.scale2),
        "coeffs": [{"spin": list(spin), "twist": [list(t) for t in twist], "re": re, "im": im}
                   for (spin, twist), re, im in _coeff_strings(phi)],
    }


def scaled_spinor_from_json(obj: Any) -> ScaledSpinor:
    obj = _object_from_json(obj, ("n", "r", "m", "scale2", "coeffs"), "twisted spinor JSON")
    n, r, m = (_int_from_json(obj[f], f) for f in ("n", "r", "m"))
    check_dimensions(n, r, m)
    coeffs: TwistedCoeffMap = {}
    for entry in _list_from_json(obj["coeffs"], "coeffs"):
        entry = _object_from_json(entry, ("spin", "twist"), "coefficient entry")
        spin = _eps_from_json(entry["spin"], "spin")
        twist = tuple(_eps_from_json(t, "twist slot")
                      for t in _list_from_json(entry["twist"], "twist"))
        _check_new(coeffs, (spin, twist), "basis index")
        coeffs[(spin, twist)] = gaussian_from_json(entry)
    return ScaledSpinor(n, r, m, coeffs, rational_from_json(obj["scale2"]))


def two_form_to_json(omega: TwoForm) -> Dict[str, Any]:
    return {
        "n": omega.n,
        "terms": [
            {"a": a, "b": b, "coeff": str(c)} for a, b, c in omega.terms()
        ],
    }


def ambient_to_json(x: AmbientElement) -> Dict[str, Any]:
    return {
        "a": [{"i": i, "j": j, "coeff": str(c)} for (i, j), c in sorted(x.a.items())],
        "b": [{"k": k, "l": l, "coeff": str(c)} for (k, l), c in sorted(x.b.items())],
    }


def subalgebra_to_json(alg: LieSubalgebra) -> Dict[str, Any]:
    return {
        "dim": alg.dim,
        "closed": alg.closed,
        "basis": [ambient_to_json(x) for x in alg.basis],
    }


def _render_terms(terms: Iterable[Tuple[str, Fraction]]) -> str:
    """Deterministic text rendering of (label, coeff) terms: "c * label" joined
    by " + " / " - "; unit coefficients drop the "c * "."""
    parts: List[str] = []
    for label, c in terms:
        mag = abs(c)
        body = label if mag == 1 else f"{mag} * {label}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


def render_two_form(omega: TwoForm) -> str:
    """Deterministic text rendering: terms "c * ea^eb", a < b ascending."""
    return _render_terms((f"e{a}^e{b}", c) for a, b, c in omega.terms())


def render_ambient(x: AmbientElement) -> str:
    """The so(n) part "c * ei^ej", then the so(r) part "c * fk^fl", each in
    ascending index order."""
    return _render_terms([(f"e{i}^e{j}", c) for (i, j), c in sorted(x.a.items())]
                         + [(f"f{k}^f{l}", c) for (k, l), c in sorted(x.b.items())])
