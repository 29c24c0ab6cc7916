"""The four workloads: inputs built from the seed, the operations of one
round, and the check of every operation's output.

A workload is a ``build(sf, seed, small)`` that makes its inputs through the
program's public modules (``sf`` holds them by name) and an ``ops(sf, inp)``
that returns the round: a list of ``Op``.  Every round runs the same
operations on the same inputs, so a run is whole rounds and its share of
failed operations does not depend on its length.  ``small`` is the minimal
size the self-test uses.

Checks compare against facts computed outside the program: closed-form
dimensions and verdicts, the catalog's tables, the even-Clifford relations
multiplied out here, and the dense oracle in ``oracle.py``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable, Dict, List, Tuple

Pair = Tuple[int, int]


@dataclass
class Op:
    name: str
    run: Callable[[Dict[str, Any]], Any]  # takes this round's earlier outputs
    check: Callable[[Any], bool]
    # Fails today because of a known decoder fault (see README.md); such a
    # failure is counted but leaves the run correct.
    known_fault: bool = False


class Raised:
    """The outcome of an operation that raised."""

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc

    def __repr__(self) -> str:
        return f"raised {type(self.exc).__name__}: {self.exc}"


def pairs(r: int) -> List[Pair]:
    return [(k, l) for k in range(1, r + 1) for l in range(k + 1, r + 1)]


def _entries(sf, qk_ms, generic_ns) -> Dict[str, Any]:
    cat = sf.catalog
    out = {f"qk({m})": cat.build_qk_pure(m) for m in qk_ms}
    out["spin7_pure"] = cat.build_spin7_pure()
    out["spin7_reducing"] = cat.build_spin7_reducing()
    out.update({f"generic({n})": cat.build_generic_reducing(n) for n in generic_ns})
    return out


# -- independent checks ---------------------------------------------------------

def _int_matrix(mat) -> List[List[int]]:
    out = [[int(x) for x in row] for row in mat]
    if any(Fraction(x) != y for row, orow in zip(mat, out) for x, y in zip(row, orow)):
        raise ValueError("expected an integer matrix")
    return out


def _mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _neg(a):
    return [[-x for x in row] for row in a]


def _even_clifford_ok(forms: Dict[Pair, Any], r: int) -> bool:
    """hat(eta_kl) = transpose of eta_kl satisfies h^2 = -Id, disjoint pairs
    commute, and h_ij h_jk = -h_ik = -h_jk h_ij for distinct i, j, k."""
    hat: Dict[Pair, List[List[int]]] = {}
    for (k, l), form in forms.items():
        h = [list(col) for col in zip(*_int_matrix(form.mat))]
        hat[(k, l)], hat[(l, k)] = h, _neg(h)
    n = len(next(iter(hat.values())))
    minus_id = [[-int(i == j) for j in range(n)] for i in range(n)]
    for p in pairs(r):
        if _mul(hat[p], hat[p]) != minus_id:
            return False
    for p in pairs(r):
        for q in pairs(r):
            if not set(p) & set(q) and _mul(hat[p], hat[q]) != _mul(hat[q], hat[p]):
                return False
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            for k in range(1, r + 1):
                if len({i, j, k}) < 3:
                    continue
                ab = _mul(hat[(i, j)], hat[(j, k)])
                if ab != _neg(hat[(i, k)]) or ab != _neg(_mul(hat[(j, k)], hat[(i, j)])):
                    return False
    return True


def _verdict_check(attr: str, expect: bool, r: int) -> Callable[[Any], bool]:
    """A pure / reducing report with the expected verdict, one entry per
    pair, and a verdict that agrees with its own per-pair witnesses."""
    flag = "square_ok" if attr == "is_pure" else "eta_nonzero"

    def check(rep) -> bool:
        per = rep.per_pair
        witnessed = all(v.defect_norm2 == 0 and getattr(v, flag) for v in per.values())
        return (getattr(rep, attr) is expect and witnessed is expect
                and sorted(per) == pairs(r))
    return check


def _is_true(out) -> bool:
    return out is True


# Seeded group inputs of a fixed shape, so that the work they cause does not
# depend on the seed.  Unit vectors with seeded support made the cost of
# one equivariance check vary 2.7x from seed to seed (the moved spinor's
# support depends on how the factors' coordinates overlap); the library's
# own random_unit_vector can also return a basis vector (a zero angle).
# So the coordinates are fixed and the seed picks only the values.
_PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25))


def unit_vector(n: int, i: int, j: int, rng: random.Random) -> List[Fraction]:
    """An exact unit vector supported on coordinates i and j (0-based)."""
    a, b, c = rng.choice(_PYTHAGOREAN)
    v = [Fraction(0)] * n
    v[i] = Fraction(rng.choice((-a, a)), c)
    v[j] = Fraction(rng.choice((-b, b)), c)
    return v


def group_element(n: int, r: int, rng: random.Random):
    """(g, h): g = x1 x2 in Spin(n) and h = y1 y2 in Spin(r), n >= 4 and
    r >= 3, each factor on two coordinates; the factors are disjoint where
    the dimension allows."""
    return ([unit_vector(n, 0, 1, rng), unit_vector(n, 2, 3, rng)],
            [unit_vector(r, 0, 1, rng), unit_vector(r, 2, 3, rng) if r >= 4
             else unit_vector(r, 1, 2, rng)])


def so_matrix(sf, r: int, rng: random.Random):
    """Cayley transform of a skew matrix with every entry +-1 or +-1/2."""
    skew = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            skew[i][j] = Fraction(rng.choice((-1, 1)), rng.choice((1, 2)))
            skew[j][i] = -skew[i][j]
    return sf.linalg.cayley_so(skew)


# -- certify --------------------------------------------------------------------

CERTIFY_QK = (1, 2, 3, 4, 5)
CERTIFY_GENERIC = tuple(range(2, 9))
# Spinors that get a seeded frame rotation and a seeded group element.
CERTIFY_MOVED = ("qk(1)", "qk(2)", "spin7_pure", "spin7_reducing", "generic(4)",
                 "generic(5)")


def build_certify(sf, seed: int, small: bool) -> Dict[str, Any]:
    entries = _entries(sf, (1, 2) if small else CERTIFY_QK,
                       (2, 3, 4) if small else CERTIFY_GENERIC)
    moved = ("qk(1)", "spin7_reducing", "generic(4)") if small else CERTIFY_MOVED
    rng = random.Random(seed)
    frames, groups = {}, {}
    for label in moved:
        phi = entries[label].spinor
        frames[label] = so_matrix(sf, phi.r, rng)
        groups[label] = group_element(phi.n, phi.r, rng)
    return {"entries": entries, "frames": frames, "groups": groups}


def ops_certify(sf, inp) -> List[Op]:
    ops: List[Op] = []
    for label, ent in inp["entries"].items():
        phi, pure = ent.spinor, ent.kind == "pure"
        if pure or label == "spin7_reducing":
            ops.append(Op(f"check_pure:{label}",
                          lambda res, phi=phi: sf.analysis.check_pure(phi),
                          _verdict_check("is_pure", pure, phi.r)))
        if not pure or label == "spin7_pure":
            ops.append(Op(f"check_reducing:{label}",
                          lambda res, phi=phi: sf.analysis.check_reducing(phi),
                          _verdict_check("is_reducing", not pure, phi.r)))

        def check_etas(out, ent=ent, pure=pure) -> bool:
            want = ent.expected_etas
            return (sorted(out) == sorted(want)
                    and all(out[p].mat == want[p].mat for p in want)
                    and (not pure or _even_clifford_ok(out, ent.spinor.r)))
        ops.append(Op(f"eta:{label}",
                      lambda res, phi=phi: {p: sf.forms.eta(phi, *p) for p in pairs(phi.r)},
                      check_etas))
    for label, a in inp["frames"].items():
        ent = inp["entries"][label]
        ops.append(Op(f"frame_rotation:{label}",
                      lambda res, phi=ent.spinor, a=a, kind=ent.kind:
                      sf.analysis.frame_rotation_check(phi, a, kind),
                      _is_true))
    for label, (g, h) in inp["groups"].items():
        ent = inp["entries"][label]
        ops.append(Op(f"equivariance:{label}",
                      lambda res, phi=ent.spinor, g=g, h=h, kind=ent.kind:
                      sf.analysis.equivariance_check(phi, g, h, kind),
                      _is_true))
    return ops


def catalog_spinors(sf, inp) -> List[Any]:
    return [ent.spinor for ent in inp["entries"].values()]


# -- random ---------------------------------------------------------------------

# (n, r, m, support size); the basis of Delta_n (x) Delta_r^(x m) has
# 2^floor(n/2) * 2^(m floor(r/2)) elements.
RANDOM_SHAPES = (
    (4, 3, 1, 6),
    (6, 4, 2, 32),
    (8, 3, 3, 48),
    (10, 5, 1, 24),
    (12, 3, 2, 64),
    (12, 2, 3, 192),
    (7, 6, 1, 16),
    (9, 3, 1, 24),
)
RANDOM_SHAPES_SMALL = ((4, 3, 1, 6), (6, 2, 2, 10))
DENOMINATORS = (1, 2, 3, 4, 6, 12)

# Malformed wire objects: (label, object, fails today).  The correct outcome
# for each is a ValueError or SpinorForgeError; the first two reach
# ``entry.get`` on a non-dict and raise AttributeError instead.
_GOOD_ENTRY = {"spin": [1, 1], "twist": [[1]], "re": "1", "im": "0"}
_BASE = {"n": 4, "r": 3, "m": 1, "scale2": "1"}
MALFORMED = (
    ("coeffs_list_of_int", {**_BASE, "coeffs": [1]}, True),
    ("coeffs_dict", {**_BASE, "coeffs": {"a": 1}}, True),
    ("missing_scale2", {"n": 4, "r": 3, "m": 1, "coeffs": [_GOOD_ENTRY]}, False),
    ("eps_not_sign", {**_BASE, "coeffs": [{**_GOOD_ENTRY, "spin": [1, 2]}]}, False),
    ("zero_denominator", {**_BASE, "coeffs": [{**_GOOD_ENTRY, "re": "1/0"}]}, False),
    ("negative_scale2", {**_BASE, "scale2": "-1/2", "coeffs": [_GOOD_ENTRY]}, False),
    ("spin_too_long", {**_BASE, "coeffs": [{**_GOOD_ENTRY, "spin": [1, 1, 1]}]}, False),
)


def _sign_tuples(k: int) -> List[Tuple[int, ...]]:
    out: List[Tuple[int, ...]] = [()]
    for _ in range(k):
        out = [t + (s,) for t in out for s in (1, -1)]
    return out


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))


def _random_coeffs(rng, n, r, m, support) -> Dict[tuple, Tuple[Fraction, Fraction]]:
    spins, twists = _sign_tuples(n // 2), _sign_tuples(r // 2)
    slots: List[Tuple] = [()]
    for _ in range(m):
        slots = [s + (t,) for s in slots for t in twists]
    basis = [(s, t) for s in spins for t in slots]
    coeffs = {}
    for idx in rng.sample(basis, support):
        re, im = _rational(rng), _rational(rng)
        coeffs[idx] = (re, im) if re or im else (Fraction(1), im)
    return coeffs


def _wire(n, r, m, coeffs, scale2) -> Dict[str, Any]:
    """The documented twisted-spinor wire format, written here by hand."""
    return {
        "n": n, "r": r, "m": m, "scale2": str(scale2),
        "coeffs": [{"spin": list(spin), "twist": [list(t) for t in twist],
                    "re": str(re), "im": str(im)}
                   for (spin, twist), (re, im) in sorted(coeffs.items())],
    }


def build_random(sf, seed: int, small: bool) -> Dict[str, Any]:
    rng = random.Random(seed)
    inputs = []
    for n, r, m, support in (RANDOM_SHAPES_SMALL if small else RANDOM_SHAPES):
        coeffs = _random_coeffs(rng, n, r, m, support)
        scale2 = Fraction(1)
        while scale2 == 1:
            scale2 = Fraction(rng.randint(1, 9), rng.choice(DENOMINATORS[1:]))
        inputs.append((n, r, m, coeffs, scale2))
    # Catalog spinors moved by a seeded group element [g, h]: positive
    # verdicts carried by dense supports with real denominators.
    for ent in ([sf.catalog.build_qk_pure(1)] if small else
                [sf.catalog.build_qk_pure(1), sf.catalog.build_generic_reducing(5)]):
        phi = ent.spinor
        g, h = group_element(phi.n, phi.r, rng)
        moved = sf.twisted.twisted_group_action(g, h, phi)
        coeffs = {idx: (c.re, c.im) for idx, c in moved.coeffs.items()}
        inputs.append((phi.n, phi.r, phi.m, coeffs, moved.scale2))
    wires = [_wire(*spec) for spec in inputs]
    return {"seed": seed, "inputs": inputs, "wires": wires, "expected": {}}


class _RandomExpected:
    """What the dense oracle and the exact vanishing identities say about
    one random input; computed once per run, outside the timed region."""

    def __init__(self, sf, spec, rng: random.Random) -> None:
        from oracle import TOLERANCE, DenseSpinor  # numpy only where it is needed

        self.tol = TOLERANCE
        n, r, m, coeffs, scale2 = spec
        dense = DenseSpinor(n, r, m, {i: complex(float(a), float(b))
                                      for i, (a, b) in coeffs.items()}, float(scale2))
        self.etas = {p: dense.eta(*p) for p in pairs(r)}
        self.defects = {c: {p: dense.defect_norm2(*p, self.etas[p], c) for p in pairs(r)}
                        for c in ((1, 2) if r >= 3 else (1,))}
        # Magnitudes the float errors scale with.
        self.eta_scale = max([1.0] + [abs(x) for e in self.etas.values() for x in e.flat])
        self.defect_scale = max([1.0] + [x for d in self.defects.values() for x in d.values()])
        phi = sf.twisted.ScaledSpinor(
            n, r, m, {i: sf.scalars.GaussianRational(a, b) for i, (a, b) in coeffs.items()},
            scale2)
        self.vanishing = _vanishing_identities(sf, phi, rng)

    def eta_entry_zero(self, x: float) -> bool:
        return abs(x) <= self.tol * self.eta_scale

    def eta_is_zero(self, p: Pair) -> bool:
        return all(self.eta_entry_zero(x) for x in self.etas[p].flat)

    def square_is_minus_id(self, p: Pair) -> bool:
        h = self.etas[p].T
        sq = h @ h
        return all(abs(sq[i, j] + (i == j)) <= self.tol * self.eta_scale ** 2
                   for i in range(len(sq)) for j in range(len(sq)))

    def verdict(self, c: int) -> bool:
        """Pure (c = 2) or reducing (c = 1) by the oracle's numbers."""
        return all(abs(self.defects[c][p]) <= self.tol * self.defect_scale
                   and (self.square_is_minus_id(p) if c == 2 else not self.eta_is_zero(p))
                   for p in self.etas)


def _vanishing_identities(sf, phi, rng: random.Random) -> bool:
    """The five vanishing identities, exactly, for seeded X, Y in R^n:
    Re<kappa(f_kl) phi, phi> = 0, Re<X^Y phi, phi> = 0,
    Im<X^Y kappa(f_kl) phi, phi> = 0, Re<X phi, Y phi> = <X, Y>|phi|^2 and
    Re<e_abcd kappa(f_kl) phi, phi> = 0 on sampled quadruples."""
    tw, FormTerm, gr = sf.twisted, sf.spinrep.FormTerm, sf.scalars.gr
    herm, act = tw.twisted_hermitian, tw.form_action_on_spin_slot
    n, r, _ = phi.shape()
    x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    y = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    xy = sum(a * b for a, b in zip(x, y))
    tx = [FormTerm((j,), c) for j, c in enumerate(x, 1) if c]
    ty = [FormTerm((j,), c) for j, c in enumerate(y, 1) if c]
    x_phi, y_phi = act(tx, phi), act(ty, phi)
    wedge_phi = act(tx, y_phi) + phi.scale(gr(xy))  # X^Y = XY + <X, Y>
    ok = herm(wedge_phi, phi).re == 0
    ok = ok and herm(x_phi, y_phi).re == xy * herm(phi, phi).re
    quads = [(a, b, c, d) for a in range(1, n + 1) for b in range(a + 1, n + 1)
             for c in range(b + 1, n + 1) for d in range(c + 1, n + 1)]
    for (k, l) in pairs(r):
        f_phi = tw.twist_bivector_action(k, l, phi)
        ok = ok and herm(f_phi, phi).re == 0
        wedge_f = act(tx, act(ty, f_phi)) + f_phi.scale(gr(xy))
        ok = ok and herm(wedge_f, phi).im == 0
        for quad in rng.sample(quads, min(2, len(quads))):
            ok = ok and herm(act([FormTerm(quad)], f_phi), phi).re == 0
    return ok


def ops_random(sf, inp) -> List[Op]:
    from oracle import close
    expected: Dict[int, _RandomExpected] = inp["expected"]

    def oracle(i: int) -> _RandomExpected:
        if i not in expected:
            rng = random.Random(f"{inp['seed']}-{i}")
            expected[i] = _RandomExpected(sf, inp["inputs"][i], rng)
        return expected[i]

    def verdict_check(i: int, r: int, c: int) -> Callable[[Any], bool]:
        """Verdict, per-pair defect norms and square / nonzero flags agree
        with the oracle, and the verdict with its own witnesses."""
        attr, flag = ("is_pure", "square_ok") if c == 2 else ("is_reducing", "eta_nonzero")

        def check(rep) -> bool:
            exp = oracle(i)
            if sorted(rep.per_pair) != pairs(r):
                return False
            for p, v in rep.per_pair.items():
                want_flag = exp.square_is_minus_id(p) if c == 2 else not exp.eta_is_zero(p)
                if not close(v.defect_norm2, exp.defects[c][p], exp.defect_scale) \
                        or getattr(v, flag) is not want_flag:
                    return False
            witnessed = all(v.defect_norm2 == 0 and getattr(v, flag)
                            for v in rep.per_pair.values())
            return getattr(rep, attr) is exp.verdict(c) is witnessed
        return check

    ops: List[Op] = []
    for i, (spec, wire) in enumerate(zip(inp["inputs"], inp["wires"])):
        n, r, m, coeffs, scale2 = spec
        decoded, etas = f"decode:{i}", f"eta:{i}"

        def check_decode(phi, coeffs=coeffs, shape=(n, r, m), scale2=scale2) -> bool:
            return (phi.shape() == shape and phi.scale2 == scale2
                    and {k: (c.re, c.im) for k, c in phi.coeffs.items()} == coeffs)
        ops.append(Op(decoded, lambda res, wire=wire: sf.serialize.scaled_spinor_from_json(wire),
                      check_decode))
        if r >= 3:
            ops.append(Op(f"check_pure:{i}",
                          lambda res, key=decoded: sf.analysis.check_pure(res[key]),
                          verdict_check(i, r, 2)))
        ops.append(Op(f"check_reducing:{i}",
                      lambda res, key=decoded: sf.analysis.check_reducing(res[key]),
                      verdict_check(i, r, 1)))

        def check_etas(out, i=i, n=n, r=r) -> bool:
            exp = oracle(i)
            return (sorted(out) == pairs(r) and exp.vanishing
                    and all(close(out[p].mat[a][b], exp.etas[p][a, b], exp.eta_scale)
                            for p in out for a in range(n) for b in range(n)))
        ops.append(Op(etas, lambda res, key=decoded, r=r: {p: sf.forms.eta(res[key], *p)
                                                           for p in pairs(r)},
                      check_etas))

        def check_encode(out, wire=wire, i=i, n=n, r=r) -> bool:
            spinor_json, form_jsons = out
            exp = oracle(i)
            if spinor_json != wire or len(form_jsons) != len(pairs(r)):
                return False
            for p, fj in zip(pairs(r), form_jsons):
                got = {(t["a"], t["b"]): Fraction(t["coeff"]) for t in fj["terms"]}
                want = {(a + 1, b + 1) for a in range(n) for b in range(a + 1, n)
                        if not exp.eta_entry_zero(exp.etas[p][a, b])}
                if fj["n"] != n or set(got) != want or not all(
                        close(c, exp.etas[p][a - 1, b - 1], exp.eta_scale)
                        for (a, b), c in got.items()):
                    return False
            return True
        ops.append(Op(f"encode:{i}",
                      lambda res, key=decoded, key2=etas: (
                          sf.serialize.scaled_spinor_to_json(res[key]),
                          [sf.serialize.two_form_to_json(f) for _, f in sorted(res[key2].items())]),
                      check_encode))

    spinor_error = sf.errors.SpinorForgeError
    for label, obj, fails_today in MALFORMED:
        ops.append(Op(f"malformed:{label}",
                      lambda res, obj=obj: sf.serialize.scaled_spinor_from_json(obj),
                      lambda out: isinstance(out, Raised)
                      and isinstance(out.exc, (ValueError, spinor_error)),
                      known_fault=fails_today))
    return ops


def spinors_random(sf, inp) -> List[Any]:
    return [sf.serialize.scaled_spinor_from_json(w) for w in inp["wires"]]


# -- holonomy -------------------------------------------------------------------

HOLONOMY_QK = (1, 2, 3, 4)
HOLONOMY_GENERIC = tuple(range(2, 9))
COMMUTANT_OF = ("qk(1)", "qk(2)", "qk(3)", "spin7_pure")


def annihilator_dim(label: str) -> int:
    """m(2m+1)+3 for qk(m) (sp(m)+sp(1)), 21 for each rank-7 spinor
    (spin(7)), n(n-1)/2 for generic(n) (so(n))."""
    if label.startswith("qk("):
        m = int(label[3:-1])
        return m * (2 * m + 1) + 3
    if label.startswith("generic("):
        n = int(label[8:-1])
        return n * (n - 1) // 2
    return 21


def commutant_dims(label: str) -> Tuple[int, int]:
    """(skew, full) commutant dimensions of the hat(eta) family: sp(m) and
    the quaternionic m x m matrices for qk(m), (0, 1) for spin7_pure."""
    if label.startswith("qk("):
        m = int(label[3:-1])
        return m * (2 * m + 1), 4 * m * m
    return 0, 1


def build_holonomy(sf, seed: int, small: bool) -> Dict[str, Any]:
    entries = _entries(sf, (1, 2) if small else HOLONOMY_QK,
                       (2, 3, 4) if small else HOLONOMY_GENERIC)
    families = {}
    for label in (("qk(1)", "spin7_pure") if small else COMMUTANT_OF):
        phi = entries[label].spinor
        families[label] = [sf.forms.eta_hat(sf.forms.eta(phi, *p)) for p in pairs(phi.r)]
    g2_rows = [x.flat() for x in sf.catalog.g2_generators()]
    return {"entries": entries, "families": families, "g2_rows": g2_rows}


def ops_holonomy(sf, inp) -> List[Op]:
    def closed_with_dim(dim: int) -> Callable[[Any], bool]:
        return lambda alg: alg.closed and alg.dim == dim == len(alg.basis)

    entries = inp["entries"]
    ops: List[Op] = []
    for label, ent in entries.items():
        ops.append(Op(f"annihilator:{label}",
                      lambda res, phi=ent.spinor: sf.analysis.annihilator([phi]),
                      closed_with_dim(annihilator_dim(label))))
    pair = [entries["spin7_pure"].spinor, entries["spin7_reducing"].spinor]
    ops.append(Op("annihilator:spin7_pair",
                  lambda res: sf.analysis.annihilator(pair), closed_with_dim(14)))
    for label, family in inp["families"].items():
        skew, full = commutant_dims(label)
        for restrict, want in ((True, skew), (False, full)):
            ops.append(Op(f"commutant_{'skew' if restrict else 'full'}:{label}",
                          lambda res, fam=family, restrict=restrict:
                          sf.analysis.commutant(fam, restrict),
                          lambda out, want=want: out[0] == want == len(out[1])))
    # The span comparison reads the pair's annihilator, so it runs last.
    ops.append(Op("spans_equal:g2",
                  lambda res: sf.linalg.spans_equal(
                      [x.flat() for x in res["annihilator:spin7_pair"].basis], inp["g2_rows"]),
                  _is_true))
    return ops


# -- report ---------------------------------------------------------------------

# Row names of report.CRITERIA, in order.
REPORT_ROWS = (
    "spin7_eta_table", "purity_certificates", "g2_recovery", "spin7_annihilators",
    "qk_stabilizer_algebra", "generic_reducing_family", "vanishing_identity_suite",
    "hat_commutator_identities", "frame_and_equivariance", "spinc_special_case",
    "representation_constants", "qk_ladder_recursion",
)
REPORT_SMALL = ("spin7_eta_table", "g2_recovery", "spinc_special_case",
                "representation_constants", "qk_ladder_recursion")


def build_report(sf, seed: int, small: bool) -> Dict[str, Any]:
    rows = [i for i, name in enumerate(REPORT_ROWS) if not small or name in REPORT_SMALL]
    return {"rows": rows}


def render_report(rows) -> str:
    """``spinor-forge report --json`` output for the given rows."""
    payload = [{"name": r.name, "expected": r.expected, "computed": r.computed,
                "pass": r.passed} for r in rows]
    return json.dumps(payload, indent=2)


def ops_report(sf, inp) -> List[Op]:
    ops: List[Op] = []
    for i in inp["rows"]:
        name = REPORT_ROWS[i]
        ops.append(Op(f"criterion:{name}",
                      lambda res, i=i: sf.report.CRITERIA[i](),
                      lambda row, name=name: row.name == name and row.passed is True))
    names = [REPORT_ROWS[i] for i in inp["rows"]]

    def check_render(text) -> bool:
        rows = json.loads(text)
        return [r["name"] for r in rows] == names and all(r["pass"] is True for r in rows)
    ops.append(Op("render",
                  lambda res: render_report([res[f"criterion:{n}"] for n in names]),
                  check_render))
    return ops


def spinors_report(sf, inp) -> List[Any]:
    """The catalog spinors the criteria work on."""
    return [ent.spinor for ent in _entries(sf, (1, 2, 3), range(2, 9)).values()]


# -- self-test corruption --------------------------------------------------------

def corrupt(out: Any) -> Any:
    """A wrong version of an operation's output, of the same type, that the
    operation's check must reject."""
    name = type(out).__name__
    if isinstance(out, bool):
        return not out
    if isinstance(out, Raised):
        return None
    if name == "PurityReport":
        return replace(out, is_pure=not out.is_pure)
    if name == "ReducingReport":
        return replace(out, is_reducing=not out.is_reducing)
    if name == "LieSubalgebra":
        return replace(out, dim=out.dim + 1)
    if name == "CriterionRow":
        return replace(out, passed=not out.passed)
    if name == "ScaledSpinor":
        return replace(out, scale2=out.scale2 * 2)
    if isinstance(out, str):
        return out.replace('"pass": true', '"pass": false', 1)
    if isinstance(out, tuple) and isinstance(out[0], int):  # commutant
        return out[0] + 1, out[1]
    if isinstance(out, tuple):  # encode: (spinor JSON, 2-form JSONs)
        return {**out[0], "scale2": out[0]["scale2"] + "1"}, out[1]
    if isinstance(out, dict):  # eta table: one wrong entry in the first form
        first = min(out)
        form = out[first]
        mat = [list(row) for row in form.mat]
        mat[0][1] += 1
        mat[1][0] -= 1
        return {**out, first: type(form)(form.n, mat)}
    raise TypeError(f"no corruption for {name}")


# name -> (build inputs, operations of a round, spinors for micro-benchmarks)
WORKLOADS = {
    "certify": (build_certify, ops_certify, catalog_spinors),
    "random": (build_random, ops_random, spinors_random),
    "holonomy": (build_holonomy, ops_holonomy, catalog_spinors),
    "report": (build_report, ops_report, spinors_report),
}
