import contextlib
import hashlib
import io
import json
import random
import re
import time
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest

from spinor_forge import analysis, twisted
from spinor_forge.analysis import (
    AmbientElement,
    _ambient,
    _ambient_pairs,
    _certify,
    ambient_annihilates,
    annihilator,
    bracket,
    check_pure,
    check_reducing,
    check_spinc_pure,
    cl_dims,
    commutant,
    equivariance_check,
    even_clifford_verify,
    frame_rotation_check,
    lie_closure_report,
    pairs,
)
from spinor_forge.catalog import (
    build,
    build_generic_reducing,
    build_qk_pure,
    build_spin7_pure,
    build_spin7_reducing,
    g2_generators,
)
from spinor_forge.cli import main as cli_main
from spinor_forge.errors import (
    EmptyInput,
    IndexOutOfRange,
    InexactScalar,
    InvalidValue,
    NotOrthogonal,
    RankTooSmall,
    ShapeMismatch,
    SpinorForgeError,
    UnsupportedDimension,
    ZeroSpinor,
)
from spinor_forge.forms import Endo, TwoForm, eta, eta_hat, etas, phi_extend, two_form_from_terms
from spinor_forge.linalg import (
    cayley_so, nullspace, random_so_matrix, random_unit_vector, spans_equal, transpose,
)
from spinor_forge.scalars import gr
from spinor_forge.serialize import scaled_spinor_to_json, subalgebra_to_json
from spinor_forge.spinrep import (
    MAX_R, SpinorVector, all_basis_indices, basis_spinor, kappa_generator, spin_action_on_vector,
)
from spinor_forge.twisted import (
    ScaledSpinor,
    _bivector_map,
    tangent_action,
    twist_bivector_action,
    twisted_group_action,
    twisted_hermitian,
    vanishing_identity_failures,
)

from . import oracle
from .helpers import (
    chain, naive_mat_mul, plain_nullspace, plain_rref, random_scaled,
    reference_even_clifford_verify,
)


# -- purity / reducing certificates -------------------------------------------

def test_check_pure_catalog_verdicts():
    assert check_pure(build_spin7_pure().spinor).is_pure
    assert check_pure(build_qk_pure(1).spinor).is_pure
    assert check_pure(build_qk_pure(2).spinor).is_pure


PINNED_CERTIFICATES = json.loads((Path(__file__).parent / "data" / "certificates.json").read_text())


@pytest.mark.parametrize("label", list(PINNED_CERTIFICATES))
def test_catalog_certificates_are_pinned(label):
    """Verdict and per-pair witnesses (defect norm^2 and the square or
    nonzero flag) of every catalog entry, in both modes where r allows."""
    want = PINNED_CERTIFICATES[label]
    name, _, arg = label.rstrip(")").partition("(")
    phi = build(name, **({{"qk": "m", "generic": "n"}[name]: int(arg)} if arg else {})).spinor
    for kind, rep in (("pure", check_pure), ("reducing", check_reducing)):
        if kind not in want:
            assert kind == "pure" and phi.r < 3
            continue
        got = rep(phi)
        flag = "square_ok" if kind == "pure" else "eta_nonzero"
        assert getattr(got, "is_" + kind) == want[kind]["verdict"]
        assert {f"{k},{l}": [str(v.defect_norm2), getattr(v, flag)]
                for (k, l), v in got.per_pair.items()} == want[kind]["pairs"]


def test_phi2_is_not_pure_but_reducing():
    phi2 = build_spin7_reducing().spinor
    rep = check_pure(phi2)
    assert not rep.is_pure
    # defect with coefficient 2 is nonzero since coefficient 1 annihilates
    assert all(v.defect_norm2 > 0 for v in rep.per_pair.values())
    assert check_reducing(phi2).is_reducing


def test_phi1_is_not_reducing():
    rep = check_reducing(build_spin7_pure().spinor)
    assert not rep.is_reducing


def test_generic_family_reducing_all_n():
    for n in range(2, 9):
        assert check_reducing(build_generic_reducing(n).spinor).is_reducing


def test_checkers_reject_zero_and_small_rank():
    zero = ScaledSpinor(4, 3, 1, {})
    with pytest.raises(ZeroSpinor):
        check_pure(zero)
    with pytest.raises(ZeroSpinor):
        check_reducing(zero)
    rank2 = ScaledSpinor(2, 2, 1, {((1,), ((1,),)): gr(1)})
    with pytest.raises(RankTooSmall):
        check_pure(rank2)
    # reducing accepts rank 2 (the generic n=2 member lives there)
    assert check_reducing(build_generic_reducing(2).spinor).is_reducing


def test_random_spinors_are_typically_not_pure():
    rng = random.Random(0)
    impure = 0
    for _ in range(5):
        phi = random_scaled(4, 3, 1, rng)
        if not check_pure(phi).is_pure:
            impure += 1
    assert impure == 5


# -- rank-2 special case --------------------------------------------------------

def test_spinc_prototype_and_variants():
    assert check_spinc_pure(basis_spinor(4, (1, 1)))
    assert check_spinc_pure(basis_spinor(4, (1, -1)))
    mixed = basis_spinor(4, (1, 1)) + basis_spinor(4, (-1, -1))
    assert not check_spinc_pure(mixed)
    with pytest.raises(ZeroSpinor):
        check_spinc_pure(SpinorVector(4, {}))


def test_spinc_purity_refuses_twisted_spinors():
    with pytest.raises(ShapeMismatch):
        check_spinc_pure(ScaledSpinor(4, 2, 1, {((1, 1), ((1,),)): gr(1)}))


# -- even-Clifford relation verification ----------------------------------------

def _hat_family(phi):
    return {(k, l): eta_hat(eta(phi, k, l)) for (k, l) in pairs(phi.r)}


def test_even_clifford_family_passes_for_pure_spinors():
    assert even_clifford_verify(_hat_family(build_spin7_pure().spinor)).ok
    assert even_clifford_verify(_hat_family(build_qk_pure(2).spinor)).ok


def test_even_clifford_detects_corruption():
    fam = _hat_family(build_spin7_pure().spinor)
    bad = dict(fam)
    bad[(1, 2)] = -bad[(1, 2)]  # one sign flip must violate some relation
    rep = even_clifford_verify(bad)
    assert not rep.ok and rep.violation is not None


# The first violation each corrupted family gives, as recorded while the
# relations were still compared as dense Fraction matrices.
_SPIN7_FLIP_VIOLATION = {
    (1, 2): "product (1,2)(2,3) != -(1,3)",
    (1, 3): "product (1,2)(2,3) != -(1,3)",
    (1, 4): "product (1,2)(2,4) != -(1,4)",
    (1, 5): "product (1,2)(2,5) != -(1,5)",
    (1, 6): "product (1,2)(2,6) != -(1,6)",
    (1, 7): "product (1,2)(2,7) != -(1,7)",
    (2, 3): "product (1,2)(2,3) != -(1,3)",
    (2, 4): "product (1,2)(2,4) != -(1,4)",
    (2, 5): "product (1,2)(2,5) != -(1,5)",
    (2, 6): "product (1,2)(2,6) != -(1,6)",
    (2, 7): "product (1,2)(2,7) != -(1,7)",
    (3, 4): "product (1,3)(3,4) != -(1,4)",
    (3, 5): "product (1,3)(3,5) != -(1,5)",
    (3, 6): "product (1,3)(3,6) != -(1,6)",
    (3, 7): "product (1,3)(3,7) != -(1,7)",
    (4, 5): "product (1,4)(4,5) != -(1,5)",
    (4, 6): "product (1,4)(4,6) != -(1,6)",
    (4, 7): "product (1,4)(4,7) != -(1,7)",
    (5, 6): "product (1,5)(5,6) != -(1,6)",
    (5, 7): "product (1,5)(5,7) != -(1,7)",
    (6, 7): "product (1,6)(6,7) != -(1,7)",
}


def test_even_clifford_names_the_first_violation():
    """Each corruption must be caught with the recorded message, so an
    equality that wrongly says True cannot pass a broken family: a sign flip
    of each spin7 member, swapped qk(2) members, a spin7 member replaced by
    another (disjoint pairs then anticommute) and a qk(1) member replaced by
    a complex structure from its commutant (chained pairs then commute)."""
    fam = _hat_family(build_spin7_pure().spinor)
    assert set(_SPIN7_FLIP_VIOLATION) == set(fam)
    for pair, want in _SPIN7_FLIP_VIOLATION.items():
        rep = even_clifford_verify({**fam, pair: -fam[pair]})
        assert (rep.ok, rep.violation) == (False, want), pair
    rep = even_clifford_verify({**fam, (1, 2): fam[(1, 3)]})
    assert (rep.ok, rep.violation) == (False, "disjoint (1,2),(3,4) do not commute")
    qk2 = _hat_family(build_qk_pure(2).spinor)
    for p, q in (((1, 2), (1, 3)), ((1, 2), (2, 3)), ((1, 3), (2, 3))):
        rep = even_clifford_verify({**qk2, p: qk2[q], q: qk2[p]})
        assert (rep.ok, rep.violation) == (False, "product (1,2)(2,3) != -(1,3)"), (p, q)
    qk1 = _hat_family(build_qk_pure(1).spinor)
    _, right = commutant(list(qk1.values()), True)
    assert right[0].compose(right[0]).is_minus_identity()
    rep = even_clifford_verify({**qk1, (1, 2): right[0]})
    assert (rep.ok, rep.violation) == (False, "chained (1,2),(2,3) do not anticommute")


def test_even_clifford_matches_the_exhaustive_reference(monkeypatch):
    """Each relation decided once gives the verdict and the first violation
    of the reference that checks every ordered pair, every permutation and
    the four-index chain, on catalog families with one member corrupted at
    a time; and spends 420 products on spin7_pure (1050 in the reference)
    and 6 on qk(2) (12)."""
    rng = random.Random(28)
    entries = [build_spin7_pure(), build_spin7_reducing(),
               *(build_qk_pure(m) for m in (1, 2, 3)),
               *(build_generic_reducing(n) for n in (3, 4, 5, 6))]
    checked = 0
    for ent in entries:
        fam = _hat_family(ent.spinor)
        keys = list(fam)
        n = fam[keys[0]].n
        for p in keys:
            q = rng.choice([k for k in keys if k != p])
            noise = Endo(n, [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
            for bad in ({**fam, p: -fam[p]}, {**fam, p: fam[p].scale(2)},
                        {**fam, p: fam[q]}, {**fam, p: fam[q], q: fam[p]},
                        {**fam, p: noise}, {**fam, p: fam[p].compose(fam[q])}):
                got, want = even_clifford_verify(bad), reference_even_clifford_verify(bad)
                assert (got.ok, got.violation) == (want.ok, want.violation), (ent.name, p, q)
                checked += 1
        assert even_clifford_verify(fam) == reference_even_clifford_verify(fam)
    assert checked >= 500

    calls = []
    compose = Endo.compose
    monkeypatch.setattr(Endo, "compose", lambda a, b: calls.append(1) or compose(a, b))
    for phi, want in ((build_spin7_pure().spinor, 420), (build_qk_pure(2).spinor, 6)):
        fam = _hat_family(phi)
        calls.clear()
        assert even_clifford_verify(fam).ok
        assert len(calls) == want


def test_even_clifford_rejects_rank2_blocks():
    # hats of {e1^e2, e1^e3, e2^e3} in R^4 fail the square condition
    fam = {
        (1, 2): eta_hat(two_form_from_terms(4, {(1, 2): F(1)})),
        (1, 3): eta_hat(two_form_from_terms(4, {(1, 3): F(1)})),
        (2, 3): eta_hat(two_form_from_terms(4, {(2, 3): F(1)})),
    }
    rep = even_clifford_verify(fam)
    assert not rep.ok
    assert "square" in rep.violation


def test_even_clifford_missing_pair():
    from spinor_forge.errors import MissingPair

    fam = _hat_family(build_qk_pure(1).spinor)
    del fam[(1, 3)]
    with pytest.raises(MissingPair):
        even_clifford_verify(fam)


def test_even_clifford_refuses_a_rank_over_the_cap(monkeypatch):
    """The rank r is the largest index of the keys; r > MAX_R raises
    UnsupportedDimension before any pair of that rank is built, not
    MissingPair after all of them are."""
    from spinor_forge.spinrep import MAX_R

    def no_pairs(upper):
        raise AssertionError(f"built the pairs of rank {upper}")

    j = _hat_family(build_qk_pure(1).spinor)[(1, 2)]
    monkeypatch.setattr(analysis, "pairs", no_pairs)
    with pytest.raises(UnsupportedDimension, match=f"r must be <= {MAX_R}"):
        even_clifford_verify({(1, MAX_R + 1): j})


def test_even_clifford_refuses_pairs_it_cannot_index():
    """A key outside 1 <= k < l is refused, not read as a smaller rank or
    silently dropped."""
    from spinor_forge.errors import IndexOutOfRange
    from spinor_forge.forms import Endo

    ident = Endo(4, [[int(i == j) for j in range(4)] for i in range(4)])
    j = _hat_family(build_qk_pure(1).spinor)[(1, 2)]
    assert even_clifford_verify({(1, 2): j}).ok
    for fam in ({(0, 1): ident}, {(1, 1): ident},
                {(1, 2): j, (0, 2): ident, (2, 2): ident}):
        with pytest.raises(IndexOutOfRange):
            even_clifford_verify(fam)


@pytest.mark.parametrize("key", [(True, 2), (1, False), (1.0, 2.0), ("1", "2"), 2, (1, 2, 3), (1,)],
                         ids=repr)
def test_even_clifford_refuses_keys_that_are_not_int_pairs(key):
    """A family key that is not a pair of ints, a bool included, is refused
    with InvalidValue before its range is read."""
    j = _hat_family(build_qk_pure(1).spinor)[(1, 2)]
    with pytest.raises(InvalidValue, match="family key"):
        even_clifford_verify({key: j})
    with pytest.raises(InvalidValue, match="family key"):
        even_clifford_verify({(2, 3): j, key: j})


def test_pure_hat_commutator_identities():
    # [h_ij, h_jk] = -2 h_ik for the rank-7 pure spinor
    fam = _hat_family(build_spin7_pure().spinor)
    full = dict(fam)
    for (k, l), h in list(fam.items()):
        full[(l, k)] = -h
    for (i, j, k) in ((1, 2, 3), (2, 5, 7), (4, 6, 1)):
        lhs = full[(i, j)].commutator(full[(j, k)])
        assert lhs.mat == full[(i, k)].scale(F(-2)).mat
    # disjoint pairs commute
    assert full[(1, 2)].commutator(full[(3, 4)]).mat == \
        [[F(0)] * 8 for _ in range(8)]


# -- bracket and closure ---------------------------------------------------------

def test_bracket_matches_operator_commutator():
    """Independent oracle: the bivector bracket must agree with the
    commutator of the spinor actions kappa(e_i e_j) on every basis spinor,
    and, for elements of spin(n) + spin(r), on twisted spinors."""
    n = 5
    rng = random.Random(1)
    prs = pairs(n)
    for _ in range(10):
        p1, p2 = rng.choice(prs), rng.choice(prs)
        x = AmbientElement(n, 3, {p1: F(1)}, {})
        y = AmbientElement(n, 3, {p2: F(1)}, {})
        z = bracket(x, y)
        for eps in all_basis_indices(n):
            b = basis_spinor(n, eps)

            def act(pair, v):
                return kappa_generator(n, pair[0], kappa_generator(n, pair[1], v))

            lhs = act(p1, act(p2, b)) - act(p2, act(p1, b))
            rhs = SpinorVector(n, {})
            for (i, j), c in z.a.items():
                rhs = rhs + act((i, j), b).scale(gr(c))
            assert lhs.coeffs == rhs.coeffs, (p1, p2)
    # Elements with both parts and rational coefficients, on twisted spinors:
    # [x, y] . phi = x . (y . phi) - y . (x . phi), every action taken with
    # tangent_action and twist_bivector_action.
    values = (F(1), F(-1), F(1, 2), F(-2, 3), F(3), F(5, 4))
    for case in range(30):
        n, r, m = rng.randint(3, 6), rng.randint(2, 5), case % 3 + 1
        phi = random_scaled(n, r, m, rng)
        x, y = (AmbientElement(n, r, {p: rng.choice(values) for p in rng.sample(pairs(n), 2)},
                               {p: rng.choice(values) for p in rng.sample(pairs(r), 1)})
                for _ in range(2))
        e = {i: [F(int(a == i)) for a in range(1, n + 1)] for i in range(1, n + 1)}

        def act(z, v):
            out = v.scale(gr(0))
            for (i, j), c in z.a.items():
                out = out + tangent_action(e[i], tangent_action(e[j], v)).scale(gr(c))
            for (k, l), c in z.b.items():
                out = out + twist_bivector_action(k, l, v).scale(gr(c))
            return out

        assert act(bracket(x, y), phi) == act(x, act(y, phi)) - act(y, act(x, phi)), (n, r, m, x, y)


@pytest.mark.parametrize("n,r,a,error", [
    (-1, 3, {}, ShapeMismatch), (4, -2, {}, ShapeMismatch),
    (2.5, 3, {(1, 2): 1}, InvalidValue), (4, True, {}, InvalidValue), (F(4), 3, {}, InvalidValue),
    (2000, 3, {}, UnsupportedDimension), (4, 10 ** 9, {}, UnsupportedDimension),
], ids=repr)
def test_ambient_element_refuses_hostile_dimensions(n, r, a, error):
    """The dimensions pass ``check_dimensions`` before anything is read or
    allocated: ``AmbientElement(2000, 3).flat()`` would hold 1 999 003 entries."""
    t0 = time.monotonic()
    with pytest.raises(error):
        AmbientElement(n, r, a)
    assert time.monotonic() - t0 < 0.1


def test_ambient_element_layout():
    """Integer terms over one positive denominator, reduced by the content
    gcd, keyed by the pairs of spin(n + r) with f_k = e_(n+k); ``==``
    compares that layout and ``a``, ``b`` and ``flat()`` read it back."""
    x = AmbientElement(4, 3, {(1, 2): F(2, 3), (3, 4): 0}, {(1, 3): F(-4, 9)})
    assert (x._den, x._terms) == (9, {(1, 2): 6, (5, 7): -4})
    assert x.a == {(1, 2): F(2, 3)} and x.b == {(1, 3): F(-4, 9)}
    assert x.flat() == [F(2, 3)] + [F(0)] * 6 + [F(-4, 9), F(0)]
    with pytest.raises(TypeError):
        x.a[(1, 2)] = F(1)
    y = _ambient(4, 3, 6, {(1, 2): 4, (5, 7): -2, (2, 3): 0})
    assert (y._den, y._terms) == (3, {(1, 2): 2, (5, 7): -1})
    assert y == AmbientElement(4, 3, {(1, 2): F(2, 3)}, {(1, 3): F(-1, 3)}) != x
    assert AmbientElement(4, 3, {(1, 2): 0}) == _ambient(4, 3, 5, {}) == AmbientElement(4, 3)
    assert (AmbientElement(4, 3)._den, AmbientElement(4, 3)._terms) == (1, {})
    # the two blocks commute
    assert bracket(AmbientElement(4, 3, {(3, 4): 1}), AmbientElement(4, 3, {}, {(1, 2): 1})).is_zero()
    for alg in (annihilator([build_qk_pure(2).spinor]), annihilator([build_spin7_reducing().spinor])):
        for x in alg.basis:
            assert x == AmbientElement(x.n, x.r, x.a, x.b) and x._den > 0


@pytest.mark.parametrize("n,r,a,b,terms", [
    (2, 3, {}, {(2, 3): 1}, {(4, 5): 1}),
    (3, 4, {(2, 3): 1}, {(3, 4): F(1, 2)}, {(2, 3): 2, (6, 7): 1}),
    (4, 3, {(3, 4): 1}, {(1, 3): -1}, {(3, 4): 1, (5, 7): -1}),
    (4, 3, {}, {(3, 4): 1}, "b-part index (3,4) outside 1..3"),
    (3, 4, {(3, 4): 1}, {}, "a-part index (3,4) outside 1..3"),
    (2, 3, {(2, 3): 1}, {(2, 3): 1}, "a-part index (2,3) outside 1..2"),
], ids=["r>n", "r>n both", "r<n", "b over r<n", "a over n<r", "a over n"])
def test_ambient_element_reads_each_part_against_its_own_dimension(n, r, a, b, terms):
    """The one loop over both parts checks the a-part against n and the
    b-part against r, with r > n and r < n, and keys the b-pair (k, l) as
    (n + k, n + l)."""
    if isinstance(terms, str):
        with pytest.raises(ShapeMismatch, match=re.escape(terms)):
            AmbientElement(n, r, a, b)
    else:
        x = AmbientElement(n, r, a, b)
        assert (x._terms, x.a, x.b) == (terms, a, b)


def test_ambient_element_reads_each_key_with_its_value_a_part_first():
    """Each key is checked and its value read before the next key, and the
    whole a-part before the b-part is looked at."""
    for a, b, error in (({(1, 2): 0.5}, "x", InexactScalar),
                        ({(1, 2): 0.5, (9, 9): 1}, {}, InexactScalar),
                        ({(9, 9): 1, (1, 2): 0.5}, {}, ShapeMismatch),
                        ({(1, 2): 1}, "x", InvalidValue),
                        ({"12": 1}, {(1, 2): 0.5}, InvalidValue),
                        ({(1, 2): 1}, {(1, 2): 0.5, (3, 2): 1}, InexactScalar)):
        with pytest.raises(error):
            AmbientElement(4, 3, a, b)


def test_lie_closure_so3():
    basis = [AmbientElement(3, 3, {p: F(1)}, {}) for p in pairs(3)]
    rep = lie_closure_report(basis)
    assert rep.closed and rep.dim == 3 and rep.open_pair is None
    # [e1e2, e1e3] = 2 e2e3
    assert bracket(basis[0], basis[1]) == AmbientElement(3, 3, {(2, 3): F(2)}, {})


def test_lie_closure_rescaled_and_dependent_bases():
    def e(terms):
        return AmbientElement(3, 3, terms, {})

    # [e1e2, e1e3] = 2 e2e3 = (1/2) (4 e2e3)
    rep = lie_closure_report([e({(1, 2): F(1)}), e({(1, 3): F(1)}), e({(2, 3): F(4)})])
    assert rep.closed and rep.dim == 3
    dependent = [e({(1, 2): F(1)}), e({(1, 3): F(1)}), e({(2, 3): F(1)}),
                 e({(1, 2): F(1), (2, 3): F(1)})]
    rep = lie_closure_report(dependent)
    assert rep.dim == 3 and rep.closed


def test_lie_closure_abelian_and_open():
    single = [AmbientElement(3, 3, {(1, 2): F(1)}, {})]
    rep = lie_closure_report(single)
    assert rep.closed and rep.dim == 1
    two = [AmbientElement(3, 3, {(1, 2): F(1)}, {}),
           AmbientElement(3, 3, {(1, 3): F(1)}, {})]
    rep2 = lie_closure_report(two)
    assert not rep2.closed and rep2.dim == 2
    with pytest.raises(EmptyInput):
        lie_closure_report([])


def test_lie_closure_names_the_first_open_pair():
    def e(i, j):
        return AmbientElement(6, 3, {(i, j): F(1)}, {})

    # e56 commutes with e12 and e13, whose bracket 2 e23 leaves the span
    rep = lie_closure_report([e(5, 6), e(1, 2), e(1, 3)])
    assert (rep.closed, rep.dim, rep.open_pair) == (False, 3, (1, 2))
    rep = lie_closure_report([e(5, 6), e(1, 2), e(1, 3), e(2, 3)])
    assert rep.closed and rep.open_pair is None
    assert annihilator([build_qk_pure(1).spinor]).open_pair is None


def _flat_rref(basis):
    """``plain_rref`` of the flat coefficient rows of ``basis``."""
    rows = [x.flat() for x in basis]
    return plain_rref(rows, len(rows[0]) if rows else 0)


def _closure_oracle(basis):
    """Closure by dense Fraction elimination: the basis is brought once to
    reduced echelon form, and a bracket z lies in the span iff it equals
    sum_k z[q_k] R_k over the pivot columns q_k.  Returns (dim, closed,
    first open pair)."""
    rref = _flat_rref(basis)
    for i, j in combinations(range(len(basis)), 2):
        if any(_residue(bracket(basis[i], basis[j]).flat(), rref)):
            return len(rref[1]), False, (i, j)
    return len(rref[1]), True, None


def _residue(z, rref):
    """z minus sum_k z[q_k] R_k over the rows R_k and pivot columns q_k of
    ``plain_rref``: zero iff z lies in their span."""
    rows, pivots = rref
    for q, row in zip(pivots, rows):
        c = z[q]
        if c:
            z = [x - c * y for x, y in zip(z, row)]
    return z


_VALUES = (F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2, 3), F(-2, 3))


def _random_span(rng):
    """A small basis of spin(n) + spin(r), n <= 6 and r <= 4, with entries in
    _VALUES.  Each block of units (a unit is e_p, f_p or e_p + f_p) spans a
    subalgebra, and distinct blocks commute: random pairs (mostly open), the
    diagonal so(3), a torus, so(T) on the b-part alone, or so(T) then so(S).
    A block gives independent combinations of its units, sometimes one too
    few; then come zeros, duplicates, rescaled and dependent elements."""
    n, r = rng.randint(3, 6), rng.randint(1, 4)
    kind = rng.choice(["random", "diagonal", "torus", "b_only", "sum", "sum"])
    if kind == "diagonal" and r < 3:
        kind = "torus"
    if kind in ("b_only", "sum") and r < 2:
        kind = "random"
    if kind == "random":
        units = [((p, 0),) for p in pairs(n)] + [((p, 1),) for p in pairs(r)]
        blocks = [rng.sample(units, rng.randint(1, min(4, len(units))))]
    elif kind == "diagonal":
        s, t = rng.sample(range(1, n + 1), 3), rng.sample(range(1, r + 1), 3)
        blocks = [[((tuple(sorted((s[u], s[v]))), 0), (tuple(sorted((t[u], t[v]))), 1))
                   for u, v in combinations(range(3), 2)]]
    elif kind == "torus":
        blocks = [[(((i, i + 1), 0),) for i in range(1, n, 2)]
                  + [(((k, k + 1), 1),) for k in range(1, r, 2)]]
    else:
        t = sorted(rng.sample(range(1, r + 1), rng.randint(2, r)))
        blocks = [[((p, 1),) for p in combinations(t, 2)]]
        if kind == "sum":
            s = sorted(rng.sample(range(1, n + 1), rng.randint(2, min(n, 4))))
            blocks.append([((p, 0),) for p in combinations(s, 2)])
    short = rng.random() < 0.4
    basis = []
    for b, units in enumerate(blocks):
        rng.shuffle(units)
        for k in range(len(units) - (short and b == len(blocks) - 1 and len(units) > 1)):
            parts = ({}, {})  # unit k plus a random tail: independent in the block
            for u, unit in enumerate(units[k:]):
                c = rng.choice(_VALUES[1:] if u == 0 else _VALUES)
                for p, side in unit:
                    parts[side][p] = c
            basis.append(AmbientElement(n, r, *parts))
    for _ in range(rng.choice((0, 0, 1, 2))):
        edit = rng.choice(["zero", "duplicate", "rescale", "dependent"])
        x, y = rng.choice(basis), rng.choice(basis)
        c = rng.choice([F(2), F(-1, 2), F(2, 3), F(3)])
        new = {"zero": AmbientElement(n, r),
               "duplicate": x,
               "rescale": AmbientElement(n, r, {p: c * v for p, v in x.a.items()},
                                         {p: c * v for p, v in x.b.items()}),
               "dependent": AmbientElement(n, r, {p: x.a.get(p, 0) + c * y.a.get(p, 0)
                                                  for p in x.a.keys() | y.a.keys()},
                                           {p: x.b.get(p, 0) + c * y.b.get(p, 0)
                                            for p in x.b.keys() | y.b.keys()})}[edit]
        basis.insert(rng.randint(0, len(basis)), new)
    if rng.random() < 0.2:
        rng.shuffle(basis)
    return basis


def test_lie_closure_matches_the_eliminating_oracle():
    """dim, closed and the first open pair agree with a dense Fraction
    elimination on seeded random small bases."""
    rng = random.Random(20261018)
    seen = {"closed_independent": 0, "closed_dependent": 0, "open_later": 0, "b_only": 0}
    for _ in range(600):
        basis = _random_span(rng)
        rep = lie_closure_report(basis)
        dim, closed, open_pair = _closure_oracle(basis)
        assert (rep.dim, rep.closed, rep.open_pair) == (dim, closed, open_pair), basis
        seen["closed_independent"] += closed and dim == len(basis) > 1
        seen["closed_dependent"] += closed and dim < len(basis)
        seen["open_later"] += not closed and open_pair[0] > 0
        seen["b_only"] += closed and all(not x.a for x in basis) and dim > 1
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("label", ["qk(2)", "qk(3)", "spin7_pure", "spin7_pair", "generic(5)"])
def test_structure_constants_rebuild_every_bracket(label):
    """On the annihilator basis the dense Fraction elimination gives the
    same dim and closure, and its coordinates c_ij rebuild every bracket:
    [x_i, x_j] = sum_k c_ij[k] x_k, read off the reduced rows [x_i | e_i]."""
    spinors = {"qk(2)": [build_qk_pure(2).spinor], "qk(3)": [build_qk_pure(3).spinor],
               "spin7_pure": [build_spin7_pure().spinor],
               "spin7_pair": [build_spin7_pure().spinor, build_spin7_reducing().spinor],
               "generic(5)": [build_generic_reducing(5).spinor]}[label]
    alg = annihilator(spinors)
    basis = alg.basis
    assert _closure_oracle(basis) == (alg.dim, True, None)
    assert alg.closed and alg.open_pair is None and alg.dim == len(basis)
    size, width = len(basis), len(basis[0].flat())
    rows, pivots = plain_rref([x.flat() + [F(i == k) for k in range(size)]
                               for i, x in enumerate(basis)], width + size)
    coords = {q: {k: row[width + k] for k in range(size) if row[width + k]}
              for q, row in zip(pivots, rows)}
    terms = [{col: v for col, v in enumerate(x.flat()) if v} for x in basis]
    for i, j in combinations(range(size), 2):
        z = {col: v for col, v in enumerate(bracket(basis[i], basis[j]).flat()) if v}
        consts = {}
        for q in z.keys() & coords.keys():
            for k, t in coords[q].items():
                consts[k] = consts.get(k, 0) + z[q] * t
        rebuilt = {}
        for k, c in consts.items():
            for col, v in terms[k].items():
                rebuilt[col] = rebuilt.get(col, 0) + c * v
        assert {col: v for col, v in rebuilt.items() if v} == z, (i, j)


# -- annihilators ----------------------------------------------------------------

def test_annihilator_spin7_dimensions():
    a1 = annihilator([build_spin7_pure().spinor])
    assert a1.dim == 21 and a1.closed
    a2 = annihilator([build_spin7_reducing().spinor])
    assert a2.dim == 21 and a2.closed


def test_annihilator_g2_span():
    phi1 = build_spin7_pure().spinor
    phi2 = build_spin7_reducing().spinor
    alg = annihilator([phi1, phi2])
    gens = g2_generators()
    assert alg.dim == 14 and alg.closed
    assert spans_equal([x.flat() for x in alg.basis], [x.flat() for x in gens])
    closure = lie_closure_report(gens)
    assert closure.closed and closure.dim == 14
    for x in gens:
        assert ambient_annihilates(x, phi1) and ambient_annihilates(x, phi2)


def test_annihilator_qk_m1():
    alg = annihilator([build_qk_pure(1).spinor])
    assert alg.dim == 6 and alg.closed


def test_annihilator_qk_m5_within_budget():
    """n = 20: sp(5) + sp(1), dim m(2m+1)+3 = 58, closed, in at most 6 s
    (system build, elimination and bracket closure)."""
    phi = build_qk_pure(5).spinor
    t0 = time.monotonic()
    alg = annihilator([phi])
    elapsed = time.monotonic() - t0
    assert (alg.dim, alg.closed, len(alg.basis)) == (58, True, 58)
    assert elapsed < 6.0, f"qk(5) annihilator took {elapsed:.2f}s, budget 6s"


def _annihilator_basis_by_split_rows(spinors):
    """The annihilator's basis from a separate copy of the builder with one
    map of real and one of imaginary rows per spinor, emitted in sorted
    basis-index order with each index's real row first."""
    n, r, _ = spinors[0].shape()
    keys = _ambient_pairs(n, r)
    rows = []
    for phi in spinors:
        re_rows, im_rows = {}, {}
        for j, p in enumerate(keys):
            for idx, (re, im) in _bivector_map(phi, {p: 1}).items():
                if re:
                    re_rows.setdefault(idx, {})[j] = re
                if im:
                    im_rows.setdefault(idx, {})[j] = im
        for idx in sorted(re_rows.keys() | im_rows.keys()):
            rows += [part[idx] for part in (re_rows, im_rows) if idx in part]
    return [_ambient(n, r, den, {keys[c]: v for c, v in vec.items()})
            for den, vec in nullspace(rows, len(keys))]


def test_annihilator_rows_need_no_order(monkeypatch):
    """The columns labelled by one int per (spinor, basis index, part),
    turned into rows by ``nullspace_of_columns`` in first-met order, give
    the basis of the split, sorted rows: on qk(1..5), the spin7 pair,
    generic(2..8), and qk(3) and qk(4) moved by a product of two unit
    vectors with full support (seeds 5 and 7)."""
    monkeypatch.setattr(analysis, "lie_closure_report", lambda basis: basis)  # the basis alone
    cases = [[build_qk_pure(m).spinor] for m in range(1, 6)]
    cases += [[build_spin7_pure().spinor, build_spin7_reducing().spinor]]
    cases += [[build_generic_reducing(n).spinor] for n in range(2, 9)]
    for m in (3, 4):
        for seed in (5, 7):
            rng = random.Random(seed)
            g = [random_unit_vector(4 * m, rng, support=4 * m) for _ in range(2)]
            cases.append([twisted_group_action(g, [], build_qk_pure(m).spinor)])
    t0 = time.monotonic()
    for spinors in cases:
        basis = annihilator(spinors)
        assert basis and basis == _annihilator_basis_by_split_rows(spinors), spinors[0].shape()
    assert time.monotonic() - t0 < 3.0


def test_annihilator_of_a_repeated_spinor_is_unchanged():
    """A spinor listed twice adds only rows it already gave, so the spin7
    pair's basis from [a, b, a] is the one from [a, b]: the row labels
    keep the spinors apart."""
    a, b = build_spin7_pure().spinor, build_spin7_reducing().spinor
    pair = annihilator([a, b])
    assert pair.dim == 14 and pair.closed
    again = annihilator([a, b, a])
    assert (again.dim, again.closed, again.basis) == (pair.dim, pair.closed, pair.basis)


def test_annihilator_validates_input():
    from spinor_forge.errors import ShapeMismatch

    with pytest.raises(EmptyInput):
        annihilator([])
    with pytest.raises(ShapeMismatch):
        annihilator([build_qk_pure(1).spinor, build_spin7_pure().spinor])


def test_annihilator_members_annihilate():
    phi = build_qk_pure(1).spinor
    alg = annihilator([phi])
    for x in alg.basis:
        assert ambient_annihilates(x, phi)


# -- commutant -------------------------------------------------------------------

def test_commutant_dimensions():
    d1, _ = commutant([eta_hat(eta(build_spin7_pure().spinor, k, l))
                       for (k, l) in pairs(7)], restrict_skew=True)
    assert d1 == 0
    d2, basis = commutant([eta_hat(eta(build_qk_pure(1).spinor, k, l))
                           for (k, l) in pairs(3)], restrict_skew=True)
    assert d2 == 3
    for b in basis:  # skew restriction respected
        assert all(b.mat[i][j] == -b.mat[j][i] for i in range(4) for j in range(4))


def test_commutant_rejects_empty():
    with pytest.raises(EmptyInput):
        commutant([], restrict_skew=True)


def test_commutant_elements_commute():
    fam = [eta_hat(eta(build_qk_pure(1).spinor, k, l)) for (k, l) in pairs(3)]
    _, basis = commutant(fam, restrict_skew=False)
    for b in basis:
        for h in fam:
            assert b.commutator(h).mat == [[F(0)] * 4 for _ in range(4)]


def _commutant_oracle(family, restrict_skew):
    """The commutant as one n^2-wide system, solved by the plain Fraction
    RREF: for each h and each entry (a, b), the row of
    (X h - h X)[a][b] = sum_c X[a][c] h[c][b] - h[a][c] X[c][b] over the
    entries X[p][q] (column p n + q), then X[p][p] = 0 and X[p][q] +
    X[q][p] = 0 when skew.  Returns the canonical basis as dense matrices."""
    n = family[0].n
    rows = []
    for h in family:
        mat = h.mat
        for a in range(n):
            for b in range(n):
                row = [F(0)] * (n * n)
                for c in range(n):
                    row[a * n + c] += mat[c][b]
                    row[c * n + b] -= mat[a][c]
                if any(row):
                    rows.append(row)
    if restrict_skew:
        for p in range(n):
            for q in range(p, n):
                row = [F(0)] * (n * n)
                row[p * n + q] += 1
                row[q * n + p] += 1
                rows.append(row)
    unique = list({tuple(row): row for row in rows}.values())
    return [[vec[p * n:(p + 1) * n] for p in range(n)] for vec in plain_nullspace(unique, n * n)]


def _moved_qk2_family():
    """The hat(eta) of qk(2) moved by g, a product of two full-support exact
    unit vectors of R^8: every member a dense matrix."""
    rng = random.Random(5)
    g = [random_unit_vector(8, rng, 8) for _ in range(2)]
    return _hat_family(twisted_group_action(g, [], build_qk_pure(2).spinor))


_COMMUTANT_FAMILIES = {
    "spin7_pure": lambda: _hat_family(build_spin7_pure().spinor),
    "spin7_reducing": lambda: _hat_family(build_spin7_reducing().spinor),
    **{f"qk({m})": lambda m=m: _hat_family(build_qk_pure(m).spinor) for m in (1, 2, 3)},
    **{f"generic({n})": lambda n=n: _hat_family(build_generic_reducing(n).spinor)
       for n in (4, 5, 6)},
    "moved qk(2)": _moved_qk2_family,
}


@pytest.mark.parametrize("label", list(_COMMUTANT_FAMILIES))
def test_commutant_matches_the_wide_system_oracle(label):
    """Successive restriction gives, Endo for Endo, the canonical basis of
    the one n^2-wide system, with and without the skew restriction."""
    family = list(_COMMUTANT_FAMILIES[label]().values())
    if label == "moved qk(2)":  # every entry off the diagonal is nonzero
        assert all(sum(map(len, h._rows)) == 56 for h in family)
    for skew in (True, False):
        dim, basis = commutant(family, skew)
        want = _commutant_oracle(family, skew)
        assert dim == len(basis) == len(want)
        assert [b.mat for b in basis] == want, (label, skew)


def test_commutant_matches_the_wide_system_oracle_on_random_families():
    """Seeded random rational families, one member or several, some sparse
    and some dense: the same basis as the wide system, and the draws reach
    a zero skew commutant, a one-member family and a commutant of several
    dimensions between 0 and n^2."""
    rng = random.Random(27)
    seen = {"zero": 0, "one member": 0, "between": 0}
    for _ in range(40):
        n = rng.randint(1, 5)
        density = rng.choice((0.2, 0.5, 1.0))
        family = [Endo(n, [[F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < density
                            else F(0) for _ in range(n)] for _ in range(n)])
                  for _ in range(rng.choice((1, 1, 2, 3)))]
        for skew in (True, False):
            dim, basis = commutant(family, skew)
            assert [b.mat for b in basis] == _commutant_oracle(family, skew), (family, skew)
            seen["zero"] += dim == 0
            seen["between"] += 1 < dim < n * n - 1
        seen["one member"] += len(family) == 1
    assert min(seen.values()) >= 5, seen


# -- pinned Lie bases ------------------------------------------------------------

def _moved_qk():
    """qk(2) and qk(3), each moved by g, a product of two full-support exact
    unit vectors, drawn in turn from one random.Random(5)."""
    rng = random.Random(5)
    moved = {}
    for m in (2, 3):
        g = [random_unit_vector(4 * m, rng, support=4 * m) for _ in range(2)]
        moved[m] = twisted_group_action(g, [], build_qk_pure(m).spinor)
    return moved


def _lie_payloads(tmp):
    """The text of ``subalgebra_to_json(annihilator(...))`` (as the CLI
    prints it, indent 2) and the ``commutant --json`` stdout, skew and full,
    by case label; ``tmp`` is a directory for the moved qk(2) wire file."""
    moved = _moved_qk()
    spin7 = [build_spin7_pure().spinor, build_spin7_reducing().spinor]
    cases = {**{f"qk({m})": [build_qk_pure(m).spinor] for m in range(1, 7)},
             **{f"generic({n})": [build_generic_reducing(n).spinor] for n in range(2, 9)},
             "spin7_pure": spin7[:1], "spin7_reducing": spin7[1:], "spin7 pair": spin7,
             "moved qk(2)": [moved[2]], "moved qk(3)": [moved[3]]}
    payloads = {f"annihilator {label}": json.dumps(subalgebra_to_json(annihilator(spinors)),
                                                   indent=2)
                for label, spinors in cases.items()}
    wire = Path(tmp) / "moved_qk2.json"
    wire.write_text(json.dumps(scaled_spinor_to_json(moved[2])))
    sources = {**{f"qk({m})": ["--catalog", "qk", "--m", str(m)] for m in range(1, 6)},
               "spin7_pure": ["--catalog", "spin7_pure"], "moved qk(2)": ["--in", str(wire)]}
    for label, source in sources.items():
        for mode, flags in (("skew", ["--skew"]), ("full", [])):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli_main(["commutant", *source, *flags, "--json"]) == 0
            payloads[f"commutant {label} {mode}"] = out.getvalue()
    return payloads


@pytest.fixture(scope="module")
def lie_payloads(tmp_path_factory):
    """Every pinned Lie payload, computed once for the pin and the closed forms."""
    return _lie_payloads(tmp_path_factory.mktemp("lie"))


def test_lie_bases_are_pinned(lie_payloads):
    """Every annihilator and commutant basis of the catalog and of the
    moved qk(2) and qk(3), byte for byte as pinned in ``lie_pins.json``."""
    want = json.loads((Path(__file__).parent / "data" / "lie_pins.json").read_text())
    assert {label: hashlib.sha256(text.encode()).hexdigest()
            for label, text in lie_payloads.items()} == want


def _sp(m):
    """dim sp(m) = m(2m + 1)."""
    return m * (2 * m + 1)


# The dimension of every pinned basis in closed form: the annihilator of
# qk(m), moved or not, is sp(m) + sp(1), of generic(n) so(n), of each
# rank-7 spinor spin(7) and of the pair g2; the commutant of qk(m)'s hat(eta)
# family is sp(m) skew and gl(m, H) full, and of spin7_pure's 0 and R.
LIE_DIMS = {
    **{f"annihilator qk({m})": _sp(m) + 3 for m in range(1, 7)},
    **{f"annihilator generic({n})": n * (n - 1) // 2 for n in range(2, 9)},
    "annihilator spin7_pure": 21, "annihilator spin7_reducing": 21, "annihilator spin7 pair": 14,
    "annihilator moved qk(2)": _sp(2) + 3, "annihilator moved qk(3)": _sp(3) + 3,
    **{f"commutant qk({m}) skew": _sp(m) for m in range(1, 6)},
    **{f"commutant qk({m}) full": 4 * m * m for m in range(1, 6)},
    "commutant spin7_pure skew": 0, "commutant spin7_pure full": 1,
    "commutant moved qk(2) skew": _sp(2), "commutant moved qk(2) full": 4 * 2 * 2,
}


def test_lie_bases_have_their_closed_form_dimensions(lie_payloads):
    """Each pinned payload has its closed-form dim and as many basis
    elements, and an annihilator is closed; a commutant has no closed flag."""
    assert lie_payloads.keys() == LIE_DIMS.keys()
    for label, dim in LIE_DIMS.items():
        payload = json.loads(lie_payloads[label])
        want = {"dim": dim, "basis": dim}
        if label.startswith("annihilator"):
            want["closed"] = True
        assert {**payload, "basis": len(payload["basis"])} == want, label


# -- frame independence and equivariance -----------------------------------------

IDENTITY3 = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]


def test_frame_rotation_identity():
    phi = build_qk_pure(1).spinor
    assert frame_rotation_check(phi, IDENTITY3, "pure")


def test_frame_rotation_givens_on_spin7():
    """The Pythagorean rotation (3/5, 4/5) of the (1, 2) plane of R^7."""
    g = [[F(int(i == j)) for j in range(7)] for i in range(7)]
    g[0][0], g[0][1], g[1][0], g[1][1] = F(3, 5), F(-4, 5), F(4, 5), F(3, 5)
    assert frame_rotation_check(build_spin7_pure().spinor, g, "pure")


def test_frame_rotation_cayley_on_qk():
    rng = random.Random(2)
    a = random_so_matrix(3, rng)
    assert frame_rotation_check(build_qk_pure(2).spinor, a, "pure")


def test_frame_rotation_reducing_mode():
    rng = random.Random(3)
    a = random_so_matrix(7, rng, bound=1)
    assert frame_rotation_check(build_spin7_reducing().spinor, a, "reducing")


def _direct_rotated_verdicts(phi, a, kind):
    """Per-pair (defect_norm2, flag) in the frame of the rows of A, acting
    with sum c eta_st and sum c kappa(f_st) on phi directly, both by the
    generator chain (no sign table)."""
    coefficient = 2 if kind == "pure" else 1
    out = {}
    for (k, l) in pairs(phi.r):
        c = {(s, t): a[k - 1][s - 1] * a[l - 1][t - 1] - a[k - 1][t - 1] * a[l - 1][s - 1]
             for (s, t) in pairs(phi.r)}
        form = phi_extend(phi, c)
        twist = ScaledSpinor(phi.n, phi.r, phi.m, {}, phi.scale2)
        for slot in range(1, phi.m + 1):
            twist = twist + chain(phi, slot, c.items())
        defect = chain(phi, 0, [((a, b), c) for a, b, c in form.terms()]) + \
            twist.scale(gr(coefficient))
        if kind == "pure":
            h = eta_hat(form)
            flag = h.compose(h).is_minus_identity()
        else:
            flag = not form.is_zero()
        out[(k, l)] = (twisted_hermitian(defect, defect).re, flag)
    return out


@pytest.mark.parametrize("label,kind", [
    ("spin7_reducing", "pure"), ("random", "pure"), ("random", "reducing")])
def test_rotated_pair_table_matches_direct_action(label, kind):
    rng = random.Random(6)
    if label == "spin7_reducing":
        phi = build_spin7_reducing().spinor
        a = random_so_matrix(7, rng, bound=1)
    else:
        phi = random_scaled(4, 3, 1, rng, terms=6)
        a = random_so_matrix(3, rng)
    (_, base), (_, rotated) = _certify(phi, kind, (None, a))
    flag = "square_ok" if kind == "pure" else "eta_nonzero"
    got = {p: (v.defect_norm2, getattr(v, flag)) for p, v in rotated.items()}
    assert got == _direct_rotated_verdicts(phi, a, kind)
    if label == "random":  # the rotation really moves the witnesses
        assert got != {p: (v.defect_norm2, getattr(v, flag)) for p, v in base.items()}


def _dense_certificates(phi, frames):
    """For each frame (the rows of an SO(r) matrix A), {kind: {(k, l):
    (defect_norm2, square_ok or eta_nonzero)}} from the dense oracle:
    f'_k = sum_s a_ks f_s on each twist slot, w = sum over slots
    f'_k f'_l phi, eta_ab = scale2 Re<e_a e_b w, phi>, and the defect
    sum_(a<b) eta_ab e_a e_b phi + c w with c = 2 (pure) or 1 (reducing)."""
    shape, n, r = phi.shape(), phi.n, phi.r
    vec, norm = oracle.vector(phi), oracle.norm(shape)
    results = []
    for a in frames:
        out = {"pure": {}, "reducing": {}}
        for (k, l) in pairs(r):
            w = [gr(0)] * len(vec)
            for slot in range(1, phi.m + 1):
                fl = oracle.act(shape, [(slot, (s,), a[l - 1][s - 1]) for s in range(1, r + 1)], vec)
                w = oracle.add(w, oracle.act(shape, [(slot, (s,), a[k - 1][s - 1])
                                                     for s in range(1, r + 1)], fl))
            mat = oracle.form(phi, w)
            eta_phi = oracle.act(shape, [(0, (x, y), mat[x - 1][y - 1]) for (x, y) in pairs(n)], vec)
            sq = naive_mat_mul(mat, mat)
            square_ok = all(sq[i][j] == (-1 if i == j else 0) for i in range(n) for j in range(n))
            for kind, c, flag in (("pure", 2, square_ok),
                                  ("reducing", 1, any(x for row in mat for x in row))):
                defect = oracle.add(eta_phi, w, c)
                dn2 = phi.scale2 * oracle.inner(defect, defect).re / norm
                out[kind][(k, l)] = (dn2, flag)
        results.append(out)
    return results


@pytest.mark.parametrize("label", ["n5r3", "n4r4", "qk1", "qk1_moved"])
def test_certificates_match_dense_oracle(label):
    """Per-pair witnesses of the image-table certificate against dense
    operators, in the standard frame (through check_pure / check_reducing)
    and in two rotated ones: a random one and a product of two plane
    rotations, the Cayley transforms of t = 1/2 in the (1, 2) plane and of
    t = 2/3 in the (2, r) plane, over the coprime denominators 5 and 13, so
    A clears to an integer matrix over 65 and each c_st to an integer over
    65^2.  Real and imaginary parts carry different, coprime denominators,
    so a common denominator taken from one part alone is wrong.  qk1_moved
    is qk(1) moved by a twist rotation: still pure, with eta_st over the
    denominators 25, 1 and 25."""
    rng = random.Random(label)
    if label == "qk1":
        phi = build_qk_pure(1).spinor
    elif label == "qk1_moved":
        h = [[F(1), F(0), F(0)], [F(3, 5), F(0), F(4, 5)]]
        phi = twisted_group_action([], h, build_qk_pure(1).spinor)
    else:
        n, r = int(label[1]), int(label[3])
        spin_idx, twist_idx = all_basis_indices(n), all_basis_indices(r)
        coeffs = {(rng.choice(spin_idx), (rng.choice(twist_idx), rng.choice(twist_idx))):
                  gr(F(rng.randint(-9, 9), rng.choice((3, 7))),
                     F(rng.randint(-9, 9), rng.choice((4, 5))))
                  for _ in range(12)}
        phi = ScaledSpinor(n, r, 2, coeffs, F(3, 5))
    identity = [[F(int(i == j)) for j in range(phi.r)] for i in range(phi.r)]
    rotation = random_so_matrix(phi.r, rng, bound=2)
    skews = [[[F(0)] * phi.r for _ in range(phi.r)] for _ in range(2)]
    for skew, (i, j), t in zip(skews, ((0, 1), (1, phi.r - 1)), (F(1, 2), F(2, 3))):
        skew[i][j], skew[j][i] = t, -t
    coprime = naive_mat_mul(*(cayley_so(skew) for skew in skews))
    assert {x.denominator for row in coprime for x in row} == {1, 5, 13, 65}
    frames = (rotation, coprime)
    want_standard, *want_rotated = _dense_certificates(phi, (identity, *frames))
    for kind, check in (("pure", check_pure), ("reducing", check_reducing)):
        flag = "square_ok" if kind == "pure" else "eta_nonzero"
        got = [check(phi).per_pair] + [per for _, per in _certify(phi, kind, frames)]
        for per, want in zip(got, [want_standard] + want_rotated):
            assert {p: (v.defect_norm2, getattr(v, flag)) for p, v in per.items()} == want[kind]
            if not label.startswith("qk1"):
                assert all(dn2 for dn2, _ in want[kind].values())
    if label.startswith("qk1"):
        assert all(want["pure"] == {p: (F(0), True) for p in pairs(3)} for want in want_rotated)


def _dense_verdict(certificate):
    """True iff every pair of a ``_dense_certificates`` entry passes."""
    return all(dn2 == 0 and flag for dn2, flag in certificate.values())


@pytest.mark.parametrize("label", ["qk1", "generic4", "random"])
def test_frame_and_equivariance_harnesses_match_the_dense_certificates(label):
    """``frame_rotation_check`` is True exactly when the dense oracle's
    verdict in the rotated frame equals the one in the standard frame, and
    ``equivariance_check`` exactly when the dense verdict of phi moved by
    [g, h] (g x1 x2 on the spin slot, h on every twist slot, each product
    applied right to left in dense operators) equals phi's, in both kinds,
    for a pure, a reducing and a random spinor."""
    rng = random.Random(12)
    phi = {"qk1": build_qk_pure(1).spinor, "generic4": build_generic_reducing(4).spinor,
           "random": random_scaled(4, 3, 2, rng, terms=5)}[label]
    shape, n, r = phi.shape(), phi.n, phi.r
    identity = [[F(int(i == j)) for j in range(r)] for i in range(r)]
    a = random_so_matrix(r, rng, bound=1)
    g = [random_unit_vector(n, rng) for _ in range(2)]
    h = [random_unit_vector(r, rng) for _ in range(2)]
    moved = oracle.vector(phi)
    for slot, vectors in [(0, g)] + [(slot, h) for slot in range(1, phi.m + 1)]:
        for x in reversed(vectors):
            moved = oracle.act(shape, [(slot, (j,), c) for j, c in enumerate(x, 1)], moved)
    moved_phi = twisted_group_action(g, h, phi)
    assert oracle.vector(moved_phi) == moved
    standard, rotated = _dense_certificates(phi, (identity, a))
    [at_moved] = _dense_certificates(moved_phi, (identity,))
    verdicts = set()
    for kind in ("pure", "reducing"):
        base = _dense_verdict(standard[kind])
        verdicts.add(base)
        assert frame_rotation_check(phi, a, kind) is (_dense_verdict(rotated[kind]) == base)
        assert equivariance_check(phi, g, h, kind) is (_dense_verdict(at_moved[kind]) == base)
    assert verdicts == {"qk1": {True, False}, "generic4": {False, True}, "random": {False}}[label]


def test_frame_rotation_on_non_pure_spinor():
    phi = build_spin7_reducing().spinor
    assert not check_pure(phi).is_pure
    a = random_so_matrix(7, random.Random(8), bound=1)
    (base, _), (rotated, _) = _certify(phi, "pure", (None, a))
    assert base is False and rotated is False
    assert frame_rotation_check(phi, a, "pure")


def test_frame_rotation_without_twist_pairs():
    """r = 1 has no pair k < l, and no certificate is defined there: the
    frame harness refuses it as ``check_reducing`` does, and so it refuses
    the zero spinor and rank 2 in pure mode, which ``check_pure`` refuses."""
    phi = random_scaled(4, 1, 1, random.Random(9))
    with pytest.raises(RankTooSmall):
        _certify(phi, "reducing", (None, [[F(1)]]))
    with pytest.raises(RankTooSmall):
        frame_rotation_check(phi, [[1]], "reducing")
    with pytest.raises(ZeroSpinor):
        frame_rotation_check(ScaledSpinor(4, 3, 1, {}), IDENTITY3, "pure")
    rank2 = ScaledSpinor(2, 2, 1, {((1,), ((1,),)): gr(1)})
    with pytest.raises(RankTooSmall):
        frame_rotation_check(rank2, [[1, 0], [0, 1]], "pure")


def test_frame_and_equivariance_reject_unknown_kind():
    phi = build_qk_pure(1).spinor
    with pytest.raises(InvalidValue, match="purest"):
        frame_rotation_check(phi, IDENTITY3, "purest")
    with pytest.raises(InvalidValue, match="purest"):
        equivariance_check(phi, [], [], "purest")
    assert issubclass(InvalidValue, SpinorForgeError) and issubclass(InvalidValue, ValueError)


def test_frame_rotation_rejects_non_orthogonal():
    phi = build_qk_pure(1).spinor
    bad = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(2)]]
    with pytest.raises(NotOrthogonal):
        frame_rotation_check(phi, bad, "pure")


def test_equivariance_identity_and_random():
    phi = build_spin7_pure().spinor
    assert equivariance_check(phi, [], [], "pure")
    rng = random.Random(4)
    g = [random_unit_vector(8, rng) for _ in range(2)]
    assert equivariance_check(phi, g, [], "pure")
    qk = build_qk_pure(1).spinor
    g2v = [random_unit_vector(4, rng) for _ in range(2)]
    h = [[F(1), F(0), F(0)], [F(0), F(1), F(0)]]  # f1, f2
    assert equivariance_check(qk, g2v, h, "pure")


def _rotation(dim, vectors):
    """A[i][j] = <e_i, g.e_j> for g = the product of the unit vectors."""
    return transpose([spin_action_on_vector(dim, vectors, [F(int(i == j)) for i in range(dim)])
                      for j in range(dim)])


def test_induced_forms_and_certificates_are_equivariant():
    """Metamorphic oracle under Spin(n) x Spin(r), with g and h products of
    two exact unit vectors of full support (3-sparse g on qk(5)):
    eta_kl(g.phi) = A eta_kl(phi) A^T with A[i][j] = <e_i, g.e_j> (the
    transposed convention fails at qk(2)); eta_kl(h.phi) = sum_(s<t)
    (a_ks a_lt - a_kt a_ls) eta_st(phi) with a_ij = <e_i, h.e_j>; every
    defect norm of ``check_pure`` and ``check_reducing`` is unchanged by g,
    and both verdicts by h."""
    t0 = time.monotonic()
    rng = random.Random(5)
    cases = [(f"qk({m})", build_qk_pure(m).spinor, None) for m in (2, 3, 4)]
    cases.append(("qk(5)", build_qk_pure(5).spinor, 3))  # full support costs 2.7 s here
    cases += [("spin7_pure", build_spin7_pure().spinor, None),
              ("spin7_reducing", build_spin7_reducing().spinor, None)]
    cases += [(f"random{shape}", random_scaled(*shape, rng, terms=6), None)
              for shape in ((8, 3, 2), (6, 4, 1), (5, 3, 2))]
    verdicts = set()
    for label, phi, support in cases:
        n, r, _ = phi.shape()
        g = [random_unit_vector(n, rng, support=support or n) for _ in range(2)]
        h = [random_unit_vector(r, rng, support=r) for _ in range(2)]
        a, b = _rotation(n, g), _rotation(r, h)
        g_phi, h_phi = twisted_group_action(g, [], phi), twisted_group_action([], h, phi)
        base = etas(phi)
        for (k, l), form in etas(g_phi).items():
            want = naive_mat_mul(naive_mat_mul(a, base[(k, l)].mat), transpose(a))
            assert form == TwoForm(n, want), (label, "g", (k, l))
        for (k, l), form in etas(h_phi).items():
            want = [[F(0)] * n for _ in range(n)]
            for (s, t), eta_st in base.items():
                c = b[k - 1][s - 1] * b[l - 1][t - 1] - b[k - 1][t - 1] * b[l - 1][s - 1]
                want = [[x + c * y for x, y in zip(u, v)] for u, v in zip(want, eta_st.mat)]
            assert form == TwoForm(n, want), (label, "h", (k, l))
        for check, verdict in ((check_pure, "is_pure"), (check_reducing, "is_reducing")):
            here, moved = check(phi), check(g_phi)
            assert {p: v.defect_norm2 for p, v in moved.per_pair.items()} == \
                {p: v.defect_norm2 for p, v in here.per_pair.items()}, (label, verdict)
            assert getattr(check(h_phi), verdict) == getattr(here, verdict), (label, verdict)
            verdicts.add((verdict, getattr(here, verdict)))
    assert verdicts == {(v, x) for v in ("is_pure", "is_reducing") for x in (True, False)}
    assert time.monotonic() - t0 < 5.0


def _adjoint(x, a, b):
    """Ad_(g,h) x for A[i][j] = <e_i, g.e_j> and B the same with h: the
    skew matrix S of x's a-part goes to A S A^T, whose upper triangle is
    a'_pq = sum_(i<j) a_ij (A_pi A_qj - A_pj A_qi), and the b-part's to
    B S B^T."""
    def move(part, mat, dim):
        out = {}
        for (i, j), c in part.items():
            for p, q in pairs(dim):
                v = mat[p - 1][i - 1] * mat[q - 1][j - 1] - mat[p - 1][j - 1] * mat[q - 1][i - 1]
                out[(p, q)] = out.get((p, q), 0) + c * v
        return {pq: c for pq, c in out.items() if c}
    return AmbientElement(x.n, x.r, a=move(x.a, a, x.n), b=move(x.b, b, x.r))


def test_annihilator_is_equivariant():
    """ann((g, h).phi) = Ad_(g,h) ann(phi) as spans, with the same dimension
    and closure, for g and h products of two exact unit vectors of full
    support.  Ad_(g,h) is injective, so equal dimensions and each Ad_(g,h) x
    in the moved span, tested by a dense Fraction RREF and not by
    ``linalg``, give equal spans.  The moved spinors have large
    denominators, so a sign that the catalog's frame hides shows here."""
    t0 = time.monotonic()
    rng = random.Random(5)
    cases = [(f"qk({m})", [build_qk_pure(m).spinor]) for m in (2, 3)]
    cases += [("spin7_pair", [build_spin7_pure().spinor, build_spin7_reducing().spinor]),
              ("generic(4)", [build_generic_reducing(4).spinor])]
    for label, spinors in cases:
        n, r, _ = spinors[0].shape()
        g = [random_unit_vector(n, rng, support=n) for _ in range(2)]
        h = [random_unit_vector(r, rng, support=r) for _ in range(2)]
        here = annihilator(spinors)
        moved = annihilator([twisted_group_action(g, h, phi) for phi in spinors])
        assert here.closed and (moved.dim, moved.closed) == (here.dim, here.closed), label
        a, b = _rotation(n, g), _rotation(r, h)
        rref = _flat_rref(moved.basis)
        for x in here.basis:
            assert not any(_residue(_adjoint(x, a, b).flat(), rref)), label
    assert time.monotonic() - t0 < 5.0


# -- representation-theory constants ---------------------------------------------

@pytest.mark.parametrize("r,d,v", [
    (1, 1, 1), (2, 2, 1), (3, 4, 1), (4, 4, 2),
    (5, 8, 1), (6, 8, 1), (7, 8, 1), (8, 8, 2),
    (9, 16, 1), (10, 32, 1), (11, 64, 1), (12, 64, 2),
])
def test_cl_dims_table(r, d, v):
    got = cl_dims(r)
    assert (got.d_r, got.v_r) == (d, v)


@pytest.mark.parametrize("r,error", [
    (17, UnsupportedDimension), (4 * 10 ** 8, UnsupportedDimension),
    (10 ** 10, UnsupportedDimension), (0, ShapeMismatch), (-3, ShapeMismatch),
    (2.5, InvalidValue), (4.0, InvalidValue), (True, InvalidValue), (F(4), InvalidValue),
    ("4", InvalidValue), (None, InvalidValue),
], ids=lambda v: v.__name__ if isinstance(v, type) else repr(v))
def test_cl_dims_refuses_what_is_no_rank_promptly(r, error):
    """A rank above MAX_R, below 1 or not an int is refused with a typed
    error before any power of 2 is built; MAX_R itself is in the table."""
    t0 = time.monotonic()
    with pytest.raises(error):
        cl_dims(r)
    assert time.monotonic() - t0 < 0.1
    assert issubclass(error, SpinorForgeError)
    assert (cl_dims(MAX_R).d_r, cl_dims(MAX_R).v_r) == (2 ** 7, 2)


def test_pure_spinor_module_constraint():
    # for certified pure spinors, n is even and d_r divides n
    for phi in (build_spin7_pure().spinor, build_qk_pure(1).spinor,
                build_qk_pure(2).spinor):
        assert check_pure(phi).is_pure
        assert phi.n % 2 == 0
        assert phi.n % cl_dims(phi.r).d_r == 0


def test_vanishing_identity_harness_holds_on_the_catalog_and_checks_its_shapes():
    """Every identity instance holds on catalog spinors, for int and
    rational vectors; vectors of the wrong length and a quadruple list per
    twist pair short are refused, not truncated."""
    for phi in (build_spin7_pure().spinor, build_qk_pure(2).spinor):
        n, r = phi.n, phi.r
        x = [F(j - 3, j) for j in range(1, n + 1)]
        y = list(range(n, 0, -1))
        quads = [[(1, 2, 3, 4), (2, 3, 5, 8)][: (k + l) % 3] for k, l in pairs(r)]
        assert vanishing_identity_failures(phi, x, y, quads) == 0
        with pytest.raises(ShapeMismatch):
            vanishing_identity_failures(phi, x[:-1], y, quads)
        with pytest.raises(ShapeMismatch):
            vanishing_identity_failures(phi, x, y, quads[:-1])


@pytest.mark.parametrize("quad, error", [
    ((True, 2, 3, 4), InvalidValue), ((1, 2, 3, 4.0), InvalidValue), ((1, "2", 3, 4), InvalidValue),
    ((1, 1, 2, 3), IndexOutOfRange), ((0, 1, 2, 3), IndexOutOfRange),
    ((4, 3, 2, 1), IndexOutOfRange), ((1, 2, 3, 9), IndexOutOfRange),
    ((1, 2, 3), IndexOutOfRange), ((1, 2, 3, 4, 5), IndexOutOfRange),
    pytest.param([5], InvalidValue, id="list [5]"), pytest.param(5, InvalidValue, id="list 5"),
    pytest.param(None, InvalidValue, id="list None"),
])
def test_vanishing_identity_harness_refuses_bad_quadruples(monkeypatch, quad, error):
    """A quadruple entry that is not an int, or a quadruple or a list of
    them that is not a sequence, raises InvalidValue, and a quadruple that
    is not 1 <= a < b < c < d <= n raises IndexOutOfRange, before anything
    is walked: (True, 2, 3, 4) is not read as (1, 2, 3, 4), nor (1, 1, 2, 3)
    as e_2 e_3.  A tuple is one quadruple after a good one; anything else
    is the last twist pair's whole list."""
    phi = build_spin7_pure().spinor  # n = 8
    x, y = list(range(1, 9)), list(range(8, 0, -1))
    quads = [[(1, 2, 3, 4)] for _ in pairs(phi.r)]
    assert vanishing_identity_failures(phi, x, y, quads) == 0
    quads[-1] = [(2, 3, 5, 8), quad] if type(quad) is tuple else quad

    def walk(*args):
        raise AssertionError("walked before the quadruples were checked")

    monkeypatch.setattr(twisted, "_walk", walk)
    with pytest.raises(error):
        vanishing_identity_failures(phi, x, y, quads)
