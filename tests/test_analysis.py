import json
import random
import time
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest

from spinor_forge.analysis import (
    AmbientElement,
    _ambient,
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
from spinor_forge.errors import (
    EmptyInput,
    InvalidValue,
    NotOrthogonal,
    RankTooSmall,
    ShapeMismatch,
    SpinorForgeError,
    UnsupportedDimension,
    ZeroSpinor,
)
from spinor_forge.forms import eta, eta_hat, phi_extend, two_form_from_terms
from spinor_forge.linalg import (
    RowReducer, givens, random_so_matrix, random_unit_vector, rational_cos_sin, spans_equal,
)
from spinor_forge.scalars import gr
from spinor_forge.spinrep import (
    MAX_R, SpinorVector, all_basis_indices, basis_spinor, kappa_generator,
)
from spinor_forge.twisted import (
    ScaledSpinor,
    tangent_action,
    twist_bivector_action,
    twisted_group_action,
    twisted_hermitian,
)

from .test_forms import _apply, dense_operators
from .test_linalg import naive_mat_mul
from .test_pair_table import chain
from .test_twisted import random_scaled


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


def test_even_clifford_refuses_pairs_it_cannot_index():
    """A key outside 1 <= k < l is refused, not read as a smaller rank or
    silently dropped."""
    from spinor_forge.errors import IndexOutOfRange
    from spinor_forge.forms import Endo
    from spinor_forge.linalg import identity

    ident = Endo(4, identity(4))
    j = _hat_family(build_qk_pure(1).spinor)[(1, 2)]
    assert even_clifford_verify({(1, 2): j}).ok
    for fam in ({(0, 1): ident}, {(1, 1): ident},
                {(1, 2): j, (0, 2): ident, (2, 2): ident}):
        with pytest.raises(IndexOutOfRange):
            even_clifford_verify(fam)


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


def test_lie_closure_so3():
    basis = [AmbientElement(3, 3, {p: F(1)}, {}) for p in pairs(3)]
    rep = lie_closure_report(basis)
    assert rep.closed and rep.dim == 3
    # structure constants: [e1e2, e1e3] = 2 e2e3 etc.
    assert rep.structure[(0, 1)] == [F(0), F(0), F(2)]


def test_lie_closure_rescaled_and_dependent_bases():
    def e(terms):
        return AmbientElement(3, 3, terms, {})

    # [e1e2, e1e3] = 2 e2e3 = (1/2) (4 e2e3)
    rep = lie_closure_report([e({(1, 2): F(1)}), e({(1, 3): F(1)}), e({(2, 3): F(4)})])
    assert rep.closed and rep.dim == 3
    assert rep.structure[(0, 1)] == [F(0), F(0), F(1, 2)]
    dependent = [e({(1, 2): F(1)}), e({(1, 3): F(1)}), e({(2, 3): F(1)}),
                 e({(1, 2): F(1), (2, 3): F(1)})]
    rep = lie_closure_report(dependent)
    assert rep.dim == 3 and rep.closed and rep.structure is None


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
    assert (rep.closed, rep.dim, rep.structure, rep.open_pair) == (False, 3, None, (1, 2))
    rep = lie_closure_report([e(5, 6), e(1, 2), e(1, 3), e(2, 3)])
    assert rep.closed and rep.open_pair is None
    assert annihilator([build_qk_pure(1).spinor]).open_pair is None


def _closure_oracle(basis):
    """The eliminating closure check: rows [x_i | e_i | 0]; a bracket enters
    as [z | 0 | 1] and reduces to [0 | c | s] exactly when
    z = -sum (c_i / s) x_i lies in the span.  Returns (dim, closed,
    structure, first open pair)."""
    n, r = basis[0].n, basis[0].r
    a_col = {p: i for i, p in enumerate(pairs(n))}
    b_col = {p: len(a_col) + i for i, p in enumerate(pairs(r))}
    offset = len(a_col) + len(b_col)

    def sparse_row(x):
        row = {a_col[p]: c for p, c in x.a.items()}
        row.update({b_col[p]: c for p, c in x.b.items()})
        return row

    size = len(basis)
    last = offset + size
    red = RowReducer()
    for i, x in enumerate(basis):
        row = sparse_row(x)
        row[offset + i] = F(1)
        red.add(row)
    dim = sum(1 for c in red.pivots if c < offset)
    independent = dim == size
    structure = {}
    for i, j in combinations(range(size), 2):
        z = sparse_row(bracket(basis[i], basis[j]))
        z[last] = F(1)
        row = red.reduce(z)
        if min(row) < offset:
            return dim, False, None, (i, j)
        if independent:
            consts = [F(0)] * size
            for c, v in row.items():
                if c < last:
                    consts[c - offset] = F(-v, row[last])
            structure[(i, j)] = consts
    return dim, True, structure if independent else None, None


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
    """dim, closed, structure (Fraction for Fraction) and the first open pair
    agree with one elimination per bracket on seeded random small bases."""
    rng = random.Random(20261018)
    seen = {"structure": 0, "closed_dependent": 0, "open_later": 0, "b_only": 0}
    for _ in range(600):
        basis = _random_span(rng)
        rep = lie_closure_report(basis)
        dim, closed, structure, open_pair = _closure_oracle(basis)
        assert (rep.dim, rep.closed, rep.open_pair) == (dim, closed, open_pair), basis
        assert rep.structure == structure, basis
        if structure:
            assert all(type(c) is F for consts in rep.structure.values() for c in consts)
            seen["structure"] += any(any(cs) for cs in structure.values())
        seen["closed_dependent"] += closed and structure is None
        seen["open_later"] += not closed and open_pair[0] > 0
        seen["b_only"] += closed and all(not x.a for x in basis) and dim > 1
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("label", ["qk(2)", "qk(3)", "spin7_pure", "spin7_pair", "generic(5)"])
def test_structure_constants_rebuild_every_bracket(label):
    """[x_i, x_j] from the public bracket equals sum_k c_ij[k] x_k, summed
    as Fraction maps, for every i < j of the annihilator basis."""
    spinors = {"qk(2)": [build_qk_pure(2).spinor], "qk(3)": [build_qk_pure(3).spinor],
               "spin7_pure": [build_spin7_pure().spinor],
               "spin7_pair": [build_spin7_pure().spinor, build_spin7_reducing().spinor],
               "generic(5)": [build_generic_reducing(5).spinor]}[label]
    alg = annihilator(spinors)
    basis = alg.basis
    assert alg.closed and alg.open_pair is None
    assert sorted(alg.structure) == list(combinations(range(len(basis)), 2))
    for (i, j), consts in alg.structure.items():
        a, b = {}, {}
        for c, x in zip(consts, basis):
            for part, terms in ((a, x.a), (b, x.b)):
                for p, v in terms.items():
                    part[p] = part.get(p, F(0)) + c * v
        assert bracket(basis[i], basis[j]) == AmbientElement(basis[0].n, basis[0].r, a, b), (i, j)


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


# -- frame independence and equivariance -----------------------------------------

def test_frame_rotation_identity():
    from spinor_forge.linalg import identity

    phi = build_qk_pure(1).spinor
    assert frame_rotation_check(phi, identity(3), "pure")


def test_frame_rotation_givens_on_spin7():
    g = givens(7, 1, 2, F(3, 5), F(4, 5))
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
    (defect_norm2, square_ok or eta_nonzero)}} from dense Kronecker
    operators: f'_k = sum_s a_ks f_s on each twist slot, w = sum over slots
    f'_k f'_l phi, eta_ab = scale2 Re<e_a e_b w, phi>, and the defect
    sum_(a<b) eta_ab e_a e_b phi + c w with c = 2 (pure) or 1 (reducing)."""
    n, r, m = phi.shape()
    vec, gens, twists, norm = dense_operators(phi)
    zero = [gr(0)] * len(vec)

    def add(u, v, c=1):
        return [x + c * y for x, y in zip(u, v)]

    def frame_vector(a, slot, k, v):
        out = zero
        for s in range(1, r + 1):
            if a[k - 1][s - 1]:
                out = add(out, _apply(twists[(slot, s)], v), a[k - 1][s - 1])
        return out

    pair_images = {(x, y): _apply(gens[x - 1], _apply(gens[y - 1], vec)) for (x, y) in pairs(n)}
    results = []
    for a in frames:
        out = {"pure": {}, "reducing": {}}
        for (k, l) in pairs(r):
            w = zero
            for slot in range(1, m + 1):
                w = add(w, frame_vector(a, slot, k, frame_vector(a, slot, l, vec)))
            mat = [[F(0)] * n for _ in range(n)]
            eta_phi = zero
            for (x, y) in pairs(n):
                xy_w = _apply(gens[x - 1], _apply(gens[y - 1], w))
                val = sum((p * q.conj() for p, q in zip(xy_w, vec)), gr(0))
                entry = phi.scale2 * val.re / norm
                mat[x - 1][y - 1], mat[y - 1][x - 1] = entry, -entry
                eta_phi = add(eta_phi, pair_images[(x, y)], entry)
            sq = naive_mat_mul(mat, mat)
            square_ok = all(sq[i][j] == (-1 if i == j else 0) for i in range(n) for j in range(n))
            for kind, c, flag in (("pure", 2, square_ok),
                                  ("reducing", 1, any(x for row in mat for x in row))):
                defect = add(eta_phi, w, c)
                dn2 = phi.scale2 * sum((v.norm2() for v in defect), F(0)) / norm
                out[kind][(k, l)] = (dn2, flag)
        results.append(out)
    return results


@pytest.mark.parametrize("label", ["n5r3", "n4r4", "qk1", "qk1_moved"])
def test_certificates_match_dense_oracle(label):
    """Per-pair witnesses of the image-table certificate against dense
    operators, in the standard frame (through check_pure / check_reducing)
    and in two rotated ones: a random one and a product of Givens rotations
    over the coprime denominators 5 and 13, so A clears to an integer matrix
    over 65 and each c_st to an integer over 65^2.  Real and imaginary parts
    carry different, coprime denominators, so a common denominator taken
    from one part alone is wrong.  qk1_moved is qk(1) moved by a twist
    rotation: still pure, with eta_st over the denominators 25, 1 and 25."""
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
    (c1, s1), (c2, s2) = rational_cos_sin(F(1, 2)), rational_cos_sin(F(2, 3))
    coprime = naive_mat_mul(givens(phi.r, 1, 2, c1, s1), givens(phi.r, 2, phi.r, c2, s2))
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


def test_frame_rotation_on_non_pure_spinor():
    phi = build_spin7_reducing().spinor
    assert not check_pure(phi).is_pure
    a = random_so_matrix(7, random.Random(8), bound=1)
    (base, _), (rotated, _) = _certify(phi, "pure", (None, a))
    assert base is False and rotated is False
    assert frame_rotation_check(phi, a, "pure")


def test_frame_rotation_without_twist_pairs():
    """r = 1 has no pair k < l: every frame gives the empty, passing verdict."""
    phi = random_scaled(4, 1, 1, random.Random(9))
    assert _certify(phi, "reducing", (None, [[F(1)]])) == [(True, {}), (True, {})]
    assert frame_rotation_check(phi, [[1]], "reducing")


def test_frame_and_equivariance_reject_unknown_kind():
    from spinor_forge.linalg import identity

    phi = build_qk_pure(1).spinor
    with pytest.raises(InvalidValue, match="purest"):
        frame_rotation_check(phi, identity(3), "purest")
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
