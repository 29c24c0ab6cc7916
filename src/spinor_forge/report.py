"""The regression/acceptance report: one row per verifiable claim.

Each criterion function recomputes its claim from scratch (catalog
constructors are resolved at call time) and returns a row with the expected
value, the computed value and an exact pass/fail.  The CLI `report` verb and
the acceptance test suite both consume these rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable, Dict, List

from . import catalog
from .analysis import (
    AmbientElement,
    _certify,
    ambient_annihilates,
    annihilator,
    check_pure,
    check_reducing,
    check_spinc_pure,
    cl_dims,
    commutant,
    even_clifford_verify,
    pairs,
)
from .forms import eta_hat, etas, spinc_form, two_form_from_terms
from .linalg import (
    RowReducer, check_special_orthogonal, random_so_matrix, random_unit_vector, spans_equal,
)
from .scalars import gr
from .spinrep import all_basis_indices, basis_spinor
from .twisted import ScaledSpinor, twisted_group_action, vanishing_identity_failures


@dataclass(frozen=True)
class CriterionRow:
    name: str
    expected: str
    computed: str
    passed: bool


def criterion_spin7_eta_table() -> CriterionRow:
    ent = catalog.build_spin7_pure()
    forms = etas(ent.spinor)
    good = sum(1 for pair, expect in ent.expected_etas.items() if forms[pair] == expect)
    return CriterionRow(
        "spin7_eta_table",
        "21/21 rows exactly equal",
        f"{good}/21 rows exactly equal",
        good == 21,
    )


def criterion_purity_certificates() -> CriterionRow:
    results: Dict[str, bool] = {}
    results["pure(spin7_pure)"] = check_pure(catalog.build_spin7_pure().spinor).is_pure
    for m in (1, 2, 3):
        results[f"pure(qk m={m})"] = check_pure(catalog.build_qk_pure(m).spinor).is_pure
    results["reducing(spin7_reducing)"] = check_reducing(
        catalog.build_spin7_reducing().spinor).is_reducing
    for n in range(2, 9):
        results[f"reducing(generic n={n})"] = check_reducing(
            catalog.build_generic_reducing(n).spinor).is_reducing
    bad = [k for k, v in results.items() if not v]
    return CriterionRow(
        "purity_certificates",
        "12/12 certificates true",
        f"{len(results) - len(bad)}/12 true" + (f"; failed: {bad}" if bad else ""),
        not bad,
    )


def criterion_g2_recovery() -> CriterionRow:
    phi1 = catalog.build_spin7_pure().spinor
    phi2 = catalog.build_spin7_reducing().spinor
    alg = annihilator([phi1, phi2])
    gens = catalog.g2_generators()
    span_ok = spans_equal([x.flat() for x in alg.basis], [x.flat() for x in gens])
    return CriterionRow(
        "g2_recovery",
        "dim=14, closed, span equals the 14 listed generators",
        f"dim={alg.dim}, closed={alg.closed}, span_equal={span_ok}",
        alg.dim == 14 and alg.closed and span_ok,
    )


def criterion_spin7_annihilators() -> CriterionRow:
    pure, red = catalog.build_spin7_pure(), catalog.build_spin7_reducing()
    a1, a2 = annihilator([pure.spinor]), annihilator([red.spinor])
    return CriterionRow(
        "spin7_annihilators",
        "both dim=21 and closed",
        f"pure: dim={a1.dim} closed={a1.closed}; "
        f"reducing: dim={a2.dim} closed={a2.closed}",
        a1.dim == pure.expected_annihilator_dim and a1.closed
        and a2.dim == red.expected_annihilator_dim and a2.closed,
    )


def criterion_qk_stabilizer() -> CriterionRow:
    parts: List[str] = []
    ok = True
    for m in (1, 2, 3):
        ent = catalog.build_qk_pure(m)
        phi = ent.spinor
        alg = annihilator([phi])
        span = RowReducer()
        for x in alg.basis:
            span.add(x.flat())
        want = ent.expected_annihilator_dim

        def member(form, twist_part) -> bool:  # annihilates phi and lies in the algebra
            amb = AmbientElement(phi.n, 3, {(a, b): c for a, b, c in form.terms()}, twist_part)
            return amb.is_zero() or (ambient_annihilates(amb, phi)
                                     and span.contains(amb.flat()))
        betas_ok = all([member(tf, {}) for tf in catalog.beta_forms(m)])
        etas_ok = all([member(form, {pair: Fraction(2)}) for pair, form in etas(phi).items()])
        ok = ok and alg.dim == want and alg.closed and betas_ok and etas_ok
        parts.append(f"m={m}: dim={alg.dim}/{want} closed={alg.closed} "
                     f"betas={betas_ok} eta+2f={etas_ok}")
    return CriterionRow(
        "qk_stabilizer_algebra",
        "dims 6/13/24, closed, contain all beta forms and all (eta_kl + 2 f_kl)",
        "; ".join(parts),
        ok,
    )


def criterion_generic_reducing() -> CriterionRow:
    ok = True
    notes: List[str] = []
    for n in range(2, 9):
        ent = catalog.build_generic_reducing(n)
        phi = ent.spinor
        forms = etas(phi)
        eta_ok = forms == ent.expected_etas
        eq_ok = all([ambient_annihilates(AmbientElement(phi.n, phi.r, {pair: 1}, {pair: 1}), phi)
                     for pair in forms])
        ok = ok and eta_ok and eq_ok
        notes.append(f"n={n}:{'ok' if (eta_ok and eq_ok) else 'FAIL'}")
    return CriterionRow(
        "generic_reducing_family",
        "raw eta_pq = 2^floor(n/2) e_p^e_q and e_pe_q.phi + kappa(f_pq).phi = 0, n=2..8",
        " ".join(notes),
        ok,
    )


def _random_spinor(n: int, r: int, m: int, rng: random.Random) -> ScaledSpinor:
    spin_idx = all_basis_indices(n)
    twist_idx = all_basis_indices(r)
    coeffs = {}
    terms = rng.randint(3, 7)
    for _ in range(terms):
        spin = rng.choice(spin_idx)
        twist = tuple(rng.choice(twist_idx) for _ in range(m))
        coeffs[(spin, twist)] = gr(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )
    phi = ScaledSpinor(n, r, m, coeffs, Fraction(rng.randint(1, 4), rng.randint(1, 4)))
    if phi.is_zero():
        coeffs[(spin_idx[0], tuple(twist_idx[0] for _ in range(m)))] = gr(1)
        phi = ScaledSpinor(n, r, m, coeffs, phi.scale2)
    return phi


def _random_vector(n: int, rng: random.Random) -> List[Fraction]:
    return [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]


def criterion_vanishing_identities() -> CriterionRow:
    shapes = [(4, 3, 1), (8, 3, 2), (8, 7, 1), (6, 3, 1)]
    rng = random.Random(20250810)
    per_shape = 50
    checked = 0
    failures = 0
    for (n, r, m) in shapes:
        quads = list(combinations(range(1, n + 1), 4))
        for _ in range(per_shape):
            phi = _random_spinor(n, r, m, rng)
            x = _random_vector(n, rng)
            y = _random_vector(n, rng)
            # sampled quadruples for (5), one draw per twist pair in order
            sampled = [rng.sample(quads, k=min(3, len(quads))) for _ in pairs(r)]
            failures += vanishing_identity_failures(phi, x, y, sampled)
            checked += 1
    return CriterionRow(
        "vanishing_identity_suite",
        f"5 identities exact on >= 200 random spinors (got {checked})",
        f"{checked} spinors checked, {failures} identity failures",
        checked >= 200 and failures == 0,
    )


def criterion_hat_commutators() -> CriterionRow:
    ok = True
    notes: List[str] = []
    cases = [("spin7_pure", catalog.build_spin7_pure().spinor),
             ("qk m=1", catalog.build_qk_pure(1).spinor),
             ("qk m=2", catalog.build_qk_pure(2).spinor)]
    for label, phi in cases:
        fam = {pair: eta_hat(form) for pair, form in etas(phi).items()}
        rel = even_clifford_verify(fam)
        full = {**fam, **{(l, k): -h for (k, l), h in fam.items()}}
        # the mirror (k, j, i) negates both sides: [h_kj, h_ji] = -[h_ij, h_jk], -2 h_ki = 2 h_ik
        comm_ok = all(full[(i, j)].commutator(full[(j, k)]) == full[(i, k)].scale(Fraction(-2))
                      for i, j, k in permutations(range(1, phi.r + 1), 3) if i < k)
        ok = ok and rel.ok and comm_ok
        notes.append(f"{label}: relations={rel.ok} commutators={comm_ok}")
    return CriterionRow(
        "hat_commutator_identities",
        "[h_ij, h_jk] = -2 h_ik, disjoint commute, chained anticommute, product chain",
        "; ".join(notes),
        ok,
    )


def criterion_frame_equivariance() -> CriterionRow:
    rng = random.Random(424242)
    ok = True
    rot_count = 0
    equi_count = 0
    for label, phi in (("spin7_pure", catalog.build_spin7_pure().spinor),
                       ("qk m=1", catalog.build_qk_pure(1).spinor)):
        frames = [check_special_orthogonal(random_so_matrix(phi.r, rng, bound=2))
                  for _ in range(10)]
        (base, _), *rotated = _certify(phi, "pure", [None, *frames])
        ok = ok and all(verdict == base for verdict, _ in rotated)
        rot_count += len(rotated)
        for _ in range(5):
            g = [random_unit_vector(phi.n, rng) for _ in range(2)]
            h = [random_unit_vector(phi.r, rng) for _ in range(2)]
            if check_pure(twisted_group_action(g, h, phi)).is_pure != base:
                ok = False
            equi_count += 1
    return CriterionRow(
        "frame_and_equivariance",
        "verdicts invariant under 20 frame rotations and 10 group elements",
        f"{rot_count} rotations and {equi_count} group elements, invariant={ok}",
        ok and rot_count == 20 and equi_count == 10,
    )


def criterion_spinc_case() -> CriterionRow:
    ok = True
    notes: List[str] = []
    for half in (2, 3):
        n = 2 * half
        psi = basis_spinor(n, (1,) * (n // 2))
        verdict = check_spinc_pure(psi)
        form = spinc_form(psi)
        j0_ok = eta_hat(form) == eta_hat(two_form_from_terms(
            n, {(2 * a + 1, 2 * a + 2): -1 for a in range(half)}))
        ok = ok and verdict and j0_ok
        notes.append(f"n={half}: check={verdict} hat=-J0:{j0_ok}")
    return CriterionRow(
        "spinc_special_case",
        "(eta + n sqrt(-1)).phi = 0 and hat = -J0 for the top basis spinor, n=2,3",
        "; ".join(notes),
        ok,
    )


# The even Clifford algebra Cl0_r is M_k(K) or M_k(K) + M_k(K) with
# K in {R, C, H}, by r mod 8 (Lawson-Michelsohn, Spin Geometry, I.4): here
# residue -> (dim_R K, v_r).  Counting dimensions, 2^(r-1) = v_r d_r^2 / dim_R K
# for the irreducible module dimension d_r = k dim_R K.
_EVEN_CLIFFORD_TYPE = {
    1: (1, 1), 2: (2, 1), 3: (4, 1), 4: (4, 2),
    5: (4, 1), 6: (2, 1), 7: (1, 1), 8: (1, 2),
}


def criterion_rep_constants() -> CriterionRow:
    table_ok = True
    for r in range(1, 17):
        got = cl_dims(r)
        dim_k, v = _EVEN_CLIFFORD_TYPE[((r - 1) % 8) + 1]
        if got.v_r != v or got.v_r * got.d_r ** 2 != 2 ** (r - 1) * dim_k:
            table_ok = False
    phi1 = catalog.build_spin7_pure().spinor
    d1, _ = commutant([eta_hat(form) for form in etas(phi1).values()], True)
    qk = catalog.build_qk_pure(1).spinor
    d2, _ = commutant([eta_hat(form) for form in etas(qk).values()], True)
    ok = table_ok and d1 == 0 and d2 == 3
    return CriterionRow(
        "representation_constants",
        "dimension table rows r=1..16; skew commutant dims 0 (rank 7) and 3 (qk m=1)",
        f"table={table_ok}, commutant(spin7)={d1}, commutant(qk m=1)={d2}",
        ok,
    )


def criterion_qk_recursion() -> CriterionRow:
    results = {m: catalog.eta13_recursion_check(m) for m in (1, 2, 3)}
    return CriterionRow(
        "qk_ladder_recursion",
        "eta13 . psi_j = -2[(j+1) psi_(j+1) + (j-1-m) psi_(j-1)] for m=1,2,3",
        ", ".join(f"m={m}:{v}" for m, v in results.items()),
        all(results.values()),
    )


CRITERIA: List[Callable[[], CriterionRow]] = [
    criterion_spin7_eta_table,
    criterion_purity_certificates,
    criterion_g2_recovery,
    criterion_spin7_annihilators,
    criterion_qk_stabilizer,
    criterion_generic_reducing,
    criterion_vanishing_identities,
    criterion_hat_commutators,
    criterion_frame_equivariance,
    criterion_spinc_case,
    criterion_rep_constants,
    criterion_qk_recursion,
]


def report_all() -> List[CriterionRow]:
    """Run every criterion serially, in the fixed row order."""
    return [f() for f in CRITERIA]
