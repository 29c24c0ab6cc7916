"""Acceptance suite: every verifiable claim as one criterion row, all exact.

Each test runs one criterion end to end (catalog construction included),
prints its pass/fail line, and asserts exact success.  The three rows with
stated runtime budgets are timed.
"""

import time

import spinor_forge.catalog as catalog
from spinor_forge import analysis, report, twisted
from spinor_forge.analysis import AmbientElement, ClDims, ambient_annihilates, pairs
from spinor_forge.report import (
    criterion_frame_equivariance,
    criterion_g2_recovery,
    criterion_generic_reducing,
    criterion_hat_commutators,
    criterion_purity_certificates,
    criterion_qk_recursion,
    criterion_qk_stabilizer,
    criterion_rep_constants,
    criterion_spin7_annihilators,
    criterion_spin7_eta_table,
    criterion_spinc_case,
    criterion_vanishing_identities,
)


def _check(row, elapsed=None, budget=None):
    line = f"{'PASS' if row.passed else 'FAIL'}  {row.name}  [{row.computed}]"
    if elapsed is not None:
        line += f"  ({elapsed:.2f}s)"
    print(line)
    assert row.passed, f"{row.name}: expected {row.expected}, got {row.computed}"
    if budget is not None:
        assert elapsed < budget, f"{row.name} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_spin7_eta_table():
    t0 = time.monotonic()
    row = criterion_spin7_eta_table()
    _check(row, time.monotonic() - t0, budget=5.0)


def test_criterion_02_purity_certificates():
    t0 = time.monotonic()
    row = criterion_purity_certificates()
    _check(row, time.monotonic() - t0, budget=60.0)


def test_criterion_03_g2_recovery():
    t0 = time.monotonic()
    row = criterion_g2_recovery()
    _check(row, time.monotonic() - t0, budget=30.0)


def test_criterion_04_spin7_annihilators():
    _check(criterion_spin7_annihilators())


def test_criterion_05_qk_stabilizer_algebra():
    _check(criterion_qk_stabilizer())


def test_criterion_06_generic_reducing_family():
    _check(criterion_generic_reducing())


def test_generic_row_element_annihilates_with_the_plus_sign():
    """The generic row's reducing check, e_p e_q + f_p f_q in ann(phi), holds
    for every p < q of generic(n), n = 2..8; the minus sign fails."""
    for n in range(2, 9):
        phi = catalog.build_generic_reducing(n).spinor
        for pq in pairs(n):
            assert ambient_annihilates(AmbientElement(n, n, {pq: 1}, {pq: 1}), phi), (n, pq)
            assert not ambient_annihilates(AmbientElement(n, n, {pq: 1}, {pq: -1}), phi), (n, pq)


def test_generic_row_fails_when_nothing_annihilates(monkeypatch):
    monkeypatch.setattr(report, "ambient_annihilates", lambda x, phi: False)
    row = criterion_generic_reducing()
    assert "FAIL" in row.computed and not row.passed


def test_criterion_07_vanishing_identity_suite():
    _check(criterion_vanishing_identities())


def test_vanishing_row_pairs_every_identity_instance(monkeypatch):
    """Each identity instance is one integer pairing of one flip record:
    per spinor |phi|^2, (2) and (4), and per twist pair (1), (3) and one
    (5) per sampled quadruple.  50 spinors of each shape give
    50 * (12 + 18 + 108 + 18)."""
    calls = []
    real = twisted._pair

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(twisted, "_pair", counted)
    assert criterion_vanishing_identities().passed
    assert len(calls) == 7800
    assert all(len(flip) == 4 and all(type(v) is int for v in flip) for flip, _, _ in calls)


def test_vanishing_row_fails_on_a_pairing_without_parity(monkeypatch):
    """A pairing that drops the parity mask of the flip it is given fails
    the row with a nonzero failure count, so the row reads the pairing's
    values."""
    real = twisted._pair

    def no_parity(flip, a, b):
        d, x, _, mixed = flip
        return real((d, x, 0, mixed), a, b)

    monkeypatch.setattr(twisted, "_pair", no_parity)
    row = criterion_vanishing_identities()
    failures = int(row.computed.split(", ")[1].split()[0])
    assert not row.passed and failures > 0


def test_criterion_08_hat_commutator_identities():
    _check(criterion_hat_commutators())


def test_criterion_09_frame_and_equivariance():
    _check(criterion_frame_equivariance())


def test_frame_row_certifies_each_spinor_once(monkeypatch):
    """The ten rotations of a spinor share one certificate call with its
    standard frame: one call per spinor plus one per moved spinor."""
    calls = []
    real = analysis._certify

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(analysis, "_certify", counted)
    monkeypatch.setattr(report, "_certify", counted)
    assert criterion_frame_equivariance().passed
    assert calls == ["pure"] * 12


def test_frame_row_reads_the_base_verdict_from_the_standard_frame(monkeypatch):
    """A certificate whose verdict differs only in the standard frame fails
    the row, so the rotated frames are compared against that frame."""
    real = analysis._certify

    def flipped(phi, kind, frames=(None,)):
        (ok, per), *rest = real(phi, kind, frames)
        return [(not ok, per), *rest]

    monkeypatch.setattr(report, "_certify", flipped)
    row = criterion_frame_equivariance()
    assert not row.passed and row.computed.endswith("invariant=False")


def test_criterion_10_spinc_special_case():
    _check(criterion_spinc_case())


def test_criterion_11_representation_constants():
    _check(criterion_rep_constants())


def test_rep_constants_row_catches_a_wrong_module_dimension(monkeypatch):
    """The row checks cl_dims against the dimension count of Cl0_r, not
    against a restatement of cl_dims."""
    real = report.cl_dims

    def doubled_at(residue):
        return lambda r: (ClDims(r, 2 * real(r).d_r, real(r).v_r)
                          if r % 8 == residue else real(r))

    for residue in (3, 0):  # a quaternionic row and a v_r = 2 row
        monkeypatch.setattr(report, "cl_dims", doubled_at(residue))
        assert "table=False" in criterion_rep_constants().computed


def test_criterion_12_qk_ladder_recursion():
    _check(criterion_qk_recursion())


def test_report_plumbing(monkeypatch):
    """report_all preserves row order; the real criteria are exercised one
    by one above."""
    calls = []

    def make(name):
        def crit():
            calls.append(name)
            return report.CriterionRow(name, "e", "c", True)
        return crit

    fakes = [make(f"row{i}") for i in range(5)]
    monkeypatch.setattr(report, "CRITERIA", fakes)
    rows = report.report_all()
    assert [r.name for r in rows] == [f"row{i}" for i in range(5)]


def test_criteria_registry():
    assert len(report.CRITERIA) == 12
    names = [f.__name__ for f in report.CRITERIA]
    assert len(set(names)) == 12


def test_corrupted_catalog_fails_eta_row(monkeypatch):
    """Mutation check: one corrupted coefficient must flip the table row."""
    real = catalog.build_spin7_pure

    def corrupted():
        ent = real()
        coeffs = dict(ent.spinor.coeffs)
        key = next(iter(sorted(coeffs)))
        coeffs[key] = -coeffs[key]
        from spinor_forge.twisted import ScaledSpinor

        bad = ScaledSpinor(8, 7, 1, coeffs, ent.spinor.scale2)
        return catalog.CatalogEntry(
            name=ent.name, kind=ent.kind, spinor=bad,
            expected_etas=ent.expected_etas,
            expected_annihilator_dim=ent.expected_annihilator_dim)

    monkeypatch.setattr(catalog, "build_spin7_pure", corrupted)
    row = criterion_spin7_eta_table()
    assert not row.passed
