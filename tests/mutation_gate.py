"""Mutation gate for the library: every listed mutant must fail its tests.

Run from the repository root (stdlib only; pytest runs the tests):

    python tests/mutation_gate.py          # every mutant
    python tests/mutation_gate.py --list   # the mutants and their tests

Each mutant is (name, file under src/spinor_forge, exact old text, new
text, the tests expected to kill it).  The gate first runs every named test
on an unmutated copy of ``src/``, which must pass.  Then, for each mutant,
it copies ``src/`` to a temporary directory, requires the old text to occur
exactly once in the file, replaces it, and runs the mutant's tests against
the copy.  A mutant is killed when one of its tests fails; a mutant whose
tests all pass has survived, and one whose tests cannot run (it breaks an
import, or a test name is stale) counts as neither.  The gate exits 1
unless the baseline passes and every old text matches exactly once and
every mutant is killed, so a refactor that moves mutated code must update
this list.

The file is not named ``test_*.py``, so pytest does not collect it; Tier-1
does not run it.  Mutation testing after DeMillo, Lipton & Sayward, "Hints
on test data selection", IEEE Computer 1978.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KERNEL = "tests/test_kernel.py::"
RECORDS = KERNEL + "test_walk_and_pair_are_sums_over_their_records"
WALK_ORACLE = KERNEL + "test_walk_matches_the_oracle_on_both_multi_record_paths"
EQUIVARIANT = "tests/test_analysis.py::test_annihilator_is_equivariant"
FIRST_VIOLATION = "tests/test_analysis.py::test_even_clifford_names_the_first_violation"
CLIFFORD_REFERENCE = "tests/test_analysis.py::test_even_clifford_matches_the_exhaustive_reference"
GAMMA = "tests/test_spinrep.py::test_gamma_matches_dense_oracle"
REFUSALS = "tests/test_analysis.py::test_checkers_reject_zero_and_small_rank"
NO_TWIST_PAIRS = "tests/test_analysis.py::test_frame_rotation_without_twist_pairs"
CONTRACT = "tests/test_contract.py::test_hostile_values_raise_only_typed_errors"
INDUCED = "tests/test_pair_table.py::test_induced_form_matches_generator_path"
TRANSCRIPT = "tests/test_cli_transcript.py::test_cli_transcript_matches_golden"
PHI_TERMS = "tests/test_forms.py::test_phi_extend_is_the_sum_of_its_etas_and_walks_only_nonzero_pairs"
AMBIENT_PARTS = "tests/test_analysis.py::test_ambient_element_reads_each_part_against_its_own_dimension"
HELPERS = "tests/test_contract.py::test_module_helpers_refuse_bools_floats_and_hostile_terms"

MUTANTS = [
    ("_walk keeps one record per d", "spinrep.py",
     "groups.setdefault(flip[0], []).append(flip)",
     "groups[flip[0]] = [flip]",
     [RECORDS]),
    ("_walk's multi-record path ignores the mask parity", "spinrep.py",
     "                        if (v & mask).bit_count() & 1:\n                            x = -x",
     "                        if False:\n                            x = -x",
     [RECORDS, WALK_ORACLE]),
    ("the sign-class table drops the base parity", "spinrep.py",
     "cr, ci = (odd if (v & base).bit_count() & 1 else even)[v & spread]",
     "cr, ci = even[v & spread]",
     [RECORDS, WALK_ORACLE]),
    ("the sign-class subset enumeration stops before spread", "spinrep.py",
     "        if sub == spread:\n            return table",
     "        if (sub - spread) & spread == spread:\n            return table",
     [RECORDS, WALK_ORACLE]),
    ("_walk's lone path ignores mixed", "spinrep.py",
     "            if mixed:  # i x (pr + i pi) = (-x pi, x pr)",
     "            if False:  # i x (pr + i pi) = (-x pi, x pr)",
     [RECORDS, KERNEL + "test_tangent_action_matches_dense_oracle"]),
    ("_pair drops the mask parity", "twisted.py",
     "            if mask and (v & mask).bit_count() & 1:",
     "            if False:",
     [RECORDS, KERNEL + "test_pair_matches_dense_oracle"]),
    ("_pair ignores mixed", "twisted.py",
     "    if mixed:  # i x (sr + i si)",
     "    if False:  # i x (sr + i si)",
     [RECORDS, KERNEL + "test_pair_matches_dense_oracle"]),
    ("_twist_generator drops the spin slot's offset", "twisted.py",
     "_shifted(_slot_unit(phi.r, i), 1, ks + (slot - 1) * kt)",
     "_shifted(_slot_unit(phi.r, i), 1, (slot - 1) * kt)",
     ["tests/test_pair_table.py::test_twist_generator_matches_the_dense_oracle"]),
    ("_bivector_map leaves twist records unscaled by x", "twisted.py",
     "            flips.extend([(d, s * x, mask, mixed)",
     "            flips.extend([(d, s, mask, mixed)",
     ["tests/test_pair_table.py::test_bivector_map_matches_slot_oracles"]),
    ("_pair_acts negates x at (2, 5)", "spinrep.py",
     "    return {(a, b): _monomial(dim, (a, b)) for b in range(2, dim + 1) for a in range(1, b)}",
     "    return {(a, b): (lambda d, x, m, c: (d, -x if (a, b) == (2, 5) else x, m, c))("
     "*_monomial(dim, (a, b))) for b in range(2, dim + 1) for a in range(1, b)}",
     [EQUIVARIANT]),
    ("vanishing_identity_failures reads identity (3) as a real part", "twisted.py",
     "_pair(_IDENTITY, wedge, w)[1] != 0",
     "_pair(_IDENTITY, wedge, w)[0] != 0",
     ["tests/test_acceptance.py::test_criterion_07_vanishing_identity_suite",
      "tests/test_analysis.py::"
      "test_vanishing_identity_harness_holds_on_the_catalog_and_checks_its_shapes"]),
    ("vanishing_identity_failures accepts a repeated quadruple index", "twisted.py",
     "not 1 <= quad[0] < quad[1]",
     "not 1 <= quad[0] <= quad[1]",
     ["tests/test_analysis.py::test_vanishing_identity_harness_refuses_bad_quadruples"]),
    ("_twist_acts negates x at (1, 3)", "twisted.py",
     "    flip = _monomial(r, (k, l))\n",
     "    flip = _monomial(r, (k, l))\n"
     "    flip = (flip[0], -flip[1], *flip[2:]) if (k, l) == (1, 3) else flip\n",
     [EQUIVARIANT]),
    ("lie_closure_report accepts every bracket", "analysis.py",
     "        if any(acc.values()):",
     "        if False and any(acc.values()):",
     ["tests/test_analysis.py::test_lie_closure_names_the_first_open_pair"]),
    ("commutant's restriction skips the last family member", "analysis.py",
     "    for h in etas:\n        # [X, M]",
     "    for h in etas[:-1]:\n        # [X, M]",
     ["tests/test_analysis.py::test_commutant_matches_the_wide_system_oracle_on_random_families"]),
    ("nullspace_of_columns keys its rows by the column index", "linalg.py",
     "rows.setdefault(label, {})[j] = v",
     "rows.setdefault(j, {})[j] = v",
     ["tests/test_linalg.py::test_nullspace_of_columns_is_nullspace_of_the_hand_transposed_rows"]),
    ("canonical_basis skips the back-substitution", "linalg.py",
     "    reduced = _back_substitute(red.pivots)\n    return [(reduced[p][p]",
     "    reduced = red.pivots\n    return [(reduced[p][p]",
     ["tests/test_linalg.py::test_canonical_basis_is_nullspace_of_any_spanning_set"]),
    ("even_clifford_verify visits the mirrored triples i > k", "analysis.py",
     "        if i > k:\n            continue",
     "        if i < k:\n            continue",
     [FIRST_VIOLATION, CLIFFORD_REFERENCE]),
    ("even_clifford_verify skips the disjoint pairs", "analysis.py",
     "        if a.compose(b) != b.compose(a):",
     "        if False:",
     [FIRST_VIOLATION, CLIFFORD_REFERENCE]),
    ("even_clifford_verify skips the chained product", "analysis.py",
     "        if ab != -full[(i, k)]:",
     "        if False:",
     [FIRST_VIOLATION, CLIFFORD_REFERENCE]),
    ("_certify keys the twist pair as (s, t)", "analysis.py",
     "(n + s, n + t): c * form._den}",
     "(s, t): c * form._den}",
     ["tests/test_analysis.py::test_check_pure_catalog_verdicts"]),
    ("lie_closure_report counts the basis as its dim", "analysis.py",
     "    return LieSubalgebra(list(basis), red.rank, closed=True)",
     "    return LieSubalgebra(list(basis), len(basis), closed=True)",
     ["tests/test_analysis.py::test_lie_closure_rescaled_and_dependent_bases"]),
    ("annihilator keys the imaginary row with the real one", "analysis.py",
     "col[label + 1] = im",
     "col[label] = im",
     ["tests/test_pair_table.py::test_annihilator_matches_generator_chain_oracle"]),
    ("annihilator drops s from the row label", "analysis.py",
     "label = 2 * (idx * count + s)",
     "label = 2 * idx",
     ["tests/test_analysis.py::test_annihilator_of_a_repeated_spinor_is_unchanged"]),
    ("_pattern_slots reads the sign as x > 0", "twisted.py",
     "append((slot, mask, x < 0, mixed))",
     "append((slot, mask, x > 0, mixed))",
     ["tests/test_forms.py::test_eta_matches_dense_oracle"]),
    ("squares_to_minus_identity stops before the last row", "forms.py",
     "        for i, row in enumerate(rows):\n            acc: SparseRow = {}",
     "        for i, row in enumerate(rows[:-1]):\n            acc: SparseRow = {}",
     ["tests/test_forms.py::test_square_check_row_by_row_matches_compose"]),
    ("_back_substitute clears the first pivot first", "linalg.py",
     "    for col in sorted(pivots, reverse=True):",
     "    for col in sorted(pivots):",
     ["tests/test_linalg.py::test_nullspace_is_the_canonical_basis_of_a_plain_rref_oracle"]),
    ("_sparse_int_row drops a zero float unread", "linalg.py",
     "for col, x in items if x or type(x) not in _EXACT_TYPES}",
     "for col, x in items if x}",
     ["tests/test_linalg.py::test_inexact_entries_raise_inexact_scalar"]),
    ("_sparse_int_row iterates a row that is no sequence", "linalg.py",
     'else enumerate(check_sequence("row", row)))',
     "else enumerate(row))",
     [HELPERS + "[rank int row]", HELPERS + "[span_contains int vec]"]),
    ("cayley_so iterates a matrix that is no sequence", "linalg.py",
     '    s = [[exact_rational(x) for x in check_sequence("matrix row", row)]\n'
     '         for row in check_sequence("matrix", skew)]\n',
     "    s = [[exact_rational(x) for x in row] for row in skew]\n",
     [HELPERS + "[cayley_so int]", HELPERS + "[cayley_so int row]"]),
    ("nullspace reads a bool width as 1", "linalg.py",
     '    check_indices("width", width)\n    red = RowReducer()\n',
     "    red = RowReducer()\n",
     [HELPERS + "[nullspace width bool]", HELPERS + "[nullspace width float]"]),
    ("nullspace lets a column outside the width through", "linalg.py",
     "        if min(r) < 0 or max(r) >= width:",
     "        if False:",
     [HELPERS + "[nullspace column outside width]",
      "tests/test_linalg.py::test_nullspace_of_structured_systems"]),
    ("nullspace_of_columns iterates columns that are no sequence", "linalg.py",
     'enumerate(check_sequence("columns", columns))',
     "enumerate(columns)",
     [HELPERS + "[nullspace_of_columns int]"]),
    ("nullspace_of_columns iterates a column that is no mapping", "linalg.py",
     'check_mapping("column", col).items()',
     "col.items()",
     [HELPERS + "[nullspace_of_columns int column]"]),
    ("canonical_basis reads a bool width as 1", "linalg.py",
     '    check_indices("width", width)\n    red, last = RowReducer(), width - 1\n',
     "    red, last = RowReducer(), width - 1\n",
     [HELPERS + "[canonical_basis width bool]", HELPERS + "[canonical_basis width float]"]),
    ("canonical_basis lets a column outside the width through", "linalg.py",
     "        if r and (min(r) < 0 or max(r) >= width):",
     "        if False:",
     [HELPERS + "[canonical_basis column outside width]"]),
    ("canonical_basis iterates vectors that are no sequence", "linalg.py",
     'for vec in check_sequence("vectors", vectors):',
     "for vec in vectors:",
     [HELPERS + "[canonical_basis int]"]),
    ("transpose iterates a matrix that is no sequence", "linalg.py",
     'zip(*(check_sequence("matrix row", row)\n'
     '                                       for row in check_sequence("matrix", a)))',
     "zip(*a)",
     [HELPERS + "[transpose int]", HELPERS + "[transpose int row]"]),
    ("_slot_unit gives g2 x = +1", "spinrep.py",
     "(bit, -1, tail | bit, 0)",
     "(bit, 1, tail | bit, 0)",
     ["tests/test_spinrep.py::test_lazy_generator_matches_dense_oracle",
      KERNEL + "test_tangent_action_matches_dense_oracle"]),
    ("_monomial drops the parity of d & m", "spinrep.py",
     "phase += 2 * ((d & m).bit_count() + (y < 0)) + mixed",
     "phase += 2 * (y < 0) + mixed",
     [KERNEL + "test_pair_matches_dense_oracle",
      "tests/test_pair_table.py::test_monomial_matches_generator_chain"]),
    ("check_indices reads a bool as an int", "spinrep.py",
     "    for i in indices:\n        if type(i) is not int:",
     "    for i in indices:\n        if not isinstance(i, int):",
     ["tests/test_spinrep.py::test_indices_must_be_ints"]),
    ("the decoders accept a repeated basis index", "serialize.py",
     "        if index in coeffs:\n            raise MalformedInput",
     "        if False:\n            raise MalformedInput",
     ["tests/test_serialize.py::test_repeated_index_on_the_wire_is_refused"]),
    ("build_spin7_reducing drops the swap of terms 4 and 5", "catalog.py",
     "    terms[3:5] = [(s4, u5, v4), (s5, u4, v5)]\n",
     "    terms[3:5] = [(s4, u4, v4), (s5, u5, v5)]\n",
     ["tests/test_cli.py::test_catalog_emit_bytes_are_pinned[spin7_reducing]"]),
    ("the quaternion unit j flips the sign of one entry", "catalog.py",
     "    [(1, 3, 1), (2, 4, 1), (3, 1, -1), (4, 2, -1)],",
     "    [(1, 3, 1), (2, 4, -1), (3, 1, -1), (4, 2, -1)],",
     ["tests/test_catalog.py::test_beta_forms_are_the_pinned_lists"]),
    ("even_clifford_verify reads its keys unchecked", "analysis.py",
     '(index_pair("family key", key) for key in etas)',
     "(key for key in etas)",
     ["tests/test_analysis.py::test_even_clifford_refuses_keys_that_are_not_int_pairs"]),
    ("even_clifford_verify drops the rank cap", "analysis.py",
     "    check_dimensions(0, r)  # before any pair of a hostile rank is built\n",
     "",
     ["tests/test_analysis.py::test_even_clifford_refuses_a_rank_over_the_cap",
      "tests/test_contract.py::test_hostile_values_raise_only_typed_errors[even_clifford_verify]"]),
    ("gamma_apply skips the conjugation", "spinrep.py",
     "conj = {idx: (re, -im) for idx",
     "conj = {idx: (re, im) for idx",
     [GAMMA]),
    ("gamma_apply drops the alpha mask", "spinrep.py",
     "    alpha = sum(1 << (k - 1 - t) for t in range(0, k, 2))\n",
     "    alpha = 0\n",
     [GAMMA]),
    ("maps_G_H accepts bools", "catalog.py",
     "if type(e) is not int or e not in (1, -1):",
     "if e not in (1, -1):",
     ["tests/test_catalog.py::test_maps_G_H"]),
    ("the vanishing harness skips the sequence check", "twisted.py",
     'check_indices("quadruple index", *check_sequence("quadruple", quad))',
     'check_indices("quadruple index", *quad)',
     ["tests/test_analysis.py::test_vanishing_identity_harness_refuses_bad_quadruples"]),
    ("_certify skips the zero-spinor refusal", "analysis.py",
     "    if phi.is_zero():\n        raise ZeroSpinor(zero)",
     "    if False:\n        raise ZeroSpinor(zero)",
     [REFUSALS, NO_TWIST_PAIRS]),
    ("_certify's least rank is one lower", "analysis.py",
     "    if phi.r < least:",
     "    if phi.r < least - 1:",
     [REFUSALS, NO_TWIST_PAIRS]),
    ("_certify tests kind membership before its type", "analysis.py",
     "not isinstance(kind, str) or kind not in _KINDS",
     "kind not in _KINDS or not isinstance(kind, str)",
     [CONTRACT + "[frame_rotation_check]", CONTRACT + "[equivariance_check]"]),
    ("the η pass keeps one accumulator across images", "twisted.py",
     "    for w in images:\n        acc = [0] * len(keys)\n",
     "    acc = [0] * len(keys)\n    for w in images:\n",
     [INDUCED, "tests/test_forms.py::test_etas_equals_eta_per_pair"]),
    ("the η pass groups supp φ by the spin bits", "twisted.py",
     "groups.setdefault(v >> k, [])",
     "groups.setdefault(v & ((1 << k) - 1), [])",
     [INDUCED, "tests/test_cli.py::test_eta_of_the_dense_wire_matches_its_golden_file"]),
    ("the twist-pair check admits l = r + 1", "twisted.py",
     "1 <= l <= phi.r):",
     "1 <= l <= phi.r + 1):",
     ["tests/test_forms.py::test_phi_extend_checks_every_key",
      "tests/test_forms.py::test_eta_index_range",
      "tests/test_twisted.py::test_twist_bivector_index_range"]),
    ("_square drops the dimension check", "forms.py",
     "    check_dimensions(n)\n    rows = ",
     "    rows = ",
     ["tests/test_forms.py::test_dense_constructors_check_n_before_any_entry",
      CONTRACT + "[Endo]"]),
    ("the catalog table gives generic the dimension m", "catalog.py",
     '"generic": (build_generic_reducing, "n"),',
     '"generic": (build_generic_reducing, "m"),',
     ["tests/test_catalog.py::test_build_dispatch",
      "tests/test_cli.py::test_catalog_emit_bytes_are_pinned[generic_2]", TRANSCRIPT]),
    ("_emit ignores --json", "cli.py",
     ' == "json" or getattr(args, "json", False):',
     ' == "json":',
     ["tests/test_cli.py::test_report_matches_its_golden_file[json]",
      "tests/test_cli.py::test_each_mode_builds_only_its_own_rendering[json-annihilator]",
      TRANSCRIPT]),
    ("pure's flag skips the η̂² test", "analysis.py",
     '"square_ok", lambda form: eta_hat(form).squares_to_minus_identity()),',
     '"square_ok", lambda form: not form.is_zero()),',
     ["tests/test_analysis.py::test_certificates_match_dense_oracle[n5r3]",
      "tests/test_cli.py::test_verify_dense_wire_matches_its_golden_file[pure]", TRANSCRIPT]),
    ("Φ's element takes (n + l, n + k)", "forms.py",
     "parts[(n + k, n + l)] = c",
     "parts[(n + l, n + k)] = c",
     ["tests/test_forms.py::test_phi_extend_matches_the_dense_oracle", PHI_TERMS]),
    ("Φ's element keeps the diagonal keys", "forms.py",  # the same forms: only the spy sees it
     "        if c and k != l:\n            parts[",
     "        if c:\n            parts[",
     [PHI_TERMS]),
    ("AmbientElement reads the b-part at offset 0", "analysis.py",
     '("b", self.r, self.n)',
     '("b", self.r, 0)',
     [AMBIENT_PARTS, "tests/test_analysis.py::test_ambient_element_layout"]),
    ("the one loop checks the b-part against n", "analysis.py",
     '("b", self.r, self.n)',
     '("b", self.n, self.n)',
     [AMBIENT_PARTS]),
]


def run_tests(src: Path, tests) -> int:
    """pytest's exit code for the tests against the package under ``src``:
    0 if they pass, 1 if one fails, 2 and up if they cannot run (a
    collection error, an unknown test)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def mutate(src: Path, file: str, old: str, new: str) -> int:
    """Replace old by new in src/spinor_forge/file if it occurs exactly once;
    return the number of occurrences."""
    path = src / "spinor_forge" / file
    text = path.read_text()
    count = text.count(old)
    if count == 1:
        path.write_text(text.replace(old, new))
    return count


def main(argv) -> int:
    if "--list" in argv:
        for name, file, _, _, tests in MUTANTS:
            print(f"{file}: {name}\n    " + "\n    ".join(tests))
        return 0
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(src))
        where = subprocess.run([sys.executable, "-c", "import spinor_forge; print(spinor_forge.__file__)"],
                               env=env, capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(src)):
            print(f"the copy is not the package imported: {where!r}")
            return 1
        baseline = sorted({t for *_, tests in MUTANTS for t in tests})
        if run_tests(src, baseline):
            print("baseline: the named tests fail on the unmutated source")
            return 1
        for name, file, old, new, tests in MUTANTS:
            shutil.rmtree(src)
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            t0 = time.monotonic()
            count = mutate(src, file, old, new)
            code = run_tests(src, tests) if count == 1 else None
            if code == 1:
                verdict = "killed"
            else:
                bad += 1
                verdict = {None: f"old text occurs {count} times", 0: "SURVIVED"}.get(
                    code, f"tests cannot run (exit {code})")
            print(f"{verdict:>24}  {time.monotonic() - t0:5.1f} s  {file}: {name}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
