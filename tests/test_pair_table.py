"""The one sign table for e_a e_b, and the two kernels that read it,
against the generator path.

``spinrep._pair_patterns`` serves induced forms (``ImageTable.induced_form``)
and the one bivector action of spin(n) + spin(r) (``twisted._bivector_map``),
through which 2-forms (``forms.form_action``), twist bivectors
(``twist_bivector_action``) and Lie-algebra elements (``ambient_annihilates``)
act.  The oracles here apply single generators one after the other
(``_generator_on_map``, ``form_action_on_spin_slot``, ``mu_slot``,
``kappa_generator``) and pair with ``twisted_hermitian``; none of them reads
the table.
"""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from spinor_forge.analysis import AmbientElement, _ambient_pairs, ambient_annihilates, annihilator
from spinor_forge.catalog import build_qk_pure, build_spin7_pure, build_spin7_reducing
from spinor_forge.errors import ShapeMismatch
from spinor_forge.forms import ImageTable, form_action, two_form_from_terms
from spinor_forge.scalars import gr
from spinor_forge.spinrep import (
    FormTerm,
    _generator_on_map,
    _pair_patterns,
    _slot_unit,
    all_basis_indices,
    kappa_generator,
)
from spinor_forge.twisted import (
    ScaledSpinor,
    _bivector_map,
    form_action_on_spin_slot,
    mu_slot,
    twist_bivector_action,
    twisted_hermitian,
)

from .test_spinrep import random_gaussian

# n = 1..12 (both parities), r cycling through 2..9, m = 0..3
SHAPES = [(n, 2 + (n + m) % 8, m) for n in range(1, 13) for m in range(4)]


def rational_spinor(n, r, m, rng, terms, scale2=None):
    """A seeded spinor with rational complex coefficients on ``terms`` random
    basis indices (fewer where the space is smaller)."""
    spin, twist = all_basis_indices(n), all_basis_indices(r)
    coeffs = {}
    while not coeffs:
        for _ in range(terms):
            key = (rng.choice(spin), tuple(rng.choice(twist) for _ in range(m)))
            coeffs[key] = random_gaussian(rng)
        coeffs = {k: c for k, c in coeffs.items() if c}
    s2 = scale2 if scale2 is not None else F(rng.randint(1, 5), rng.randint(1, 7))
    return ScaledSpinor(n, r, m, coeffs, s2)


def rational_form(n, rng, density):
    return two_form_from_terms(n, {
        (a, b): F(rng.randint(-7, 7), rng.randint(1, 5))
        for a, b in combinations(range(1, n + 1), 2) if rng.random() < density})


def test_table_entries_match_two_generators():
    """Each entry ((a, b), mask, sign, mixed) at pattern d, for dim <= 32,
    against e_b then e_a applied by ``_generator_on_map`` to one basis
    vector, on a slot at offset 0 and at offset 3 with bits set below and
    above the slot; a coefficient 3 + 5i tells every unit of Z[i] apart."""
    rng = random.Random(1701)
    for dim in range(1, 33):
        k = dim // 2
        indices = range(2 ** k) if k <= 4 else [0, 2 ** k - 1] + rng.sample(range(2 ** k), 14)
        for d, group in _pair_patterns(dim):
            for (a, b), mask, sign, mixed in group:
                for offset in (0, 3):
                    outside = 0b101 | (0b11 << (offset + k)) if offset else 0
                    for v in indices:
                        idx = v << offset | outside
                        got = _generator_on_map({idx: (3, 5)}, *_slot_unit(offset, dim, b))
                        got = _generator_on_map(got, *_slot_unit(offset, dim, a))
                        re, im = (-5, 3) if mixed else (3, 5)
                        if ((v & mask).bit_count() + sign) & 1:
                            re, im = -re, -im
                        assert got == {idx ^ d << offset: (re, im)}, (dim, a, b, offset, v)


@pytest.mark.parametrize("n,r,m", SHAPES)
def test_form_action_matches_generator_path(n, r, m):
    rng = random.Random(100 * n + 10 * r + m)
    for terms, density in ((3, 0.3), (40, 1.0)):
        phi = rational_spinor(n, r, m, rng, terms)
        for omega in (rational_form(n, rng, density), rational_form(n, rng, 0.1)):
            got = form_action(omega, phi)
            assert all(re or im for re, im in got._data.values())
            terms = [FormTerm((a, b), c) for a, b, c in omega.terms()]
            assert got == form_action_on_spin_slot(terms, phi)
    with pytest.raises(ShapeMismatch):  # a 2-form on R^(n+1)
        form_action(rational_form(n + 1, rng, 1.0), phi)


def generator_form(w, phi):
    """-scale2 Re< e_b . w, e_a . phi >, a < b, from single generators."""
    n = phi.n
    left = [kappa_generator(n, b, w) for b in range(1, n + 1)]
    right = [kappa_generator(n, a, phi) for a in range(1, n + 1)]
    return two_form_from_terms(n, {(a, b): -twisted_hermitian(left[b - 1], right[a - 1]).re
                                   for a, b in combinations(range(1, n + 1), 2)})


@pytest.mark.parametrize("n,r,m", SHAPES)
def test_induced_form_matches_generator_path(n, r, m):
    """Arbitrary w of phi's shape, twist-bivector images among them, and
    sparse and dense supports, so that groups hold one or many candidates."""
    rng = random.Random(200 * n + 10 * r + m)
    for terms in (3, 40):
        phi = rational_spinor(n, r, m, rng, terms)
        table = ImageTable(phi)
        ws = [rational_spinor(n, r, m, rng, terms, phi.scale2), phi, phi.scale(gr(0, 1))]
        if m and r >= 2:
            ws.append(twist_bivector_action(1, 2, phi))
        for w in ws:
            got, want = table.induced_form(w), generator_form(w, phi)
            assert (got._den, got._terms) == (want._den, want._terms), (n, r, m, terms)


def test_image_table_groups_support_by_twist_bits():
    """supp phi is grouped by the bits above the spin slot, so a pattern
    (spin bits only) finds its candidates in one group."""
    rng = random.Random(33)
    for n, r, m in ((4, 3, 3), (5, 4, 2), (8, 7, 1), (3, 2, 2)):
        phi = rational_spinor(n, r, m, rng, 60)
        groups = ImageTable(phi).groups
        assert sorted(v for group in groups.values() for v, _, _ in group) == sorted(phi._data)
        for (spin, twist), c in phi.coeffs.items():
            v = phi._index(spin, twist)
            key = phi._index((-1,) * (n // 2), twist)  # the twist bits alone
            assert key >> (n // 2) in groups
            assert (v, *phi._data[v]) in groups[key >> (n // 2)]
        assert len(groups) == len({twist for _, twist in phi.coeffs})


def slot_sum(phi, apply):
    out = phi.scale(gr(0))
    for a in range(1, phi.m + 1):
        out = out + apply(a)
    return out


@pytest.mark.parametrize("n,r,m", SHAPES)
def test_twist_bivector_action_matches_generator_path(n, r, m):
    """k < l against mu_slot of f_k f_l; every k, l (k > l and k == l
    included) against f_k applied after f_l on each slot, and k == l
    against -m phi."""
    rng = random.Random(300 * n + 10 * r + m)
    for terms in (3, 40):
        phi = rational_spinor(n, r, m, rng, terms)
        for k in range(1, r + 1):
            for l in range(1, r + 1):
                got = twist_bivector_action(k, l, phi)
                assert all(re or im for re, im in got._data.values())
                if k < l:
                    assert got == slot_sum(phi, lambda a: mu_slot(a, [FormTerm((k, l))], phi))
                after = slot_sum(phi, lambda a: mu_slot(a, [FormTerm((k,))],
                                                        mu_slot(a, [FormTerm((l,))], phi)))
                assert got == after, (k, l)
            assert twist_bivector_action(k, k, phi) == phi.scale(gr(-m))


def random_element_terms(n, r, rng, density):
    """Seeded integer terms {(i, j): x} over the pairs i < j of spin(n + r)
    that ``_bivector_map`` reads: spin pairs (j <= n) and twist pairs
    (n + k, n + l), each kept with probability ``density``."""
    pairs = list(combinations(range(1, n + 1), 2))
    pairs += [(n + k, n + l) for k, l in combinations(range(1, r + 1), 2)]
    return {p: x for p in pairs if rng.random() < density and (x := rng.randint(-9, 9))}


def slot_oracle(terms, phi):
    """The spin part by ``form_action_on_spin_slot`` plus the twist part by
    ``mu_slot`` on every slot; neither reads the pair table."""
    n = phi.n
    spin = [FormTerm((i, j), x) for (i, j), x in terms.items() if j <= n]
    twist = [FormTerm((i - n, j - n), x) for (i, j), x in terms.items() if j > n]
    out = form_action_on_spin_slot(spin, phi)
    for a in range(1, phi.m + 1):
        out = out + mu_slot(a, twist, phi)
    return out


@pytest.mark.parametrize("n,r,m", SHAPES)
def test_bivector_map_matches_slot_oracles(n, r, m):
    """The one action on elements with a spin part, a twist part or both,
    against the slot oracles; cancelled entries are dropped."""
    rng = random.Random(400 * n + 10 * r + m)
    for terms, density in ((3, 0.3), (40, 1.0)):
        phi = rational_spinor(n, r, m, rng, terms)
        for _ in range(3):
            x = random_element_terms(n, r, rng, density)
            for part in (x, {p: v for p, v in x.items() if p[1] <= n},
                         {p: v for p, v in x.items() if p[1] > n}):
                got = _bivector_map(phi, part, phi._data)
                assert all(re or im for re, im in got.values())
                assert phi._with(phi._den, got) == slot_oracle(part, phi), (n, r, m, part)
    assert _bivector_map(phi, {}, phi._data) == {}


def perturbed(x, p):
    """x with the coefficient of the pair p of spin(n + r) raised by 1."""
    flat = dict(zip(_ambient_pairs(x.n, x.r), x.flat()))
    flat[p] += 1
    n = x.n
    return AmbientElement(x.n, x.r, a={q: c for q, c in flat.items() if q[1] <= n},
                          b={(i - n, j - n): c for (i, j), c in flat.items() if j > n})


ANNIHILATOR_CASES = [(f"qk({m})", lambda m=m: [build_qk_pure(m).spinor]) for m in range(1, 6)]
ANNIHILATOR_CASES.append(("spin7 pair", lambda: [build_spin7_pure().spinor,
                                                 build_spin7_reducing().spinor]))


@pytest.mark.parametrize("label,spinors", ANNIHILATOR_CASES, ids=[c[0] for c in ANNIHILATOR_CASES])
def test_annihilator_basis_kills_its_spinors(label, spinors):
    """Every annihilator basis element kills its spinors under the one
    action; at qk(2) and the spin7 pair no basis element with one
    coefficient raised by 1 does, since (x + e_p) . phi = e_p . phi != 0."""
    phis = spinors()
    alg = annihilator(phis)
    assert alg.dim and alg.closed
    for x in alg.basis:
        assert all(ambient_annihilates(x, phi) for phi in phis), label
    if label in ("qk(2)", "spin7 pair"):
        for x in alg.basis:
            for p in _ambient_pairs(x.n, x.r):
                y = perturbed(x, p)
                assert not any(ambient_annihilates(y, phi) for phi in phis), (label, p)
