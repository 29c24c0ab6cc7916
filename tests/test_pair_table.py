"""The one pair table for e_a e_b, the signed flip of a Clifford monomial,
and the kernels that read them, against a generator chain.

``spinrep._monomial`` folds a product of generators into one signed flip;
``spinrep._pair_acts`` is its one table for the pairs a < b.  They serve
the induced-form pairing ``twisted._induced`` (through
``forms._induced_form``, with supp phi grouped by ``twisted._twist_groups``)
and the one walk
``spinrep._walk``, through which 2-forms (``forms.form_action``), twist
bivectors (``twist_bivector_action``), Lie-algebra elements
(``ambient_annihilates``), the annihilator's columns and every slot
action (``tangent_action``, ``form_action_on_spin_slot``, ``mu_slot``,
``twisted_group_action``) act.  So none of those can serve as an oracle
here.  The records themselves are checked against the oracle's sparse
generators (``oracle.monomial_on_basis``), which read no bit and no
record.  The oracles of ``helpers.py`` apply single generators one after
the other: ``chain`` (the same sparse step, itself checked against the
dense model here), and the induced form by its definition,
``definition_form`` (``kappa_generator`` paired by ``twisted_hermitian``).
None of them reads the table.  The dense Kronecker model of ``oracle.py``
checks the same kernels from outside the library in ``test_kernel``,
``test_forms`` and ``test_analysis``.
"""

import math
import random
from fractions import Fraction as F
from functools import cache
from itertools import combinations, product

import pytest

from spinor_forge import spinrep, twisted
from spinor_forge.analysis import AmbientElement, _ambient_pairs, ambient_annihilates, annihilator
from spinor_forge.catalog import build_qk_pure, build_spin7_pure, build_spin7_reducing
from spinor_forge.errors import ShapeMismatch
from spinor_forge.forms import _induced_form, form_action, two_form_from_terms
from spinor_forge.linalg import nullspace, random_unit_vector
from spinor_forge.scalars import gr
from spinor_forge.spinrep import (
    FormTerm,
    _monomial,
    _pair_acts,
    _slot_unit,
    all_basis_indices,
    kappa_generator,
)
from spinor_forge.twisted import (
    ScaledSpinor,
    _bivector_map,
    _twist_generator,
    _twist_groups,
    form_action_on_spin_slot,
    mu_slot,
    tangent_action,
    twist_bivector_action,
    twisted_group_action,
)

from . import oracle
from .helpers import chain, definition_form, random_gaussian

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


def vector_terms(x):
    return [((j,), c) for j, c in enumerate(x, start=1) if c]


@cache
def signs(v, k):
    """The sign tuple of the slot bits v: the last entry is the lowest bit,
    and a set bit means +1."""
    return tuple(1 if v >> (k - 1 - t) & 1 else -1 for t in range(k))


def assert_record_is_the_oracle_step(dim, factors, record, vs):
    """The signed flip (d, x, mask, mixed) of e_(i1)...e_(is) sends the
    basis vector of slot bits v to v ^ d times (-1)^parity(v & mask) x,
    times i if mixed: checked against the oracle's generators one at a
    time, on each v of vs, on the spin slot of (dim, 0, 0)."""
    d, x, mask, mixed = record
    k = dim // 2
    got = oracle.monomial_on_basis((dim, 0, 0), 0, factors, [(signs(v, k), ()) for v in vs])
    want = {(signs(v, k), ()): ((signs(v ^ d, k), ()),
                                (mixed + 2 * ((x < 0) + (v & mask).bit_count())) % 4)
            for v in vs}
    assert got == want, (dim, factors)


def test_monomial_matches_generator_chain():
    """(d, x, mask, mixed) of every factor tuple of length <= 4 for dim <= 9
    (any order, repeats included) and of seeded tuples up to dim 32,
    against the oracle's generators applied one at a time to a seeded
    basis vector."""
    rng = random.Random(1902)
    cases = [(dim, f) for dim in range(1, 10) for s in range(5)
             for f in product(range(1, dim + 1), repeat=s)]
    cases += [(dim, tuple(rng.randint(1, dim) for _ in range(rng.randint(0, 7))))
              for dim in range(10, 33) for _ in range(40)]
    for dim, factors in cases:
        k = dim // 2
        d, x, mask, mixed = record = _monomial(dim, factors)
        assert x in (1, -1) and mixed in (0, 1) and d < 2 ** k and mask < 2 ** k, (dim, factors)
        assert_record_is_the_oracle_step(dim, factors, record, [rng.randrange(2 ** k)])


def test_pair_patterns_are_the_monomials_of_pairs():
    """Each entry (a, b) -> (d, x, mask, mixed) is ``_monomial(dim, (a, b))``
    with x = +-1, mixed in {0, 1} and d = flip_a ^ flip_b, and every pair
    a < b has one entry, in b-major order, for dim 1..32."""
    for dim in range(1, 33):
        table = _pair_acts(dim)
        assert list(table) == [(a, b) for b in range(2, dim + 1) for a in range(1, b)]
        for (a, b), (d, x, mask, mixed) in table.items():
            assert x in (1, -1) and mixed in (0, 1)
            assert table[(a, b)] == _monomial(dim, (a, b)), (dim, a, b)
            assert d == _slot_unit(dim, a)[0] ^ _slot_unit(dim, b)[0]


def test_slot_actions_apply_no_generator(monkeypatch):
    """With every generator application refused, the slot actions give the
    generator chain's results: a vector, a sum of monomials up to 4-forms,
    twist-slot forms on each slot, a group element [g, h] and every twist
    bivector."""
    def refuse(*args):
        raise AssertionError("generator applied")

    rng = random.Random(1903)
    cases = []
    for n, r, m in ((6, 4, 2), (5, 3, 3), (8, 7, 1), (7, 5, 2), (4, 2, 1)):
        phi = rational_spinor(n, r, m, rng, 20)
        x = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        products = [list(combinations(range(1, n + 1), s)) for s in range(5)]
        spin_terms = [FormTerm(f, F(rng.randint(-5, 5), rng.randint(1, 3)))  # up to two per length
                      for fs in products for f in rng.sample(fs, min(2, len(fs)))]
        twist_terms = [FormTerm(f, F(rng.randint(1, 5), rng.randint(1, 3)))
                       for s in range(4) for f in combinations(range(1, r + 1), s)]
        g = [random_unit_vector(n, rng) for _ in range(2)]
        h = [random_unit_vector(r, rng) for _ in range(2)]
        group = phi
        for y in reversed(g):
            group = chain(group, 0, vector_terms(y))
        for a in range(1, m + 1):
            for y in reversed(h):
                group = chain(group, a, vector_terms(y))
        want = (chain(phi, 0, vector_terms(x)),
                chain(phi, 0, [(t.factors, t.coeff) for t in spin_terms]),
                [chain(phi, a, [(t.factors, t.coeff) for t in twist_terms]) for a in range(1, m + 1)],
                group,
                [slot_sum(phi, lambda a, k=k, l=l: chain(phi, a, [((k, l), 1)]))
                 for k in range(1, r + 1) for l in range(1, r + 1)])
        cases.append((phi, x, spin_terms, twist_terms, g, h, want))
    for module in (spinrep, twisted):
        monkeypatch.setattr(module, "_generator_on_map", refuse)
    with pytest.raises(AssertionError, match="generator applied"):  # the patch holds
        kappa_generator(4, 1, cases[-1][0])
    for phi, x, spin_terms, twist_terms, g, h, want in cases:
        r = phi.r
        got = (tangent_action(x, phi),
               form_action_on_spin_slot(spin_terms, phi),
               [mu_slot(a, twist_terms, phi) for a in range(1, phi.m + 1)],
               twisted_group_action(g, h, phi),
               [twist_bivector_action(k, l, phi) for k in range(1, r + 1) for l in range(1, r + 1)])
        assert got == want, phi.shape()


def test_table_entries_match_two_generators():
    """Each entry (a, b) -> (d, x, mask, mixed), for dim <= 32, against e_b
    then e_a by the oracle's generators, on every basis vector of a slot of
    at most 4 bits and on 16 seeded ones of a wider slot."""
    rng = random.Random(1701)
    for dim in range(1, 33):
        k = dim // 2
        vs = range(2 ** k) if k <= 4 else [0, 2 ** k - 1] + rng.sample(range(2 ** k), 14)
        for (a, b), record in _pair_acts(dim).items():
            assert_record_is_the_oracle_step(dim, (a, b), record, vs)


@pytest.mark.parametrize("n,r,m", [(1, 2, 1), (2, 3, 2), (3, 2, 2), (4, 3, 1), (5, 4, 1), (4, 1, 3)])
def test_chain_matches_the_dense_oracle(n, r, m):
    """``chain``, the tests' sparse generator path, against the dense
    model's operators on every slot: rational sums of products of up to
    three generators, repeats included, on seeded spinors."""
    rng = random.Random(1703 + 10 * n + m)
    shape = (n, r, m)
    for slot in range(m + 1):
        dim = r if slot else n
        for _ in range(4):
            phi = rational_spinor(n, r, m, rng, 6)
            terms = [(tuple(rng.randint(1, dim) for _ in range(rng.randint(0, 3))),
                      F(rng.randint(-5, 5), rng.randint(1, 4))) for _ in range(3)]
            want = oracle.act(shape, [(slot, f, c) for f, c in terms], oracle.vector(phi))
            assert oracle.vector(chain(phi, slot, terms)) == want, (shape, slot, terms)


@pytest.mark.parametrize("n,r,m", [(1, 2, 1), (2, 3, 2), (3, 2, 2), (4, 3, 3), (5, 4, 2)])
def test_twist_generator_matches_the_dense_oracle(n, r, m):
    """``_twist_generator``, the slot-0 record shifted past the spin slot
    and the twist slots before it, against the dense model's f_i on every
    twist slot and every i, on seeded spinors."""
    rng = random.Random(1709 + 10 * n + m)
    for slot in range(1, m + 1):
        for i in range(1, r + 1):
            phi = rational_spinor(n, r, m, rng, 6)
            got = phi._with(phi._den, _twist_generator(phi, slot, i, phi._data))
            want = oracle.act((n, r, m), [(slot, (i,), 1)], oracle.vector(phi))
            assert oracle.vector(got) == want, (n, r, m, slot, i)


@pytest.mark.parametrize("n,r,m", SHAPES)
def test_form_action_matches_generator_path(n, r, m):
    rng = random.Random(100 * n + 10 * r + m)
    for terms, density in ((3, 0.3), (40, 1.0)):
        phi = rational_spinor(n, r, m, rng, terms)
        for omega in (rational_form(n, rng, density), rational_form(n, rng, 0.1)):
            got = form_action(omega, phi)
            assert all(re or im for re, im in got._data.values())
            assert got == chain(phi, 0, [((a, b), c) for a, b, c in omega.terms()])
    with pytest.raises(ShapeMismatch):  # a 2-form on R^(n+1)
        form_action(rational_form(n + 1, rng, 1.0), phi)


@pytest.mark.parametrize("n,r,m", SHAPES)
def test_induced_form_matches_generator_path(n, r, m):
    """Arbitrary w of phi's shape, twist-bivector images among them, and
    sparse and dense supports, so that groups hold one or many candidates."""
    rng = random.Random(200 * n + 10 * r + m)
    for terms in (3, 40):
        phi = rational_spinor(n, r, m, rng, terms)
        table = _induced_form(phi)
        ws = [rational_spinor(n, r, m, rng, terms, phi.scale2), phi, phi.scale(gr(0, 1))]
        if m and r >= 2:
            ws.append(twist_bivector_action(1, 2, phi))
        for w in ws:
            got, want = table(w), definition_form(w, phi)
            assert (got._den, got._terms) == (want._den, want._terms), (n, r, m, terms)


def test_image_table_groups_support_by_twist_bits():
    """supp phi is grouped by the bits above the spin slot, so a pattern
    (spin bits only) finds its candidates in one group."""
    rng = random.Random(33)
    for n, r, m in ((4, 3, 3), (5, 4, 2), (8, 7, 1), (3, 2, 2)):
        phi = rational_spinor(n, r, m, rng, 60)
        groups = _twist_groups(phi)
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
    """Every k, l (k > l and k == l included) against f_k applied after f_l
    on each slot by the generator chain, and k == l against -m phi."""
    rng = random.Random(300 * n + 10 * r + m)
    for terms in (3, 40):
        phi = rational_spinor(n, r, m, rng, terms)
        for k in range(1, r + 1):
            for l in range(1, r + 1):
                got = twist_bivector_action(k, l, phi)
                assert all(re or im for re, im in got._data.values())
                assert got == slot_sum(phi, lambda a: chain(phi, a, [((k, l), 1)])), (k, l)
            assert twist_bivector_action(k, k, phi) == phi.scale(gr(-m))


def random_element_terms(n, r, rng, density):
    """Seeded integer terms {(i, j): x} over the pairs i < j of spin(n + r)
    that ``_bivector_map`` reads: spin pairs (j <= n) and twist pairs
    (n + k, n + l), each kept with probability ``density``."""
    pairs = list(combinations(range(1, n + 1), 2))
    pairs += [(n + k, n + l) for k, l in combinations(range(1, r + 1), 2)]
    return {p: x for p in pairs if rng.random() < density and (x := rng.randint(-9, 9))}


def slot_oracle(terms, phi):
    """The spin part on the Delta_n slot plus the twist part on every twist
    slot, each by the generator chain; reads no table."""
    n = phi.n
    spin = [((i, j), x) for (i, j), x in terms.items() if j <= n]
    twist = [((i - n, j - n), x) for (i, j), x in terms.items() if j > n]
    out = chain(phi, 0, spin)
    for a in range(1, phi.m + 1):
        out = out + chain(phi, a, twist)
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
                got = _bivector_map(phi, part)
                assert all(re or im for re, im in got.values())
                assert phi._with(phi._den, got) == slot_oracle(part, phi), (n, r, m, part)
    assert _bivector_map(phi, {}) == {}


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


def chain_annihilator(phis):
    """The annihilator's basis as (den, terms), reduced, from columns built
    by the generator chain (``slot_oracle`` of each basis pair, written
    over phi's denominator): the re and im rows of each output index in
    ascending order, solved by ``linalg.nullspace``; reads no table."""
    n, r, _ = phis[0].shape()
    keys = _ambient_pairs(n, r)
    rows = []
    for phi in phis:
        cols = []
        for p in keys:
            col = slot_oracle({p: 1}, phi)
            q, rem = divmod(phi._den, col._den)
            assert rem == 0
            cols.append({idx: (q * re, q * im) for idx, (re, im) in col._data.items()})
        for idx in sorted(set().union(*cols)):
            for part in (0, 1):
                row = {j: col[idx][part] for j, col in enumerate(cols)
                       if idx in col and col[idx][part]}
                if row:
                    rows.append(row)
    basis = []
    for den, vec in nullspace(rows, len(keys)):
        g = math.gcd(den, *vec.values())
        basis.append((den // g, {keys[c]: v // g for c, v in vec.items() if v}))
    return basis


ORACLE_SHAPES = [(n, 2 + (n + m) % 4, m) for n in range(1, 10) for m in range(4)]


@pytest.mark.parametrize("n,r,m", ORACLE_SHAPES)
def test_annihilator_matches_generator_chain_oracle(n, r, m):
    """Seeded spinors with small supports, one and two at a time (odd n
    and m = 0 included): the same basis as the generator-chain columns."""
    rng = random.Random(500 * n + 10 * r + m)
    cases = [[rational_spinor(n, r, m, rng, terms)] for terms in (1, 2, 4)]
    cases.append([rational_spinor(n, r, m, rng, 2) for _ in range(2)])
    for phis in cases:
        got = [(x._den, x._terms) for x in annihilator(phis).basis]
        assert got == chain_annihilator(phis), (n, r, m, [phi._data for phi in phis])


def test_annihilator_of_the_spin7_pair_matches_generator_chain_oracle():
    phis = [build_spin7_pure().spinor, build_spin7_reducing().spinor]
    got = [(x._den, x._terms) for x in annihilator(phis).basis]
    assert len(got) == 14 and got == chain_annihilator(phis)
