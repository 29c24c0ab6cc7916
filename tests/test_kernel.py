"""The bitmask kernel against the dense Kronecker oracle, and its canonical form.

The oracle (``oracle.py``) holds a spinor of Delta_n (x) Delta_r^(x m) as a
dense vector in standard coordinates and applies each generator as its
2x2-block Kronecker matrix on one tensor factor.  It knows nothing of bit
indices, tail masks or denominators, so a wrong bit offset or sign rule in
any slot changes a result.
"""
import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from spinor_forge import spinrep
from spinor_forge.scalars import gr
from spinor_forge.serialize import scaled_spinor_from_json, scaled_spinor_to_json
from spinor_forge.spinrep import (
    FormTerm, _monomial, _pair_acts, _walk, all_basis_indices, spinor_dim_exponent,
)
from spinor_forge.twisted import (
    _IDENTITY,
    ScaledSpinor,
    _pair,
    _twist_acts,
    mu_slot,
    tangent_action,
    twist_bivector_action,
    twisted_hermitian,
)

from . import oracle
from .helpers import chain

# (n, r, m): odd n, odd r with one and with two twist bits, even r.
SHAPES = [(5, 3, 3), (3, 5, 3), (3, 4, 3)]


def coprime_gaussian(rng):
    """p/q + (p'/q')i with coprime denominators q and q'."""
    q, q2 = rng.choice([(3, 4), (5, 7), (2, 9), (7, 10), (1, 3)])
    return gr(F(rng.choice([-5, -4, -2, -1, 1, 3, 4]), q), F(rng.choice([-3, -1, 1, 2, 5]), q2))


def random_spinor(n, r, m, rng, terms=9):
    spins, twists = all_basis_indices(n), all_basis_indices(r)
    coeffs = {(rng.choice(spins), tuple(rng.choice(twists) for _ in range(m))):
              coprime_gaussian(rng) for _ in range(terms)}
    return ScaledSpinor(n, r, m, coeffs, F(rng.randint(1, 7), rng.randint(1, 7)))


def spinors(shape, seed):
    rng = random.Random(seed)
    return [random_spinor(*shape, rng) for _ in range(2)], rng


@pytest.mark.parametrize("shape", SHAPES)
def test_tangent_action_matches_dense_oracle(shape):
    (phi, _), rng = spinors(shape, 1)
    n, v = phi.n, oracle.vector(phi)
    for j in range(1, n + 1):  # every spin generator alone
        x = [F(0)] * n
        x[j - 1] = F(1)
        want = oracle.act(shape, [(0, (j,), 1)], v)
        assert oracle.vector(tangent_action(x, phi)) == want, (shape, j)
    x = [F(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(n)]
    want = oracle.act(shape, [(0, (j,), c) for j, c in enumerate(x, 1)], v)
    got = tangent_action(x, phi)
    assert any(want) and oracle.vector(got) == want and got.scale2 == phi.scale2


@pytest.mark.parametrize("shape", SHAPES)
def test_mu_slot_matches_dense_oracle_on_every_slot(shape):
    (phi, _), rng = spinors(shape, 2)
    r, v = phi.r, oracle.vector(phi)
    for a in range(1, phi.m + 1):
        for i in range(1, r + 1):
            got = oracle.vector(mu_slot(a, [FormTerm((i,))], phi))
            assert got == oracle.act(shape, [(a, (i,), 1)], v), (shape, a, i)
        # a two-factor product with a rational coefficient, plus the identity
        i, j = sorted(rng.sample(range(1, r + 1), 2))
        c = F(rng.randint(1, 4), rng.randint(2, 5))
        got = oracle.vector(mu_slot(a, [FormTerm((i, j), c), FormTerm((), F(-1, 3))], phi))
        want = oracle.act(shape, [(a, (i, j), c), (a, (), F(-1, 3))], v)
        assert got == want, (shape, a, i, j)


@pytest.mark.parametrize("shape", SHAPES)
def test_twist_bivector_action_matches_dense_oracle(shape):
    (phi, _), _ = spinors(shape, 3)
    r, v = phi.r, oracle.vector(phi)
    for k in range(1, r + 1):
        for l in range(1, r + 1):
            if k == l:
                continue
            want = oracle.act(shape, [(a, (k, l), 1) for a in range(1, phi.m + 1)], v)
            assert oracle.vector(twist_bivector_action(k, l, phi)) == want, (shape, k, l)


@pytest.mark.parametrize("shape", SHAPES)
def test_twisted_hermitian_matches_dense_oracle(shape):
    (phi, psi), _ = spinors(shape, 4)
    norm = oracle.norm(shape)
    # overlapping phi, with its own denominators: phi moved by f_1 f_2 on
    # the last slot, plus psi at phi's scale
    other = mu_slot(phi.m, [FormTerm((1, 2))], phi) + replace(psi, scale2=phi.scale2)
    far = replace(other, scale2=4 * phi.scale2)  # prefactor sqrt(s * 4s) = 2s
    for a, b, pref in ((phi, phi, 1), (phi, other, 1), (other, phi, 1), (other, other, 1),
                       (phi, far, 2), (far, phi, 2)):
        want = oracle.inner(oracle.vector(a), oracle.vector(b)) * (pref * phi.scale2 / norm)
        assert twisted_hermitian(a, b) == want
    assert twisted_hermitian(phi, other).im != 0


# -- the pairing <A.a, b> ---------------------------------------------------------

# (n, r, m): even and odd n and r, two twist slots, three twist slots.
PAIR_SHAPES = [(4, 3, 1), (5, 4, 1), (6, 3, 2), (8, 7, 1), (5, 3, 3)]


def pair_cases(phi, rng):
    """(label, flips, terms) on phi's shape: a list of signed flips (d, x,
    mask, mixed) of ``_walk`` and the same operator as (slot, dim, factors,
    c) terms for the dense oracle.  The identity, twist pairs on every slot at
    once, spin quadruples, and one mixed list: vectors, spin pairs that
    share a flip d and twist products with their own coefficient on each
    slot."""
    n, r, m = phi.shape()
    ks, kt = spinor_dim_exponent(n), spinor_dim_exponent(r)
    yield "identity", [_IDENTITY], [(0, n, (), 1)]
    for k, l in rng.sample([(k, l) for k in range(1, r + 1) for l in range(1, r + 1) if k != l], 3):
        yield f"f{k}f{l}", list(_twist_acts(n, r, m, k, l)), [(a, r, (k, l), 1) for a in range(1, m + 1)]
    quads = list(itertools.combinations(range(1, n + 1), 4))
    for quad in rng.sample(quads, min(3, len(quads))):
        yield f"e{quad}", [_monomial(n, quad)], [(0, n, quad, 1)]
    terms = [(0, n, (j,), rng.choice([-3, -1, 2, 5])) for j in range(1, n + 1)]
    terms += [(0, n, f, c) for f, c in (((1, 2), 3), ((3, 4), -2), ((1, 3), 5), ((2, 4), 1))]
    terms += [(a, r, (1, 2, 3)[:r], a + 1) for a in range(1, m + 1)]
    terms += [(a, r, (2, r), -a) for a in range(1, m + 1)]
    flips = [shifted(_monomial(dim, factors), c, ks + (slot - 1) * kt if slot else 0)
             for slot, dim, factors, c in terms]
    ds = [d for d, _, _, _ in flips]
    assert len(set(ds)) < len(ds) and any(mixed for _, _, _, mixed in flips)
    yield "mixed", flips, terms


def shifted(flip, c, off):
    """c times a signed flip on a slot whose bits start at ``off``."""
    d, x, mask, mixed = flip
    return d << off, c * x, mask << off, mixed


@pytest.mark.parametrize("shape", PAIR_SHAPES)
def test_pair_matches_dense_oracle(shape):
    """_pair(flip, a, b) is the integer <A.a, b> over a's and b's
    denominators for one record A: both parts equal the dense sum of
    (A a)_i conj(b_i), compared as values.  A list of records is paired
    both as the sum of its single-record pairings and as the identity
    pairing of its walk.  b overlaps A.a with a complex factor, so neither
    part is 0."""
    (phi, psi), rng = spinors(shape, 7)
    v, norm = oracle.vector(phi), oracle.norm(shape)
    for label, flips, terms in pair_cases(phi, rng):
        image = oracle.act(shape, [(slot, factors, c) for slot, _, factors, c in terms], v)
        b = (phi._with(phi._den, _walk(flips, phi._data)).scale(gr(F(2, 3), F(-5, 7)))
             + replace(psi, scale2=phi.scale2))
        want = oracle.inner(image, oracle.vector(b)) * F(phi._den * b._den, norm)
        singles = [_pair(f, phi._data, b._data) for f in flips]
        summed_pairs = (sum(re for re, _ in singles), sum(im for _, im in singles))
        walked = _pair(_IDENTITY, _walk(flips, phi._data), b._data)
        for got in (summed_pairs, walked):
            assert (F(got[0]), F(got[1])) == (want.re, want.im), (shape, label)
            assert got[0] and got[1], (shape, label)


# -- the record contract ----------------------------------------------------------

def contract_flips(phi, rng):
    """Signed flips on phi's shape with repeated d, nonzero masks and mixed
    records in one d: every spin pair and every twist pair of each slot,
    each with its own integer coefficient, and the spin vectors."""
    n, r, m = phi.shape()
    ks, kt = spinor_dim_exponent(n), spinor_dim_exponent(r)
    cs = [-3, -1, 2, 5]
    flips = [shifted(f, rng.choice(cs), 0) for f in _pair_acts(n).values()]
    flips += [shifted(f, rng.choice(cs), ks + a * kt)
              for a in range(m) for f in _pair_acts(r).values()]
    flips += [shifted(_monomial(n, (j,)), rng.choice(cs), 0) for j in range(1, n + 1)]
    groups = {}
    for d, _, mask, mixed in flips:
        groups.setdefault(d, []).append((mask, mixed))
    shared = [g for g in groups.values() if len(g) > 1]
    assert any(len({mixed for _, mixed in g}) == 2 for g in shared)
    assert any(mask for g in shared for mask, _ in g)
    return flips


def summed(maps):
    """The entrywise sum of integer coefficient maps, zeros dropped."""
    out = {}
    for data in maps:
        for v, (re, im) in data.items():
            a, b = out.get(v, (0, 0))
            out[v] = (a + re, b + im)
    return {v: c for v, c in out.items() if c != (0, 0)}


def dense_spinor(n, r, m, rng):
    """A spinor with a coefficient at every basis index."""
    twists = list(itertools.product(all_basis_indices(r), repeat=m))
    coeffs = {(spin, twist): coprime_gaussian(rng) for spin in all_basis_indices(n) for twist in twists}
    return ScaledSpinor(n, r, m, coeffs, F(rng.randint(1, 7), rng.randint(1, 7)))


@pytest.fixture
def tables(monkeypatch):
    """The spreads of the sign-class tables that ``_walk`` builds."""
    spreads = []
    real = spinrep._sign_classes

    def spy(group, base, spread):
        spreads.append(spread)
        return real(group, base, spread)
    monkeypatch.setattr(spinrep, "_sign_classes", spy)
    return spreads


@pytest.mark.parametrize("shape", PAIR_SHAPES)
def test_walk_and_pair_are_sums_over_their_records(shape, tables):
    """``_walk`` takes a plain list of signed flips (d, x, mask, mixed) and
    is a sum over it: the walk of a shuffled list is the walk of the list
    and the merged sum of its single-record walks.  ``_pair`` takes one
    record, and the sum of the single-record pairings is the identity
    pairing of the walk, both on a sparse spinor and on one with a
    coefficient at every basis index, which reaches the sign-class tables.
    A walk that keeps one record per d, or a path that misreads a record's
    mask or mixed flag, breaks one of them."""
    (phi, psi), rng = spinors(shape, 9)
    flips = contract_flips(phi, rng)
    for data, dense in ((phi._data, False), (dense_spinor(*shape, rng)._data, True)):
        tables.clear()
        walked = _walk(flips, data)
        assert tables or not dense, shape
        # (2 + 3i) times the walk plus psi: both parts of the pairing are nonzero
        other = summed([{v: (2 * re - 3 * im, 3 * re + 2 * im) for v, (re, im) in walked.items()},
                        psi._data])
        assert walked == summed(_walk([f], data) for f in flips)
        for _ in range(3):
            shuffled = rng.sample(flips, len(flips))
            assert _walk(shuffled, data) == walked, shape
        singles = [_pair(f, data, other) for f in flips]
        paired = (sum(re for re, _ in singles), sum(im for _, im in singles))
        assert paired == _pair(_IDENTITY, walked, other)
        assert paired[0] and paired[1], shape


# (n, r, m): odd n, with odd and even r and one to three twist slots.
WALK_SHAPES = [(5, 3, 3), (7, 4, 2), (3, 5, 3), (7, 3, 1)]


@pytest.mark.parametrize("shape", WALK_SHAPES)
def test_walk_matches_the_oracle_on_both_multi_record_paths(shape, tables):
    """The walk of every spin pair, every twist pair on each slot and the
    spin vectors, each with its own coefficient, is the sum of the oracle's
    monomial images (``helpers.chain``).  The two-bit d of a pair table
    and d = 0, where the spin vectors of odd n meet the pairs (2j-1, 2j)
    of every slot, hold three or more records each.  Distinct records of
    one d differ in their masks, so a table needs a support of at least 2
    << 1 = 4: on 3 coefficients every d takes the per-coefficient loop, and
    on a coefficient at every basis index some take the sign-class table,
    so both paths are checked against the oracle."""
    n, r, m = shape
    ks, kt = spinor_dim_exponent(n), spinor_dim_exponent(r)
    rng = random.Random(11)
    cs = [-3, -1, 2, 5]
    terms = [(0, n, factors, rng.choice(cs)) for factors in _pair_acts(n)]
    terms += [(0, n, (j,), rng.choice(cs)) for j in range(1, n + 1)]
    terms += [(a, r, factors, rng.choice(cs)) for a in range(1, m + 1) for factors in _pair_acts(r)]
    flips = [shifted(_monomial(dim, factors), c, ks + (slot - 1) * kt if slot else 0)
             for slot, dim, factors, c in terms]
    sizes = {}
    for d, *_ in flips:
        sizes[d] = sizes.get(d, 0) + 1
    assert sizes[0] >= 3 and sum(size >= 3 for size in sizes.values()) >= 2, shape
    for phi, dense in ((random_spinor(*shape, rng, terms=3), False), (dense_spinor(*shape, rng), True)):
        tables.clear()
        got = phi._with(phi._den, _walk(flips, phi._data))
        assert bool(tables) is dense, shape
        want = phi.scale(gr(0))
        for slot in range(m + 1):
            want += chain(phi, slot, [(factors, c) for a, _, factors, c in terms if a == slot])
        assert got == want, (shape, dense)


# -- canonical form ---------------------------------------------------------------

def test_equal_spinors_have_one_layout():
    rng = random.Random(5)
    for shape in SHAPES + [(4, 0, 0), (8, 7, 1)]:
        phi = random_spinor(*shape, rng)
        items = list(phi.coeffs.items())
        rng.shuffle(items)
        b = replace(random_spinor(*shape, rng), scale2=phi.scale2)
        same = [
            ScaledSpinor(*shape, dict(items), phi.scale2),  # another entry order
            phi.scale(gr(6)).scale(gr(F(1, 6))),  # rescaled numerators
            phi.scale(gr(F(2, 3), F(1, 3))).scale(gr(F(6, 5), F(-3, 5))),  # (2+i)/3 * 3(2-i)/5
            phi + phi - phi,
            phi + b - b,
        ]
        for psi in same:
            assert psi == phi and (psi._den, psi._data) == (phi._den, phi._data), shape
        assert (phi - phi).is_zero() and (phi - phi)._den == 1
        assert phi.scale(gr(2)) != phi and replace(phi, scale2=2 * phi.scale2) != phi


def test_kernel_results_round_trip_through_the_coeffs_view():
    rng = random.Random(6)
    for shape in SHAPES:
        phi = random_spinor(*shape, rng)
        moved = tangent_action([F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(phi.n)],
                               twist_bivector_action(1, 2, phi))
        # the view of a kernel result is built from its integers
        assert "coeffs" not in vars(moved)
        again = ScaledSpinor(*shape, moved.coeffs, moved.scale2)
        assert again == moved and again.coeffs == moved.coeffs
        wire = json.dumps(scaled_spinor_to_json(moved))
        assert json.dumps(scaled_spinor_to_json(scaled_spinor_from_json(json.loads(wire)))) == wire
        assert replace(moved, scale2=F(2)).coeffs == moved.coeffs
        assert replace(moved, scale2=F(2)) != moved
        # the view is read-only: it cannot drift from the kernel's integers
        for spinor in (phi, moved):
            key = next(iter(spinor.coeffs))
            with pytest.raises(TypeError):
                spinor.coeffs[key] = gr(1)
