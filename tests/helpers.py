"""Seeded draws and small exact helpers that several test modules share.

The dense model of the spinor space is in ``oracle.py``; this module holds
what is not part of it: the generator chain and the definition of an
induced form, which read the library's own generators, and the plain
Fraction Gauss-Jordan oracle of ``linalg`` (``plain_rref``,
``plain_nullspace``), which ``test_linalg`` and the commutant's wide-system
oracle in ``test_analysis`` share.  No ``test_*.py`` module imports from
another.
"""

from fractions import Fraction as F
from itertools import combinations

from spinor_forge.forms import two_form_from_terms
from spinor_forge.scalars import gr
from spinor_forge.spinrep import (
    ScaledSpinor, _generator_on_map, _slot_unit, all_basis_indices, kappa_generator,
)
from spinor_forge.twisted import twisted_hermitian


def random_gaussian(rng):
    """p/q + (p'/q')i; a general coefficient tells every unit of Z[i] and
    every swap of real and imaginary part apart, which coefficient 1 cannot."""
    return gr(F(rng.randint(-5, 5), rng.randint(1, 6)),
              F(rng.randint(-5, 5), rng.randint(1, 6)))


def random_scaled(n, r, m, rng, terms=4, scale2=None):
    spin_idx = all_basis_indices(n)
    twist_idx = all_basis_indices(r)
    coeffs = {}
    while not coeffs:
        for _ in range(terms):
            key = (rng.choice(spin_idx), tuple(rng.choice(twist_idx) for _ in range(m)))
            coeffs[key] = gr(rng.randint(-3, 3), rng.randint(-3, 3))
        coeffs = {k: v for k, v in coeffs.items() if v}
    s2 = scale2 if scale2 is not None else F(rng.randint(1, 5), rng.randint(1, 5))
    return ScaledSpinor(n, r, m, coeffs, s2)


def random_matrix(rows, cols, rng, bound=4):
    return [[F(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)]


def naive_mat_mul(a, b):
    """Independent product oracle: the plain Fraction triple loop."""
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), F(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def plain_rref(rows, n_cols):
    """Independent oracle: straightforward Gauss-Jordan over Fraction.
    Returns the nonzero rows of the reduced row echelon form and their
    pivot columns."""
    m = [list(r) for r in rows]
    n_rows = len(m)
    pivots = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        piv = next((i for i in range(r, n_rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def plain_nullspace(rows, n_cols):
    """The canonical kernel basis: for each free column f, the vector with
    x_f = 1, zero on the other free columns, from the oracle's RREF."""
    rref, pivots = plain_rref(rows, n_cols)
    basis = []
    for f in range(n_cols):
        if f in pivots:
            continue
        vec = [F(0)] * n_cols
        vec[f] = F(1)
        for row, p in zip(rref, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


def definition_form(w, phi):
    """-scale2 Re< e_b . w, e_a . phi >, a < b, from single generators and
    ``twisted_hermitian``: the induced form of w by its definition."""
    n = phi.n
    left = [kappa_generator(n, b, w) for b in range(1, n + 1)]
    right = [kappa_generator(n, a, phi) for a in range(1, n + 1)]
    return two_form_from_terms(n, {(a, b): -twisted_hermitian(left[b - 1], right[a - 1]).re
                                   for a, b in combinations(range(1, n + 1), 2)})


def chain(phi, slot, terms):
    """sum c e_(i1)...e_(is) . phi over (factors, c) terms on slot ``slot``
    (0 = Delta_n, a = twist slot a), one generator at a time by
    ``_generator_on_map``, rightmost first; reads no table."""
    dim = phi.r if slot else phi.n
    offset = phi.n // 2 + (slot - 1) * (phi.r // 2) if slot else 0
    out = phi.scale(gr(0))
    for factors, c in terms:
        data = phi._data
        for i in reversed(factors):
            data = _generator_on_map(data, *_slot_unit(offset, dim, i))
        out = out + phi._with(phi._den, data).scale(gr(c))
    return out
