"""Seeded draws and small exact helpers that several test modules share.

The dense model of the spinor space is in ``oracle.py``; this module holds
what is not part of it: the generator chain, which steps by the oracle's
sparse generators, the definition of an induced form, which applies the
chain and pairs in plain integers, and the plain Fraction Gauss-Jordan
oracle of ``linalg`` (``plain_rref``, ``plain_nullspace``), which
``test_linalg`` and the commutant's wide-system oracle in ``test_analysis``
share, the dense products ``naive_mat_mul`` and ``transpose``, and the
exhaustive even-Clifford check ``reference_even_clifford_verify``.  No
``test_*.py`` module imports from another.
"""

import math
from fractions import Fraction as F
from itertools import combinations, permutations
from typing import Dict

from spinor_forge.analysis import RelationReport, pairs
from spinor_forge.errors import EmptyInput, IndexOutOfRange, MissingPair, ShapeMismatch
from spinor_forge.forms import Endo, two_form_from_terms
from spinor_forge.scalars import gr
from spinor_forge.spinrep import ScaledSpinor, all_basis_indices

from . import oracle


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


def transpose(a):
    return [list(col) for col in zip(*a)]


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


def _re_inner(x, y):
    """Re sum x_k conj(y_k) over the coefficients of two spinors: an integer
    sum over their ``_entries()``, over the product of their denominators."""
    ys = {key: (re, im) for key, re, im in y._entries()}
    return F(sum(re * ys[key][0] + im * ys[key][1] for key, re, im in x._entries() if key in ys),
             x._den * y._den)


def definition_form(w, phi):
    """-scale2 Re< e_b . w, e_a . phi >, a < b, for w of phi's scale2: the
    induced form of w by its definition, each e_a applied by ``chain`` and
    the pairing summed in integers (``_re_inner``), so no generator and no
    pairing of the library is read."""
    n = phi.n
    left = [chain(w, 0, [((b,), 1)]) for b in range(1, n + 1)]
    right = [chain(phi, 0, [((a,), 1)]) for a in range(1, n + 1)]
    return two_form_from_terms(n, {(a, b): -phi.scale2 * _re_inner(left[b - 1], right[a - 1])
                                   for a, b in combinations(range(1, n + 1), 2)})


def chain(phi, slot, terms):
    """sum c e_(i1)...e_(is) . phi over (factors, c) terms on slot ``slot``
    (0 = Delta_n, a = twist slot a), one generator at a time by the oracle's
    sparse step ``oracle.monomial_on_basis``, rightmost first; reads no
    table and no flip record of the library.  The sums run in ints over
    D * E, D phi's denominator and E the lcm of the c's."""
    terms = [(factors, F(c)) for factors, c in terms]
    den = math.lcm(*(c.denominator for _, c in terms))
    ints = {key: (re, im) for key, re, im in phi._entries()}
    acc = {}
    for factors, c in terms:
        c = c.numerator * (den // c.denominator)
        for key, (image, p) in oracle.monomial_on_basis(phi.shape(), slot, factors, ints).items():
            re, im = ints[key]
            for _ in range(p):  # times i
                re, im = -im, re
            s = acc.get(image, (0, 0))
            acc[image] = (s[0] + c * re, s[1] + c * im)
    return phi._with(phi._den * den, {phi._index(*key): z for key, z in acc.items() if any(z)})


def reference_even_clifford_verify(etas: Dict[tuple, Endo]) -> RelationReport:
    """Reference for ``analysis.even_clifford_verify``: every relation in
    every order.  Squares are -Id, every ordered disjoint pair commutes,
    every permutation (i, j, k) anticommutes with product -eta_hat_ik, and
    the alternating four-index product chain holds; the first failure in
    that order names the violation."""
    if not etas:
        raise EmptyInput("empty family")
    bad = [(k, l) for (k, l) in etas if not 1 <= k < l]
    if bad:
        raise IndexOutOfRange(f"pair {bad[0]} is not 1 <= k < l")
    r = max(max(p) for p in etas)
    n = next(iter(etas.values())).n
    full: Dict[tuple, Endo] = {}
    for (k, l) in pairs(r):
        h = etas.get((k, l))
        if h is None:
            raise MissingPair(f"missing pair ({k},{l})")
        if h.n != n:
            raise ShapeMismatch("mixed dimensions in family")
        full[(k, l)] = h
        full[(l, k)] = -h

    for (k, l) in pairs(r):
        h = full[(k, l)]
        if not h.squares_to_minus_identity():
            return RelationReport(False, f"square(({k},{l})) != -Id")

    for (i, j) in pairs(r):
        for (k, l) in pairs(r):
            if {i, j} & {k, l}:
                continue
            a, b = full[(i, j)], full[(k, l)]
            if a.compose(b) != b.compose(a):
                return RelationReport(False, f"disjoint ({i},{j}),({k},{l}) do not commute")

    for i, j, k in permutations(range(1, r + 1), 3):
        ab = full[(i, j)].compose(full[(j, k)])
        ba = full[(j, k)].compose(full[(i, j)])
        if ab != -ba:
            return RelationReport(False, f"chained ({i},{j}),({j},{k}) do not anticommute")
        if ab != -full[(i, k)]:
            return RelationReport(False, f"product ({i},{j})({j},{k}) != -({i},{k})")

    for (i, j, k, l) in combinations(range(1, r + 1), 4):
        lhs = full[(i, j)].compose(full[(k, l)])
        chain = [
            (-full[(i, k)].compose(full[(j, l)]), f"-({i},{k})({j},{l})"),
            (-full[(j, l)].compose(full[(i, k)]), f"-({j},{l})({i},{k})"),
            (full[(k, l)].compose(full[(i, j)]), f"({k},{l})({i},{j})"),
            (full[(j, k)].compose(full[(i, l)]), f"({j},{k})({i},{l})"),
            (full[(i, l)].compose(full[(j, k)]), f"({i},{l})({j},{k})"),
        ]
        for rhs, label in chain:
            if lhs != rhs:
                return RelationReport(False, f"product chain ({i},{j})({k},{l}) != {label}")
    return RelationReport(True)
