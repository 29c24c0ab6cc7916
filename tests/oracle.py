"""The exact dense model of Delta_n (x) Delta_r^(x m) that the tests check
the kernel against.

It is built from the 2x2 blocks of the ``spinrep`` docstring in standard
coordinates (Lawson & Michelsohn, *Spin Geometry*, 1989, §I.5), not from
the kernel's code: no bit index, tail mask, flip record or denominator
appears here.  Generator e_(2j-1) (resp. e_(2j)) of Delta_dim, k = dim // 2,
is g1 (resp. g2) in tensor factor k - j + 1 with T's to its right, and for
odd dim e_dim = i (T x ... x T), where

    g1 = [[i, 0], [0, -i]]    g2 = [[0, i], [i, 0]]    T = [[0, -i], [i, 0]].

A spinor of shape (n, r, m) lives on the Kronecker product of the slots
Delta_n, Delta_r, ..., Delta_r, the spin slot leftmost (most significant).
Every generator is a monomial matrix, so an operator is stored as each
row's one nonzero entry (column, value) and applied by ``apply``.
Everything stays in Q(i): a basis vector is sqrt(2)^k u_eps, with entries
in Z[i], so ``vector(phi)`` is sqrt(2)^K times phi's coefficient vector, K
the number of C^2 factors, and ``norm(shape)`` = 2^K is the squared length
of one such vector.

``monomial_on_basis`` applies the same generators to the basis u_eps
without a dense vector: carried through ``_raw`` to the basis u_+, u_- of
its C^2 factor, each block is a unit times a permutation, so a product of
generators sends u_eps to a power of i times another basis vector, and
shapes too large for ``vector`` are served.  ``gamma`` is the real or
quaternionic structure of Delta_n, from its antilinear 2x2 blocks.

A spinor is read only through ``shape()``, ``scale2`` and ``coeffs``, and
nothing of ``spinor_forge`` but its scalar type is imported.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, product

from spinor_forge.scalars import gr

_I = gr(0, 1)
# The 2x2 blocks, each row as its one nonzero entry (column, value).
ID = ((0, gr(1)), (1, gr(1)))
G1 = ((0, _I), (1, -_I))
G2 = ((1, _I), (0, _I))
T = ((1, -_I), (0, _I))


def kron(a, b):
    """The Kronecker product of two monomial matrices."""
    nb = len(b)
    return tuple((j * nb + jj, x * y) for j, x in a for jj, y in b)


def _compose(a, b):
    """a after b."""
    return tuple((b[j][0], x * b[j][1]) for j, x in a)


def _identity(size):
    return tuple((i, gr(1)) for i in range(size))


def _blocks(dim, i):
    """(scalar, blocks): e_i on Delta_dim is the scalar times the Kronecker
    product of the 2x2 blocks, leftmost factor first."""
    k = dim // 2
    if dim % 2 and i == dim:
        return _I, [T] * k
    j = (i + 1) // 2
    return gr(1), [ID] * (k - j) + [G1 if i % 2 else G2] + [T] * (j - 1)


def generator(dim, i):
    """e_i on Delta_dim."""
    scalar, blocks = _blocks(dim, i)
    op = ((0, scalar),)
    for f in blocks:
        op = kron(op, f)
    return op


@cache
def operator(shape, slot, factors):
    """e_(i1) ... e_(is) on tensor factor ``slot`` (0 = Delta_n, a = twist
    slot a) of the space of ``shape``, the identity on the others."""
    n, r, m = shape
    sizes = [2 ** (n // 2)] + [2 ** (r // 2)] * m
    op = _identity(sizes[slot])
    for i in factors:
        op = _compose(op, generator(r if slot else n, i))
    out = ((0, gr(1)),)
    for s, size in enumerate(sizes):
        out = kron(out, op if s == slot else _identity(size))
    return out


def apply(op, vec):
    return [x * vec[j] for j, x in op]


def add(u, v, c=1):
    """u + c v, entrywise."""
    return [x + c * y for x, y in zip(u, v)]


def act(shape, terms, vec):
    """sum c e_(i1) ... e_(is) . vec over (slot, factors, c) terms, each
    product on its tensor factor ``slot``."""
    out = [gr(0)] * len(vec)
    for slot, factors, c in terms:
        if c:
            out = add(out, apply(operator(shape, slot, tuple(factors)), vec), c)
    return out


_UNITS = (gr(1), _I, gr(-1), -_I)  # i^p, p = 0..3


def _in_sign_basis(block):
    """{s: (t, p)}: ``block`` sends u_s to i^p u_t, in the basis u_+, u_- of
    one C^2 factor (``_raw``); each block of a generator is a unit times a
    permutation in that basis too, and unpacking the one nonzero image
    checks it."""
    out = {}
    for s, unit in ((1, (gr(1), gr(0))), (-1, (gr(0), gr(1)))):
        image = zip((1, -1), _unraw(*apply(block, list(_raw(*unit)))))
        [(t, z)] = [(t, z) for t, z in image if z]
        out[s] = (t, _UNITS.index(z))
    return out


@cache
def _sign_generator(dim, i):
    """e_i on Delta_dim in the basis u_eps: (p, ((t, block), ...)), e_i
    = i^p times ``_blocks``' blocks carried to the sign basis, each at its
    factor t from the leftmost; the identity blocks are left out."""
    scalar, blocks = _blocks(dim, i)
    return _UNITS.index(scalar), tuple((t, _in_sign_basis(b)) for t, b in enumerate(blocks)
                                       if b != ID)


def monomial_on_basis(shape, slot, factors, keys):
    """{key: (image, p)}: e_(i1) ... e_(is) on tensor factor ``slot`` (0 =
    Delta_n, a = twist slot a) of the space of ``shape`` sends the basis
    vector u_key, key = (spin, twist), to i^p u_image, p in 0..3.  The
    generators act one at a time, rightmost first, each ``generator``'s
    blocks carried factor by factor to the sign basis
    (``_in_sign_basis``).  No dense vector is built, so it serves shapes
    too large for ``vector``."""
    n, r, _ = shape
    steps = [_sign_generator(r if slot else n, i) for i in reversed(factors)]
    moves = {}  # the slot's signs -> (image signs, p)
    for start in {(spin, *twist)[slot] for spin, twist in keys}:
        signs, p = list(start), 0
        for q, blocks in steps:
            p += q
            for t, block in blocks:
                signs[t], q = block[signs[t]]
                p += q
        moves[start] = tuple(signs), p % 4
    if not slot:
        return {(spin, twist): ((moves[spin][0], twist), moves[spin][1]) for spin, twist in keys}
    out = {}
    for spin, twist in keys:
        signs, p = moves[twist[slot - 1]]
        out[(spin, twist)] = (spin, twist[:slot - 1] + (signs,) + twist[slot:]), p
    return out


def norm(shape):
    """2^K, the squared length of the dense vector of one basis index of
    shape, K = n // 2 + m * (r // 2) the number of C^2 factors."""
    n, r, m = shape
    return 2 ** (n // 2 + m * (r // 2))


def _each_factor(vec, *blocks):
    """vec with the 2x2 maps ``blocks`` on its C^2 factors, in turn from the
    leftmost: one block acts on every factor, two alternate."""
    vec, stride, t = list(vec), len(vec) // 2, 0
    while stride:
        block = blocks[t % len(blocks)]
        for base in range(len(vec)):
            if not base & stride:
                vec[base], vec[base + stride] = block(vec[base], vec[base + stride])
        stride, t = stride // 2, t + 1
    return vec


def _raw(x, y):
    """x (1, -i) + y (1, i): the raw basis vectors sqrt(2) u_+ and sqrt(2) u_-."""
    return x + y, (y - x) * _I


def _unraw(x, y):
    """The inverse of ``_raw``: (x + iy) / 2 on u_+ and (x - iy) / 2 on u_-."""
    return (x + y * _I) * Fraction(1, 2), (x - y * _I) * Fraction(1, 2)


def vector(phi):
    """sqrt(2)^K times phi's coefficient vector in standard coordinates: its
    coefficient array, one C^2 factor per sign of the index (+1 first, the
    spin slot's signs leftmost), with ``_raw`` on every factor.  scale2 is
    not applied."""
    out = [gr(0)] * norm(phi.shape())
    for (spin, twist), c in phi.coeffs.items():
        flat = 0
        for s in spin + sum(twist, ()):
            flat = 2 * flat + (s < 0)
        out[flat] = c
    return _each_factor(out, _raw)


def _alpha(z1, z2):
    return -z2.conj(), z1.conj()


def _beta(z1, z2):
    return z1.conj(), z2.conj()


def gamma(vec):
    """The real or quaternionic structure on a dense vector of Delta_n: the
    tensor product of the antilinear 2x2 blocks alpha(z1, z2) = (-conj z2,
    conj z1) and beta(z1, z2) = (conj z1, conj z2), alternating alpha,
    beta, ... from the leftmost factor, in standard coordinates.  A tensor
    product of antilinear maps conjugates once, after the product of their
    linear parts z -> block(conj z), so the linear parts act factor by
    factor and the entries are conjugated at the end."""
    linear = [lambda z1, z2, block=block: block(z1.conj(), z2.conj()) for block in (_alpha, _beta)]
    return [z.conj() for z in _each_factor(vec, *linear)]


def inner(u, v):
    """sum u_i conj(v_i), linear in u."""
    return sum((x * y.conj() for x, y in zip(u, v)), gr(0))


def coefficients(n, vec):
    """The inverse of ``vector`` on Delta_n (m = 0): {eps: c}, zeros dropped."""
    return {eps: c for eps, c in zip(product((1, -1), repeat=n // 2), _each_factor(vec, _unraw))
            if c}


def form(phi, w):
    """The n x n antisymmetric matrix with entries scale2 * Re< e_a e_b . w,
    phi >, a < b, for a dense vector w of phi's space."""
    shape, n = phi.shape(), phi.n
    vec, scale = vector(phi), phi.scale2 / norm(shape)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for a, b in combinations(range(1, n + 1), 2):
        entry = scale * inner(apply(operator(shape, 0, (a, b)), w), vec).re
        mat[a - 1][b - 1], mat[b - 1][a - 1] = entry, -entry
    return mat


def etas(phi):
    """{(k, l): eta_kl} for k < l, ascending: ``form`` at w = the sum over
    the twist slots of f_k f_l . phi."""
    shape, vec = phi.shape(), vector(phi)
    return {(k, l): form(phi, act(shape, [(a, (k, l), 1) for a in range(1, phi.m + 1)], vec))
            for k, l in combinations(range(1, phi.r + 1), 2)}


def spinc_form(psi):
    """The rank-2 form of an untwisted spinor: ``form`` at w = i psi."""
    return form(psi, act(psi.shape(), [(0, (), _I)], vector(psi)))
