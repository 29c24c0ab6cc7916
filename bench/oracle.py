"""Dense floating-point oracle for twisted spinors, independent of the kernel.

The Clifford generators are built as explicit matrices from the
Kronecker-product description in the ``spinrep`` module docstring, not from
its code.  On the basis (u_+, u_-) of C^2 the blocks act by

    g1 u_eps = i u_-eps,   g2 u_eps = eps u_-eps,   T u_eps = -eps u_eps,

generator e_(2j-1) (resp. e_(2j)) of Delta_n carries g1 (resp. g2) in tensor
factor k-j+1 with T in every factor to its right and the identity to its
left, and for odd n the last generator is i (T x ... x T).  A twisted spinor
in Delta_n (x) Delta_r^(x m) is an array with one axis for the spin slot and
one per twist slot; a generator acts along its slot's axis.

Results are compared with the exact ones within ``TOLERANCE`` relative to
the largest magnitude involved; every quantity here is a short sum of
products of small rationals, so double precision is far inside that.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

TOLERANCE = 1e-9

_G1 = np.array([[0, 1j], [1j, 0]])
_G2 = np.array([[0, -1], [1, 0]], dtype=complex)
_T = np.diag([-1, 1]).astype(complex)
_ID = np.eye(2, dtype=complex)


def _kron_all(blocks) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for b in blocks:
        out = np.kron(out, b)
    return out


def generator_matrices(n: int) -> List[np.ndarray]:
    """The n Clifford generators of Delta_n as 2^k x 2^k matrices."""
    k = n // 2
    mats = []
    for i in range(1, n + 1):
        if n % 2 == 1 and i == n:
            mats.append(1j * _kron_all([_T] * k))
            continue
        j = (i + 1) // 2
        factor = k - j + 1  # 1-based tensor factor carrying g1 / g2
        block = _G1 if i % 2 == 1 else _G2
        mats.append(_kron_all([_ID] * (factor - 1) + [block] + [_T] * (k - factor)))
    return mats


def _flat(eps: Tuple[int, ...]) -> int:
    """Row of basis vector u_eps: leftmost entry is the leading factor."""
    out = 0
    for s in eps:
        out = 2 * out + (0 if s == 1 else 1)
    return out


class DenseSpinor:
    """A twisted spinor as a dense array, with its induced 2-forms and
    defect norms computed by matrix products."""

    def __init__(self, n: int, r: int, m: int,
                 coeffs: Dict[tuple, complex], scale2: float) -> None:
        self.n, self.r, self.m, self.scale2 = n, r, m, scale2
        self.spin = generator_matrices(n)
        self.twist = generator_matrices(r)
        shape = (2 ** (n // 2),) + (2 ** (r // 2),) * m
        v = np.zeros(shape, dtype=complex)
        for (spin, twist), c in coeffs.items():
            v[(_flat(spin),) + tuple(_flat(t) for t in twist)] = c
        self.v = v

    def _spin_act(self, i: int, w: np.ndarray) -> np.ndarray:
        return np.tensordot(self.spin[i - 1], w, axes=([1], [0]))

    def _twist_act(self, slot: int, i: int, w: np.ndarray) -> np.ndarray:
        out = np.tensordot(self.twist[i - 1], w, axes=([1], [slot]))
        return np.moveaxis(out, 0, slot)

    def bivector(self, k: int, l: int) -> np.ndarray:
        """kappa(f_k f_l) v: f_l then f_k in each twist slot, summed."""
        out = np.zeros_like(self.v)
        for slot in range(1, self.m + 1):
            out += self._twist_act(slot, k, self._twist_act(slot, l, self.v))
        return out

    def eta(self, k: int, l: int) -> np.ndarray:
        """eta_kl[a][b] = scale2 * Re <e_a e_b w, v>, w = kappa(f_kl) v."""
        n = self.n
        mat = np.zeros((n, n))
        if k == l:
            return mat
        w = self.bivector(k, l)
        for b in range(1, n + 1):
            wb = self._spin_act(b, w)
            for a in range(1, b):
                val = np.vdot(self.v, self._spin_act(a, wb))
                mat[a - 1, b - 1] = self.scale2 * val.real
                mat[b - 1, a - 1] = -mat[a - 1, b - 1]
        return mat

    def defect_norm2(self, k: int, l: int, form: np.ndarray, coefficient: int) -> float:
        """scale2 * |(sum_(a<b) form_ab e_a e_b + coefficient kappa(f_kl)) v|^2."""
        d = coefficient * self.bivector(k, l)
        for b in range(1, self.n + 1):
            vb = self._spin_act(b, self.v)
            for a in range(1, b):
                if form[a - 1, b - 1]:
                    d = d + form[a - 1, b - 1] * self._spin_act(a, vb)
        return float(self.scale2 * np.vdot(d, d).real)


def close(exact, approx: float, scale: float = 1.0) -> bool:
    """Exact rational against its float approximation, within TOLERANCE
    relative to ``scale`` (at least 1)."""
    return abs(float(exact) - approx) <= TOLERANCE * max(1.0, abs(scale), abs(approx))
