"""Small linear-algebra helpers shared by the alignment solvers."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "fix_column_phases",
    "pin_joint_phases",
    "interference_covariances",
    "reciprocal",
]


def fix_column_phases(a: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rotate each column so its first nonzero entry is real and positive.

    Basis vectors from eigen or singular value decompositions are only
    defined up to a unit phase; pinning the phase makes solver outputs
    reproducible across runs and platforms without changing any subspace.
    """
    a = np.array(a, copy=True)
    for j in range(a.shape[1]):
        nz = np.flatnonzero(np.abs(a[:, j]) > tol)
        if nz.size:
            z = a[nz[0], j]
            a[:, j] *= z.conjugate() / abs(z)
    return a


def pin_joint_phases(u: np.ndarray, v: np.ndarray, tol: float = 1e-12):
    """Pin paired singular-vector phases without disturbing their product.

    Column ``j`` of ``u`` and of ``v`` carry one shared free phase. Both
    get rotated by the phase that makes ``u``'s first nonzero entry real
    and positive; the common rotation cancels in
    ``u @ diag(s) @ v.conj().T``, which is left exactly as it was.
    """
    u = np.array(u, copy=True)
    v = np.array(v, copy=True)
    for j in range(u.shape[1]):
        nz = np.flatnonzero(np.abs(u[:, j]) > tol)
        if nz.size:
            z = u[nz[0], j]
            ph = z.conjugate() / abs(z)
            u[:, j] *= ph
            v[:, j] *= ph
    return u, v


def _stream_weights(powers: Sequence, dof: Sequence) -> list:
    """Per-stream power of each user: its total split evenly, 0 when silent."""
    return [p / d if d > 0 else 0.0 for p, d in zip(powers, dof)]


def reciprocal(grid) -> list:
    """The reversed-link grid: entry ``[k][l]`` is ``grid[l][k]^H``."""
    return [[row[k].conj().T for row in grid] for k in range(len(grid))]


def _stack(mats, rows: int, cols: int) -> np.ndarray:
    """Zero-padded ``(len(mats), rows, cols)`` stack of ragged matrices."""
    if all(a.shape == (rows, cols) for a in mats):
        return np.array(mats, dtype=np.complex128)
    out = np.zeros((len(mats), rows, cols), dtype=np.complex128)
    for slot, a in zip(out, mats):
        slot[:a.shape[0], :a.shape[1]] = a
    return out


def _stack_grid(grid) -> np.ndarray:
    """A ``K x K`` block grid as one zero-padded ``(K, K, m, n)`` array."""
    blocks = [b for row in grid for b in row]
    rows = max(b.shape[0] for b in blocks)
    cols = max(b.shape[1] for b in blocks)
    return _stack(blocks, rows, cols).reshape(len(grid), len(grid), rows, cols)


def _interferer_weights(weights: Sequence, counts: Sequence) -> np.ndarray:
    """``(K, K, d)`` weight of column ``j`` of transmitter ``l`` at receiver ``k``.

    That is ``weights[l]`` for the ``counts[l]`` real columns of every
    other transmitter, and zero for the receiver's own transmitter and for
    padding columns up to the widest beam ``d``.
    """
    users = len(counts)
    out = np.zeros((users, users, max(counts)))
    for l, (w, count) in enumerate(zip(weights, counts)):
        out[:, l, :count] = w
    out[range(users), range(users)] = 0.0
    return out


def _covariance_stack(grid: np.ndarray, beams: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Interference covariances of a stacked grid as one ``(K, m, m)`` array.

    ``grid`` is ``(K, K, m, n)``, ``beams`` is ``(K, n, d)`` and
    ``weights`` is ``(K, K, d)`` from :func:`_interferer_weights`. Entry
    ``k`` is the Hermitized ``X_k diag(w_k) X_k^H``, where ``X_k`` holds
    every transmitter's effective columns ``G_kl B_l`` side by side and
    ``w_k = weights[k]`` is zero on user ``k``'s own and padding columns.
    Zero padding of blocks and beams is exact.
    """
    users, _, rows, _ = grid.shape
    x = (grid @ beams).transpose(0, 2, 1, 3).reshape(users, rows, -1)
    q = (x * weights.reshape(users, 1, -1)) @ x.conj().transpose(0, 2, 1)
    return 0.5 * (q + q.conj().transpose(0, 2, 1))


def interference_covariances(grid, beams: Sequence, weights: Sequence) -> list:
    """Stream-weighted interference covariance seen at each receiver.

    Entry ``k`` is the Hermitized sum of ``w_l (G_kl B_l)(G_kl B_l)^H``
    over the transmitters ``l != k`` that send at least one stream, with
    ``G = grid`` and ``B = beams``. On ``reciprocal(grid)`` with the
    receive filters as beams it is the covariance on each transmit stack
    of the reversed network. A list adapter over the stacked kernel that
    the iterative solver runs on directly.
    """
    stacked = _stack_grid(grid)
    counts = [b.shape[1] for b in beams]
    q = _covariance_stack(stacked, _stack(beams, stacked.shape[3], max(counts)),
                          _interferer_weights(weights, counts))
    sizes = [row[k].shape[0] for k, row in enumerate(grid)]
    return [q[k, :size, :size] for k, size in enumerate(sizes)]
