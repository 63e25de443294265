"""Small linear-algebra helpers shared by the alignment solvers."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "fix_column_phases",
    "pin_joint_phases",
    "hermitize",
    "smallest_eigvecs",
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


def hermitize(q: np.ndarray) -> np.ndarray:
    """Symmetrize away the roundoff skew of a nominally Hermitian matrix."""
    return 0.5 * (q + q.conj().T)


def smallest_eigvecs(q: np.ndarray, count: int) -> np.ndarray:
    """Orthonormal eigenvectors for the ``count`` smallest eigenvalues of ``q``."""
    if count == 0:
        return np.zeros((q.shape[0], 0), dtype=np.complex128)
    _, vecs = np.linalg.eigh(hermitize(q))
    return fix_column_phases(vecs[:, :count])


def _stream_weights(powers: Sequence, dof: Sequence) -> list:
    """Per-stream power of each user: its total split evenly, 0 when silent."""
    return [p / d if d > 0 else 0.0 for p, d in zip(powers, dof)]


def reciprocal(grid) -> list:
    """The reversed-link grid: entry ``[k][l]`` is ``grid[l][k]^H``."""
    return [[row[k].conj().T for row in grid] for k in range(len(grid))]


def interference_covariances(grid, beams: Sequence, weights: Sequence) -> list:
    """Stream-weighted interference covariance seen at each receiver.

    Entry ``k`` is the Hermitized sum of ``w_l (G_kl B_l)(G_kl B_l)^H``
    over the transmitters ``l != k`` that send at least one stream, with
    ``G = grid`` and ``B = beams``. On ``reciprocal(grid)`` with the
    receive filters as beams it is the covariance on each transmit stack
    of the reversed network.
    """
    covs = []
    for k, row in enumerate(grid):
        size = row[k].shape[0]
        q = np.zeros((size, size), dtype=np.complex128)
        for l, block in enumerate(row):
            if l == k or beams[l].shape[1] == 0:
                continue
            eff = block @ beams[l]
            q += weights[l] * (eff @ eff.conj().T)
        covs.append(hermitize(q))
    return covs
