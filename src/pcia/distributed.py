"""Iterative leakage-minimizing alignment, usable with or without pairing.

This is the classical alternating baseline: receive filters take the
least-interfered directions of the forward covariance, transmit precoders
take the least-leaking directions of the reciprocal covariance, and the
two steps repeat until the residual interference power is negligible
against the initial signal power. It runs on any square block grid, so
the same code covers the plain per-station channel and the paired one.

The loop works on the grid stacked once per run into a zero-padded
``(K, K, m, n)`` array, with its reciprocal built once as an array too.
Each half-iteration makes one call to the shared covariance kernel of
:mod:`pcia.linalg` and one batched ``eigh`` over all users; the recorded
leakage is the sum of each user's smallest eigenvalues. Uneven stream
counts, silent users included, ride as zero-weight padding columns;
ragged antenna counts as padded dimensions loaded above the trace so they
sort last. The covariances depend only on ``V V^H``, so column phases are
pinned once, on the returned filters.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from .linalg import (
    _covariance_stack,
    _interferer_weights,
    _stack,
    _stack_grid,
    _stream_weights,
    fix_column_phases,
    interference_covariances,
    reciprocal,
)

__all__ = ["DistributedInfeasible", "IterationTrace", "leakage", "iterate_distributed_ia"]


class DistributedInfeasible(ValueError):
    """The stream request does not fit the block grid."""


@dataclasses.dataclass
class IterationTrace:
    """Outcome of one alternating-minimization run."""

    leakage: list        # interference power after each receive update
    iterations: int
    converged: bool
    receive: list
    transmit: list


def leakage(blocks, receive, transmit, powers, dof) -> float:
    """Total interference power left at the receive filter outputs.

    Sums ``trace(U_k^H Q_k U_k)`` over users, where ``Q_k`` collects the
    per-stream-power weighted covariances of all undesired transmitters.
    """
    covs = interference_covariances(blocks, transmit, _stream_weights(powers, dof))
    return sum(float(np.real(np.trace(u.conj().T @ q @ u))) for u, q in zip(receive, covs))


def _smallest_first(q: np.ndarray, padded: Optional[np.ndarray]):
    """Batched ``eigh``; padded dimensions get a load above the trace.

    A padded dimension is a zero row and column of ``q``, so loading its
    diagonal entry past ``trace(q)`` (an upper bound on every eigenvalue
    of a PSD matrix) sorts its direction after all the real ones.
    """
    if padded is not None:
        load = 2.0 * np.trace(q, axis1=1, axis2=2).real + 1.0
        q = q + load[:, None, None] * padded
    return np.linalg.eigh(q)


def _padding(sizes: Sequence, size: int) -> Optional[np.ndarray]:
    """Diagonal ``(K, size, size)`` indicator of the padded dims, or None."""
    if all(s == size for s in sizes):
        return None
    return np.stack([np.diag(np.arange(size) >= s).astype(float) for s in sizes])


def iterate_distributed_ia(
    blocks,
    dof: Sequence,
    powers: Sequence,
    reverse_powers: Optional[Sequence] = None,
    max_iters: int = 1000,
    leakage_tol: float = 1e-8,
    init: str = "svd",
    seed=None,
) -> IterationTrace:
    """Alternate receive and transmit updates until leakage dies out.

    Args:
        blocks: square grid; ``blocks[k][l]`` maps transmitter ``l`` into
            receiver ``k``.
        dof: streams per user (zero marks a silent user).
        powers: total transmit power per user; per-stream weights are
            ``powers[k] / dof[k]``.
        reverse_powers: weights for the transmit-side update, defaulting
            to the forward powers.
        init: ``"svd"`` starts from the dominant right singular vectors
            of each direct block; ``"random"`` draws a seeded orthonormal
            start instead.

    Returns:
        IterationTrace. Convergence means the recorded leakage fell to
        ``leakage_tol`` times the initial desired-signal power; running
        out of iterations is reported, never raised.
    """
    num_users = len(blocks)
    dof = [int(d) for d in dof]
    if len(dof) != num_users or len(list(powers)) != num_users:
        raise DistributedInfeasible("need one stream count and one power per user")
    for k in range(num_users):
        cap = min(blocks[k][k].shape)
        if dof[k] > cap:
            raise DistributedInfeasible(
                f"user {k} asks for {dof[k]} streams on a {blocks[k][k].shape} block"
            )
    rows = [blocks[k][k].shape[0] for k in range(num_users)]
    cols = [blocks[k][k].shape[1] for k in range(num_users)]

    if init == "svd":
        start = []
        for k in range(num_users):
            _, _, vh = np.linalg.svd(blocks[k][k], full_matrices=False)
            start.append(vh.conj().T[:, :dof[k]])
    elif init == "random":
        rng = np.random.default_rng(seed)
        start = []
        for k in range(num_users):
            raw = rng.standard_normal((cols[k], dof[k])) + 1j * rng.standard_normal(
                (cols[k], dof[k]))
            start.append(np.linalg.qr(raw)[0] if dof[k] else np.zeros((cols[k], 0)))
    else:
        raise ValueError(f"unknown init mode {init!r}")

    per_stream = _stream_weights(powers, dof)
    threshold = leakage_tol * sum(
        per_stream[k] * float(np.linalg.norm(blocks[k][k] @ start[k], "fro") ** 2)
        for k in range(num_users) if dof[k] > 0
    )

    grid = _stack_grid(blocks)
    reverse = _stack_grid(reciprocal(blocks))
    width = max(dof)
    streams = np.arange(width) < np.array(dof)[:, None]
    fwd_weights = _interferer_weights(per_stream, dof)
    rev_weights = fwd_weights if reverse_powers is None else _interferer_weights(
        _stream_weights(list(reverse_powers), dof), dof)
    fwd_padded = _padding(rows, grid.shape[2])
    rev_padded = _padding(cols, grid.shape[3])

    transmit = _stack(start, grid.shape[3], width)

    receive = np.zeros((num_users, grid.shape[2], 0), dtype=np.complex128)
    history = []
    converged = False
    for _ in range(max_iters):
        vals, vecs = _smallest_first(
            _covariance_stack(grid, transmit, fwd_weights), fwd_padded)
        receive = vecs[:, :, :width]
        total = float(np.sum(vals[:, :width] * streams))
        history.append(total)
        if total <= threshold:
            converged = True
            break
        _, vecs = _smallest_first(
            _covariance_stack(reverse, receive, rev_weights), rev_padded)
        transmit = vecs[:, :, :width]
    return IterationTrace(
        leakage=history,
        iterations=len(history),
        converged=converged,
        receive=[fix_column_phases(receive[k, :rows[k], :dof[k]]) for k in range(num_users)],
        transmit=[fix_column_phases(transmit[k, :cols[k], :dof[k]]) for k in range(num_users)],
    )
