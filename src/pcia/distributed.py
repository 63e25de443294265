"""Iterative leakage-minimizing alignment, usable with or without pairing.

This is the classical alternating baseline: receive filters take the
least-interfered directions of the forward covariance, transmit precoders
take the least-leaking directions of the reciprocal covariance, and the
two steps repeat until the residual interference power is negligible
against the initial signal power. It starts from seeded random
orthonormal precoders, drawn user by user straight into the loop's
zero-padded transmit stack, and runs on either channel view, so the same
code covers the plain per-station channel and the paired one.

The loop reads what the channel view caches per draw: the forward and
reverse link grids, zero-padded and already in the transmitter-major
layout of the covariance kernel of :mod:`pcia.linalg`. No grid is copied
per run, and each half-iteration is one kernel call (one product per
transmitter, cached half weights) and one batched ``eigh`` over all
users, through that module's LAPACK entry point; the recorded leakage is
the sum of each user's smallest eigenvalues. The whole loop runs inside
one LAPACK error state, entered once per run, so non-convergence or a
NaN anywhere in it raises ``LinAlgError``, and so does a leakage that is
not finite. Uneven stream counts, silent users included, ride as
zero-weight padding columns; ragged antenna counts as padded dimensions
loaded above the trace so they sort last. The covariances depend only on
``V V^H``, so column phases are pinned once, on the loop's own stacks,
padding zeroed.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
from numpy.linalg import LinAlgError

from .linalg import (
    _covariance_stack,
    _eigh,
    _interferer_weights,
    _lapack_errors,
    _unit_power_weights,
    fix_column_phases,
)
from .network import _VIEWS, BeamformerSet, _integral, _require, _stream_counts, _tolerance

__all__ = ["DistributedInfeasible", "iterate_distributed_ia"]


class DistributedInfeasible(ValueError):
    """The stream request does not fit the block grid."""


def _smallest_first(q: np.ndarray, padded: Optional[np.ndarray]):
    """Batched ``eigh``; padded dimensions get a load above the trace.

    Runs inside the caller's :func:`pcia.linalg._lapack_errors`.

    A padded dimension is a zero row and column of ``q``, so loading its
    diagonal entry past ``trace(q)`` (an upper bound on every eigenvalue
    of a PSD matrix) sorts its direction after all the real ones.
    """
    if padded is not None:
        load = 2.0 * np.trace(q, axis1=1, axis2=2).real + 1.0
        q = q + load[:, None, None] * padded
    return _eigh(q)


def _padding(sizes: Sequence, size: int) -> Optional[np.ndarray]:
    """Diagonal ``(K, size, size)`` indicator of the padded dims, or None."""
    if all(s == size for s in sizes):
        return None
    return np.stack([np.diag(np.arange(size) >= s).astype(float) for s in sizes])


def iterate_distributed_ia(
    channel,
    dof: Sequence,
    max_iters: int = 1000,
    leakage_tol: float = 1e-8,
    *,
    seed,
) -> BeamformerSet:
    """Alternate receive and transmit updates until leakage dies out.

    Args:
        channel: a :class:`ChannelSet` or :class:`EquivalentChannel`,
            whose cached link grids the run reads.
        dof: streams per user (zero marks a silent user). Each message
            runs at unit power, a weight of ``1 / dof[k]`` per stream on
            the forward and reverse links alike.
        seed: anything accepted by ``np.random.default_rng``; it draws
            the orthonormal precoders the run starts from.

    Returns:
        BeamformerSet with the run's leakage history, iteration count and
        convergence flag. Convergence means the recorded leakage fell to
        ``leakage_tol`` times the initial desired-signal power; running
        out of iterations is reported, never raised.

    Raises:
        TypeError: ``channel`` is not a channel view.
        DistributedInfeasible: a user asks for more streams than its
            direct block supports.
        numpy.linalg.LinAlgError: a recorded leakage is not finite, a NaN
            arose in the loop, or an ``eigh`` did not converge; finite
            channel entries whose products overflow, say.
        ValueError: ``dof`` does not give one whole, non-negative count
            per user, ``max_iters`` is not a positive whole number, or
            ``leakage_tol`` is not positive and finite. These are caller
            errors, not infeasibility.
    """
    _require(channel, "channel", *_VIEWS)
    num_users = channel.num_users
    rows, cols = channel.rx_sizes, channel.tx_sizes
    dof = _stream_counts(dof, num_users)
    max_iters = _integral(max_iters, "max_iters", 1)
    leakage_tol = _tolerance(leakage_tol, "leakage_tol")
    for k in range(num_users):
        if dof[k] > min(rows[k], cols[k]):
            raise DistributedInfeasible(
                f"user {k} asks for {dof[k]} streams on a {(rows[k], cols[k])} block"
            )

    forward, reverse = channel._forward, channel._reverse
    _, _, rx_size, tx_size = channel._stacked.shape
    width = max(dof)
    rng = np.random.default_rng(seed)
    transmit = np.zeros((num_users, tx_size, width), dtype=np.complex128)
    for k, (n, d) in enumerate(zip(cols, dof)):
        raw = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        if d:
            transmit[k, :n, :d] = np.linalg.qr(raw)[0]

    per_stream = _unit_power_weights(dof)
    threshold = leakage_tol * sum(
        per_stream[k] * float(np.linalg.norm(
            channel._stacked[k, k, :m, :n] @ transmit[k, :n, :d], "fro") ** 2)
        for k, (m, n, d) in enumerate(zip(rows, cols, dof)) if d > 0
    )

    streams = np.arange(width) < np.array(dof)[:, None]
    weights = _interferer_weights(tuple(per_stream), tuple(dof))
    fwd_padded = _padding(rows, rx_size)
    rev_padded = _padding(cols, tx_size)

    history = []
    converged = False
    with _lapack_errors():
        for _ in range(max_iters):
            vals, vecs = _smallest_first(
                _covariance_stack(forward, transmit, weights), fwd_padded)
            receive = vecs[:, :, :width]
            total = float(np.add.reduce(vals[:, :width] * streams, axis=None))
            history.append(total)
            if not math.isfinite(total):
                raise LinAlgError(f"leakage {total} at iteration {len(history)} is not finite")
            if total <= threshold:
                converged = True
                break
            _, vecs = _smallest_first(
                _covariance_stack(reverse, receive, weights), rev_padded)
            transmit = vecs[:, :, :width]
    for stack, sizes in ((receive, rows), (transmit, cols)):
        padding = np.arange(stack.shape[1]) >= np.array(sizes)[:, None]
        stack[padding[:, :, None] | ~streams[:, None, :]] = 0.0
    return BeamformerSet(fix_column_phases(receive), fix_column_phases(transmit), rows, cols,
                         tuple(dof), iterations=len(history), converged=converged,
                         leakage=tuple(history))
