"""Iterative leakage-minimizing alignment, usable with or without pairing.

This is the classical alternating baseline: receive filters take the
least-interfered directions of the forward covariance, transmit precoders
take the least-leaking directions of the reciprocal covariance, and the
two steps repeat until the residual interference power is negligible
against the initial signal power. Both covariances come from the shared
kernel :func:`pcia.linalg.interference_covariances`, the reverse one on
the :func:`pcia.linalg.reciprocal` grid built once per run. It runs on
any square block grid, so the same code covers the plain per-station
channel and the paired one.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from .linalg import (
    _stream_weights,
    fix_column_phases,
    interference_covariances,
    reciprocal,
    smallest_eigvecs,
)

__all__ = ["IterationTrace", "leakage", "iterate_distributed_ia"]


@dataclasses.dataclass
class IterationTrace:
    """Outcome of one alternating-minimization run."""

    leakage: list        # interference power after each receive update
    iterations: int
    converged: bool
    receive: list
    transmit: list


def _leakage_total(receive, covs) -> float:
    total = 0.0
    for u, q in zip(receive, covs):
        if u.shape[1]:
            total += float(np.real(np.trace(u.conj().T @ q @ u)))
    return total


def leakage(blocks, receive, transmit, powers, dof) -> float:
    """Total interference power left at the receive filter outputs.

    Sums ``trace(U_k^H Q_k U_k)`` over users, where ``Q_k`` collects the
    per-stream-power weighted covariances of all undesired transmitters.
    """
    covs = interference_covariances(blocks, transmit, _stream_weights(powers, dof))
    return _leakage_total(receive, covs)


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
        raise ValueError("need one stream count and one power per user")
    for k in range(num_users):
        cap = min(blocks[k][k].shape)
        if dof[k] > cap:
            raise ValueError(
                f"user {k} asks for {dof[k]} streams on a {blocks[k][k].shape} block"
            )
    fwd_weights = _stream_weights(powers, dof)
    rev_weights = fwd_weights if reverse_powers is None else _stream_weights(
        list(reverse_powers), dof)
    reverse = reciprocal(blocks)

    if init == "svd":
        transmit = []
        for k in range(num_users):
            _, _, vh = np.linalg.svd(blocks[k][k], full_matrices=False)
            transmit.append(fix_column_phases(vh.conj().T[:, :dof[k]]))
    elif init == "random":
        rng = np.random.default_rng(seed)
        transmit = []
        for k in range(num_users):
            cols = blocks[k][k].shape[1]
            raw = rng.standard_normal((cols, dof[k])) + 1j * rng.standard_normal(
                (cols, dof[k]))
            q, _ = np.linalg.qr(raw) if dof[k] else (np.zeros((cols, 0)), None)
            transmit.append(fix_column_phases(np.asarray(q, dtype=np.complex128)))
    else:
        raise ValueError(f"unknown init mode {init!r}")

    signal_scale = sum(
        fwd_weights[k] * float(np.linalg.norm(blocks[k][k] @ transmit[k], "fro") ** 2)
        for k in range(num_users) if dof[k] > 0
    )
    threshold = leakage_tol * signal_scale

    receive = [np.zeros((blocks[k][k].shape[0], 0), dtype=np.complex128)
               for k in range(num_users)]
    history = []
    converged = False
    for _ in range(max_iters):
        covs = interference_covariances(blocks, transmit, fwd_weights)
        receive = [smallest_eigvecs(covs[k], dof[k]) for k in range(num_users)]
        total = _leakage_total(receive, covs)
        history.append(total)
        if total <= threshold:
            converged = True
            break
        rev = interference_covariances(reverse, receive, rev_weights)
        transmit = [smallest_eigvecs(rev[k], dof[k]) for k in range(num_users)]
    return IterationTrace(
        leakage=history,
        iterations=len(history),
        converged=converged,
        receive=receive,
        transmit=transmit,
    )
