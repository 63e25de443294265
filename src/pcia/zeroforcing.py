"""Block-diagonalization zero forcing under full network coordination.

The fully coordinated benchmark: every message is precoded across all
transmit antennas of the network, inside the null space of every other
user's channel rows, so inter-user interference vanishes by construction
at the cost of network-wide data sharing.

The design reads the channel's cached row blocks and is batched over
users, one LAPACK call per distinct matrix shape for each of its two
SVD steps, so it costs the same few calls for every user count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import _batched, _pinned_svd
from .network import ChannelSet, _stream_counts, _tolerance

__all__ = ["BDInfeasible", "BDSolution", "bd_zero_forcing"]


class BDInfeasible(RuntimeError):
    """Not enough pooled antennas to zero-force the requested streams."""


@dataclass
class BDSolution:
    """Per-user precoders over the pooled antennas plus receive filters."""

    transmit: list   # each total-tx-antennas x d_k, orthonormal columns
    receive: list    # each m_k x d_k, orthonormal columns
    dof: tuple

    @property
    def dof_total(self) -> int:
        return sum(self.dof)


def _null_spaces(stacks: np.ndarray, rank_tol: float) -> list:
    """Null-space bases of an ``(S, r, n)`` stack, one full ``svd``.

    Singular values at or below ``rank_tol`` times the largest count as
    zero; the basis is the matching trailing right singular vectors.
    """
    _, svals, vh = np.linalg.svd(stacks)
    v = vh.conj().transpose(0, 2, 1)
    return [vk[:, int(np.sum(sk > rank_tol * sk[0])):] for vk, sk in zip(v, svals)]


def bd_zero_forcing(
    channel: ChannelSet,
    dof: Optional[Sequence] = None,
    rank_tol: float = 1e-9,
) -> BDSolution:
    """Zero-forcing precoders in the null space of the other users' rows.

    Within each null space the precoder takes the dominant singular
    directions of the user's effective channel. When ``dof`` is omitted,
    every user gets the most streams its null space and antennas support.
    A single-user channel degenerates to plain eigenbeamforming.

    The design is batched over users: one full ``svd`` of the stacked
    other-user rows and one thin ``svd`` of the effective channels per
    distinct matrix shape, with singular-vector phases pinned on the
    stack. The rows come from the channel's cached row blocks. Each
    decomposition is exactly the one of its own matrix, so the result
    equals a per-user loop bit for bit.

    Raises:
        BDInfeasible: some user's null space is empty or smaller than its
            requested stream count.
        ValueError: ``dof`` does not give one whole, non-negative count
            per user, or ``rank_tol`` is not positive and finite.
    """
    rank_tol = _tolerance(rank_tol, "rank_tol")
    num_users = channel.num_users
    if dof is not None:
        dof = _stream_counts(dof, num_users)
    n_total = sum(channel.tx_sizes)
    rows = channel._rows
    if num_users > 1:
        others = [np.vstack(rows[:k] + rows[k + 1:]) for k in range(num_users)]
        nulls = _batched(lambda stacks: _null_spaces(stacks, rank_tol), others)
    else:
        nulls = [np.eye(n_total, dtype=np.complex128)]
    granted = []
    for k, null in enumerate(nulls):
        if dof is not None and dof[k] == 0:
            granted.append(0)
            continue
        if null.shape[1] == 0:
            raise BDInfeasible(
                f"zero forcing leaves user {k} no interference-free directions: "
                f"{n_total} pooled antennas cannot avoid "
                f"{others[k].shape[0]} foreign receive dimensions"
            )
        cap = min(rows[k].shape[0], null.shape[1])
        want = cap if dof is None else dof[k]
        if want > cap:
            raise BDInfeasible(
                f"user {k} asked for {want} streams but zero forcing supports {cap}"
            )
        granted.append(want)
    active = [k for k, want in enumerate(granted) if want > 0]
    triplets = dict(zip(active, _batched(_pinned_svd, [rows[k] @ nulls[k] for k in active])))
    transmit, receive = [], []
    for k, want in enumerate(granted):
        if want == 0:
            transmit.append(np.zeros((n_total, 0), dtype=np.complex128))
            receive.append(np.zeros((rows[k].shape[0], 0), dtype=np.complex128))
            continue
        u, _, v = triplets[k]
        transmit.append(nulls[k] @ v[:, :want])
        receive.append(u[:, :want])
    return BDSolution(transmit=transmit, receive=receive, dof=tuple(granted))
