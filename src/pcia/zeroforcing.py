"""Block-diagonalization zero forcing under full network coordination.

The fully coordinated benchmark: every message is precoded across all
transmit antennas of the network, inside the null space of every other
user's channel rows, so inter-user interference vanishes by construction
at the cost of network-wide data sharing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import pin_joint_phases
from .network import ChannelSet

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

    Raises:
        BDInfeasible: some user's null space is empty or smaller than its
            requested stream count.
    """
    num_users = channel.num_users
    n_total = sum(channel.tx_sizes)
    transmit, receive, granted = [], [], []
    for k in range(num_users):
        other_rows = [channel.row_block(l) for l in range(num_users) if l != k]
        if other_rows:
            stacked = np.vstack(other_rows)
            _, svals, vh = np.linalg.svd(stacked)
            rank = int(np.sum(svals > rank_tol * svals[0])) if svals.size else 0
            null = vh.conj().T[:, rank:]
        else:
            null = np.eye(n_total, dtype=np.complex128)
        if dof is not None and int(dof[k]) == 0:
            transmit.append(np.zeros((n_total, 0), dtype=np.complex128))
            receive.append(np.zeros((channel.rx_sizes[k], 0), dtype=np.complex128))
            granted.append(0)
            continue
        if null.shape[1] == 0:
            raise BDInfeasible(
                f"zero forcing leaves user {k} no interference-free directions: "
                f"{n_total} pooled antennas cannot avoid "
                f"{stacked.shape[0]} foreign receive dimensions"
            )
        effective = channel.row_block(k) @ null
        cap = min(effective.shape)
        want = cap if dof is None else int(dof[k])
        if want > cap:
            raise BDInfeasible(
                f"user {k} asked for {want} streams but zero forcing supports {cap}"
            )
        u, _, vh_eff = np.linalg.svd(effective, full_matrices=False)
        u_t, v_t = pin_joint_phases(u[:, :want], vh_eff.conj().T[:, :want])
        transmit.append(null @ v_t)
        receive.append(u_t)
        granted.append(want)
    return BDSolution(transmit=transmit, receive=receive, dof=tuple(granted))
