"""Block-diagonalization zero forcing under full network coordination.

The fully coordinated benchmark: every message is precoded across all
transmit antennas of the network, inside the null space of every other
user's channel rows, so inter-user interference vanishes by construction
at the cost of network-wide data sharing.

The design reads the channel view's matrix and its cached row stack and
is batched over users, one LAPACK call per distinct matrix shape for
each of its two SVD steps, so it costs the same few calls for every
user count.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from .linalg import _groups, _pinned_svd
from .network import BeamformerSet, ChannelSet, _read_only, _slices, _stream_counts, _tolerance

__all__ = ["BDInfeasible", "bd_zero_forcing"]


class BDInfeasible(RuntimeError):
    """Not enough pooled antennas to zero-force the requested streams."""


@functools.lru_cache(maxsize=16)
def _other_rows(rx_sizes: tuple) -> tuple:
    """``(users, index)`` per group of users with equal row counts, built once per layout.

    Row ``g`` of the read-only ``index`` lists the rows of every user but ``users[g]``.
    """
    rows, cuts = np.arange(sum(rx_sizes)), _slices(rx_sizes)
    return tuple((users, _read_only(np.array([np.delete(rows, cuts[k]) for k in users])))
                 for _, users in _groups(rx_sizes))


def bd_zero_forcing(
    channel: ChannelSet,
    dof: Optional[Sequence] = None,
    rank_tol: float = 1e-9,
) -> BeamformerSet:
    """Zero-forcing precoders in the null space of the other users' rows.

    Within each null space the precoder takes the dominant singular
    directions of the user's effective channel. When ``dof`` is omitted,
    every user gets the most streams its null space and antennas support.
    A single-user channel degenerates to plain eigenbeamforming.

    The design is batched over users: each group with equal row counts
    gathers its other-user rows from the channel matrix at once for one
    full ``svd``, and each group sharing every shape makes one stacked
    ``H_k N_k``, phase-pinned thin ``svd`` and ``N_k V_k``. Each call does
    what a per-user loop does, so the result equals that loop bit for bit.
    Every precoder spans all ``sum(n)`` pooled antennas.

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
    n_total, rx_sizes = sum(channel.tx_sizes), channel.rx_sizes
    nulls = [np.eye(n_total, dtype=np.complex128)] if num_users == 1 else [None] * num_users
    # Singular values at or below ``rank_tol`` times the largest count as
    # zero; the null basis is the matching trailing right singular vectors.
    for users, index in _other_rows(rx_sizes) if num_users > 1 else ():
        _, svals, vh = np.linalg.svd(channel._matrix[index])
        ranks = np.add.reduce(svals > rank_tol * svals[:, :1], axis=1).tolist()
        for k, v, rank in zip(users, vh.conj().transpose(0, 2, 1), ranks):
            nulls[k] = v[:, rank:]
    granted = []
    for k, null in enumerate(nulls):
        if dof is not None and dof[k] == 0:
            granted.append(0)
            continue
        if null.shape[1] == 0:
            raise BDInfeasible(
                f"zero forcing leaves user {k} no interference-free directions: "
                f"{n_total} pooled antennas cannot avoid "
                f"{sum(rx_sizes) - rx_sizes[k]} foreign receive dimensions")
        cap = min(rx_sizes[k], null.shape[1])
        want = cap if dof is None else dof[k]
        if want > cap:
            raise BDInfeasible(
                f"user {k} asked for {want} streams but zero forcing supports {cap}")
        granted.append(want)
    width = max(granted)
    receive = np.zeros((num_users, max(rx_sizes), width), dtype=np.complex128)
    transmit = np.zeros((num_users, n_total, width), dtype=np.complex128)
    for (m, _, want), users in _groups(tuple(
            (m, null.shape, want) for m, null, want in zip(rx_sizes, nulls, granted))):
        if want == 0:
            continue
        # Each null basis keeps its column-major layout in the stack.
        null = np.array([nulls[k].T for k in users.tolist()]).transpose(0, 2, 1)
        u, _, v = _pinned_svd(channel._row_stack[users, :m] @ null)
        transmit[users, :, :want] = null @ v[:, :, :want]
        receive[users, :m, :want] = u[:, :, :want]
    return BeamformerSet(receive, transmit, rx_sizes, (n_total,) * num_users, tuple(granted))
