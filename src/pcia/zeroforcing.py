"""Block-diagonalization zero forcing under full network coordination.

The fully coordinated benchmark: every message is precoded across all
transmit antennas of the network, inside the null space of every other
user's channel rows, so inter-user interference vanishes by construction
at the cost of network-wide data sharing.

The design reads the channel view's matrix and its cached row stack and
is batched over users, one LAPACK call per distinct matrix shape for
each of its two SVD steps, so it costs the same few calls for every
user count. Its null spaces are a ``(K, N, N)`` stack of right singular
vectors and a nullity vector, the form of the one-shot null-space step's
record, :class:`pcia.oneshot.ReciprocalState`.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from .linalg import _groups, _pinned_svd, _read_only
from .network import BeamformerSet, ChannelSet, _require, _slices, _stream_counts, _tolerance

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
        TypeError: ``channel`` is not a :class:`ChannelSet`.
        BDInfeasible: some user's null space is empty or smaller than its
            requested stream count.
        ValueError: ``dof`` does not give one whole, non-negative count
            per user, or ``rank_tol`` is not positive and finite.
    """
    _require(channel, "channel", ChannelSet)
    rank_tol = _tolerance(rank_tol, "rank_tol")
    num_users = channel.num_users
    if dof is not None:
        dof = _stream_counts(dof, num_users)
    n_total, rx_sizes = sum(channel.tx_sizes), channel.rx_sizes
    # ``right[k]``'s rows: the right singular vectors of the other users'
    # rows, or the identity for a lone user. Its trailing ``nullities[k]``
    # rows, past singular values above ``rank_tol`` times the largest, span
    # user k's null space.
    right = np.tile(np.eye(n_total, dtype=np.complex128), (num_users, 1, 1))
    nullities = np.full(num_users, n_total)
    for users, index in _other_rows(rx_sizes) if num_users > 1 else ():
        _, svals, right[users] = np.linalg.svd(channel._matrix[index])
        nullities[users] = n_total - np.add.reduce(svals > rank_tol * svals[:, :1], axis=1)
    granted = []
    for k, nullity in enumerate(nullities.tolist()):
        if dof is not None and dof[k] == 0:
            granted.append(0)
            continue
        if nullity == 0:
            raise BDInfeasible(
                f"zero forcing leaves user {k} no interference-free directions: "
                f"{n_total} pooled antennas cannot avoid "
                f"{sum(rx_sizes) - rx_sizes[k]} foreign receive dimensions")
        cap = min(rx_sizes[k], nullity)
        want = cap if dof is None else dof[k]
        if want > cap:
            raise BDInfeasible(
                f"user {k} asked for {want} streams but zero forcing supports {cap}")
        granted.append(want)
    width = max(granted)
    receive = np.zeros((num_users, max(rx_sizes), width), dtype=np.complex128)
    transmit = np.zeros((num_users, n_total, width), dtype=np.complex128)
    for (m, a, want), users in _groups(tuple(zip(rx_sizes, nullities.tolist(), granted))):
        if want == 0:
            continue
        # Each null basis keeps its column-major layout in the stack.
        null = right[users, n_total - a:].conj().transpose(0, 2, 1)
        u, _, v = _pinned_svd(channel._row_stack[users, :m] @ null)
        transmit[users, :, :want] = null @ v[:, :, :want]
        receive[users, :m, :want] = u[:, :, :want]
    return BeamformerSet(receive, transmit, rx_sizes, (n_total,) * num_users, tuple(granted))
