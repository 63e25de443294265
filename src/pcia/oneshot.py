r"""Closed-form interference alignment on the paired-transmitter channel.

Pairing the transmitters widens every user's precoder to the combined
antenna stack of its serving pair. For generic channels the aggregate
interference covariance seen on that stack then has rank equal to the
streams of all other users, so whenever the total stream count stays
within the smallest paired width, transmit precoders that cancel all
cross links exist in closed form and are found in one pass:

1. receive filters from the dominant singular directions of each direct
   block,
2. a reciprocal interference covariance per user on the paired stack,
   from the covariance kernel of :mod:`pcia.linalg` shared with the
   iterative baseline,
3. its null space as the admissible precoder directions,
4. a subset choice within that null space scored on the direct link,
   with the candidate subsets scored by batched ``|det|`` calls over
   fixed-size chunks of their lexicographic order.

Steps 1 to 3 and the final rank check are batched over users, and
what does not depend on the slot's stream counts is computed once per
draw: the channel caches its stacked grid, the contiguous reciprocal of
that grid and the pinned SVD of its direct blocks, which every
time-share slot's design on that channel reads. Each LAPACK step
(``svd``, ``eigh``, singular values) runs once per distinct matrix
shape, with column phases pinned on the stack. Ragged antenna counts are
grouped by shape, never padded, so each decomposition is exactly the one
of its own matrix and the ``rank_tol`` null-space threshold sees only
real eigenvalues.

No iteration and no channel extension is involved.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Optional, Sequence

import numpy as np

from .linalg import (
    _batched,
    _covariances,
    _stream_weights,
    fix_column_phases,
)
from .network import (
    BeamformerSet,
    ChannelSet,
    EquivalentChannel,
    NetworkConfig,
    build_permutation,
    equivalent_channel,
)

__all__ = [
    "OneShotInfeasible",
    "RankDeficientDesired",
    "SvdCache",
    "ReciprocalState",
    "design_receive_beamformers",
    "reciprocal_interference_covariance",
    "reciprocal_state",
    "null_space_basis",
    "select_transmit_beamformer",
    "received_signal_power",
    "one_shot_ia",
]


# Candidate subsets scored per stacked determinant call: bounds the
# memory of the search when ``comb(nullity, d)`` is large.
_SUBSET_CHUNK = 4096


class OneShotInfeasible(RuntimeError):
    """Stream demand exceeds what single-pass alignment can cancel."""

    def __init__(self, message: str, user: Optional[int] = None,
                 nullity: Optional[int] = None, dof: Optional[int] = None):
        super().__init__(message)
        self.user = user
        self.nullity = nullity
        self.dof = dof


class RankDeficientDesired(RuntimeError):
    """A selected precoder collapsed the direct link below full stream rank."""

    def __init__(self, message: str, user: Optional[int] = None):
        super().__init__(message)
        self.user = user


@dataclasses.dataclass
class SvdCache:
    """Per-user singular triplets of the direct paired blocks.

    ``left[k] @ diag(singular[k]) @ right[k].conj().T`` reproduces the
    direct block of user ``k``; the ``*_trunc`` entries keep only the
    ``dof[k]`` dominant triplets.
    """

    left: list
    singular: list
    right: list
    left_trunc: list
    singular_trunc: list
    right_trunc: list


@dataclasses.dataclass
class ReciprocalState:
    """Reciprocal covariances and their null-space data, one entry per user."""

    covariances: list    # paired-width square, Hermitian PSD
    ranks: list          # measured numerical ranks
    nullities: list      # admissible precoder dimensions a_k
    null_bases: list     # orthonormal bases of the admissible subspaces
    choice_counts: list  # number of candidate column subsets per user


def design_receive_beamformers(equiv: EquivalentChannel, config: NetworkConfig):
    """Receive filters from the dominant left singular vectors.

    The filters slice the channel's cached direct-block SVD, which one
    batched ``svd`` per distinct block shape builds once per draw and
    every time-share slot then reads; the filters are read-only views.

    Returns:
        (receive, cache): per-user ``m_k x d_k`` filters with orthonormal
        columns, plus the full :class:`SvdCache` for reuse by the
        transmit-side selection.

    Raises:
        ValueError: if any user asks for more streams than its direct
            block supports.
    """
    direct = [equiv.blocks[k][k] for k in range(config.num_users)]
    for k, (block, d) in enumerate(zip(direct, config.dof)):
        if d > min(block.shape):
            raise ValueError(
                f"user {k} asks for {d} streams on a {block.shape} direct block"
            )
    left, singular, right = map(list, zip(*equiv._direct_svd))
    receive = [u[:, :d] for u, d in zip(left, config.dof)]
    cache = SvdCache(left, singular, right, list(receive),
                     [s[:d] for s, d in zip(singular, config.dof)],
                     [v[:, :d] for v, d in zip(right, config.dof)])
    return receive, cache


def reciprocal_interference_covariance(
    equiv: EquivalentChannel,
    receive: Sequence,
    config: NetworkConfig,
    reverse_power: Optional[Sequence] = None,
):
    """Per-user interference covariance of the reciprocal network.

    On the reverse links every other user's receive filter acts as a
    transmitter into user ``k``'s paired antenna stack, weighted by its
    per-stream power. Silent users contribute nothing. The reverse powers
    default to the forward ones.
    """
    powers = list(config.tx_power) if reverse_power is None else list(reverse_power)
    q = _covariances(equiv._reciprocal, receive,
                     _stream_weights(powers, config.dof))
    return [q[k, :w, :w] for k, w in enumerate(config.paired_widths)]


def _null_bases(qs: np.ndarray, rank_tol: float) -> list:
    """Null-space bases of a ``(S, n, n)`` Hermitian PSD stack, one batched ``eigh``."""
    vals, vecs = np.linalg.eigh(qs)
    keep = vals <= rank_tol * np.maximum(vals[:, -1:], 0.0)
    return [v[:, mask] for v, mask in zip(fix_column_phases(vecs), keep)]


def null_space_basis(q: np.ndarray, rank_tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of the (numerical) null space of a Hermitian PSD matrix.

    Eigenvalues at or below ``rank_tol`` times the largest one count as
    zero; a zero matrix yields a full basis.
    """
    return _null_bases(np.asarray(q)[None], rank_tol)[0]


def reciprocal_state(
    equiv: EquivalentChannel,
    receive: Sequence,
    config: NetworkConfig,
    rank_tol: float = 1e-9,
    reverse_power: Optional[Sequence] = None,
) -> ReciprocalState:
    """Covariances plus null-space bases and candidate counts per user.

    The null spaces come from one batched ``eigh`` per distinct paired
    width.
    """
    covariances = reciprocal_interference_covariance(equiv, receive, config, reverse_power)
    bases = _batched(lambda qs: _null_bases(qs, rank_tol), covariances)
    nullities = [b.shape[1] for b in bases]
    ranks = [q.shape[0] - a for q, a in zip(covariances, nullities)]
    counts = [math.comb(a, d) if a >= d else 0 for a, d in zip(nullities, config.dof)]
    return ReciprocalState(covariances, ranks, nullities, bases, counts)


def select_transmit_beamformer(
    receive_k: np.ndarray,
    direct_block: np.ndarray,
    null_basis: np.ndarray,
    dof_k: int,
    criterion: str = "geometric",
    user: Optional[int] = None,
) -> np.ndarray:
    """Pick the best stream subset of the admissible precoder directions.

    Every ``dof_k``-column subset of ``null_basis`` cancels all cross
    links equally well, so the choice is scored on the direct link
    through ``B = receive_k^H @ direct_block @ candidate``:

    * ``"geometric"`` (default): product of the eigenvalue moduli of
      ``B``, favouring well-conditioned stream separation. It is computed
      as ``|det B|``.
    * ``"power"``: squared Frobenius norm of ``B``, favouring raw
      received signal power.

    Subsets are taken in lexicographic order and scored in batches of at
    most ``_SUBSET_CHUNK``, one stacked ``det`` (or norm) per batch, so
    memory stays bounded however many subsets there are. Ties break
    toward the lexicographically first subset.

    Raises:
        OneShotInfeasible: when fewer admissible directions exist than
            streams requested.
    """
    if criterion not in ("geometric", "power"):
        raise ValueError(f"unknown selection criterion {criterion!r}")
    nullity = null_basis.shape[1]
    if dof_k == 0:
        return np.zeros((null_basis.shape[0], 0), dtype=np.complex128)
    if nullity < dof_k:
        raise OneShotInfeasible(
            f"user {user if user is not None else '?'} has only {nullity} "
            f"interference-free directions for {dof_k} streams",
            user=user, nullity=nullity, dof=dof_k,
        )
    if nullity == dof_k:
        return null_basis
    projected = receive_k.conj().T @ direct_block @ null_basis
    subsets = itertools.combinations(range(nullity), dof_k)
    best_cols = None
    best_score = -np.inf
    while chunk := list(itertools.islice(subsets, _SUBSET_CHUNK)):
        stack = projected[:, chunk].transpose(1, 0, 2)
        if criterion == "geometric":
            scores = np.abs(np.linalg.det(stack))
        else:
            scores = np.sum(stack.real ** 2 + stack.imag ** 2, axis=(1, 2))
        i = int(np.argmax(scores))
        if scores[i] > best_score:
            best_score = scores[i]
            best_cols = chunk[i]
    return null_basis[:, best_cols]


def received_signal_power(
    receive_k: np.ndarray,
    direct_block: np.ndarray,
    transmit_k: np.ndarray,
    power_k: float,
    dof_k: int,
) -> float:
    """Desired-signal power at the filter output under equal stream split."""
    if dof_k == 0:
        return 0.0
    eff = receive_k.conj().T @ direct_block @ transmit_k
    return power_k / dof_k * float(np.real(np.trace(eff @ eff.conj().T)))


def one_shot_ia(
    config: NetworkConfig,
    channel,
    rank_tol: float = 1e-9,
    criterion: str = "geometric",
    reverse_power: Optional[Sequence] = None,
) -> BeamformerSet:
    """Design all receive filters and paired transmit precoders in one pass.

    Args:
        channel: a :class:`ChannelSet`, or an already-built
            :class:`EquivalentChannel` to skip the reindexing.

    Raises:
        OneShotInfeasible: total streams exceed the smallest paired width
            among active users, or a null space comes up short.
        RankDeficientDesired: a direct link lost stream rank after
            precoding (a measure-zero event for generic channels).
    """
    active = config.active_users
    if not active:
        raise ValueError("no active users: every stream count is zero")
    d_hat = config.dof_total
    bound = min(config.paired_tx_antennas(k) for k in active)
    if d_hat > bound:
        raise OneShotInfeasible(
            f"one-shot alignment cannot deliver {d_hat} total streams: the "
            f"smallest paired antenna width is {bound} among active users",
            nullity=bound, dof=d_hat,
        )
    if isinstance(channel, EquivalentChannel):
        equiv = channel
        if equiv.widths != config.paired_widths:
            raise ValueError("equivalent channel widths do not match the config")
    else:
        equiv = equivalent_channel(channel, build_permutation(config))
    receive, cache = design_receive_beamformers(equiv, config)
    state = reciprocal_state(equiv, receive, config, rank_tol, reverse_power)
    transmit = []
    for k in range(config.num_users):
        transmit.append(
            select_transmit_beamformer(
                receive[k], equiv.blocks[k][k], state.null_bases[k],
                config.dof[k], criterion=criterion, user=k,
            )
        )
    # Reference scale is the unprojected direct link (its largest singular
    # value, from the receive-side SVD): filters with unit columns can
    # only shrink it, and comparing within ``eff`` alone would make a
    # uniformly collapsed link (d_k = 1 above all) look healthy.
    effs = [receive[k].conj().T @ equiv.blocks[k][k] @ transmit[k] for k in active]
    smallest = _batched(lambda stack: np.linalg.svd(stack, compute_uv=False)[:, -1], effs)
    for k, sval in zip(active, smallest):
        if sval <= rank_tol * cache.singular[k][0]:
            raise RankDeficientDesired(
                f"direct link of user {k} is rank deficient after precoding",
                user=k,
            )
    return BeamformerSet(receive, transmit)
