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
   from the kernel :func:`pcia.linalg.interference_covariances` shared
   with the iterative baseline,
3. its null space as the admissible precoder directions,
4. a subset choice within that null space scored on the direct link,
   with the candidate subsets scored by batched ``|det|`` calls over
   fixed-size chunks of their lexicographic order.

No iteration and no channel extension is involved.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Optional, Sequence

import numpy as np

from .linalg import (
    _stream_weights,
    fix_column_phases,
    interference_covariances,
    pin_joint_phases,
    reciprocal,
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

    Returns:
        (receive, cache): per-user ``m_k x d_k`` filters with orthonormal
        columns, plus the full :class:`SvdCache` for reuse by the
        transmit-side selection.

    Raises:
        ValueError: if any user asks for more streams than its direct
            block supports.
    """
    receive = []
    left, singular, right = [], [], []
    left_t, singular_t, right_t = [], [], []
    for k in range(config.num_users):
        block = equiv.blocks[k][k]
        d = config.dof[k]
        if d > min(block.shape):
            raise ValueError(
                f"user {k} asks for {d} streams on a {block.shape} direct block"
            )
        u, s, vh = np.linalg.svd(block, full_matrices=False)
        u, m_right = pin_joint_phases(u, vh.conj().T)
        left.append(u)
        singular.append(s)
        right.append(m_right)
        left_t.append(u[:, :d])
        singular_t.append(s[:d])
        right_t.append(m_right[:, :d])
        receive.append(u[:, :d])
    cache = SvdCache(left, singular, right, left_t, singular_t, right_t)
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
    if len(powers) != config.num_users:
        raise ValueError("need one reverse power per user")
    return interference_covariances(
        reciprocal(equiv.blocks), receive, _stream_weights(powers, config.dof))


def null_space_basis(q: np.ndarray, rank_tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of the (numerical) null space of a Hermitian PSD matrix.

    Eigenvalues at or below ``rank_tol`` times the largest one count as
    zero; a zero matrix yields a full basis.
    """
    vals, vecs = np.linalg.eigh(q)
    largest = max(float(vals[-1]), 0.0)
    keep = vals <= rank_tol * largest
    return fix_column_phases(vecs[:, keep])


def reciprocal_state(
    equiv: EquivalentChannel,
    receive: Sequence,
    config: NetworkConfig,
    rank_tol: float = 1e-9,
    reverse_power: Optional[Sequence] = None,
) -> ReciprocalState:
    """Covariances plus null-space bases and candidate counts per user."""
    covariances = reciprocal_interference_covariance(equiv, receive, config, reverse_power)
    ranks, nullities, bases, counts = [], [], [], []
    for k, q in enumerate(covariances):
        basis = null_space_basis(q, rank_tol)
        nullity = basis.shape[1]
        ranks.append(q.shape[0] - nullity)
        nullities.append(nullity)
        bases.append(basis)
        counts.append(math.comb(nullity, config.dof[k]) if nullity >= config.dof[k] else 0)
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


def _single_pass_bound(config: NetworkConfig) -> int:
    return min(config.paired_tx_antennas(k) for k in config.active_users)


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
    if not config.active_users:
        raise ValueError("no active users: every stream count is zero")
    d_hat = config.dof_total
    bound = _single_pass_bound(config)
    if d_hat > bound:
        raise OneShotInfeasible(
            f"{d_hat} total streams exceed the single-pass bound of {bound} "
            "(smallest paired antenna width among active users)",
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
    for k in config.active_users:
        eff = receive[k].conj().T @ equiv.blocks[k][k] @ transmit[k]
        svals = np.linalg.svd(eff, compute_uv=False)
        # Reference scale is the unprojected direct link (its largest
        # singular value, from the receive-side SVD): filters with
        # unit columns can only shrink it, and comparing within ``eff``
        # alone would make a uniformly collapsed link (d_k = 1 above
        # all) look healthy.
        scale = cache.singular[k][0]
        if svals[-1] <= rank_tol * scale:
            raise RankDeficientDesired(
                f"direct link of user {k} is rank deficient after precoding",
                user=k,
            )
    return BeamformerSet.from_joint(receive, transmit, config)
