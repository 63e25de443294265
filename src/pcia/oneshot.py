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
4. a subset choice within that null space scored on the direct link by
   ``|det|``: every subset's determinant is a minor, built level by level
   from the minors one column smaller (Laplace expansion) over index
   tables cached per nullity and stream count, ties going to the
   lexicographically first subset. A search whose widest level exceeds
   ``_MAX_SUBSETS`` subsets is refused before any table is built.

What does not depend on the slot's stream counts is computed once per
draw: the channel caches its stacked grid, its reverse link grid in the
covariance kernel's layout and the pinned SVD of its direct blocks. What
depends on the config alone (the active users, the stream bound, the
kernel's half weights at unit power and each width group's index array)
is built once per config. A slot's covariances are one stack of its
receive filters and one kernel call, and its null spaces one LAPACK call
per paired width, phases pinned on the stack. One pass over the groups
of users sharing every filter shape and nullity then runs each group's
subset search, one gather and product per minor level, and its
rank-check ``svd`` on the same stacked filters and picks, which it then
scatters into the design's zero-padded stacks; a group with exactly as
many directions as streams keeps its bases. Grouping ragged shapes, never
padding them, keeps each decomposition exactly the one of its own matrix.
No iteration and no channel extension is involved.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .linalg import (
    _covariance_stack,
    _eigh,
    _groups,
    _interferer_weights,
    _lapack_errors,
    _read_only,
    _stack,
    _unit_power_weights,
    fix_column_phases,
)
from .network import (
    BeamformerSet,
    EquivalentChannel,
    NetworkConfig,
    _tolerance,
    build_permutation,
    equivalent_channel,
)

__all__ = [
    "OneShotInfeasible",
    "RankDeficientDesired",
    "ReciprocalState",
    "design_receive_beamformers",
    "reciprocal_state",
    "select_transmit_beamformer",
    "one_shot_ia",
]


# Most subsets in one level of the minor search, ``comb(a, min(d, a // 2))``
# at its widest: a larger search is refused before any table is built.
_MAX_SUBSETS = 2**16


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
class ReciprocalState:
    """Null-space data of the reciprocal covariances, one entry per user."""

    nullities: list      # admissible precoder dimensions a_k
    null_bases: list     # orthonormal bases of the admissible subspaces
    choice_counts: list  # number of candidate column subsets per user


class _SlotPlan(NamedTuple):
    """What a slot's design reads of its config alone, see :func:`_slot_plan`."""

    active: tuple        # users with streams, in order
    bound: int           # smallest paired width among active users, 0 without any
    weights: np.ndarray  # the kernel's half weights at unit power per message
    widths: tuple        # (w, users) per distinct paired width, users an index array
    shapes: tuple        # (m, d, w) per user: rows and columns of its filters
    receive: tuple       # (m, d) per user: the shape of its receive filter


@functools.lru_cache(maxsize=64)
def _slot_plan(config: NetworkConfig) -> _SlotPlan:
    """The config-derived values of a one-shot slot, built once per config.

    Each width group's users come as the read-only index array of
    :func:`pcia.linalg._groups`, which picks their covariances. The
    weights are the read-only ``(K, 1, K·d)`` array of
    :func:`pcia.linalg._interferer_weights`.
    """
    active = config.active_users
    shapes = tuple(zip(config.rx_antennas, config.dof, config.paired_widths))
    return _SlotPlan(
        active=active,
        bound=min((config.paired_widths[k] for k in active), default=0),
        weights=_interferer_weights(tuple(_unit_power_weights(config.dof)), config.dof),
        widths=_groups(config.paired_widths),
        shapes=shapes,
        receive=tuple((m, d) for m, d, _ in shapes),
    )


def _check_layout(equiv: EquivalentChannel, config: NetworkConfig) -> None:
    """A ValueError unless the channel's block sizes are the config's paired layout."""
    if (equiv.rx_sizes, equiv.tx_sizes) != (config.rx_antennas, config.paired_widths):
        raise ValueError(f"channel block widths {equiv.rx_sizes} x {equiv.tx_sizes} do not "
                         f"match the config's {config.rx_antennas} x {config.paired_widths}")


def design_receive_beamformers(equiv: EquivalentChannel, config: NetworkConfig):
    """Receive filters from the dominant left singular vectors.

    The filters slice the channel's cached direct-block SVD, which one
    batched ``svd`` per distinct block shape builds once per draw and
    every time-share slot then reads; the filters are read-only views.

    Returns:
        Per-user ``m_k x d_k`` filters with orthonormal columns.

    Raises:
        ValueError: if the channel's block sizes are not the config's
            paired layout. On that layout the config's own cap keeps
            every stream count within its direct block.
    """
    _check_layout(equiv, config)
    return [u[:, :d] for (u, _, _), d in zip(equiv._direct_svd, config.dof)]


def _null_bases(qs: np.ndarray, rank_tol: float) -> list:
    """Null-space bases of a ``(S, n, n)`` Hermitian PSD stack, one batched ``eigh``.

    Eigenvalues at or below ``rank_tol`` times the largest one count as
    zero; a zero matrix yields a full basis.
    """
    with _lapack_errors():
        vals, vecs = _eigh(qs)
    # Ascending eigenvalues: the ones at or below the threshold are a prefix.
    kept = np.add.reduce(vals <= rank_tol * np.maximum(vals[:, -1:], 0.0), axis=1)
    return [v[:, :a] for v, a in zip(fix_column_phases(vecs), kept.tolist())]


def reciprocal_state(
    equiv: EquivalentChannel,
    receive: Sequence,
    config: NetworkConfig,
    rank_tol: float = 1e-9,
) -> ReciprocalState:
    """Null-space bases of the reciprocal covariances, and candidate counts per user.

    The covariances are one kernel call on the channel's cached reverse
    link grid, and the null spaces one batched ``eigh`` per distinct
    paired width over that zero-padded stack. A ``rank_tol`` that is
    not positive and finite, a channel whose block sizes are not the
    config's paired layout, or receive filters that are not one
    ``m_k x d_k`` matrix per user raise ValueError.
    """
    rank_tol = _tolerance(rank_tol, "rank_tol")
    _check_layout(equiv, config)
    plan = _slot_plan(config)
    shapes = tuple(u.shape for u in receive)
    if shapes != plan.receive:
        if len(shapes) != len(plan.receive):
            raise ValueError(f"need one receive filter per user: "
                             f"got {len(shapes)} for {config.num_users} users")
        k = next(k for k, (got, want) in enumerate(zip(shapes, plan.receive)) if got != want)
        raise ValueError(f"receive filter of user {k} is {shapes[k]}, not the "
                         f"{plan.receive[k]} of its antennas and streams")
    beams = _stack(receive, max(config.rx_antennas), max(config.dof))
    q = _covariance_stack(equiv._reverse, beams, plan.weights)
    bases = [None] * config.num_users
    for w, users in plan.widths:
        for k, basis in zip(users, _null_bases(q[users, :w, :w], rank_tol)):
            bases[k] = basis
    nullities = [b.shape[1] for b in bases]
    counts = [math.comb(a, d) if a >= d else 0 for a, d in zip(nullities, config.dof)]
    return ReciprocalState(nullities, bases, counts)


@functools.lru_cache(maxsize=64)
def _minor_tables(a: int, d: int) -> tuple:
    """Read-only index tables of the minor search over ``d``-subsets of ``a`` columns.

    Returns ``(levels, subsets)``. Each level ``j``, from 2 to ``d``, is
    ``(cols, drops, signs)``: row ``r`` of ``cols`` is the ``r``-th
    ``j``-subset ``S`` in lexicographic order, ``drops[r, i]`` is the
    position of ``S`` without its ``i``-th column among the ``(j - 1)``-
    subsets, and ``signs[i]`` is ``(-1) ** (j - 1 + i)``. The minors of
    rows ``0 .. j - 1`` of ``P`` on every ``S`` then expand along row
    ``j - 1`` as ``(P[j - 1, cols] * minors[drops]) @ signs``.
    ``subsets`` is the ``(comb(a, d), d)`` array of the last level's
    subsets. Built once per ``(a, d)``.
    """
    subsets = [(i,) for i in range(a)]
    levels = []
    for j in range(2, d + 1):
        position = {s: r for r, s in enumerate(subsets)}
        subsets = list(itertools.combinations(range(a), j))
        drops = [[position[s[:i] + s[i + 1:]] for i in range(j)] for s in subsets]
        signs = [(-1.0) ** (j - 1 + i) for i in range(j)]
        levels.append((_read_only(np.array(subsets, dtype=np.intp)),
                       _read_only(np.array(drops, dtype=np.intp)),
                       _read_only(np.array(signs, dtype=np.complex128))))
    return tuple(levels), _read_only(np.array(subsets, dtype=np.intp))


def select_transmit_beamformer(
    receive_k: np.ndarray,
    direct_block: np.ndarray,
    null_basis: np.ndarray,
    dof_k: int,
    user: Optional[int] = None,
) -> np.ndarray:
    """Pick the best stream subset of the admissible precoder directions.

    Every ``dof_k``-column subset of ``null_basis`` cancels all cross
    links equally well, so the choice is scored on the direct link
    through ``B = receive_k^H @ direct_block @ candidate``, by the
    product of the eigenvalue moduli of ``B``, ``|det B|``: the paper's
    geometric rule, favouring well-conditioned stream separation.

    With ``P = receive_k^H @ direct_block @ null_basis``, every subset's
    ``det B`` is its ``dof_k x dof_k`` minor of ``P``, built level by
    level: the minors of the ``j``-subsets on the first ``j`` rows
    expand along row ``j - 1`` into those of the ``(j - 1)``-subsets,
    one gather and product per level over index tables cached per
    nullity and stream count. Ties break toward the lexicographically
    first subset.

    Stacks with a leading user axis, ``(G, m, d)`` filters, ``(G, m, n)``
    direct blocks and ``(G, n, a)`` bases sharing one ``dof_k``, give the
    ``(G, n, d)`` stack of every user's own pick from one search: each
    level is built for all ``G`` users at once. ``user`` then names the
    stack's first user.

    Raises:
        OneShotInfeasible: when fewer admissible directions exist than
            streams requested, or when the widest level of the search,
            ``comb(nullity, min(dof_k, nullity // 2))`` subsets, exceeds
            ``_MAX_SUBSETS``; either before any table is built.
    """
    nullity = null_basis.shape[-1]
    if dof_k == 0:
        return np.zeros(null_basis.shape[:-1] + (0,), dtype=np.complex128)
    who = user if user is not None else "?"
    if nullity < dof_k:
        raise OneShotInfeasible(
            f"user {who} has only {nullity} interference-free directions for {dof_k} streams",
            user=user, nullity=nullity, dof=dof_k,
        )
    if nullity == dof_k:
        return null_basis
    widest = math.comb(nullity, min(dof_k, nullity // 2))
    if widest > _MAX_SUBSETS:
        raise OneShotInfeasible(
            f"user {who} would score {widest} subsets in one level of the search over "
            f"{nullity} directions for {dof_k} streams; the search holds at most "
            f"{_MAX_SUBSETS}",
            user=user, nullity=nullity, dof=dof_k,
        )
    stacked = null_basis.ndim == 3
    if not stacked:
        receive_k, direct_block, null_basis = receive_k[None], direct_block[None], null_basis[None]
    projected = receive_k.conj().transpose(0, 2, 1) @ direct_block @ null_basis
    levels, subsets = _minor_tables(nullity, dof_k)
    minors = projected[:, 0]
    for row, (cols, drops, signs) in enumerate(levels, 1):
        minors = (projected[:, row].take(cols, axis=1) * minors.take(drops, axis=1)) @ signs
    best_cols = subsets[np.abs(minors).argmax(axis=1)]
    picks = np.take_along_axis(null_basis, best_cols[:, None, :], axis=2)
    return picks if stacked else picks[0]


def one_shot_ia(
    config: NetworkConfig,
    channel,
    rank_tol: float = 1e-9,
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
        ValueError: ``rank_tol`` is not positive and finite, or the
            channel's antenna layout is not the config's.
    """
    rank_tol = _tolerance(rank_tol, "rank_tol")
    plan = _slot_plan(config)
    if not plan.active:
        raise ValueError("no active users: every stream count is zero")
    d_hat = config.dof_total
    if d_hat > plan.bound:
        raise OneShotInfeasible(
            f"one-shot alignment cannot deliver {d_hat} total streams: the "
            f"smallest paired antenna width is {plan.bound} among active users",
            nullity=plan.bound, dof=d_hat,
        )
    equiv = channel
    if not isinstance(channel, EquivalentChannel):
        equiv = equivalent_channel(channel, build_permutation(config))
    receive = design_receive_beamformers(equiv, config)
    state = reciprocal_state(equiv, receive, config, rank_tol)
    # One pass over the groups sharing filter and basis shapes, so a block
    # shape, a stream count and a nullity, in first-user order: each
    # group's stacked filters feed its subset search, where its bases are
    # not already its picks, so the first user short of directions raises,
    # then fill the design's stacks and feed its rank check. That check's
    # reference scale is the unprojected direct link (its largest singular
    # value, from the cached direct-block SVD): filters with unit columns
    # can only shrink it, and comparing within ``eff`` alone would make a
    # uniformly collapsed link (d_k = 1 above all) look healthy. Users are
    # checked in order after every group has run.
    grid, bases = equiv._stacked, state.null_bases
    num_users, _, rows, cols = grid.shape
    receive_stack = np.zeros((num_users, rows, max(config.dof)), dtype=np.complex128)
    transmit_stack = np.zeros((num_users, cols, max(config.dof)), dtype=np.complex128)
    smallest = {}
    for (m, d, w, a), users in _groups(tuple(
            (*shape, a) for shape, a in zip(plan.shapes, state.nullities))):
        if a == d == 0:  # silent users without a free direction: nothing to pick or check
            continue
        members = users.tolist()
        filters, direct = np.array([receive[k] for k in members]), grid[users, users, :m, :w]
        picks = np.array([bases[k] for k in members])
        if a != d:
            picks = select_transmit_beamformer(filters, direct, picks, d, user=members[0])
        if d:
            receive_stack[users, :m, :d] = filters
            transmit_stack[users, :w, :d] = picks
            eff = filters.conj().transpose(0, 2, 1) @ direct @ picks
            smallest.update(zip(members, np.linalg.svd(eff, compute_uv=False)[:, -1].tolist()))
    for k in plan.active:
        if smallest[k] <= rank_tol * equiv._direct_svd[k][1][0]:
            raise RankDeficientDesired(
                f"direct link of user {k} is rank deficient after precoding", user=k)
    return BeamformerSet(receive_stack, transmit_stack, config.rx_antennas,
                         config.paired_widths, config.dof)
