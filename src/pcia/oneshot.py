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
draw and cached on the paired view its caller builds: the stacked grid,
the reverse link grid in the covariance kernel's layout and the pinned
SVD of the direct blocks. What depends on the config alone (the active
users, the stream bound, the kernel's half weights at unit power and
each width group's index array) is built once per config. Each step
hands the next one zero-padded stack: the receive step one slice of the
cached SVD's left stack, its columns past each stream count zeroed,
which the covariance kernel reads as it is and the design keeps, and
the null-space step, one LAPACK call per paired width with
phases pinned on the stack, one stack of the bases. One pass over the
groups of users sharing every filter shape and nullity then runs each
group's subset search, one gather and product per minor level, and its
rank-check ``svd`` on its filters and bases gathered from those stacks
and its picks, which it then scatters into the design's zero-padded
transmit stack; a group with exactly as many directions as streams
keeps its bases. Grouping ragged shapes, never padding them, keeps each
decomposition exactly the one of its own matrix.
No iteration and no channel extension is involved.

:func:`one_shot_ia` is the one entry point and the one place that checks
input: the view's type and layout, then ``rank_tol``, then the stream
bound, once per slot. Its three steps, :func:`design_receive_beamformers`,
:func:`reciprocal_state` and :func:`select_transmit_beamformer`, check
nothing and are not exported. They keep unprefixed names all the same,
because the benchmark's tracer times each step by wrapping it by name in
this module, and ``one_shot_ia`` looks each one up here at every call.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import NamedTuple, Optional

import numpy as np

from .linalg import (
    _covariance_stack,
    _eigh,
    _groups,
    _interferer_weights,
    _lapack_errors,
    _padded_streams,
    _read_only,
    fix_column_phases,
)
from .network import BeamformerSet, EquivalentChannel, NetworkConfig, _require, _tolerance

__all__ = ["OneShotInfeasible", "RankDeficientDesired", "one_shot_ia"]


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
    """Null-space data of the reciprocal covariances: per-user counts and one basis stack."""

    nullities: list         # admissible precoder dimensions a_k
    null_bases: np.ndarray  # read-only (K, w, w): user k's orthonormal basis in [k, :w_k, :a_k]
    choice_counts: list     # number of candidate column subsets per user


class _SlotPlan(NamedTuple):
    """What a slot's design reads of its config alone, see :func:`_slot_plan`."""

    active: tuple        # users with streams, in order
    bound: int           # smallest paired width among active users, 0 without any
    weights: np.ndarray  # the kernel's half weights at unit power per message
    widths: tuple        # (w, users) per distinct paired width, users an index array
    shapes: tuple        # (m, d, w) per user: rows and columns of its filters


@functools.lru_cache(maxsize=64)
def _slot_plan(config: NetworkConfig) -> _SlotPlan:
    """The config-derived values of a one-shot slot, built once per config.

    Each width group's users come as the read-only index array of
    :func:`pcia.linalg._groups`, which picks their covariances. The
    weights are the read-only ``(K, 1, K·d)`` array of
    :func:`pcia.linalg._interferer_weights`.
    """
    active = config.active_users
    return _SlotPlan(
        active=active,
        bound=min((config.paired_widths[k] for k in active), default=0),
        weights=_interferer_weights(config.dof),
        widths=_groups(config.paired_widths),
        shapes=tuple(zip(config.rx_antennas, config.dof, config.paired_widths)),
    )


def _check_layout(equiv: EquivalentChannel, config: NetworkConfig) -> None:
    """A TypeError or ValueError unless ``equiv`` is a paired view of the config's layout."""
    _require(equiv, "equiv", EquivalentChannel)
    if (equiv.rx_sizes, equiv.tx_sizes) != (config.rx_antennas, config.paired_widths):
        raise ValueError(f"channel block widths {equiv.rx_sizes} x {equiv.tx_sizes} do not "
                         f"match the config's {config.rx_antennas} x {config.paired_widths}")


def design_receive_beamformers(equiv: EquivalentChannel, config: NetworkConfig) -> np.ndarray:
    """Receive filters from the dominant left singular vectors.

    The filters are the leading columns of the channel's cached
    direct-block SVD, built once per draw and read by every time-share
    slot: one slice of its left stack, columns past each user's stream
    count zeroed by the scorers' stream mask. On the config's paired
    layout, which :func:`one_shot_ia` checks, the config's own cap keeps
    every stream count within its direct block.

    Returns:
        The read-only, zero-padded ``(K, max m, max d)`` stack of the
        filters, user ``k``'s ``m_k x d_k`` filter with orthonormal
        columns in its corner ``[k, :m_k, :d_k]``.
    """
    width = max(config.dof)
    return _read_only(np.where(_padded_streams(width, config.dof)[:, None], 0j,
                               equiv._direct_svd[0][:, :, :width]))


def _null_bases(qs: np.ndarray, rank_tol: float) -> tuple:
    """Null-space bases of a ``(S, n, n)`` Hermitian PSD stack, one batched ``eigh``.

    Eigenvalues at or below ``rank_tol`` times the largest one count as
    zero; a zero matrix yields a full basis. Returns the ``(S, n, n)``
    stack of the bases, matrix ``s``'s in its first ``nullities[s]``
    columns and zeros after them, and the ``(S,)`` array of nullities.
    """
    with _lapack_errors():
        vals, vecs = _eigh(qs)
    # Ascending eigenvalues: the ones at or below the threshold are a prefix,
    # so this mask keeps each basis's leading columns.
    null = vals <= rank_tol * np.maximum(vals[:, -1:], 0.0)
    return np.where(null[:, None, :], fix_column_phases(vecs), 0j), np.add.reduce(null, axis=1)


def reciprocal_state(
    equiv: EquivalentChannel,
    receive: np.ndarray,
    config: NetworkConfig,
    rank_tol: float = 1e-9,
) -> ReciprocalState:
    """Null-space bases of the reciprocal covariances, and candidate counts per user.

    ``receive`` is the stack of :func:`design_receive_beamformers`; its
    padding cannot reach the result, as the kernel's weights are zero on
    padding columns and the reverse link grid on padding rows. The
    covariances are one kernel call on the channel's cached reverse link
    grid, and the null spaces one batched ``eigh`` per distinct paired
    width.
    """
    plan = _slot_plan(config)
    q = _covariance_stack(equiv._reverse, receive, plan.weights)
    bases, nullities = np.zeros(q.shape, dtype=q.dtype), np.zeros(config.num_users, dtype=np.intp)
    for w, users in plan.widths:
        bases[users, :w, :w], nullities[users] = _null_bases(q[users, :w, :w], rank_tol)
    counts = [math.comb(a, d) for a, d in zip(nullities.tolist(), config.dof)]
    return ReciprocalState(nullities.tolist(), _read_only(bases), counts)


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
    receive: np.ndarray,
    direct: np.ndarray,
    null_bases: np.ndarray,
    dof: int,
    user: int,
) -> np.ndarray:
    """Pick each user's best stream subset of its admissible precoder directions.

    The arguments are stacks with a leading axis over ``G`` users sharing
    one stream count ``dof`` of at least 1: ``(G, m, dof)`` receive
    filters, ``(G, m, n)`` direct blocks and ``(G, n, a)`` null bases.
    Every ``dof``-column subset of a user's basis cancels all cross links
    equally well, so the choice is scored on the direct link through
    ``B = receive^H @ direct @ candidate``, by the product of the
    eigenvalue moduli of ``B``, ``|det B|``: the paper's geometric rule,
    favouring well-conditioned stream separation.

    With ``P = receive^H @ direct @ basis``, every subset's ``det B`` is
    its ``dof x dof`` minor of ``P``, built level by level: the minors of
    the ``j``-subsets on the first ``j`` rows expand along row ``j - 1``
    into those of the ``(j - 1)``-subsets, one gather and product per
    level for all ``G`` users at once, over index tables cached per
    nullity and stream count. Ties break toward the lexicographically
    first subset. Returns the ``(G, n, dof)`` stack of the picks;
    ``user`` names the stack's first user in errors.

    Raises:
        OneShotInfeasible: when fewer admissible directions exist than
            streams requested, or when the widest level of the search,
            ``comb(nullity, min(dof, nullity // 2))`` subsets, exceeds
            ``_MAX_SUBSETS``; either before any table is built.
    """
    nullity = null_bases.shape[-1]
    if nullity < dof:
        raise OneShotInfeasible(
            f"user {user} has only {nullity} interference-free directions for {dof} streams",
            user=user, nullity=nullity, dof=dof,
        )
    widest = math.comb(nullity, min(dof, nullity // 2))
    if widest > _MAX_SUBSETS:
        raise OneShotInfeasible(
            f"user {user} would score {widest} subsets in one level of the search over "
            f"{nullity} directions for {dof} streams; the search holds at most "
            f"{_MAX_SUBSETS}",
            user=user, nullity=nullity, dof=dof,
        )
    projected = receive.conj().transpose(0, 2, 1) @ direct @ null_bases
    levels, subsets = _minor_tables(nullity, dof)
    minors = projected[:, 0]
    for row, (cols, drops, signs) in enumerate(levels, 1):
        minors = (projected[:, row].take(cols, axis=1) * minors.take(drops, axis=1)) @ signs
    best_cols = subsets[np.abs(minors).argmax(axis=1)]
    return np.take_along_axis(null_bases, best_cols[:, None, :], axis=2)


def one_shot_ia(
    config: NetworkConfig,
    equiv: EquivalentChannel,
    rank_tol: float = 1e-9,
) -> BeamformerSet:
    """Design all receive filters and paired transmit precoders in one pass.

    Args:
        equiv: the paired view of the draw, as :func:`pcia.equivalent_channel`
            builds it; every time-share slot of the draw reads its caches.

    It checks, in this order, that ``equiv`` is a paired view of the
    config's layout, ``rank_tol``, that some user is active, and the
    stream bound.

    Raises:
        TypeError: ``equiv`` is not an :class:`EquivalentChannel`.
        OneShotInfeasible: total streams exceed the smallest paired width
            among active users, or a null space comes up short.
        RankDeficientDesired: a direct link lost stream rank after
            precoding (a measure-zero event for generic channels).
        ValueError: the channel's antenna layout is not the config's,
            ``rank_tol`` is not positive and finite, or no user is active.
    """
    _check_layout(equiv, config)
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
    receive = design_receive_beamformers(equiv, config)
    state = reciprocal_state(equiv, receive, config, rank_tol)
    # One pass over the groups sharing filter and basis shapes, so a block
    # shape, a stream count and a nullity, in first-user order: each
    # group's filters and bases, gathered from the steps' stacks, feed its
    # subset search, where its bases are not already its picks, so the
    # first user short of directions raises, then fill the design's
    # transmit stack, as tall as the bases, and feed its rank check. A
    # silent group has nothing to pick or check. That check's reference
    # scale is the unprojected direct link (its largest singular value,
    # from the cached direct-block SVD): filters with unit columns can only
    # shrink it, and comparing within ``eff`` alone would make a uniformly
    # collapsed link (d_k = 1 above all) look healthy. Users are checked
    # in order after every group has run.
    transmit_stack = np.zeros(state.null_bases.shape[:2] + (max(config.dof),), dtype=np.complex128)
    smallest = np.zeros(config.num_users)
    for (m, d, w, a), users in _groups(tuple(
            (*shape, a) for shape, a in zip(plan.shapes, state.nullities))):
        if d == 0:
            continue
        filters, direct = receive[users, :m, :d], equiv._stacked[users, users, :m, :w]
        picks = state.null_bases[users, :w, :a]
        if a != d:
            picks = select_transmit_beamformer(filters, direct, picks, d, user=int(users[0]))
        transmit_stack[users, :w, :d] = picks
        eff = filters.conj().transpose(0, 2, 1) @ direct @ picks
        smallest[users] = np.linalg.svd(eff, compute_uv=False)[:, -1]
    largest = equiv._direct_svd[1][:, 0]
    for k in plan.active:
        if smallest[k] <= rank_tol * largest[k]:
            raise RankDeficientDesired(
                f"direct link of user {k} is rank deficient after precoding", user=k)
    return BeamformerSet(receive, transmit_stack, config.rx_antennas,
                         config.paired_widths, config.dof)
