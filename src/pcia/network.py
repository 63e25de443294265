r"""Network model for a partially coordinated multicell MIMO downlink.

Base stations sit on a ring. User ``k`` receives its message jointly from
its own base station and from the previous one on the ring, so on the
transmit side the downlink behaves like an interference channel whose
``k``-th input stacks the antenna groups of that serving pair. This module
holds the static configuration, the random channel draw, the reindexing
between the physical per-station channel and the equivalent
paired-transmitter channel, which is a column gather of the physical one,
and the design record every solver returns.
A draw is one ``standard_normal`` call, gathered into the channel matrix
by an index built once per antenna layout.

Each channel view is one read-only matrix cut into blocks: ``blocks``,
the row blocks and :meth:`~ChannelSet.assemble` are views of that
matrix, and a list grid given to the constructor or a scorer is checked
and copied into it; a solver takes a view and nothing else. Built from
the matrix on first use, each view also caches the arrays that depend on
the draw alone: the zero-padded stacked grid (on a uniform grid, the
matrix reshaped rather than copied block by block), zero forcing's
zero-padded row stack, the forward and reverse link grids in the
transmitter-major layout the covariance kernel of :mod:`pcia.linalg`
reads, and the pinned SVD of the direct blocks as three zero-padded
stacks, each user's factors in its corners. Every design and every
score on one draw reads the same copy, whatever its time-share slot or
SNR point, so no solver copies a grid, and no other module reads the
per-user lists. Views and caches are read-only.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools

import numpy as np

from .linalg import _NOT_NUMBERS, _groups, _pinned_svd, _read_only, _stack

__all__ = [
    "NetworkConfig",
    "ChannelSet",
    "PermutationMap",
    "EquivalentChannel",
    "BeamformerSet",
    "generate_channel",
    "build_permutation",
    "equivalent_channel",
]


def _integral(value, name: str, least: int) -> int:
    """``value`` as an int; a ValueError naming ``name`` unless it is a whole number.

    An integral float such as ``3.0`` passes; ``3.9`` is not truncated,
    and a bool or a string is refused. A count below ``least`` is
    refused too: every count's floor is checked here.
    """
    try:
        count = None if isinstance(value, _NOT_NUMBERS) else int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if count < least:
        floor = "not be negative" if least == 0 else f"be at least {least}"
        raise ValueError(f"{name} must {floor}, got {count}")
    return count


def _real(value, name: str) -> float:
    """``value`` as a float; a ValueError naming ``name`` if it is a bool or a string."""
    if isinstance(value, _NOT_NUMBERS):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _tolerance(value, name: str) -> float:
    """``value`` as a float; a ValueError naming ``name`` unless it is positive and finite."""
    tol = _real(value, name)
    if not 0 < tol < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return tol


def _require(value, name: str, *kinds, ndim=None) -> None:
    """A solver's entry check: a TypeError naming ``name`` unless ``value`` is one of ``kinds``."""
    foreign = not isinstance(value, kinds)
    if foreign or (ndim is not None and value.ndim != ndim):
        form = " or ".join(k.__name__ for k in kinds) + (f" with {ndim} axes" if ndim else "")
        got = type(value).__name__ + ("" if foreign else f" with {value.ndim} axes")
        raise TypeError(f"{name} must be {form}, got {got}")


def _stream_counts(dof, num_users: int) -> list:
    """A solver's ``dof`` argument checked: one whole, non-negative count per user."""
    counts = [_integral(d, "dof", 0) for d in dof]
    if len(counts) != num_users:
        raise ValueError(
            f"dof needs one stream count per user: got {len(counts)} for {num_users} users")
    return counts


def _per_user(value, num_users: int, name: str, least: int) -> tuple:
    """Broadcast a scalar count to every user, or check a per-user sequence of whole numbers.

    Each count must be at least ``least``, as :func:`_integral` checks it.
    """
    if np.isscalar(value):
        value = [value] * num_users
    out = tuple(_integral(v, name, least) for v in value)
    if len(out) != num_users:
        raise ValueError(f"{name} must have one entry per user, got {len(out)}")
    return out


@dataclasses.dataclass(frozen=True)
class NetworkConfig:
    """Static description of a coordinated K-cell downlink.

    Attributes:
        rx_antennas: receive antennas per user.
        tx_antennas: transmit antennas per base station.
        dof: data streams per user. Zero marks a user silent in the
            current slot; such users transmit nothing and decode nothing.

    Designs run at unit power per message; only :func:`pcia.sum_rate`
    takes the powers and the receive noise a design is scored at.
    """

    rx_antennas: tuple
    tx_antennas: tuple
    dof: tuple

    def __post_init__(self):
        num_users = len(tuple(self.rx_antennas))
        if num_users < 2:
            raise ValueError("the coordination ring needs at least two cells")
        for name, least in (("rx_antennas", 1), ("tx_antennas", 1), ("dof", 0)):
            object.__setattr__(self, name, _per_user(getattr(self, name), num_users, name, least))
        for k in range(num_users):
            cap = min(self.rx_antennas[k], self.paired_widths[k])
            if self.dof[k] > cap:
                raise ValueError(
                    f"user {k} asks for {self.dof[k]} streams but supports at most {cap}"
                )

    @classmethod
    def symmetric(cls, num_users: int, rx_antennas: int, tx_antennas: int, dof) -> "NetworkConfig":
        """Build a config where every cell has the same antenna counts."""
        num_users = _integral(num_users, "num_users", 2)
        return cls([rx_antennas] * num_users, [tx_antennas] * num_users, dof)

    @property
    def num_users(self) -> int:
        return len(self.rx_antennas)

    @property
    def total_tx_antennas(self) -> int:
        return sum(self.tx_antennas)

    @property
    def dof_total(self) -> int:
        return sum(self.dof)

    def secondary(self, k: int) -> int:
        """Index of the neighbour base station also serving user ``k``."""
        return (k - 1) % self.num_users

    @functools.cached_property
    def paired_widths(self) -> tuple:
        """Combined antenna count of each user's serving pair, computed once."""
        n = self.tx_antennas
        return tuple(n[k] + n[self.secondary(k)] for k in range(self.num_users))

    @property
    def active_users(self) -> tuple:
        return tuple(k for k in range(self.num_users) if self.dof[k] > 0)


def _slices(sizes) -> list:
    """Consecutive slices of the given lengths, starting at 0."""
    edges = list(itertools.accumulate(sizes, initial=0))
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


class _BlockGrid:
    """A square block grid held as one read-only matrix, with per-draw caches.

    ``blocks[i][j]`` is the ``rx_sizes[i] x tx_sizes[j]`` block of the
    matrix. The list constructor checks the grid and copies it into a new
    matrix, so no caller's array is shared. Each cached array depends on
    the draw alone, not on a slot's stream counts or on the SNR, so it is
    computed on first use and then read by every design and every score
    on the channel.
    """

    def __init__(self, blocks):
        num_users = len(blocks)
        if num_users < 1 or any(len(row) != num_users for row in blocks):
            raise ValueError("channel blocks must form a square grid")
        blocks = [[np.asarray(b, dtype=np.complex128) for b in row] for row in blocks]
        for i, row in enumerate(blocks):
            if len({b.shape[0] for b in row}) != 1:
                raise ValueError(f"inconsistent receive dimensions in row {i}")
        for j in range(num_users):
            if len({row[j].shape[1] for row in blocks}) != 1:
                raise ValueError(f"inconsistent transmit dimensions in column {j}")
        matrix = np.concatenate([np.concatenate(row, axis=1) for row in blocks])
        if not np.isfinite(matrix).all():
            bad = next((i, j) for i, row in enumerate(blocks)
                       for j, b in enumerate(row) if not np.isfinite(b).all())
            raise ValueError(f"channel block {bad} has a NaN or infinite entry")
        self._hold(matrix, [row[0].shape[0] for row in blocks],
                   [b.shape[1] for b in blocks[0]])

    def _hold(self, matrix: np.ndarray, rx_sizes, tx_sizes) -> None:
        """Take ``matrix`` as the view's only data, cut into ``rx_sizes x tx_sizes`` blocks."""
        self._matrix = _read_only(matrix)
        self.rx_sizes = tuple(rx_sizes)
        self.tx_sizes = tuple(tx_sizes)

    @classmethod
    def _cut(cls, matrix: np.ndarray, rx_sizes, tx_sizes):
        """A view holding ``matrix`` as it is: the list constructor's last step, unchecked."""
        grid = cls.__new__(cls)
        grid._hold(matrix, rx_sizes, tx_sizes)
        return grid

    @property
    def num_users(self) -> int:
        return len(self.rx_sizes)

    @functools.cached_property
    def _rows(self) -> tuple:
        """Each user's ``m_i x sum(n)`` receive rows, stations side by side."""
        return tuple(self._matrix[rows] for rows in _slices(self.rx_sizes))

    @functools.cached_property
    def blocks(self) -> list:
        """``blocks[i][j]``: user ``i``'s rows under transmitter ``j``'s columns."""
        cols = _slices(self.tx_sizes)
        return [[row[:, c] for c in cols] for row in self._rows]

    def row_block(self, i: int) -> np.ndarray:
        """All of user ``i``'s receive rows, stations side by side (read-only)."""
        return self._rows[i]

    def assemble(self) -> np.ndarray:
        """The whole channel as one matrix: the view's own read-only data."""
        return self._matrix

    @functools.cached_property
    def _stacked(self) -> np.ndarray:
        """``blocks`` as one zero-padded ``(K, K, m, n)`` array.

        On a uniform grid no block needs padding, and the matrix reshaped
        to ``(K, m, K, n)`` with its middle axes swapped is that array.
        """
        k, m, n = self.num_users, max(self.rx_sizes), max(self.tx_sizes)
        if len(set(self.rx_sizes)) > 1 or len(set(self.tx_sizes)) > 1:
            padded = _stack(list(itertools.chain(*self.blocks)), m, n)
            return _read_only(padded.reshape(k, k, m, n))
        return _read_only(np.ascontiguousarray(self._matrix.reshape(k, m, k, n).swapaxes(1, 2)))

    @functools.cached_property
    def _row_stack(self) -> np.ndarray:
        """The row blocks as one zero-padded ``(K, m, sum(n))`` array."""
        return _read_only(_stack(self._rows, max(self.rx_sizes), self._matrix.shape[1]))

    @functools.cached_property
    def _forward(self) -> np.ndarray:
        """The links transmitter-major as one ``(K, K·m, n)`` array.

        Entry ``l`` stacks the zero-padded ``blocks[k][l]`` over every
        receiver ``k``: the layout the covariance kernel reads.
        """
        users, _, m, n = self._stacked.shape
        return _read_only(self._stacked.swapaxes(0, 1).reshape(users, users * m, n))

    @functools.cached_property
    def _reverse(self) -> np.ndarray:
        """The reversed links, receivers transmitting, as one ``(K, K·n, m)`` array.

        Entry ``l`` stacks the zero-padded ``blocks[l][k]^H`` over every
        ``k``: the reciprocal channel, in which user ``l`` sends back to
        each transmitter ``k``, in the kernel's transmitter-major layout.
        """
        users, _, m, n = self._stacked.shape
        flipped = np.ascontiguousarray(self._stacked.swapaxes(2, 3)).conj()
        return _read_only(flipped.reshape(users, users * n, m))

    @functools.cached_property
    def _direct_svd(self) -> tuple:
        """The thin SVD of each direct block as three read-only, zero-padded stacks.

        ``u`` is ``(K, m, r)``, ``s`` ``(K, r)`` and ``v`` ``(K, n, r)``, with
        ``r = min(m, n)`` of the largest sizes; user ``k``'s own factors fill
        its corners, ``r_k = min(m_k, n_k)`` columns wide. One batched ``svd``
        per block shape, on blocks gathered from :attr:`_stacked`, phases
        pinned jointly on the stack, fills them.
        """
        k, m, n = self.num_users, max(self.rx_sizes), max(self.tx_sizes)
        u = np.zeros((k, m, min(m, n)), dtype=np.complex128)
        s = np.zeros((k, min(m, n)))
        v = np.zeros((k, n, min(m, n)), dtype=np.complex128)
        for (rows, cols), users in _groups(tuple(zip(self.rx_sizes, self.tx_sizes))):
            r = min(rows, cols)
            u[users, :rows, :r], s[users, :r], v[users, :cols, :r] = _pinned_svd(
                self._stacked[users, users, :rows, :cols])
        return _read_only(u), _read_only(s), _read_only(v)


def _view(blocks) -> _BlockGrid:
    """A channel view as it is, or a list grid checked and copied into one: the scorers' way in."""
    return blocks if isinstance(blocks, _BlockGrid) else _BlockGrid(blocks)


class ChannelSet(_BlockGrid):
    """One realization of the per-station downlink channel.

    ``blocks[i][j]`` is the ``m_i x n_j`` matrix from base station ``j``
    to user ``i``. Every entry must be finite.
    """


def generate_channel(config: NetworkConfig, seed) -> ChannelSet:
    r"""Draw one i.i.d. Rayleigh-fading realization.

    Entries are circularly symmetric complex Gaussian with unit variance.
    One ``standard_normal`` call draws them all, and a gather index fixed
    per antenna layout places them as a block-by-block draw in
    receiver-major order would, so the result is a pure function of
    ``(config, seed)``.

    Args:
        config: network description fixing all block shapes.
        seed: anything accepted by ``np.random.default_rng``.

    Returns:
        ChannelSet with ``config.num_users`` squared blocks.
    """
    order = _draw_order(config.rx_antennas, config.tx_antennas)
    parts = np.random.default_rng(seed).standard_normal(order.size)[order]
    matrix = (parts[0] + 1j * parts[1]) / np.sqrt(2.0)
    return ChannelSet._cut(matrix, config.rx_antennas, config.tx_antennas)


@functools.lru_cache(maxsize=16)
def _draw_order(rx_antennas: tuple, tx_antennas: tuple) -> np.ndarray:
    """Read-only ``(2, sum(rx), sum(tx))`` positions of each entry's parts in one flat draw.

    ``[0]`` indexes the real parts and ``[1]`` the imaginary ones. Blocks
    take consecutive values in receiver-major order, each block its real
    parts and then its imaginary parts, row by row: the order of a
    block-by-block draw. Built once per antenna layout.
    """
    order = np.empty((2, sum(rx_antennas), sum(tx_antennas)), dtype=np.intp)
    start = 0
    for rows, m in zip(_slices(rx_antennas), rx_antennas):
        for cols, n in zip(_slices(tx_antennas), tx_antennas):
            order[:, rows, cols] = np.arange(start, start + 2 * m * n).reshape(2, m, n)
            start += 2 * m * n
    return _read_only(order)


@dataclasses.dataclass(frozen=True)
class PermutationMap:
    """Column reindexing from the physical channel to the paired one.

    ``column_order[c]`` gives the physical column feeding equivalent
    column ``c``; it is a read-only copy. Every physical column appears
    exactly twice because each base station serves its own user and one
    neighbour. ``station_widths`` are the antenna counts of the stations
    whose columns the map reads.
    """

    column_order: np.ndarray
    group_widths: tuple
    station_widths: tuple

    def __post_init__(self):
        order = _read_only(np.array(self.column_order, dtype=np.intp))
        object.__setattr__(self, "column_order", order)
        if order.ndim != 1:
            raise ValueError("column_order must be one-dimensional")
        if len(order) != sum(self.group_widths):
            raise ValueError("column_order length must match the group widths")


def _stacking_order(config: NetworkConfig, k: int) -> tuple:
    """Stations of user ``k``'s pair in the order its stack lists them: ascending.

    User 0's pair is stations 0 and ``K - 1``; every other user's is
    ``k - 1`` and ``k``.
    """
    return tuple(sorted((k, config.secondary(k))))


@functools.lru_cache(maxsize=16)
def build_permutation(config: NetworkConfig) -> PermutationMap:
    """Column map of the equivalent paired-transmitter channel, one per config.

    Each group gathers its serving pair's antennas in ascending station
    order: stations 0 and ``K - 1`` for user 0, ``k - 1`` and ``k`` for
    every other user ``k``.
    """
    stations = _slices(config.tx_antennas)
    antennas = np.arange(config.total_tx_antennas)
    return PermutationMap(
        column_order=np.concatenate([antennas[stations[b]] for k in range(config.num_users)
                                     for b in _stacking_order(config, k)]),
        group_widths=config.paired_widths,
        station_widths=config.tx_antennas,
    )


class EquivalentChannel(_BlockGrid):
    """Paired-transmitter view of a channel realization.

    ``blocks[i][k]`` is ``m_i x (n_k' + n_k)``: user ``i``'s channel from
    the pair of stations that cooperate on user ``k``'s message.
    """


# Both channel views: the leakage loop runs on either.
_VIEWS = (ChannelSet, EquivalentChannel)


def equivalent_channel(channel: ChannelSet, perm: PermutationMap) -> EquivalentChannel:
    """Gather physical columns into the paired-transmitter block grid.

    Raises:
        ValueError: if the channel's per-station antenna counts are not
            the map's: a map of another layout would pair the wrong columns.
    """
    if channel.tx_sizes != perm.station_widths:
        raise ValueError(f"channel has {channel.tx_sizes} transmit antennas per station, "
                         f"map expects {perm.station_widths}")
    return EquivalentChannel._cut(channel.assemble()[:, perm.column_order], channel.rx_sizes,
                                  perm.group_widths)


@dataclasses.dataclass(frozen=True, eq=False)
class BeamformerSet:
    """One design on one realization: receive filters and transmit precoders.

    Every solver returns this record. Each side is held once, read-only and
    zero-padded: ``receive_stack`` is ``(K, m, d)`` and ``transmit_stack``
    ``(K, n, d)``, user ``k``'s filter in its ``rx_sizes[k]`` or
    ``tx_sizes[k]`` by ``dof[k]`` corner. ``receive`` and ``transmit`` are
    those corners as views. ``transmit[k]`` acts on the antennas user
    ``k``'s design precodes over: its serving pair's, in the order of
    :func:`build_permutation`, or every station's under zero forcing. An
    iterative run reports its leakage after each receive update; a
    closed-form design gives 0 iterations, ``True`` and an empty history.
    """

    receive_stack: np.ndarray
    transmit_stack: np.ndarray
    rx_sizes: tuple
    tx_sizes: tuple
    dof: tuple
    iterations: int = 0
    converged: bool = True
    leakage: tuple = ()

    def __post_init__(self):
        _read_only(self.receive_stack)
        _read_only(self.transmit_stack)

    @functools.cached_property
    def receive(self) -> list:
        """Per-user receive filters, read-only views of ``receive_stack``."""
        return [u[:m, :d] for u, m, d in zip(self.receive_stack, self.rx_sizes, self.dof)]

    @functools.cached_property
    def transmit(self) -> list:
        """Per-user precoders, read-only views of ``transmit_stack``."""
        return [v[:n, :d] for v, n, d in zip(self.transmit_stack, self.tx_sizes, self.dof)]

    @property
    def dof_total(self) -> int:
        return sum(self.dof)
