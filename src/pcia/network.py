r"""Network model for a partially coordinated multicell MIMO downlink.

Base stations sit on a ring. User ``k`` receives its message jointly from
its own base station and from the previous one on the ring, so on the
transmit side the downlink behaves like an interference channel whose
``k``-th input stacks the antenna groups of that serving pair. This module
holds the static configuration, the random channel draw, and the
reindexing between the physical per-station channel and the equivalent
paired-transmitter channel, which is a column gather of the physical one.

Each channel view is one read-only matrix cut into blocks: ``blocks``,
the row blocks and :meth:`~ChannelSet.assemble` are views of that
matrix, and a list grid given to the constructor is checked and copied
into it. Built from the matrix on first use, each view also caches the
arrays that depend on the draw alone: the zero-padded stacked grid, its
reciprocal and the pinned SVD of the direct blocks. Every design and
every score on one draw reads the same copy, whatever its time-share slot
or SNR point. Views and caches are read-only.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Sequence

import numpy as np

from .linalg import _batched, _pinned_svd, _stack_grid, reciprocal

__all__ = [
    "NetworkConfig",
    "ChannelSet",
    "PermutationMap",
    "EquivalentChannel",
    "BeamformerSet",
    "generate_channel",
    "build_permutation",
    "equivalent_channel",
    "split_beamformer",
    "stack_beamformer",
    "effective_overall_precoder",
]


def _per_user(value, num_users: int, name: str, cast) -> tuple:
    """Broadcast a scalar to every user, or check a per-user sequence."""
    if np.isscalar(value):
        value = [value] * num_users
    out = tuple(cast(v) for v in value)
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
        tx_power: total transmit power spent on each user's message,
            shared by its serving pair of base stations.
        noise_power: per-antenna noise variance at every receiver.
    """

    rx_antennas: tuple
    tx_antennas: tuple
    dof: tuple
    tx_power: tuple
    noise_power: float = 1.0

    def __post_init__(self):
        num_users = len(tuple(self.rx_antennas))
        if num_users < 2:
            raise ValueError("the coordination ring needs at least two cells")
        for name, cast in (("rx_antennas", int), ("tx_antennas", int),
                           ("dof", int), ("tx_power", float)):
            object.__setattr__(
                self, name, _per_user(getattr(self, name), num_users, name, cast))
        object.__setattr__(self, "noise_power", float(self.noise_power))
        if any(m < 1 for m in self.rx_antennas):
            raise ValueError("every user needs at least one receive antenna")
        if any(n < 1 for n in self.tx_antennas):
            raise ValueError("every base station needs at least one transmit antenna")
        if any(d < 0 for d in self.dof):
            raise ValueError("stream counts cannot be negative")
        for k in range(num_users):
            cap = min(self.rx_antennas[k], self.paired_tx_antennas(k))
            if self.dof[k] > cap:
                raise ValueError(
                    f"user {k} asks for {self.dof[k]} streams but supports at most {cap}"
                )
        if any(p <= 0 for p in self.tx_power):
            raise ValueError("transmit powers must be positive")
        if self.noise_power <= 0:
            raise ValueError("noise power must be positive")

    @classmethod
    def symmetric(cls, num_users: int, rx_antennas: int, tx_antennas: int,
                  dof, tx_power: float = 1.0, noise_power: float = 1.0) -> "NetworkConfig":
        """Build a config where every cell has the same antenna counts."""
        return cls(
            rx_antennas=[rx_antennas] * num_users,
            tx_antennas=[tx_antennas] * num_users,
            dof=[dof] * num_users if np.isscalar(dof) else list(dof),
            tx_power=[tx_power] * num_users,
            noise_power=noise_power,
        )

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

    def paired_tx_antennas(self, k: int) -> int:
        """Combined antenna count of user ``k``'s serving pair."""
        return self.paired_widths[k]

    @functools.cached_property
    def paired_widths(self) -> tuple:
        """Combined antenna count of each user's serving pair, computed once."""
        n = self.tx_antennas
        return tuple(n[k] + n[self.secondary(k)] for k in range(self.num_users))

    @property
    def active_users(self) -> tuple:
        return tuple(k for k in range(self.num_users) if self.dof[k] > 0)

    def with_dof(self, dof: Sequence) -> "NetworkConfig":
        return dataclasses.replace(self, dof=dof)


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only so a shared copy cannot be changed through it."""
    a.flags.writeable = False
    return a


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
        # One pass with the abs and max loops every design runs anyway: a
        # NaN or inf entry fails ``< inf``. A first ``isfinite(...).all()``
        # here raised a sweep's peak RSS by ~0.15 MiB. A finite entry whose
        # modulus overflows fails the test too, so the blocks confirm.
        if not np.abs(matrix).max() < np.inf:
            bad = [(i, j) for i, row in enumerate(blocks)
                   for j, b in enumerate(row) if not np.isfinite(b).all()]
            if bad:
                raise ValueError(f"channel block {bad[0]} has a NaN or infinite entry")
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
        """``blocks`` as one zero-padded ``(K, K, m, n)`` array."""
        return _read_only(_stack_grid(self.blocks))

    @functools.cached_property
    def _reciprocal(self) -> np.ndarray:
        """The reversed-link grid of :attr:`_stacked`, see :func:`pcia.linalg.reciprocal`."""
        return _read_only(reciprocal(self._stacked))

    @functools.cached_property
    def _direct_svd(self) -> tuple:
        """Thin SVD triplets ``(u, s, v)`` of each direct block ``blocks[k][k]``.

        One batched ``svd`` per distinct block shape, singular-vector
        phases pinned jointly on the stack.
        """
        direct = [row[k] for k, row in enumerate(self.blocks)]
        triplets = tuple(_batched(_pinned_svd, direct))
        for triplet in triplets:
            for a in triplet:
                _read_only(a)
        return triplets


class ChannelSet(_BlockGrid):
    """One realization of the per-station downlink channel.

    ``blocks[i][j]`` is the ``m_i x n_j`` matrix from base station ``j``
    to user ``i``. Every entry must be finite.
    """


def generate_channel(config: NetworkConfig, seed) -> ChannelSet:
    r"""Draw one i.i.d. Rayleigh-fading realization.

    Entries are circularly symmetric complex Gaussian with unit variance,
    drawn block by block in receiver-major order so the result is a pure
    function of ``(config, seed)``.

    Args:
        config: network description fixing all block shapes.
        seed: anything accepted by ``np.random.default_rng``.

    Returns:
        ChannelSet with ``config.num_users`` squared blocks.
    """
    rng = np.random.default_rng(seed)
    matrix = np.empty((sum(config.rx_antennas), config.total_tx_antennas), dtype=np.complex128)
    for rows in _slices(config.rx_antennas):
        for cols in _slices(config.tx_antennas):
            block = matrix[rows, cols]
            block[...] = (rng.standard_normal(block.shape)
                          + 1j * rng.standard_normal(block.shape)) / np.sqrt(2.0)
    return ChannelSet._cut(matrix, config.rx_antennas, config.tx_antennas)


@dataclasses.dataclass(frozen=True)
class PermutationMap:
    """Column reindexing from the physical channel to the paired one.

    ``column_order[c]`` gives the physical column feeding equivalent
    column ``c``; it is a read-only copy. Every physical column appears
    exactly twice because each base station serves its own user and one
    neighbour.
    """

    column_order: np.ndarray
    group_widths: tuple
    n_hat: int

    def __post_init__(self):
        order = _read_only(np.array(self.column_order, dtype=np.intp))
        object.__setattr__(self, "column_order", order)
        if order.ndim != 1:
            raise ValueError("column_order must be one-dimensional")
        if len(order) != sum(self.group_widths):
            raise ValueError("column_order length must match the group widths")

    def as_matrix(self) -> np.ndarray:
        """Dense 0/1 selection matrix so that H @ P gathers the columns."""
        p = np.zeros((self.n_hat, len(self.column_order)))
        p[self.column_order, np.arange(len(self.column_order))] = 1.0
        return p


def _stacking_order(config: NetworkConfig, k: int) -> tuple:
    """Stations of user ``k``'s pair in the order its stack lists them.

    User 0 lists its own station first and the ring neighbour second;
    every other user lists the neighbour first.
    """
    if k == 0:
        return k, config.secondary(k)
    return config.secondary(k), k


@functools.lru_cache(maxsize=16)
def build_permutation(config: NetworkConfig) -> PermutationMap:
    """Column map of the equivalent paired-transmitter channel, one per config.

    Each group gathers its serving pair's antennas in the stacking order
    that :func:`split_beamformer` and :func:`stack_beamformer` also use:
    user 0 lists its own station first, every other user its neighbour.
    """
    stations = _slices(config.tx_antennas)
    antennas = np.arange(config.total_tx_antennas)
    return PermutationMap(
        column_order=np.concatenate([antennas[stations[b]] for k in range(config.num_users)
                                     for b in _stacking_order(config, k)]),
        group_widths=config.paired_widths,
        n_hat=config.total_tx_antennas,
    )


class EquivalentChannel(_BlockGrid):
    """Paired-transmitter view of a channel realization.

    ``blocks[i][k]`` is ``m_i x (n_k' + n_k)``: user ``i``'s channel from
    the pair of stations that cooperate on user ``k``'s message.
    """

    @property
    def widths(self) -> tuple:
        return self.tx_sizes


def equivalent_channel(channel: ChannelSet, perm: PermutationMap) -> EquivalentChannel:
    """Gather physical columns into the paired-transmitter block grid.

    Raises:
        ValueError: if the channel's column count does not match the map.
    """
    full = channel.assemble()
    if full.shape[1] != perm.n_hat:
        raise ValueError(
            f"channel has {full.shape[1]} transmit antennas, map expects {perm.n_hat}"
        )
    return EquivalentChannel._cut(full[:, perm.column_order], channel.rx_sizes,
                                  perm.group_widths)


def _check_paired_rows(transmit: Sequence, config: NetworkConfig) -> None:
    """Each user's beamformer must span its paired antenna stack."""
    for k, w in enumerate(transmit):
        rows = np.shape(w)[0]
        if rows != config.paired_tx_antennas(k):
            raise ValueError(
                f"user {k} beamformer has {rows} rows, "
                f"expected {config.paired_tx_antennas(k)}"
            )


def split_beamformer(transmit: Sequence, config: NetworkConfig):
    """Split each stacked transmit beamformer into its per-station parts.

    Returns:
        (primary, secondary): lists of the rows applied at the user's own
        station and at the helping neighbour, respectively.
    """
    _check_paired_rows(transmit, config)
    primary, secondary = [], []
    for k, w in enumerate(transmit):
        w = np.asarray(w)
        first, second = _stacking_order(config, k)
        cut = config.tx_antennas[first]
        rows = {first: w[:cut], second: w[cut:]}
        primary.append(rows[k])
        secondary.append(rows[config.secondary(k)])
    return primary, secondary


def stack_beamformer(primary: Sequence, secondary: Sequence, config: NetworkConfig):
    """Inverse of :func:`split_beamformer`."""
    transmit = []
    for k in range(config.num_users):
        rows = {k: primary[k], config.secondary(k): secondary[k]}
        transmit.append(np.vstack([rows[b] for b in _stacking_order(config, k)]))
    return transmit


@dataclasses.dataclass
class BeamformerSet:
    """Receive filters plus transmit precoders for one realization.

    ``transmit[k]`` acts on user ``k``'s paired antenna stack;
    :func:`split_beamformer` gives its per-station rows.
    """

    receive: list
    transmit: list

    @classmethod
    def from_joint(cls, receive: Sequence, transmit: Sequence,
                   config: NetworkConfig) -> "BeamformerSet":
        _check_paired_rows(transmit, config)
        return cls(list(receive), list(transmit))


def effective_overall_precoder(beams: BeamformerSet, config: NetworkConfig) -> np.ndarray:
    """Overall per-station precoder equivalent to the stacked per-pair one.

    The returned matrix ``V`` maps all streams to all physical transmit
    antennas; multiplying the physical channel by ``V`` reproduces the
    equivalent channel applied to the stacked precoders. Each stream
    column touches exactly the two stations of its serving pair: the rows
    :func:`build_permutation` gathers into that user's stack.
    """
    _check_paired_rows(beams.transmit, config)
    order = build_permutation(config).column_order
    v = np.zeros((config.total_tx_antennas, config.dof_total), dtype=np.complex128)
    for w, group, cols in zip(beams.transmit, _slices(config.paired_widths),
                              _slices(config.dof), strict=True):
        v[order[group], cols] = w
    return v
