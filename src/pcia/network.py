r"""Network model for a partially coordinated multicell MIMO downlink.

Base stations sit on a ring. User ``k`` receives its message jointly from
its own base station and from the previous one on the ring, so on the
transmit side the downlink behaves like an interference channel whose
``k``-th input stacks the antenna groups of that serving pair. This module
holds the static configuration, the random channel draw, and the
reindexing between the physical per-station channel and the equivalent
paired-transmitter channel.

Both channel views cache, on first use, the arrays that depend on the
draw alone: the zero-padded stacked grid, its reciprocal, the pinned SVD
of the direct blocks and, for the per-station channel, each user's row
block. Every design and every score on one draw reads the same copy,
whatever its time-share slot or SNR point. Cached arrays are read-only.
"""

from __future__ import annotations

import dataclasses
import functools
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
        return self.tx_antennas[k] + self.tx_antennas[self.secondary(k)]

    @property
    def paired_widths(self) -> tuple:
        return tuple(self.paired_tx_antennas(k) for k in range(self.num_users))

    @property
    def active_users(self) -> tuple:
        return tuple(k for k in range(self.num_users) if self.dof[k] > 0)

    def with_dof(self, dof: Sequence) -> "NetworkConfig":
        return dataclasses.replace(self, dof=dof)


def _read_only(*arrays):
    """Mark arrays read-only so a cached copy cannot be changed through them."""
    for a in arrays:
        a.flags.writeable = False


class _BlockGrid:
    """A channel held as a square ``blocks`` grid, with per-draw caches.

    Each cached view depends on the draw alone, not on a slot's stream
    counts or on the SNR, so it is computed on first use and then read by
    every design and every score on the channel. ``blocks`` is not changed
    after construction, and every cached array is read-only.
    """

    @functools.cached_property
    def _stacked(self) -> np.ndarray:
        """``blocks`` as one zero-padded ``(K, K, m, n)`` array."""
        grid = _stack_grid(self.blocks)
        _read_only(grid)
        return grid

    @functools.cached_property
    def _reciprocal(self) -> np.ndarray:
        """The reversed-link grid of :attr:`_stacked`, see :func:`pcia.linalg.reciprocal`."""
        grid = reciprocal(self._stacked)
        _read_only(grid)
        return grid

    @functools.cached_property
    def _direct_svd(self) -> tuple:
        """Thin SVD triplets ``(u, s, v)`` of each direct block ``blocks[k][k]``.

        One batched ``svd`` per distinct block shape, singular-vector
        phases pinned jointly on the stack.
        """
        direct = [row[k] for k, row in enumerate(self.blocks)]
        triplets = tuple(_batched(_pinned_svd, direct))
        for triplet in triplets:
            _read_only(*triplet)
        return triplets


@dataclasses.dataclass
class ChannelSet(_BlockGrid):
    """One realization of the per-station downlink channel.

    ``blocks[i][j]`` is the ``m_i x n_j`` matrix from base station ``j``
    to user ``i``. Every entry must be finite.
    """

    blocks: list

    def __post_init__(self):
        num_users = len(self.blocks)
        if num_users < 1 or any(len(row) != num_users for row in self.blocks):
            raise ValueError("channel blocks must form a square grid")
        self.blocks = [
            [np.asarray(b, dtype=np.complex128) for b in row] for row in self.blocks
        ]
        for i, row in enumerate(self.blocks):
            rows = {b.shape[0] for b in row}
            if len(rows) != 1:
                raise ValueError(f"inconsistent receive dimensions in row {i}")
        for j in range(num_users):
            cols = {self.blocks[i][j].shape[1] for i in range(num_users)}
            if len(cols) != 1:
                raise ValueError(f"inconsistent transmit dimensions in column {j}")
        # One pass with the abs and max loops every design runs anyway: a
        # NaN or inf entry fails ``< inf``. A first ``isfinite(...).all()``
        # here raised a sweep's peak RSS by ~0.15 MiB. A finite entry whose
        # modulus overflows fails the test too, so the blocks confirm.
        if not np.abs(self.assemble()).max() < np.inf:
            bad = [(i, j) for i, row in enumerate(self.blocks)
                   for j, b in enumerate(row) if not np.isfinite(b).all()]
            if bad:
                raise ValueError(f"channel block {bad[0]} has a NaN or infinite entry")

    @property
    def num_users(self) -> int:
        return len(self.blocks)

    @property
    def rx_sizes(self) -> tuple:
        return tuple(row[0].shape[0] for row in self.blocks)

    @property
    def tx_sizes(self) -> tuple:
        return tuple(self.blocks[0][j].shape[1] for j in range(self.num_users))

    @functools.cached_property
    def _rows(self) -> tuple:
        """Each user's ``m_i x sum(n)`` receive rows, stations side by side."""
        rows = tuple(np.concatenate(row, axis=1) for row in self.blocks)
        _read_only(*rows)
        return rows

    def row_block(self, i: int) -> np.ndarray:
        """All of user ``i``'s receive rows, stations side by side (read-only)."""
        return self._rows[i]

    def assemble(self) -> np.ndarray:
        return np.concatenate(self._rows)


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
    blocks = []
    for i in range(config.num_users):
        row = []
        for j in range(config.num_users):
            shape = (config.rx_antennas[i], config.tx_antennas[j])
            row.append(
                (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                / np.sqrt(2.0)
            )
        blocks.append(row)
    return ChannelSet(blocks)


@dataclasses.dataclass(frozen=True)
class PermutationMap:
    """Column reindexing from the physical channel to the paired one.

    ``column_order[c]`` gives the physical column feeding equivalent
    column ``c``. Every physical column appears exactly twice because
    each base station serves its own user and one neighbour.
    """

    column_order: np.ndarray
    group_widths: tuple
    n_hat: int

    def __post_init__(self):
        object.__setattr__(
            self, "column_order", np.asarray(self.column_order, dtype=np.intp)
        )
        if self.column_order.ndim != 1:
            raise ValueError("column_order must be one-dimensional")
        if len(self.column_order) != sum(self.group_widths):
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


def build_permutation(config: NetworkConfig) -> PermutationMap:
    """Column map of the equivalent paired-transmitter channel.

    Each group gathers its serving pair's antennas in the stacking order
    that :func:`split_beamformer` and :func:`stack_beamformer` also use:
    user 0 lists its own station first, every other user its neighbour.
    """
    offsets = np.concatenate(([0], np.cumsum(config.tx_antennas)))
    order = []
    for k in range(config.num_users):
        for b in _stacking_order(config, k):
            order.extend(range(offsets[b], offsets[b] + config.tx_antennas[b]))
    return PermutationMap(
        column_order=np.asarray(order, dtype=np.intp),
        group_widths=config.paired_widths,
        n_hat=config.total_tx_antennas,
    )


@dataclasses.dataclass
class EquivalentChannel(_BlockGrid):
    """Paired-transmitter view of a channel realization.

    ``blocks[i][k]`` is ``m_i x (n_k' + n_k)``: user ``i``'s channel from
    the pair of stations that cooperate on user ``k``'s message.
    """

    blocks: list

    @property
    def num_users(self) -> int:
        return len(self.blocks)

    @property
    def widths(self) -> tuple:
        return tuple(self.blocks[0][k].shape[1] for k in range(self.num_users))

    def assemble(self) -> np.ndarray:
        return np.vstack([np.hstack(row) for row in self.blocks])


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
    gathered = full[:, perm.column_order]
    row_edges = np.concatenate(([0], np.cumsum(channel.rx_sizes)))
    col_edges = np.concatenate(([0], np.cumsum(perm.group_widths)))
    blocks = [
        [
            gathered[row_edges[i]:row_edges[i + 1], col_edges[k]:col_edges[k + 1]]
            for k in range(len(perm.group_widths))
        ]
        for i in range(channel.num_users)
    ]
    return EquivalentChannel(blocks)


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
    column touches exactly the two stations of its serving pair.
    """
    primary, secondary = split_beamformer(beams.transmit, config)
    row_offsets = np.concatenate(([0], np.cumsum(config.tx_antennas)))
    col_offsets = np.concatenate(([0], np.cumsum(config.dof)))
    v = np.zeros((config.total_tx_antennas, config.dof_total), dtype=np.complex128)
    for k in range(config.num_users):
        cols = slice(col_offsets[k], col_offsets[k + 1])
        own = slice(row_offsets[k], row_offsets[k] + config.tx_antennas[k])
        helper_idx = config.secondary(k)
        helper = slice(row_offsets[helper_idx],
                       row_offsets[helper_idx] + config.tx_antennas[helper_idx])
        v[own, cols] = primary[k]
        v[helper, cols] = secondary[k]
    return v
