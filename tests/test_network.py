"""Channel model, column reindexing, and precoder stacking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcia.network import (
    BeamformerSet,
    ChannelSet,
    EquivalentChannel,
    NetworkConfig,
    build_permutation,
    effective_overall_precoder,
    equivalent_channel,
    generate_channel,
    split_beamformer,
    stack_beamformer,
)

from conftest import blockdiag, cached_arrays, random_orthonormal


def test_block_shapes_and_assembly(k3_config, k3_channel):
    assert k3_channel.num_users == 3
    for i in range(3):
        for j in range(3):
            assert k3_channel.blocks[i][j].shape == (2, 2)
    assert k3_channel.assemble().shape == (6, 6)


def test_same_seed_same_channel(k3_config):
    a = generate_channel(k3_config, 99)
    b = generate_channel(k3_config, 99)
    for i in range(3):
        for j in range(3):
            assert np.array_equal(a.blocks[i][j], b.blocks[i][j])
    c = generate_channel(k3_config, 100)
    assert not np.array_equal(a.blocks[0][0], c.blocks[0][0])


def test_entries_have_unit_variance(k3_config):
    # Sample-moment oracle: 10^4 draws pin the per-entry second moment
    # well inside a 5% band.
    total = 0.0
    count = 0
    for trial in range(10_000):
        h = generate_channel(k3_config, np.random.SeedSequence((81, trial)))
        block = h.blocks[trial % 3][(trial // 3) % 3]
        total += float(np.sum(np.abs(block) ** 2))
        count += block.size
    assert abs(total / count - 1.0) < 0.05


def test_column_order_of_three_cell_ring(k3_config):
    perm = build_permutation(k3_config)
    assert perm.column_order.tolist() == [0, 1, 4, 5, 0, 1, 2, 3, 2, 3, 4, 5]
    assert perm.group_widths == (4, 4, 4)


def test_every_physical_column_feeds_two_groups(k3_config):
    perm = build_permutation(k3_config)
    values, counts = np.unique(perm.column_order, return_counts=True)
    assert values.tolist() == list(range(6))
    assert counts.tolist() == [2] * 6


def test_selection_matrix_single_antenna_cells():
    # Direct multiplication oracle on the smallest nontrivial ring: each
    # physical column is selected exactly twice, so P P^T doubles the
    # identity while P^T P marks the duplicated pairs.
    cfg = NetworkConfig.symmetric(4, 1, 1, 0)
    p = build_permutation(cfg).as_matrix()
    assert p.shape == (4, 8)
    assert np.array_equal(p @ p.T, 2.0 * np.eye(4))
    assert np.array_equal(np.sort(p.sum(axis=1)), np.full(4, 2.0))


def test_equivalent_blocks_concatenate_pair_columns(k3_config, k3_channel):
    g = equivalent_channel(k3_channel, build_permutation(k3_config))
    h = k3_channel.blocks
    # group 0 pairs stations (0, ring end); group k>=1 pairs (k-1, k)
    for i in range(3):
        assert np.array_equal(g.blocks[i][0], np.hstack([h[i][0], h[i][2]]))
        assert np.array_equal(g.blocks[i][1], np.hstack([h[i][0], h[i][1]]))
        assert np.array_equal(g.blocks[i][2], np.hstack([h[i][1], h[i][2]]))


def test_equivalent_matches_dense_gather(k3_config, k3_channel):
    perm = build_permutation(k3_config)
    g = equivalent_channel(k3_channel, perm)
    dense = k3_channel.assemble() @ perm.as_matrix()
    assert np.max(np.abs(g.assemble() - dense)) <= 1e-12


def test_equivalent_rejects_foreign_map(k3_channel):
    other = build_permutation(NetworkConfig.symmetric(3, 2, 3, 1))
    with pytest.raises(ValueError, match="transmit antennas"):
        equivalent_channel(k3_channel, other)


def test_split_layout_first_user_primary_on_top():
    cfg = NetworkConfig(
        rx_antennas=[2, 2, 2], tx_antennas=[2, 3, 4], dof=[1, 1, 1],
        tx_power=[1.0] * 3,
    )
    rng = np.random.default_rng(7)
    transmit = [random_orthonormal(rng, cfg.paired_tx_antennas(k), 1) for k in range(3)]
    primary, secondary = split_beamformer(transmit, cfg)
    # user 0: own station (2 rows) on top, helper station 2 (4 rows) below
    assert np.array_equal(primary[0], transmit[0][:2])
    assert np.array_equal(secondary[0], transmit[0][2:])
    # user 1: helper station 0 (2 rows) on top, own station (3 rows) below
    assert np.array_equal(secondary[1], transmit[1][:2])
    assert np.array_equal(primary[1], transmit[1][2:])
    rebuilt = stack_beamformer(primary, secondary, cfg)
    for w, back in zip(transmit, rebuilt):
        assert np.array_equal(w, back)


def test_split_rejects_bad_row_count(k3_config):
    bad = [np.zeros((3, 1))] * 3
    with pytest.raises(ValueError, match="rows"):
        split_beamformer(bad, k3_config)


def test_overall_precoder_touches_only_the_serving_pair(k3_config, rng):
    transmit = [random_orthonormal(rng, 4, 1) for _ in range(3)]
    beams = BeamformerSet.from_joint([np.eye(2)] * 3, transmit, k3_config)
    v = effective_overall_precoder(beams, k3_config)
    assert v.shape == (6, 3)
    # station row blocks: 0 -> rows 0:2, 1 -> rows 2:4, 2 -> rows 4:6
    pair_rows = {0: {0, 2}, 1: {1, 0}, 2: {2, 1}}
    for k in range(3):
        col = v[:, k]
        for station in range(3):
            rows = col[2 * station:2 * station + 2]
            if station in pair_rows[k]:
                assert np.any(rows != 0)
            else:
                assert np.all(rows == 0)


def test_overall_precoder_two_cells_is_dense(rng):
    cfg = NetworkConfig.symmetric(2, 2, 2, 1)
    transmit = [random_orthonormal(rng, 4, 1) for _ in range(2)]
    beams = BeamformerSet.from_joint([np.eye(2)] * 2, transmit, cfg)
    v = effective_overall_precoder(beams, cfg)
    assert np.all(np.abs(v) > 0)


@st.composite
def ring_configs(draw):
    k = draw(st.integers(min_value=2, max_value=5))
    rx = [draw(st.integers(1, 4)) for _ in range(k)]
    tx = [draw(st.integers(1, 4)) for _ in range(k)]
    cfg_nodof = NetworkConfig(rx, tx, [0] * k, [1.0] * k)
    dof = [draw(st.integers(0, min(rx[i], cfg_nodof.paired_tx_antennas(i))))
           for i in range(k)]
    seed = draw(st.integers(0, 2**32 - 1))
    return NetworkConfig(rx, tx, dof, [1.0] * k), seed


@given(ring_configs())
@settings(max_examples=40, deadline=None)
def test_pairwise_and_overall_precoders_agree(cfg_seed):
    # The stacked per-pair precoders and the sparse network-wide one must
    # produce the same transmitted signal for every channel realization.
    cfg, seed = cfg_seed
    rng = np.random.default_rng(seed)
    h = generate_channel(cfg, seed)
    perm = build_permutation(cfg)
    g = equivalent_channel(h, perm)
    transmit = [
        random_orthonormal(rng, cfg.paired_tx_antennas(k), cfg.dof[k])
        for k in range(cfg.num_users)
    ]
    beams = BeamformerSet.from_joint(
        [np.eye(cfg.rx_antennas[k]) for k in range(cfg.num_users)], transmit, cfg)
    v = effective_overall_precoder(beams, cfg)
    lhs = g.assemble() @ blockdiag(transmit)
    rhs = h.assemble() @ v
    assert lhs.shape == rhs.shape
    assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12)
    p = perm.as_matrix()
    assert np.array_equal(p @ p.T, 2.0 * np.eye(cfg.total_tx_antennas))


def test_config_validation_errors():
    with pytest.raises(ValueError, match="two cells"):
        NetworkConfig(rx_antennas=[2], tx_antennas=[2], dof=[1], tx_power=[1.0])
    with pytest.raises(ValueError, match="at most"):
        NetworkConfig.symmetric(3, 2, 2, 3)  # 3 > min(m=2, paired=4)
    with pytest.raises(ValueError, match="positive"):
        NetworkConfig.symmetric(3, 2, 2, 1, tx_power=0.0)
    with pytest.raises(ValueError, match="noise"):
        NetworkConfig.symmetric(3, 2, 2, 1, noise_power=0.0)
    with pytest.raises(ValueError, match="negative"):
        NetworkConfig(rx_antennas=[2, 2], tx_antennas=[2, 2], dof=[1, -1],
                      tx_power=[1.0, 1.0])


def test_ring_neighbour_indexing():
    cfg = NetworkConfig.symmetric(5, 2, 2, 1)
    assert [cfg.secondary(k) for k in range(5)] == [4, 0, 1, 2, 3]
    assert cfg.paired_widths == (4, 4, 4, 4, 4)


def test_channel_rejects_ragged_grid():
    good = np.zeros((2, 2))
    with pytest.raises(ValueError, match="square"):
        ChannelSet([[good, good], [good]])
    with pytest.raises(ValueError, match="receive dimensions"):
        ChannelSet([[np.zeros((2, 2)), np.zeros((3, 2))],
                    [np.zeros((2, 2)), np.zeros((2, 2))]])


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("where", [(1, 1), (0, 2)], ids=["diagonal", "off-diagonal"])
def test_channel_rejects_non_finite_entries(k3_channel, value, where):
    blocks = [[b.copy() for b in row] for row in k3_channel.blocks]
    i, j = where
    blocks[i][j][1, 0] = value
    with pytest.raises(ValueError, match=rf"block \({i}, {j}\) has a NaN or infinite"):
        ChannelSet(blocks)


def test_writing_into_a_cached_array_raises():
    cfg = NetworkConfig(rx_antennas=(3, 2, 2), tx_antennas=(2, 2, 3), dof=(1, 1, 1),
                        tx_power=(1.0, 1.0, 1.0))
    channel = generate_channel(cfg, 3)
    equiv = equivalent_channel(channel, build_permutation(cfg))
    for a in cached_arrays(channel, equiv):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        channel.row_block(0)[0, 0] = 1.0
    # each cache is built once and shared
    assert equiv._direct_svd is equiv._direct_svd
    assert channel.row_block(1) is channel._rows[1]


def test_channel_accepts_finite_entries_whose_modulus_overflows():
    huge = np.full((2, 2), 1.5e308 + 1.5e308j)
    assert not np.isfinite(np.abs(huge)).any()
    channel = ChannelSet([[huge, huge], [huge, huge]])
    assert channel.num_users == 2


RAGGED = NetworkConfig(rx_antennas=(3, 2, 2), tx_antennas=(2, 2, 3), dof=(1, 1, 1),
                       tx_power=(1.0, 1.0, 1.0))


def _ragged_views():
    channel = generate_channel(RAGGED, 3)
    return channel, equivalent_channel(channel, build_permutation(RAGGED))


def test_each_view_is_one_read_only_matrix():
    channel, equiv = _ragged_views()
    assert channel.rx_sizes == equiv.rx_sizes == (3, 2, 2)
    assert channel.tx_sizes == (2, 2, 3)
    assert equiv.widths == equiv.tx_sizes == RAGGED.paired_widths == (5, 4, 5)
    for view in (channel, equiv):
        matrix = view.assemble()
        assert view.assemble() is matrix
        parts = [b for row in view.blocks for b in row]
        parts += [view.row_block(i) for i in range(view.num_users)]
        for part in parts + [matrix]:
            assert np.shares_memory(part, matrix)
            with pytest.raises(ValueError, match="read-only"):
                part[0, 0] = 1.0


def test_channel_copies_the_callers_arrays():
    source = [[b.copy() for b in row] for row in generate_channel(RAGGED, 3).blocks]
    channel = ChannelSet(source)
    block, stacked = channel.blocks[0][0].copy(), channel._stacked.copy()
    source[0][0][0, 0] = 99.0
    assert np.array_equal(channel.blocks[0][0], block)
    assert np.array_equal(channel._stacked, stacked)


_ONES = np.ones((2, 2))


@pytest.mark.parametrize("blocks, message", [
    ([[_ONES, np.full((2, 2), np.nan)], [_ONES, _ONES]], r"block \(0, 1\) has a NaN"),
    ([[_ONES, np.ones((3, 2))], [_ONES, _ONES]], "receive dimensions in row 0"),
    ([[_ONES, _ONES], [_ONES, np.ones((2, 3))]], "transmit dimensions in column 1"),
], ids=["nan", "rows", "columns"])
@pytest.mark.parametrize("cls", [ChannelSet, EquivalentChannel])
def test_both_views_check_a_hand_built_grid(cls, blocks, message):
    with pytest.raises(ValueError, match=message):
        cls(blocks)


def test_one_permutation_map_per_config():
    perm = build_permutation(RAGGED)
    assert build_permutation(RAGGED) is perm
    with pytest.raises(ValueError, match="read-only"):
        perm.column_order[0] = 0
