"""Channel model, column reindexing, precoder stacking, and the one rule for counts."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcia import (
    ExperimentSpec,
    backhaul_rate,
    bd_zero_forcing,
    dof_upper_bound,
    is_proper_generic,
    is_proper_partial,
    iterate_distributed_ia,
    run_experiment,
    time_share_schedule,
)
from pcia.linalg import _stack
from pcia.network import (
    ChannelSet,
    EquivalentChannel,
    NetworkConfig,
    build_permutation,
    equivalent_channel,
    generate_channel,
)

from conftest import (
    blockdiag,
    cached_arrays,
    overall_precoder,
    random_orthonormal,
    selection_matrix,
    zero_padded,
)


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


@pytest.mark.parametrize("ragged", [False, True], ids=["uniform", "ragged"])
@pytest.mark.parametrize("num_users", range(2, 8))
def test_each_pair_is_gathered_in_ascending_station_order(num_users, ragged):
    widths = [1 + l % 3 if ragged else 2 for l in range(num_users)]
    cfg = NetworkConfig([2] * num_users, widths, [1] * num_users)
    starts = np.cumsum([0] + widths).tolist()
    pairs = [(0, num_users - 1)] + [(k - 1, k) for k in range(1, num_users)]
    expected = [c for pair in pairs for l in pair for c in range(starts[l], starts[l + 1])]
    assert build_permutation(cfg).column_order.tolist() == expected


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
    p = selection_matrix(build_permutation(cfg))
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
    dense = k3_channel.assemble() @ selection_matrix(perm)
    assert np.max(np.abs(g.assemble() - dense)) <= 1e-12


def test_equivalent_rejects_foreign_map(k3_channel):
    other = build_permutation(NetworkConfig.symmetric(3, 2, 3, 1))
    with pytest.raises(ValueError, match="transmit antennas"):
        equivalent_channel(k3_channel, other)
    # The same antenna total on other stations: the gather used to pass,
    # pairing columns of the wrong stations.
    channel = generate_channel(NetworkConfig([2, 2, 2], [3, 1, 2], [1, 1, 1]), 0)
    with pytest.raises(ValueError, match=r"\(3, 1, 2\) transmit antennas per station, "
                                         r"map expects \(2, 2, 2\)"):
        equivalent_channel(channel, build_permutation(NetworkConfig.symmetric(3, 2, 2, 1)))


def test_split_layout_first_user_primary_on_top():
    cfg = NetworkConfig(rx_antennas=[2, 2, 2], tx_antennas=[2, 3, 4], dof=[1, 1, 1])
    rng = np.random.default_rng(7)
    transmit = [random_orthonormal(rng, cfg.paired_widths[k], 1) for k in range(3)]
    v = overall_precoder(transmit, cfg)
    station = {0: slice(0, 2), 1: slice(2, 5), 2: slice(5, 9)}
    # user 0: own station (2 rows) on top, helper station 2 (4 rows) below
    assert np.array_equal(v[station[0], 0], transmit[0][:2, 0])
    assert np.array_equal(v[station[2], 0], transmit[0][2:, 0])
    # user 1: helper station 0 (2 rows) on top, own station (3 rows) below
    assert np.array_equal(v[station[0], 1], transmit[1][:2, 0])
    assert np.array_equal(v[station[1], 1], transmit[1][2:, 0])
    assert not np.any(v[station[1], 0]) and not np.any(v[station[2], 1])


def test_overall_precoder_touches_only_the_serving_pair(k3_config, rng):
    transmit = [random_orthonormal(rng, 4, 1) for _ in range(3)]
    v = overall_precoder(transmit, k3_config)
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
    v = overall_precoder(transmit, cfg)
    assert np.all(np.abs(v) > 0)


@st.composite
def ring_configs(draw):
    k = draw(st.integers(min_value=2, max_value=5))
    rx = [draw(st.integers(1, 4)) for _ in range(k)]
    tx = [draw(st.integers(1, 4)) for _ in range(k)]
    cfg_nodof = NetworkConfig(rx, tx, [0] * k)
    dof = [draw(st.integers(0, min(rx[i], cfg_nodof.paired_widths[i])))
           for i in range(k)]
    seed = draw(st.integers(0, 2**32 - 1))
    return NetworkConfig(rx, tx, dof), seed


@given(ring_configs())
@settings(max_examples=40)
def test_pairwise_and_overall_precoders_agree(cfg_seed):
    # The stacked per-pair precoders and the sparse network-wide one must
    # produce the same transmitted signal for every channel realization.
    cfg, seed = cfg_seed
    rng = np.random.default_rng(seed)
    h = generate_channel(cfg, seed)
    perm = build_permutation(cfg)
    g = equivalent_channel(h, perm)
    transmit = [
        random_orthonormal(rng, cfg.paired_widths[k], cfg.dof[k])
        for k in range(cfg.num_users)
    ]
    v = overall_precoder(transmit, cfg)
    lhs = g.assemble() @ blockdiag(transmit)
    rhs = h.assemble() @ v
    assert lhs.shape == rhs.shape
    assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12)
    p = selection_matrix(perm)
    assert np.array_equal(p @ p.T, 2.0 * np.eye(cfg.total_tx_antennas))


def test_config_validation_errors():
    with pytest.raises(ValueError, match="two cells"):
        NetworkConfig(rx_antennas=[2], tx_antennas=[2], dof=[1])
    with pytest.raises(ValueError, match="at most"):
        NetworkConfig.symmetric(3, 2, 2, 3)  # 3 > min(m=2, paired=4)
    with pytest.raises(ValueError, match="negative"):
        NetworkConfig(rx_antennas=[2, 2], tx_antennas=[2, 2], dof=[1, -1])
    # counts are never truncated: 2.5 antennas or 1.5 streams is an error
    for name in ("rx_antennas", "tx_antennas", "dof"):
        counts = dict(rx_antennas=[2, 2], tx_antennas=[2, 2], dof=[1, 1])
        counts[name] = [counts[name][0], counts[name][1] + 0.5]
        with pytest.raises(ValueError, match=rf"{name} must be a whole number, got \d\.5"):
            NetworkConfig(**counts)
    whole = NetworkConfig(rx_antennas=[2.0, 2], tx_antennas=2.0, dof=[1.0, 1])
    assert whole.rx_antennas == whole.tx_antennas == (2, 2)
    assert whole.dof == (1, 1)
    assert NetworkConfig.symmetric(3.0, 2, 2, 1).num_users == 3
    with pytest.raises(ValueError, match=r"num_users must be a whole number, got 2\.5"):
        NetworkConfig.symmetric(2.5, 2, 2, 1)


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
    cfg = NetworkConfig(rx_antennas=(3, 2, 2), tx_antennas=(2, 2, 3), dof=(1, 1, 1))
    channel = generate_channel(cfg, 3)
    equiv = equivalent_channel(channel, build_permutation(cfg))
    for a in cached_arrays(channel, equiv):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        channel.row_block(0)[0, 0] = 1.0
    # each cache is built once and shared
    assert equiv._direct_svd is equiv._direct_svd
    assert equiv._forward is equiv._forward and equiv._reverse is equiv._reverse
    assert channel.row_block(1) is channel._rows[1]


def test_channel_accepts_finite_entries_whose_modulus_overflows():
    huge = np.full((2, 2), 1.5e308 + 1.5e308j)
    assert not np.isfinite(np.abs(huge)).any()
    channel = ChannelSet([[huge, huge], [huge, huge]])
    assert channel.num_users == 2


RAGGED = NetworkConfig(rx_antennas=(3, 2, 2), tx_antennas=(2, 2, 3), dof=(1, 1, 1))


def _ragged_views():
    channel = generate_channel(RAGGED, 3)
    return channel, equivalent_channel(channel, build_permutation(RAGGED))


def test_each_view_is_one_read_only_matrix():
    channel, equiv = _ragged_views()
    assert channel.rx_sizes == equiv.rx_sizes == (3, 2, 2)
    assert channel.tx_sizes == (2, 2, 3)
    assert equiv.tx_sizes == RAGGED.paired_widths == (5, 4, 5)
    for view in (channel, equiv):
        matrix = view.assemble()
        assert view.assemble() is matrix
        parts = [b for row in view.blocks for b in row]
        parts += [view.row_block(i) for i in range(view.num_users)]
        for part in parts + [matrix]:
            assert np.shares_memory(part, matrix)
            with pytest.raises(ValueError, match="read-only"):
                part[0, 0] = 1.0


@pytest.mark.parametrize("cfg", [
    NetworkConfig.symmetric(4, 2, 3, 1),
    NetworkConfig(rx_antennas=(2, 3, 2), tx_antennas=(2, 3, 2), dof=(1, 2, 0)),
], ids=["uniform", "stations-232"])
def test_link_grids_stack_each_transmitters_blocks(cfg):
    # _forward[l] stacks blocks[k][l] over k, and _reverse[l] stacks
    # blocks[l][k]^H over k, each block zero-padded to the widest one.
    channel = generate_channel(cfg, 4)
    for view in (channel, equivalent_channel(channel, build_permutation(cfg))):
        k, m, n = view.num_users, max(view.rx_sizes), max(view.tx_sizes)
        forward = np.zeros((k, k * m, n), dtype=np.complex128)
        reverse = np.zeros((k, k * n, m), dtype=np.complex128)
        for l in range(k):
            for i in range(k):
                b = view.blocks[i][l]
                forward[l, i * m:i * m + b.shape[0], :b.shape[1]] = b
                b = view.blocks[l][i].conj().T
                reverse[l, i * n:i * n + b.shape[0], :b.shape[1]] = b
        assert np.array_equal(view._forward, forward)
        assert np.array_equal(view._reverse, reverse)
        assert view._forward.flags.c_contiguous and view._reverse.flags.c_contiguous


def _bits(a):
    return a.shape, a.dtype, a.tobytes()


@pytest.mark.parametrize("cfg", [
    NetworkConfig.symmetric(4, 2, 3, 1),
    NetworkConfig(rx_antennas=(2, 3, 2), tx_antennas=(2, 3, 2), dof=(1, 2, 0)),
], ids=["uniform", "stations-232"])
def test_the_row_stack_is_the_padded_row_blocks(cfg):
    # Zero forcing reads each user's rows from one (K, m, sum(n)) stack.
    channel = generate_channel(cfg, 4)
    rows = channel._row_stack
    assert _bits(rows) == _bits(_stack(channel._rows, max(cfg.rx_antennas),
                                       sum(cfg.tx_antennas)))
    assert channel._row_stack is rows
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0, 0] = 1.0


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


def _block_by_block_draw(config, seed):
    # The reference draw: two standard_normal calls per block, blocks in
    # receiver-major order.
    rng = np.random.default_rng(seed)
    return [[(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)
             for n in config.tx_antennas] for m in config.rx_antennas]


UNIFORM = NetworkConfig.symmetric(3, 8, 8, 3)


@pytest.mark.parametrize("cfg", [UNIFORM, RAGGED], ids=["k3-8x8", "ragged-322"])
def test_one_call_draw_matches_a_block_by_block_draw(cfg):
    for seed in (0, 5, np.random.SeedSequence((7, 3))):
        channel = generate_channel(cfg, seed)
        for got_row, want_row in zip(channel.blocks, _block_by_block_draw(cfg, seed)):
            for got, want in zip(got_row, want_row):
                assert np.array_equal(got, want)


@pytest.mark.parametrize("cfg", [UNIFORM, NetworkConfig.symmetric(3, 1, 2, 1), RAGGED],
                         ids=["k3-8x8", "k3-1x2", "ragged-322"])
def test_stacked_grid_equals_the_block_copy(cfg):
    channel = generate_channel(cfg, 11)
    for view in (channel, equivalent_channel(channel, build_permutation(cfg))):
        stacked = view._stacked
        assert np.array_equal(stacked, zero_padded(view.blocks))
        assert stacked.flags.c_contiguous
        assert not stacked.flags.writeable


_K3 = NetworkConfig.symmetric(3, 2, 2, 1)
_K3_CHANNEL = generate_channel(_K3, 5)
_SPEC = dict(num_users=3, rx_antennas=2, tx_antennas=2, dof_total=3, trials=1, max_iters=1)
_TINY = ExperimentSpec(**_SPEC, schemes=("bdzf_full",), snr_grid_db=(10.0,))


def _spec_field(name):
    """A call from a count to the spec's ``name`` field, its first entry if per user."""
    def kept(value):
        field = getattr(ExperimentSpec(**{**_SPEC, name: value}), name)
        return field[0] if isinstance(field, tuple) else field
    return kept


# Every public entry point that takes a count: (entry point, argument,
# floor, a valid count, a call from that count to what the entry point
# keeps of it, or returns).
COUNT_ARGUMENTS = [
    ("NetworkConfig", "rx_antennas", 1, 2,
     lambda v: NetworkConfig([2, v], [2, 2], [1, 1]).rx_antennas[1]),
    ("NetworkConfig", "tx_antennas", 1, 2,
     lambda v: NetworkConfig([2, 2], [v, 2], [1, 1]).tx_antennas[0]),
    ("NetworkConfig", "dof", 0, 1, lambda v: NetworkConfig([2, 2], [2, 2], [1, v]).dof[1]),
    ("NetworkConfig.symmetric", "num_users", 2, 3,
     lambda v: NetworkConfig.symmetric(v, 2, 2, 1).num_users),
    *[("ExperimentSpec", name, floor, good, _spec_field(name)) for name, floor, good in (
        ("num_users", 2, 3), ("rx_antennas", 1, 2), ("tx_antennas", 1, 2),
        ("dof_total", 1, 3), ("trials", 1, 1), ("seed", 0, 0), ("max_iters", 1, 1))],
    ("run_experiment", "workers", 1, 1, lambda v: run_experiment(_TINY, workers=v).to_records()),
    ("iterate_distributed_ia", "max_iters", 1, 2,
     lambda v: iterate_distributed_ia(_K3_CHANNEL, _K3.dof, max_iters=v, seed=0).leakage),
    ("iterate_distributed_ia", "dof", 0, 1,
     lambda v: iterate_distributed_ia(_K3_CHANNEL, [1, 1, v], max_iters=2, seed=0).dof[2]),
    ("bd_zero_forcing", "dof", 0, 1, lambda v: bd_zero_forcing(_K3_CHANNEL, dof=[1, 1, v]).dof[2]),
    ("dof_upper_bound", "rx_antennas", 1, 2, lambda v: dof_upper_bound([2, 2, v], [2, 2, 2])),
    ("dof_upper_bound", "tx_antennas", 1, 2, lambda v: dof_upper_bound([2, 2, 2], [2, v, 2])),
    *[(check.__name__, name, 1, good, call) for check in (is_proper_generic, is_proper_partial)
      for name, good, call in (("num_users", 3, lambda v, f=check: f(v, 2, 2)),
                               ("m", 2, lambda v, f=check: f(3, v, 2)),
                               ("n", 2, lambda v, f=check: f(3, 2, v)))],
    ("time_share_schedule", "num_users", 1, 3, lambda v: time_share_schedule(v, 4).num_users),
    ("time_share_schedule", "dof_total", 0, 4, lambda v: time_share_schedule(3, v).dof_total),
    ("backhaul_rate", "num_users", 1, 3, lambda v: backhaul_rate(v, "ring", "full")),
]


@pytest.mark.parametrize("name, floor, good, call", [case[1:] for case in COUNT_ARGUMENTS],
                         ids=[f"{case[0]}-{case[1]}" for case in COUNT_ARGUMENTS])
def test_every_count_argument_follows_one_rule(name, floor, good, call):
    # One message format for every count: below its floor, a bool, a fraction.
    below = "not be negative" if floor == 0 else f"be at least {floor}"
    for bad, message in ((floor - 1, f"must {below}, got {floor - 1}"),
                         (True, "must be a whole number, got True"),
                         (2.5, "must be a whole number, got 2.5")):
        with pytest.raises(ValueError, match=f"^{name} {re.escape(message)}$"):
            call(bad)
    kept, whole = call(float(good)), call(good)
    assert kept == whole and type(kept) is type(whole)
