"""Alternating leakage minimization, paired and unpaired.

The leakage functional is cross-checked with an explicit per-pair
Frobenius sum, and the convergence claims are pinned to measured
iteration budgets on fixed seeds.
"""

import numpy as np
import pytest

from pcia import (
    DistributedInfeasible,
    NetworkConfig,
    build_permutation,
    equivalent_channel,
    generate_channel,
    iterate_distributed_ia,
    leakage,
)
from pcia.linalg import fix_column_phases


def _paired_blocks(cfg, seed):
    return equivalent_channel(generate_channel(cfg, seed), build_permutation(cfg)).blocks


def _svd_init(blocks, dof):
    out = []
    for k, row in enumerate(blocks):
        _, _, vh = np.linalg.svd(row[k], full_matrices=False)
        out.append(fix_column_phases(vh.conj().T[:, :dof[k]]))
    return out


def test_leakage_matches_per_pair_sum(k3_config, k3_channel):
    rng = np.random.default_rng(5)
    blocks = k3_channel.blocks
    receive = [np.linalg.qr(rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1)))[0]
               for _ in range(3)]
    transmit = [np.linalg.qr(rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1)))[0]
                for _ in range(3)]
    powers, dof = [2.0, 3.0, 4.0], [1, 1, 1]
    expected = 0.0
    for k in range(3):
        for l in range(3):
            if l != k:
                eff = receive[k].conj().T @ blocks[k][l] @ transmit[l]
                expected += powers[l] / dof[l] * float(np.linalg.norm(eff, "fro") ** 2)
    assert leakage(blocks, receive, transmit, powers, dof) == pytest.approx(expected, rel=1e-12)


def test_leakage_never_increases_with_uniform_streams():
    cfg = NetworkConfig.symmetric(4, 2, 2, 1)
    trace = iterate_distributed_ia(
        generate_channel(cfg, 11).blocks, cfg.dof, cfg.tx_power, max_iters=200)
    diffs = np.diff(trace.leakage)
    assert np.all(diffs <= 1e-12)


def test_proper_generic_system_converges():
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    blocks = generate_channel(cfg, 0).blocks
    trace = iterate_distributed_ia(blocks, cfg.dof, cfg.tx_power, max_iters=400)
    assert trace.converged
    assert trace.iterations <= 250
    assert trace.iterations == len(trace.leakage)
    for k in range(3):
        gram = trace.receive[k].conj().T @ trace.receive[k]
        assert np.allclose(gram, np.eye(1), atol=1e-12)
        gram = trace.transmit[k].conj().T @ trace.transmit[k]
        assert np.allclose(gram, np.eye(1), atol=1e-12)
    for k in range(3):
        for l in range(3):
            if l != k:
                eff = trace.receive[k].conj().T @ blocks[k][l] @ trace.transmit[l]
                assert np.max(np.abs(eff)) < 1e-3


def test_improper_generic_system_saturates():
    cfg = NetworkConfig.symmetric(4, 2, 2, 1)
    trace = iterate_distributed_ia(
        generate_channel(cfg, 0).blocks, cfg.dof, cfg.tx_power, max_iters=300)
    assert not trace.converged
    assert trace.iterations == 300
    assert trace.leakage[-1] / trace.leakage[0] > 0.1


def test_pairing_unlocks_five_streams_over_five_cells():
    cfg = NetworkConfig.symmetric(5, 2, 2, 1)
    trace = iterate_distributed_ia(
        _paired_blocks(cfg, 5), cfg.dof, cfg.tx_power, max_iters=500)
    assert trace.converged
    assert trace.iterations <= 500


def test_first_recorded_leakage_uses_svd_start(k3_config, k3_channel):
    blocks = _paired_blocks(k3_config, 424242)
    trace = iterate_distributed_ia(blocks, k3_config.dof, k3_config.tx_power, max_iters=1)
    start = leakage(blocks, trace.receive, _svd_init(blocks, k3_config.dof),
                    k3_config.tx_power, k3_config.dof)
    assert trace.leakage[0] == pytest.approx(start, rel=1e-12)


def test_random_init_is_seeded():
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    blocks = generate_channel(cfg, 21).blocks
    a = iterate_distributed_ia(blocks, cfg.dof, cfg.tx_power, max_iters=50,
                               init="random", seed=99)
    b = iterate_distributed_ia(blocks, cfg.dof, cfg.tx_power, max_iters=50,
                               init="random", seed=99)
    c = iterate_distributed_ia(blocks, cfg.dof, cfg.tx_power, max_iters=50,
                               init="random", seed=100)
    assert a.leakage == b.leakage
    assert a.leakage[0] != c.leakage[0]


def test_explicit_reverse_powers_equal_forward_by_default():
    cfg = NetworkConfig.symmetric(3, 2, 2, 1, tx_power=2.5)
    blocks = generate_channel(cfg, 33).blocks
    a = iterate_distributed_ia(blocks, cfg.dof, cfg.tx_power, max_iters=40)
    b = iterate_distributed_ia(blocks, cfg.dof, cfg.tx_power,
                               reverse_powers=list(cfg.tx_power), max_iters=40)
    assert a.leakage == b.leakage


def test_silent_user_is_skipped():
    cfg = NetworkConfig.symmetric(3, 2, 2, [1, 1, 0])
    blocks = _paired_blocks(cfg, 2)
    trace = iterate_distributed_ia(blocks, cfg.dof, cfg.tx_power, max_iters=300)
    assert trace.converged
    assert trace.receive[2].shape == (2, 0)
    assert trace.transmit[2].shape == (4, 0)


def test_input_validation():
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    blocks = generate_channel(cfg, 1).blocks
    with pytest.raises(ValueError, match="per user"):
        iterate_distributed_ia(blocks, [1, 1], cfg.tx_power)
    with pytest.raises(ValueError, match="streams"):
        iterate_distributed_ia(blocks, [3, 1, 1], cfg.tx_power)
    with pytest.raises(ValueError, match="init"):
        iterate_distributed_ia(blocks, cfg.dof, cfg.tx_power, init="warm")


RAGGED = NetworkConfig(rx_antennas=(2, 3, 2), tx_antennas=(2, 3, 2),
                       dof=(1, 2, 0), tx_power=(1.0, 2.0, 3.0))
TIME_SHARE_ROW = NetworkConfig.symmetric(3, 2, 2, [2, 1, 1])


def _assert_pinned(a):
    for col in a.T:
        lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


@pytest.mark.parametrize("cfg", [RAGGED, TIME_SHARE_ROW], ids=["ragged", "time-share-row"])
@pytest.mark.parametrize("init", ["svd", "random"])
def test_uneven_grids_give_orthonormal_pinned_filters(cfg, init):
    blocks = _paired_blocks(cfg, 7)
    trace = iterate_distributed_ia(blocks, cfg.dof, cfg.tx_power, max_iters=300,
                                   init=init, seed=3)
    assert trace.iterations == len(trace.leakage)
    for k, d in enumerate(cfg.dof):
        u, v = trace.receive[k], trace.transmit[k]
        assert u.shape == (cfg.rx_antennas[k], d)
        assert v.shape == (cfg.paired_widths[k], d)
        assert np.allclose(u.conj().T @ u, np.eye(d), atol=1e-12)
        assert np.allclose(v.conj().T @ v, np.eye(d), atol=1e-12)
        _assert_pinned(u)
        _assert_pinned(v)
    if cfg is RAGGED:
        assert trace.receive[2].shape == (2, 0)
        assert trace.transmit[2].shape == (5, 0)


@pytest.mark.parametrize("cfg", [RAGGED, TIME_SHARE_ROW, NetworkConfig.symmetric(5, 2, 2, 1)],
                         ids=["ragged", "time-share-row", "k5"])
def test_recorded_leakage_is_the_explicit_trace(cfg):
    # A loose tolerance stops the run on a receive update, so the returned
    # filters are exactly the ones the last recorded leakage was read from.
    blocks = _paired_blocks(cfg, 4)
    trace = iterate_distributed_ia(blocks, cfg.dof, cfg.tx_power, max_iters=2000,
                                   leakage_tol=1e-3, init="random", seed=8)
    assert trace.converged
    explicit = leakage(blocks, trace.receive, trace.transmit, cfg.tx_power, cfg.dof)
    assert trace.leakage[-1] == pytest.approx(explicit, rel=1e-9)


def test_every_returned_column_has_a_pinned_phase():
    cfg = NetworkConfig.symmetric(5, 2, 2, 1)
    trace = iterate_distributed_ia(_paired_blocks(cfg, 9), cfg.dof, cfg.tx_power,
                                   max_iters=40, init="random", seed=1)
    for a in trace.receive + trace.transmit:
        _assert_pinned(a)


def test_stream_requests_that_do_not_fit_are_typed():
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    blocks = generate_channel(cfg, 1).blocks
    with pytest.raises(DistributedInfeasible, match="per user"):
        iterate_distributed_ia(blocks, [1, 1], cfg.tx_power)
    with pytest.raises(DistributedInfeasible, match="streams"):
        iterate_distributed_ia(blocks, [3, 1, 1], cfg.tx_power)
