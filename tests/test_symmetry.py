"""Relabelling oracles: renaming the ring must not change a reported number.

Rotating a draw one step around the ring makes user ``k`` user ``k + 1``
and station ``l`` station ``l + 1``, which keeps every serving pair. Each
user's paired stack lists its stations in the order
:func:`pcia.build_permutation` gives, ascending: stations 0 and ``K - 1``
for user 0, ``k - 1`` and ``k`` for every other user. The pairs of
users ``K - 1`` and 0 come out of the rotation listed in reverse, so it
also permutes the paired columns of those two users; filters move with
their user and with the physical antennas their rows drive. The scorers,
zero forcing and the one-shot design where every null space is exactly
as wide as its stream count must then report the same rates and residuals, rotated, within
``RTOL`` relative (``ATOL`` absolute for residuals at alignment, which sit
at rounding level): only the order of floating-point sums changes.

The harness's per-trial rates for one-shot and zero forcing follow too,
on specs whose one-shot null spaces are exactly as wide as their stream
counts and whose time-share slot set is closed under the rotation.

The one-shot design on wider null spaces is not invariant: its subset
search scores columns of an arbitrary basis of each null space, so it
is left out here.
"""

import numpy as np
import pytest

from pcia import (
    ExperimentSpec,
    NetworkConfig,
    alignment_residual,
    bd_zero_forcing,
    build_permutation,
    equivalent_channel,
    generate_channel,
    one_shot_ia,
    sum_rate,
)
from pcia import evaluation
from pcia.evaluation import _run_single_trial
from pcia.linalg import _stack
from pcia.network import ChannelSet
from pcia.oneshot import design_receive_beamformers, reciprocal_state

from conftest import random_orthonormal

RTOL = 1e-10
ATOL = 1e-12
POWERS = 100.0


def _rotated(values):
    """Per-user values relabelled one step on: entry ``k`` moves to ``k + 1``."""
    values = list(values)
    return values[-1:] + values[:-1]


def _rotated_config(cfg):
    return NetworkConfig(_rotated(cfg.rx_antennas), _rotated(cfg.tx_antennas),
                         _rotated(cfg.dof))


def _rotated_channel(channel):
    """The same draw with every user and station one step on around the ring."""
    users = channel.num_users
    return ChannelSet([[channel.blocks[(i - 1) % users][(j - 1) % users]
                        for j in range(users)] for i in range(users)])


def _paired_antennas(cfg):
    """Per user, the physical antenna behind each row of its paired stack."""
    order = build_permutation(cfg).column_order
    edges = np.cumsum((0,) + cfg.paired_widths)
    return [order[a:b] for a, b in zip(edges, edges[1:])]


def _rotated_transmit(cfg, transmit):
    """Paired precoders of the rotated draw: user ``k``'s rows, on the same antennas."""
    users = cfg.num_users
    # Station l's antennas keep their order as station l + 1's.
    starts = np.cumsum((0,) + cfg.tx_antennas)
    new_starts = np.cumsum((0,) + tuple(_rotated(cfg.tx_antennas)))
    moved = np.empty(cfg.total_tx_antennas, dtype=np.intp)
    for l in range(users):
        moved[starts[l]:starts[l + 1]] = np.arange(cfg.tx_antennas[l]) + new_starts[(l + 1) % users]
    rows = _paired_antennas(_rotated_config(cfg))
    out = [None] * users
    for k, (antennas, v) in enumerate(zip(_paired_antennas(cfg), transmit)):
        position = {a: r for r, a in enumerate(moved[antennas])}
        out[(k + 1) % users] = v[[position[a] for a in rows[(k + 1) % users]]]
    return out


def _paired(cfg, channel):
    return equivalent_channel(channel, build_permutation(cfg))


def _scores(view, receive, transmit, dof):
    rates, _ = sum_rate(view, receive, transmit, [POWERS] * len(dof), dof, 1.0)
    return np.array(rates), alignment_residual(view, receive, transmit)


CONFIGS = {
    "k3-2x2": NetworkConfig.symmetric(3, 2, 2, 1),
    "k4-3x3-uneven": NetworkConfig.symmetric(4, 3, 3, [2, 1, 0, 1]),
    "stations-232": NetworkConfig((2, 3, 2), (2, 3, 2), (1, 2, 0)),
}


@pytest.mark.parametrize("name", CONFIGS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scorers_follow_a_ring_rotation(name, seed):
    cfg = CONFIGS[name]
    rng = np.random.default_rng(seed)
    channel = generate_channel(cfg, seed)
    receive = [random_orthonormal(rng, m, d) for m, d in zip(cfg.rx_antennas, cfg.dof)]
    transmit = [random_orthonormal(rng, w, d) for w, d in zip(cfg.paired_widths, cfg.dof)]
    rates, resid = _scores(_paired(cfg, channel).blocks, receive, transmit, cfg.dof)
    turned = _rotated_config(cfg)
    moved_rates, moved_resid = _scores(
        _paired(turned, _rotated_channel(channel)).blocks, _rotated(receive),
        _rotated_transmit(cfg, transmit), turned.dof)
    np.testing.assert_allclose(moved_rates, _rotated(rates), rtol=RTOL, atol=0)
    np.testing.assert_allclose(moved_resid, resid, rtol=RTOL, atol=0)
    assert resid > 0.1   # random filters: a real residual, not alignment


@pytest.mark.parametrize("name", CONFIGS)
@pytest.mark.parametrize("seed", [0, 1])
def test_a_users_paired_columns_permuted_with_its_filter_rows_change_no_score(name, seed):
    cfg = CONFIGS[name]
    rng = np.random.default_rng(10 + seed)
    blocks = _paired(cfg, generate_channel(cfg, seed)).blocks
    receive = [random_orthonormal(rng, m, d) for m, d in zip(cfg.rx_antennas, cfg.dof)]
    transmit = [random_orthonormal(rng, w, d) for w, d in zip(cfg.paired_widths, cfg.dof)]
    rates, resid = _scores(blocks, receive, transmit, cfg.dof)
    for k in range(cfg.num_users):
        perm = rng.permutation(cfg.paired_widths[k])
        shuffled = [[b[:, perm] if l == k else b for l, b in enumerate(row)] for row in blocks]
        moved = [v[perm] if l == k else v for l, v in enumerate(transmit)]
        got_rates, got_resid = _scores(shuffled, receive, moved, cfg.dof)
        np.testing.assert_allclose(got_rates, rates, rtol=RTOL, atol=0)
        np.testing.assert_allclose(got_resid, resid, rtol=RTOL, atol=0)


def _bd_scores(channel):
    sol = bd_zero_forcing(channel)
    # Each receiver's whole row block, zero-padded, on a transmitter axis of one.
    rows = _stack([channel.row_block(k) for k in range(channel.num_users)],
                  max(channel.rx_sizes), sum(channel.tx_sizes))[:, None]
    rates, _ = sum_rate(rows, sol.receive_stack, sol.transmit_stack,
                        [POWERS] * channel.num_users, sol.dof, 1.0)
    return np.array(rates), sol.dof


@pytest.mark.parametrize("rx, tx", [(2, 2), (2, 4), ((3, 2, 2), (2, 2, 3))],
                         ids=["k3-2x2", "k3-2x4", "rx322-tx223"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_zero_forcing_rates_follow_a_ring_rotation(rx, tx, seed):
    cfg = NetworkConfig(rx if isinstance(rx, tuple) else (rx,) * 3,
                        tx if isinstance(tx, tuple) else (tx,) * 3, 0)
    channel = generate_channel(cfg, seed)
    rates, dof = _bd_scores(channel)
    moved_rates, moved_dof = _bd_scores(_rotated_channel(channel))
    assert moved_dof == tuple(_rotated(dof))
    np.testing.assert_allclose(moved_rates, _rotated(rates), rtol=RTOL, atol=0)


@pytest.mark.parametrize("cfg", [
    NetworkConfig.symmetric(4, 2, 2, 1),
    NetworkConfig.symmetric(3, 3, 3, 2),
], ids=["k4-2x2-d1", "k3-3x3-d2"])
@pytest.mark.parametrize("seed", range(4))
def test_one_shot_follows_a_ring_rotation_where_each_null_space_is_its_streams(cfg, seed):
    # Every null space is exactly as wide as its user's streams, so the
    # design takes it whole and no basis choice enters the filters' span.
    channel = generate_channel(cfg, seed)
    turned = _rotated_config(cfg)
    results = []
    for config, draw in ((cfg, channel), (turned, _rotated_channel(channel))):
        equiv = _paired(config, draw)
        receive = design_receive_beamformers(equiv, config)
        assert reciprocal_state(equiv, receive, config).nullities == list(config.dof)
        beams = one_shot_ia(config, equiv)
        results.append(_scores(equiv, beams.receive_stack, beams.transmit_stack, config.dof))
    (rates, resid), (moved_rates, moved_resid) = results
    np.testing.assert_allclose(moved_rates, _rotated(rates), rtol=RTOL, atol=0)
    assert resid < ATOL and moved_resid < ATOL


HARNESS_SPECS = {
    "k4-2x2-d4": ExperimentSpec(4, 2, 2, 4, ("oneshot_partial", "bdzf_full"),
                                (0.0, 20.0, 40.0), trials=3, seed=5),
    # Five slots, each silencing one user: the rotation maps the slot set onto itself.
    "k5-timeshare": ExperimentSpec(5, 2, 2, 4, ("oneshot_partial", "bdzf_full"),
                                   (0.0, 10.0, 20.0, 30.0, 40.0), trials=3, seed=5),
}


@pytest.mark.parametrize("name", HARNESS_SPECS)
def test_harness_rates_follow_a_ring_rotation(name, monkeypatch):
    spec = HARNESS_SPECS[name]
    plain = [_run_single_trial(spec, t) for t in range(spec.trials)]
    draw = evaluation.generate_channel
    monkeypatch.setattr(evaluation, "generate_channel",
                        lambda config, seed: _rotated_channel(draw(config, seed)))
    for trial, want in enumerate(plain):
        got = _run_single_trial(spec, trial)
        for scheme in spec.schemes:
            np.testing.assert_allclose(got[scheme]["rates"], want[scheme]["rates"],
                                       rtol=RTOL, atol=0)
            assert got[scheme]["dof"] == want[scheme]["dof"]
