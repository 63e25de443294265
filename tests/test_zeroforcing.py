"""Fully coordinated block-diagonalization benchmark."""

from types import SimpleNamespace

import numpy as np
import pytest

from pcia import (
    BDInfeasible,
    ChannelSet,
    NetworkConfig,
    bd_zero_forcing,
    generate_channel,
)
from pcia.linalg import _pinning_phases
from pcia.zeroforcing import _other_rows


def _channel(num_users, m, n, seed):
    cfg = NetworkConfig.symmetric(num_users, m, n, 0)
    return generate_channel(cfg, seed)


def test_interference_is_nulled_at_the_channel():
    channel = _channel(3, 2, 2, 101)
    sol = bd_zero_forcing(channel)
    for k in range(3):
        assert sol.transmit[k].shape == (6, sol.dof[k])
        for l in range(3):
            if l != k:
                # foreign receivers see nothing, before any filtering
                seen = channel.row_block(l) @ sol.transmit[k]
                assert np.max(np.abs(seen)) < 1e-10


def test_default_grants_fill_each_null_space():
    assert bd_zero_forcing(_channel(5, 2, 2, 1)).dof == (2,) * 5
    assert bd_zero_forcing(_channel(5, 2, 2, 1)).dof_total == 10
    assert bd_zero_forcing(_channel(5, 3, 3, 2)).dof == (3,) * 5
    # receive antennas bind before the null space does
    assert bd_zero_forcing(_channel(3, 2, 3, 3)).dof == (2, 2, 2)


def test_effective_links_are_diagonal():
    channel = _channel(4, 2, 3, 7)
    sol = bd_zero_forcing(channel)
    for k in range(4):
        eff = sol.receive[k].conj().T @ channel.row_block(k) @ sol.transmit[k]
        off = eff - np.diag(np.diag(eff))
        assert np.max(np.abs(off)) < 1e-10
        gains = np.real(np.diag(eff))
        assert np.all(gains > 0)
        assert np.all(np.diff(gains) <= 1e-12)  # dominant directions first
        assert np.allclose(sol.receive[k].conj().T @ sol.receive[k], np.eye(sol.dof[k]),
                           atol=1e-12)
        assert np.allclose(sol.transmit[k].conj().T @ sol.transmit[k], np.eye(sol.dof[k]),
                           atol=1e-12)


def test_explicit_grants_and_overreach():
    channel = _channel(2, 2, 2, 11)
    sol = bd_zero_forcing(channel, dof=[1, 2])
    assert sol.dof == (1, 2)
    assert sol.transmit[0].shape == (4, 1)
    with pytest.raises(BDInfeasible, match="asked for"):
        bd_zero_forcing(channel, dof=[3, 1])


@pytest.mark.parametrize("dof, fragment", [
    ([1, 1], "dof needs one stream count per user: got 2 for 3"),
    ([1, 1, 1, 1], "dof needs one stream count per user: got 4 for 3"),
    ([-1, 1, 1], "dof must not be negative"),
    ([1.5, 1, 1], "dof must be a whole number"),
])
def test_stream_requests_are_checked(dof, fragment):
    with pytest.raises(ValueError, match=fragment):
        bd_zero_forcing(_channel(3, 2, 2, 13), dof=dof)


@pytest.mark.parametrize("rank_tol", [float("nan"), float("inf"), -1.0, 0.0])
def test_rank_tolerance_must_be_positive_and_finite(rank_tol):
    # A NaN threshold used to keep every direction of every null space,
    # returning precoders that do not zero-force.
    with pytest.raises(ValueError, match="rank_tol must be positive and finite"):
        bd_zero_forcing(_channel(3, 2, 2, 13), rank_tol=rank_tol)


def test_zero_grant_skips_a_user():
    channel = _channel(3, 2, 2, 13)
    sol = bd_zero_forcing(channel, dof=[2, 0, 1])
    assert sol.dof == (2, 0, 1)
    assert sol.transmit[1].shape == (6, 0)
    assert sol.receive[1].shape == (2, 0)


def test_too_few_pooled_antennas():
    with pytest.raises(BDInfeasible, match="interference-free"):
        bd_zero_forcing(_channel(3, 2, 1, 17))


def test_single_user_reduces_to_eigenbeamforming():
    rng = np.random.default_rng(19)
    h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    sol = bd_zero_forcing(ChannelSet([[h]]))
    assert sol.dof == (2,)
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    eff = sol.receive[0].conj().T @ h @ sol.transmit[0]
    assert np.allclose(np.real(np.diag(eff)), s[:2], atol=1e-10)
    assert np.max(np.abs(eff - np.diag(np.diag(eff)))) < 1e-10


def _bd_by_user(channel, dof=None, rank_tol=1e-9):
    # The per-user loop the batched design replaces: one full svd of the
    # other users' rows and one thin svd of the effective channel per
    # user, phases pinned on the truncated factors. Returns the per-user
    # precoder and filter lists and the granted stream counts.
    num_users = channel.num_users
    n_total = sum(channel.tx_sizes)
    transmit, receive, granted = [], [], []
    for k in range(num_users):
        rows = [np.hstack(channel.blocks[l]) for l in range(num_users) if l != k]
        if rows:
            stacked = np.vstack(rows)
            _, svals, vh = np.linalg.svd(stacked)
            rank = int(np.sum(svals > rank_tol * svals[0]))
            null = vh.conj().T[:, rank:]
        else:
            null = np.eye(n_total, dtype=np.complex128)
        if dof is not None and int(dof[k]) == 0:
            transmit.append(np.zeros((n_total, 0), dtype=np.complex128))
            receive.append(np.zeros((channel.rx_sizes[k], 0), dtype=np.complex128))
            granted.append(0)
            continue
        if null.shape[1] == 0:
            raise BDInfeasible(
                f"zero forcing leaves user {k} no interference-free directions: "
                f"{n_total} pooled antennas cannot avoid "
                f"{stacked.shape[0]} foreign receive dimensions")
        effective = np.hstack(channel.blocks[k]) @ null
        cap = min(effective.shape)
        want = cap if dof is None else int(dof[k])
        if want > cap:
            raise BDInfeasible(f"user {k} asked for {want} streams but zero forcing supports {cap}")
        u, _, vh_eff = np.linalg.svd(effective, full_matrices=False)
        # u's pinning phases turn both factors, leaving their product as it was.
        phases = _pinning_phases(u[:, :want])[None, :]
        u_t, v_t = u[:, :want] * phases, vh_eff.conj().T[:, :want] * phases
        transmit.append(null @ v_t)
        receive.append(u_t)
        granted.append(want)
    return SimpleNamespace(transmit=transmit, receive=receive, dof=tuple(granted))


def _ragged_channel(rx, tx, seed):
    return generate_channel(NetworkConfig(rx, tx, 0), seed)


def _single_user_channel(seed):
    rng = np.random.default_rng(seed)
    return ChannelSet([[rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))]])


BATCHED_CASES = {
    "k5-2x2": (lambda seed: _channel(5, 2, 2, seed), None),
    "stations-232": (lambda seed: _ragged_channel((2, 3, 2), (2, 3, 2), seed), None),
    "rx322-tx223": (lambda seed: _ragged_channel((3, 2, 2), (2, 2, 3), seed), None),
    "dof-201": (lambda seed: _channel(3, 2, 2, seed), [2, 0, 1]),
    "single-user": (_single_user_channel, None),
}


@pytest.mark.parametrize("case", BATCHED_CASES)
def test_batched_design_matches_the_per_user_loop(case):
    draw, dof = BATCHED_CASES[case]
    for seed in range(5):
        channel = draw(seed)
        got = bd_zero_forcing(channel, dof=dof)
        want = _bd_by_user(channel, dof=dof)
        assert got.dof == want.dof
        for side in ("transmit", "receive"):
            for a, b in zip(getattr(got, side), getattr(want, side), strict=True):
                assert a.shape == b.shape
                assert np.array_equal(a, b)


@pytest.mark.parametrize("case", ["k5-2x2", "rx322-tx223"])
def test_other_row_gather_matches_a_vstack_loop(case):
    # Each user's gathered other-user rows are the other row blocks
    # stacked by ``np.vstack``, and the design built on them equals the
    # per-user vstack + svd loop bit for bit.
    draw, _ = BATCHED_CASES[case]
    for seed in range(3):
        channel = draw(seed)
        gathered = {}
        for users, index in _other_rows(channel.rx_sizes):
            assert not index.flags.writeable
            gathered.update(zip(users, channel._matrix[index]))
        assert sorted(gathered) == list(range(channel.num_users))
        for k, rows in gathered.items():
            others = [channel.row_block(l) for l in range(channel.num_users) if l != k]
            assert np.array_equal(rows, np.vstack(others))
        got, want = bd_zero_forcing(channel), _bd_by_user(channel)
        assert got.dof == want.dof
        for side in ("transmit", "receive"):
            for a, b in zip(getattr(got, side), getattr(want, side), strict=True):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("channel, dof, fragment", [
    (_channel(3, 2, 1, 17), None, "no interference-free directions"),
    (_channel(3, 2, 1, 17), [0, 1, 1], "foreign receive dimensions"),
    (_channel(2, 2, 2, 11), [3, 1], "asked for 3 streams but zero forcing supports 2"),
    (_ragged_channel((3, 2, 2), (2, 2, 3), 5), [1, 3, 1], "user 1 asked for 3"),
])
def test_infeasible_designs_keep_their_messages(channel, dof, fragment):
    with pytest.raises(BDInfeasible, match=fragment) as batched:
        bd_zero_forcing(channel, dof=dof)
    with pytest.raises(BDInfeasible) as looped:
        _bd_by_user(channel, dof=dof)
    assert str(batched.value) == str(looped.value)
