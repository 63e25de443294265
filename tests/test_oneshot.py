"""Single-pass alignment on the paired-transmitter channel.

Oracles used here: received signal power against the squared singular
values of the direct block, covariance traces against an entrywise
double sum, and subset selection against a determinant-modulus scan.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcia import (
    ChannelSet,
    NetworkConfig,
    OneShotInfeasible,
    RankDeficientDesired,
    build_permutation,
    design_receive_beamformers,
    equivalent_channel,
    generate_channel,
    null_space_basis,
    one_shot_ia,
    received_signal_power,
    reciprocal_interference_covariance,
    reciprocal_state,
    select_transmit_beamformer,
)
from pcia import oneshot

from conftest import random_orthonormal


def _equiv(config, seed):
    return equivalent_channel(generate_channel(config, seed), build_permutation(config))


def test_receive_filters_reconstruct_direct_blocks(k3_config, k3_channel):
    equiv = equivalent_channel(k3_channel, build_permutation(k3_config))
    receive, cache = design_receive_beamformers(equiv, k3_config)
    for k in range(3):
        block = equiv.blocks[k][k]
        rebuilt = cache.left[k] @ np.diag(cache.singular[k]) @ cache.right[k].conj().T
        assert np.allclose(rebuilt, block, atol=1e-12)
        # filters are the truncated left factors, orthonormal columns
        assert np.array_equal(receive[k], cache.left_trunc[k])
        gram = receive[k].conj().T @ receive[k]
        assert np.allclose(gram, np.eye(k3_config.dof[k]), atol=1e-12)
        # the joint phase sits on the left factor: first nonzero entry
        # of every left column is real and positive
        for col in cache.left[k].T:
            lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_received_power_matches_singular_values():
    # Transmitting along the dominant right singular vectors turns the
    # effective link into diag of the top singular values, so the output
    # power must be (P/d) * sum of their squares.
    cfg = NetworkConfig.symmetric(3, 3, 3, 2, tx_power=5.0)
    equiv = _equiv(cfg, 90125)
    receive, cache = design_receive_beamformers(equiv, cfg)
    for k in range(3):
        svals = np.linalg.svd(equiv.blocks[k][k], compute_uv=False)
        expected = cfg.tx_power[k] / cfg.dof[k] * float(np.sum(svals[: cfg.dof[k]] ** 2))
        got = received_signal_power(
            receive[k], equiv.blocks[k][k], cache.right_trunc[k],
            cfg.tx_power[k], cfg.dof[k],
        )
        assert got == pytest.approx(expected, rel=1e-10)
    assert received_signal_power(receive[0], equiv.blocks[0][0],
                                 cache.right_trunc[0], 5.0, 0) == 0.0


def test_covariance_trace_matches_double_sum(k3_config, k3_channel):
    equiv = equivalent_channel(k3_channel, build_permutation(k3_config))
    receive, _ = design_receive_beamformers(equiv, k3_config)
    covs = reciprocal_interference_covariance(equiv, receive, k3_config)
    for k in range(3):
        total = 0.0
        for l in range(3):
            if l == k:
                continue
            eff = equiv.blocks[l][k].conj().T @ receive[l]
            for i in range(eff.shape[0]):
                for j in range(eff.shape[1]):
                    total += k3_config.tx_power[l] / k3_config.dof[l] * abs(eff[i, j]) ** 2
        assert float(np.real(np.trace(covs[k]))) == pytest.approx(total, rel=1e-12)
        assert np.allclose(covs[k], covs[k].conj().T)
        assert np.min(np.linalg.eigvalsh(covs[k])) > -1e-12


def test_covariance_rank_follows_foreign_stream_count():
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    state = reciprocal_state(_equiv(cfg, 7), design_receive_beamformers(_equiv(cfg, 7), cfg)[0], cfg)
    assert state.ranks == [2, 2, 2]
    assert state.nullities == [2, 2, 2]
    assert state.choice_counts == [2, 2, 2]

    cfg4 = NetworkConfig.symmetric(4, 2, 2, 1)
    equiv4 = _equiv(cfg4, 8)
    receive4, _ = design_receive_beamformers(equiv4, cfg4)
    state4 = reciprocal_state(equiv4, receive4, cfg4)
    assert state4.ranks == [3, 3, 3, 3]
    assert state4.choice_counts == [1, 1, 1, 1]  # rigid: exactly one candidate


def test_covariance_rank_with_unequal_station_sizes():
    cfg = NetworkConfig(rx_antennas=[2, 2, 2], tx_antennas=[2, 3, 2],
                        dof=[1, 1, 1], tx_power=[1.0] * 3)
    equiv = _equiv(cfg, 9)
    receive, _ = design_receive_beamformers(equiv, cfg)
    state = reciprocal_state(equiv, receive, cfg)
    # paired widths are (4, 5, 5) and every user faces two foreign streams
    assert state.ranks == [2, 2, 2]
    assert state.nullities == [2, 3, 3]


def test_null_space_tolerance_boundary():
    q = np.diag([1.0, 1e-8, 1e-10]).astype(np.complex128)
    tight = null_space_basis(q, rank_tol=1e-9)
    assert tight.shape == (3, 1)
    assert np.allclose(tight[:, 0], [0, 0, 1])
    loose = null_space_basis(q, rank_tol=1e-7)
    assert loose.shape == (3, 2)
    everything = null_space_basis(np.zeros((3, 3)), rank_tol=1e-9)
    assert everything.shape == (3, 3)


def test_selector_geometric_agrees_with_det(rng):
    # With a square effective matrix the product of eigenvalue moduli is
    # |det|, which gives an independent route to the same ranking.
    from itertools import combinations

    d, width, nullity = 2, 5, 4
    receive = np.linalg.qr(rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d)))[0]
    direct = rng.standard_normal((3, width)) + 1j * rng.standard_normal((3, width))
    basis = np.linalg.qr(rng.standard_normal((width, nullity))
                         + 1j * rng.standard_normal((width, nullity)))[0]
    picked = select_transmit_beamformer(receive, direct, basis, d)
    projected = receive.conj().T @ direct @ basis
    scores = {cols: abs(np.linalg.det(projected[:, cols]))
              for cols in combinations(range(nullity), d)}
    best = max(scores, key=scores.get)
    assert np.array_equal(picked, basis[:, best])

    powered = select_transmit_beamformer(receive, direct, basis, d, criterion="power")
    pscores = {cols: float(np.linalg.norm(projected[:, cols], "fro") ** 2)
               for cols in combinations(range(nullity), d)}
    pbest = max(pscores, key=pscores.get)
    assert np.array_equal(powered, basis[:, pbest])


def test_selector_tie_breaks_to_first_subset():
    receive = np.eye(1, dtype=np.complex128)
    direct = np.array([[1.0, 1.0]], dtype=np.complex128)
    basis = np.eye(2, dtype=np.complex128)
    picked = select_transmit_beamformer(receive, direct, basis, 1)
    assert np.array_equal(picked, basis[:, [0]])


def test_selector_rigid_path_returns_basis_unchanged():
    basis = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 2)))[0]
    out = select_transmit_beamformer(np.eye(2), np.ones((2, 4)), basis.astype(complex), 2)
    assert out is basis or np.array_equal(out, basis)


def test_selector_failure_reports_shortfall():
    basis = np.zeros((4, 1), dtype=np.complex128)
    with pytest.raises(OneShotInfeasible) as exc:
        select_transmit_beamformer(np.eye(2), np.ones((2, 4)), basis, 2, user=1)
    assert exc.value.user == 1
    assert exc.value.nullity == 1
    assert exc.value.dof == 2
    with pytest.raises(ValueError, match="criterion"):
        select_transmit_beamformer(np.eye(2), np.ones((2, 4)), basis, 1, criterion="best")


def test_end_to_end_alignment_three_cells(k3_config, k3_channel):
    beams = one_shot_ia(k3_config, k3_channel)
    equiv = equivalent_channel(k3_channel, build_permutation(k3_config))
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            leak = beams.receive[i].conj().T @ equiv.blocks[i][j] @ beams.transmit[j]
            assert np.max(np.abs(leak)) < 1e-12
    for k in range(3):
        eff = beams.receive[k].conj().T @ equiv.blocks[k][k] @ beams.transmit[k]
        assert np.linalg.svd(eff, compute_uv=False)[-1] > 1e-3


def test_one_shot_accepts_prebuilt_equivalent(k3_config, k3_channel):
    equiv = equivalent_channel(k3_channel, build_permutation(k3_config))
    a = one_shot_ia(k3_config, k3_channel)
    b = one_shot_ia(k3_config, equiv)
    for k in range(3):
        assert np.array_equal(a.transmit[k], b.transmit[k])
        assert np.array_equal(a.receive[k], b.receive[k])
    other = NetworkConfig.symmetric(3, 2, 3, 1)
    with pytest.raises(ValueError, match="widths"):
        one_shot_ia(other, equiv)


def test_silent_user_occupies_no_dimensions():
    cfg = NetworkConfig.symmetric(3, 2, 2, [2, 1, 0])
    channel = generate_channel(cfg, 1234)
    beams = one_shot_ia(cfg, channel)
    assert beams.transmit[2].shape == (4, 0)
    assert beams.receive[2].shape == (2, 0)
    equiv = equivalent_channel(channel, build_permutation(cfg))
    for i, j in ((0, 1), (1, 0)):
        leak = beams.receive[i].conj().T @ equiv.blocks[i][j] @ beams.transmit[j]
        assert np.max(np.abs(leak)) < 1e-12


def test_all_silent_users_rejected():
    cfg = NetworkConfig.symmetric(3, 2, 2, 0)
    with pytest.raises(ValueError, match="active"):
        one_shot_ia(cfg, generate_channel(cfg, 0))


def test_stream_demand_beyond_paired_width():
    cfg = NetworkConfig.symmetric(5, 2, 2, 1)
    with pytest.raises(OneShotInfeasible) as exc:
        one_shot_ia(cfg, generate_channel(cfg, 55))
    assert exc.value.dof == 5
    assert exc.value.nullity == 4  # the binding paired width


def test_reverse_power_scaling_leaves_design_unchanged(k3_config, k3_channel):
    base = one_shot_ia(k3_config, k3_channel)
    scaled = one_shot_ia(k3_config, k3_channel, reverse_power=[2.0, 2.0, 2.0])
    for k in range(3):
        assert np.allclose(base.transmit[k], scaled.transmit[k], atol=1e-9)


def test_rank_deficient_direct_link_is_reported():
    # Two single-antenna cells whose users see identical rows: the only
    # interference-free direction is then also invisible to the direct
    # link, which the final rank check must catch.
    rng = np.random.default_rng(77)
    row = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    blocks = [[row[0].reshape(1, 1), row[1].reshape(1, 1)],
              [row[0].reshape(1, 1), row[1].reshape(1, 1)]]
    channel = ChannelSet(blocks)
    cfg = NetworkConfig.symmetric(2, 1, 1, 1)
    with pytest.raises(RankDeficientDesired) as exc:
        one_shot_ia(cfg, channel)
    assert exc.value.user == 0


@st.composite
def feasible_rings(draw):
    k = draw(st.integers(min_value=2, max_value=3))
    m = draw(st.integers(2, 3))
    n = draw(st.integers(2, 3))
    dof = [draw(st.integers(0, 1)) for _ in range(k)]
    if not any(dof):
        dof[0] = 1
    seed = draw(st.integers(0, 2**32 - 1))
    return NetworkConfig.symmetric(k, m, n, dof), seed


@given(feasible_rings())
@settings(max_examples=25, deadline=None)
def test_one_shot_always_cancels_cross_links(cfg_seed):
    cfg, seed = cfg_seed
    channel = generate_channel(cfg, seed)
    beams = one_shot_ia(cfg, channel)
    equiv = equivalent_channel(channel, build_permutation(cfg))
    for i in range(cfg.num_users):
        for j in range(cfg.num_users):
            if i == j or cfg.dof[i] == 0 or cfg.dof[j] == 0:
                continue
            leak = beams.receive[i].conj().T @ equiv.blocks[i][j] @ beams.transmit[j]
            assert np.max(np.abs(leak)) < 1e-10
    for k in cfg.active_users:
        gram = beams.transmit[k].conj().T @ beams.transmit[k]
        assert np.allclose(gram, np.eye(cfg.dof[k]), atol=1e-10)


def _loop_pick(receive, direct, basis, d, criterion):
    # The per-subset scan the batched selector replaced: one eigvals (or
    # norm) per subset, a later subset winning only on a strictly better
    # score.
    projected = receive.conj().T @ direct @ basis
    best_cols, best_score = None, -np.inf
    for cols in itertools.combinations(range(basis.shape[1]), d):
        b = projected[:, cols]
        if criterion == "geometric":
            score = float(np.prod(np.abs(np.linalg.eigvals(b))))
        else:
            score = float(np.linalg.norm(b, "fro") ** 2)
        if score > best_score:
            best_cols, best_score = cols, score
    return basis[:, best_cols]


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("criterion", ["geometric", "power"])
def test_batched_selector_matches_per_subset_loop(monkeypatch, chunk, criterion):
    if chunk is not None:
        monkeypatch.setattr(oneshot, "_SUBSET_CHUNK", chunk)
    rng = np.random.default_rng(4096)
    for nullity in range(3, 9):
        for d in range(1, min(4, nullity - 1) + 1):
            for _ in range(3):
                width = nullity + 1
                receive = random_orthonormal(rng, d + 1, d)
                direct = (rng.standard_normal((d + 1, width))
                          + 1j * rng.standard_normal((d + 1, width)))
                basis = random_orthonormal(rng, width, nullity)
                picked = select_transmit_beamformer(receive, direct, basis, d,
                                                    criterion=criterion)
                expected = _loop_pick(receive, direct, basis, d, criterion)
                assert np.array_equal(picked, expected), (nullity, d)


@pytest.mark.parametrize("criterion", ["geometric", "power"])
def test_selector_ties_straddling_chunks_keep_first_subset(monkeypatch, criterion):
    # The direct link drops the third coordinate, so basis columns 1 and
    # 3 project to the same vector while staying distinguishable: the
    # subsets (0, 1) and (0, 3) tie exactly under both criteria, and no
    # subset scores higher.
    receive = np.eye(2, dtype=np.complex128)
    direct = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.complex128)
    basis = np.array([[1, 0, 0.5, 0, 0.3],
                      [0, 1, 0.2, 1, 0.3],
                      [0, 0, 0.0, 1, 1.0]], dtype=np.complex128)
    first = basis[:, [0, 1]]
    for chunk in range(1, 12):
        monkeypatch.setattr(oneshot, "_SUBSET_CHUNK", chunk)
        picked = select_transmit_beamformer(receive, direct, basis, 2, criterion=criterion)
        assert np.array_equal(picked, first), chunk
        assert np.array_equal(picked, _loop_pick(receive, direct, basis, 2, criterion))
