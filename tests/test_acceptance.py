"""Behavioral gate for the whole library, run at Monte-Carlo scale.

Each test checks one externally visible promise and finishes by
printing a scorecard line, so ``pytest -s`` gives a readable audit:

    ACCEPTANCE 01 PASS  equivalent channel identity
    ...

Tolerances, trial counts, and wall-clock budgets are frozen on purpose;
loosening any of them weakens the contract the package ships under.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from pcia import (
    NetworkConfig,
    OneShotInfeasible,
    backhaul_rate,
    build_permutation,
    dof_upper_bound,
    equivalent_channel,
    generate_channel,
    is_proper_generic,
    is_proper_partial,
    one_shot_ia,
    time_share_schedule,
)
from pcia.cli import main as cli_main
from pcia.evaluation import (
    ExperimentSpec,
    alignment_residual,
    multiplexing_gain_estimate,
    run_experiment,
)
from pcia.oneshot import design_receive_beamformers, reciprocal_state

from conftest import (
    blockdiag,
    direct_triplets,
    overall_precoder,
    random_orthonormal,
    received_signal_power,
)


def _scorecard(number, label):
    print(f"ACCEPTANCE {number:02d} PASS  {label}")


# Every symmetric setup whose stream total fits the one-shot bound,
# with the per-slot assignment actually used when the total is not a
# multiple of the user count.
ALIGNMENT_CASES = (
    (3, 2, 3),
    (3, 2, 4),
    (3, 3, 4),
    (3, 3, 5),
    (3, 3, 6),
    (4, 2, 4),
    (4, 3, 6),
)


def _case_config(num_users, antennas, dof_total):
    row = time_share_schedule(num_users, dof_total).slot_table[0]
    return NetworkConfig([antennas] * num_users, [antennas] * num_users, list(row))


def test_01_equivalent_channel_identity():
    rng = np.random.default_rng(101)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        rx = [int(rng.integers(1, 5)) for _ in range(k)]
        tx = [int(rng.integers(1, 5)) for _ in range(k)]
        cfg = NetworkConfig(rx, tx, [0] * k)
        dof = [int(rng.integers(1, min(rx[i], cfg.paired_widths[i]) + 1))
               for i in range(k)]
        cfg = NetworkConfig(rx, tx, dof)
        channel = generate_channel(cfg, int(rng.integers(2 ** 32)))
        equiv = equivalent_channel(channel, build_permutation(cfg))
        transmit = [random_orthonormal(rng, cfg.paired_widths[i], dof[i])
                    for i in range(k)]
        lhs = equiv.assemble() @ blockdiag(transmit)
        rhs = channel.assemble() @ overall_precoder(transmit, cfg)
        rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
        assert rel <= 1e-12
    _scorecard(1, "equivalent channel identity")


def test_02_one_shot_alignment_at_scale():
    start = time.perf_counter()
    for case_idx, (k, antennas, dof_total) in enumerate(ALIGNMENT_CASES):
        cfg = _case_config(k, antennas, dof_total)
        perm = build_permutation(cfg)
        for trial in range(1000):
            channel = generate_channel(
                cfg, np.random.SeedSequence((2026, case_idx, trial)))
            equiv = equivalent_channel(channel, perm)
            beams = one_shot_ia(cfg, equiv)
            resid = alignment_residual(equiv.blocks, beams.receive, beams.transmit)
            assert resid <= 1e-8
            for user in range(k):
                eff = beams.receive[user].conj().T @ equiv.blocks[user][user] \
                    @ beams.transmit[user]
                assert np.linalg.matrix_rank(eff) == cfg.dof[user]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _scorecard(2, f"one-shot alignment, 7000 channels in {elapsed:.0f}s")


def test_03_received_power_identities():
    power = 1.0
    for case_idx, (k, antennas, dof_total) in enumerate(ALIGNMENT_CASES):
        cfg = _case_config(k, antennas, dof_total)
        perm = build_permutation(cfg)
        for trial in range(30):
            channel = generate_channel(
                cfg, np.random.SeedSequence((3033, case_idx, trial)))
            equiv = equivalent_channel(channel, perm)
            receive = design_receive_beamformers(equiv, cfg)
            # The dominant triplets of each direct block, from the draw's SVD.
            triplets = direct_triplets(equiv)
            singular = [s[:d] for (_, s, _), d in zip(triplets, cfg.dof)]
            right = [v[:, :d] for (_, _, v), d in zip(triplets, cfg.dof)]
            for user in range(k):
                d = cfg.dof[user]
                # Matched precoding attains the sum of the dominant
                # squared singular values, split evenly over streams.
                got = received_signal_power(
                    receive[user, :, :d], equiv.blocks[user][user],
                    right[user], power, d)
                want = power / d * float(np.sum(singular[user] ** 2))
                assert got == pytest.approx(want, rel=1e-10)
            beams = one_shot_ia(cfg, equiv)
            for user in range(k):
                d = cfg.dof[user]
                sing = singular[user]
                overlap = right[user].conj().T @ beams.transmit[user]
                factors = np.abs(overlap) ** 2
                assert np.all(factors <= 1.0 + 1e-12)
                double_sum = power / d * float(np.sum(sing[:, None] ** 2 * factors))
                trace_form = received_signal_power(
                    beams.receive[user], equiv.blocks[user][user],
                    beams.transmit[user], power, d)
                assert double_sum == pytest.approx(trace_form, rel=1e-10)
    _scorecard(3, "received-power identities and unit degradation factors")


def test_04_reciprocal_nullity_law():
    checked = 0
    for trial in range(1000):
        k, antennas, dof_total = ALIGNMENT_CASES[trial % len(ALIGNMENT_CASES)]
        cfg = _case_config(k, antennas, dof_total)
        channel = generate_channel(cfg, np.random.SeedSequence((4044, trial)))
        equiv = equivalent_channel(channel, build_permutation(cfg))
        receive = design_receive_beamformers(equiv, cfg)
        state = reciprocal_state(equiv, receive, cfg)
        for user in range(k):
            paired = cfg.paired_widths[user]
            expected = paired - (dof_total - cfg.dof[user])
            assert state.nullities[user] == expected
            checked += 1
    _scorecard(4, f"reciprocal nullity law, {checked} receiver checks")


def _pairwise_counts(num_users, m, n, paired):
    """Independent properness count: walk stream pairs one at a time."""
    d_hat = dof_upper_bound([m] * num_users, [n] * num_users)
    d = Fraction(d_hat, num_users)
    equations = Fraction(0)
    for rx_user in range(num_users):
        for tx_user in range(num_users):
            if tx_user != rx_user:
                equations += d * d
    t = 2 * n if paired else n
    variables = sum((d * (m - d) + d * (t - d) for _ in range(num_users)),
                    Fraction(0))
    return equations, variables


def test_05_properness_table():
    for k in range(2, 9):
        for m in range(1, 6):
            for n in range(1, 6):
                for paired, fn in ((False, is_proper_generic),
                                   (True, is_proper_partial)):
                    try:
                        verdict = fn(k, m, n)
                    except ValueError:
                        continue
                    eqs, variables = _pairwise_counts(k, m, n, paired)
                    assert verdict.num_equations == eqs
                    assert verdict.num_variables == variables
                    assert verdict.proper == (eqs <= variables)
    for mn in range(1, 6):
        for k in range(2, 9):
            assert is_proper_generic(k, mn, mn).proper == (k <= 3)
            assert is_proper_partial(k, mn, mn).proper == (k <= 5)
    for m, n in ((2, 3), (3, 2)):
        for k in range(2, 9):
            assert is_proper_generic(k, m, n).proper == (k <= 4)
    _scorecard(5, "properness counts, exhaustive antenna grid")


def test_06_time_share_schedule():
    plan = time_share_schedule(5, 7)
    assert plan.remainder == 2
    assert plan.num_slots == 10
    assert plan.boosted_slots_per_user == 4
    table = np.array(plan.slot_table)
    assert table.shape == (10, 5)
    assert np.all(table.sum(axis=1) == 7)
    assert np.all(table.sum(axis=0) == 14)
    _scorecard(6, "time-share schedule for five users, seven streams")


def test_07_backhaul_loads():
    for k in range(2, 8):
        assert backhaul_rate(k, "ring", "partial") == k
        assert backhaul_rate(k, "line", "partial") == 2 * k
        assert backhaul_rate(k, "line", "full") == k * k
        assert backhaul_rate(k, "ring", "full") == k * (k - 1)
    _scorecard(7, "backhaul loads, two to seven stations")


def test_08_multiplexing_gain_slopes():
    start = time.perf_counter()
    high = run_experiment(ExperimentSpec(
        num_users=4, rx_antennas=3, tx_antennas=3, dof_total=6,
        schemes=("oneshot_partial",), snr_grid_db=(30.0, 40.0),
        trials=500, seed=17))
    slope_high = multiplexing_gain_estimate(high, "oneshot_partial", 30.0, 40.0)
    assert abs(slope_high - 6.0) <= 0.15 * 6.0

    low = run_experiment(ExperimentSpec(
        num_users=3, rx_antennas=2, tx_antennas=2, dof_total=3,
        schemes=("oneshot_partial",), snr_grid_db=(30.0, 40.0),
        trials=500, seed=17))
    slope_low = multiplexing_gain_estimate(low, "oneshot_partial", 30.0, 40.0)
    assert abs(slope_low - 3.0) <= 0.15 * 3.0

    # Without pairing, four cells are over-constrained; leakage survives
    # every iteration and the rate curve flattens instead of climbing.
    improper = run_experiment(ExperimentSpec(
        num_users=4, rx_antennas=2, tx_antennas=2, dof_total=4,
        schemes=("distributed_generic",), snr_grid_db=(30.0, 40.0),
        trials=500, seed=17, max_iters=150))
    slope_flat = multiplexing_gain_estimate(improper, "distributed_generic",
                                            30.0, 40.0)
    assert slope_flat < 0.5 * 4.0
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _scorecard(8, f"rate slopes {slope_high:.2f}/{slope_low:.2f}/{slope_flat:.2f} "
                  f"in {elapsed:.0f}s")


def _oneshot_curve(num_users, antennas, dof_total, grid, trials=500):
    result = run_experiment(ExperimentSpec(
        num_users=num_users, rx_antennas=antennas, tx_antennas=antennas,
        dof_total=dof_total, schemes=("oneshot_partial",),
        snr_grid_db=grid, trials=trials, seed=17))
    return {snr: result.point("oneshot_partial", snr).mean_sum_rate
            for snr in grid}


def test_09_stream_count_crossovers():
    # Same seed means the same channel draws, so the comparisons below
    # are paired and the rate differences are far less noisy than the
    # individual curves.
    grid = (5.0, 10.0, 25.0)
    three = _oneshot_curve(3, 2, 3, grid)
    four = _oneshot_curve(3, 2, 4, grid)
    assert four[5.0] < three[5.0]
    assert four[10.0] <= three[10.0]
    assert four[25.0] > three[25.0]

    grid = (3.0, 10.0, 18.0)
    curves = {d: _oneshot_curve(3, 3, d, grid) for d in (4, 5, 6)}
    assert curves[6][3.0] < curves[4][3.0]
    assert curves[6][10.0] > curves[4][10.0]
    assert curves[6][10.0] <= curves[5][10.0]
    assert curves[6][18.0] > curves[5][18.0]
    _scorecard(9, "extra streams pay off only above their crossover")


def test_10_low_snr_advantage_over_iterative():
    result = run_experiment(ExperimentSpec(
        num_users=3, rx_antennas=2, tx_antennas=2, dof_total=3,
        schemes=("oneshot_partial", "distributed_generic"),
        snr_grid_db=(10.0,), trials=500, seed=17))
    one = result.point("oneshot_partial", 10.0)
    iterative = result.point("distributed_generic", 10.0)
    gap = one.mean_sum_rate - iterative.mean_sum_rate
    noise = np.hypot(one.std_err, iterative.std_err)
    assert gap > 2.0 * noise
    _scorecard(10, f"one-shot ahead at 10 dB by {gap:.2f} rate units "
                   f"({gap / noise:.0f} standard errors)")


def test_11_five_cell_regime():
    cfg = NetworkConfig.symmetric(5, 2, 2, 1)
    equiv = equivalent_channel(generate_channel(cfg, 11011),
                               build_permutation(cfg))
    with pytest.raises(OneShotInfeasible):
        one_shot_ia(cfg, equiv)

    grid = (10.0, 15.0, 35.0)
    oneshot = run_experiment(ExperimentSpec(
        num_users=5, rx_antennas=2, tx_antennas=2, dof_total=4,
        schemes=("oneshot_partial",), snr_grid_db=grid, trials=200, seed=17))
    iterative = run_experiment(ExperimentSpec(
        num_users=5, rx_antennas=2, tx_antennas=2, dof_total=5,
        schemes=("distributed_partial",), snr_grid_db=grid, trials=200,
        seed=17, max_iters=6000))

    one_point = oneshot.point("oneshot_partial", 10.0)
    assert one_point.conv_frac == 1.0
    assert one_point.align_residual <= 1e-8
    assert iterative.point("distributed_partial", 10.0).conv_frac >= 0.95

    def diff(snr):
        return (iterative.point("distributed_partial", snr).mean_sum_rate
                - oneshot.point("oneshot_partial", snr).mean_sum_rate)

    assert diff(10.0) < 0.0
    assert diff(35.0) > 0.0
    # The lead changes hands somewhere between 15 and 35 dB.
    assert diff(15.0) <= 0.0
    _scorecard(11, f"five-cell trade-off, rate gaps {diff(10.0):+.2f}/"
                   f"{diff(15.0):+.2f}/{diff(35.0):+.2f} at 10/15/35 dB")


def test_12_deterministic_csv(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "num_users": 3,
        "rx_antennas": 2,
        "tx_antennas": 2,
        "dof_total": 3,
        "schemes": ["oneshot_partial", "distributed_generic"],
        "snr_grid_db": [5.0, 15.0],
        "trials": 8,
        "seed": 11,
    }))
    outputs = []
    for name, extra in (("a.csv", ()), ("b.csv", ()), ("c.csv", ("--workers", "2"))):
        out = tmp_path / name
        assert cli_main(["run", "--config", str(config),
                         "--out", str(out), *extra]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0] == outputs[2]
    _scorecard(12, "byte-identical CSV across reruns and worker counts")
