"""Monte-Carlo harness: rate formulas, aggregation, reproducibility.

Scalar configurations give closed-form rates to pin the covariance code
against, and the per-trial seeding is locked by recomputing single
trials by hand.
"""

import collections
import itertools
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError

from pcia import (
    ExperimentResult,
    ExperimentSpec,
    NetworkConfig,
    OneShotInfeasible,
    PointStats,
    RankDeficientDesired,
    alignment_residual,
    bd_zero_forcing,
    build_permutation,
    check_spec,
    equivalent_channel,
    generate_channel,
    iterate_distributed_ia,
    multiplexing_gain_estimate,
    one_shot_ia,
    run_experiment,
    sum_rate,
)
from pcia import evaluation, network
from pcia.evaluation import _run_single_trial

from conftest import cached_arrays, random_orthonormal, reference, zero_padded

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TIMESHARE = dict(num_users=5, rx_antennas=2, tx_antennas=2, dof_total=4,
                 schemes=("oneshot_partial", "bdzf_full"),
                 snr_grid_db=(0.0, 10.0, 20.0, 30.0, 40.0))


def _unit(x):
    return np.array([[x]], dtype=np.complex128)


def test_single_link_rate_is_log2_snr():
    h = 0.8 - 0.6j
    blocks = [[_unit(h)]]
    ones = [np.eye(1, dtype=np.complex128)]
    for p, sigma2 in ((4.0, 1.0), (10.0, 2.0)):
        per_user, total = sum_rate(blocks, ones, ones, [p], [1], sigma2)
        expected = math.log2(1.0 + p * abs(h) ** 2 / sigma2)
        assert per_user[0] == pytest.approx(expected, rel=1e-12)
        assert total == pytest.approx(expected, rel=1e-12)


def test_two_user_rates_match_scalar_sinr():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    blocks = [[_unit(h[i, j]) for j in range(2)] for i in range(2)]
    ones = [np.eye(1, dtype=np.complex128)] * 2
    powers = [3.0, 5.0]
    per_user, _ = sum_rate(blocks, ones, ones, powers, [1, 1], 1.0)
    for k in range(2):
        l = 1 - k
        sinr = powers[k] * abs(h[k, k]) ** 2 / (1.0 + powers[l] * abs(h[k, l]) ** 2)
        assert per_user[k] == pytest.approx(math.log2(1.0 + sinr), rel=1e-12)


def test_rates_invariant_under_filter_rotation():
    cfg = NetworkConfig.symmetric(3, 3, 3, 2)
    eq = equivalent_channel(generate_channel(cfg, 8), build_permutation(cfg))
    beams = one_shot_ia(cfg, eq)
    powers = [1.0] * cfg.num_users
    _, base = sum_rate(eq.blocks, beams.receive, beams.transmit, powers, cfg.dof, 1.0)
    rng = np.random.default_rng(12)
    rotations = [np.linalg.qr(rng.standard_normal((2, 2))
                              + 1j * rng.standard_normal((2, 2)))[0] for _ in range(3)]
    spun_rx = [u @ q for u, q in zip(beams.receive, rotations)]
    spun_tx = [w @ q for w, q in zip(beams.transmit, rotations)]
    _, rot_rx = sum_rate(eq.blocks, spun_rx, beams.transmit, powers, cfg.dof, 1.0)
    _, rot_tx = sum_rate(eq.blocks, beams.receive, spun_tx, powers, cfg.dof, 1.0)
    assert rot_rx == pytest.approx(base, rel=1e-10)
    assert rot_tx == pytest.approx(base, rel=1e-10)


def test_aligned_beams_earn_interference_free_rates(k3_config, k3_channel):
    equiv = equivalent_channel(k3_channel, build_permutation(k3_config))
    beams = one_shot_ia(k3_config, equiv)
    powers = [10.0] * 3
    _, with_cross = sum_rate(equiv.blocks, beams.receive, beams.transmit,
                             powers, k3_config.dof, 1.0)
    silenced = [[b if i == j else np.zeros_like(b) for j, b in enumerate(row)]
                for i, row in enumerate(equiv.blocks)]
    _, without = sum_rate(silenced, beams.receive, beams.transmit,
                          powers, k3_config.dof, 1.0)
    assert with_cross == pytest.approx(without, rel=1e-9)


def test_uneven_stream_rates_match_the_per_user_formula(rng):
    # stream counts 2, 1 and 0 pad to a common width inside the stacked
    # evaluation; every power level must still give the per-user log-det
    # formula
    cfg = NetworkConfig.symmetric(3, 2, 2, [2, 1, 0])
    blocks = equivalent_channel(generate_channel(cfg, 6), build_permutation(cfg)).blocks
    receive = [np.linalg.qr(rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d)))[0]
               for d in cfg.dof]
    transmit = [np.linalg.qr(rng.standard_normal((4, d)) + 1j * rng.standard_normal((4, d)))[0]
                for d in cfg.dof]
    for p in (1.0, 10.0, 1000.0):
        powers = [1.5 * p, 1.5 * p, 0.0]
        expected = reference.rates(blocks, receive, transmit, powers, cfg.dof, 1.0)
        per_user, total = sum_rate(blocks, receive, transmit, powers, cfg.dof, 1.0)
        np.testing.assert_allclose(per_user, expected, rtol=1e-10, atol=0)
        assert per_user[2] == 0.0
        assert total == pytest.approx(sum(expected), rel=1e-10)


@pytest.mark.parametrize("powers", [[1.0], [1.0] * 4])
def test_sum_rate_rejects_a_power_list_of_the_wrong_length(k3_config, k3_channel, powers):
    equiv = equivalent_channel(k3_channel, build_permutation(k3_config))
    beams = one_shot_ia(k3_config, equiv)
    with pytest.raises(ValueError, match="one power per user"):
        sum_rate(equiv.blocks, beams.receive, beams.transmit, powers, k3_config.dof, 1.0)


@pytest.mark.parametrize("noise, powers, fragment", [
    (-1.0, [1.0] * 3, "noise_power"),
    (math.nan, [1.0] * 3, "noise_power"),
    (math.inf, [1.0] * 3, "noise_power"),
    (1.0, [1.0, -1.0, 1.0], "powers"),
    (1.0, [1.0, math.nan, 1.0], "powers"),
    (1.0, [math.inf, 1.0, 1.0], "powers"),
    (True, [1.0] * 3, "noise_power"),
    ("1.0", [1.0] * 3, "noise_power"),
    (1.0, [True] * 3, "powers"),
    (1.0, [1.0, "1.0", 1.0], "powers"),
])
def test_sum_rate_rejects_negative_or_non_finite_powers(k3_config, k3_channel, noise, powers,
                                                        fragment):
    equiv = equivalent_channel(k3_channel, build_permutation(k3_config))
    beams = one_shot_ia(k3_config, equiv)
    with pytest.raises(ValueError, match=fragment):
        sum_rate(equiv.blocks, beams.receive, beams.transmit, powers, k3_config.dof, noise)


@pytest.mark.parametrize("score", ["sum_rate", "alignment_residual"])
@pytest.mark.parametrize("short", ["receive", "transmit"])
def test_filter_lists_that_miss_a_user_are_rejected(k3_config, k3_channel, score, short):
    # A two-filter list on a three-user grid used to fail inside numpy's
    # broadcasting, with a message that named no argument. A NaN in one
    # filter used to read as aligned: ``alignment_residual`` skipped the
    # NaN pairs and reported 1.2e-16. A filter with fewer rows than its
    # block used to be zero-padded and scored: on the K=3 2x2 draw of
    # seed 1 at power 100, the design scores 22.74 b/cu, and 15.41 with
    # user 0's receive filter cut to one row (residual 0.46).
    equiv = equivalent_channel(k3_channel, build_permutation(k3_config))
    beams = one_shot_ia(k3_config, equiv)
    full = {"receive": beams.receive, "transmit": beams.transmit}
    nan = [f * np.nan if k == 1 else f for k, f in enumerate(full[short])]
    cut = [f[:-1] if k == 1 else f for k, f in enumerate(full[short])]
    rows = full[short][1].shape[0]
    for bad, message in ((full[short][:2], f"one {short} filter per user: got 2 for 3"),
                         (nan, f"{short} filter 1 has a NaN or infinite entry"),
                         (cut, f"{short} filter 1 has {rows - 1} rows for a block of {rows}")):
        filters = dict(full, **{short: bad})
        args = (equiv.blocks, filters["receive"], filters["transmit"])
        with pytest.raises(ValueError, match=message):
            if score == "sum_rate":
                sum_rate(*args, [1.0] * 3, k3_config.dof, 1.0)
            else:
                alignment_residual(*args)


GRID_FAULTS = {
    "nan": r"channel block \(0, 1\) has a NaN or infinite entry",
    "tall": "inconsistent receive dimensions in row 0",
    "short": "channel blocks must form a square grid",
}


@pytest.mark.parametrize("score", ["sum_rate", "alignment_residual"])
@pytest.mark.parametrize("fault", GRID_FAULTS)
def test_malformed_list_grids_get_the_view_error(k3_config, k3_channel, score, fault):
    # A list grid is checked as the solvers check it. The unchecked
    # stacking used to score a NaN block as aligned (residual 1.2e-16),
    # zero-pad a 3x4 block into a 2-row row, and fail a non-square grid
    # inside numpy's reshape.
    equiv = equivalent_channel(k3_channel, build_permutation(k3_config))
    beams = one_shot_ia(k3_config, equiv)
    grid = [list(row) for row in equiv.blocks]
    if fault == "nan":
        grid[0][1] = np.full((2, 4), np.nan)
    elif fault == "tall":
        grid[0][1] = np.ones((3, 4))
    else:
        grid = [row[:2] for row in grid]
    with pytest.raises(ValueError, match=GRID_FAULTS[fault]):
        if score == "sum_rate":
            sum_rate(grid, beams.receive, beams.transmit, [1.0] * 3, k3_config.dof, 1.0)
        else:
            alignment_residual(grid, beams.receive, beams.transmit)


@pytest.mark.parametrize("score", ["sum_rate", "alignment_residual"])
def test_a_nan_score_raises_instead_of_being_returned(score):
    # Finite entries whose products overflow pass the view's checks. The
    # scorers used to return NaN rates and a NaN residual with only
    # RuntimeWarnings, which a caller outside this suite does not see.
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    blocks = [[b * 1e155 for b in row] for row in generate_channel(cfg, 0).blocks]
    filters = [np.eye(2, 1)] * 3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if score == "sum_rate":
            with pytest.raises(LinAlgError, match="sum rate nan is not a number"):
                sum_rate(blocks, filters, filters, [1.0] * 3, cfg.dof, 1.0)
        else:
            with pytest.raises(LinAlgError, match="alignment residual nan is not a number"):
                alignment_residual(blocks, filters, filters)


def test_stream_counts_that_do_not_fit_the_filter_lists_are_rejected(k3_config, k3_channel):
    equiv = equivalent_channel(k3_channel, build_permutation(k3_config))
    beams = one_shot_ia(k3_config, equiv)
    args = (equiv.blocks, beams.receive, beams.transmit)
    with pytest.raises(ValueError, match="dof needs one entry per user: got 2 for 3"):
        sum_rate(*args, [1.0] * 2, [1, 1], 1.0)
    # One-column filters scored as two streams used to split user 0's
    # power over a stream with no filter column, a silently wrong rate.
    with pytest.raises(ValueError, match=r"receive filter 0 has 1 columns for dof\[0\] = 2"):
        sum_rate(*args, [1.0] * 3, [2, 1, 1], 1.0)
    wide = [np.hstack([w, np.zeros_like(w)]) if k == 1 else w
            for k, w in enumerate(beams.transmit)]
    with pytest.raises(ValueError, match=r"transmit filter 1 has 2 columns for dof\[1\] = 1"):
        sum_rate(equiv.blocks, beams.receive, wide, [1.0] * 3, k3_config.dof, 1.0)


def test_a_zero_width_filter_scores_as_silent_at_any_height():
    # A silent user's zero-width filter carries nothing, so its rows are
    # not read. One with more rows than the grid's tallest block used to
    # fail inside the zero padding, with a broadcast error that named no
    # argument: on the K=3 2x2 draw of seed 1 at dof (1, 1, 0), a (5, 0)
    # receive filter for user 2.
    cfg = NetworkConfig.symmetric(3, 2, 2, (1, 1, 0))
    equiv = equivalent_channel(generate_channel(cfg, 1), build_permutation(cfg))
    beams = one_shot_ia(cfg, equiv)
    args = (equiv.blocks, beams.receive, beams.transmit)
    rates, residual = sum_rate(*args, [10.0] * 3, cfg.dof, 1.0), alignment_residual(*args)
    assert rates[1] == pytest.approx(9.4539, abs=1e-4)
    for side, rows in itertools.product(("receive", "transmit"), (0, 2, 5)):
        filters = {"receive": list(beams.receive), "transmit": list(beams.transmit)}
        filters[side][2] = np.zeros((rows, 0))
        args = (equiv.blocks, filters["receive"], filters["transmit"])
        assert sum_rate(*args, [10.0] * 3, cfg.dof, 1.0) == rates
        assert alignment_residual(*args) == residual


def _seed_one_design():
    # The K=3 2x2 draw of seed 1 and its one-shot design.
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    equiv = equivalent_channel(generate_channel(cfg, 1), build_permutation(cfg))
    return cfg, equiv, one_shot_ia(cfg, equiv)


def test_filter_stacks_that_do_not_fit_the_grid_are_rejected():
    # Filter stacks used to be taken unchecked. This design scores 12.996
    # b/cu at power 10, but user 0's receive filter alone was broadcast
    # over every user (residual 0.456), one power and one stream count
    # scored user 0's 4.198 as the total, and two streams on a one-column
    # stack gave 12.073. A transmitter axis of two on three users failed
    # inside numpy's reshape.
    cfg, equiv, beams = _seed_one_design()
    u, v = beams.receive_stack, beams.transmit_stack
    assert sum_rate(equiv, u, v, [10.0] * 3, cfg.dof, 1.0)[1] == pytest.approx(12.996, abs=1e-3)
    fit = r"filter stacks \(3, 2, 1\) and \(3, 4, 1\) do not fit a \(3, 3, 2, 4\) grid"
    with pytest.raises(ValueError, match=r"^filter stacks \(1, 2, 1\) and \(3, 4, 1\) do not "
                                         r"fit a \(3, 3, 2, 4\) grid$"):
        alignment_residual(equiv, u[:1], v)
    with pytest.raises(ValueError, match=fit + r" at dof \[1\]$"):
        sum_rate(equiv, u, v, [10.0], [1], 1.0)
    with pytest.raises(ValueError, match=fit + r" at dof \[2, 1, 1\]$"):
        sum_rate(equiv, u, v, [10.0] * 3, [2, 1, 1], 1.0)
    with pytest.raises(ValueError, match=r"do not fit a \(3, 2, 2, 4\) grid$"):
        alignment_residual(equiv._stacked[:, :2], u, v)
    with pytest.raises(ValueError, match=r"do not fit a \(3, 2, 4\) grid$"):
        alignment_residual(equiv._stacked[0], u, v)


# Each grid form with each filter form on either side; the scorers take
# a view or a stacked grid with two filter stacks, or a list grid with
# two per-user lists, and refuse every other pairing. The receive lists
# are one row short of their two-row blocks: on the stacked grid they
# used to be zero-padded unchecked and score 4.18 b/cu at power 10,
# where the same call on the view named the short filter.
SCORER_FORMS = [(grid, receive, transmit) for grid in ("list", "view", "stacked")
                for receive in ("lists", "stacks") for transmit in ("lists", "stacks")]
ACCEPTED_FORMS = {("list", "lists", "lists"), ("view", "stacks", "stacks"),
                  ("stacked", "stacks", "stacks")}


@pytest.mark.parametrize("score", ["sum_rate", "alignment_residual"])
@pytest.mark.parametrize("form", [f for f in SCORER_FORMS if f not in ACCEPTED_FORMS],
                         ids="-".join)
def test_a_mixed_scorer_form_is_refused(score, form):
    cfg, equiv, beams = _seed_one_design()
    grid = {"list": equiv.blocks, "view": equiv, "stacked": equiv._stacked}[form[0]]
    receive = {"lists": [u[:1] for u in beams.receive], "stacks": beams.receive_stack}[form[1]]
    transmit = {"lists": beams.transmit, "stacks": beams.transmit_stack}[form[2]]
    names = [type(a).__name__ for a in (grid, receive, transmit)]
    message = ("^the scorers take a channel view or stacked grid with filter stacks, or a list "
               f"grid with per-user filter lists; got {names[0]} grid, {names[1]} receive and "
               f"{names[2]} transmit filters$")
    with pytest.raises(TypeError, match=message):
        if score == "sum_rate":
            sum_rate(grid, receive, transmit, [10.0] * 3, cfg.dof, 1.0)
        else:
            alignment_residual(grid, receive, transmit)


def test_alignment_residual_oracle_and_scale_invariance(rng):
    blocks = [[rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
               for _ in range(2)] for _ in range(2)]
    receive = [np.linalg.qr(rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1)))[0]
               for _ in range(2)]
    transmit = [np.linalg.qr(rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)))[0]
                for _ in range(2)]
    got = alignment_residual(blocks, receive, transmit)
    assert got == pytest.approx(reference.residual(blocks, receive, transmit), rel=1e-12)
    scaled = [[7.0 * b for b in row] for row in blocks]
    assert alignment_residual(scaled, receive, transmit) == pytest.approx(got, rel=1e-12)
    # a silent user's pairs are skipped: one cross link is left
    empty = [np.zeros((2, 0), complex), np.zeros((3, 0), complex)]
    for filters in ((receive, [transmit[0], empty[1]]), ([receive[0], empty[0]], transmit)):
        assert alignment_residual(blocks, *filters) == pytest.approx(
            reference.residual(blocks, *filters), rel=1e-12)


QUICK = dict(num_users=3, rx_antennas=2, tx_antennas=2, dof_total=3,
             snr_grid_db=(0.0, 10.0, 20.0), trials=3, seed=7, max_iters=500)


def test_experiment_is_deterministic_and_snr_monotone():
    a = run_experiment(ExperimentSpec(**QUICK))
    b = run_experiment(ExperimentSpec(**QUICK))
    assert a.points.keys() == b.points.keys()
    for key in a.points:
        assert a.points[key] == b.points[key]
    for scheme in a.spec.schemes:
        rates = [a.point(scheme, s).mean_sum_rate for s in a.spec.snr_grid_db]
        assert rates == sorted(rates)
        assert all(r > 0 for r in rates)


def test_worker_count_does_not_change_results():
    spec = ExperimentSpec(num_users=3, rx_antennas=2, tx_antennas=2, dof_total=3,
                          schemes=("oneshot_partial", "bdzf_full"),
                          snr_grid_db=(10.0,), trials=4, seed=1)
    serial = run_experiment(spec, workers=1)
    pooled = run_experiment(spec, workers=2)
    for key in serial.points:
        assert serial.points[key] == pooled.points[key]


def test_worker_counts_follow_the_count_rule():
    # 2.0 used to raise TypeError inside the process pool, True to run
    # serially, and "2" or None to raise TypeError on the comparison.
    spec = ExperimentSpec(num_users=3, rx_antennas=2, tx_antennas=2, dof_total=3,
                          schemes=("oneshot_partial", "bdzf_full"),
                          snr_grid_db=(10.0,), trials=2, seed=1)
    assert (run_experiment(spec, workers=2.0).to_records()
            == run_experiment(spec, workers=2).to_records())
    for workers in (True, 1.5, "2", None, 0):
        with pytest.raises(ValueError, match="^workers must"):
            run_experiment(spec, workers=workers)


def test_mean_and_std_err_recompute_from_single_trials():
    spec = ExperimentSpec(num_users=3, rx_antennas=2, tx_antennas=2, dof_total=3,
                          schemes=("oneshot_partial",), snr_grid_db=(10.0,),
                          trials=2, seed=42)
    result = run_experiment(spec)
    per_trial = [_run_single_trial(spec, t)["oneshot_partial"]["rates"][0]
                 for t in range(2)]
    stats = result.point("oneshot_partial", 10.0)
    assert stats.mean_sum_rate == pytest.approx(np.mean(per_trial), rel=1e-12)
    assert stats.std_err == pytest.approx(
        np.std(per_trial, ddof=1) / math.sqrt(2), rel=1e-12)


def test_single_trial_reports_zero_std_err():
    spec = ExperimentSpec(num_users=3, rx_antennas=2, tx_antennas=2, dof_total=3,
                          schemes=("bdzf_full",), snr_grid_db=(0.0,), trials=1)
    result = run_experiment(spec)
    assert result.point("bdzf_full", 0.0).std_err == 0.0


def test_infeasible_scheme_counts_failures():
    # five cells cannot take five streams in a single pass, ever
    spec = ExperimentSpec(num_users=5, rx_antennas=2, tx_antennas=2, dof_total=5,
                          schemes=("oneshot_partial",), snr_grid_db=(10.0,), trials=2)
    stats = run_experiment(spec).point("oneshot_partial", 10.0)
    assert stats.mean_sum_rate == 0.0
    assert stats.conv_frac == 0.0
    assert stats.mean_dof == 0.0
    assert math.isnan(stats.align_residual)


def test_time_sharing_keeps_average_streams():
    spec = ExperimentSpec(num_users=3, rx_antennas=2, tx_antennas=2, dof_total=4,
                          schemes=("oneshot_partial",), snr_grid_db=(10.0,), trials=2)
    assert spec.slot_dof() == ((2, 1, 1), (1, 2, 1), (1, 1, 2))
    stats = run_experiment(spec).point("oneshot_partial", 10.0)
    assert stats.mean_dof == pytest.approx(4.0)
    assert stats.conv_frac == 1.0
    assert stats.align_residual < 1e-10


def test_multiplexing_gain_recovers_synthetic_slope():
    spec = ExperimentSpec(num_users=3, rx_antennas=2, tx_antennas=2, dof_total=3,
                          schemes=("oneshot_partial",), snr_grid_db=(10.0, 20.0))
    gain = 4.0
    points = {}
    for snr in spec.snr_grid_db:
        rate = gain * math.log2(10.0 ** (snr / 10.0))
        points[("oneshot_partial", snr)] = PointStats(rate, 0.0, 0.0, 1.0, 4.0)
    result = ExperimentResult(spec=spec, points=points)
    est = multiplexing_gain_estimate(result, "oneshot_partial", 10.0, 20.0)
    assert est == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ValueError, match="exceed"):
        multiplexing_gain_estimate(result, "oneshot_partial", 20.0, 10.0)
    with pytest.raises(ValueError, match="no result"):
        result.point("oneshot_partial", 15.0)


def test_records_follow_declared_order():
    spec = ExperimentSpec(num_users=3, rx_antennas=2, tx_antennas=2, dof_total=3,
                          schemes=("bdzf_full", "oneshot_partial"),
                          snr_grid_db=(0.0, 10.0), trials=1)
    records = run_experiment(spec).to_records()
    assert [(r["scheme"], r["snr_db"]) for r in records] == [
        ("bdzf_full", 0.0), ("bdzf_full", 10.0),
        ("oneshot_partial", 0.0), ("oneshot_partial", 10.0),
    ]


def test_spec_validation():
    good = dict(num_users=3, rx_antennas=2, tx_antennas=2, dof_total=3)
    with pytest.raises(ValueError, match="unknown scheme"):
        ExperimentSpec(**good, schemes=("zf",))
    with pytest.raises(ValueError, match="snr"):
        ExperimentSpec(**good, snr_grid_db=())
    with pytest.raises(ValueError, match="trials"):
        ExperimentSpec(**good, trials=0)
    with pytest.raises(ValueError, match="num_users must be at least 2"):
        ExperimentSpec(num_users=1, rx_antennas=2, tx_antennas=2, dof_total=1)
    with pytest.raises(ValueError, match="dof_total"):
        ExperimentSpec(num_users=3, rx_antennas=2, tx_antennas=2, dof_total=0)
    with pytest.raises(ValueError, match="seed"):
        ExperimentSpec(**good, seed=-1)
    with pytest.raises(ValueError, match="workers"):
        run_experiment(ExperimentSpec(**good, trials=1), workers=0)
    # non-finite values would otherwise write NaN rows, zero every
    # one-shot slot or keep the iterative solver from converging
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="snr_grid_db"):
            ExperimentSpec(**good, snr_grid_db=(bad, 10.0))
        for name in ("leakage_tol", "rank_tol"):
            with pytest.raises(ValueError, match=name):
                ExperimentSpec(**good, **{name: bad})
    # counts are never truncated, and an SNR point is scored once
    for name, value in (("num_users", 3.9), ("rx_antennas", 2.5), ("tx_antennas", (2, 2, 1.5)),
                        ("dof_total", 3.7), ("trials", 2.9), ("seed", 1.5),
                        ("max_iters", 10.8)):
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            ExperimentSpec(**{**good, name: value})
    whole = ExperimentSpec(num_users=3.0, rx_antennas=2.0, tx_antennas=(2, 2.0, 2),
                           dof_total=3.0, trials=2.0, seed=1.0, max_iters=10.0)
    assert (whole.num_users, whole.dof_total, whole.trials, whole.seed) == (3, 3, 2, 1)
    assert whole.rx_antennas == whole.tx_antennas == (2, 2, 2)
    assert type(whole.max_iters) is int
    for grid in ((10.0, 10.0), (0.0, 20.0, -0.0)):
        with pytest.raises(ValueError, match="snr_grid_db must not repeat a point"):
            ExperimentSpec(**good, snr_grid_db=grid)
    # a string is not split into digits, and 10**(snr/10) must not overflow
    for grid in ("10", b"10", (4000.0,), (10.0, 3090.0)):
        with pytest.raises(ValueError, match="snr_grid_db"):
            ExperimentSpec(**good, snr_grid_db=grid)
    # a bare scheme name is not split into characters
    for schemes in ("bdzf_full", b"bdzf_full"):
        with pytest.raises(ValueError, match="schemes must be a list of scheme names, got "):
            ExperimentSpec(**good, schemes=schemes)
    # a scheme is run and written once
    for schemes in (("bdzf_full", "bdzf_full"),
                    ("oneshot_partial", "bdzf_full", "oneshot_partial")):
        with pytest.raises(ValueError, match="schemes must not repeat a scheme"):
            ExperimentSpec(**good, schemes=schemes)


@pytest.mark.parametrize("name, value, message", [
    ("trials", True, "trials must be a whole number, got True"),
    ("num_users", np.True_, "num_users must be a whole number, got np.True_"),
    ("seed", "3", "seed must be a whole number, got '3'"),
    ("tx_antennas", (2, True, 2), "tx_antennas must be a whole number, got True"),
    ("rank_tol", "1e-9", "rank_tol must be a number, got '1e-9'"),
    ("leakage_tol", True, "leakage_tol must be a number, got True"),
    ("snr_grid_db", (0.0, True), "snr_grid_db entry must be a number, got True"),
    ("snr_grid_db", ("10", 20.0), "snr_grid_db entry must be a number, got '10'"),
], ids=["trials-true", "num_users-numpy-true", "seed-str", "tx_antennas-true",
        "rank_tol-str", "leakage_tol-true", "snr-true", "snr-str"])
def test_spec_refuses_bools_and_strings_as_numbers(name, value, message):
    # int() and float() read True as 1 and "1e-9" as a number; numpy
    # numbers still pass.
    good = dict(num_users=3, rx_antennas=2, tx_antennas=2, dof_total=3)
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentSpec(**{**good, name: value})
    spec = ExperimentSpec(num_users=np.int64(3), rx_antennas=np.int32(2), tx_antennas=2,
                          dof_total=3, trials=np.int64(2), rank_tol=np.float32(1e-9),
                          snr_grid_db=(np.float64(10.0), np.int64(20)))
    assert (spec.num_users, spec.trials, spec.snr_grid_db) == (3, 2, (10.0, 20.0))


def test_infeasible_iterative_slot_counts_as_failure():
    # two streams per user fit a paired stack of two antennas but not the
    # single antenna of the serving station alone
    spec = ExperimentSpec(num_users=3, rx_antennas=2, tx_antennas=1, dof_total=6,
                          schemes=("distributed_generic",), snr_grid_db=(10.0,), trials=2)
    stats = run_experiment(spec).point("distributed_generic", 10.0)
    assert stats.mean_sum_rate == 0.0
    assert stats.conv_frac == 0.0


def test_untyped_solver_errors_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(evaluation, "iterate_distributed_ia", broken)
    spec = ExperimentSpec(num_users=3, rx_antennas=2, tx_antennas=2, dof_total=3,
                          schemes=("distributed_partial",), snr_grid_db=(10.0,), trials=1)
    with pytest.raises(ValueError, match="broadcast"):
        run_experiment(spec)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_alignment_residual_on_a_ragged_grid_matches_the_pair_loop(seed):
    # stations of 2, 3 and 2 antennas with user 2 silent: blocks are not
    # square and pad to a common shape inside the stacked evaluation
    rng = np.random.default_rng(seed)
    cfg = NetworkConfig(rx_antennas=(2, 3, 2), tx_antennas=(2, 3, 2), dof=(1, 2, 0))
    channel = generate_channel(cfg, seed)
    blocks = equivalent_channel(channel, build_permutation(cfg)).blocks
    receive = [random_orthonormal(rng, m, d) for m, d in zip(cfg.rx_antennas, cfg.dof)]
    transmit = [random_orthonormal(rng, w, d) for w, d in zip(cfg.paired_widths, cfg.dof)]
    expected = reference.residual(blocks, receive, transmit)
    assert expected > 0.0
    assert alignment_residual(blocks, receive, transmit) == pytest.approx(expected, rel=1e-12)
    # full coordination: each receiver sees one row block from every
    # transmitter, with precoders on the whole antenna stack
    rows = [[channel.row_block(k)] * 3 for k in range(3)]
    wide = [random_orthonormal(rng, 7, d) for d in cfg.dof]
    expected = reference.residual(rows, receive, wide)
    assert alignment_residual(rows, receive, wide) == pytest.approx(expected, rel=1e-12)
    # a zero-norm cross block is skipped, not divided by
    zeroed = [list(row) for row in blocks]
    zeroed[0][1] = np.zeros_like(blocks[0][1])
    expected = reference.residual(zeroed, receive, transmit)
    assert alignment_residual(zeroed, receive, transmit) == pytest.approx(expected, rel=1e-12)


def _feasibility_oracle(spec):
    """Closed-form verdict: which rule, if any, the spec breaks first."""
    k_users, rx, tx = spec.num_users, spec.rx_antennas, spec.tx_antennas
    paired = [tx[k] + tx[(k - 1) % k_users] for k in range(k_users)]
    slots = spec.slot_dof()
    users = range(k_users)
    if any(row[k] > min(rx[k], paired[k]) for row in slots for k in users):
        return "slot"
    for scheme in spec.schemes:
        if scheme == "oneshot_partial" and any(
                spec.dof_total > min(paired[k] for k in users if row[k] > 0)
                for row in slots):
            return "oneshot"
        if scheme == "distributed_generic" and any(
                row[k] > min(rx[k], tx[k]) for row in slots for k in users):
            return "generic"
        if scheme == "bdzf_full" and any(
                sum(tx) - (sum(rx) - rx[k]) < 1 for k in users):
            return "bd"
    return None


FRAGMENTS = {
    "slot": "in one slot",
    "oneshot": "smallest paired antenna width is",
    "generic": "without pairing",
    "bd": "pooled antennas",
}


def _spec_grid(schemes):
    for k in (2, 3, 4):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                for d in range(1, k * min(m, 2 * n) + 2):
                    yield ExperimentSpec(k, m, n, d, schemes, trials=1)
    for d in range(1, 9):
        yield ExperimentSpec(3, (2, 3, 1), (1, 3, 2), d, schemes, trials=1)


@pytest.mark.parametrize("schemes", [(s,) for s in evaluation.SCHEMES]
                         + [evaluation.SCHEMES[::-1]], ids="+".join)
def test_check_spec_matches_the_closed_form_rules(schemes):
    verdicts = set()
    for spec in _spec_grid(schemes):
        expected = _feasibility_oracle(spec)
        reason = check_spec(spec)
        label = (spec.rx_antennas, spec.tx_antennas, spec.dof_total, reason)
        if expected is None:
            assert reason is None, label
        else:
            assert reason is not None and FRAGMENTS[expected] in reason, label
        verdicts.add(expected)
    # every rule the requested schemes can break is exercised by the grid
    assert verdicts >= {None, "slot"}
    assert len(verdicts) == 2 + len({"oneshot_partial", "distributed_generic",
                                     "bdzf_full"} & set(schemes))


def test_check_spec_asks_the_one_shot_solver(monkeypatch):
    spec = ExperimentSpec(3, 2, 2, 3, ("oneshot_partial",), trials=1)
    assert check_spec(spec) is None

    def raising(error):
        def solver(*args, **kwargs):
            raise error
        return solver

    # a rank-deficient direct link is a property of one draw, not of the
    # geometry, so it does not make the spec infeasible
    monkeypatch.setattr(evaluation, "one_shot_ia",
                        raising(RankDeficientDesired("collapsed", user=0)))
    assert check_spec(spec) is None
    monkeypatch.setattr(evaluation, "one_shot_ia",
                        raising(OneShotInfeasible("user 1 has no room")))
    assert check_spec(spec) == "user 1 has no room"


def _canonical(value):
    """A comparable stand-in for a solver argument: grids and arrays by value."""
    if hasattr(value, "blocks"):
        value = value.blocks
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, np.random.SeedSequence):
        return value.entropy, value.spawn_key
    return value


def test_check_spec_makes_the_sweeps_solver_calls(monkeypatch):
    # check_spec and the sweep share one per-slot design step: on trial
    # 0 they call every solver with the same arguments, except that the
    # check stops the iterative solvers after one iteration.
    calls = []

    def recording(name):
        solver = getattr(evaluation, name)

        def record(*args, **kwargs):
            calls.append((name, _canonical(args), {k: _canonical(v) for k, v in kwargs.items()}))
            return solver(*args, **kwargs)
        return record

    for name in ("one_shot_ia", "iterate_distributed_ia", "bd_zero_forcing"):
        monkeypatch.setattr(evaluation, name, recording(name))
    spec = ExperimentSpec(3, 2, 2, 4, evaluation.SCHEMES, snr_grid_db=(10.0,),
                          trials=1, seed=4, max_iters=7)
    assert len(spec.slot_dof()) == 3
    assert check_spec(spec) is None
    checked = calls[:]
    calls.clear()
    _run_single_trial(spec, 0)
    swept = calls
    assert len(swept) == 3 * 3 + 1
    assert [c[2].pop("max_iters", None) for c in checked] == [None] * 3 + [1] * 6 + [None]
    assert [c[2].pop("max_iters", None) for c in swept] == [None] * 3 + [7] * 6 + [None]
    assert checked == swept


RAGGED_SPEC = dict(num_users=3, rx_antennas=(2, 3, 2), tx_antennas=(2, 3, 2), dof_total=4,
                   schemes=("oneshot_partial", "bdzf_full", "distributed_partial"),
                   snr_grid_db=(0.0, 20.0, 40.0), trials=4, seed=11)


def _list_grid_rates(spec):
    # The sweep's mean sum rates rebuilt by hand: every design re-run as
    # the harness runs it, every rate scored by ``sum_rate`` on per-user
    # list grids, with the harness's power pooling.
    users = spec.num_users
    configs = [spec.slot_config(row) for row in spec.slot_dof()]
    totals = {s: np.zeros(len(spec.snr_grid_db)) for s in spec.schemes}
    for t in range(spec.trials):
        channel = generate_channel(configs[0], np.random.SeedSequence((spec.seed, t)))
        equiv = equivalent_channel(channel, build_permutation(configs[0]))
        for scheme in spec.schemes:
            if scheme == "bdzf_full":
                sol = bd_zero_forcing(channel, rank_tol=spec.rank_tol)
                rows = [[channel.row_block(k)] * users for k in range(users)]
                scale = [users * d / sol.dof_total for d in sol.dof]
                slots = [(rows, sol.receive, sol.transmit, sol.dof, scale)]
            else:
                slots = []
                for slot, cfg in enumerate(configs):
                    if scheme == "oneshot_partial":
                        beams = one_shot_ia(cfg, equiv, rank_tol=spec.rank_tol)
                    else:
                        beams = iterate_distributed_ia(
                            equiv, cfg.dof, max_iters=spec.max_iters,
                            leakage_tol=spec.leakage_tol,
                            seed=np.random.SeedSequence((spec.seed, t, slot)))
                    active = sum(d > 0 for d in cfg.dof)
                    scale = [users / active if d > 0 else 0.0 for d in cfg.dof]
                    slots.append((equiv.blocks, beams.receive, beams.transmit, cfg.dof, scale))
            for i, snr in enumerate(spec.snr_grid_db):
                p = 10.0 ** (snr / 10.0)
                totals[scheme][i] += np.mean([
                    sum_rate(grid, u, v, [p * s for s in scale], dof, 1.0)[1]
                    for grid, u, v, dof, scale in slots])
    return {s: total / spec.trials for s, total in totals.items()}


def test_ragged_sweep_matches_list_grid_scoring():
    # Stations of 2, 3 and 2 antennas: the paired widths (4, 5, 5) and
    # the zero-forcing row blocks (2, 3 and 2 rows by 7) are all padded
    # inside the stacked sweep.
    spec = ExperimentSpec(**RAGGED_SPEC)
    result = run_experiment(spec, workers=1)
    expected = _list_grid_rates(spec)
    for scheme in spec.schemes:
        assert result.point(scheme, 0.0).conv_frac == 1.0
        got = [result.point(scheme, snr).mean_sum_rate for snr in spec.snr_grid_db]
        np.testing.assert_allclose(got, expected[scheme], rtol=1e-12, atol=0)


def _padded_filters(filters, rows, width):
    # Zero-padded (K, rows, width) filter stack, built without the package.
    out = np.zeros((len(filters), rows, width), dtype=np.complex128)
    for k, f in enumerate(filters):
        out[k, :f.shape[0], :f.shape[1]] = f
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_stacked_grid_scores_like_the_list_grid(seed):
    # Stations of 2, 3 and 2 antennas, all active or with user 2 silent,
    # on the paired grid and on the zero-forcing row grid: the stacked
    # grid, with zero-padded filter stacks as wide as the widest filter or
    # wider, scores as the list grid with per-user filter lists does.
    rng = np.random.default_rng(seed)
    for dof in ((1, 2, 1), (1, 2, 0)):
        cfg = NetworkConfig(rx_antennas=(2, 3, 2), tx_antennas=(2, 3, 2), dof=dof)
        channel = generate_channel(cfg, seed)
        paired = equivalent_channel(channel, build_permutation(cfg)).blocks
        rows = [[channel.row_block(k)] * 3 for k in range(3)]
        receive = [random_orthonormal(rng, m, d) for m, d in zip(cfg.rx_antennas, cfg.dof)]
        for grid, widths in ((paired, cfg.paired_widths), (rows, (7, 7, 7))):
            transmit = [random_orthonormal(rng, w, d) for w, d in zip(widths, cfg.dof)]
            stacked = zero_padded(grid)
            assert stacked.shape[2] == 3
            filters = [(_padded_filters(receive, stacked.shape[2], width),
                        _padded_filters(transmit, stacked.shape[3], width))
                       for width in (2, 3)]
            listed_residual = alignment_residual(grid, receive, transmit)
            for p in (1.0, 100.0, 1e4):
                powers = [p, 2.0 * p, 0.5 * p]
                listed = sum_rate(grid, receive, transmit, powers, cfg.dof, 1.0)
                for u, v in filters:
                    padded = sum_rate(stacked, u, v, powers, cfg.dof, 1.0)
                    np.testing.assert_allclose(padded[0], listed[0], rtol=1e-12, atol=0)
                    assert padded[1] == pytest.approx(listed[1], rel=1e-12)
            for u, v in filters:
                assert alignment_residual(stacked, u, v) == pytest.approx(
                    listed_residual, rel=1e-12)


DESIGN_LAYOUTS = {
    "uniform": NetworkConfig.symmetric(3, 2, 2, 1),
    "timeshare-silent": NetworkConfig.symmetric(5, 2, 2, [1, 1, 1, 1, 0]),
    "stations-232": NetworkConfig((2, 3, 2), (2, 3, 2), (1, 2, 1)),
}


def _designs(cfg, seed):
    # Each solver's design with the stacked grid the harness scores it on
    # and the list grid its per-user views act on.
    channel = generate_channel(cfg, seed)
    equiv = equivalent_channel(channel, build_permutation(cfg))
    users = cfg.num_users
    rows = np.array([np.pad(channel.row_block(k), ((0, max(cfg.rx_antennas) - m), (0, 0)))
                     for k, m in enumerate(cfg.rx_antennas)])[:, None]
    iterative = iterate_distributed_ia(equiv, cfg.dof, max_iters=20, seed=seed)
    return {
        "oneshot": (one_shot_ia(cfg, equiv), equiv._stacked, equiv.blocks),
        "iterative": (iterative, equiv._stacked, equiv.blocks),
        "bd": (bd_zero_forcing(channel, dof=cfg.dof), rows,
               [[channel.row_block(k)] * users for k in range(users)]),
    }


@pytest.mark.parametrize("layout", DESIGN_LAYOUTS)
@pytest.mark.parametrize("seed", [0, 1])
def test_a_designs_stacks_score_as_its_per_user_views(layout, seed):
    # Every solver holds each side of its design once, as a read-only,
    # zero-padded stack; the per-user filters are read-only corner views,
    # and the scorers give the same bits on the stacks as on the views.
    cfg = DESIGN_LAYOUTS[layout]
    for solver, (beams, stacked, listed) in _designs(cfg, seed).items():
        assert beams.dof == cfg.dof, solver
        with pytest.raises(AttributeError):
            beams.dof = ()
        sides = ((beams.receive_stack, beams.receive, beams.rx_sizes),
                 (beams.transmit_stack, beams.transmit, beams.tx_sizes))
        for stack, views, sizes in sides:
            assert stack.shape[0] == cfg.num_users and stack.shape[2] == max(cfg.dof)
            assert not stack.flags.writeable
            outside = stack.copy()
            for k, (view, rows, d) in enumerate(zip(views, sizes, cfg.dof, strict=True)):
                assert view.shape == (rows, d)
                assert not view.flags.writeable and view.base is stack
                outside[k, :rows, :d] = 0.0
            assert not outside.any(), f"{solver}: nonzero padding"
        for p in (1.0, 100.0):
            powers = [p, 2.0 * p, 0.5 * p, p, p][:cfg.num_users]
            assert (sum_rate(stacked, beams.receive_stack, beams.transmit_stack, powers,
                             beams.dof, 1.0)
                    == sum_rate(listed, beams.receive, beams.transmit, powers, beams.dof, 1.0))
        assert (alignment_residual(stacked, beams.receive_stack, beams.transmit_stack)
                == alignment_residual(listed, beams.receive, beams.transmit))


@pytest.mark.parametrize("layout", DESIGN_LAYOUTS)
def test_a_view_scores_as_its_stacked_grid(layout):
    # The harness scores each design on its channel view. One-shot,
    # iterative and generic designs score the same bits as on the view's
    # stacked grid.
    cfg = DESIGN_LAYOUTS[layout]
    channel = generate_channel(cfg, 3)
    equiv = equivalent_channel(channel, build_permutation(cfg))
    designs = [(equiv, one_shot_ia(cfg, equiv))] + [
        (view, iterate_distributed_ia(view, cfg.dof, max_iters=20, seed=3))
        for view in (equiv, channel)]
    for view, beams in designs:
        u, v = beams.receive_stack, beams.transmit_stack
        assert alignment_residual(view, u, v) == alignment_residual(view._stacked, u, v)
        assert (sum_rate(view, u, v, [10.0] * cfg.num_users, beams.dof, 1.0)
                == sum_rate(view._stacked, u, v, [10.0] * cfg.num_users, beams.dof, 1.0))


def test_a_list_grid_is_read_through_one_view_per_scorer_call(monkeypatch, k3_config,
                                                               k3_channel):
    built = []
    init = network._BlockGrid.__init__

    def counted(self, blocks):
        built.append(self)
        init(self, blocks)

    equiv = equivalent_channel(k3_channel, build_permutation(k3_config))
    beams = one_shot_ia(k3_config, equiv)
    blocks = [list(row) for row in equiv.blocks]
    monkeypatch.setattr(network._BlockGrid, "__init__", counted)
    sum_rate(blocks, beams.receive, beams.transmit, [1.0] * 3, beams.dof, 1.0)
    assert len(built) == 1
    alignment_residual(blocks, beams.receive, beams.transmit)
    assert len(built) == 2
    # A view or a stacked grid is read as it is.
    alignment_residual(equiv, beams.receive_stack, beams.transmit_stack)
    sum_rate(equiv._stacked, beams.receive_stack, beams.transmit_stack, [1.0] * 3, beams.dof,
             1.0)
    assert len(built) == 2


def test_a_trial_writes_into_no_filter_and_no_cache(monkeypatch):
    # The one-shot receive filters are read-only views of the draw's
    # cached SVD, so a write into them anywhere in the sweep would raise;
    # every cache of the draw reads the same after a trial of every scheme.
    spec = ExperimentSpec(num_users=3, rx_antennas=2, tx_antennas=2, dof_total=4,
                          snr_grid_db=(0.0, 30.0), max_iters=50, trials=1, seed=2)
    plain = _run_single_trial(spec, 0)
    channel, equiv = evaluation._trial_channels(spec, 0)
    beams = one_shot_ia(spec.slot_config(spec.slot_dof()[0]), equiv)
    assert not any(u.flags.writeable for u in beams.receive)
    caches = cached_arrays(channel, equiv)
    before = [a.copy() for a in caches]
    monkeypatch.setattr(evaluation, "_trial_channels", lambda spec, trial: (channel, equiv))
    # Record every padded-stream mask the second trial scores with.
    masks = {}
    cached_mask = evaluation._padded_streams

    def recorded(width, dof):
        masks[(width, dof)] = cached_mask(width, dof)
        return masks[(width, dof)]

    monkeypatch.setattr(evaluation, "_padded_streams", recorded)
    again = _run_single_trial(spec, 0)
    for scheme in spec.schemes:
        assert np.array_equal(again[scheme]["rates"], plain[scheme]["rates"])
    for a, b in zip(caches, before, strict=True):
        assert np.array_equal(a, b)
    # Both trials scored with the same cached masks, which still read as built.
    assert {len(dof) for _, dof in masks} == {spec.num_users} and len(masks) > 1
    for (width, dof), mask in masks.items():
        assert not mask.flags.writeable
        assert mask is cached_mask(width, dof)
        assert np.array_equal(mask, np.arange(width) >= np.array(dof)[:, None])


@st.composite
def small_sweeps(draw):
    users = draw(st.integers(2, 4))
    rx = draw(st.integers(1, 3))
    tx = draw(st.integers(1, 3))
    return ExperimentSpec(
        num_users=users, rx_antennas=rx, tx_antennas=tx,
        dof_total=draw(st.integers(1, users * min(rx, 2 * tx))),
        schemes=draw(st.lists(st.sampled_from(evaluation.SCHEMES), min_size=1,
                              max_size=4, unique=True)),
        snr_grid_db=draw(st.lists(st.floats(-20.0, 50.0), min_size=1, max_size=3,
                                  unique=True)),
        trials=2, seed=draw(st.integers(0, 2**16)), max_iters=30)


@given(small_sweeps())
@settings(max_examples=15)
def test_every_sweep_rate_is_finite_and_non_negative(spec):
    result = run_experiment(spec, workers=1)
    for rec in result.to_records():
        assert math.isfinite(rec["mean_sum_rate"]), rec
        assert rec["mean_sum_rate"] >= 0.0, rec
        assert math.isfinite(rec["std_err"]), rec


@pytest.mark.parametrize("trial", [0, 1, 2])
def test_a_time_share_trial_equals_its_rebuild_from_the_public_functions(trial):
    # Five 2x2 cells at 4 streams: five one-shot slots and one zero-forcing
    # design per draw. Every design re-run with the public solvers, scored
    # at the pooled powers and averaged over the slots as np.mean does,
    # gives the harness's rates and residuals bit for bit: each one-shot
    # slot on the list grid with per-user filter lists, zero forcing on
    # its stacked row grid with the design's stacks.
    spec = ExperimentSpec(**TIMESHARE, trials=1, seed=7)
    got = _run_single_trial(spec, trial)
    users = spec.num_users
    configs = [spec.slot_config(row) for row in spec.slot_dof()]
    assert len(configs) == 5
    channel = generate_channel(configs[0], np.random.SeedSequence((spec.seed, trial)))
    equiv = equivalent_channel(channel, build_permutation(configs[0]))
    powers = [10.0 ** (snr / 10.0) for snr in spec.snr_grid_db]
    slots = []
    for cfg in configs:
        beams = one_shot_ia(cfg, equiv, rank_tol=spec.rank_tol)
        active = sum(d > 0 for d in cfg.dof)
        scale = [users / active if d > 0 else 0.0 for d in cfg.dof]
        slots.append((equiv.blocks, beams.receive, beams.transmit, cfg.dof, scale))
    sol = bd_zero_forcing(channel, rank_tol=spec.rank_tol)
    rows = np.array([channel.row_block(k) for k in range(users)])[:, None]
    bd = [(rows, sol.receive_stack, sol.transmit_stack, sol.dof,
           [users * d / sol.dof_total for d in sol.dof])]
    for scheme, designs in (("oneshot_partial", slots), ("bdzf_full", bd)):
        rates = [np.array([sum_rate(grid, u, v, [p * s for s in scale], dof, 1.0)[1]
                           for p in powers])
                 for grid, u, v, dof, scale in designs]
        resids = [alignment_residual(grid, u, v) for grid, u, v, _, _ in designs]
        assert np.array_equal(got[scheme]["rates"], np.mean(np.vstack(rates), axis=0))
        assert got[scheme]["resid"] == float(np.mean(resids))
        assert got[scheme]["conv"] == 1.0
    assert got["oneshot_partial"]["dof"] == 4.0
    assert got["bdzf_full"]["dof"] == float(sol.dof_total) == 10.0


def test_a_time_share_trial_makes_every_call_the_benchmark_traces(monkeypatch):
    # The benchmark's spans wrap these module attributes by name: a trial
    # must reach each of them, as many times as it designs and scores, or
    # a span reads zero.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from workloads import WORKLOADS

    assert WORKLOADS["oneshot-k5-timeshare"].spec == TIMESHARE
    spec = ExperimentSpec(**TIMESHARE, trials=1, seed=3)
    plain = _run_single_trial(spec, 0)
    tracer = tracing.Tracer()
    with tracing.patched(tracing.TRACED, tracer.wrap):
        traced = tracer.run(_run_single_trial, spec, 0)
    slots, points = len(spec.slot_dof()), len(spec.snr_grid_db)
    designs = slots + 1
    spans = collections.Counter(name for name, *_ in tracer.spans)
    assert spans == {
        "network.draw": 1, "network.gather": 1,
        "oneshot.design": slots, "oneshot.receive": slots, "oneshot.nullspace": slots,
        "zeroforcing.bd": 1,
        "evaluation.sum_rate": designs * points, "evaluation.residual": designs,
        "evaluation.harness": 1,
    }
    assert tracer.counts["evaluation.sum_rate_calls"] == designs * points == 30
    assert tracer.trials == 1
    # Every one-shot sub-step runs inside its own slot's design span.
    for name, _, _, parent, _ in tracer.spans:
        if name in ("oneshot.receive", "oneshot.nullspace"):
            assert tracer.spans[parent][0] == "oneshot.design"
    # The patches are gone again, and tracing changed no output.
    assert evaluation.sum_rate is sum_rate and evaluation.one_shot_ia is one_shot_ia
    for scheme in spec.schemes:
        assert np.array_equal(plain[scheme]["rates"], traced[scheme]["rates"])


def test_a_wide_trial_traces_its_one_search_inside_its_design(monkeypatch):
    # Three 8x8 cells at 9 streams: one slot, whose three users share a
    # shape and have ten directions for three streams each, so one stacked
    # subset search. No other spec here reaches the tracer's select hook.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from workloads import WORKLOADS

    spec = ExperimentSpec(**WORKLOADS["oneshot-k3-8x8-wide"].spec, trials=1, seed=3)
    plain = _run_single_trial(spec, 0)
    tracer = tracing.Tracer()
    with tracing.patched(tracing.TRACED, tracer.wrap):
        traced = tracer.run(_run_single_trial, spec, 0)
    designs = [i for i, span in enumerate(tracer.spans) if span[0] == "oneshot.design"]
    selects = [span for span in tracer.spans if span[0] == "oneshot.select"]
    assert len(designs) == 1 and len(selects) == 1
    assert selects[0][3] == designs[0]
    assert tracer.counts["oneshot.subsets_scored"] == 3 * math.comb(10, 3)
    assert tracer.counts["oneshot.failed"] == 0
    for scheme in spec.schemes:
        assert np.array_equal(plain[scheme]["rates"], traced[scheme]["rates"])


def test_slot_power_scales_are_cached_per_stream_row():
    scale = evaluation._slot_power_scale((1, 1, 1, 1, 0))
    assert scale == (1.25, 1.25, 1.25, 1.25, 0.0)
    assert evaluation._slot_power_scale((1, 1, 1, 1, 0)) is scale
    assert evaluation._slot_power_scale((2, 1, 1)) == (1.0, 1.0, 1.0)
