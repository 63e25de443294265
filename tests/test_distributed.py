"""Alternating leakage minimization, paired and unpaired.

The leakage functional, a test-local copy of the trace form the loop
minimizes, is cross-checked with an explicit per-pair Frobenius sum, and
the convergence claims are pinned to measured iteration budgets on fixed
seeds. On three-user grids the converged loop is checked against Cadambe
and Jafar's closed-form alignment, an oracle independent of the loop.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from pcia import (
    ChannelSet,
    DistributedInfeasible,
    EquivalentChannel,
    NetworkConfig,
    alignment_residual,
    build_permutation,
    equivalent_channel,
    generate_channel,
    iterate_distributed_ia,
    sum_rate,
)
from pcia import distributed
from pcia.linalg import (
    _covariance_stack,
    _interferer_weights,
    _stack,
    _unit_power_weights,
    fix_column_phases,
)

from conftest import covariances


def _paired(cfg, seed):
    return equivalent_channel(generate_channel(cfg, seed), build_permutation(cfg))


def _leakage(channel, receive, transmit) -> float:
    # Total interference power at the filter outputs: sum over users of
    # trace(U_k^H Q_k U_k), Q_k the forward covariance of all undesired
    # transmitters at unit power per message.
    q = covariances(channel._forward, transmit)
    return sum(float(np.real(np.trace(u.conj().T @ q[k, :m, :m] @ u)))
               for k, (u, m) in enumerate(zip(receive, channel.rx_sizes)))


def test_leakage_matches_per_pair_sum(k3_config, k3_channel):
    rng = np.random.default_rng(5)
    blocks = k3_channel.blocks
    receive = [np.linalg.qr(rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1)))[0]
               for _ in range(3)]
    transmit = [np.linalg.qr(rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1)))[0]
                for _ in range(3)]
    dof = [1, 1, 1]
    expected = 0.0
    for k in range(3):
        for l in range(3):
            if l != k:
                eff = receive[k].conj().T @ blocks[k][l] @ transmit[l]
                expected += 1.0 / dof[l] * float(np.linalg.norm(eff, "fro") ** 2)
    assert _leakage(k3_channel, receive, transmit) == pytest.approx(expected, rel=1e-12)


def test_leakage_never_increases_with_uniform_streams():
    cfg = NetworkConfig.symmetric(4, 2, 2, 1)
    trace = iterate_distributed_ia(generate_channel(cfg, 11), cfg.dof, max_iters=200, seed=0)
    diffs = np.diff(trace.leakage)
    assert np.all(diffs <= 1e-12)


def test_proper_generic_system_converges():
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    channel = generate_channel(cfg, 0)
    blocks = channel.blocks
    trace = iterate_distributed_ia(channel, cfg.dof, max_iters=400, seed=0)
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
    trace = iterate_distributed_ia(generate_channel(cfg, 0), cfg.dof, max_iters=300, seed=0)
    assert not trace.converged
    assert trace.iterations == 300
    assert trace.leakage[-1] / trace.leakage[0] > 0.1


def test_pairing_unlocks_five_streams_over_five_cells():
    cfg = NetworkConfig.symmetric(5, 2, 2, 1)
    trace = iterate_distributed_ia(_paired(cfg, 5), cfg.dof, max_iters=500, seed=0)
    assert trace.converged
    assert trace.iterations <= 500


def test_random_init_is_seeded():
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    channel = generate_channel(cfg, 21)
    a = iterate_distributed_ia(channel, cfg.dof, max_iters=50, seed=99)
    b = iterate_distributed_ia(channel, cfg.dof, max_iters=50, seed=99)
    c = iterate_distributed_ia(channel, cfg.dof, max_iters=50, seed=100)
    assert a.leakage == b.leakage
    assert a.leakage[0] != c.leakage[0]


def test_silent_user_is_skipped():
    cfg = NetworkConfig.symmetric(3, 2, 2, [1, 1, 0])
    trace = iterate_distributed_ia(_paired(cfg, 2), cfg.dof, max_iters=300, seed=0)
    assert trace.converged
    assert trace.receive[2].shape == (2, 0)
    assert trace.transmit[2].shape == (4, 0)


def test_input_validation():
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    channel = generate_channel(cfg, 1)
    with pytest.raises(ValueError, match="per user"):
        iterate_distributed_ia(channel, [1, 1], seed=0)
    with pytest.raises(ValueError, match="streams"):
        iterate_distributed_ia(channel, [3, 1, 1], seed=0)
    for max_iters in (0, -1):
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            iterate_distributed_ia(channel, cfg.dof, max_iters=max_iters, seed=0)
    with pytest.raises(ValueError, match="max_iters must be a whole number"):
        iterate_distributed_ia(channel, cfg.dof, max_iters=2.5, seed=0)
    with pytest.raises(ValueError, match="dof must not be negative"):
        iterate_distributed_ia(channel, [-1, 1, 1], seed=0)
    with pytest.raises(ValueError, match="dof must be a whole number"):
        iterate_distributed_ia(channel, [1.5, 1, 1], seed=0)


def test_an_integral_float_iteration_cap_runs_as_its_int():
    # The checked cap used to be discarded, so ``range(10.0)`` raised TypeError.
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    channel = generate_channel(cfg, 1)
    whole, floating = (iterate_distributed_ia(channel, cfg.dof, max_iters=n, seed=0)
                       for n in (10, 10.0))
    assert (floating.iterations, floating.converged) == (whole.iterations, whole.converged)
    assert floating.leakage == whole.leakage
    assert np.array_equal(floating.receive_stack, whole.receive_stack)
    assert np.array_equal(floating.transmit_stack, whole.transmit_stack)


@pytest.mark.parametrize("leakage_tol", [float("nan"), float("inf"), -1.0, 0.0])
def test_leakage_tolerance_must_be_positive_and_finite(leakage_tol):
    # A NaN or negative threshold used to run every iteration and report
    # the run unconverged.
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    channel = generate_channel(cfg, 1)
    with pytest.raises(ValueError, match="leakage_tol must be positive and finite") as exc:
        iterate_distributed_ia(channel, cfg.dof, max_iters=20, leakage_tol=leakage_tol, seed=0)
    assert not isinstance(exc.value, DistributedInfeasible)


RAGGED = NetworkConfig(rx_antennas=(2, 3, 2), tx_antennas=(2, 3, 2), dof=(1, 2, 0))
TIME_SHARE_ROW = NetworkConfig.symmetric(3, 2, 2, [2, 1, 1])


def _assert_pinned(a):
    for col in a.T:
        lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


# The ids keep the name of the start the loop runs from: a seeded random one.
@pytest.mark.parametrize("cfg", [RAGGED, TIME_SHARE_ROW],
                         ids=["random-ragged", "random-time-share-row"])
def test_uneven_grids_give_orthonormal_pinned_filters(cfg):
    trace = iterate_distributed_ia(_paired(cfg, 7), cfg.dof, max_iters=300, seed=3)
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
    channel = _paired(cfg, 4)
    trace = iterate_distributed_ia(channel, cfg.dof, max_iters=2000, leakage_tol=1e-3, seed=8)
    assert trace.converged
    explicit = _leakage(channel, trace.receive, trace.transmit)
    assert trace.leakage[-1] == pytest.approx(explicit, rel=1e-9)


def test_every_returned_column_has_a_pinned_phase():
    cfg = NetworkConfig.symmetric(5, 2, 2, 1)
    trace = iterate_distributed_ia(_paired(cfg, 9), cfg.dof, max_iters=40, seed=1)
    for a in trace.receive + trace.transmit:
        _assert_pinned(a)


def test_stream_requests_that_do_not_fit_are_typed():
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    with pytest.raises(DistributedInfeasible, match="streams"):
        iterate_distributed_ia(generate_channel(cfg, 1), [3, 1, 1], seed=0)


@pytest.mark.parametrize("dof", [[1, 1], [1, 1, 1, 1]], ids=["short", "long"])
def test_stream_lists_of_the_wrong_length_are_caller_errors(dof):
    # A caller bug, not an infeasible request: the harness must not
    # count it as a zero-rate slot, so it is not DistributedInfeasible.
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    with pytest.raises(ValueError, match="one stream count per user") as exc:
        iterate_distributed_ia(generate_channel(cfg, 1), dof, seed=0)
    assert not isinstance(exc.value, DistributedInfeasible)


def test_a_list_grid_with_a_nan_entry_is_rejected():
    # A list grid is refused at entry, instead of running the loop into a
    # NaN leakage history; wrapped into a view, it meets the constructor's
    # check.
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    blocks = [[b.copy() for b in row] for row in generate_channel(cfg, 1).blocks]
    blocks[0][1][1, 0] = np.nan
    with pytest.raises(TypeError, match="channel must be ChannelSet or EquivalentChannel"):
        iterate_distributed_ia(blocks, cfg.dof, max_iters=5, seed=0)
    message = r"channel block \(0, 1\) has a NaN or infinite entry"
    with pytest.raises(ValueError, match=message):
        ChannelSet(blocks)


@pytest.mark.parametrize("cfg", [NetworkConfig.symmetric(5, 2, 2, 1), RAGGED],
                         ids=["k5", "ragged"])
def test_a_view_and_its_list_grid_give_the_same_trace(cfg):
    # A list grid reaches the loop through a view's constructor, and that
    # checked copy runs bit for bit as the gathered view.
    view = _paired(cfg, 6)
    runs = [iterate_distributed_ia(grid, cfg.dof, max_iters=400, seed=12)
            for grid in (view, EquivalentChannel(view.blocks))]
    assert np.array_equal(runs[0].leakage, runs[1].leakage)
    assert runs[0].iterations == runs[1].iterations
    assert runs[0].converged == runs[1].converged
    for a, b in zip(runs[0].receive + runs[0].transmit, runs[1].receive + runs[1].transmit,
                    strict=True):
        assert np.array_equal(a, b)


def _reference_loop(view, dof, max_iters, seed, leakage_tol=1e-8):
    # The leakage loop as it ran on numpy's public eigh, one error state
    # per call: the same start, threshold, kernel and stopping rule.
    rows, cols = view.rx_sizes, view.tx_sizes
    rng = np.random.default_rng(seed)
    start = []
    for k in range(len(dof)):
        raw = rng.standard_normal((cols[k], dof[k])) + 1j * rng.standard_normal(
            (cols[k], dof[k]))
        start.append(np.linalg.qr(raw)[0] if dof[k] else np.zeros((cols[k], 0)))
    per_stream = _unit_power_weights(dof)
    threshold = leakage_tol * sum(
        per_stream[k] * float(np.linalg.norm(view.blocks[k][k] @ start[k], "fro") ** 2)
        for k in range(len(dof)) if dof[k] > 0)
    grid = view._stacked
    forward, reverse = view._forward, view._reverse
    width = max(dof)
    streams = np.arange(width) < np.array(dof)[:, None]
    weights = _interferer_weights(tuple(dof))

    def smallest_first(q, padded):
        if padded is not None:
            load = 2.0 * np.trace(q, axis1=1, axis2=2).real + 1.0
            q = q + load[:, None, None] * padded
        return np.linalg.eigh(q)

    fwd_padded = distributed._padding(rows, grid.shape[2])
    rev_padded = distributed._padding(cols, grid.shape[3])
    transmit = _stack(start, grid.shape[3], width)
    history, converged = [], False
    for _ in range(max_iters):
        vals, vecs = smallest_first(_covariance_stack(forward, transmit, weights), fwd_padded)
        receive = vecs[:, :, :width]
        total = float(np.add.reduce(vals[:, :width] * streams, axis=None))
        history.append(total)
        if total <= threshold:
            converged = True
            break
        _, vecs = smallest_first(_covariance_stack(reverse, receive, weights), rev_padded)
        transmit = vecs[:, :, :width]
    return (history, converged,
            [fix_column_phases(receive[k, :rows[k], :dof[k]]) for k in range(len(dof))],
            [fix_column_phases(transmit[k, :cols[k], :dof[k]]) for k in range(len(dof))])


# The ids keep the name of the start the loop runs from: a seeded random one.
@pytest.mark.parametrize("cfg", [NetworkConfig.symmetric(5, 2, 2, 1), RAGGED, TIME_SHARE_ROW],
                         ids=["random-k5-paired", "random-ragged-silent", "random-two-stream"])
def test_the_loop_matches_the_public_eigh_loop_bit_for_bit(cfg):
    view = _paired(cfg, 11)
    trace = iterate_distributed_ia(view, cfg.dof, max_iters=300, seed=5)
    history, converged, receive, transmit = _reference_loop(view, cfg.dof, 300, 5)
    assert np.array_equal(trace.leakage, history)
    assert trace.iterations == len(history)
    assert trace.converged == converged
    for a, b in zip(trace.receive + trace.transmit, receive + transmit, strict=True):
        assert np.array_equal(a, b)


def _overflowing_channel():
    # Finite entries whose products overflow: a ChannelSet accepts them.
    channel = generate_channel(NetworkConfig.symmetric(2, 2, 2, 1), 0)
    return ChannelSet([[b * 1e155 for b in row] for row in channel.blocks])


def test_a_leakage_that_is_not_finite_raises_instead_of_returning_nan():
    # The loop used to return five NaN leakages and NaN filters, with only
    # RuntimeWarnings, which a caller outside this suite does not see.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(LinAlgError, match="NaN or infinite value arose"):
            iterate_distributed_ia(_overflowing_channel(), [1, 1], max_iters=5, seed=0)


def test_an_infinite_leakage_without_a_nan_is_caught_by_the_finite_check(monkeypatch):
    # Infinite eigenvalues raise no invalid-value event, so the error state
    # stays quiet and the per-iteration check names the leakage.
    smallest_first = distributed._smallest_first

    def infinite(q, padded):
        vals, vecs = smallest_first(q, padded)
        return vals + np.inf, vecs

    monkeypatch.setattr(distributed, "_smallest_first", infinite)
    cfg = NetworkConfig.symmetric(2, 2, 2, 1)
    with pytest.raises(LinAlgError, match="leakage inf at iteration 1 is not finite"):
        iterate_distributed_ia(generate_channel(cfg, 0), cfg.dof, max_iters=5, seed=0)


def _closed_form(channel, d):
    # Cadambe and Jafar's design for three M x M links at d = M / 2 streams
    # each (IEEE Trans. IT 54(8), 2008), with H_kl = blocks[k - 1][l - 1]:
    # V1 spans d eigenvectors of E = H21^-1 H23 H13^-1 H12 H32^-1 H31,
    # V2 = H32^-1 H31 V1 and V3 = H23^-1 H21 V1. Both interferers then
    # reach each receiver in one d-dimensional span, and its filter is the
    # orthogonal complement. Returns E's eigenvectors and the design built
    # on the first d of them.
    def h(k, l):
        return channel.blocks[k - 1][l - 1]

    inv = np.linalg.inv
    eigvecs = np.linalg.eig(inv(h(2, 1)) @ h(2, 3) @ inv(h(1, 3)) @ h(1, 2)
                            @ inv(h(3, 2)) @ h(3, 1))[1]
    v1 = eigvecs[:, :d]
    transmit = [np.linalg.qr(v)[0]
                for v in (v1, inv(h(3, 2)) @ h(3, 1) @ v1, inv(h(2, 3)) @ h(2, 1) @ v1)]
    receive = []
    for k in range(3):
        interference = np.hstack([channel.blocks[k][l] @ transmit[l] for l in range(3) if l != k])
        receive.append(np.linalg.svd(interference)[0][:, d:])
    return eigvecs, receive, transmit


# K = 3 physical grids with M x M links at d = M / 2 streams, the
# geometry where the closed form exists; four fixed draws each.
CLOSED_FORM = [NetworkConfig.symmetric(3, 2, 2, 1), NetworkConfig.symmetric(3, 4, 4, 2)]
CLOSED_FORM_DRAWS = range(4)


@pytest.mark.parametrize("cfg", CLOSED_FORM, ids=["2x2-d1", "4x4-d2"])
def test_the_closed_form_design_aligns_and_earns_every_stream(cfg):
    for seed in CLOSED_FORM_DRAWS:
        channel = generate_channel(cfg, seed)
        _, receive, transmit = _closed_form(channel, cfg.dof[0])
        assert alignment_residual(channel.blocks, receive, transmit) < 1e-12
        rates = [sum_rate(channel.blocks, receive, transmit, [10.0 ** (snr / 10.0)] * 3,
                          cfg.dof, 1.0)[1] for snr in (30.0, 40.0)]
        slope = (rates[1] - rates[0]) / math.log2(10.0)
        # Finite SNR leaves each stream's slope short of 1 by about
        # 1 / (P * gain): at most 0.09 streams in all on these draws. A
        # stream lost to leftover interference would cost a whole one.
        assert abs(slope - cfg.dof_total) < 0.25, seed


@pytest.mark.parametrize("cfg", CLOSED_FORM, ids=["2x2-d1", "4x4-d2"])
def test_the_converged_loop_spans_d_eigenvectors_of_the_closed_form(cfg):
    m, d = cfg.rx_antennas[0], cfg.dof[0]
    for seed in CLOSED_FORM_DRAWS:
        channel = generate_channel(cfg, seed)
        eigvecs, _, _ = _closed_form(channel, d)
        trace = iterate_distributed_ia(channel, cfg.dof, max_iters=5000, leakage_tol=1e-12,
                                       seed=seed)
        assert trace.converged, seed
        v1 = trace.transmit[0]
        spans = (np.linalg.qr(eigvecs[:, list(cols)])[0]
                 for cols in itertools.combinations(range(m), d))
        off = min(np.linalg.norm(v1 - q @ (q.conj().T @ v1)) for q in spans)
        # The run stops at a leakage of 1e-12 times the signal power. The
        # leakage grows as the square of the angle off an aligned span, so
        # that angle is about 1e-6 times the channel's conditioning: at
        # most 2.3e-5 on these draws, where a random start sits 0.2 to 1 off.
        assert off < 1e-4, seed
