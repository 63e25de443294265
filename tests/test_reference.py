"""The package against the paper-literal reference of ``tests/reference.py``.

A derandomized strategy draws small rings, 2 to 6 cells with 1 to 4
antennas per station and per receiver, silent users and per-user stream
counts, and the package is held to the reference on what does not
depend on a basis:

* the paired grid, bit for bit;
* nullities, exactly;
* receive-space and null-space projectors, within 1e-10;
* one-shot rates within 1e-9 relative and residuals within 1e-12
  absolute, wherever every active user's nullity equals its streams, so
  that its precoder spans its whole null space;
* zero forcing's grants exactly and its rates within 1e-9 relative;
* the leakage loop's first five leakages within 1e-9 relative on the
  physical view, wherever every active user's antenna counts are at
  most the stream total, so that each step's least-interfered subspace
  is unique.

Half the draws are tight, every active user's paired width equal to the
stream total: only these reach the one-shot rates. Two strict xfails pin
where the package and the reference part today, both ROADMAP item 4.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcia import (
    BDInfeasible,
    NetworkConfig,
    alignment_residual,
    bd_zero_forcing,
    build_permutation,
    equivalent_channel,
    generate_channel,
    iterate_distributed_ia,
    one_shot_ia,
    sum_rate,
)
from pcia.oneshot import design_receive_beamformers, reciprocal_state

from conftest import reference

# 0, 10 and 20 dB at unit noise.
POWERS = (1.0, 10.0, 100.0)
LOOP_ITERATIONS = 5


@st.composite
def rings(draw):
    """A ring's config and a channel seed; half the totals are tight."""
    k = draw(st.integers(2, 6))
    count = st.integers(1, 4)
    tx = draw(st.one_of(count.map(lambda n: (n,) * k), st.tuples(*[count] * k)))
    rx = draw(st.tuples(*[count] * k))
    widths = [tx[u] + tx[u - 1] for u in range(k)]
    tight = draw(st.booleans())
    if tight:
        width = draw(st.sampled_from(sorted(set(widths))))
        candidates = [u for u in range(k) if widths[u] == width]
    else:
        candidates = list(range(k))
    active = draw(st.lists(st.sampled_from(candidates), min_size=1, unique=True))
    bound = min(widths[u] for u in active)
    active = active[:bound]
    total = bound if tight else draw(st.integers(len(active), bound))
    # One stream each, then the rest in drawn order up to each user's cap.
    dof, spare = [0] * k, total - len(active)
    for u in active:
        dof[u] = 1 + min(min(rx[u], widths[u]) - 1, spare)
        spare -= dof[u] - 1
    return NetworkConfig(rx, tx, dof), draw(st.integers(0, 2**32 - 1))


def _projector(a):
    return a @ a.conj().T


def _check_one_shot(cfg, channel):
    equiv = equivalent_channel(channel, build_permutation(cfg))
    paired, receive, bases, transmit = reference.one_shot(channel.blocks, cfg.tx_antennas,
                                                          cfg.dof)
    for got_row, want_row in zip(equiv.blocks, paired, strict=True):
        for got, want in zip(got_row, want_row, strict=True):
            assert np.array_equal(got, want)
    stack = design_receive_beamformers(equiv, cfg)
    state = reciprocal_state(equiv, stack, cfg)
    assert state.nullities == [b.shape[1] for b in bases]
    for k, (m, w, d, a) in enumerate(zip(cfg.rx_antennas, cfg.paired_widths, cfg.dof,
                                         state.nullities)):
        np.testing.assert_allclose(_projector(stack[k, :m, :d]), _projector(receive[k]),
                                   rtol=0, atol=1e-10)
        np.testing.assert_allclose(_projector(state.null_bases[k, :w, :a]),
                                   _projector(bases[k]), rtol=0, atol=1e-10)
    if any(a != d for a, d in zip(state.nullities, cfg.dof) if d):
        return
    beams = one_shot_ia(cfg, equiv)
    u, v = beams.receive_stack, beams.transmit_stack
    for powers in ([p] * cfg.num_users for p in POWERS):
        got, _ = sum_rate(equiv, u, v, powers, cfg.dof, 1.0)
        want = reference.rates(paired, receive, transmit, powers, cfg.dof, 1.0)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
    gap = alignment_residual(equiv, u, v) - reference.residual(paired, receive, transmit)
    assert abs(gap) <= 1e-12


def _check_zero_forcing(cfg, channel):
    design = reference.zero_forcing(channel.blocks)
    if design is None:
        with pytest.raises(BDInfeasible):
            bd_zero_forcing(channel)
        return
    receive, transmit = design
    beams = bd_zero_forcing(channel)
    assert beams.dof == tuple(u.shape[1] for u in receive)
    # Every receiver sees its whole row block from every transmitter.
    rows = [[np.hstack(row)] * cfg.num_users for row in channel.blocks]
    for powers in ([p] * cfg.num_users for p in POWERS):
        got, _ = sum_rate(channel._row_stack[:, None], beams.receive_stack, beams.transmit_stack,
                          powers, beams.dof, 1.0)
        want = reference.rates(rows, receive, transmit, powers, beams.dof, 1.0)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


def _leakage_gap(view, dof, seed):
    """The loop's and the reference's leakage histories over five iterations, after
    checking that both stop alike; a converged run's last leakage, rounding below
    the threshold both met, is left out."""
    run = iterate_distributed_ia(view, dof, max_iters=LOOP_ITERATIONS, seed=seed)
    history, converged, _, _ = reference.leakage_loop(view.blocks, dof, LOOP_ITERATIONS, seed)
    assert (run.iterations, run.converged) == (len(history), converged)
    checked = len(history) - converged
    return np.array(run.leakage[:checked]), np.array(history[:checked])


def _check_leakage_loop(cfg, channel, seed):
    # A physical direct block is m_k x n_k, so streams are capped by n_k too.
    dof = [min(d, n) for d, n in zip(cfg.dof, cfg.tx_antennas)]
    total = sum(dof)
    if any(max(m, n) > total for m, n, d in zip(cfg.rx_antennas, cfg.tx_antennas, dof) if d):
        return
    got, want = _leakage_gap(channel, dof, seed)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


@given(rings())
@settings(max_examples=200)
def test_the_package_agrees_with_the_paper_literal_reference(ring):
    cfg, seed = ring
    channel = generate_channel(cfg, seed)
    _check_one_shot(cfg, channel)
    _check_zero_forcing(cfg, channel)
    _check_leakage_loop(cfg, channel, seed)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 4, and the open FOUND line in CHANGES.md on one-shot designs that depend "
    "on the ring's labels: where a null space is wider than its streams, the subset search "
    "scores columns of an arbitrary eigh basis"))
def test_one_shot_rates_match_the_reference_where_the_null_space_is_wider():
    # Trial 0 of the digest's oneshot-k3-8x8-wide spec: ten directions for
    # three streams per user.
    cfg = NetworkConfig.symmetric(3, 8, 8, 3)
    channel = generate_channel(cfg, np.random.SeedSequence((0, 0)))
    equiv = equivalent_channel(channel, build_permutation(cfg))
    beams = one_shot_ia(cfg, equiv)
    paired, receive, _, transmit = reference.one_shot(channel.blocks, cfg.tx_antennas, cfg.dof)
    powers = [100.0] * cfg.num_users
    _, got = sum_rate(equiv, beams.receive_stack, beams.transmit_stack, powers, cfg.dof, 1.0)
    want = sum(reference.rates(paired, receive, transmit, powers, cfg.dof, 1.0))
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 4, and the open FOUND line in CHANGES.md on the iterative loop's degenerate "
    "basis: where a paired width exceeds the stream total, the least-leaking directions are "
    "an arbitrary basis of a wider zero eigenspace"))
def test_the_paired_leakage_loop_matches_the_reference():
    # Paired widths 2, 4 and 4 for 3 streams in all.
    cfg = NetworkConfig((1, 2, 2), (1, 3, 1), (1, 1, 1))
    equiv = equivalent_channel(generate_channel(cfg, 330), build_permutation(cfg))
    got, want = _leakage_gap(equiv, cfg.dof, 330)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
