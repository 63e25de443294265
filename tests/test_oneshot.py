"""Single-pass alignment on the paired-transmitter channel.

Oracles used here: received signal power against the squared singular
values of the direct block, covariance traces against an entrywise
double sum, and subset selection against a determinant-modulus scan.
The powers and covariances come from test-local helpers; the package
keeps neither.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcia import (
    ChannelSet,
    EquivalentChannel,
    ExperimentSpec,
    NetworkConfig,
    OneShotInfeasible,
    RankDeficientDesired,
    build_permutation,
    equivalent_channel,
    generate_channel,
    one_shot_ia,
)
from pcia import oneshot
from pcia.linalg import _interferer_weights, _pinned_svd
from pcia.oneshot import design_receive_beamformers, reciprocal_state, select_transmit_beamformer

from conftest import (
    corners,
    direct_triplets,
    random_orthonormal,
    received_signal_power,
    reciprocal_covariances,
)


def _equiv(config, seed):
    return equivalent_channel(generate_channel(config, seed), build_permutation(config))


def _pick(receive, direct, basis, d, user=None):
    # One user's pick: the selector on stacks of one.
    return select_transmit_beamformer(receive[None], direct[None], basis[None], d, user=user)[0]


def _receive(equiv, cfg):
    # Each user's m_k x d_k filter, cut from the receive step's stack.
    return corners(design_receive_beamformers(equiv, cfg), cfg.rx_antennas, cfg.dof)


def _bases(state, cfg):
    # Each user's w_k x a_k basis, cut from the null-space step's stack.
    return corners(state.null_bases, cfg.paired_widths, state.nullities)


def test_receive_filters_reconstruct_direct_blocks(k3_config, k3_channel):
    equiv = equivalent_channel(k3_channel, build_permutation(k3_config))
    receive = design_receive_beamformers(equiv, k3_config)
    for k, (left, singular, right) in enumerate(direct_triplets(equiv)):
        block = equiv.blocks[k][k]
        rebuilt = left @ np.diag(singular) @ right.conj().T
        assert np.allclose(rebuilt, block, atol=1e-12)
        # filters are the truncated left factors, orthonormal columns
        assert np.array_equal(receive[k], left[:, :k3_config.dof[k]])
        gram = receive[k].conj().T @ receive[k]
        assert np.allclose(gram, np.eye(k3_config.dof[k]), atol=1e-12)
        # the joint phase sits on the left factor: first nonzero entry
        # of every left column is real and positive
        for col in left.T:
            lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_received_power_matches_singular_values():
    # Transmitting along the dominant right singular vectors turns the
    # effective link into diag of the top singular values, so the output
    # power must be (P/d) * sum of their squares.
    cfg = NetworkConfig.symmetric(3, 3, 3, 2)
    equiv = _equiv(cfg, 90125)
    receive = design_receive_beamformers(equiv, cfg)
    right = [v[:, :d] for (_, _, v), d in zip(direct_triplets(equiv), cfg.dof)]
    for k in range(3):
        svals = np.linalg.svd(equiv.blocks[k][k], compute_uv=False)
        expected = 5.0 / cfg.dof[k] * float(np.sum(svals[: cfg.dof[k]] ** 2))
        got = received_signal_power(
            receive[k], equiv.blocks[k][k], right[k], 5.0, cfg.dof[k])
        assert got == pytest.approx(expected, rel=1e-10)
    assert received_signal_power(receive[0], equiv.blocks[0][0],
                                 right[0], 5.0, 0) == 0.0


def test_covariance_trace_matches_double_sum(k3_config, k3_channel):
    equiv = equivalent_channel(k3_channel, build_permutation(k3_config))
    receive = design_receive_beamformers(equiv, k3_config)
    covs = reciprocal_covariances(equiv, receive)
    for k in range(3):
        total = 0.0
        for l in range(3):
            if l == k:
                continue
            eff = equiv.blocks[l][k].conj().T @ receive[l]
            for i in range(eff.shape[0]):
                for j in range(eff.shape[1]):
                    total += 1.0 / k3_config.dof[l] * abs(eff[i, j]) ** 2
        assert float(np.real(np.trace(covs[k]))) == pytest.approx(total, rel=1e-12)
        assert np.allclose(covs[k], covs[k].conj().T)
        assert np.min(np.linalg.eigvalsh(covs[k])) > -1e-12


def _ranks(state, cfg):
    # Covariance rank: the paired width less the measured nullity.
    return [w - a for w, a in zip(cfg.paired_widths, state.nullities)]


def test_covariance_rank_follows_foreign_stream_count():
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    equiv = _equiv(cfg, 7)
    state = reciprocal_state(equiv, design_receive_beamformers(equiv, cfg), cfg)
    assert _ranks(state, cfg) == [2, 2, 2]
    assert state.nullities == [2, 2, 2]
    assert state.choice_counts == [2, 2, 2]

    cfg4 = NetworkConfig.symmetric(4, 2, 2, 1)
    equiv4 = _equiv(cfg4, 8)
    receive4 = design_receive_beamformers(equiv4, cfg4)
    state4 = reciprocal_state(equiv4, receive4, cfg4)
    assert _ranks(state4, cfg4) == [3, 3, 3, 3]
    assert state4.choice_counts == [1, 1, 1, 1]  # rigid: exactly one candidate


def test_covariance_rank_with_unequal_station_sizes():
    cfg = NetworkConfig(rx_antennas=[2, 2, 2], tx_antennas=[2, 3, 2],
                        dof=[1, 1, 1])
    equiv = _equiv(cfg, 9)
    receive = design_receive_beamformers(equiv, cfg)
    state = reciprocal_state(equiv, receive, cfg)
    # paired widths are (4, 5, 5) and every user faces two foreign streams
    assert _ranks(state, cfg) == [2, 2, 2]
    assert state.nullities == [2, 3, 3]


def test_null_space_tolerance_boundary():
    q = np.diag([1.0, 1e-8, 1e-10]).astype(np.complex128)
    tight, kept = oneshot._null_bases(q[None], rank_tol=1e-9)
    assert tight.shape == (1, 3, 3) and kept.tolist() == [1]
    assert np.allclose(tight[0, :, 0], [0, 0, 1])
    # the columns past the nullity are zeros, not eigenvectors
    assert not tight[0, :, 1:].any()
    loose, kept = oneshot._null_bases(q[None], rank_tol=1e-7)
    assert kept.tolist() == [2] and not loose[0, :, 2:].any()
    everything, kept = oneshot._null_bases(np.zeros((1, 3, 3)), rank_tol=1e-9)
    assert kept.tolist() == [3] and everything.shape == (1, 3, 3)


def test_selector_geometric_agrees_with_det(rng):
    # With a square effective matrix the product of eigenvalue moduli is
    # |det|, which gives an independent route to the same ranking.
    from itertools import combinations

    d, width, nullity = 2, 5, 4
    receive = np.linalg.qr(rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d)))[0]
    direct = rng.standard_normal((3, width)) + 1j * rng.standard_normal((3, width))
    basis = np.linalg.qr(rng.standard_normal((width, nullity))
                         + 1j * rng.standard_normal((width, nullity)))[0]
    picked = _pick(receive, direct, basis, d)
    projected = receive.conj().T @ direct @ basis
    scores = {cols: abs(np.linalg.det(projected[:, cols]))
              for cols in combinations(range(nullity), d)}
    best = max(scores, key=scores.get)
    assert np.array_equal(picked, basis[:, best])


def test_selector_tie_breaks_to_first_subset():
    receive = np.eye(1, dtype=np.complex128)
    direct = np.array([[1.0, 1.0]], dtype=np.complex128)
    basis = np.eye(2, dtype=np.complex128)
    picked = _pick(receive, direct, basis, 1)
    assert np.array_equal(picked, basis[:, [0]])


def test_selector_failure_reports_shortfall():
    basis = np.zeros((4, 1), dtype=np.complex128)
    with pytest.raises(OneShotInfeasible) as exc:
        _pick(np.eye(2), np.ones((2, 4)), basis, 2, user=1)
    assert exc.value.user == 1
    assert exc.value.nullity == 1
    assert exc.value.dof == 2


def test_end_to_end_alignment_three_cells(k3_config, k3_equiv):
    beams = one_shot_ia(k3_config, k3_equiv)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            leak = beams.receive[i].conj().T @ k3_equiv.blocks[i][j] @ beams.transmit[j]
            assert np.max(np.abs(leak)) < 1e-12
    for k in range(3):
        eff = beams.receive[k].conj().T @ k3_equiv.blocks[k][k] @ beams.transmit[k]
        assert np.linalg.svd(eff, compute_uv=False)[-1] > 1e-3


def test_one_shot_accepts_prebuilt_equivalent(k3_config, k3_channel, k3_equiv):
    other = NetworkConfig.symmetric(3, 2, 3, 1)
    with pytest.raises(ValueError, match="widths"):
        one_shot_ia(other, k3_equiv)
    # Blocks with three receive rows under a two-antenna config used to
    # give (3, 1) filters: only the transmit widths were compared.
    tall = _equiv(NetworkConfig.symmetric(3, 3, 2, 1), 3)
    with pytest.raises(ValueError, match=r"widths \(3, 3, 3\) x \(4, 4, 4\) do not match "
                                         r"the config's \(2, 2, 2\) x \(4, 4, 4\)"):
        one_shot_ia(k3_config, tall)
    # A physical channel of another station layout with the same antenna
    # total used to be paired on the wrong columns and designed on. No
    # physical channel is paired here now: the design takes the paired view.
    foreign = generate_channel(NetworkConfig([2, 2, 2], [3, 1, 2], [1, 1, 1]), 0)
    for channel in (foreign, k3_channel):
        with pytest.raises(TypeError, match="equiv must be EquivalentChannel, got ChannelSet"):
            one_shot_ia(k3_config, channel)


def test_one_shot_checks_the_layout_once_in_each_public_step(monkeypatch):
    # one_shot_ia is the one public step: it checks the channel's layout
    # and rank_tol once per slot, and its internal steps check neither.
    checks, check, tolerance = [], oneshot._check_layout, oneshot._tolerance

    def counted(equiv, config):
        checks.append(config)
        check(equiv, config)

    def counted_tolerance(value, name):
        checks.append(name)
        return tolerance(value, name)

    monkeypatch.setattr(oneshot, "_check_layout", counted)
    monkeypatch.setattr(oneshot, "_tolerance", counted_tolerance)
    cfg = NetworkConfig.symmetric(5, 2, 2, [1, 1, 1, 1, 0])
    one_shot_ia(cfg, _equiv(cfg, 0))
    assert checks == [cfg, "rank_tol"]


@pytest.mark.parametrize("cfg", [
    NetworkConfig(rx_antennas=(2, 3, 2), tx_antennas=(2, 3, 2), dof=(1, 2, 0)),
    NetworkConfig.symmetric(5, 2, 2, [1, 1, 1, 1, 0]),
], ids=["ragged-232", "k5-silent"])
def test_receive_padding_cannot_move_the_null_spaces(cfg):
    # The kernel's half weights are zero on padding columns and the reverse
    # grid is zero on padding rows, so finite values there reach no
    # covariance.
    rng = np.random.default_rng(29)
    for seed in range(3):
        equiv = _equiv(cfg, seed)
        receive = design_receive_beamformers(equiv, cfg)
        filled = rng.standard_normal(receive.shape) + 1j * rng.standard_normal(receive.shape)
        for k, (m, d) in enumerate(zip(cfg.rx_antennas, cfg.dof)):
            filled[k, :m, :d] = receive[k, :m, :d]
        assert not np.array_equal(filled, receive)
        want, got = (reciprocal_state(equiv, stack, cfg) for stack in (receive, filled))
        assert got.nullities == want.nullities
        assert got.choice_counts == want.choice_counts
        assert got.null_bases.tobytes() == want.null_bases.tobytes()


def test_slot_plans_are_cached_per_config_and_read_only():
    # Paired widths (4, 5, 5): user 0 is a width group of its own, and the
    # active users 0 and 1 have filters of 2 and 3 rows.
    cfg = NetworkConfig(rx_antennas=(2, 3, 2), tx_antennas=(2, 3, 2), dof=(1, 1, 0))
    plan = oneshot._slot_plan(cfg)
    assert oneshot._slot_plan(cfg) is plan
    assert oneshot._slot_plan(NetworkConfig((2, 3, 2), (2, 3, 2), (1, 1, 0))) is plan
    assert plan.active == (0, 1) and plan.bound == 4
    # the kernel's half weights at unit power per message, the cached array
    assert plan.weights is _interferer_weights((1, 1, 0))
    assert plan.weights.reshape(3, 3).tolist() == [[0.0, 0.5, 0.0], [0.5, 0.0, 0.0],
                                                   [0.5, 0.5, 0.0]]
    assert plan.shapes == ((2, 1, 4), (3, 1, 5), (2, 0, 5))
    assert plan._fields == ("active", "bound", "weights", "widths", "shapes")
    assert [(w, users.tolist()) for w, users in plan.widths] == [(4, [0]), (5, [1, 2])]
    indices = [users for _, users in plan.widths]
    assert all(index.dtype == np.intp for index in indices)
    for array in indices + [plan.weights]:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 2
    uniform = oneshot._slot_plan(NetworkConfig.symmetric(3, 2, 2, [1, 0, 1]))
    assert [(w, users.tolist()) for w, users in uniform.widths] == [(4, [0, 1, 2])]
    assert uniform.active == (0, 2)


def test_silent_user_occupies_no_dimensions():
    cfg = NetworkConfig.symmetric(3, 2, 2, [2, 1, 0])
    equiv = _equiv(cfg, 1234)
    beams = one_shot_ia(cfg, equiv)
    assert beams.transmit[2].shape == (4, 0)
    assert beams.receive[2].shape == (2, 0)
    for i, j in ((0, 1), (1, 0)):
        leak = beams.receive[i].conj().T @ equiv.blocks[i][j] @ beams.transmit[j]
        assert np.max(np.abs(leak)) < 1e-12


def test_all_silent_users_rejected():
    cfg = NetworkConfig.symmetric(3, 2, 2, 0)
    with pytest.raises(ValueError, match="active"):
        one_shot_ia(cfg, _equiv(cfg, 0))


def test_stream_demand_beyond_paired_width():
    cfg = NetworkConfig.symmetric(5, 2, 2, 1)
    with pytest.raises(OneShotInfeasible) as exc:
        one_shot_ia(cfg, _equiv(cfg, 55))
    assert exc.value.dof == 5
    assert exc.value.nullity == 4  # the binding paired width


@pytest.mark.parametrize("rank_tol", [float("nan"), float("inf"), -1.0, 0.0])
def test_rank_tolerance_must_be_positive_and_finite(k3_config, k3_equiv, rank_tol):
    # A caller error, not an infeasible geometry: the harness counts a
    # OneShotInfeasible as a zero-rate slot, and used to for a NaN here.
    message = "rank_tol must be positive and finite"
    with pytest.raises(ValueError, match=message):
        one_shot_ia(k3_config, k3_equiv, rank_tol=rank_tol)


def test_rank_deficient_direct_link_is_reported():
    # Two single-antenna cells whose users see identical rows: the only
    # interference-free direction is then also invisible to the direct
    # link, which the final rank check must catch.
    rng = np.random.default_rng(77)
    row = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    blocks = [[row[0].reshape(1, 1), row[1].reshape(1, 1)],
              [row[0].reshape(1, 1), row[1].reshape(1, 1)]]
    cfg = NetworkConfig.symmetric(2, 1, 1, 1)
    equiv = equivalent_channel(ChannelSet(blocks), build_permutation(cfg))
    with pytest.raises(RankDeficientDesired) as exc:
        one_shot_ia(cfg, equiv)
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
    equiv = _equiv(cfg, seed)
    beams = one_shot_ia(cfg, equiv)
    for i in range(cfg.num_users):
        for j in range(cfg.num_users):
            if i == j or cfg.dof[i] == 0 or cfg.dof[j] == 0:
                continue
            leak = beams.receive[i].conj().T @ equiv.blocks[i][j] @ beams.transmit[j]
            assert np.max(np.abs(leak)) < 1e-10
    for k in cfg.active_users:
        gram = beams.transmit[k].conj().T @ beams.transmit[k]
        assert np.allclose(gram, np.eye(cfg.dof[k]), atol=1e-10)


def _loop_pick(receive, direct, basis, d):
    # The per-subset scan the batched selector replaced: one eigvals per
    # subset, a later subset winning only on a strictly better score.
    projected = receive.conj().T @ direct @ basis
    best_cols, best_score = None, -np.inf
    for cols in itertools.combinations(range(basis.shape[1]), d):
        score = float(np.prod(np.abs(np.linalg.eigvals(projected[:, cols]))))
        if score > best_score:
            best_cols, best_score = cols, score
    return basis[:, best_cols]


# (nullity, streams) of the oracle's searches: every stream count up to 4
# and the one-short count a - 1, for 3 to 8 directions, and the widest
# level of the paper's range, 8 of 16 directions.
SEARCHES = [(a, d) for a in range(3, 9) for d in sorted({*range(1, min(4, a - 1) + 1), a - 1})]
SEARCHES.append((16, 8))


def _search_draw(rng, nullity, d):
    width = nullity + 1
    receive = random_orthonormal(rng, d + 1, d)
    direct = rng.standard_normal((d + 1, width)) + 1j * rng.standard_normal((d + 1, width))
    return receive, direct, random_orthonormal(rng, width, nullity)


# The ids name the selection rule under test, the geometric |det| pick,
# and how many draws one call stacks at most (None: one call per draw,
# a stack of one).
@pytest.mark.parametrize("stack", [None, 5], ids=lambda stack: f"geometric-{stack}")
def test_batched_selector_matches_per_subset_loop(stack):
    rng = np.random.default_rng(4096)
    for nullity, d in SEARCHES:
        # one draw of the widest search: its loop scores 12,870 subsets
        draws = [_search_draw(rng, nullity, d) for _ in range(1 if nullity == 16 else 5)]
        if stack is None:
            picks = [_pick(*draw, d) for draw in draws]
        else:
            picks = [pick for i in range(0, len(draws), stack)
                     for pick in select_transmit_beamformer(
                         *map(np.array, zip(*draws[i:i + stack])), d)]
        for pick, draw in zip(picks, draws):
            assert np.array_equal(pick, _loop_pick(*draw, d)), (nullity, d)


def test_selector_ties_straddling_chunks_keep_first_subset():
    # The direct link drops the third coordinate, so basis columns 1 and
    # 3 project to the same vector while staying distinguishable: the
    # subsets (0, 1) and (0, 3) tie exactly, and no subset scores higher.
    receive = np.eye(2, dtype=np.complex128)
    direct = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.complex128)
    basis = np.array([[1, 0, 0.5, 0, 0.3],
                      [0, 1, 0.2, 1, 0.3],
                      [0, 0, 0.0, 1, 1.0]], dtype=np.complex128)
    picked = _pick(receive, direct, basis, 2)
    assert np.array_equal(picked, basis[:, [0, 1]])
    assert np.array_equal(picked, _loop_pick(receive, direct, basis, 2))


def test_a_search_past_the_subset_limit_is_refused_before_any_table(monkeypatch):
    def no_tables(*args):
        raise AssertionError("built the tables of a refused search")

    monkeypatch.setattr(oneshot, "_minor_tables", no_tables)
    rng = np.random.default_rng(5)
    # 19 streams of 20 directions: the widest level is comb(20, 10) =
    # 184,756 subsets, though the last holds only 20.
    receive, direct, basis = _search_draw(rng, 20, 19)
    with pytest.raises(OneShotInfeasible, match=r"user 4 would score 184756 subsets") as exc:
        select_transmit_beamformer(receive[None], direct[None], basis[None], 19, user=4)
    assert (exc.value.user, exc.value.nullity, exc.value.dof) == (4, 20, 19)
    with pytest.raises(OneShotInfeasible, match=r"user \? would score") as exc:
        _pick(receive, direct, basis, 19)
    assert (exc.value.user, exc.value.nullity, exc.value.dof) == (None, 20, 19)
    # Through the design: 44 directions for 4 streams, comb(44, 4) = 135,751.
    cfg = NetworkConfig.symmetric(2, 24, 24, 4)
    with pytest.raises(OneShotInfeasible, match="135751 subsets") as exc:
        one_shot_ia(cfg, _equiv(cfg, 0))
    assert (exc.value.user, exc.value.nullity, exc.value.dof) == (0, 44, 4)


def test_minor_tables_are_cached_read_only():
    levels, subsets = oneshot._minor_tables(5, 3)
    assert oneshot._minor_tables(5, 3)[1] is subsets
    assert oneshot._minor_tables(5, 3)[0] is levels
    assert subsets.tolist() == [list(s) for s in itertools.combinations(range(5), 3)]
    assert len(levels) == 2
    for j, (cols, drops, signs) in enumerate(levels, 2):
        below = list(itertools.combinations(range(5), j - 1))
        assert cols.tolist() == [list(s) for s in itertools.combinations(range(5), j)]
        for s, row in zip(cols.tolist(), drops.tolist()):
            assert [below[r] for r in row] == [tuple(s[:i] + s[i + 1:]) for i in range(j)]
        assert signs.tolist() == [(-1.0) ** (j - 1 + i) for i in range(j)]
    for table in (subsets, *itertools.chain.from_iterable(levels)):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1
    single, last = oneshot._minor_tables(4, 1)
    assert single == () and last.tolist() == [[0], [1], [2], [3]]


def _pinned_by_column(a, tol=1e-12):
    # One column at a time: the phase that makes the first entry above
    # ``tol`` real and positive (1 when there is none).
    phases = np.ones(a.shape[1], dtype=a.dtype)
    for j in range(a.shape[1]):
        nz = np.flatnonzero(np.abs(a[:, j]) > tol)
        if nz.size:
            lead = a[nz[0], j]
            phases[j] = np.divide(lead.conjugate(), np.abs(lead))
    return phases


def _design_by_user(cfg, equiv, rank_tol=1e-9):
    # The per-user loop the batched steps replace: one svd per direct
    # block, one eigh per covariance, phases pinned column by column, and
    # as in one_shot_ia, no pick for a silent user or for a basis with
    # exactly as many directions as streams.
    left, singular, right = [], [], []
    for k in range(cfg.num_users):
        u, s, vh = np.linalg.svd(equiv.blocks[k][k], full_matrices=False)
        phases = _pinned_by_column(u)
        left.append(u * phases)
        singular.append(s)
        right.append(vh.conj().T * phases)
    receive = [u[:, :d] for u, d in zip(left, cfg.dof)]
    covariances = reciprocal_covariances(equiv, receive)
    bases = []
    for q in covariances:
        vals, vecs = np.linalg.eigh(q)
        basis = vecs[:, vals <= rank_tol * max(float(vals[-1]), 0.0)]
        bases.append(basis * _pinned_by_column(basis))
    transmit = [np.zeros((w, 0)) if d == 0 else basis if basis.shape[1] == d
                else _pick(receive[k], equiv.blocks[k][k], basis, d, user=k)
                for k, (w, d, basis) in enumerate(zip(cfg.paired_widths, cfg.dof, bases))]
    return left, singular, right, bases, transmit


BATCHED_CONFIGS = [
    NetworkConfig.symmetric(5, 2, 2, [1, 1, 1, 1, 0]),
    NetworkConfig.symmetric(3, 2, 2, [2, 1, 1]),
    NetworkConfig.symmetric(3, 8, 8, 3),                      # nullity 10 > d = 3
    NetworkConfig(rx_antennas=(2, 3, 2), tx_antennas=(2, 3, 2), dof=(1, 2, 0)),
    # ragged, nullity > d
    NetworkConfig(rx_antennas=(3, 2, 2), tx_antennas=(2, 2, 3), dof=(1, 1, 1)),
]


@pytest.mark.parametrize("cfg", BATCHED_CONFIGS,
                         ids=["k5-silent", "k3-row-211", "k3-8x8", "ragged-232", "ragged-322"])
def test_batched_design_matches_the_per_user_loop(cfg):
    for seed in range(4):
        equiv = _equiv(cfg, seed)
        left, singular, right, bases, transmit = _design_by_user(cfg, equiv)
        receive = _receive(equiv, cfg)
        cached = corners(equiv._direct_svd[0], cfg.rx_antennas, [len(s) for s in singular])
        for k, (d, own) in enumerate(zip(cfg.dof, direct_triplets(equiv), strict=True)):
            assert np.array_equal(cached[k], left[k])
            assert np.array_equal(equiv._direct_svd[1][k, :len(singular[k])], singular[k])
            assert np.array_equal(own[0], left[k])
            assert np.array_equal(own[1], singular[k])
            assert np.array_equal(own[2], right[k])
            assert np.array_equal(receive[k], left[k][:, :d])
        state = reciprocal_state(equiv, design_receive_beamformers(equiv, cfg), cfg)
        assert state.nullities == [b.shape[1] for b in bases]
        for got, want in zip(_bases(state, cfg), bases, strict=True):
            assert np.array_equal(got, want)
        beams = one_shot_ia(cfg, equiv)
        for got, want in zip(beams.transmit, transmit):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("geometry", [
    dict(rx_antennas=2, tx_antennas=2, num_users=5),
    dict(rx_antennas=(2, 3, 2), tx_antennas=(2, 3, 2), num_users=3),
    dict(rx_antennas=(3, 2, 2), tx_antennas=(2, 2, 3), num_users=3),
], ids=["k5-2x2", "ragged-232", "ragged-322"])
def test_cached_direct_svd_serves_every_time_share_slot(geometry):
    # One draw, every slot of its time-share table. The draw's SVD is two
    # read-only stacks, left factors and singular values, zero past each
    # user's corner; each corner is its block's own pinned SVD, which is a
    # fresh per-user SVD with phases pinned column by column, bit for bit,
    # and each slot's receive filters are the left corner's leading columns.
    spec = ExperimentSpec(**geometry, dof_total=4, schemes=("oneshot_partial",))
    configs = [spec.slot_config(row) for row in spec.slot_dof()]
    assert len(configs) > 1
    equiv = _equiv(configs[0], 17)
    rows, cols = equiv.rx_sizes, equiv.tx_sizes
    width = min(max(rows), max(cols))
    stacks = equiv._direct_svd
    assert [a.shape for a in stacks] == [(len(rows), max(rows), width), (len(rows), width)]
    assert not any(a.flags.writeable for a in stacks)
    triplets = direct_triplets(equiv)
    for k, (m, n) in enumerate(zip(rows, cols)):
        r = min(m, n)
        assert not stacks[0][k, m:].any() and not stacks[0][k, :, r:].any()
        assert not stacks[1][k, r:].any()
        own = _pinned_svd(equiv.blocks[k][k][None])
        assert np.array_equal(stacks[0][k, :m, :r], own[0][0])
        assert np.array_equal(stacks[1][k, :r], own[1][0])
        u, s, vh = np.linalg.svd(equiv.blocks[k][k], full_matrices=False)
        phases = _pinned_by_column(u)
        assert np.array_equal(triplets[k][0], u * phases)
        assert np.array_equal(triplets[k][1], s)
        assert np.array_equal(triplets[k][2], vh.conj().T * phases)
    for cfg in configs:
        stack = design_receive_beamformers(equiv, cfg)
        # one read-only, zero-padded stack: each filter in its corner
        assert stack.shape == (cfg.num_users, max(cfg.rx_antennas), max(cfg.dof))
        assert not stack.flags.writeable
        receive = corners(stack, cfg.rx_antennas, cfg.dof)
        for k, d in enumerate(cfg.dof):
            assert not stack[k, cfg.rx_antennas[k]:].any() and not stack[k, :, d:].any()
            assert np.array_equal(receive[k], triplets[k][0][:, :d])
            assert not receive[k].flags.writeable


ORACLE_GEOMETRIES = [dict(rx_antennas=2, tx_antennas=2, num_users=5),
                     dict(rx_antennas=(3, 2, 2), tx_antennas=(2, 2, 3), num_users=3)]


@pytest.mark.parametrize("geometry", ORACLE_GEOMETRIES, ids=["k5-2x2", "ragged-322"])
def test_null_spaces_match_the_boolean_mask_rule(geometry):
    # Every slot of the time-share table, at the default and a loose
    # tolerance: the stacked null-space step equals a per-user ``eigh``
    # whose kept columns are picked by the mask ``vals <= rank_tol * max``,
    # phases pinned column by column, bit for bit.
    spec = ExperimentSpec(**geometry, dof_total=4, schemes=("oneshot_partial",))
    configs = [spec.slot_config(row) for row in spec.slot_dof()]
    for seed in range(3):
        equiv = _equiv(configs[0], seed)
        for cfg, rank_tol in itertools.product(configs, (1e-9, 0.3)):
            state = reciprocal_state(equiv, design_receive_beamformers(equiv, cfg), cfg,
                                     rank_tol)
            assert not state.null_bases.flags.writeable
            receive = _receive(equiv, cfg)
            for k, q in enumerate(reciprocal_covariances(equiv, receive)):
                vals, vecs = np.linalg.eigh(q)
                basis = vecs[:, vals <= rank_tol * max(float(vals[-1]), 0.0)]
                basis = basis * _pinned_by_column(basis)
                assert state.nullities[k] == basis.shape[1]
                assert _ranks(state, cfg)[k] == q.shape[0] - basis.shape[1]
                assert np.array_equal(_bases(state, cfg)[k], basis)
                # zeros past the basis's rows and columns
                assert not state.null_bases[k, q.shape[0]:].any()
                assert not state.null_bases[k, :, basis.shape[1]:].any()


@pytest.mark.parametrize("rx, tx, dof, dead, groups", [
    ((2,) * 5, (2,) * 5, (1, 1, 1, 1, 0), (3, 1), 1),
    ((3, 2, 2), (2, 2, 3), (1, 1, 1), (2, 1), 3),
    # users 0 and 2 share a shape, user 1 has a 3-row filter: the group of
    # user 0 is checked first, yet user 1 is the first deficient user
    ((2, 3, 2), (2, 2, 2), (1, 1, 1), (2, 1), 2),
], ids=["k5-2x2", "ragged-322", "two-groups"])
def test_rank_check_names_the_first_deficient_user(monkeypatch, rx, tx, dof, dead, groups):
    # Zeroed direct blocks collapse those users' links after precoding.
    cfg = NetworkConfig(rx, tx, dof)
    blocks = [[b.copy() for b in row] for row in _equiv(cfg, 5).blocks]
    for k in dead:
        blocks[k][k][...] = 0.0
    equiv = EquivalentChannel(blocks)
    equiv._direct_svd  # the draw's cached SVD, built before counting
    svds, svd = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        svds.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    with pytest.raises(RankDeficientDesired, match=f"user {min(dead)} ") as exc:
        one_shot_ia(cfg, equiv)
    assert exc.value.user == min(dead)
    # one singular-value call per shape group of active users
    assert len(svds) == groups


def test_the_design_keeps_the_receive_stack_of_its_covariances(monkeypatch):
    # One stack per slot: the record holds the very array the receive step
    # returned and the reciprocal covariances were built from, silent user
    # included.
    stacks, states = [], []
    design, build = oneshot.design_receive_beamformers, oneshot.reciprocal_state

    def designed(*args, **kwargs):
        stacks.append(design(*args, **kwargs))
        return stacks[-1]

    def recorded(equiv, receive, *args, **kwargs):
        stacks.append(receive)
        states.append(build(equiv, receive, *args, **kwargs))
        return states[-1]

    monkeypatch.setattr(oneshot, "design_receive_beamformers", designed)
    monkeypatch.setattr(oneshot, "reciprocal_state", recorded)
    cfg = NetworkConfig.symmetric(5, 2, 2, (1, 1, 0, 1, 1))
    beams = one_shot_ia(cfg, _equiv(cfg, 4))
    (receive, passed), (state,) = stacks, states
    assert beams.receive_stack is receive and passed is receive
    assert not receive.flags.writeable
    assert receive.shape == (5, 2, 1)
    assert not receive[2].any()
    # the null-space step's record holds its counts and one basis stack
    assert [f.name for f in dataclasses.fields(state)] == [
        "nullities", "null_bases", "choice_counts"]
    assert state.null_bases.shape == (5, 4, 4) and not state.null_bases.flags.writeable
    assert all(type(n) is int for n in state.nullities + state.choice_counts)


def _record_selects(monkeypatch):
    # Wrap the module's selector the way a tracer does, keeping the
    # ``null_basis`` of every call.
    calls = []
    select = oneshot.select_transmit_beamformer

    def recorded(receive_k, direct_block, null_basis, *args, **kwargs):
        calls.append(null_basis)
        return select(receive_k, direct_block, null_basis, *args, **kwargs)

    monkeypatch.setattr(oneshot, "select_transmit_beamformer", recorded)
    return calls


SEARCH_CONFIGS = [
    NetworkConfig.symmetric(3, 8, 8, 3),
    # receive filters of 4 and 3 rows: two stacked searches of two users
    NetworkConfig(rx_antennas=(4, 4, 3, 3), tx_antennas=(4, 3, 4, 3), dof=(1, 1, 1, 1)),
]


# The ids name the selection rule under test, the geometric |det| pick,
# and the subset limit of the search (None: the package's own). Each
# 8x8 search scores 120 subsets, over either limit given; each ragged
# one scores 4, over a limit of 1 only.
@pytest.mark.parametrize("limit", [None, 1, 7], ids=lambda limit: f"geometric-{limit}")
@pytest.mark.parametrize("cfg, groups", zip(SEARCH_CONFIGS, [[3], [2, 2]]),
                         ids=["k3-8x8", "ragged-4433"])
def test_stacked_search_picks_what_per_user_calls_pick(monkeypatch, cfg, groups, limit):
    if limit is not None:
        monkeypatch.setattr(oneshot, "_MAX_SUBSETS", limit)
    calls = _record_selects(monkeypatch)
    for seed in range(3):
        equiv = _equiv(cfg, seed)
        state = reciprocal_state(equiv, design_receive_beamformers(equiv, cfg), cfg)
        receive, bases = _receive(equiv, cfg), _bases(state, cfg)
        # the selector imported above, not the recorded module attribute
        try:
            want = [_pick(receive[k], equiv.blocks[k][k], bases[k], cfg.dof[k], user=k)
                    for k in range(cfg.num_users)]
        except OneShotInfeasible as refused:
            # the stacked search refuses the same first user
            with pytest.raises(OneShotInfeasible) as exc:
                one_shot_ia(cfg, equiv)
            assert (exc.value.user, exc.value.nullity, exc.value.dof) == (
                refused.user, refused.nullity, refused.dof)
            assert limit is not None
            continue
        calls.clear()
        beams = one_shot_ia(cfg, equiv)
        # every user searched, one call per shape group
        assert [len(basis) for basis in calls] == groups
        assert all(basis.ndim == 3 for basis in calls)
        for got, expected in zip(beams.transmit, want):
            assert np.array_equal(got, expected)


def test_each_group_searches_and_checks_its_rank_before_a_failure_is_raised(monkeypatch):
    # Users 0 and 1 share 4-row filters and users 2 and 3 3-row ones, each
    # with more directions than streams. User 0's direct link is dead, yet
    # each group runs its search and then its rank check before user 0 is
    # reported.
    cfg = SEARCH_CONFIGS[1]
    blocks = [[b.copy() for b in row] for row in _equiv(cfg, 0).blocks]
    blocks[0][0][...] = 0.0
    equiv = EquivalentChannel(blocks)
    equiv._direct_svd  # the draw's cached SVD, built before recording
    events, svd, select = [], np.linalg.svd, oneshot.select_transmit_beamformer

    def counted_svd(a, *args, **kwargs):
        events.append(("svd", a.shape))
        return svd(a, *args, **kwargs)

    def recorded(receive_k, *args, **kwargs):
        events.append(("select", receive_k))
        return select(receive_k, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(oneshot, "select_transmit_beamformer", recorded)
    with pytest.raises(RankDeficientDesired, match="user 0 ") as exc:
        one_shot_ia(cfg, equiv)
    assert exc.value.user == 0
    assert [name for name, _ in events] == ["select", "svd", "select", "svd"]
    assert [a.shape for name, a in events if name == "select"] == [(2, 4, 1), (2, 3, 1)]
    assert [shape for name, shape in events if name == "svd"] == [(2, 1, 1), (2, 1, 1)]


def test_stacked_ties_straddling_chunks_keep_each_users_first_subset():
    # The tie of test_selector_ties_straddling_chunks_keep_first_subset,
    # stacked with its column-reversed copy, whose tied best subsets sit
    # elsewhere in the lexicographic order, and a random user: the
    # stacked search breaks every user's tie as that user's own call
    # does.
    rng = np.random.default_rng(8)
    receive = np.eye(2, dtype=np.complex128)
    direct = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.complex128)
    basis = np.array([[1, 0, 0.5, 0, 0.3],
                      [0, 1, 0.2, 1, 0.3],
                      [0, 0, 0.0, 1, 1.0]], dtype=np.complex128)
    bases = np.array([basis, basis[:, ::-1],
                      rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))])
    receives = np.array([receive, receive, random_orthonormal(rng, 2, 2)])
    directs = np.array([direct, direct,
                        rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))])
    picks = select_transmit_beamformer(receives, directs, bases, 2)
    assert picks.shape == (3, 3, 2)
    assert np.array_equal(picks[0], basis[:, [0, 1]])
    for pick, r, h, b in zip(picks, receives, directs, bases):
        assert np.array_equal(pick, _pick(r, h, b, 2))
        assert np.array_equal(pick, _loop_pick(r, h, b, 2))

