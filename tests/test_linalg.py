"""The shared interference-covariance kernel on a ragged grid.

Stations carry 2, 3 and 2 antennas and user 2 is silent, so the blocks
are not square, the paired widths differ (4, 5, 5), and one transmitter
sends nothing. The kernel runs on a view's cached zero-padded link
grids and each covariance is cut to its receiver's size. Oracles:
explicit sums over interferers and streams.
"""

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from pcia import (
    EquivalentChannel,
    NetworkConfig,
    build_permutation,
    design_receive_beamformers,
    equivalent_channel,
    generate_channel,
)
from pcia.distributed import _padding
from pcia.linalg import (
    _column_heads,
    _covariance_stack,
    _eigh,
    _interferer_weights,
    _lapack_errors,
    _pinned_svd,
    _slogdet,
    fix_column_phases,
)

from conftest import corners, covariances, random_orthonormal, reciprocal_covariances

CONFIG = NetworkConfig(rx_antennas=(2, 3, 2), tx_antennas=(2, 3, 2), dof=(1, 2, 0))
WEIGHTS = [1.0, 0.5, 0.0]   # unit power / streams, zero for the silent user


@pytest.fixture(params=[0, 1, 2])
def ragged(request):
    rng = np.random.default_rng(request.param)
    equiv = equivalent_channel(generate_channel(CONFIG, request.param),
                               build_permutation(CONFIG))
    transmit = [random_orthonormal(rng, w, d)
                for w, d in zip(CONFIG.paired_widths, CONFIG.dof)]
    receive = corners(design_receive_beamformers(equiv, CONFIG), CONFIG.rx_antennas, CONFIG.dof)
    return equiv, transmit, receive


def _kernel(stack, beams, weights, sizes):
    # The shared kernel on a transmitter-major grid, each covariance cut to its size.
    q = covariances(stack, beams, weights)
    return [q[k, :size, :size] for k, size in enumerate(sizes)]


def _double_sum(grid, beams, weights, k):
    size = grid[k][k].shape[0]
    q = np.zeros((size, size), dtype=np.complex128)
    for l in range(len(grid)):
        if l == k:
            continue
        for s in range(beams[l].shape[1]):
            col = grid[k][l] @ beams[l][:, s]
            q += weights[l] * np.outer(col, col.conj())
    return q


def test_reciprocal_transposes_and_conjugates_the_grid(ragged):
    # Entry l of the reverse grid stacks blocks[l][k]^H over k, each in a
    # zero-padded 5 x 3 slot.
    blocks = ragged[0].blocks
    assert ragged[0]._reverse.shape == (3, 15, 3) and ragged[0]._reverse.flags.c_contiguous
    rev = ragged[0]._reverse.reshape(3, 3, 5, 3)
    for k in range(3):
        for l in range(3):
            n, m = blocks[l][k].shape[::-1]
            assert np.array_equal(rev[l, k, :n, :m], blocks[l][k].conj().T)
            assert not rev[l, k, n:].any() and not rev[l, k, :, m:].any()


def test_forward_kernel_matches_double_sum_and_is_hermitian(ragged):
    blocks, transmit = ragged[0].blocks, ragged[1]
    covs = _kernel(ragged[0]._forward, transmit, WEIGHTS, CONFIG.rx_antennas)
    for k, q in enumerate(covs):
        assert q.shape == (CONFIG.rx_antennas[k],) * 2
        assert np.array_equal(q, q.conj().T)
        np.testing.assert_allclose(q, _double_sum(blocks, transmit, WEIGHTS, k),
                                   rtol=0, atol=1e-12)


def test_reverse_kernel_is_the_reciprocal_interference_covariance(ragged):
    equiv, _, receive = ragged
    blocks = equiv.blocks
    covs = _kernel(equiv._reverse, receive, WEIGHTS, CONFIG.paired_widths)
    # What the one-shot design reads: the cached reverse grid, unit-power weights.
    cached = reciprocal_covariances(equiv, receive, CONFIG.dof)
    for k, q in enumerate(covs):
        assert q.shape == (CONFIG.paired_widths[k],) * 2
        assert np.array_equal(q, q.conj().T)
        assert np.array_equal(q, cached[k])
        oracle = sum(WEIGHTS[l] * blocks[l][k].conj().T @ receive[l]
                     @ receive[l].conj().T @ blocks[l][k]
                     for l in range(3) if l != k)
        np.testing.assert_allclose(q, oracle, rtol=0, atol=1e-12)


def test_silent_transmitter_contributes_nothing(ragged):
    equiv, transmit, receive = ragged
    blocks = equiv.blocks
    loud = WEIGHTS[:2] + [1e6]
    scrambled = [[b * 7.0 if l == 2 else b for l, b in enumerate(row)] for row in blocks]
    for g, beams, sizes in ((equiv._forward, transmit, CONFIG.rx_antennas),
                            (equiv._reverse, receive, CONFIG.paired_widths)):
        base = _kernel(g, beams, WEIGHTS, sizes)
        assert all(np.array_equal(a, b) for a, b in
                   zip(base, _kernel(g, beams, loud, sizes)))
    base = _kernel(equiv._forward, transmit, WEIGHTS, CONFIG.rx_antennas)
    moved = _kernel(EquivalentChannel(scrambled)._forward, transmit, WEIGHTS, CONFIG.rx_antennas)
    for k in (0, 1):
        assert np.array_equal(base[k], moved[k])


def _receiver_major(grid, beams, weights):
    # The kernel's receiver-major formula at full weights: K^2 block
    # products, then A = (x * w) @ x^H and 0.5 * (A + A^H).
    users, _, rows, _ = grid.shape
    x = (grid @ beams).transpose(0, 2, 1, 3).reshape(users, rows, -1)
    a = (x * weights.reshape(users, 1, -1)) @ x.conj().transpose(0, 2, 1)
    return 0.5 * (a + a.conj().transpose(0, 2, 1))


def _full_weights(weights, counts):
    # (K, K, d): weights[l] on transmitter l's real columns, zero on the
    # receiver's own transmitter and on padding columns.
    users = len(counts)
    out = np.zeros((users, users, max(counts)))
    for k in range(users):
        for l in range(users):
            if l != k:
                out[k, l, :counts[l]] = weights[l]
    return out


def _padded(beams, rows, cols):
    out = np.zeros((len(beams), rows, cols), dtype=np.complex128)
    for slot, b in zip(out, beams):
        slot[:b.shape[0], :b.shape[1]] = b
    return out


@pytest.mark.parametrize("config", [
    CONFIG,                                # a silent user, a 2-stream user, padded rows
    NetworkConfig.symmetric(5, 2, 2, 1),   # the iterative benchmark's grid
    NetworkConfig.symmetric(3, 1, 1, 1),   # one-row forward blocks
], ids=["ragged", "k5-2x2", "one-row"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_equals_the_receiver_major_formula_bit_for_bit(config, seed):
    rng = np.random.default_rng(seed)
    equiv = equivalent_channel(generate_channel(config, seed), build_permutation(config))
    transmit = [random_orthonormal(rng, w, d)
                for w, d in zip(config.paired_widths, config.dof)]
    receive = corners(design_receive_beamformers(equiv, config), config.rx_antennas, config.dof)
    weights = [1.0 / d if d else 0.0 for d in config.dof]
    counts = tuple(config.dof)
    full = _full_weights(weights, counts)
    # The receiver-major (K, K, m, n) grids, entry [k, l] the link from l
    # into k: the stacked grid, and the reciprocal one built here,
    # C-contiguous as the stacked grid is.
    reciprocal = np.ascontiguousarray(equiv._stacked.transpose(1, 0, 3, 2)).conj()
    for grid, stack, beams in ((equiv._stacked, equiv._forward, transmit),
                               (reciprocal, equiv._reverse, receive)):
        oracle = _receiver_major(grid, _padded(beams, grid.shape[3], max(counts)), full)
        assert np.array_equal(covariances(stack, beams, weights), oracle)
        assert stack.shape == (len(counts), len(counts) * grid.shape[2], grid.shape[3])
        got = _covariance_stack(stack, _padded(beams, grid.shape[3], max(counts)),
                                _interferer_weights(tuple(weights), counts))
        assert np.array_equal(got, oracle)
        # entry l of the transmitter-major stack is transmitter l's column of blocks
        for l in range(len(counts)):
            assert np.array_equal(stack[l], np.concatenate(list(grid[:, l])))


def test_interferer_weights_are_cached_read_only_half_weights():
    counts = tuple(CONFIG.dof)
    half = _interferer_weights(tuple(WEIGHTS), counts)
    assert half.shape == (3, 1, 3 * max(counts))
    assert not half.flags.writeable
    with pytest.raises(ValueError):
        half[0, 0, 0] = 1.0
    assert np.array_equal(half, 0.5 * _full_weights(WEIGHTS, counts).reshape(3, 1, -1))
    assert _interferer_weights(tuple(WEIGHTS), counts) is half


def test_column_heads_are_cached_read_only_flat_positions():
    heads = _column_heads((5, 4, 3))
    assert _column_heads((5, 4, 3)) is heads
    assert not heads.flags.writeable
    with pytest.raises(ValueError):
        heads[0, 0] = 1
    # Row ``r`` of column ``c`` of matrix ``s`` sits at ``heads[s, c] + r * 3``.
    a = np.arange(60).reshape(5, 4, 3)
    for r in range(4):
        assert np.array_equal(a.take(heads + r * 3), a[:, r, :])
    assert np.array_equal(_column_heads((4, 3)), [0, 1, 2])


def test_weight_lists_of_the_wrong_length_are_rejected(ragged):
    equiv, transmit, _ = ragged
    for weights in ([1.0], [1.0] * 4):
        with pytest.raises(ValueError, match="one weight per user"):
            covariances(equiv._forward, transmit, weights)


def _pinned_loop(a, tol=1e-12):
    # Reference rule, one column at a time: the first entry above ``tol``
    # becomes real and positive; columns without one are left alone.
    a = np.array(a, dtype=np.complex128)
    phases = np.ones(a.shape[1], dtype=np.complex128)
    for j in range(a.shape[1]):
        nz = np.flatnonzero(np.abs(a[:, j]) > tol)
        if nz.size:
            phases[j] = a[nz[0], j].conjugate() / abs(a[nz[0], j])
    return a * phases, phases


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_phase_pinning_matches_the_column_loop(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((16, 10)) + 1j * rng.standard_normal((16, 10))
    a[:3, 1] = 0.0           # leading zeros
    a[0, 2] = 1e-13          # leading entry below the tolerance
    a[:, 3] = 0.0            # nothing to pin
    a[:, 4] = 1e-14 * (1 + 1j)
    expected, phases = _pinned_loop(a)
    got = fix_column_phases(a)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)
    for j in (3, 4):
        assert np.array_equal(got[:, j], a[:, j])

    # The SVD pins u's columns by the same rule and turns v's by the same
    # phases, so the product is unchanged; a diagonal matrix's u has its
    # leading nonzero entries below row 0.
    for m in (a[:, :7], np.diag([1.0, 3.0, 2.0]) * np.exp(1j * np.arange(3))):
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        pu, ps, pv = (x[0] for x in _pinned_svd(m[None]))
        want, phases = _pinned_loop(u)
        np.testing.assert_allclose(pu, want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(pv, vh.conj().T * phases, rtol=0, atol=1e-15)
        assert np.array_equal(ps, s)
        np.testing.assert_allclose((pu * ps) @ pv.conj().T, m, rtol=0, atol=1e-13)
    # a real basis keeps its dtype; its phases are signs
    real = rng.standard_normal((5, 4))
    assert fix_column_phases(real).dtype == real.dtype
    assert np.array_equal(fix_column_phases(real), real * np.sign(real[0]))


def _hermitian_stacks(width):
    # A random complex Hermitian PSD stack of ``width`` x ``width`` matrices,
    # and the trace-loaded padded form the leakage loop builds when rows
    # past 1 are zero padding.
    rng = np.random.default_rng(width)
    x = rng.standard_normal((5, width, width)) + 1j * rng.standard_normal((5, width, width))
    q = x @ x.conj().transpose(0, 2, 1)
    padded = _padding([max(1, width - k % 3) for k in range(5)], width)
    if padded is None:
        return [q]
    real = np.diagonal(padded, axis1=1, axis2=2) == 0.0
    cut = q * (real[:, :, None] & real[:, None, :])
    load = 2.0 * np.trace(cut, axis1=1, axis2=2).real + 1.0
    return [q, cut + load[:, None, None] * padded]


@pytest.mark.parametrize("width", range(1, 9))
def test_lapack_helpers_match_numpy_bit_for_bit(width):
    rng = np.random.default_rng(100 + width)
    general = rng.standard_normal((6, width, width)) + 1j * rng.standard_normal((6, width, width))
    for q in _hermitian_stacks(width) + [q.real.copy() for q in _hermitian_stacks(width)]:
        with _lapack_errors():
            vals, vecs = _eigh(q)
        want = np.linalg.eigh(q)
        assert np.array_equal(vals, want.eigenvalues) and vals.dtype == want.eigenvalues.dtype
        assert np.array_equal(vecs, want.eigenvectors) and vecs.dtype == want.eigenvectors.dtype
    for a in (general, general.real.copy(), _hermitian_stacks(width)[-1]):
        sign, logdet = _slogdet(a)
        want = np.linalg.slogdet(a)
        assert np.array_equal(sign, want.sign) and np.array_equal(logdet, want.logabsdet)
        assert sign.dtype == want.sign.dtype
    singular = general.copy()
    singular[:, :, 0] = 0.0
    assert np.array_equal(_slogdet(singular)[1], np.linalg.slogdet(singular).logabsdet)


def test_the_error_state_raises_on_an_invalid_value_as_numpys_eigh_does():
    before = np.geterr()
    with _lapack_errors():
        # the state np.linalg.eigh enters around its gufunc call
        assert np.geterr() == {"divide": "ignore", "over": "ignore",
                               "under": "ignore", "invalid": "call"}
        with pytest.raises(LinAlgError, match="NaN or infinite value arose"):
            np.subtract(np.array([np.inf]), np.inf)
        # overflow is ignored, as in np.linalg.eigh
        assert np.multiply(np.array([1e300]), 1e300)[0] == np.inf
    assert np.geterr() == before
