"""Shared helpers for the test suite."""

import numpy as np
import pytest

from pcia.linalg import _covariance_stack, _interferer_weights, _stack, _unit_power_weights
from pcia.network import NetworkConfig, build_permutation, equivalent_channel, generate_channel


def random_orthonormal(rng, rows: int, cols: int) -> np.ndarray:
    """Haar-ish random matrix with orthonormal columns."""
    raw = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, _ = np.linalg.qr(raw)
    return q[:, :cols]


def blockdiag(mats) -> np.ndarray:
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols), dtype=np.complex128)
    r = c = 0
    for m in mats:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


def zero_padded(grid) -> np.ndarray:
    """The documented zero-padded ``(K, K, m, n)`` stacked form of a list grid,
    built block by block without the package's helpers."""
    rows = max(b.shape[0] for row in grid for b in row)
    cols = max(b.shape[1] for row in grid for b in row)
    out = np.zeros((len(grid), len(grid), rows, cols), dtype=np.complex128)
    for k, row in enumerate(grid):
        for l, b in enumerate(row):
            out[k, l, :b.shape[0], :b.shape[1]] = b
    return out


def overall_precoder(transmit, config) -> np.ndarray:
    """The network-wide per-station precoder equivalent to the stacked per-pair ones.

    Each stream column carries its user's precoder on the physical rows
    that :func:`pcia.build_permutation` gathers into that user's stack,
    and zeros on every other station.
    """
    order = build_permutation(config).column_order
    v = np.zeros((config.total_tx_antennas, config.dof_total), dtype=np.complex128)
    row = col = 0
    for w, width, d in zip(transmit, config.paired_widths, config.dof, strict=True):
        v[order[row:row + width], col:col + d] = w
        row += width
        col += d
    return v


def selection_matrix(perm) -> np.ndarray:
    """Dense 0/1 matrix ``P`` of a column map, so that ``H @ P`` gathers the columns."""
    p = np.zeros((sum(perm.station_widths), len(perm.column_order)))
    p[perm.column_order, np.arange(len(perm.column_order))] = 1.0
    return p


def received_signal_power(receive_k, direct_block, transmit_k, power_k, dof_k) -> float:
    """Desired-signal power at the filter output, ``power_k`` split evenly over ``dof_k`` streams."""
    if dof_k == 0:
        return 0.0
    eff = receive_k.conj().T @ direct_block @ transmit_k
    return power_k / dof_k * float(np.real(np.trace(eff @ eff.conj().T)))


def covariances(stack, beams, weights) -> np.ndarray:
    """The package kernel on a view's transmitter-major ``_forward`` or ``_reverse``
    grid, with per-user beams and per-user weights, as one ``(K, m, m)`` array."""
    counts = tuple(b.shape[1] for b in beams)
    return _covariance_stack(stack, _stack(beams, stack.shape[2], max(counts)),
                             _interferer_weights(tuple(weights), counts))


def reciprocal_covariances(equiv, receive, dof) -> list:
    """The reciprocal interference covariance of each user, as :func:`pcia.reciprocal_state`
    builds it: the package kernel on the cached reverse grid at unit power per message."""
    q = covariances(equiv._reverse, receive, _unit_power_weights(dof))
    return [q[k, :w, :w] for k, w in enumerate(equiv.tx_sizes)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def k3_config():
    return NetworkConfig.symmetric(3, 2, 2, 1)


@pytest.fixture
def k3_channel(k3_config):
    return generate_channel(k3_config, 424242)


@pytest.fixture
def k3_equiv(k3_config, k3_channel):
    return equivalent_channel(k3_channel, build_permutation(k3_config))


def cached_arrays(channel, equiv) -> list:
    """Every per-draw cached array of a channel and its paired view, built by reading it."""
    arrays = list(channel._rows)
    for grid in (channel, equiv):
        arrays += [grid._stacked, grid._row_stack, grid._forward, grid._reverse]
        arrays += [a for triplet in grid._direct_svd for a in triplet]
    return arrays
