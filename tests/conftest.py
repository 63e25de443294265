"""Shared helpers for the test suite."""

import numpy as np
import pytest

from pcia.network import NetworkConfig, generate_channel


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def k3_config():
    return NetworkConfig.symmetric(3, 2, 2, 1)


@pytest.fixture
def k3_channel(k3_config):
    return generate_channel(k3_config, 424242)


def cached_arrays(channel, equiv) -> list:
    """Every per-draw cached array of a channel and its paired view, built by reading it."""
    arrays = list(channel._rows)
    for grid in (channel, equiv):
        arrays += [grid._stacked, grid._reciprocal]
        arrays += [a for triplet in grid._direct_svd for a in triplet]
    return arrays
