"""Small linear-algebra helpers shared by the alignment solvers.

Besides phase pinning and the shared interference-covariance kernel,
which reads a channel view's cached link grids as they are, this module
is the package's one way to LAPACK for ``eigh`` and ``slogdet``:
:func:`_eigh` and :func:`_slogdet` call the gufuncs that ``np.linalg``
calls, with the same signatures, but skip the public functions' per-call
Python wrapper, which dominates on the 2x2 to 8x8 matrices the solvers
decompose. Each result is bit for bit the public function's.
``np.linalg.eigh`` raises ``LinAlgError`` on non-convergence through an
error state that it enters on every call; here a caller enters
:func:`_lapack_errors` once around its ``_eigh`` calls, so the leakage
loop enters it once per run. ``svd`` stays on the public function.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

__all__ = ["fix_column_phases"]

# Entries at or below this modulus are treated as zero when pinning phases.
_PHASE_TOL = 1e-12

# Read as numbers by ``int`` or ``float`` (``True`` as 1, ``"1e-9"`` as
# 1e-9), but refused wherever a count, tolerance, power or dB value is due.
_NOT_NUMBERS = (bool, np.bool_, str, bytes)


def _pinning_phases(a: np.ndarray) -> np.ndarray:
    """Phases making each column's first entry above ``_PHASE_TOL`` real positive (1 if none).

    ``a`` may be one matrix or a stack of them; the phases have one entry
    per column of each matrix.
    """
    mag = np.abs(a)
    at = (mag > _PHASE_TOL).argmax(axis=-2) * a.shape[-1] + _column_heads(a.shape)
    size = mag.take(at)
    return np.divide(a.take(at).conj(), size, out=np.ones(size.shape, a.dtype),
                     where=size > _PHASE_TOL)


@functools.lru_cache(maxsize=64)
def _column_heads(shape: tuple) -> np.ndarray:
    """Read-only flat C-order positions of row 0 of every column of every matrix of ``shape``.

    Adding ``row * shape[-1]`` moves a position to that row of its column,
    so one ``take`` gathers an entry per column. Built once per shape.
    """
    *outer, rows, cols = shape
    heads = np.arange(math.prod(outer))[:, None] * (rows * cols) + np.arange(cols)
    return _read_only(heads.reshape(*outer, cols))


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only so a shared copy cannot be changed through it."""
    a.flags.writeable = False
    return a


def fix_column_phases(a: np.ndarray) -> np.ndarray:
    """Rotate each column so its first nonzero entry is real and positive.

    Basis vectors from eigen or singular value decompositions are only
    defined up to a unit phase; pinning the phase makes solver outputs
    reproducible across runs and platforms without changing any subspace.
    A stack of matrices is pinned matrix by matrix.
    """
    a = np.asarray(a)
    return a * _pinning_phases(a)[..., None, :]


def _lapack_failed(err: str, flag: int):
    raise LinAlgError(f"a NaN or infinite value arose ({err}), or eigenvalues did not converge")


def _lapack_errors() -> np.errstate:
    """``np.linalg.eigh``'s error state: an invalid value raises LinAlgError.

    LAPACK's non-convergence shows as an invalid-value event, as does any
    NaN that arises under the state, so the message names both causes.
    Overflow, division and underflow are ignored, as in ``np.linalg.eigh``.
    """
    return np.errstate(call=_lapack_failed, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


def _eigh(a: np.ndarray) -> tuple:
    """``np.linalg.eigh(a)`` of a float64 or complex128 stack, without its wrapper.

    Call it inside :func:`_lapack_errors`, which ``np.linalg.eigh`` enters
    for itself; outside it, non-convergence gives NaN instead of raising.
    Other dtypes are computed, and returned, at double precision.
    """
    return _umath_linalg.eigh_lo(a, signature="D->dD" if a.dtype.kind == "c" else "d->dd")


def _slogdet(a: np.ndarray) -> tuple:
    """``np.linalg.slogdet(a)`` as a ``(sign, logabsdet)`` tuple, without its wrapper."""
    return _umath_linalg.slogdet(a, signature="D->Dd" if a.dtype.kind == "c" else "d->dd")


def _pinned_svd(stack: np.ndarray) -> tuple:
    """Thin SVD ``(u, s, v)`` of a stack of matrices, phases pinned jointly.

    Column ``j`` of ``u`` and of ``v`` carry one shared free phase. Both
    get rotated by the phase that makes ``u``'s first nonzero entry real
    and positive; the common rotation cancels in
    ``u @ diag(s) @ v.conj().T``, which is left exactly as it was.
    """
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    phases = _pinning_phases(u)[..., None, :]
    return u * phases, s, vh.conj().transpose(0, 2, 1) * phases


def _stream_weights(powers: Sequence, dof: Sequence) -> list:
    """Per-stream power of each user: its total split evenly, 0 when silent."""
    if len(powers) != len(dof):
        raise ValueError(f"need one power per user: got {len(powers)} for {len(dof)} users")
    if any(isinstance(p, _NOT_NUMBERS) or not 0.0 <= p < math.inf for p in powers):
        raise ValueError(f"powers must be non-negative and finite numbers, got {list(powers)}")
    return [p / d if d > 0 else 0.0 for p, d in zip(powers, dof)]


def _unit_power_weights(dof: Sequence) -> list:
    """:func:`_stream_weights` at unit power per message, the power every design runs at."""
    return _stream_weights([1.0] * len(dof), dof)


def _check_filter_lists(users: int, receive, transmit, dof=None, sizes=None) -> None:
    """A ValueError naming the argument unless the lists fit ``users`` and ``dof``, if given.

    A filter with a NaN or infinite entry is rejected, naming its user, and
    so is one with columns whose row count differs from its block in
    ``sizes``, the grid's ``(rx_sizes, tx_sizes)``, if given. A silent
    user's zero-width filter carries nothing, so its rows are not read.
    """
    if dof is not None and len(dof) != users:
        raise ValueError(f"dof needs one entry per user: got {len(dof)} for {users} users")
    for name, filters, rows in zip(("receive", "transmit"), (receive, transmit),
                                   sizes or (None, None)):
        if len(filters) != users:
            raise ValueError(f"need one {name} filter per user: "
                             f"got {len(filters)} for {users} users")
        for k, f in enumerate(filters):
            if dof is not None and f.shape[1] != dof[k]:
                raise ValueError(f"{name} filter {k} has {f.shape[1]} columns for "
                                 f"dof[{k}] = {dof[k]}")
            if rows is not None and f.shape[1] and f.shape[0] != rows[k]:
                raise ValueError(f"{name} filter {k} has {f.shape[0]} rows for a block "
                                 f"of {rows[k]}")
            if not np.isfinite(f).all():
                raise ValueError(f"{name} filter {k} has a NaN or infinite entry")


def _stack(mats, rows: int, cols: int) -> np.ndarray:
    """Zero-padded ``(len(mats), rows, cols)`` stack of ragged matrices."""
    out = np.zeros((len(mats), rows, cols), dtype=np.complex128)
    for k, a in enumerate(mats):
        out[k, :a.shape[0], :a.shape[1]] = a
    return out


@functools.lru_cache(maxsize=64)
def _padded_streams(width: int, dof: tuple) -> np.ndarray:
    """Read-only ``(K, width)`` mask of each user's filter columns past ``dof[k]``.

    Built once per stream layout: the scorers' padded-stream identity and
    the one-shot receive step's zeroed columns.
    """
    return _read_only(np.arange(width) >= np.array(dof)[:, None])


@functools.lru_cache(maxsize=256)
def _groups(keys: tuple) -> tuple:
    """``(key, indices)`` per distinct entry of ``keys``, by first appearance, once per layout."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return tuple((key, _read_only(np.array(group, dtype=np.intp)))
                 for key, group in groups.items())


@functools.lru_cache(maxsize=64)
def _interferer_weights(weights: tuple, counts: tuple) -> np.ndarray:
    """Read-only ``(K, 1, K·d)`` half weights of transmitter ``l``'s columns at receiver ``k``.

    Entry ``[k, 0, l·d + j]`` is ``weights[l] / 2`` for the ``counts[l]``
    real columns of every other transmitter, and zero for the receiver's
    own transmitter and for padding columns up to the widest beam ``d``.
    Halving is exact, so the kernel's ``A + A^H`` over half weights is
    the Hermitized covariance at full weights. Built once per layout.
    """
    if len(weights) != len(counts):
        raise ValueError(
            f"need one weight per user: got {len(weights)} for {len(counts)} users")
    users = len(counts)
    out = np.zeros((users, users, max(counts)))
    for l, (w, count) in enumerate(zip(weights, counts)):
        out[:, l, :count] = 0.5 * w
    out[range(users), range(users)] = 0.0
    return _read_only(out.reshape(users, 1, -1))


def _covariance_stack(stack: np.ndarray, beams: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Interference covariances of a transmitter-major grid as one ``(K, m, m)`` array.

    ``stack`` is transmitter-major, ``(K, K·m, n)``: entry ``l`` stacks
    transmitter ``l``'s zero-padded blocks of every receiver, as a channel
    view caches its forward and reverse link grids. ``beams`` is
    ``(K, n, d)`` and ``weights`` is ``(K, 1, K·d)`` from
    :func:`_interferer_weights`. One product per transmitter gives every
    effective block ``G_kl B_l``; entry ``k`` is then the Hermitized
    ``X_k diag(w_k) X_k^H``, where ``X_k`` holds every transmitter's
    effective columns side by side and ``w_k`` is zero on user ``k``'s
    own and padding columns. Zero padding of blocks and beams is exact.
    """
    users, tall, _ = stack.shape
    rows = tall // users
    # One-row blocks stay vector products: a K-row product would round
    # them differently in the last bit, and move leakage histories.
    x = stack @ beams if rows > 1 else stack[:, :, None] @ beams[:, None]
    x = x.reshape(users, users, rows, -1).transpose(1, 2, 0, 3).reshape(users, rows, -1)
    q = (x * weights) @ x.conj().transpose(0, 2, 1)
    return np.add(q, q.conj().transpose(0, 2, 1), out=q)
