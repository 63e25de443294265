"""Monte-Carlo evaluation harness comparing the coordination schemes.

One experiment fixes the cell geometry and stream budget, then sweeps
SNR over many channel draws. All schemes see the same realizations,
per-trial seeds are derived from the master seed alone, and aggregation
follows a fixed order, so results never depend on how many workers ran
the trials. Stream budgets that do not divide evenly are delivered by
cycling the slot plans of :func:`pcia.feasibility.time_share_schedule`
and averaging rates across slots.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError

from .distributed import DistributedInfeasible, iterate_distributed_ia
from .feasibility import _slot_count, time_share_schedule
from .linalg import (
    _NOT_NUMBERS,
    _check_filter_lists,
    _padded_streams,
    _slogdet,
    _stack,
    _stream_weights,
)
from .network import (
    NetworkConfig,
    _integral,
    _per_user,
    _real,
    _tolerance,
    _view,
    build_permutation,
    equivalent_channel,
    generate_channel,
)
from .oneshot import OneShotInfeasible, RankDeficientDesired, one_shot_ia
from .zeroforcing import BDInfeasible, bd_zero_forcing

__all__ = [
    "SCHEMES",
    "ExperimentSpec",
    "PointStats",
    "ExperimentResult",
    "sum_rate",
    "alignment_residual",
    "run_experiment",
    "check_spec",
    "multiplexing_gain_estimate",
]

SCHEMES = ("oneshot_partial", "distributed_partial", "distributed_generic", "bdzf_full")


def _filter_stacks(blocks, receive, transmit, dof=None):
    """A caller's grid and filters as ``(grid, receive, transmit)`` stacks.

    A stacked ``blocks`` array is taken as it is, anything else through the
    checked channel view. Two filter arrays are taken as stacked; lists are
    checked, against the view's block sizes if there is one, and
    zero-padded to the widest filter on either side.
    """
    view = None if isinstance(blocks, np.ndarray) else _view(blocks)
    grid = blocks if view is None else view._stacked
    if isinstance(receive, np.ndarray) and isinstance(transmit, np.ndarray):
        return grid, receive, transmit
    sizes = None if view is None else (view.rx_sizes, view.tx_sizes)
    _check_filter_lists(len(grid), receive, transmit, dof, sizes)
    width = max(b.shape[1] for b in (*receive, *transmit))
    return grid, _stack(receive, grid.shape[2], width), _stack(transmit, grid.shape[3], width)


def sum_rate(blocks, receive, transmit, powers, dof, noise_power):
    """Achievable rates treating residual interference as noise.

    Args:
        blocks: square grid; ``blocks[k][l]`` carries transmitter ``l``
            into receiver ``k``. A list grid or a channel view is read
            through the checked channel view the solvers take; a
            zero-padded ``(K, K, m, n)`` stacked array is taken as it is.
            Its transmitter axis may have length 1 when every transmitter
            reaches receiver ``k`` through the same rows.
        receive, transmit: per-user filter and precoder lists, user ``k``'s
            with ``dof[k]`` columns and, unless ``blocks`` is stacked, as
            many rows as its blocks; or both already stacked into
            zero-padded ``(K, m, d)`` and ``(K, n, d)`` arrays, matching a
            stacked ``blocks``, as a :class:`~pcia.BeamformerSet` holds
            them, and taken unchecked.
        powers: total power per user, split equally over its streams.
        dof: stream counts; users at zero contribute and receive nothing.
        noise_power: receive noise variance per antenna.

    Returns:
        (per_user, total): rates in bits per channel use.

    Raises:
        ValueError: ``powers`` does not give one non-negative, finite
            power per user, ``noise_power`` is negative, NaN or infinite,
            a power or the noise power is a bool or a string,
            a list grid is malformed, or per-user filter lists do not fit
            the grid and ``dof`` or hold a NaN or infinite entry.
        numpy.linalg.LinAlgError: the sum rate is NaN; finite channel
            entries whose products overflow, say.
    """
    if isinstance(noise_power, _NOT_NUMBERS) or not 0.0 <= noise_power < math.inf:
        raise ValueError(f"noise_power must be non-negative and finite, got {noise_power!r}")
    # All users are scored together on the stacked grid. The filtered
    # gains F_kl = U_k^H G_kl V_l sqrt(w_l) are built once; the signal of
    # user k is F_kk F_kk^H and its interference the sum of F_kl F_kl^H
    # over l != k. Filters are zero-padded to a common stream width, which
    # adds nothing to any Gram product; user k's filter outputs past
    # dof[k] get an identity, which leaves every determinant unchanged.
    grid, u, v = _filter_stacks(blocks, receive, transmit, dof)
    users, _, width = u.shape
    uh = u.conj().transpose(0, 2, 1)
    amplitude = np.sqrt(_stream_weights(powers, dof))
    gains = uh[:, None] @ grid @ (v * amplitude[:, None, None])
    gram = (gains @ gains.conj().transpose(0, 1, 3, 2)).reshape(users * users, width, width)
    # Rows [:K] of ``covs`` end as phi + signal and rows [K:] as phi, so
    # one slogdet takes both determinants of every user.
    covs = np.empty((2 * users, width, width), dtype=np.complex128)
    signal, phi = covs[:users], covs[users:]
    own = gram[::users + 1]            # F_kk F_kk^H, a view
    signal[...] = own
    own[...] = 0.0
    np.add(noise_power * (uh @ u),
           np.add.reduce(gram.reshape(users, users, width, width), axis=1), out=phi)
    diagonal = phi.reshape(users, width * width)[:, ::width + 1]
    diagonal += _padded_streams(width, tuple(dof))
    np.add(phi, signal, out=signal)
    logdet = _slogdet(covs)[1]
    rates = ((logdet[:users] - logdet[users:]) / math.log(2.0)).tolist()
    per_user = [r if d > 0 else 0.0 for r, d in zip(rates, dof)]
    total = float(sum(per_user))
    if math.isnan(total):
        raise LinAlgError(f"sum rate {total} is not a number")
    return per_user, total


def _frobenius(x: np.ndarray, axis: tuple) -> np.ndarray:
    """Frobenius norms over ``axis``, by numpy's own formula for ``norm(x, axis=axis)``."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis))


def alignment_residual(blocks, receive, transmit) -> float:
    """Worst normalized cross-link gain left after filtering.

    Maximum over ordered user pairs of the Frobenius norm of the filtered
    interference, normalized by the norms of the three factors. Zero when
    no interfering pair exists. ``blocks`` and the filters take the forms
    and checks of :func:`sum_rate`, and a NaN residual raises
    ``numpy.linalg.LinAlgError`` as a NaN sum rate does.
    """
    # Every filtered cross link at once on the stacked grid. Zero padding
    # changes no norm, and a silent user's zero-width filter pads to zeros,
    # so ``den > 0`` skips silent receivers and transmitters as well as
    # the own links zeroed below.
    grid, u, v = _filter_stacks(blocks, receive, transmit)
    uh = u.conj().transpose(0, 2, 1)
    num = _frobenius(uh[:, None] @ grid @ v, (2, 3))
    den = _frobenius(uh, (1, 2))[:, None] * _frobenius(grid, (2, 3)) * _frobenius(v, (1, 2))
    den.reshape(-1)[::len(den) + 1] = 0.0
    ratios = np.divide(num, den, out=np.zeros(num.shape), where=den > 0)
    worst = float(np.maximum.reduce(ratios, axis=None))
    if math.isnan(worst):
        raise LinAlgError(f"alignment residual {worst} is not a number")
    return worst


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one Monte-Carlo comparison."""

    num_users: int
    rx_antennas: tuple
    tx_antennas: tuple
    dof_total: int
    schemes: tuple = SCHEMES
    snr_grid_db: tuple = (0.0, 10.0, 20.0, 30.0, 40.0)
    trials: int = 100
    seed: int = 0
    max_iters: int = 1000
    leakage_tol: float = 1e-8
    rank_tol: float = 1e-9

    def __post_init__(self):
        for name, least in (("num_users", 2), ("dof_total", 1), ("trials", 1), ("seed", 0),
                            ("max_iters", 1)):
            object.__setattr__(self, name, _integral(getattr(self, name), name, least))
        for name in ("rx_antennas", "tx_antennas"):
            object.__setattr__(self, name, _per_user(getattr(self, name), self.num_users, name, 1))
        _slot_count(self.num_users, self.dof_total)
        for name, entries in (("schemes", "scheme names"), ("snr_grid_db", "dB values")):
            if isinstance(getattr(self, name), (str, bytes)):
                raise ValueError(f"{name} must be a list of {entries}, got {getattr(self, name)!r}")
        schemes = tuple(self.schemes)
        if not schemes:
            raise ValueError("at least one scheme is required")
        for s in schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}; choose from {SCHEMES}")
        if len(set(schemes)) != len(schemes):
            raise ValueError(f"schemes must not repeat a scheme, got {list(schemes)}")
        object.__setattr__(self, "schemes", schemes)
        snr = tuple(_real(v, "snr_grid_db entry") for v in self.snr_grid_db)
        if not snr:
            raise ValueError("snr_grid_db must not be empty")
        try:
            finite = all(map(math.isfinite, snr + _grid_powers(snr)))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("snr_grid_db must hold finite values with a finite linear power")
        if len(set(snr)) != len(snr):
            raise ValueError(f"snr_grid_db must not repeat a point, got {list(snr)}")
        object.__setattr__(self, "snr_grid_db", snr)
        for name in ("leakage_tol", "rank_tol"):
            object.__setattr__(self, name, _tolerance(getattr(self, name), name))

    def slot_dof(self) -> tuple:
        """Per-slot stream assignments realizing ``dof_total`` on average."""
        return time_share_schedule(self.num_users, self.dof_total).slot_table

    def slot_config(self, dof_row) -> NetworkConfig:
        return NetworkConfig(self.rx_antennas, self.tx_antennas, tuple(dof_row))


@dataclasses.dataclass(frozen=True)
class PointStats:
    """Aggregated Monte-Carlo statistics for one (scheme, SNR) point."""

    mean_sum_rate: float
    std_err: float
    align_residual: float
    conv_frac: float
    mean_dof: float


@dataclasses.dataclass
class ExperimentResult:
    spec: ExperimentSpec
    points: dict

    def point(self, scheme: str, snr_db: float) -> PointStats:
        key = (scheme, float(snr_db))
        if key not in self.points:
            raise ValueError(f"no result for scheme {scheme!r} at {snr_db} dB")
        return self.points[key]

    def to_records(self):
        """Rows in canonical order: schemes as specified, then SNR."""
        records = []
        for scheme in self.spec.schemes:
            for snr in self.spec.snr_grid_db:
                stats = self.points[(scheme, snr)]
                records.append({
                    "scheme": scheme,
                    "snr_db": snr,
                    "mean_sum_rate": stats.mean_sum_rate,
                    "std_err": stats.std_err,
                    "align_residual": stats.align_residual,
                    "conv_frac": stats.conv_frac,
                    "mean_dof": stats.mean_dof,
                })
        return records


@functools.lru_cache(maxsize=16)
def _grid_powers(snr_grid_db: tuple) -> tuple:
    """Per-user power of every SNR point, once per grid: unit noise, so the linear SNR."""
    return tuple(float(10.0 ** (snr / 10.0)) for snr in snr_grid_db)


@functools.lru_cache(maxsize=64)
def _slot_power_scale(dof_row: tuple) -> tuple:
    """Per-message power factors keeping the slot's network power at K*P, once per row.

    Users silenced by the time-sharing schedule spend nothing, so their
    budget is pooled into the slot's active messages; otherwise comparing
    a time-shared scheme against an always-on one would not be power
    fair. Slots with every user active keep exactly P per message.
    """
    active = sum(1 for d in dof_row if d > 0)
    k = len(dof_row)
    return tuple(k / active if d > 0 else 0.0 for d in dof_row)


def _scored_slot(spec, grid, beams, power_scale):
    """Rates over the SNR grid, alignment residual, convergence and streams.

    The design's own filter stacks are scored at every SNR point as they are.
    """
    u, v = beams.receive_stack, beams.transmit_stack
    rates = np.zeros(len(spec.snr_grid_db))
    for i, p in enumerate(_grid_powers(spec.snr_grid_db)):
        _, rates[i] = sum_rate(grid, u, v, [p * s for s in power_scale], beams.dof, 1.0)
    resid = alignment_residual(grid, u, v)
    return rates, resid, float(beams.converged), float(beams.dof_total)


# The solvers' typed infeasibility errors: a sweep counts such a slot as
# a zero-rate failure, and :func:`check_spec` reports the message.
_INFEASIBLE = (OneShotInfeasible, RankDeficientDesired, DistributedInfeasible, BDInfeasible)


def _scheme_slots(scheme, configs):
    """The slot configs a scheme designs on: zero forcing runs once per draw."""
    return configs[:1] if scheme == "bdzf_full" else configs


def _design(spec, scheme, cfg, channel, equiv, trial, slot, max_iters):
    """One scheme's design for one slot of one draw, ready to score.

    Returns ``(grid, beams, power_scale)``: the channel view the design
    acts on, or zero forcing's row stack, then the design and the
    per-message power factors. A solver's typed infeasibility error
    propagates.
    """
    if scheme == "bdzf_full":
        beams = bd_zero_forcing(channel, rank_tol=spec.rank_tol)
        # Every receiver sees its whole row block from every transmitter:
        # the view's row stack, on a transmitter axis of length 1 that the
        # scorers broadcast. Full coordination pools the per-user power
        # budgets and splits the pool equally over all delivered streams.
        grid = channel._row_stack[:, None]
        return grid, beams, [spec.num_users * d / beams.dof_total for d in beams.dof]
    if scheme == "oneshot_partial":
        grid = equiv
        beams = one_shot_ia(cfg, equiv, rank_tol=spec.rank_tol)
    else:
        # The iterative baseline is defined by leakage minimization alone,
        # so its one start is seeded random precoders. A signal-aware start
        # would hand it the solution the one-shot scheme is being credited
        # for, hiding the low-SNR gap the comparison exists to measure.
        grid = equiv if scheme == "distributed_partial" else channel
        beams = iterate_distributed_ia(
            grid, cfg.dof, max_iters=max_iters, leakage_tol=spec.leakage_tol,
            seed=np.random.SeedSequence((spec.seed, trial, slot)),
        )
    return grid, beams, _slot_power_scale(cfg.dof)


def _mean(values):
    """``np.mean(values, axis=0)`` of a non-empty list, bit for bit, without its wrapper.

    Floats give a float64 scalar and equal-length 1-D arrays their mean row.
    """
    return np.add.reduce(np.array(values), axis=0) / len(values)


def _mean_ignoring_nan(values) -> float:
    vals = [v for v in values if not math.isnan(v)]
    return float(_mean(vals)) if vals else float("nan")


@functools.lru_cache(maxsize=16)
def _slot_configs(spec: ExperimentSpec) -> tuple:
    """The validated config of every time-share slot, built once per spec."""
    return tuple(spec.slot_config(row) for row in spec.slot_dof())


def _trial_channels(spec: ExperimentSpec, trial: int):
    """Trial ``trial``'s channel draw, plus its paired view when a scheme needs it."""
    shape_cfg = _slot_configs(spec)[0]
    channel = generate_channel(shape_cfg, np.random.SeedSequence((spec.seed, trial)))
    equiv = None
    if any(s in ("oneshot_partial", "distributed_partial") for s in spec.schemes):
        equiv = equivalent_channel(channel, build_permutation(shape_cfg))
    return channel, equiv


def _run_single_trial(spec: ExperimentSpec, trial: int) -> dict:
    """All schemes on one channel realization; pure in (spec, trial)."""
    configs = _slot_configs(spec)
    channel, equiv = _trial_channels(spec, trial)
    out = {}
    for scheme in spec.schemes:
        slots = []
        for slot, cfg in enumerate(_scheme_slots(scheme, configs)):
            try:
                design = _design(spec, scheme, cfg, channel, equiv, trial, slot, spec.max_iters)
            except _INFEASIBLE:
                slots.append((np.zeros(len(spec.snr_grid_db)), math.nan, 0.0, 0.0))
            else:
                slots.append(_scored_slot(spec, *design))
        rates, resid, conv, dof = zip(*slots)
        out[scheme] = {
            "rates": _mean(rates),
            "resid": _mean_ignoring_nan(resid),
            "conv": float(_mean(conv)),
            "dof": float(_mean(dof)),
        }
    return out


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Sweep all schemes over the SNR grid for ``spec.trials`` channel draws.

    Per-trial seeds come from ``(spec.seed, trial)`` only and aggregation
    runs over trials in index order, so the result is identical for any
    ``workers`` count. Scheme failures on individual realizations count
    as zero rate and zero convergence instead of aborting the sweep.
    """
    workers = _integral(workers, "workers", 1)
    if workers == 1:
        outcomes = [_run_single_trial(spec, t) for t in range(spec.trials)]
    else:
        import concurrent.futures  # with its logging and threading, for pools only
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_single_trial, [spec] * spec.trials, range(spec.trials)))
    points = {}
    for scheme in spec.schemes:
        # One contiguous row per SNR point: a row reduction sums the
        # trials in the order, and with the pairwise blocking, of a
        # reduction over that point's column alone.
        rates = np.ascontiguousarray(np.vstack([o[scheme]["rates"] for o in outcomes]).T)
        resid = _mean_ignoring_nan([o[scheme]["resid"] for o in outcomes])
        conv = float(_mean([o[scheme]["conv"] for o in outcomes]))
        dof = float(_mean([o[scheme]["dof"] for o in outcomes]))
        means = (np.add.reduce(rates, axis=1) / spec.trials).tolist()
        if spec.trials > 1:
            errs = (np.std(rates, axis=1, ddof=1) / math.sqrt(spec.trials)).tolist()
        else:
            errs = [0.0] * len(means)
        for snr, mean, err in zip(spec.snr_grid_db, means, errs):
            points[(scheme, snr)] = PointStats(
                mean_sum_rate=mean,
                std_err=err,
                align_residual=resid,
                conv_frac=conv,
                mean_dof=dof,
            )
    return ExperimentResult(spec=spec, points=points)


def check_spec(spec: ExperimentSpec) -> Optional[str]:
    """Why the requested schemes cannot run on ``spec``'s geometry, or None.

    Every time-share slot must fit the antennas. Then the sweep's own
    per-slot design step runs each scheme on trial 0's channel draw, with
    the sweep's arguments but one iteration, so the check and the sweep
    share one set of rules. Only the solvers' typed infeasibility errors
    count: a rank-deficient direct link is a measure-zero event of one
    draw, not a verdict on the geometry. :func:`run_experiment` does not
    call this; a sweep counts an infeasible scheme's slots as zero-rate
    failures instead.
    """
    try:
        configs = _slot_configs(spec)
    except ValueError as exc:
        return f"time sharing still puts too many streams in one slot: {exc}"
    channel, equiv = _trial_channels(spec, 0)
    for scheme in spec.schemes:
        for slot, cfg in enumerate(_scheme_slots(scheme, configs)):
            try:
                _design(spec, scheme, cfg, channel, equiv, 0, slot, max_iters=1)
            except RankDeficientDesired:
                pass
            except _INFEASIBLE as exc:
                if scheme == "distributed_generic":
                    return f"without pairing, {exc}"
                return str(exc)
    return None


def multiplexing_gain_estimate(
    result: ExperimentResult, scheme: str, low_db: float, high_db: float
) -> float:
    """Rate slope against log SNR between two grid points.

    An ideal ``d``-stream link gains ``d`` bits per channel use for every
    doubling of SNR, so this estimates the delivered stream count from
    the high-SNR growth of the mean sum rate.
    """
    if high_db <= low_db:
        raise ValueError("high_db must exceed low_db")
    lo = result.point(scheme, low_db)
    hi = result.point(scheme, high_db)
    span = (high_db - low_db) / 10.0 * math.log2(10.0)
    return (hi.mean_sum_rate - lo.mean_sum_rate) / span
