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

import concurrent.futures
import dataclasses
import functools
import math
from typing import Optional, Sequence

import numpy as np

from .distributed import DistributedInfeasible, iterate_distributed_ia
from .feasibility import time_share_schedule
from .linalg import _stack, _stack_grid, _stream_weights
from .network import (
    ChannelSet,
    NetworkConfig,
    _per_user,
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


def _filter_stacks(grid: np.ndarray, receive, transmit):
    """Receive and transmit filters as zero-padded ``(K, m, d)`` and ``(K, n, d)`` stacks.

    Two arrays are taken to be stacked already and come back unchanged;
    per-user lists are padded to the widest filter on either side.
    """
    if isinstance(receive, np.ndarray) and isinstance(transmit, np.ndarray):
        return receive, transmit
    width = max(b.shape[1] for b in (*receive, *transmit))
    return _stack(receive, grid.shape[2], width), _stack(transmit, grid.shape[3], width)


def sum_rate(blocks, receive, transmit, powers, dof, noise_power):
    """Achievable rates treating residual interference as noise.

    Args:
        blocks: square grid; ``blocks[k][l]`` carries transmitter ``l``
            into receiver ``k``. Either a list of lists of blocks or the
            grid already stacked into one zero-padded ``(K, K, m, n)``
            array, so a caller scoring one grid many times stacks it once.
        receive, transmit: per-user filter and precoder lists, user ``k``'s
            with ``dof[k]`` columns; or both already stacked into
            zero-padded ``(K, m, d)`` and ``(K, n, d)`` arrays, matching a
            stacked ``blocks``, so a caller scoring one design at many
            powers stacks it once.
        powers: total power per user, split equally over its streams.
        dof: stream counts; users at zero contribute and receive nothing.
        noise_power: receive noise variance per antenna.

    Returns:
        (per_user, total): rates in bits per channel use.
    """
    # All users are scored together on the stacked grid. The filtered
    # gains F_kl = U_k^H G_kl V_l sqrt(w_l) are built once; the signal of
    # user k is F_kk F_kk^H and its interference the sum of F_kl F_kl^H
    # over l != k. Filters are zero-padded to a common stream width, which
    # adds nothing to any Gram product; user k's filter outputs past
    # dof[k] get an identity, which leaves every determinant unchanged.
    grid = _stack_grid(blocks)
    u, v = _filter_stacks(grid, receive, transmit)
    users, _, width = u.shape
    uh = u.conj().transpose(0, 2, 1)
    amplitude = np.sqrt(_stream_weights(powers, dof))
    gains = uh[:, None] @ grid @ (v * amplitude[:, None, None])
    gram = (gains @ gains.conj().transpose(0, 1, 3, 2)).reshape(users * users, width, width)
    own = gram[::users + 1]            # F_kk F_kk^H, a view
    signal = own.copy()
    own[...] = 0.0
    phi = noise_power * (uh @ u) + gram.reshape(users, users, width, width).sum(axis=1)
    diagonal = phi.reshape(users, width * width)[:, ::width + 1]
    diagonal += np.arange(width) >= np.array(dof)[:, None]
    rates = (np.linalg.slogdet(phi + signal)[1] - np.linalg.slogdet(phi)[1]) / math.log(2.0)
    per_user = [float(r) if d > 0 else 0.0 for r, d in zip(rates, dof)]
    return per_user, float(sum(per_user))


def alignment_residual(blocks, receive, transmit) -> float:
    """Worst normalized cross-link gain left after filtering.

    Maximum over ordered user pairs of the Frobenius norm of the filtered
    interference, normalized by the norms of the three factors. Zero when
    no interfering pair exists. ``blocks`` is a list grid or its stacked
    zero-padded ``(K, K, m, n)`` array, and the filters per-user lists or
    zero-padded ``(K, m, d)`` and ``(K, n, d)`` stacks, as for
    :func:`sum_rate`.
    """
    # Every filtered cross link at once on the stacked grid. Zero padding
    # changes no norm, and a silent user's zero-width filter pads to zeros,
    # so ``den > 0`` skips silent receivers and transmitters as well as
    # the own links zeroed below.
    grid = _stack_grid(blocks)
    u, v = _filter_stacks(grid, receive, transmit)
    uh = u.conj().transpose(0, 2, 1)
    num = np.linalg.norm(uh[:, None] @ grid @ v, axis=(2, 3))
    den = (np.linalg.norm(uh, axis=(1, 2))[:, None]
           * np.linalg.norm(grid, axis=(2, 3))
           * np.linalg.norm(v, axis=(1, 2)))
    users = range(len(grid))
    den[users, users] = 0.0
    cross = den > 0
    return float(np.max(num[cross] / den[cross], initial=0.0))


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
        k = int(self.num_users)
        if k < 2:
            raise ValueError("experiments need at least two users")
        object.__setattr__(self, "num_users", k)
        for name in ("rx_antennas", "tx_antennas"):
            counts = _per_user(getattr(self, name), k, name, int)
            if any(v < 1 for v in counts):
                raise ValueError(f"{name} must give a positive count per user")
            object.__setattr__(self, name, counts)
        if int(self.dof_total) < 1:
            raise ValueError("dof_total must be positive")
        object.__setattr__(self, "dof_total", int(self.dof_total))
        schemes = tuple(self.schemes)
        if not schemes:
            raise ValueError("at least one scheme is required")
        for s in schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}; choose from {SCHEMES}")
        object.__setattr__(self, "schemes", schemes)
        snr = tuple(float(v) for v in self.snr_grid_db)
        if not snr:
            raise ValueError("snr_grid_db must not be empty")
        if not all(map(math.isfinite, snr)):
            raise ValueError("snr_grid_db must hold finite values")
        object.__setattr__(self, "snr_grid_db", snr)
        if int(self.trials) < 1:
            raise ValueError("trials must be positive")
        object.__setattr__(self, "trials", int(self.trials))
        if int(self.seed) < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        if int(self.max_iters) < 1:
            raise ValueError("max_iters must be positive")
        object.__setattr__(self, "max_iters", int(self.max_iters))
        for name in ("leakage_tol", "rank_tol"):
            tol = float(getattr(self, name))
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError(f"{name} must be positive and finite")
            object.__setattr__(self, name, tol)

    def slot_dof(self) -> tuple:
        """Per-slot stream assignments realizing ``dof_total`` on average."""
        return time_share_schedule(self.num_users, self.dof_total).slot_table

    def slot_config(self, dof_row, tx_power: float = 1.0) -> NetworkConfig:
        return NetworkConfig(
            rx_antennas=self.rx_antennas,
            tx_antennas=self.tx_antennas,
            dof=tuple(dof_row),
            tx_power=[tx_power] * self.num_users,
            noise_power=1.0,
        )


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


def _snr_powers(snr_db: float) -> float:
    # Unit noise everywhere, so per-user power is the linear SNR.
    return float(10.0 ** (snr_db / 10.0))


def _slot_power_scale(dof_row):
    """Per-message power factors keeping the slot's network power at K*P.

    Users silenced by the time-sharing schedule spend nothing, so their
    budget is pooled into the slot's active messages; otherwise comparing
    a time-shared scheme against an always-on one would not be power
    fair. Slots with every user active keep exactly P per message.
    """
    active = sum(1 for d in dof_row if d > 0)
    k = len(dof_row)
    return [k / active if d > 0 else 0.0 for d in dof_row]


def _scored_slot(spec, blocks, receive, transmit, dof, power_scale, conv):
    """Rates over the SNR grid, alignment residual, convergence and streams.

    The filters are stacked once here and scored at every SNR point.
    """
    receive, transmit = _filter_stacks(blocks, receive, transmit)
    rates = np.zeros(len(spec.snr_grid_db))
    for i, snr in enumerate(spec.snr_grid_db):
        p = _snr_powers(snr)
        powers = [p * s for s in power_scale]
        _, rates[i] = sum_rate(blocks, receive, transmit, powers, dof, 1.0)
    resid = alignment_residual(blocks, receive, transmit)
    return rates, resid, conv, float(sum(dof))


# The solvers' typed infeasibility errors: a sweep counts such a slot as
# a zero-rate failure, and :func:`check_spec` reports the message.
_INFEASIBLE = (OneShotInfeasible, RankDeficientDesired, DistributedInfeasible, BDInfeasible)


def _scheme_slots(scheme, configs):
    """The slot configs a scheme designs on: zero forcing runs once per draw."""
    return configs[:1] if scheme == "bdzf_full" else configs


def _design(spec, scheme, cfg, channel, equiv, trial, slot, max_iters):
    """One scheme's design for one slot of one draw, ready to score.

    Returns ``(grid, receive, transmit, dof, power_scale, conv)``: the
    stacked grid the filters act on, the filters, the delivered streams,
    the per-message power factors and the convergence flag. A solver's
    typed infeasibility error propagates.
    """
    if scheme == "bdzf_full":
        sol = bd_zero_forcing(channel, rank_tol=spec.rank_tol)
        # Every receiver sees its whole row block from every transmitter:
        # one stacked row per user, repeated along the transmitter axis as
        # a view. Full coordination pools the per-user power budgets and
        # splits the pool equally over all delivered streams.
        users = spec.num_users
        rows = _stack(channel._rows, max(spec.rx_antennas), sum(spec.tx_antennas))
        grid = np.broadcast_to(rows[:, None], (users, users) + rows.shape[1:])
        scale = [users * d / sol.dof_total for d in sol.dof]
        return grid, sol.receive, sol.transmit, sol.dof, scale, 1.0
    if scheme == "oneshot_partial":
        grid, conv = equiv, 1.0
        beams = one_shot_ia(cfg, equiv, rank_tol=spec.rank_tol)
    else:
        # The iterative baseline is defined by leakage minimization alone,
        # so start it from seeded random precoders. An SVD start would hand
        # it the signal-aware solution the one-shot scheme is being credited
        # for, hiding the low-SNR gap the comparison exists to measure.
        grid = equiv if scheme == "distributed_partial" else channel
        beams = iterate_distributed_ia(
            grid.blocks, cfg.dof, powers=[1.0] * spec.num_users,
            max_iters=max_iters, leakage_tol=spec.leakage_tol,
            init="random", seed=np.random.SeedSequence((spec.seed, trial, slot)),
        )
        conv = 1.0 if beams.converged else 0.0
    return (grid._stacked, beams.receive, beams.transmit, cfg.dof,
            _slot_power_scale(cfg.dof), conv)


def _mean_ignoring_nan(values) -> float:
    vals = [v for v in values if not math.isnan(v)]
    return float(np.mean(vals)) if vals else float("nan")


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
            "rates": np.mean(np.vstack(rates), axis=0),
            "resid": _mean_ignoring_nan(resid),
            "conv": float(np.mean(conv)),
            "dof": float(np.mean(dof)),
        }
    return out


def _trial_worker(args):
    return _run_single_trial(*args)


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Sweep all schemes over the SNR grid for ``spec.trials`` channel draws.

    Per-trial seeds come from ``(spec.seed, trial)`` only and aggregation
    runs over trials in index order, so the result is identical for any
    ``workers`` count. Scheme failures on individual realizations count
    as zero rate and zero convergence instead of aborting the sweep.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    jobs = [(spec, t) for t in range(spec.trials)]
    if workers == 1:
        outcomes = [_run_single_trial(spec, t) for _, t in jobs]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_trial_worker, jobs))
    points = {}
    for scheme in spec.schemes:
        rates = np.vstack([o[scheme]["rates"] for o in outcomes])
        resid = _mean_ignoring_nan([o[scheme]["resid"] for o in outcomes])
        conv = float(np.mean([o[scheme]["conv"] for o in outcomes]))
        dof = float(np.mean([o[scheme]["dof"] for o in outcomes]))
        for i, snr in enumerate(spec.snr_grid_db):
            column = rates[:, i]
            if spec.trials > 1:
                err = float(np.std(column, ddof=1) / math.sqrt(spec.trials))
            else:
                err = 0.0
            points[(scheme, snr)] = PointStats(
                mean_sum_rate=float(np.mean(column)),
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
