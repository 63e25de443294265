"""Interference alignment for partially coordinated multicell downlinks."""

from .network import (
    BeamformerSet,
    ChannelSet,
    EquivalentChannel,
    NetworkConfig,
    build_permutation,
    equivalent_channel,
    generate_channel,
)
from .feasibility import (
    FeasibilityVerdict,
    TimeShareSchedule,
    backhaul_rate,
    dof_upper_bound,
    is_proper_generic,
    is_proper_partial,
    time_share_schedule,
)
from .oneshot import OneShotInfeasible, RankDeficientDesired, one_shot_ia
from .distributed import DistributedInfeasible, iterate_distributed_ia
from .zeroforcing import BDInfeasible, bd_zero_forcing
from .evaluation import (
    SCHEMES,
    ExperimentResult,
    ExperimentSpec,
    PointStats,
    alignment_residual,
    check_spec,
    multiplexing_gain_estimate,
    run_experiment,
    sum_rate,
)

__version__ = "0.1.0"
