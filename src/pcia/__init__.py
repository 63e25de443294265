"""Interference alignment for partially coordinated multicell downlinks."""

from .network import (
    BeamformerSet,
    ChannelSet,
    EquivalentChannel,
    NetworkConfig,
    PermutationMap,
    build_permutation,
    effective_overall_precoder,
    equivalent_channel,
    generate_channel,
    split_beamformer,
    stack_beamformer,
)
from .feasibility import (
    BackhaulReport,
    FeasibilityVerdict,
    TimeShareSchedule,
    backhaul_rate,
    dof_upper_bound,
    is_proper_generic,
    is_proper_partial,
    time_share_schedule,
)
from .oneshot import (
    OneShotInfeasible,
    RankDeficientDesired,
    ReciprocalState,
    SvdCache,
    design_receive_beamformers,
    null_space_basis,
    one_shot_ia,
    received_signal_power,
    reciprocal_interference_covariance,
    reciprocal_state,
    select_transmit_beamformer,
)
from .distributed import (
    DistributedInfeasible,
    IterationTrace,
    iterate_distributed_ia,
    leakage,
)
from .zeroforcing import BDInfeasible, BDSolution, bd_zero_forcing
from .evaluation import (
    SCHEMES,
    ExperimentResult,
    ExperimentSpec,
    PointStats,
    alignment_residual,
    multiplexing_gain_estimate,
    run_experiment,
    sum_rate,
)

__version__ = "0.1.0"
