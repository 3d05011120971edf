"""Age-of-information analysis, optimization, and simulation of pooled status updating."""

from .analytic import (
    MomentSet,
    average_age,
    closed_form_moments,
    convolution_oracle,
    cycle_length_second_moment,
    enumeration_oracle,
    expected_cycle_length,
    mean_service_time,
    round_robin_age,
)
from .lambertw import BRANCH_POINT, lambert_w0, lambert_wm1
from .model import SystemConfig, divisors, validate_config
from .optimize import (
    STATIONARY_P_MAX,
    OptimizationResult,
    StationaryPoints,
    group_testing_efficiency_threshold,
    kstar_sweep,
    optimal_group_size_testing,
    optimal_group_size_updating,
    stationary_group_sizes,
    updating_efficiency_threshold,
)
from .sim import AgeSummary, empirical_moments, simulate_age

__version__ = "0.1.0"
