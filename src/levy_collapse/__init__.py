"""Reflected spectrally one-sided processes with multiplicative collapses.

The package computes the stationary law of a reflected process whose
level is multiplied by a random factor in [0, 1] at Poisson epochs:
analytically through its Laplace-Stieltjes transform and moments, and
empirically through exact and discretized simulation engines, with
cross-validation suites tying the two together.
"""

from .errors import (
    ConfigError,
    DomainError,
    EmptyPool,
    LevyCollapseError,
    ModelError,
    ParseError,
    QuadratureFailure,
    SubordinatorInput,
    ValidationError,
)
from .models import (
    Beta1,
    BrownianDrift,
    CollapseLaw,
    CppMinusDrift,
    Deterministic,
    Erlang,
    Exponential,
    JumpDist,
    LevyModel,
    Pareto,
    Sum,
    Uniform01,
)
from .stationary import (
    StationarySolution,
    TransformGrid,
    bm_closed_form_lst,
    bm_roots,
    find_alpha_lambda,
    fixed_point_residual,
    incomplete_beta,
    level_crossing_p0,
    mm1_closed_form_lst,
    mm1_roots,
    onoff_mixture_lst,
    small_alpha_expansion_check,
    stationary_solution,
    tail_constant,
    w_tau_lst,
    wx_joint_lst,
)
from .simulate import (
    PathState,
    SamplePool,
    TailRow,
    coupling_check,
    embedded_chain_run,
    empirical_lst,
    explicit_solution,
    has_exact_wl,
    ks_critical,
    ks_statistic,
    loynes_run,
    path_simulate,
    replication_rng,
    sample_wl_bm,
    sample_wl_mm1,
    tail_table,
)
from .config import RunConfig, parse_config
from .runner import run_analyze, run_simulate, run_tail, run_validate

__version__ = "0.1.0"
