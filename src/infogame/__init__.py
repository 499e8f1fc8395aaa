"""Numerics for zero-sum stochastic differential games with asymmetric
information: belief-lattice envelopes, a monotone grid solver for the
primal value, exact tree oracles, Monte Carlo play of delayed strategies,
and dual-solution residual audits."""

from .errors import ConfigError, InvalidControlError, NumericsError
from .hamiltonian import ham_bellman_inf_sup, pair_table, sample_isaacs_gap
from .model import (
    ControlSet,
    GameModel,
    model_from_config,
    preset,
    preset_config,
    resolved_config,
    restrict_to_types,
    terminal_matrix,
    running_matrix,
)
from .oracle import (
    BeliefResult,
    TreeGame,
    belief_recursion,
    classical_backward,
    exact_payoff_pq,
    exact_payoff_tree,
    noise_branches,
)
from .simplex import SimplexGrid, build_grid, discrete_convexity_violation
from .simulator import (
    PayoffEstimate,
    PureStrategy,
    RandomStrategy,
    Resolution,
    StrategyProfile,
    constant_strategy,
    cycle_strategy,
    feedback_from_field,
    payoff_matrix,
    payoff_path,
    payoff_pq,
    payoff_samples,
    resolve_controls,
    sample_noise,
    split_mix,
)
from .solver import (
    Grids,
    SolveResult,
    StateGrid,
    build_state_grid,
    cfl_limit,
    classical_solve,
    dual_project,
    hjb_step,
    solve,
    terminal_field,
    validate_time_step,
)
from .transform import (
    biconjugate_p,
    cav_q,
    coordinate_difference_probes,
    facet_slope_probes,
    vex_p,
)
from .dualcheck import (
    CrosscheckReport,
    DualCheckReport,
    build_probes,
    check_dual_solution,
    default_tolerance,
    primal_crosscheck,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
