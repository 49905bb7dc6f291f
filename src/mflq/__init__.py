"""Mean-field linear-quadratic control: synthesis, stability, simulation.

Cooperative (social-optimum) and competitive (Nash) variants of the discounted
LQ problem with average-state coupling, for finite populations approximated by
their mean-field limit.  See the README for a tour.
"""

from .errors import (
    FiniteHorizonInsolvableError,
    ImaginaryAxisError,
    MFLQError,
    MeanFieldInfeasibleError,
    ModelValidationError,
    RiccatiBlowUpError,
    SimulationUnstableError,
    SingularSubspaceError,
    UnsupportedModelError,
)
from .model import (
    DerivedWeights,
    ModelParams,
    derived_weights,
    params_from_dict,
    params_from_json,
    params_to_dict,
    params_to_json,
    validate,
)
from .riccati import (
    AlgebraicRiccatiSolution,
    DifferentialRiccatiPath,
    FiniteHorizonCheck,
    HamiltonianMatrix,
    build_hamiltonian,
    finite_horizon_solvable,
    hamiltonian_from_blocks,
    solve_are_stable_subspace,
    solve_dre_backward,
)
from .stability import StabilizationReport, analyze, scalar_example1
from .social import (
    SocialGains,
    centralized_law,
    social_law,
    synth_social_finite,
    synth_social_infinite,
)
from .game import (
    GameGains,
    RepresentationReport,
    game_law,
    representation_check_game,
    representation_check_social,
    synth_game_finite,
    synth_game_infinite,
)
from .sim import (
    ConvergenceStudy,
    CostReport,
    NashDeviationReport,
    SimConfig,
    TrajectoryBundle,
    convergence_study,
    evaluate_costs,
    meanfield_gap,
    nash_deviation_search,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "MFLQError", "ModelValidationError",
    "ImaginaryAxisError", "SingularSubspaceError", "RiccatiBlowUpError",
    "FiniteHorizonInsolvableError", "MeanFieldInfeasibleError",
    "UnsupportedModelError", "SimulationUnstableError",
    "ModelParams", "DerivedWeights", "derived_weights", "validate",
    "params_to_dict", "params_from_dict", "params_to_json", "params_from_json",
    "HamiltonianMatrix", "AlgebraicRiccatiSolution", "DifferentialRiccatiPath",
    "FiniteHorizonCheck", "build_hamiltonian", "hamiltonian_from_blocks",
    "solve_are_stable_subspace", "solve_dre_backward", "finite_horizon_solvable",
    "StabilizationReport", "analyze", "scalar_example1",
    "SocialGains", "synth_social_finite", "synth_social_infinite",
    "social_law", "centralized_law",
    "GameGains", "synth_game_finite", "synth_game_infinite",
    "game_law", "RepresentationReport",
    "representation_check_social", "representation_check_game",
    "SimConfig", "TrajectoryBundle", "CostReport", "simulate",
    "evaluate_costs", "meanfield_gap", "ConvergenceStudy", "convergence_study",
    "NashDeviationReport", "nash_deviation_search",
    "__version__",
]
