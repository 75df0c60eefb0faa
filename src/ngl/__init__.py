"""ngl: a laboratory for first-order optimization under composite
(relative + absolute) gradient error.

Core pieces: benchmark objectives with certified constants (`problems`),
gradient estimators with declared error levels (`oracles`), gradient
methods whose tuning matches the error model (`solvers`), closed-form
convergence envelopes and iteration budgets (`bounds`), accuracy-driven
meta-routines (`drivers`), and a reproducible experiment harness (`cli`).
"""

__version__ = "0.1.0"

from .bounds import (
    THEOREM_IDS,
    Envelope,
    EnvelopeConstants,
    EnvelopeDomainError,
    envelope,
    iteration_budget,
    stopping_level,
)
from .drivers import (
    ConvergenceFailureError,
    RegularizedOracle,
    RegularizedProblem,
    RestartResult,
    StageFailureError,
    StoppingRule,
    combined_reg_stop,
    restart_to_convex,
    run_with_stopping,
    solve_convex_gd,
    solve_convex_re_agm,
)
from .oracles import (
    CompressedGradientOracle,
    FiniteDifferenceOracle,
    FloatingPointQuadraticOracle,
    GradientOracle,
    NoiseSpec,
    SyntheticNoiseOracle,
    certification_report,
)
from .problems import (
    ObjectiveProblem,
    Quadratic,
    nesterov_convex,
    nesterov_strongly_convex,
    quadratic,
)
from .solvers import (
    AdaptiveGDConfig,
    DivergedError,
    GDConfig,
    InnerLoopStallError,
    ReAgmConfig,
    RunTrace,
    adaptive_gd_run,
    gd_run,
    gd_step_size,
    re_agm_calculate_parameters,
    re_agm_run,
)

__all__ = [
    "__version__",
    # problems
    "ObjectiveProblem", "Quadratic", "nesterov_convex",
    "nesterov_strongly_convex", "quadratic",
    # oracles
    "GradientOracle", "NoiseSpec", "SyntheticNoiseOracle",
    "CompressedGradientOracle", "FiniteDifferenceOracle",
    "FloatingPointQuadraticOracle", "certification_report",
    # solvers
    "GDConfig", "ReAgmConfig", "AdaptiveGDConfig", "RunTrace",
    "gd_run", "re_agm_run", "adaptive_gd_run", "gd_step_size",
    "re_agm_calculate_parameters", "DivergedError", "InnerLoopStallError",
    # bounds
    "THEOREM_IDS", "Envelope", "EnvelopeConstants", "EnvelopeDomainError",
    "envelope", "iteration_budget", "stopping_level",
    # drivers
    "RegularizedProblem", "RegularizedOracle", "StoppingRule",
    "RestartResult", "run_with_stopping", "solve_convex_gd",
    "solve_convex_re_agm", "combined_reg_stop", "restart_to_convex",
    "ConvergenceFailureError", "StageFailureError",
]
