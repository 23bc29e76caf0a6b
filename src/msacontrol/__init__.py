"""Modified successive approximations for stochastic control.

Solves finite-horizon problems where the control enters both the drift
and the diffusion: forward Euler simulation, a regression-based adjoint
solver, and an iteration that minimises an augmented Hamiltonian with an
adaptive penalty, accepting a step only when it lowers the cost on the
shared noise bank.  A simulation carries its problem, bank and control,
and an adjoint the states it was solved along, so every kernel after the
simulation takes one of the two.

The package exports what the ``msactl`` command and the benchmark use
and what a user problem needs; everything else is imported from its
submodule.
"""

from .bsde import (
    RegressionBasis,
    RegressionError,
    adjoint_residual,
    solve_adjoint_linear_y0,
    solve_adjoint_lsmc,
)
from .diagnostics import export_csv, rate_fit, upward_jumps
from .msa import IterationTrace, MsaConfig, compute_mu, run_msa, update_control
from .oracle import (
    Benchmark,
    StructuredProblem,
    benchmark_names,
    benchmark_suite,
    brute_force_optimal,
    driverless_problem,
    get_benchmark,
    register_benchmark,
    riccati_lq,
)
from .problem import (
    ActionSpace,
    ActionTerms,
    ControlProblem,
    EvaluationError,
    ProblemDefinitionError,
    augmented_hamiltonian,
    check_derivatives,
    hamiltonian,
)
from .sde import (
    SimulationError,
    TimeGrid,
    constant_control,
    cost_per_path,
    make_noise,
    simulate_forward,
)

__version__ = "0.1.0"

__all__ = [
    "ActionSpace",
    "ActionTerms",
    "Benchmark",
    "ControlProblem",
    "EvaluationError",
    "IterationTrace",
    "MsaConfig",
    "ProblemDefinitionError",
    "RegressionBasis",
    "RegressionError",
    "SimulationError",
    "StructuredProblem",
    "TimeGrid",
    "adjoint_residual",
    "augmented_hamiltonian",
    "benchmark_names",
    "benchmark_suite",
    "brute_force_optimal",
    "check_derivatives",
    "compute_mu",
    "constant_control",
    "cost_per_path",
    "driverless_problem",
    "export_csv",
    "get_benchmark",
    "hamiltonian",
    "make_noise",
    "rate_fit",
    "register_benchmark",
    "riccati_lq",
    "run_msa",
    "simulate_forward",
    "solve_adjoint_linear_y0",
    "solve_adjoint_lsmc",
    "update_control",
    "upward_jumps",
]
