"""Modified successive approximations for stochastic control.

Solves finite-horizon problems where the control enters both the drift
and the diffusion: forward Euler simulation, a regression-based adjoint
solver, and an iteration that minimises an augmented Hamiltonian with an
adaptive penalty, accepting a step only when it lowers the cost on the
shared noise bank.  A simulation carries its problem, bank and control,
and an adjoint the states it was solved along, so every kernel after the
simulation takes one of the two.

The package exports what a user problem module needs to build and
register a problem, and so imports no solver; every other name is
imported from its submodule, for example ``msacontrol.msa.run_msa``.
"""

from .oracle import Benchmark, StructuredProblem, get_benchmark, register_benchmark
from .problem import ActionSpace, ActionTerms, ControlProblem

__version__ = "0.1.0"

__all__ = [
    "ActionSpace",
    "ActionTerms",
    "Benchmark",
    "ControlProblem",
    "StructuredProblem",
    "get_benchmark",
    "register_benchmark",
]
