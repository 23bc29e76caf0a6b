"""Ground-truth generators and the benchmark problem suite.

Every suite problem is one constant-coefficient scalar ``LqSpec``; the
solver's problem (``scalar_quadratic_problem``) and its oracle read the
same spec.  Independent of the MSA iteration and the LSMC adjoint: one
value ODE (riccati_lq) for control in the drift, the diffusion or both, which
a benchmark's ``lq`` spec turns into its ``continuous_optimum``, and,
for small instances, exhaustive enumeration of the deterministic action
sequences of the discretised problem, each priced with the solver's own
simulation and cost kernels.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import KW_ONLY, dataclass
from typing import Callable

import numpy as np

from .problem import (
    ActionSpace,
    ActionTerms,
    ControlProblem,
    EvaluationError,
    ProblemDefinitionError,
)
from .sde import (
    ControlEnsemble,
    NoiseBank,
    TimeGrid,
    cost_per_path,
    mean_and_se,
    simulate_forward,
)


def _rk4(rhs, t0: float, u0, h: float, n_steps: int) -> np.ndarray:
    """Classical RK4 from (t0, u0) in n_steps steps of signed size h.

    A negative h integrates backward in time.  Returns the state at
    t0 + n_steps h; a non-finite state on the way raises EvaluationError,
    with numpy's overflow warnings silenced so that error is the report.
    """
    u = np.asarray(u0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            t = t0 + h * i
            k1 = rhs(t, u)
            k2 = rhs(t + 0.5 * h, u + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, u + 0.5 * h * k2)
            k4 = rhs(t + h, u + h * k3)
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(u)):
                raise EvaluationError(f"RK4 integration blew up near t={t + h}")
    return u


@dataclass(frozen=True)
class StructuredProblem:
    """Problem with affine-in-state coefficients and split running cost.

    b(t,x,a) = b1(t) x + b2(t,a); sigma(t,x,a) = sigma1(t) x + sigma2(t,a);
    f(t,x,a) = f1(t,x) + f2(t,a).  sigma1 is a (d, d', d) tensor acting on
    x; its second x-derivative vanishes by construction.  The assembled
    problem carries b2, sigma2 and f2 as its action terms.
    """

    state_dim: int
    noise_dim: int
    horizon: float
    initial_state: np.ndarray
    b1: Callable
    b2: Callable
    sigma1: Callable
    sigma2: Callable
    f1: Callable
    f1_grad_x: Callable
    f2: Callable
    terminal: Callable
    terminal_grad_x: Callable
    action_space: ActionSpace
    name: str = ""

    def assemble(self) -> ControlProblem:
        b1, b2 = self.b1, self.b2
        sigma1, sigma2 = self.sigma1, self.sigma2
        f1, f1_grad, f2 = self.f1, self.f1_grad_x, self.f2

        def drift(t, x, a):
            return np.einsum("ji,...i->...j", b1(t), x) + b2(t, a)

        def diffusion(t, x, a):
            return np.einsum("jpi,...i->...jp", sigma1(t), x) + sigma2(t, a)

        def running_cost(t, x, a):
            return f1(t, x) + f2(t, a)

        def drift_jac_x(t, x, a):
            return np.broadcast_to(b1(t), x.shape[:-1] + (x.shape[-1],) * 2)

        def diffusion_jac_x(t, x, a):
            s1 = np.asarray(sigma1(t))
            return np.broadcast_to(s1, x.shape[:-1] + s1.shape)

        def running_cost_grad_x(t, x, a):
            return f1_grad(t, x)

        return ControlProblem(
            state_dim=self.state_dim,
            noise_dim=self.noise_dim,
            horizon=self.horizon,
            initial_state=self.initial_state,
            drift=drift,
            diffusion=diffusion,
            running_cost=running_cost,
            terminal_cost=self.terminal,
            drift_jac_x=drift_jac_x,
            diffusion_jac_x=diffusion_jac_x,
            running_cost_grad_x=running_cost_grad_x,
            terminal_cost_grad_x=self.terminal_grad_x,
            action_space=self.action_space,
            action_terms=ActionTerms(drift=b2, diffusion=sigma2, running_cost=f2),
            name=self.name,
        )


@dataclass(frozen=True)
class LqSpec:
    """Scalar linear-quadratic data with constant coefficients.

    dx = (beta x + control_gain a) dt + (nu + sigma_gain a) dW,  x(0) = x0
    cost = integral (q x^2 + r a^2) dt + q_t x_T^2
    """

    beta: float = 0.0
    control_gain: float = 1.0
    nu: float = 0.0
    sigma_gain: float = 0.0
    q: float = 1.0
    r: float = 1.0
    q_t: float = 0.0
    x0: float = 1.0

    def validate(self) -> None:
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ProblemDefinitionError(f"{name} must be finite, got {value}")
        if not self.r > 0:
            raise ProblemDefinitionError(f"r must be positive, got {self.r}")
        if self.q < 0 or self.q_t < 0 or self.nu < 0:
            raise ProblemDefinitionError("q, q_t and nu must be nonnegative")


_RICCATI_REFINE = 10  # RK4 steps per solver step
_RK4_STABILITY = 2.78  # RK4 is stable for h lambda in [-2.785, 0]
_RICCATI_BUDGET = 1_000_000  # RK4 steps
_ORACLE_STEPS = 400  # continuous_optimum's grid and riccati_lq's coarsest: 4000 RK4 steps
_BRUTE_FORCE_BUDGET = 1_000_000  # action sequences
_BRUTE_FORCE_ROWS = 50_000  # (sequence, path) rows simulated at once


@dataclass(frozen=True)
class RiccatiSolution:
    """Backward value-ODE solve: J* = P(0) x0^2 + 2 S(0) x0 + c(0)."""

    optimal_value: float


def riccati_lq(spec: LqSpec, grid: TimeGrid) -> RiccatiSolution:
    """Solve the scalar value ODE backward with classical RK4.

    The value is V = P x^2 + 2 S x + c.  With D = sigma_gain^2 P + r
    and k = gain S + nu sigma_gain P,
    P' = -2 beta P + (gain^2 / D) P^2 - q,         P(T) = q_t
    S' = -beta S + gain P k / D,                    S(T) = 0
    c' = -(nu^2 P - k^2 / D),                       c(T) = 0
    and the minimising action a* = -(gain P x + k) / D.  Control may
    enter the drift, the diffusion or both; S stays 0 unless
    gain sigma_gain nu != 0.  The action is unconstrained here; for a
    bounded grid the value is a lower bound plus quantisation allowance.
    Integrates on a grid _RICCATI_REFINE times finer than the solver
    grid or than _ORACLE_STEPS steps, whichever is finer (a coarse grid
    alone errs: 7% low on msa_stress at N=5), and finer still where the
    ODE is stiff: h (2 |beta| + 2 gain^2 P_bar / r) stays within RK4's
    stability limit, P_bar bounding P.  P is monotone, as an autonomous
    scalar ODE's solution, and P' D = -(a P^2 + b P + q r):
    with a < 0 it stays between q_t and the positive root, and otherwise
    below (q_t + q T) e^{2 max(beta, 0) T}.
    """
    spec.validate()
    beta, g, nu, s, q, r = spec.beta, spec.control_gain, spec.nu, spec.sigma_gain, spec.q, spec.r
    horizon, a, b = grid.horizon, 2.0 * beta * s * s - g * g, 2.0 * beta * r + q * s * s
    if a < 0:
        p_bar = max(spec.q_t, (b + np.sqrt(b * b - 4.0 * a * q * r)) / (-2.0 * a))
    else:
        p_bar = (spec.q_t + q * horizon) * np.exp(2.0 * max(beta, 0.0) * horizon)
    n_stable = horizon * (2.0 * abs(beta) + 2.0 * g * g * p_bar / r) / _RK4_STABILITY
    if not n_stable <= _RICCATI_BUDGET:
        raise EvaluationError(f"value ODE too stiff for RK4: {n_stable:.3g} steps needed")

    def rhs(t, u):
        p_val, s_val, c_val = u
        d = p_val * s * s + r
        k = g * s_val + p_val * nu * s
        dp = -2.0 * beta * p_val + g * g * p_val * p_val / d - q
        ds = -beta * s_val + g * p_val * k / d
        dc = -(nu * nu * p_val - k * k / d)
        return np.array([dp, ds, dc])

    n_fine = max(max(grid.n_steps, _ORACLE_STEPS) * _RICCATI_REFINE, int(np.ceil(n_stable)))
    p0, s0, c0 = _rk4(rhs, horizon, (spec.q_t, 0.0, 0.0), -horizon / n_fine, n_fine)
    x0 = spec.x0
    return RiccatiSolution(optimal_value=float(p0) * x0 * x0 + 2.0 * float(s0) * x0 + float(c0))


@dataclass(frozen=True)
class BruteForceResult:
    j_star: float
    best_sequence: np.ndarray
    standard_error: float
    n_sequences: int


def brute_force_optimal(p: ControlProblem, noise: NoiseBank) -> BruteForceResult:
    """Exhaustive minimum of the estimated cost over deterministic controls.

    Enumerates every time-indexed action sequence and prices each on the
    shared noise bank with the solver's own kernels: a chunk of c
    sequences runs as one bank of c * M (sequence, path) rows through
    simulate_forward and cost_per_path.  The minimum value is independent
    of enumeration order; on exact ties the first sequence in
    lexicographic index order is kept.  More than _BRUTE_FORCE_BUDGET
    sequences raise ValueError before any is evaluated, and a non-finite
    state or cost raises SimulationError.
    """
    n_act, n, m = p.action_space.n_actions, noise.n_steps, noise.n_paths
    total = n_act ** n
    if total > _BRUTE_FORCE_BUDGET:
        raise ValueError(
            f"{n_act}^{n} = {total} sequences exceeds the budget {_BRUTE_FORCE_BUDGET}"
        )
    chunk = max(1, _BRUTE_FORCE_ROWS // m)
    best_j = np.inf
    best_costs = best_seq = None
    tiled = np.tile(noise.increments, (1, min(chunk, total), 1))
    sequences = itertools.product(range(n_act), repeat=n)
    while block := list(itertools.islice(sequences, chunk)):
        seqs = np.array(block, dtype=p.action_space.index_dtype)
        c = seqs.shape[0]
        bank = NoiseBank(tiled[:, : c * m], noise.grid)
        control = ControlEnsemble(np.repeat(seqs.T, m, axis=1))
        costs = cost_per_path(simulate_forward(p, bank, control)).reshape(c, m)
        means = costs.mean(axis=1)
        j = int(means.argmin())
        if means[j] < best_j:
            best_j, best_costs, best_seq = float(means[j]), costs[j], seqs[j]
    return BruteForceResult(
        j_star=best_j,
        best_sequence=best_seq,
        standard_error=mean_and_se(best_costs)[1],
        n_sequences=total,
    )


# --- benchmark suite ------------------------------------------------------

@dataclass(frozen=True)
class Benchmark:
    """A named problem plus, when lq is given, its value-ODE oracle.

    lq is the LqSpec the problem was built from, checked when the
    benchmark is built (an invalid one raises ProblemDefinitionError).
    With it, continuous_optimum is the optimal cost of the
    continuous-time, unconstrained-action problem on the problem's
    horizon (riccati_lq on _ORACLE_STEPS steps); the solver's
    grid-restricted value sits above it by discretisation bias.  msactl
    bench holds the problem to a band about it and rate.oracle = riccati
    fits against it.  It is integrated on its first read and kept, so
    building a benchmark or dataclasses.replace-ing one integrates nothing.
    """

    name: str
    problem: ControlProblem
    _: KW_ONLY
    lq: LqSpec | None = None

    def __post_init__(self) -> None:
        if self.lq is not None:
            self.lq.validate()

    @functools.cached_property
    def continuous_optimum(self) -> float | None:
        """The value-ODE optimum, integrated on first read; None without lq."""
        if self.lq is None:
            return None
        return riccati_lq(self.lq, TimeGrid(_ORACLE_STEPS, self.problem.horizon)).optimal_value


def scalar_quadratic_problem(
    name: str, spec: LqSpec, horizon: float, action_points: np.ndarray
) -> ControlProblem:
    """The problem that spec describes, on the given action grid.

    b = beta x + control_gain a; sigma = nu + sigma_gain a;
    f = q x^2 + r a^2; g = q_t x^2.
    """
    b1_mat = np.array([[spec.beta]])
    s1_tensor = np.zeros((1, 1, 1))

    def b2(t, a):
        return spec.control_gain * a

    def sigma2(t, a):
        return spec.nu + spec.sigma_gain * a[..., None, :]

    def f1(t, x):
        return spec.q * x[..., 0] * x[..., 0]

    def f1_grad(t, x):
        return 2.0 * spec.q * x

    def f2(t, a):
        return spec.r * a[..., 0] * a[..., 0]

    def terminal(x):
        return spec.q_t * x[..., 0] * x[..., 0]

    def terminal_grad(x):
        return 2.0 * spec.q_t * x

    return StructuredProblem(
        state_dim=1,
        noise_dim=1,
        horizon=horizon,
        initial_state=np.array([spec.x0]),
        b1=lambda t: b1_mat,
        b2=b2,
        sigma1=lambda t: s1_tensor,
        sigma2=sigma2,
        f1=f1,
        f1_grad_x=f1_grad,
        f2=f2,
        terminal=terminal,
        terminal_grad_x=terminal_grad,
        action_space=ActionSpace(points=action_points),
        name=name,
    ).assemble()


def driverless_problem(c: float) -> ControlProblem:
    """Scalar problem whose adjoint is known: Y = c and Z = 0 on every path.

    b = a, sigma = 1, f = a^2/2, g = c x, actions (-1, 0, 1).  No
    coefficient depends on x, so the adjoint equation has no driver.
    """
    return StructuredProblem(
        state_dim=1,
        noise_dim=1,
        horizon=1.0,
        initial_state=np.array([0.0]),
        b1=lambda t: np.zeros((1, 1)),
        b2=lambda t, a: a,
        sigma1=lambda t: np.zeros((1, 1, 1)),
        sigma2=lambda t, a: np.ones(a.shape[:-1] + (1, 1)),
        f1=lambda t, x: np.zeros(x.shape[:-1]),
        f1_grad_x=lambda t, x: np.zeros_like(x),
        f2=lambda t, a: 0.5 * a[..., 0] * a[..., 0],
        terminal=lambda x: c * x[..., 0],
        terminal_grad_x=lambda x: np.full_like(x, c),
        action_space=ActionSpace(points=np.array([-1.0, 0.0, 1.0])),
        name="driverless",
    ).assemble()


# Pinned benchmark instances, all on the unit horizon.  The stress
# instance was found empirically: with the penalty frozen at zero its
# update overshoots through the large drift gain and the cost oscillates
# upward within a few iterations.
_HORIZON = 1.0
_LQ_DRIFT = LqSpec(beta=0.2, control_gain=1.0, nu=0.2, q=1.0, r=1.0, q_t=0.5, x0=1.0)
_CTRL_DIFFUSION = LqSpec(
    beta=0.2, control_gain=0.0, nu=0.6, sigma_gain=0.3, q=1.0, r=0.45, q_t=0.3, x0=1.0
)
_MSA_STRESS = LqSpec(beta=0.0, control_gain=3.0, nu=1.0, q=0.0, r=0.1, q_t=1.0, x0=1.0)

_WIDE_GRID = np.linspace(-2.0, 2.0, 21)
_SMALL_GRID = np.linspace(-1.0, 1.0, 3)


def _suite_benchmark(name: str, spec: LqSpec, points: np.ndarray) -> Benchmark:
    """A suite problem held to its value-ODE optimum."""
    return Benchmark(name, scalar_quadratic_problem(name, spec, _HORIZON, points), lq=spec)


_FACTORIES: dict[str, Callable[[], Benchmark]] = {
    # control in the drift only
    "lq_drift": lambda: _suite_benchmark("lq_drift", _LQ_DRIFT, _WIDE_GRID),
    "lq_drift_small": lambda: _suite_benchmark("lq_drift_small", _LQ_DRIFT, _SMALL_GRID),
    # control enters the diffusion only
    "ctrl_diffusion": lambda: _suite_benchmark("ctrl_diffusion", _CTRL_DIFFUSION, _WIDE_GRID),
    "ctrl_diffusion_small": lambda: _suite_benchmark(
        "ctrl_diffusion_small", _CTRL_DIFFUSION, _SMALL_GRID
    ),
    # strong control-to-adjoint coupling; unpenalised updates oscillate.  No
    # lq: the penalised solve stops well above its optimum on the grid.
    "msa_stress": lambda: Benchmark(
        "msa_stress", scalar_quadratic_problem("msa_stress", _MSA_STRESS, _HORIZON, _WIDE_GRID)
    ),
}

_SUITE_NAMES = ("lq_drift", "ctrl_diffusion", "msa_stress")


def register_benchmark(name: str, factory: Callable[[], Benchmark]) -> None:
    """Expose a problem to the CLI by name (tests and user problems)."""
    _FACTORIES[name] = factory


def benchmark_names() -> list[str]:
    return sorted(_FACTORIES)


def get_benchmark(name: str) -> Benchmark:
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {', '.join(benchmark_names())}"
        ) from None
    return factory()


def benchmark_suite() -> list[Benchmark]:
    """The named problems exercised by the acceptance criteria."""
    return [get_benchmark(name) for name in _SUITE_NAMES]
