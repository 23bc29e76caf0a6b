"""Ground-truth generators and the benchmark problem suite.

Independent of the solver path: a Riccati ODE oracle for the scalar
linear-quadratic benchmark, a value ODE for the benchmark with control
in the diffusion, and exhaustive enumeration over deterministic action
sequences for small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problem import ActionSpace, ActionTerms, ControlProblem
from .sde import NoiseBank, TimeGrid


def _as_time_fn(value) -> Callable[[float], float]:
    if callable(value):
        return value
    const = float(value)
    return lambda t: const


def _rk4(rhs, t0: float, u0, h: float, n_steps: int, label: str | None = None):
    """Classical RK4 from (t0, u0) in n_steps steps of signed size h.

    A negative h integrates backward in time.  Returns the nodes
    t0 + i h and the states there, shapes (n_steps + 1,) and
    (n_steps + 1, len(u0)).  With a label, a non-finite state raises
    RuntimeError naming the integration.
    """
    times = t0 + h * np.arange(n_steps + 1)
    u = np.empty((n_steps + 1, len(u0)))
    u[0] = u0
    for i in range(n_steps):
        t = times[i]
        k1 = rhs(t, u[i])
        k2 = rhs(t + 0.5 * h, u[i] + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, u[i] + 0.5 * h * k2)
        k4 = rhs(t + h, u[i] + h * k3)
        u[i + 1] = u[i] + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if label is not None and not np.all(np.isfinite(u[i + 1])):
            raise RuntimeError(f"{label} integration blew up near t={t + h}")
    return times, u


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
    """Scalar linear-quadratic data.

    dx = (beta(t) x + control_gain a) dt + nu dW
    cost = integral (q(t) x^2 + r(t) a^2) dt + q_t x_T^2

    beta, q, r may be constants or callables of t; r must stay positive.
    """

    beta: float | Callable = 0.0
    control_gain: float = 1.0
    nu: float = 0.0
    q: float | Callable = 1.0
    r: float | Callable = 1.0
    q_t: float = 0.0
    x0: float = 1.0

    def beta_fn(self) -> Callable[[float], float]:
        return _as_time_fn(self.beta)

    def q_fn(self) -> Callable[[float], float]:
        return _as_time_fn(self.q)

    def r_fn(self) -> Callable[[float], float]:
        return _as_time_fn(self.r)

    def validate(self, horizon: float) -> None:
        r = self.r_fn()
        q = self.q_fn()
        for t in np.linspace(0.0, horizon, 33):
            if not r(t) > 0:
                raise ValueError(f"r(t) must be positive, got {r(t)} at t={t}")
            if q(t) < 0:
                raise ValueError(f"q(t) must be nonnegative, got {q(t)} at t={t}")
        if self.q_t < 0 or self.nu < 0:
            raise ValueError("q_t and nu must be nonnegative")


@dataclass(frozen=True)
class RiccatiSolution:
    """Backward Riccati solve: J* = P(0) x0^2 + c(0)."""

    optimal_value: float
    feedback_gain: Callable[[float], float]
    value_curve: tuple  # (times, p_values, c_values), ascending in t


def riccati_lq(spec: LqSpec, grid: TimeGrid, refine: int = 10) -> RiccatiSolution:
    """Solve the scalar Riccati ODE backward with classical RK4.

    P' = -2 beta P + (gain^2 / r) P^2 - q,  P(T) = q_t
    c' = -nu^2 P,                           c(T) = 0

    Integrates on a grid refine-times finer than the solver grid.
    """
    spec.validate(grid.horizon)
    beta, q, r = spec.beta_fn(), spec.q_fn(), spec.r_fn()
    gain2 = spec.control_gain * spec.control_gain
    nu2 = spec.nu * spec.nu

    def rhs(t, u):
        p_val, c_val = u
        dp = -2.0 * beta(t) * p_val + gain2 * p_val * p_val / r(t) - q(t)
        dc = -nu2 * p_val
        return np.array([dp, dc])

    n_fine = grid.n_steps * refine
    h = grid.horizon / n_fine
    times, u = _rk4(rhs, grid.horizon, (spec.q_t, 0.0), -h, n_fine, label="Riccati")
    t_asc = times[::-1].copy()
    p_asc = u[::-1, 0].copy()
    c_asc = u[::-1, 1].copy()
    p0, c0 = float(p_asc[0]), float(c_asc[0])

    def feedback_gain(t: float) -> float:
        p_t = float(np.interp(t, t_asc, p_asc))
        return -spec.control_gain * p_t / r(t)

    return RiccatiSolution(
        optimal_value=p0 * spec.x0 * spec.x0 + c0,
        feedback_gain=feedback_gain,
        value_curve=(t_asc, p_asc, c_asc),
    )


def diffusion_lq_value(
    beta: float,
    nu0: float,
    nu1: float,
    q: float,
    r: float,
    q_t: float,
    x0: float,
    horizon: float,
    refine: int = 4000,
) -> tuple[float, Callable[[float], float]]:
    """Optimal cost for dx = beta x dt + (nu0 + nu1 a) dW with quadratic costs.

    The value function stays quadratic, V = P(t) x^2 + c(t), because the
    minimising action is state-free: a*(t) = -P nu0 nu1 / (P nu1^2 + r).
    P solves the linear ODE P' = -2 beta P - q with P(T) = q_t, and
    c' = -(P nu0^2 - (P nu0 nu1)^2 / (P nu1^2 + r)), c(T) = 0.  Returns
    (V(0, x0), a*(t)).  The action is unconstrained here; for a bounded
    grid this is a lower bound plus quantisation allowance.
    """
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")

    def rhs(t, u):
        p_val, c_val = u
        gain = p_val * nu0 * nu1
        dc = -(p_val * nu0 * nu0 - gain * gain / (p_val * nu1 * nu1 + r))
        return np.array([-2.0 * beta * p_val - q, dc])

    times, u = _rk4(rhs, horizon, (q_t, 0.0), -horizon / refine, refine)
    t_asc = times[::-1].copy()
    p_asc = u[::-1, 0].copy()
    c0 = float(u[-1, 1])
    p0 = float(u[-1, 0])

    def optimal_action(t: float) -> float:
        p_t = float(np.interp(t, t_asc, p_asc))
        return -p_t * nu0 * nu1 / (p_t * nu1 * nu1 + r)

    return p0 * x0 * x0 + c0, optimal_action


@dataclass(frozen=True)
class BruteForceResult:
    j_star: float
    best_sequence: np.ndarray
    standard_error: float
    n_sequences: int


def brute_force_optimal(
    p: ControlProblem,
    grid: TimeGrid,
    noise: NoiseBank,
    max_sequences: int = 1_000_000,
) -> BruteForceResult:
    """Exhaustive minimum of the estimated cost over deterministic controls.

    Enumerates every time-indexed action sequence, estimates J for each
    on the shared noise bank, and returns the minimum.  The minimum value
    is independent of enumeration order; on exact ties the first sequence
    in lexicographic index order is kept.
    """
    n_act = p.action_space.n_actions
    n = grid.n_steps
    m = noise.n_paths
    total = n_act ** n
    if total > max_sequences:
        raise ValueError(
            f"{n_act}^{n} = {total} sequences exceeds the budget {max_sequences}"
        )
    dt = grid.dt
    nodes = grid.nodes
    points = p.action_space.points
    inc = noise.increments
    d = p.state_dim

    chunk_rows = max(1, 500_000 // max(1, m))
    best_j = np.inf
    best_se = 0.0
    best_seq = None
    it = itertools.product(range(n_act), repeat=n)
    count = 0
    while True:
        block = list(itertools.islice(it, chunk_rows))
        if not block:
            break
        seqs = np.array(block, dtype=np.int64)
        c = seqs.shape[0]
        count += c
        x = np.broadcast_to(p.initial_state, (c, m, d)).copy()
        cost = np.zeros((c, m))
        for k in range(n):
            a = np.broadcast_to(points[seqs[:, k]][:, None, :], (c, m, points.shape[1]))
            t = float(nodes[k])
            cost += np.asarray(p.running_cost(t, x, a)) * dt
            b = np.asarray(p.drift(t, x, a))
            sig = np.asarray(p.diffusion(t, x, a))
            x = x + b * dt + np.einsum("cmjp,mp->cmj", sig, inc[:, k])
        cost += np.asarray(p.terminal_cost(x))
        means = cost.mean(axis=1)
        ses = cost.std(axis=1, ddof=1) / np.sqrt(m) if m > 1 else np.zeros(c)
        j = int(means.argmin())
        if means[j] < best_j:
            best_j = float(means[j])
            best_se = float(ses[j])
            best_seq = seqs[j].copy()
    return BruteForceResult(
        j_star=best_j,
        best_sequence=best_seq,
        standard_error=best_se,
        n_sequences=count,
    )


# --- benchmark suite ------------------------------------------------------

@dataclass(frozen=True)
class Benchmark:
    """A named problem plus whatever oracle data applies to it.

    continuous_optimum is the optimal cost of the continuous-time,
    unconstrained-action problem when an ODE oracle exists; the solver's
    grid-restricted value sits above it by discretisation bias.
    """

    name: str
    problem: ControlProblem
    structured: StructuredProblem
    lq: LqSpec | None = None
    continuous_optimum: float | None = None


def scalar_quadratic_problem(
    name: str,
    horizon: float,
    x0: float,
    beta: float,
    drift_gain: float,
    sigma_const: float,
    sigma_gain: float,
    q: float,
    r: float,
    q_t: float,
    action_points: np.ndarray,
) -> StructuredProblem:
    """Scalar benchmark family: affine coefficients, quadratic costs.

    b = beta x + drift_gain a; sigma = sigma_const + sigma_gain a;
    f = q x^2 + r a^2; g = q_t x^2.
    """

    b1_mat = np.array([[beta]])
    s1_tensor = np.zeros((1, 1, 1))

    def b2(t, a):
        return drift_gain * a

    def sigma2(t, a):
        return sigma_const + sigma_gain * a[..., None, :]

    def f1(t, x):
        return q * x[..., 0] * x[..., 0]

    def f1_grad(t, x):
        return 2.0 * q * x

    def f2(t, a):
        return r * a[..., 0] * a[..., 0]

    def terminal(x):
        return q_t * x[..., 0] * x[..., 0]

    def terminal_grad(x):
        return 2.0 * q_t * x

    return StructuredProblem(
        state_dim=1,
        noise_dim=1,
        horizon=horizon,
        initial_state=np.array([x0]),
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
    )


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


# Pinned benchmark instances.  The stress instance was found empirically:
# with the penalty frozen at zero its update overshoots through the large
# drift gain and the cost oscillates upward within a few iterations.
_LQ_DRIFT = dict(beta=0.2, gain=1.0, nu=0.2, q=1.0, r=1.0, q_t=0.5, x0=1.0, horizon=1.0)
_CTRL_DIFFUSION = dict(
    beta=0.2, nu0=0.6, nu1=0.3, q=1.0, r=0.45, q_t=0.3, x0=1.0, horizon=1.0
)
_MSA_STRESS = dict(kappa=3.0, nu=1.0, eps=0.1, q_t=1.0, x0=1.0, horizon=1.0)

_WIDE_GRID = np.linspace(-2.0, 2.0, 21)
_SMALL_GRID = np.linspace(-1.0, 1.0, 3)


def _make_lq_drift(grid_points: np.ndarray, name: str) -> Benchmark:
    # control in the drift only; Riccati-verifiable
    c = _LQ_DRIFT
    sp = scalar_quadratic_problem(
        name,
        horizon=c["horizon"],
        x0=c["x0"],
        beta=c["beta"],
        drift_gain=c["gain"],
        sigma_const=c["nu"],
        sigma_gain=0.0,
        q=c["q"],
        r=c["r"],
        q_t=c["q_t"],
        action_points=grid_points,
    )
    lq = LqSpec(
        beta=c["beta"],
        control_gain=c["gain"],
        nu=c["nu"],
        q=c["q"],
        r=c["r"],
        q_t=c["q_t"],
        x0=c["x0"],
    )
    ric = riccati_lq(lq, TimeGrid(n_steps=50, horizon=c["horizon"]))
    return Benchmark(
        name=name,
        problem=sp.assemble(),
        structured=sp,
        lq=lq,
        continuous_optimum=ric.optimal_value,
    )


def _make_ctrl_diffusion(grid_points: np.ndarray, name: str) -> Benchmark:
    # control enters the diffusion; verified by brute force
    c = _CTRL_DIFFUSION
    sp = scalar_quadratic_problem(
        name,
        horizon=c["horizon"],
        x0=c["x0"],
        beta=c["beta"],
        drift_gain=0.0,
        sigma_const=c["nu0"],
        sigma_gain=c["nu1"],
        q=c["q"],
        r=c["r"],
        q_t=c["q_t"],
        action_points=grid_points,
    )
    j_star, _ = diffusion_lq_value(
        beta=c["beta"],
        nu0=c["nu0"],
        nu1=c["nu1"],
        q=c["q"],
        r=c["r"],
        q_t=c["q_t"],
        x0=c["x0"],
        horizon=c["horizon"],
    )
    return Benchmark(
        name=name,
        problem=sp.assemble(),
        structured=sp,
        lq=None,
        continuous_optimum=j_star,
    )


def _make_msa_stress() -> Benchmark:
    # strong control-to-adjoint coupling; unpenalised updates oscillate
    c = _MSA_STRESS
    sp = scalar_quadratic_problem(
        "msa_stress",
        horizon=c["horizon"],
        x0=c["x0"],
        beta=0.0,
        drift_gain=c["kappa"],
        sigma_const=c["nu"],
        sigma_gain=0.0,
        q=0.0,
        r=c["eps"],
        q_t=c["q_t"],
        action_points=_WIDE_GRID,
    )
    return Benchmark(
        name="msa_stress",
        problem=sp.assemble(),
        structured=sp,
        lq=None,
    )


_FACTORIES: dict[str, Callable[[], Benchmark]] = {
    "lq_drift": lambda: _make_lq_drift(_WIDE_GRID, "lq_drift"),
    "lq_drift_small": lambda: _make_lq_drift(_SMALL_GRID, "lq_drift_small"),
    "ctrl_diffusion": lambda: _make_ctrl_diffusion(_WIDE_GRID, "ctrl_diffusion"),
    "ctrl_diffusion_small": lambda: _make_ctrl_diffusion(
        _SMALL_GRID, "ctrl_diffusion_small"
    ),
    "msa_stress": lambda: _make_msa_stress(),
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
