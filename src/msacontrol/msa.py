"""Successive-approximation driver with penalised control updates.

Each iteration simulates the state forward under the current control,
solves the adjoint backward, and replaces the control at every (path,
step) by the argmin of the augmented Hamiltonian against the previous
action.  A candidate is accepted when its paired cost change satisfies
dJ <= 3 SE(dJ), so the estimated cost may rise within Monte-Carlo noise;
otherwise the penalty weight rho is grown and the update recomputed from
the same states and adjoint.  The expected integrated Hamiltonian
decrease mu is nonpositive by construction and its convergence to zero
is the stopping signal.

There is one Hamiltonian evaluator, in ``problem.py``: ``hamiltonian``
at given actions and ``augmented_hamiltonian`` over every (action, path)
pair share one contraction; ``compute_mu`` always uses it.
``update_control`` is one loop over time steps.  Each step's (actions x
paths) value table comes from ``augmented_hamiltonian`` or, for a
problem with ``action_terms`` (every ``StructuredProblem``), from one
matrix product of the action terms plus a (previous, candidate) penalty
table; one helper applies the tie rule to either.

Only ``ControlEnsemble`` knows how a control is stored: one row of
action indices per path, or a single row that every path follows for a
deterministic control.  The simulation, the adjoint solve and mu ask it
for each step's actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bsde import AdjointEnsemble, RegressionBasis, solve_adjoint_lsmc
from .problem import ControlProblem, _check_finite, augmented_hamiltonian, hamiltonian
from .sde import (
    StateEnsemble,
    TimeGrid,
    cost_per_path,
    make_noise,
    mean_and_se,
    simulate_forward,
)

CONTROL_MODES = ("per_path", "deterministic")


class DescentFailureError(RuntimeError):
    """Penalty growth exhausted without an acceptable descent step."""

    def __init__(self, message: str, trace: "IterationTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class ControlEnsemble:
    """Action choices as indices into the problem's ActionSpace.

    action_indices has shape (M, N), one row per path, or (1, N), one
    row that every path follows: a deterministic control.
    """

    action_indices: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.action_indices)
        if idx.ndim != 2:
            raise ValueError("action_indices must have shape (M, N) or (1, N)")
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError("action_indices must be integers")
        idx = np.ascontiguousarray(idx, dtype=np.int64)
        idx.setflags(write=False)
        object.__setattr__(self, "action_indices", idx)

    @property
    def n_steps(self) -> int:
        return self.action_indices.shape[1]

    def validate(self, n_paths: int, n_steps: int, n_actions: int) -> None:
        """Raise ValueError unless this control fits M paths, N steps and the actions."""
        idx = self.action_indices
        if idx.shape[0] not in (1, n_paths) or idx.shape[1] != n_steps:
            raise ValueError(
                f"control shape {idx.shape} does not match (M, N) = "
                f"({n_paths}, {n_steps}) or (1, N)"
            )
        if idx.min() < 0 or idx.max() >= n_actions:
            raise ValueError("control has action indices out of range")

    def actions(self, points: np.ndarray, k: int, n_paths: int) -> np.ndarray:
        """Step k's action points for n_paths paths, (n_paths, m), read-only."""
        return np.broadcast_to(points[self.action_indices[:, k]], (n_paths, points.shape[1]))


def constant_control(
    p: ControlProblem,
    n_paths: int,
    n_steps: int,
    mode: str = "per_path",
) -> ControlEnsemble:
    """The action closest to the action-set centroid, at every step and path.

    A deterministic control is the single row that every path follows.
    """
    if mode not in CONTROL_MODES:
        raise ValueError(f"mode must be one of {CONTROL_MODES}")
    rows = n_paths if mode == "per_path" else 1
    idx = np.full((rows, n_steps), p.action_space.centroid_index(), dtype=np.int64)
    return ControlEnsemble(action_indices=idx)


@dataclass(frozen=True)
class MsaConfig:
    """Solver configuration.

    classical = True freezes the penalty at rho_initial and accepts
    every candidate (no descent test, no backtracking); used to
    demonstrate how the unpenalised update can drive the cost up.
    """

    n_paths: int = 10000
    n_steps: int = 50
    seed: int = 12345
    rho_initial: float = 1.0
    rho_growth: float = 2.0
    rho_max: float = 65536.0
    tol_mu: float = 1e-3
    tol_dj: float = 1e-6
    max_iterations: int = 100
    basis: RegressionBasis = field(default_factory=RegressionBasis)
    control_mode: str = "per_path"
    classical: bool = False

    def __post_init__(self) -> None:
        if self.n_paths < 1 or self.n_steps < 1:
            raise ValueError("n_paths and n_steps must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("rho_initial", "rho_growth", "rho_max", "tol_mu", "tol_dj"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.rho_initial < 0:
            raise ValueError("rho_initial must be nonnegative")
        if self.rho_growth <= 1:
            raise ValueError("rho_growth must be > 1")
        if self.tol_mu <= 0 or self.tol_dj <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.control_mode not in CONTROL_MODES:
            raise ValueError(f"control_mode must be one of {CONTROL_MODES}")


@dataclass
class IterationTrace:
    """Per-iteration audit trail of the solver."""

    iterations: list = field(default_factory=list)
    costs: list = field(default_factory=list)
    cost_ses: list = field(default_factory=list)
    mus: list = field(default_factory=list)
    mu_ses: list = field(default_factory=list)
    rhos: list = field(default_factory=list)
    backtracks: list = field(default_factory=list)
    accepted: list = field(default_factory=list)
    initial_cost: float = float("nan")
    initial_cost_se: float = float("nan")
    status: str = "running"

    def add_row(self, n, j, j_se, mu, mu_se, rho, n_backtracks, was_accepted):
        self.iterations.append(int(n))
        self.costs.append(float(j))
        self.cost_ses.append(float(j_se))
        self.mus.append(float(mu))
        self.mu_ses.append(float(mu_se))
        self.rhos.append(float(rho))
        self.backtracks.append(int(n_backtracks))
        self.accepted.append(bool(was_accepted))

    @property
    def n_rows(self) -> int:
        return len(self.iterations)

    @property
    def final_cost(self) -> float:
        accepted = [j for j, ok in zip(self.costs, self.accepted) if ok]
        if not accepted:
            return self.initial_cost
        return accepted[-1]

    @property
    def final_mu(self) -> float:
        accepted = [v for v, ok in zip(self.mus, self.accepted) if ok]
        return accepted[-1] if accepted else float("nan")


def update_control(
    p: ControlProblem,
    grid: TimeGrid,
    states: StateEnsemble,
    adjoint: AdjointEnsemble,
    prev: ControlEnsemble,
    rho: float,
) -> ControlEnsemble:
    """Pointwise argmin of the augmented Hamiltonian against prev.

    Ties keep the previous action when it attains the minimum, else the
    lowest action index wins.  For a deterministic (one-row) prev the
    argmin is taken over the path-averaged augmented Hamiltonian at each
    step, and the result is again one row.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    producer = _hamiltonian_values if p.action_terms is None else _term_values
    tables = producer(p, grid, states, adjoint, prev, rho)
    prev_idx = prev.action_indices
    new_idx = np.empty_like(prev_idx)
    for k in range(prev.n_steps):
        new_idx[:, k] = _keep_or_lowest(next(tables), prev_idx[:, k])
    tables.close()  # no table or producer buffer outlives the loop
    return ControlEnsemble(action_indices=new_idx)


def _keep_or_lowest(vals, prev):
    """Column-wise argmin of an (actions, columns) table.

    A column keeps its previous action where that action attains the
    column minimum, else takes the lowest index attaining it.
    """
    mins = vals.min(axis=0)
    at_prev = vals[prev, np.arange(vals.shape[1])]
    lowest = (vals == mins).argmax(axis=0)  # equals argmin on finite tables
    return np.where(at_prev == mins, prev, lowest)


def _hamiltonian_values(p, grid, states, adjoint, prev, rho):
    """Per step, the augmented Hamiltonian, (actions, paths) or path mean."""
    m = states.n_paths
    shared = prev.action_indices.shape[0] == 1
    for k in range(prev.n_steps):
        x, y, z = states.values[:, k], adjoint.y_values[:, k], adjoint.z_values[:, k]
        t, pk = float(grid.nodes[k]), np.broadcast_to(prev.action_indices[:, k], m)
        vals = augmented_hamiltonian(p, t, x, y, z, pk, rho)
        yield vals.mean(axis=1, keepdims=True) if shared else vals


def _term_values(p, grid, states, adjoint, prev, rho):
    """Per step, the same argmin's values from the action terms alone.

    Under the ActionTerms contract H(a) = [y, vec z] . C_a + f2(a) plus
    terms free of a, where C_a = [b2(a), vec sigma2(a)].  The grad_x H
    part of the penalty vanishes, so the penalty against the previous
    action is the table (rho/2) |C_a - C_prev|^2.
    """
    terms = p.action_terms
    points = p.action_space.points
    m, d = states.n_paths, p.state_dim
    shared = prev.action_indices.shape[0] == 1
    nodes = grid.nodes
    ys = adjoint.y_values
    zs = adjoint.z_values
    prev_idx = prev.action_indices
    w = np.empty((d + d * p.noise_dim, m))  # [y, vec z] per path, transposed
    for k in range(prev.n_steps):
        t = float(nodes[k])
        b2 = np.asarray(terms.drift(t, points))
        s2 = np.asarray(terms.diffusion(t, points)).reshape(len(points), -1)
        c = _check_finite("action terms", np.concatenate([b2, s2], axis=1))
        f2 = _check_finite("action terms", np.asarray(terms.running_cost(t, points)))
        diff = c[:, None, :] - c[None, :, :]
        half_pen = 0.5 * rho * np.einsum("apq,apq->ap", diff, diff)
        w[:d] = ys[:, k].T
        w[d:] = zs[:, k].reshape(m, -1).T
        if shared:  # path mean first: a matrix-vector product
            yield (c @ w.mean(axis=1) + f2 + half_pen[prev_idx[0, k]])[:, None]
            continue
        vals = c @ w  # (actions, m): a reduction over actions is a row-wise pass
        vals += f2[:, None]
        if rho > 0:
            vals += half_pen[:, prev_idx[:, k]]  # the table is symmetric
        yield vals


def compute_mu(
    p: ControlProblem,
    grid: TimeGrid,
    states: StateEnsemble,
    adjoint: AdjointEnsemble,
    new: ControlEnsemble,
    prev: ControlEnsemble,
) -> tuple[float, float]:
    """Estimate of E sum_k [H(new_k) - H(prev_k)] dt with standard error.

    Evaluated along the states and adjoint of the previous control, so
    the value is the integrated Hamiltonian decrease of the update.
    """
    dt = grid.dt
    nodes = grid.nodes
    points = p.action_space.points
    xs = states.values
    ys = adjoint.y_values
    zs = adjoint.z_values
    m = states.n_paths
    acc = np.zeros(m)
    for k in range(prev.n_steps):
        t = float(nodes[k])
        x, y, z = xs[:, k], ys[:, k], zs[:, k]
        h_new = hamiltonian(p, t, x, y, z, new.actions(points, k, m))
        h_prev = hamiltonian(p, t, x, y, z, prev.actions(points, k, m))
        acc += (h_new - h_prev) * dt
    return mean_and_se(acc)


def run_msa(p: ControlProblem, cfg: MsaConfig) -> tuple[ControlEnsemble, IterationTrace]:
    """Full solver loop on a fixed noise bank.

    Starts from the centroid action in cfg.control_mode.  Returns the
    final control and the iteration trace.  Raises DescentFailureError
    (carrying the trace) when no acceptable step exists below rho_max.
    """
    grid = TimeGrid(n_steps=cfg.n_steps, horizon=p.horizon)
    noise = make_noise(grid, cfg.n_paths, p.noise_dim, cfg.seed)
    current = constant_control(p, cfg.n_paths, cfg.n_steps, mode=cfg.control_mode)

    trace = IterationTrace()
    states = simulate_forward(p, grid, noise, current)
    costs = cost_per_path(p, grid, states, current)
    j_cur, j_se = mean_and_se(costs)
    trace.initial_cost, trace.initial_cost_se = j_cur, j_se

    rho = cfg.rho_initial
    for n in range(1, cfg.max_iterations + 1):
        adjoint = solve_adjoint_lsmc(p, grid, noise, states, current, cfg.basis)
        n_backtracks = 0
        while True:
            candidate = update_control(p, grid, states, adjoint, current, rho)
            if np.array_equal(candidate.action_indices, current.action_indices):
                # argmin keeps every action: mu = 0 and nothing can move
                trace.add_row(n, j_cur, j_se, 0.0, 0.0, rho, n_backtracks, True)
                trace.status = "fixed_point"
                return current, trace
            mu, mu_se = compute_mu(p, grid, states, adjoint, candidate, current)
            cand_states = simulate_forward(p, grid, noise, candidate)
            cand_costs = cost_per_path(p, grid, cand_states, candidate)
            diff = cand_costs - costs
            dj, dj_se = mean_and_se(diff)
            if cfg.classical or dj <= 3.0 * dj_se:
                current = candidate
                states = cand_states
                costs = cand_costs
                j_cur, j_se = mean_and_se(costs)
                trace.add_row(n, j_cur, j_se, mu, mu_se, rho, n_backtracks, True)
                if abs(mu) <= cfg.tol_mu:
                    trace.status = "converged_mu"
                    return current, trace
                if abs(dj) <= cfg.tol_dj:
                    trace.status = "converged_dj"
                    return current, trace
                break
            n_backtracks += 1
            rho = rho * cfg.rho_growth if rho > 0 else 1.0
            if rho > cfg.rho_max:
                trace.add_row(n, j_cur, j_se, mu, mu_se, rho, n_backtracks, False)
                trace.status = "descent_failure"
                raise DescentFailureError(
                    f"no descent step found below rho_max={cfg.rho_max}", trace
                )
    trace.status = "max_iterations"
    return current, trace
