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
``update_control`` is one loop over time steps that writes the new
control one step row at a time.  Each step's (actions x paths) value
table comes from ``augmented_hamiltonian`` or, for a problem with
``action_terms`` (every ``StructuredProblem``), from one matrix product
of the action terms plus a (previous, candidate) penalty table; one
helper applies the tie rule to either.  Controls and the kernels that
read them live in ``sde.py``; this module reads a control by step row.
An iterate is one ``StateEnsemble``, whose control is the ``prev`` that
the update and mu are penalised and measured against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bsde import AdjointEnsemble, RegressionBasis, solve_adjoint_lsmc
from .problem import ControlProblem, _check_finite, augmented_hamiltonian, hamiltonian
from .sde import (
    CONTROL_MODES,
    ControlEnsemble,
    StateEnsemble,
    TimeGrid,
    constant_control,
    cost_per_path,
    make_noise,
    mean_and_se,
    simulate_forward,
)


class DescentFailureError(RuntimeError):
    """Penalty growth exhausted without an acceptable descent step."""

    def __init__(self, message: str, trace: "IterationTrace"):
        super().__init__(message)
        self.trace = trace


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
    p: ControlProblem, states: StateEnsemble, adjoint: AdjointEnsemble, rho: float
) -> ControlEnsemble:
    """Pointwise argmin of the augmented Hamiltonian against prev = states.control.

    Ties keep the previous action when it attains the minimum, else the
    lowest action index wins.  For a deterministic (one-column) prev the
    argmin is taken over the path-averaged augmented Hamiltonian at each
    step, and the result is again one column.
    """
    if not 0 <= rho < np.inf:
        raise ValueError(f"rho must be nonnegative and finite, got {rho}")
    prev = states.control
    prev.validate(states.n_paths, states.n_steps, p.action_space.n_actions)
    adjoint.validate(states.n_paths, states.n_steps)
    producer = _hamiltonian_values if p.action_terms is None else _term_values
    new_idx = np.empty_like(prev.by_step)
    for k, vals in producer(p, states, adjoint, rho):
        new_idx[k] = _keep_or_lowest(vals, prev.by_step[k])
        del vals  # no table outlives its step while the producer builds the next
    return ControlEnsemble(new_idx)


def _keep_or_lowest(vals, prev):
    """Column-wise argmin of an (actions, columns) table.

    A column keeps its previous action where that action attains the
    column minimum, else takes the lowest index attaining it.
    """
    mins = vals.min(axis=0)
    at_prev = vals[prev, np.arange(vals.shape[1])]
    lowest = (vals == mins).argmax(axis=0)  # equals argmin on finite tables
    return np.where(at_prev == mins, prev, lowest)


def _hamiltonian_values(p, states, adjoint, rho):
    """Per step k, (k, the augmented Hamiltonian), (actions, paths) or path mean."""
    m, prev = states.n_paths, states.control
    times = states.grid.nodes.tolist()
    for k in range(prev.n_steps):
        x, y, z = states.values[k], adjoint.y_values[k], adjoint.z_values[k]
        vals = augmented_hamiltonian(p, times[k], x, y, z, prev.indices(k, m), rho)
        yield k, (vals.mean(axis=1, keepdims=True) if prev.shared else vals)


def _term_values(p, states, adjoint, rho):
    """Per step k, (k, the same argmin's values from the action terms alone).

    Under the ActionTerms contract H(a) = [y, vec z] . C_a + f2(a) plus
    terms free of a, where C_a = [b2(a), vec sigma2(a)].  The grad_x H
    part of the penalty vanishes, so the penalty against the previous
    action is the table (rho/2) |C_a - C_prev|^2.
    """
    terms = p.action_terms
    points = p.action_space.points
    m, d, prev = states.n_paths, p.state_dim, states.control
    times = states.grid.nodes.tolist()
    ys = adjoint.y_values
    zs = adjoint.z_values
    w = np.empty((d + d * p.noise_dim, m))  # [y, vec z] per path, transposed
    for k in range(prev.n_steps):
        t = times[k]
        b2 = np.asarray(terms.drift(t, points))
        s2 = np.asarray(terms.diffusion(t, points)).reshape(len(points), -1)
        c = _check_finite("action terms", np.concatenate([b2, s2], axis=1))
        f2 = _check_finite("action terms", np.asarray(terms.running_cost(t, points)))
        diff = c[:, None, :] - c[None, :, :]
        half_pen = 0.5 * rho * np.einsum("apq,apq->ap", diff, diff)
        w[:d] = ys[k].T
        w[d:] = zs[k].reshape(m, -1).T
        if prev.shared:  # path mean first: a matrix-vector product
            yield k, (c @ w.mean(axis=1) + f2)[:, None] + half_pen[:, prev.indices(k, 1)]
            continue
        vals = c @ w  # (actions, m): a reduction over actions is a row-wise pass
        vals += f2[:, None]
        if rho > 0:
            vals += half_pen[:, prev.indices(k, m)]  # the table is symmetric
        yield k, vals


def compute_mu(
    p: ControlProblem, states: StateEnsemble, adjoint: AdjointEnsemble, new: ControlEnsemble
) -> tuple[float, float]:
    """Estimate of E sum_k [H(new_k) - H(prev_k)] dt with standard error.

    Evaluated along the states and adjoint of prev = states.control, so
    the value is the integrated Hamiltonian decrease of the update.
    """
    m, noise = states.n_paths, states.noise
    adjoint.validate(m, states.n_steps)
    dt = states.grid.dt
    acc = np.zeros(m)
    for (k, t, a_new), (_, _, a_prev) in zip(new.steps(p, noise), states.control.steps(p, noise)):
        x, y, z = states.values[k], adjoint.y_values[k], adjoint.z_values[k]
        acc += (hamiltonian(p, t, x, y, z, a_new) - hamiltonian(p, t, x, y, z, a_prev)) * dt
    return mean_and_se(acc)


def run_msa(p: ControlProblem, cfg: MsaConfig) -> tuple[ControlEnsemble, IterationTrace]:
    """Full solver loop on a fixed noise bank.

    Starts from the centroid action in cfg.control_mode.  Returns the
    final control and the iteration trace.  Raises DescentFailureError
    (carrying the trace) when no acceptable step exists below rho_max.
    """
    grid = TimeGrid(n_steps=cfg.n_steps, horizon=p.horizon)
    noise = make_noise(grid, cfg.n_paths, p.noise_dim, cfg.seed)
    # only the states hold their control, so a superseded control is freed with them
    states = simulate_forward(
        p, noise, constant_control(p, cfg.n_paths, cfg.n_steps, mode=cfg.control_mode)
    )
    trace = IterationTrace()
    costs = cost_per_path(p, states)
    j_cur, j_se = mean_and_se(costs)
    trace.initial_cost, trace.initial_cost_se = j_cur, j_se

    rho = cfg.rho_initial
    for n in range(1, cfg.max_iterations + 1):
        adjoint = solve_adjoint_lsmc(p, states, cfg.basis)
        n_backtracks = 0
        while True:
            candidate = update_control(p, states, adjoint, rho)
            if np.array_equal(candidate.by_step, states.control.by_step):
                # argmin keeps every action: mu = 0 and nothing can move
                trace.add_row(n, j_cur, j_se, 0.0, 0.0, rho, n_backtracks, True)
                trace.status = "fixed_point"
                return states.control, trace
            mu, mu_se = compute_mu(p, states, adjoint, candidate)
            cand_states = simulate_forward(p, noise, candidate)
            cand_costs = cost_per_path(p, cand_states)
            diff = cand_costs - costs
            dj, dj_se = mean_and_se(diff)
            if cfg.classical or dj <= 3.0 * dj_se:
                states = cand_states
                costs = cand_costs
                j_cur, j_se = mean_and_se(costs)
                trace.add_row(n, j_cur, j_se, mu, mu_se, rho, n_backtracks, True)
                if abs(mu) <= cfg.tol_mu:
                    trace.status = "converged_mu"
                    return states.control, trace
                if abs(dj) <= cfg.tol_dj:
                    trace.status = "converged_dj"
                    return states.control, trace
                del adjoint  # the next solve builds its adjoint without this one alive
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
    return states.control, trace
