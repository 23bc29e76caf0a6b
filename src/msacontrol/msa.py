"""Successive-approximation driver with penalised control updates.

Each iteration simulates the state forward under the current control,
solves the adjoint backward, and replaces the control at every (path,
step) by the argmin of the augmented Hamiltonian against the previous
action.  A candidate is accepted only if the estimated cost does not
increase beyond Monte-Carlo slack; otherwise the penalty weight rho is
grown and the update recomputed from the same states and adjoint.  The
expected integrated Hamiltonian decrease mu is nonpositive by
construction and its convergence to zero is the stopping signal.

The update has two evaluators that choose the same actions.  For a
problem with ``action_terms`` (every ``StructuredProblem``) only the
action terms enter the argmin: per time step it is one (actions x
paths) matrix product, a table of penalties indexed by (previous,
candidate) action, and one reduction over actions.  Any other problem
calls its coefficient functions once per action and time step.
``compute_mu`` and ``verify_extended_pontryagin`` always use the full
coefficient functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .bsde import AdjointEnsemble, RegressionBasis, solve_adjoint_lsmc
from .problem import ControlProblem
from .sde import (
    NoiseBank,
    StateEnsemble,
    TimeGrid,
    cost_per_path,
    make_noise,
    mean_and_se,
    run_chunked,
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

    action_indices has shape (n_paths, n_steps).  In deterministic mode
    all paths share one action per step (rows identical).
    """

    action_indices: np.ndarray
    mode: str = "per_path"

    def __post_init__(self) -> None:
        idx = np.asarray(self.action_indices)
        if idx.ndim != 2:
            raise ValueError("action_indices must have shape (M, N)")
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError("action_indices must be integers")
        if self.mode not in CONTROL_MODES:
            raise ValueError(f"mode must be one of {CONTROL_MODES}")
        if self.mode == "deterministic" and idx.shape[0] > 1:
            if np.any(idx != idx[0]):
                raise ValueError("deterministic mode requires identical rows")
        idx = np.ascontiguousarray(idx, dtype=np.int64)
        idx.setflags(write=False)
        object.__setattr__(self, "action_indices", idx)

    @property
    def n_paths(self) -> int:
        return self.action_indices.shape[0]

    @property
    def n_steps(self) -> int:
        return self.action_indices.shape[1]


def constant_control(
    p: ControlProblem,
    n_paths: int,
    n_steps: int,
    action_index: int | None = None,
    mode: str = "per_path",
) -> ControlEnsemble:
    """Control constant in time and across paths.

    Defaults to the action closest to the action-set centroid.
    """
    if action_index is None:
        action_index = p.action_space.centroid_index()
    idx = np.full((n_paths, n_steps), int(action_index), dtype=np.int64)
    return ControlEnsemble(action_indices=idx, mode=mode)


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
    wall_ms: list = field(default_factory=list)
    initial_cost: float = float("nan")
    initial_cost_se: float = float("nan")
    status: str = "running"
    problem_name: str = ""

    def add_row(self, n, j, j_se, mu, mu_se, rho, n_backtracks, was_accepted, wall):
        self.iterations.append(int(n))
        self.costs.append(float(j))
        self.cost_ses.append(float(j_se))
        self.mus.append(float(mu))
        self.mu_ses.append(float(mu_se))
        self.rhos.append(float(rho))
        self.backtracks.append(int(n_backtracks))
        self.accepted.append(bool(was_accepted))
        self.wall_ms.append(float(wall))

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


def _step_values(p, t, x, y, z, prev_indices, rho):
    """Augmented-Hamiltonian values (n_actions, n) for one time slice.

    prev_indices holds each row's previous action index, shape (n,).
    """
    points = p.action_space.points
    n_act = points.shape[0]
    n = x.shape[0]
    h_all = np.empty((n_act, n))
    if rho > 0:
        b_all = np.empty((n_act,) + (n, p.state_dim))
        s_all = np.empty((n_act,) + (n, p.state_dim, p.noise_dim))
        g_all = np.empty((n_act,) + (n, p.state_dim))
    for j in range(n_act):
        a = np.broadcast_to(points[j], (n, points.shape[1]))
        b = np.asarray(p.drift(t, x, a))
        sig = np.asarray(p.diffusion(t, x, a))
        f = np.asarray(p.running_cost(t, x, a))
        h_all[j] = (
            np.einsum("mj,mj->m", b, y) + np.einsum("mjp,mjp->m", sig, z) + f
        )
        if rho > 0:
            b_all[j] = b
            s_all[j] = sig
            jb = np.asarray(p.drift_jac_x(t, x, a))
            js = np.asarray(p.diffusion_jac_x(t, x, a))
            fx = np.asarray(p.running_cost_grad_x(t, x, a))
            g_all[j] = (
                np.einsum("mji,mj->mi", jb, y)
                + np.einsum("mjpi,mjp->mi", js, z)
                + fx
            )
    if rho == 0:
        return h_all
    # differences against each path's own previous action
    rows = np.arange(n)
    pi = prev_indices
    db = b_all - b_all[pi, rows][None]
    ds = s_all - s_all[pi, rows][None]
    dg = g_all - g_all[pi, rows][None]
    pen = (
        np.einsum("amj,amj->am", db, db)
        + np.einsum("amjp,amjp->am", ds, ds)
        + np.einsum("amj,amj->am", dg, dg)
    )
    return h_all + 0.5 * rho * pen


def update_control(
    p: ControlProblem,
    grid: TimeGrid,
    states: StateEnsemble,
    adjoint: AdjointEnsemble,
    prev: ControlEnsemble,
    rho: float,
    workers: int = 1,
) -> ControlEnsemble:
    """Pointwise argmin of the augmented Hamiltonian against prev.

    Ties keep the previous action when it attains the minimum, else the
    lowest action index wins.  In deterministic mode the argmin is taken
    over the path-averaged augmented Hamiltonian at each step.  Problems
    with ``action_terms`` take a vectorised path that ignores ``workers``.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    m, n = prev.n_paths, prev.n_steps
    new_idx = np.empty((m, n), dtype=np.int64)
    if p.action_terms is not None:
        _separable_update(p, grid, adjoint, prev, rho, new_idx)
        return ControlEnsemble(action_indices=new_idx, mode=prev.mode)
    n_act = p.action_space.n_actions
    nodes = grid.nodes
    xs = states.values
    ys = adjoint.y_values
    zs = adjoint.z_values
    prev_idx = prev.action_indices

    for k in range(n):
        t = float(nodes[k])
        if prev.mode == "deterministic":
            vals = np.empty((n_act, m))

            def fill(lo, hi, k=k, t=t, vals=vals):
                vals[:, lo:hi] = _step_values(
                    p, t, xs[lo:hi, k], ys[lo:hi, k], zs[lo:hi, k],
                    prev_idx[lo:hi, k], rho,
                )

            run_chunked(m, workers, fill)
            col = vals.mean(axis=1)
            best = float(col.min())
            pk = int(prev_idx[0, k])
            if col[pk] == best:
                choice = pk
            else:
                choice = int(col.argmin())
            new_idx[:, k] = choice
        else:

            def block(lo, hi, k=k, t=t):
                vals = _step_values(
                    p, t, xs[lo:hi, k], ys[lo:hi, k], zs[lo:hi, k],
                    prev_idx[lo:hi, k], rho,
                )
                pk = prev_idx[lo:hi, k]
                rows = np.arange(hi - lo)
                mins = vals.min(axis=0)
                cand = vals.argmin(axis=0)
                keep = vals[pk, rows] == mins
                new_idx[lo:hi, k] = np.where(keep, pk, cand)

            run_chunked(m, workers, block)
    return ControlEnsemble(action_indices=new_idx, mode=prev.mode)


def _separable_update(p, grid, adjoint, prev, rho, out):
    """update_control for a problem with action terms, written into out.

    Under the ActionTerms contract H(a) = [y, vec z] . C_a + f2(a) plus
    terms free of a, where C_a = [b2(a), vec sigma2(a)].  The grad_x H
    part of the penalty vanishes, so the penalty against the previous
    action is the table (rho/2) |C_a - C_prev|^2.
    """
    terms = p.action_terms
    points = p.action_space.points
    n_act = points.shape[0]
    m, d = prev.n_paths, p.state_dim
    ys = adjoint.y_values
    zs = adjoint.z_values
    prev_idx = prev.action_indices
    rows = np.arange(m)
    w = np.empty((d + d * p.noise_dim, m))  # [y, vec z] per path, transposed
    for k in range(prev.n_steps):
        t = float(grid.nodes[k])
        c = np.concatenate(
            [
                np.asarray(terms.drift(t, points)),
                np.asarray(terms.diffusion(t, points)).reshape(n_act, -1),
            ],
            axis=1,
        )
        f2 = np.asarray(terms.running_cost(t, points))
        diff = c[:, None, :] - c[None, :, :]
        half_pen = 0.5 * rho * np.einsum("apq,apq->ap", diff, diff)
        w[:d] = ys[:, k].T
        w[d:] = zs[:, k].reshape(m, -1).T
        if prev.mode == "deterministic":
            pk = int(prev_idx[0, k])
            col = c @ w.mean(axis=1) + f2 + half_pen[pk]
            out[:, k] = pk if col[pk] == col.min() else int(col.argmin())
            continue
        pk = prev_idx[:, k]
        vals = c @ w  # (n_act, m): a reduction over actions is a row-wise pass
        vals += f2[:, None]
        if rho > 0:
            vals += half_pen[:, pk]  # the table is symmetric
        mins = vals.min(axis=0)
        cand = (vals == mins).argmax(axis=0)  # lowest index attaining the min
        out[:, k] = np.where(vals[pk, rows] == mins, pk, cand)


def compute_mu(
    p: ControlProblem,
    grid: TimeGrid,
    states: StateEnsemble,
    adjoint: AdjointEnsemble,
    new: ControlEnsemble,
    prev: ControlEnsemble,
    workers: int = 1,
) -> tuple[float, float]:
    """Estimate of E sum_k [H(new_k) - H(prev_k)] dt with standard error.

    Evaluated along the states and adjoint of the previous control, so
    the value is the integrated Hamiltonian decrease of the update.
    """
    m, n = prev.n_paths, prev.n_steps
    dt = grid.dt
    nodes = grid.nodes
    points = p.action_space.points
    xs = states.values
    ys = adjoint.y_values
    zs = adjoint.z_values
    acc = np.zeros(m)

    def block(lo, hi):
        for k in range(n):
            t = float(nodes[k])
            x, y, z = xs[lo:hi, k], ys[lo:hi, k], zs[lo:hi, k]
            h_new = _hamiltonian_slice(p, t, x, y, z, points[new.action_indices[lo:hi, k]])
            h_prev = _hamiltonian_slice(p, t, x, y, z, points[prev.action_indices[lo:hi, k]])
            acc[lo:hi] += (h_new - h_prev) * dt

    run_chunked(m, workers, block)
    return mean_and_se(acc)


def _hamiltonian_slice(p, t, x, y, z, a):
    b = np.asarray(p.drift(t, x, a))
    sig = np.asarray(p.diffusion(t, x, a))
    f = np.asarray(p.running_cost(t, x, a))
    return np.einsum("mj,mj->m", b, y) + np.einsum("mjp,mjp->m", sig, z) + f


def run_msa(
    p: ControlProblem,
    cfg: MsaConfig,
    initial: ControlEnsemble | None = None,
    workers: int = 1,
) -> tuple[ControlEnsemble, IterationTrace]:
    """Full solver loop on a fixed noise bank.

    Returns the final control and the iteration trace.  Raises
    DescentFailureError (carrying the trace) when no acceptable step
    exists below rho_max.
    """
    grid = TimeGrid(n_steps=cfg.n_steps, horizon=p.horizon)
    noise = make_noise(grid, cfg.n_paths, p.noise_dim, cfg.seed)
    if initial is None:
        current = constant_control(p, cfg.n_paths, cfg.n_steps, mode=cfg.control_mode)
    else:
        if initial.action_indices.shape != (cfg.n_paths, cfg.n_steps):
            raise ValueError("initial control has wrong shape for the config")
        current = initial

    trace = IterationTrace(problem_name=p.name)
    states = simulate_forward(p, grid, noise, current, workers=workers)
    costs = cost_per_path(p, grid, states, current, workers=workers)
    j_cur, j_se = mean_and_se(costs)
    trace.initial_cost, trace.initial_cost_se = j_cur, j_se

    rho = cfg.rho_initial
    for n in range(1, cfg.max_iterations + 1):
        t0 = time.perf_counter()
        adjoint = solve_adjoint_lsmc(p, grid, noise, states, current, cfg.basis)
        n_backtracks = 0
        while True:
            candidate = update_control(
                p, grid, states, adjoint, current, rho, workers=workers
            )
            if np.array_equal(candidate.action_indices, current.action_indices):
                # argmin keeps every action: mu = 0 and nothing can move
                wall = 1e3 * (time.perf_counter() - t0)
                trace.add_row(n, j_cur, j_se, 0.0, 0.0, rho, n_backtracks, True, wall)
                trace.status = "fixed_point"
                return current, trace
            mu, mu_se = compute_mu(
                p, grid, states, adjoint, candidate, current, workers=workers
            )
            cand_states = simulate_forward(p, grid, noise, candidate, workers=workers)
            cand_costs = cost_per_path(p, grid, cand_states, candidate, workers=workers)
            diff = cand_costs - costs
            dj, dj_se = mean_and_se(diff)
            if cfg.classical or dj <= 3.0 * dj_se:
                current = candidate
                states = cand_states
                costs = cand_costs
                j_cur, j_se = mean_and_se(costs)
                wall = 1e3 * (time.perf_counter() - t0)
                trace.add_row(n, j_cur, j_se, mu, mu_se, rho, n_backtracks, True, wall)
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
                wall = 1e3 * (time.perf_counter() - t0)
                trace.add_row(n, j_cur, j_se, mu, mu_se, rho, n_backtracks, False, wall)
                trace.status = "descent_failure"
                raise DescentFailureError(
                    f"no descent step found below rho_max={cfg.rho_max}", trace
                )
    trace.status = "max_iterations"
    return current, trace


@dataclass(frozen=True)
class PontryaginReport:
    """Sampled check of the optimality condition on the augmented Hamiltonian."""

    violation_fraction: float
    worst_gap: float
    n_samples: int
    tol: float
    rho: float


def verify_extended_pontryagin(
    p: ControlProblem,
    grid: TimeGrid,
    states: StateEnsemble,
    adjoint: AdjointEnsemble,
    control: ControlEnsemble,
    rho: float,
    n_samples: int,
    tol: float = 1e-3,
    seed: int = 0,
) -> PontryaginReport:
    """Check H~(a*, a*) <= H~(a*, a) + tol at sampled (path, step) pairs.

    H~(a*, a) penalises a against the control's own action, so the gap
    H(a*) - min_a H~(a*, a) is nonnegative and zero exactly when a* is
    the penalised argmin against itself.
    """
    m, n = control.n_paths, control.n_steps
    rng = np.random.default_rng(seed)
    ii = rng.integers(0, m, size=n_samples)
    kk = rng.integers(0, n, size=n_samples)
    nodes = grid.nodes
    xs = states.values
    ys = adjoint.y_values
    zs = adjoint.z_values
    gaps = np.empty(n_samples)
    for k in np.unique(kk):
        sel = np.where(kk == k)[0]
        i_sel = ii[sel]
        t = float(nodes[k])
        x, y, z = xs[i_sel, k], ys[i_sel, k], zs[i_sel, k]
        own = control.action_indices[i_sel, k]
        vals = _step_values(p, t, x, y, z, own, rho)
        h_own = vals[own, np.arange(sel.size)]
        gaps[sel] = h_own - vals.min(axis=0)
    return PontryaginReport(
        violation_fraction=float(np.mean(gaps > tol)),
        worst_gap=float(gaps.max()),
        n_samples=n_samples,
        tol=tol,
        rho=rho,
    )
