"""Successive-approximation driver with penalised control updates.

Each iteration simulates the state forward under the current control,
solves the adjoint backward, and replaces the control at every (path,
step) by the argmin of the augmented Hamiltonian against the previous
action.  A candidate is accepted only when its cost change dJ, paired
path by path on the shared noise bank, is negative: the in-sample cost
strictly decreases, so the loop never returns to a control it has left.
Otherwise the penalty weight rho is grown and the update recomputed from
the same states and adjoint.  The expected integrated Hamiltonian
decrease mu is nonpositive by construction and its convergence to zero
is the stopping signal.

Hamiltonian values come from two places.  In ``problem.py``,
``hamiltonian`` at given actions and ``augmented_hamiltonian`` over
every (action, path) pair share one contraction; ``compute_mu`` always
uses it.  For a problem with ``action_terms`` (every
``StructuredProblem``), ``_term_values`` here evaluates H's action
terms, C_a . [y, vec z] + f2, itself.  ``update_control`` is one loop
over time steps that writes the new control one step row at a time.
Step k's (actions x paths) value table is what a plain function of
(adjoint, rho, k) returns: ``augmented_hamiltonian``'s, or
``_term_values``' one matrix product with the penalty expanded against
each path's previous action.  One helper applies the tie rule to either,
by row-wise passes over the table: a minimum, a maximum of reversed
ranks over the attaining rows, and an any over the rows that hold the
previous action, with no argmax down the actions axis and no gather.  Controls and the kernels that read them live in ``sde.py``;
this module reads a control by step row.
The candidate's indices have the action space's ``index_dtype`` (uint8
up to 256 actions) whatever the previous control's dtype, so an
iteration's two (N, M) controls, the iterate's and the candidate's, cost
2 N M bytes, not the 16 N M of int64 indices.
An iterate is one ``AdjointEnsemble``: it carries the ``StateEnsemble``
it was solved along, which carries its problem, bank and control, so
``update_control(adjoint, rho)`` and ``compute_mu(adjoint, new)`` take
no other input, and the states' control is the ``prev`` that both are
penalised and measured against.

A candidate's paths never coexist with the paths they would replace.
Besides the bank, the LSMC solve holds the iterate's states and the y
and z it fills; ``update_control`` and ``compute_mu`` hold the states,
y, z and one step's (actions x paths) table, freed once the tie rule
has read it, plus two byte tables of that shape while the tie rule
runs; and before the candidate is simulated ``run_msa`` drops the
states, keeping y, z and their control.  An accepted candidate's states
become the iterate and y and z go.  A rejected candidate's states go,
and if another rho will be tried the iterate's states are replayed on
the same bank and control, which gives the same bits, and the adjoint
is rebuilt around them.

The iteration record is a list of ``TraceRow``s, the trace CSV's
columns; its readers take every row, the accepted rows or the last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bsde import AdjointEnsemble, RegressionBasis, solve_adjoint_lsmc
from .problem import ControlProblem, _check_finite, augmented_hamiltonian, hamiltonian
from .sde import (
    CONTROL_MODES,
    ControlEnsemble,
    NoiseBank,
    TimeGrid,
    constant_control,
    cost_per_path,
    make_noise,
    mean_and_se,
    simulate_forward,
)


# a rejected candidate's rho is multiplied by this; a rho of 0 becomes 1
_RHO_GROWTH = 2.0
# rho max_a |C_a|^2 above this could overflow the action-terms table's penalty
_PENALTY_MAX = float(np.finfo(float).max) / 4


class DescentFailureError(RuntimeError):
    """Never raised: run_msa returns a descent failure as trace.status.

    Kept only because perfbench/tracing.py still imports it.
    """


@dataclass(frozen=True)
class MsaConfig:
    """Solver configuration.

    A rejected candidate doubles rho, up to rho_max, so a penalised
    solve needs rho_initial <= rho_max.  classical = True freezes the
    penalty at rho_initial and accepts every candidate (no descent test,
    no backtracking); used to demonstrate how the unpenalised update can
    drive the cost up.
    """

    n_paths: int = 10000
    n_steps: int = 50
    seed: int = 12345
    rho_initial: float = 1.0
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
        for name in ("rho_initial", "rho_max", "tol_mu", "tol_dj"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.rho_initial < 0:
            raise ValueError("rho_initial must be nonnegative")
        if not self.classical and self.rho_initial > self.rho_max:
            raise ValueError(f"rho_initial {self.rho_initial} exceeds rho_max {self.rho_max}")
        if self.tol_mu <= 0 or self.tol_dj <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.control_mode not in CONTROL_MODES:
            raise ValueError(f"control_mode must be one of {CONTROL_MODES}")

    def bank(self, p: ControlProblem) -> NoiseBank:
        """The solve's frozen noise bank for p; the solver and its oracles price on it."""
        return make_noise(TimeGrid(self.n_steps, p.horizon), self.n_paths, p.noise_dim, self.seed)


class TraceRow(NamedTuple):
    """An accepted candidate, a fixed point or the final rejection: the CSV's columns."""

    n: int
    J: float
    J_se: float
    mu: float
    mu_se: float
    rho: float
    backtracks: int
    accepted: bool


@dataclass
class IterationTrace:
    """Per-iteration audit trail of the solver; a rejected row repeats the iterate's J."""

    rows: list[TraceRow] = field(default_factory=list)
    initial_cost: float = float("nan")
    initial_cost_se: float = float("nan")
    status: str = "running"

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def backtracks(self) -> list[int]:
        return [row.backtracks for row in self.rows]

    @property
    def accepted_rows(self) -> list[TraceRow]:
        return [row for row in self.rows if row.accepted]

    @property
    def final(self) -> tuple[float, float, float]:
        """(J, J_se, mu) of the last accepted row; the initial cost, its SE and nan without one."""
        accepted = self.accepted_rows
        if not accepted:
            return self.initial_cost, self.initial_cost_se, float("nan")
        return accepted[-1].J, accepted[-1].J_se, accepted[-1].mu


def update_control(adjoint: AdjointEnsemble, rho: float) -> ControlEnsemble:
    """Pointwise argmin of the augmented Hamiltonian against prev = adjoint.states.control.

    Ties keep the previous action when it attains the minimum, else the
    lowest action index wins, on the computed table: the action-terms
    table differs from the textbook one by a per-path constant, so it
    ties where that one does up to rounding.  For a deterministic
    (one-column) prev the argmin is taken over the path-averaged
    augmented Hamiltonian at each step, and the result is again one
    column.
    """
    if not 0 <= rho < np.inf:
        raise ValueError(f"rho must be nonnegative and finite, got {rho}")
    p, prev = adjoint.states.problem, adjoint.states.control
    step_values = _hamiltonian_values if p.action_terms is None else _term_values
    # the compact dtype, not prev's: a caller's int64 prev still gets a small candidate
    new_idx = np.empty(prev.by_step.shape, dtype=p.action_space.index_dtype)
    for k in range(prev.n_steps):
        new_idx[k] = _keep_or_lowest(step_values(adjoint, rho, k), prev.by_step[k])
    return ControlEnsemble(new_idx)


def _keep_or_lowest(vals, prev):
    """Column-wise argmin of an (actions, columns) table, by row-wise passes.

    A column keeps its previous action where that action attains the
    column minimum, else takes the lowest index attaining it: this equals
    argmin on finite tables, and a column holding a NaN gets index 0.
    Every reduction runs along the rows of the C-ordered table, never
    down a column, so nothing is transposed or gathered.  The lowest
    attaining index is A-1 minus the column maximum of A-1-i over the
    attaining rows i.  The temporaries are byte tables, at most two alive
    at a time (the product of ranks is two bytes an entry beyond 256
    actions).
    """
    a = len(vals)
    ranks = np.arange(a, dtype=np.min_scalar_type(a - 1))[:, None]  # the index dtype
    mins = vals.min(axis=0)
    attains = vals == mins
    no_min = np.isnan(mins)
    del mins
    hit = ranks == prev  # each column's previous action
    hit &= attains
    keep = hit.any(axis=0)
    del hit
    lowest = (a - 1) - (attains * ranks[::-1]).max(axis=0)
    lowest[no_min] = 0  # no row attains a NaN minimum
    return np.where(keep, prev, lowest)


def _hamiltonian_values(adjoint, rho, k):
    """Step k's augmented Hamiltonian, (actions, paths), or its path mean for a shared prev."""
    states = adjoint.states
    p, prev = states.problem, states.control
    x, y, z = states.values[k], adjoint.y_values[k], adjoint.z_values[k]
    t = float(states.grid.nodes[k])
    vals = augmented_hamiltonian(p, t, x, y, z, prev.indices(k, states.n_paths), rho)
    return vals.mean(axis=1, keepdims=True) if prev.shared else vals


def _term_values(adjoint, rho, k):
    """Step k's values of the same argmin, from the action terms alone.

    Under the ActionTerms contract H(a) = [y, vec z] . C_a + f2(a) plus
    terms free of a, where C_a = [b2(a), vec sigma2(a)].  The grad_x H
    part of the penalty vanishes, leaving (rho/2) |C_a - C_p|^2 against
    the previous action p, one row for a shared prev.  Per path, less its
    action-free term (rho/2) |C_p|^2, the table is the one product
    C (w - rho C_prev) + f2 + (rho/2) |C_a|^2, so its values resolve to
    about eps rho |C|^2 where the textbook table compares f2 exactly
    between actions with equal C.  Raises ValueError if it could overflow.
    """
    states = adjoint.states
    p, m, prev = states.problem, states.n_paths, states.control
    terms, points = p.action_terms, p.action_space.points
    t = float(states.grid.nodes[k])
    b2 = np.asarray(terms.drift(t, points))
    s2 = np.asarray(terms.diffusion(t, points)).reshape(len(points), -1)
    c = _check_finite("action terms", np.concatenate([b2, s2], axis=1))
    f2 = _check_finite("action terms", np.asarray(terms.running_cost(t, points)))
    sq = np.einsum("aq,aq->a", c, c)
    if float(rho) * float(sq.max()) > _PENALTY_MAX:  # Python floats overflow to inf quietly
        raise ValueError(f"rho {rho} times max |C_a|^2 {sq.max():.3g} could overflow the table")
    # [y, vec z] per path, transposed
    w = np.concatenate([adjoint.y_values[k].T, adjoint.z_values[k].reshape(m, -1).T])
    if prev.shared:  # path mean first: a matrix-vector product
        d = c - c[prev.indices(k, 1)]
        return (c @ w.mean(axis=1) + f2 + 0.5 * rho * np.einsum("aq,aq->a", d, d))[:, None]
    if rho > 0:  # one (q, m) gather; the states validated their control
        w -= (rho * c.T).take(prev.indices(k, m), axis=1)
        f2 = f2 + 0.5 * rho * sq
    vals = c @ w  # (actions, m): a reduction over actions is a row-wise pass
    vals += f2[:, None]
    return vals


def compute_mu(adjoint: AdjointEnsemble, new: ControlEnsemble) -> tuple[float, float]:
    """Estimate of E sum_k [H(new_k) - H(prev_k)] dt with standard error.

    Evaluated along the adjoint and its states, prev = adjoint.states.control,
    so the value is the integrated Hamiltonian decrease of the update.
    """
    states = adjoint.states
    p, noise, m = states.problem, states.noise, states.n_paths
    new.validate(m, states.n_steps, p.action_space.n_actions)
    dt = states.grid.dt
    acc = np.zeros(m)
    for (k, t, a_new), (_, _, a_prev) in zip(new.steps(p, noise), states.control.steps(p, noise)):
        x, y, z = states.values[k], adjoint.y_values[k], adjoint.z_values[k]
        acc += (hamiltonian(p, t, x, y, z, a_new) - hamiltonian(p, t, x, y, z, a_prev)) * dt
    return mean_and_se(acc)


def run_msa(p: ControlProblem, cfg: MsaConfig) -> tuple[ControlEnsemble, IterationTrace]:
    """Full solver loop on a fixed noise bank.

    Starts from the centroid action in cfg.control_mode.  Returns the
    last accepted control and the iteration trace, whose status says why
    the loop stopped; "descent_failure", when no acceptable step exists
    below rho_max, ends the trace with the rejected row.
    """
    noise = cfg.bank(p)
    # only the states hold their control, so a superseded control is freed with them
    states = simulate_forward(
        p, noise, constant_control(p, cfg.n_paths, cfg.n_steps, mode=cfg.control_mode)
    )
    trace = IterationTrace()
    costs = cost_per_path(states)
    j_cur, j_se = mean_and_se(costs)
    trace.initial_cost, trace.initial_cost_se = j_cur, j_se

    rho = cfg.rho_initial
    for n in range(1, cfg.max_iterations + 1):
        adjoint = solve_adjoint_lsmc(states, cfg.basis)
        n_backtracks = 0
        while True:
            candidate = update_control(adjoint, rho)
            if np.array_equal(candidate.by_step, states.control.by_step):
                # argmin keeps every action: mu = 0 and nothing can move
                trace.rows.append(TraceRow(n, j_cur, j_se, 0.0, 0.0, rho, n_backtracks, True))
                trace.status = "fixed_point"
                return states.control, trace
            mu, mu_se = compute_mu(adjoint, candidate)
            # the candidate's paths never coexist with the ones they would replace
            y, z, prev = adjoint.y_values, adjoint.z_values, states.control
            del adjoint, states
            cand_states = simulate_forward(p, noise, candidate)
            cand_costs = cost_per_path(cand_states)
            # both controls are priced on one bank, so dJ is exact in sample
            dj = float(np.mean(cand_costs - costs))
            if cfg.classical or dj < 0:
                states, costs = cand_states, cand_costs
                del cand_states, y, z, prev  # the next solve runs without them
                j_cur, j_se = mean_and_se(costs)
                trace.rows.append(TraceRow(n, j_cur, j_se, mu, mu_se, rho, n_backtracks, True))
                if abs(mu) <= cfg.tol_mu:
                    trace.status = "converged_mu"
                    return states.control, trace
                if abs(dj) <= cfg.tol_dj:
                    trace.status = "converged_dj"
                    return states.control, trace
                break
            del cand_states
            n_backtracks += 1
            grown = rho * _RHO_GROWTH if rho > 0 else 1.0
            if grown > cfg.rho_max:
                # the row reports the rho its candidate and mu were computed at
                trace.rows.append(TraceRow(n, j_cur, j_se, mu, mu_se, rho, n_backtracks, False))
                trace.status = "descent_failure"
                return prev, trace
            rho = grown
            # replay the iterate's paths: the same bank and control give the same bits
            states = simulate_forward(p, noise, prev)
            adjoint = AdjointEnsemble(y, z, states)
    trace.status = "max_iterations"
    return states.control, trace
