"""Backward adjoint solve via least-squares Monte Carlo, plus oracles.

The adjoint pair (Y, Z) solves the linear backward SDE with driver
-grad_x H and terminal condition grad g(X_T).  Conditional expectations
in the backward sweep are least-squares projections onto a polynomial
basis of the state (regression per time step, single deterministic
reduction).  An independent check of Y_0 comes from the explicit
representation through the fundamental solution of the linearised state
equation, which needs no conditional expectations at t = 0.  Kernels read
grid, increments and control from the ``StateEnsemble`` they are given.
The adjoint is stored step-major like the states and the bank, so every
step of a sweep reads one contiguous (M, ...) slab of each.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .problem import ControlProblem, hamiltonian_grad_x
from .sde import StateEnsemble, mean_and_se


class RegressionError(RuntimeError):
    """Raised when a backward regression step cannot be solved."""


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial regression basis for conditional expectations.

    ridge = None selects the default penalty 1e-8 * n_paths at fit time.
    Features are built from per-step standardised coordinates, which
    leaves the fitted projection unchanged (the polynomial span is
    invariant under affine maps) but keeps the normal equations well
    conditioned.
    """

    degree: int = 2
    ridge: float | None = None

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if self.ridge is not None and not 0 <= self.ridge < np.inf:
            raise ValueError("ridge must be nonnegative and finite")

    def n_functions(self, state_dim: int) -> int:
        return comb(state_dim + self.degree, self.degree)

    def exponents(self, state_dim: int) -> np.ndarray:
        rows = []
        for total in range(self.degree + 1):
            for combo in itertools.combinations_with_replacement(
                range(state_dim), total
            ):
                e = np.zeros(state_dim, dtype=int)
                for i in combo:
                    e[i] += 1
                rows.append(e)
        return np.array(rows)

    def features(self, x: np.ndarray) -> np.ndarray:
        """Design matrix (M, B) of monomials of the standardised state.

        Column b is the product over j of u_j ** e_bj, in increasing j,
        with the factors e = 0 left out and u_j itself for e = 1: both are
        exact, so this is bitwise np.prod(u ** exps, axis=2).  Each power
        with e >= 2 is numpy's pow, computed once per (j, e).
        """
        mu = x.mean(axis=0)
        sd = x.std(axis=0)
        sd = np.where(sd > 0, sd, 1.0)
        u = (x - mu) / sd
        m, d = u.shape
        # an exponent array, not a scalar: numpy evaluates pow(u, 2.0) with
        # a scalar exponent as u*u, which differs from pow in the last bit
        powers = {
            (j, e): np.power(u[:, j], np.full(m, float(e)))
            for j in range(d)
            for e in range(2, self.degree + 1)
        }
        exps = self.exponents(d)
        phi = np.empty((m, exps.shape[0]))
        for b, row in enumerate(exps):
            factors = [
                u[:, j] if e == 1 else powers[j, e] for j, e in enumerate(row) if e
            ]
            phi[:, b] = functools.reduce(np.multiply, factors) if factors else 1.0
        return phi


@dataclass(frozen=True)
class AdjointEnsemble:
    """Adjoint values, step-major: y (N+1, M, d) and z (N, M, d, d').

    y_values[k] and z_values[k] are step k's contiguous slabs.
    """

    y_values: np.ndarray
    z_values: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.y_values, dtype=float)
        z = np.asarray(self.z_values, dtype=float)
        if y.ndim != 3 or z.ndim != 4 or (y.shape[0] - 1, *y.shape[1:]) != z.shape[:3]:
            raise ValueError(
                f"y {y.shape} must be (N+1, M, d) and z {z.shape} must be (N, M, d, d')"
            )
        y.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "y_values", y)
        object.__setattr__(self, "z_values", z)

    def validate(self, n_paths: int, n_steps: int) -> None:
        """Raise ValueError unless this adjoint fits M paths and N steps."""
        y, z = self.y_values.shape, self.z_values.shape
        if y[:2] != (n_steps + 1, n_paths) or z[:2] != (n_steps, n_paths):
            raise ValueError(
                f"adjoint shapes y {y}, z {z} do not match (N + 1, M) and (N, M) "
                f"for (N, M) = ({n_steps}, {n_paths})"
            )


def _ridge_solve(gram: np.ndarray, phi: np.ndarray, targets: np.ndarray, step: int):
    try:
        coef = np.linalg.solve(gram, phi.T @ targets)
    except np.linalg.LinAlgError as exc:
        raise RegressionError(
            f"regression solve failed at step {step}: {exc}"
        ) from exc
    return coef


def solve_adjoint_lsmc(
    p: ControlProblem, states: StateEnsemble, basis: RegressionBasis
) -> AdjointEnsemble:
    """Backward induction for the adjoint pair along the states, under their control.

    Y_N = grad g(X_N); for k = N-1 .. 0:
        Yhat_k = E[Y_{k+1} | X_k]                      (projection)
        Z_k    = E[(Y_{k+1} - Yhat_k) dW_k^T | X_k]/dt (projection)
        Y_k    = Yhat_k + dt * grad_x H(t_k, X_k, Yhat_k, Z_k, a_k)

    Centring the Z target by Yhat_k leaves the conditional expectation
    unchanged (E[Yhat_k dW | X_k] = 0) and removes the dominant noise
    term, so a driverless problem yields Z = 0 up to the ridge bias.
    """
    m, n, d, dn = states.n_paths, states.n_steps, p.state_dim, p.noise_dim
    states.control.validate(m, n, p.action_space.n_actions)
    n_basis = basis.n_functions(d)
    if n_basis > m / 10:
        raise RegressionError(
            f"degree-{basis.degree} basis has {n_basis} functions for {m} paths;"
            " need n_basis <= M/10"
        )
    lam = basis.ridge if basis.ridge is not None else 1e-8 * m
    dt = states.grid.dt
    nodes = states.grid.nodes
    points = p.action_space.points
    xs = states.values
    inc = states.noise.increments

    y = np.empty((n + 1, m, d))
    z = np.empty((n, m, d, dn))
    y[n] = np.asarray(p.terminal_cost_grad_x(xs[n]))
    # project the Y target through a row-strided view: a contiguous (M, 1)
    # target sends numpy to OpenBLAS's unit-stride gemv, whose sums differ in
    # the last bits from the strided kernel that perfbench/references/ records
    y_work = np.empty((m, d + 1))
    y_next = y_work[:, :d]
    for k in range(n - 1, -1, -1):
        phi = basis.features(xs[k])
        # one ridge Gram matrix per step serves the Y and the Z solve
        gram = phi.T @ phi
        gram[np.diag_indices_from(gram)] += lam
        y_next[...] = y[k + 1]
        coef_y = _ridge_solve(gram, phi, y_next, k)
        y_hat = phi @ coef_y
        resid = y_next - y_hat
        z_target = resid[:, :, None] * inc[k, :, None, :] / dt
        coef_z = _ridge_solve(gram, phi, z_target.reshape(m, d * dn), k)
        z_k = (phi @ coef_z).reshape(m, d, dn)
        a = states.control.actions(points, k, m)
        drv = hamiltonian_grad_x(p, float(nodes[k]), xs[k], y_hat, z_k, a)
        y[k] = y_hat + dt * np.asarray(drv)
        if not (np.all(np.isfinite(y[k])) and np.all(np.isfinite(z_k))):
            raise RegressionError(f"non-finite adjoint values at step {k}")
        z[k] = z_k
    return AdjointEnsemble(y_values=y, z_values=z)


def solve_adjoint_linear_y0(
    p: ControlProblem, states: StateEnsemble
) -> tuple[np.ndarray, np.ndarray]:
    """Plain Monte-Carlo estimate of Y_0 from the explicit representation.

    Y_0 = E[ S_T grad g(X_T) + sum_k S_{t_k} grad_x f(t_k, X_k, a_k) dt ]
    with S the fundamental solution started at the identity.  Returns
    (estimate, standard error), both d-vectors.
    """
    m, n, d = states.n_paths, states.n_steps, p.state_dim
    dt = states.grid.dt
    xs = states.values
    inc = states.noise.increments

    s = np.broadcast_to(np.eye(d), (m, d, d)).copy()
    contrib = np.zeros((m, d))
    for k, t, a in states.control.steps(p, states.noise):
        x = xs[k]
        fx = np.asarray(p.running_cost_grad_x(t, x, a))
        contrib += np.einsum("mij,mj->mi", s, fx) * dt
        jb = np.asarray(p.drift_jac_x(t, x, a))
        js = np.asarray(p.diffusion_jac_x(t, x, a))
        s = (
            s
            + np.einsum("mil,mjl->mij", s, jb) * dt
            + np.einsum("mil,mjpl,mp->mij", s, js, inc[k])
        )
        if not np.all(np.isfinite(s)):
            bad = int(np.where(~np.isfinite(s).reshape(m, -1).all(axis=1))[0][0])
            raise RegressionError(
                f"non-finite fundamental solution at step {k + 1}, path {bad}"
            )
    gx = np.asarray(p.terminal_cost_grad_x(xs[n]))
    contrib += np.einsum("mij,mj->mi", s, gx)
    return mean_and_se(contrib)


def adjoint_residual(
    p: ControlProblem, states: StateEnsemble, adjoint: AdjointEnsemble
) -> float:
    """Mean-square one-step backward residual, averaged over paths and steps.

    residual = E (1/N) sum_k |Y_{k+1} - Y_k + dt grad_x H(t_k, X_k, Y_k,
    Z_k, a_k) - Z_k dW_k|^2.
    """
    m, n = states.n_paths, states.n_steps
    adjoint.validate(m, n)
    dt = states.grid.dt
    xs = states.values
    inc = states.noise.increments
    y = adjoint.y_values
    z = adjoint.z_values

    acc = np.zeros(m)
    for k, t, a in states.control.steps(p, states.noise):
        drv = hamiltonian_grad_x(p, t, xs[k], y[k], z[k], a)
        r = (
            y[k + 1]
            - y[k]
            + dt * np.asarray(drv)
            - np.einsum("mjp,mp->mj", z[k], inc[k])
        )
        acc += np.einsum("mj,mj->m", r, r)
    return float(acc.mean() / n)
