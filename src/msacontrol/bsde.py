"""Backward adjoint solve via least-squares Monte Carlo, plus oracles.

The adjoint pair (Y, Z) solves the linear backward SDE with driver
-grad_x H and terminal condition grad g(X_T).  Conditional expectations
in the backward sweep are least-squares projections onto a polynomial
basis of the state (regression per time step, single deterministic
reduction).  An independent check of Y_0 comes from the explicit
representation through the fundamental solution of the linearised state
equation, which needs no conditional expectations at t = 0.  Each kernel
takes one ensemble and reads the problem, grid, increments and control
from it: the solvers a ``StateEnsemble``, ``adjoint_residual`` an
``AdjointEnsemble``, which carries the states it was solved along.  The
adjoint is stored step-major like the states and the bank, so every
step of a sweep reads one contiguous (M, ...) slab of each.

The basis is the fixed degree-2 polynomial.  Its squares u ** 2 equal
numpy's array pow to the bit, though pow computes only some lanes: numpy
sends each lane whose base has the sign bit set to a scalar path about
thirty times slower than the rest.  Such a lane takes h from Dekker's
exact square h + lo = u ** 2 instead.  Where |lo| is below 0.45 of the
gap to h's neighbour, u ** 2 lies more than 0.05 ulp from every rounding
midpoint, so every pow that errs by less than 0.05 ulp before its final
rounding must return h.  numpy's sign-bit path is not glibc's pow, so no
library bound vouches for it: the tests compare the result with numpy's
pow bit for bit.  The other sign-bit lanes, the tenth or so near a
rounding midpoint and the special values, still call pow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import hamiltonian_grad_x
from .sde import StateEnsemble, mean_and_se


class RegressionError(RuntimeError):
    """Raised when a backward regression step cannot be solved."""


# Dekker's splitter 2**27 + 1: hi = x * _SPLIT - (x * _SPLIT - x) keeps the
# top 26 bits of x, so products of the halves are exact (Dekker, Numer. Math.
# 18, 1971)
_SPLIT = 134217729.0
# a sign-bit lane keeps its double-double square h only where |lo| is below
# this fraction of the gap from h to its neighbour on lo's side
_TIE_BAND = 0.45


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    hi = x * _SPLIT
    hi -= hi - x
    return hi, x - hi


def _rounded_square(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h, exact) for the double-double h + lo = c ** 2; c becomes |c|.

    Dekker's two-product squares exactly.  exact marks the lanes whose
    |lo| is below _TIE_BAND of the gap from h to its neighbour on lo's
    side.  The clip to [2**-100, 2**100] keeps every product clear of
    overflow and of lost underflow bits; a clipped or NaN lane is not
    exact.
    """
    np.abs(c, out=c)
    lim = 2.0**100
    exact = c >= 1.0 / lim
    exact &= c <= lim
    np.clip(c, 1.0 / lim, lim, out=c)
    ch, cl = _split(c)
    h = c * c
    lo = ch * ch
    lo -= h
    t = ch * cl
    lo += t
    lo += t
    np.multiply(cl, cl, out=t)
    lo += t
    # h + lo / (2 _TIE_BAND) rounds back to h iff |lo| < _TIE_BAND gap, where
    # the gap is the one on lo's side (half of ulp(h) below a power of two)
    lo *= 0.5 / _TIE_BAND
    lo += h
    exact &= lo == h
    return h, exact


def _square(u: np.ndarray) -> np.ndarray:
    """np.power(u, np.full(len(u), 2.0)) bit for bit.

    A lane whose base has the sign bit clear takes pow(|u|, 2), its own
    pow.  A sign-bit lane takes h, the double nearest u ** 2 by an exact
    double-double h + lo (_rounded_square).  Where |lo| < _TIE_BAND gap,
    u ** 2 lies more than 0.05 ulp from every rounding midpoint, so any
    pow within 0.05 ulp of u ** 2 before its final rounding returns h;
    the tests, not a library bound, check that numpy's pow is one.  The
    sign-bit lanes that fail this test, zeros, subnormals, NaNs and |u|
    outside [2**-100, 2**100] call pow.  The exponent is an array, not a
    scalar: numpy evaluates pow(u, 2.0) with a scalar exponent as u*u,
    which differs from pow in the last bit.
    """
    neg = np.flatnonzero(np.signbit(u))
    # first and in its own frame: its temporaries are freed before the
    # full-length output exists, so features' peak memory does not grow
    h, exact = _rounded_square(u[neg])
    out = np.abs(u)
    np.power(out, np.full(len(u), 2.0), out=out)
    out[neg] = h
    slow = neg[~exact]
    out[slow] = np.power(u[slow], np.full(len(slow), 2.0))
    return out


def basis_size(state_dim: int) -> int:
    """Columns of features for a state of state_dim coordinates: (d+1)(d+2)/2."""
    return (state_dim + 1) * (state_dim + 2) // 2


def features(x: np.ndarray) -> np.ndarray:
    """Design matrix (M, basis_size(d)) of the degree-2 polynomial in the standardised state.

    Columns are 1, then u_j, then u_i u_j for i <= j in increasing (i, j).
    Standardising per step leaves the fitted projection unchanged (the
    polynomial span is invariant under affine maps) but keeps the normal
    equations well conditioned; sd is x.std's value, the root of the mean
    square of the same centred u.  u_j ** 2 comes from _square, numpy's
    array pow to the bit, so each column equals np.prod(u ** e, axis=1)
    for its exponent row e to the bit.  The squares are computed before
    phi is allocated, which keeps their temporaries out of features' peak
    memory.
    """
    u = x - x.mean(axis=0)
    sd = np.sqrt(np.mean(u * u, axis=0))
    u /= np.where(sd > 0, sd, 1.0)
    m, d = u.shape
    squares = [_square(u[:, j]) for j in range(d)]
    phi = np.empty((m, basis_size(d)))
    phi[:, 0] = 1.0
    phi[:, 1 : d + 1] = u
    b = d + 1
    for i in range(d):
        phi[:, b] = squares[i]
        np.multiply(u[:, i, None], u[:, i + 1 :], out=phi[:, b + 1 : b + d - i])
        b += d - i
    return phi


@dataclass(frozen=True)
class AdjointEnsemble:
    """The adjoint solved along states, step-major: y (N+1, M, d) and z (N, M, d, d').

    y_values[k] and z_values[k] are step k's contiguous slabs.  The
    constructor checks both shapes against the states' N, M, d and d'.
    """

    y_values: np.ndarray
    z_values: np.ndarray
    states: StateEnsemble

    def __post_init__(self) -> None:
        y = np.asarray(self.y_values, dtype=float)
        z = np.asarray(self.z_values, dtype=float)
        s = self.states
        n, m, d, dn = s.n_steps, s.n_paths, s.problem.state_dim, s.problem.noise_dim
        if y.shape != (n + 1, m, d) or z.shape != (n, m, d, dn):
            raise ValueError(
                f"adjoint shapes y {y.shape}, z {z.shape} do not match (N+1, M, d) = "
                f"{(n + 1, m, d)} and (N, M, d, d') = {(n, m, d, dn)}"
            )
        y.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "y_values", y)
        object.__setattr__(self, "z_values", z)


def _ridge_solve(gram: np.ndarray, phi: np.ndarray, targets: np.ndarray, step: int):
    try:
        coef = np.linalg.solve(gram, phi.T @ targets)
    except np.linalg.LinAlgError as exc:
        raise RegressionError(
            f"regression solve failed at step {step}: {exc}"
        ) from exc
    return coef


def solve_adjoint_lsmc(states: StateEnsemble) -> AdjointEnsemble:
    """Backward induction for the adjoint pair along the states, under their control.

    Y_N = grad g(X_N); for k = N-1 .. 0:
        Yhat_k = E[Y_{k+1} | X_k]                      (projection)
        Z_k    = E[(Y_{k+1} - Yhat_k) dW_k^T | X_k]/dt (projection)
        Y_k    = Yhat_k + dt * grad_x H(t_k, X_k, Yhat_k, Z_k, a_k)

    Centring the Z target by Yhat_k leaves the conditional expectation
    unchanged (E[Yhat_k dW | X_k] = 0) and removes the dominant noise
    term, so a driverless problem yields Z = 0 up to the ridge bias.
    """
    p, xs, inc = states.problem, states.values, states.noise.increments
    m, n, d, dn = states.n_paths, states.n_steps, p.state_dim, p.noise_dim
    n_basis = basis_size(d)
    if n_basis > m / 10:
        raise RegressionError(
            f"the basis has {n_basis} functions for {m} paths; need n_basis <= M/10"
        )
    lam = 1e-8 * m  # the ridge penalty of every regression
    dt = states.grid.dt
    nodes = states.grid.nodes
    points = p.action_space.points

    y = np.empty((n + 1, m, d))
    z = np.empty((n, m, d, dn))
    y[n] = np.asarray(p.terminal_cost_grad_x(xs[n]))
    # project the Y target through a row-strided view: a contiguous (M, 1)
    # target sends numpy to OpenBLAS's unit-stride gemv, whose sums differ in
    # the last bits from the strided kernel that perfbench/references/ records
    y_work = np.empty((m, d + 1))
    y_next = y_work[:, :d]
    for k in range(n - 1, -1, -1):
        phi = features(xs[k])
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
    return AdjointEnsemble(y, z, states)


def solve_adjoint_linear_y0(states: StateEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Plain Monte-Carlo estimate of Y_0 from the explicit representation.

    Y_0 = E[ S_T grad g(X_T) + sum_k S_{t_k} grad_x f(t_k, X_k, a_k) dt ]
    with S the fundamental solution started at the identity.  Returns
    (estimate, standard error), both d-vectors.
    """
    p, xs, inc = states.problem, states.values, states.noise.increments
    m, n, d = states.n_paths, states.n_steps, p.state_dim
    dt = states.grid.dt

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


def adjoint_residual(adjoint: AdjointEnsemble) -> float:
    """Mean-square one-step backward residual, averaged over paths and steps.

    residual = E (1/N) sum_k |Y_{k+1} - Y_k + dt grad_x H(t_k, X_k, Y_k,
    Z_k, a_k) - Z_k dW_k|^2.
    """
    states, y, z = adjoint.states, adjoint.y_values, adjoint.z_values
    p, xs, inc = states.problem, states.values, states.noise.increments
    m, n = states.n_paths, states.n_steps
    dt = states.grid.dt

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
