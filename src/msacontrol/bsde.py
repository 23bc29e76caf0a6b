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

The basis powers u ** e (e >= 2) equal numpy's array pow to the bit,
though pow computes only some lanes: numpy sends each lane whose base has
the sign bit set to a scalar path about thirty times slower than the
rest.  Such a lane takes h from an exact double-double h + lo = u ** e
instead.  Where |lo| is below 0.45 of the gap to h's neighbour, u ** e
lies more than 0.05 ulp from every rounding midpoint, so every pow that
errs by less than 0.05 ulp before its final rounding must return h.
numpy's sign-bit path is not glibc's pow, so no library bound vouches
for it: the tests compare the result with numpy's pow bit for bit.  The
other sign-bit lanes, the tenth or so near a rounding midpoint and the
special values, still call pow.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .problem import hamiltonian_grad_x
from .sde import StateEnsemble, mean_and_se


class RegressionError(RuntimeError):
    """Raised when a backward regression step cannot be solved."""


# Dekker's splitter 2**27 + 1: hi = x * _SPLIT - (x * _SPLIT - x) keeps the
# top 26 bits of x, so products of the halves are exact (Dekker, Numer. Math.
# 18, 1971)
_SPLIT = 134217729.0
# a sign-bit lane keeps its double-double power h only where |lo| is below
# this fraction of the gap from h to its neighbour on lo's side
_TIE_BAND = 0.45


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    hi = x * _SPLIT
    hi -= hi - x
    return hi, x - hi


def _rounded_power(c: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """(h, exact) for the double-double h + lo = |c| ** e; c becomes |c|.

    Dekker's two-product squares exactly; each further factor adds its
    exact product and the rounded lo * |c|.  exact marks the lanes whose
    |lo| is below _TIE_BAND of the gap from h to its neighbour on lo's
    side.  The clip keeps every product clear of overflow and of lost
    underflow bits; a clipped or NaN lane is not exact.
    """
    np.abs(c, out=c)
    lim = 2.0 ** min(100, 900 // e)
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
    for _ in range(e - 2):
        hh, hl = _split(h)
        p = h * c
        err = ((hh * ch - p) + hh * cl + hl * ch) + hl * cl
        err += lo * c
        h = p + err
        lo = err - (h - p)
    # h + lo / (2 _TIE_BAND) rounds back to h iff |lo| < _TIE_BAND gap, where
    # the gap is the one on lo's side (half of ulp(h) below a power of two)
    lo *= 0.5 / _TIE_BAND
    lo += h
    exact &= lo == h
    return h, exact


def _int_power(u: np.ndarray, e: int) -> np.ndarray:
    """np.power(u, np.full(len(u), float(e))) bit for bit, for an integer e >= 2.

    A lane whose base has the sign bit clear takes pow(|u|, e), its own
    pow.  A sign-bit lane takes h, the double nearest |u| ** e by an exact
    double-double h + lo (_rounded_power), negated for odd e.  Where
    |lo| < _TIE_BAND gap, u ** e lies more than 0.05 ulp from every
    rounding midpoint, so any pow within 0.05 ulp of u ** e before its
    final rounding returns h; the tests, not a library bound, check that
    numpy's pow is one.  The sign-bit lanes that fail this test, zeros,
    subnormals, NaNs and |u| ** e outside [2**-900, 2**900] call pow.
    The exponent is an array, not a scalar: numpy evaluates pow(u, 2.0)
    with a scalar exponent as u*u, which differs from pow in the last bit.
    """
    neg = np.flatnonzero(np.signbit(u))
    # first and in its own frame: its temporaries are freed before the
    # full-length output exists, so features' peak memory does not grow
    h, exact = _rounded_power(u[neg], e)
    if e % 2:
        np.negative(h, out=h)
    out = np.abs(u)
    np.power(out, np.full(len(u), float(e)), out=out)
    out[neg] = h
    slow = neg[~exact]
    out[slow] = np.power(u[slow], np.full(len(slow), float(e)))
    return out


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial regression basis for conditional expectations.

    Features are built from per-step standardised coordinates, which
    leaves the fitted projection unchanged (the polynomial span is
    invariant under affine maps) but keeps the normal equations well
    conditioned.
    """

    degree: int = 2

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("degree must be >= 0")

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
        with e >= 2 is computed once per (j, e) by _int_power, which
        returns numpy's array pow to the bit: pow itself on the lanes with
        the sign bit clear, and on the rest an exact double-double product
        wherever it lies farther than 0.05 ulp from a rounding midpoint.
        That leaves u ** e unchanged under any pow erring by less than
        0.05 ulp before its final rounding; the remaining lanes call pow.
        sd is x.std's value: the root of the mean square of the same
        centred u.
        """
        u = x - x.mean(axis=0)
        sd = np.sqrt(np.mean(u * u, axis=0))
        u /= np.where(sd > 0, sd, 1.0)
        m, d = u.shape
        powers = {
            (j, e): _int_power(u[:, j], e)
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


def solve_adjoint_lsmc(states: StateEnsemble, basis: RegressionBasis) -> AdjointEnsemble:
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
    n_basis = basis.n_functions(d)
    if n_basis > m / 10:
        raise RegressionError(
            f"degree-{basis.degree} basis has {n_basis} functions for {m} paths;"
            " need n_basis <= M/10"
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
