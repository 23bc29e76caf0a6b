"""Control problem data model and Hamiltonian evaluation.

A problem bundles the coefficient functions (b, sigma, f, g), their
x-derivatives, dimensions, horizon, initial state, and a finite action
set.  Dynamics and cost:

    dX = b(t, X, a) dt + sigma(t, X, a) dW,    X_0 = x0
    J(alpha) = E[ integral_0^T f(t, X, alpha) dt + g(X_T) ]

All coefficient callables must be vectorised over paths: x arrives with
shape (..., d) and a with shape (..., m), sharing leading batch axes,
and outputs carry the same batch axes (t is always a scalar).  Neither
may be written to: a may be a read-only broadcast view, as when every
path follows one deterministic control.
Derivative index conventions:

    drift_jac_x(t, x, a)[..., j, i]        = d b^j / d x_i
    diffusion_jac_x(t, x, a)[..., j, p, i] = d sigma^{jp} / d x_i
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np


class ProblemDefinitionError(ValueError):
    """Raised when a problem definition is inconsistent."""


class EvaluationError(RuntimeError):
    """Raised when a coefficient function produces non-finite values."""


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


# Mismatch allowed, relative to the coefficient values, between the change of
# a coefficient across actions and the change of its action term: room for
# rounding in the action-free part only.
_TERMS_RTOL = 1e-10

_STATE_ONLY = ("terminal_cost", "terminal_cost_grad_x")  # called as fn(x)

# each audited derivative callable -> the coefficient it differentiates
_DERIVATIVES = {
    "drift_jac_x": "drift",
    "diffusion_jac_x": "diffusion",
    "running_cost_grad_x": "running_cost",
    "terminal_cost_grad_x": "terminal_cost",
}


def _evaluate(p: ControlProblem, fname: str, t, x, a) -> np.ndarray:
    fn = getattr(p, fname)
    return np.asarray(fn(x) if fname in _STATE_ONLY else fn(t, x, a))


@dataclass(frozen=True)
class ActionSpace:
    """Finite set of admissible actions, each a real m-vector.

    Scalar actions may be given as a 1-D sequence; they are stored as an
    (n_actions, 1) array.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise ProblemDefinitionError(
                "action points must form a nonempty (n_actions, m) array"
            )
        if not np.all(np.isfinite(pts)):
            raise ProblemDefinitionError("action points must all be finite")
        # equal rows are neighbours once sorted; np.unique(axis=0) would import numpy.ma
        ordered = pts[np.lexsort(pts.T)]
        if np.any(np.all(ordered[1:] == ordered[:-1], axis=1)):
            raise ProblemDefinitionError("action points must be distinct")
        object.__setattr__(self, "points", _as_readonly(pts))

    @property
    def n_actions(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def index_dtype(self) -> np.dtype:
        """Smallest unsigned dtype that holds every action index.

        uint8 up to 256 actions, uint16 up to 65 536: every control the
        package builds stores its indices in it.
        """
        return np.min_scalar_type(self.n_actions - 1)

    def centroid_index(self) -> int:
        """Index of the point closest to the centroid (lowest index on ties)."""
        centroid = self.points.mean(axis=0)
        dist = np.linalg.norm(self.points - centroid, axis=1)
        return int(np.argmin(dist))


@dataclass(frozen=True)
class ActionTerms:
    """Action-only parts of b, sigma and f for an action-separable problem.

    Each callable takes (t, a) with a of shape (..., m) and returns b2
    (..., d), sigma2 (..., d, d') and f2 (...,) respectively.  The
    contract: b - b2, sigma - sigma2 and f - f2 do not depend on a, and
    none of the three x-derivative callables depends on a.
    """

    drift: Callable
    diffusion: Callable
    running_cost: Callable


@dataclass(frozen=True)
class ControlProblem:
    """Finite-horizon stochastic control problem with a finite action set.

    The four coefficient functions and their x-derivatives are supplied
    analytically; ``check_derivatives`` validates them against central
    finite differences.  ``action_terms``, when given, declares the
    problem action-separable; the control update then evaluates only
    those terms on the action grid.  Construction rejects action terms
    that do not match the coefficient functions at the probe points.
    """

    state_dim: int
    noise_dim: int
    horizon: float
    initial_state: np.ndarray
    drift: Callable
    diffusion: Callable
    running_cost: Callable
    terminal_cost: Callable
    drift_jac_x: Callable
    diffusion_jac_x: Callable
    running_cost_grad_x: Callable
    terminal_cost_grad_x: Callable
    action_space: ActionSpace
    action_terms: ActionTerms | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.state_dim < 1 or self.noise_dim < 1:
            raise ProblemDefinitionError("state_dim and noise_dim must be >= 1")
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise ProblemDefinitionError("horizon must be positive and finite")
        x0 = np.atleast_1d(np.asarray(self.initial_state, dtype=float))
        if x0.shape != (self.state_dim,):
            raise ProblemDefinitionError(
                f"initial_state has shape {x0.shape}, expected ({self.state_dim},)"
            )
        object.__setattr__(self, "initial_state", _as_readonly(x0))
        self._probe()

    def _probe(self) -> None:
        # Shape checks at (t=0, x0, a0) for batches (), (3,) and a two-axis (2, 3)
        # as augmented_hamiltonian uses, so non-broadcasting coefficients fail here.
        d, dn, m = self.state_dim, self.noise_dim, self.action_space.dim
        x0 = self.initial_state
        a0 = self.action_space.points[0]
        for batch in ((), (3,), (2, 3)):
            x = np.broadcast_to(x0, batch + (d,))
            a = np.broadcast_to(a0, batch + (m,))
            expected = {
                "drift": batch + (d,),
                "diffusion": batch + (d, dn),
                "running_cost": batch,
                "terminal_cost": batch,
            }
            # each derivative appends the x-index to its coefficient's shape
            expected.update({der: expected[coef] + (d,) for der, coef in _DERIVATIVES.items()})
            for fname, shape in expected.items():
                out = _evaluate(self, fname, 0.0, x, a)
                if out.shape != shape:
                    raise ProblemDefinitionError(
                        f"{fname} returned shape {out.shape}, expected {shape} "
                        f"(batch {batch})"
                    )
                if not np.all(np.isfinite(out)):
                    raise ProblemDefinitionError(
                        f"{fname} returned non-finite values at the probe point"
                    )
        if self.action_terms is not None:
            self._probe_action_terms()

    def _probe_action_terms(self) -> None:
        # At two (t, x) points, every action's coefficient must differ from
        # action 0's by exactly what the action terms say, and the
        # x-derivatives must not move with the action.
        d, dn = self.state_dim, self.noise_dim
        pts = self.action_space.points
        n_act = pts.shape[0]
        terms = self.action_terms
        shapes = {
            "drift": (n_act, d),
            "diffusion": (n_act, d, dn),
            "running_cost": (n_act,),
        }
        for t, shift in ((0.0, 0.0), (0.5 * self.horizon, 1.0)):
            x = np.broadcast_to(self.initial_state + shift, (n_act, d))
            for fname, shape in shapes.items():
                full = np.asarray(getattr(self, fname)(t, x, pts))
                part = np.asarray(getattr(terms, fname)(t, pts))
                if part.shape != shape:
                    raise ProblemDefinitionError(
                        f"action_terms.{fname} returned shape {part.shape}, "
                        f"expected {shape}"
                    )
                mismatch = np.max(np.abs((full - full[0]) - (part - part[0])))
                scale = max(1.0, np.max(np.abs(full)), np.max(np.abs(part)))
                if not mismatch <= _TERMS_RTOL * scale:  # also catches NaN
                    raise ProblemDefinitionError(
                        f"{fname} does not split as action_terms.{fname} plus "
                        f"an action-free part (t={t})"
                    )
            for fname in ("drift_jac_x", "diffusion_jac_x", "running_cost_grad_x"):
                out = np.asarray(getattr(self, fname)(t, x, pts))
                if not np.array_equal(out, np.broadcast_to(out[0], out.shape)):
                    raise ProblemDefinitionError(
                        f"{fname} depends on the action, so the problem is not "
                        f"action-separable as action_terms declares (t={t})"
                    )

    def replace(self, **kwargs) -> "ControlProblem":
        return dataclasses.replace(self, **kwargs)


def _check_finite(name: str, value: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(value)):
        raise EvaluationError(f"{name} produced non-finite values")
    return value


def _coefficients(p: ControlProblem, t, x, a):
    """(b, sigma, f) at (t, x, a), each checked finite."""
    b = _check_finite("drift", np.asarray(p.drift(t, x, a)))
    sig = _check_finite("diffusion", np.asarray(p.diffusion(t, x, a)))
    f = _check_finite("running_cost", np.asarray(p.running_cost(t, x, a)))
    return b, sig, f


def _contract(b, sig, f, y, z):
    return (
        np.einsum("...j,...j->...", b, y)
        + np.einsum("...jp,...jp->...", sig, z)
        + f
    )


def hamiltonian(p: ControlProblem, t, x, y, z, a):
    """H(t, x, y, z, a) = b . y + trace(sigma^T z) + f.

    Broadcasts over leading batch axes of x, y, z, a.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    a = np.asarray(a, dtype=float)
    return _contract(*_coefficients(p, t, x, a), y, z)


def hamiltonian_grad_x(p: ControlProblem, t, x, y, z, a):
    """Gradient of H in x.

    Component i is sum_j (d_i b^j) y^j + sum_{j,p} (d_i sigma^{jp}) z^{jp}
    + d_i f.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    a = np.asarray(a, dtype=float)
    jb = _check_finite("drift_jac_x", np.asarray(p.drift_jac_x(t, x, a)))
    js = _check_finite("diffusion_jac_x", np.asarray(p.diffusion_jac_x(t, x, a)))
    fx = _check_finite(
        "running_cost_grad_x", np.asarray(p.running_cost_grad_x(t, x, a))
    )
    return (
        np.einsum("...ji,...j->...i", jb, y)
        + np.einsum("...jpi,...jp->...i", js, z)
        + fx
    )


def augmented_hamiltonian(p: ControlProblem, t, x, y, z, prev_index, rho):
    """Augmented Hamiltonian of every action, shape (n_actions, n).

    x, y and z are one time slice of n rows, shapes (n, d), (n, d) and
    (n, d, d'); prev_index holds each row's previous action index.  Entry
    [j, i] is H(a_j) at row i plus the penalty against that row's previous
    action a_prev:

        (rho/2) (|b(a_j)-b(a_prev)|^2 + |sigma(a_j)-sigma(a_prev)|^2
                 + |grad_x H(a_j) - grad_x H(a_prev)|^2).

    With rho = 0 this is exactly the Hamiltonian at each action.
    """
    if not 0 <= rho < np.inf:
        raise ValueError(f"rho must be nonnegative and finite, got {rho}")
    points = p.action_space.points
    # one call per coefficient over the (actions, rows) batch
    xa = np.broadcast_to(x, (points.shape[0],) + x.shape)
    a = np.broadcast_to(points[:, None, :], xa.shape[:2] + points.shape[1:])
    b_all, s_all, f_all = _coefficients(p, t, xa, a)
    h_all = _contract(b_all, s_all, f_all, y, z)
    if rho == 0:
        return h_all
    g_all = hamiltonian_grad_x(p, t, xa, y, z, a)
    # differences against each row's own previous action
    rows = np.arange(x.shape[0])
    db = b_all - b_all[prev_index, rows][None]
    ds = s_all - s_all[prev_index, rows][None]
    dg = g_all - g_all[prev_index, rows][None]
    pen = (
        np.einsum("amj,amj->am", db, db)
        + np.einsum("amjp,amjp->am", ds, ds)
        + np.einsum("amj,amj->am", dg, dg)
    )
    return h_all + 0.5 * rho * pen


def _rel_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    # a non-finite value on either side fails the audit; max() would drop a NaN
    if not (np.all(np.isfinite(analytic)) and np.all(np.isfinite(fd))):
        return np.inf
    scale = max(1.0, float(np.max(np.abs(analytic))), float(np.max(np.abs(fd))))
    return float(np.max(np.abs(analytic - fd))) / scale


def check_derivatives(
    p: ControlProblem,
    n_samples: int,
    step: float,
    seed: int = 0,
) -> dict[str, float]:
    """Compare supplied x-derivatives with central finite differences.

    Samples (t, x, a) uniformly from [0, T] x [x0 - 5, x0 + 5]^d x action
    points.  Returns the maximum relative error of each derivative,
    keyed by the name of its callable; a non-finite analytic or
    finite-difference value makes that error inf.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not 0 < step < np.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    d = p.state_dim
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, p.horizon, size=n_samples)
    xs = rng.uniform(p.initial_state - 5.0, p.initial_state + 5.0, size=(n_samples, d))
    a_idx = rng.integers(0, p.action_space.n_actions, size=n_samples)

    errors = dict.fromkeys(_DERIVATIVES, 0.0)
    eye = np.eye(d)
    for s in range(n_samples):
        t, x = float(ts[s]), xs[s]
        a = p.action_space.points[a_idx[s]]
        # (2d, d) probe block: first d rows x + step*e_i, then x - step*e_i
        xp = np.concatenate([x + step * eye, x - step * eye], axis=0)
        ab = np.broadcast_to(a, (2 * d, a.shape[0]))
        for deriv, coef in _DERIVATIVES.items():
            v = _evaluate(p, coef, t, xp, ab)
            fd = (v[:d] - v[d:]) / (2.0 * step)  # fd[i, ...] = d coef / d x_i
            analytic = _evaluate(p, deriv, t, x, a)  # x-index last
            errors[deriv] = max(errors[deriv], _rel_error(analytic, np.moveaxis(fd, 0, -1)))

    return errors
