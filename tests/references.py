"""Independent references the tests compare the library against.

Closed-form linear-quadratic values and Riccati curves coded apart from
the problem and oracle modules, the exact Bellman recursion of the
Euler-discretised scalar LQ problem,
the exact checker of the recursive bound b_{k+1} <= b_k - q b_k^2, the
control update's tie rule in its direct column-wise form, and a sampled
check of the extended Pontryagin condition built on the public
``augmented_hamiltonian``.
"""

import math
from dataclasses import dataclass

import numpy as np

from msacontrol.oracle import LqSpec, _rk4
from msacontrol.problem import augmented_hamiltonian


def lq_hamiltonian_reference(spec: LqSpec, t, x, y, z, a):
    """Scalar Hamiltonian for LqSpec data, coded independently.

    Plain scalar arithmetic, no shared code with the problem module.
    """
    b = spec.beta * x + spec.control_gain * a
    sig = spec.nu + spec.sigma_gain * a
    f = spec.q * x * x + spec.r * a * a
    return (b * y + sig * z) + f


def lq_adjoint_y0(
    spec: LqSpec,
    horizon: float,
    action: float = 0.0,
    feedback: float = 0.0,
    refine: int = 4000,
) -> float:
    """Adjoint value Y_0 for the LQ problem under a = action + feedback * x.

    The adjoint driver keeps D_x b = beta regardless of the feedback (the
    control enters the driver as a process, not through x), so only the
    state mean m(t) sees the feedback: m' = beta m + gain (action +
    feedback m).  The fundamental solution s(t) = exp(integral beta) and
    Y_0 = s(T) 2 q_t m(T) + integral s(t) 2 q(t) m(t) dt.  Solved by RK4
    at a resolution unrelated to the solver grid.
    """
    beta, q = spec.beta, spec.q
    abar = float(action)
    fb = float(feedback)

    def rhs(t, u):
        m_val, s_val, acc = u
        return np.array(
            [
                beta * m_val + spec.control_gain * (abar + fb * m_val),
                beta * s_val,
                s_val * 2.0 * q * m_val,
            ]
        )

    m_t, s_t, acc = _rk4(rhs, 0.0, (spec.x0, 1.0, 0.0), horizon / refine, refine)
    return float(s_t * 2.0 * spec.q_t * m_t + acc)


def _unit_gain_riccati(spec: LqSpec, horizon: float):
    """kappa and the phase C of P(t) = beta - kappa tanh(kappa t + C).

    Needs control in the drift only with control_gain = r = 1, where
    substituting P = beta + kappa w turns the Riccati equation into
    w' = kappa (w^2 - 1), solved by w = -tanh(kappa t + C).
    """
    if (spec.control_gain, spec.r, spec.sigma_gain) != (1.0, 1.0, 0.0):
        raise ValueError("the tanh solution needs control_gain = r = 1 and sigma_gain = 0")
    kappa = math.sqrt(spec.beta * spec.beta + spec.q)
    return kappa, math.atanh((spec.beta - spec.q_t) / kappa) - kappa * horizon


def unit_gain_riccati_p(spec: LqSpec, horizon: float, t: float) -> float:
    """Closed-form Riccati P(t) for control in the drift with gain = r = 1."""
    kappa, c_shift = _unit_gain_riccati(spec, horizon)
    return spec.beta - kappa * math.tanh(kappa * t + c_shift)


def unit_gain_lq_value(spec: LqSpec, horizon: float) -> float:
    """Closed-form optimal cost P(0) x0^2 + c(0), c(0) = nu^2 integral of P."""
    kappa, c_shift = _unit_gain_riccati(spec, horizon)
    integral = spec.beta * horizon - (
        math.log(math.cosh(kappa * horizon + c_shift)) - math.log(math.cosh(c_shift))
    )
    p0 = unit_gain_riccati_p(spec, horizon, 0.0)
    return p0 * spec.x0 * spec.x0 + spec.nu * spec.nu * integral


def diffusion_lq_reference(spec: LqSpec, horizon: float, n_intervals: int = 20_000) -> float:
    """Optimal cost with control in the diffusion only, from the closed-form P.

    With control_gain = 0 and beta != 0, P' = -2 beta P - q, P(T) = q_t
    gives P(t) = (q_t + q / (2 beta)) e^{2 beta (T - t)} - q / (2 beta).
    c(0) is the integral of nu^2 P - (nu sigma_gain P)^2 / (sigma_gain^2 P + r)
    over [0, T] by composite Simpson on n_intervals (even) intervals.
    """
    if spec.control_gain != 0 or spec.beta == 0 or n_intervals % 2:
        raise ValueError("needs control_gain = 0, beta != 0 and an even n_intervals")
    half_q = spec.q / (2.0 * spec.beta)
    t = np.linspace(0.0, horizon, n_intervals + 1)
    p = (spec.q_t + half_q) * np.exp(2.0 * spec.beta * (horizon - t)) - half_q
    s, nu = spec.sigma_gain, spec.nu
    integrand = nu * nu * p - (nu * s * p) ** 2 / (s * s * p + spec.r)
    weights = np.ones(n_intervals + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    c0 = float(weights @ integrand) * horizon / (3.0 * n_intervals)
    return float(p[0]) * spec.x0 * spec.x0 + c0


def euler_lq_value(spec: LqSpec, horizon: float, n_steps: int) -> float:
    """Optimal cost of the Euler scheme of spec's problem, unconstrained action.

    x' = (1 + beta h) x + gain h a + (nu + sigma_gain a) sqrt(h) xi with
    E xi = 0, E xi^2 = 1, and stage cost (q x^2 + r a^2) h.  The value
    V_k = P x^2 + 2 S x + c is quadratic at every step, so the Bellman
    minimum over a is taken in closed form: with A = 1 + beta h,
    D = r h + P gain^2 h^2 + P sigma_gain^2 h, L1 = P A gain h and
    L0 = (P nu sigma_gain + S gain) h, the step maps (P, S, c) to
    (q h + P A^2 - L1^2 / D, S A - L1 L0 / D, c + P nu^2 h - L0^2 / D)
    from (q_t, 0, 0).  It differs from the continuous value by O(h).
    """
    h = horizon / n_steps
    a_h = 1.0 + spec.beta * h
    g, nu, s = spec.control_gain, spec.nu, spec.sigma_gain
    p, s_lin, c = spec.q_t, 0.0, 0.0
    for _ in range(n_steps):
        d = spec.r * h + p * g * g * h * h + p * s * s * h
        l1 = p * a_h * g * h
        l0 = (p * nu * s + s_lin * g) * h
        p, s_lin, c = (
            spec.q * h + p * a_h * a_h - l1 * l1 / d,
            s_lin * a_h - l1 * l0 / d,
            c + p * nu * nu * h - l0 * l0 / d,
        )
    return p * spec.x0 * spec.x0 + 2.0 * s_lin * spec.x0 + c


@dataclass(frozen=True)
class RecursiveBoundCheck:
    """Outcome of checking b_{k+1} <= b_k - q b_k^2 and k b_k <= max(b_1, 1/q).

    first_violation is the 1-based k of the first failing comparison, or
    None; kind names the failing part ("hypothesis" or "bound").
    """

    ok: bool
    hypothesis_ok: bool
    bound_ok: bool
    first_violation: int | None
    kind: str

    def __bool__(self) -> bool:
        return self.ok


def check_recursive_bound(seq, q: float) -> RecursiveBoundCheck:
    """Verify the quadratic-decrement hypothesis and the implied 1/k bound.

    The comparisons are exact (no tolerance): the bound is a discrete
    statement about the sequence, not an estimate.
    """
    b = np.asarray(seq, dtype=float)
    if b.ndim != 1 or b.size == 0:
        raise ValueError("seq must be a nonempty 1-d sequence")
    if not np.all(b >= 0.0):
        raise ValueError("seq entries must be nonnegative")
    q = float(q)
    if not q > 0.0:
        raise ValueError(f"q must be positive, got {q}")

    for i in range(b.size - 1):
        if not b[i + 1] <= b[i] - q * b[i] * b[i]:
            return RecursiveBoundCheck(
                ok=False,
                hypothesis_ok=False,
                bound_ok=False,
                first_violation=i + 1,
                kind="hypothesis",
            )
    cap = max(b[0], 1.0 / q)
    for k in range(1, b.size + 1):
        if not k * b[k - 1] <= cap:
            return RecursiveBoundCheck(
                ok=False,
                hypothesis_ok=True,
                bound_ok=False,
                first_violation=k,
                kind="bound",
            )
    return RecursiveBoundCheck(
        ok=True, hypothesis_ok=True, bound_ok=True, first_violation=None, kind=""
    )


def keep_or_lowest_reference(vals, prev):
    """The control update's tie rule by column-wise argmax and a gather.

    A column keeps its previous action where that action attains the
    column minimum, else takes the lowest index attaining it; a column
    holding a NaN gets index 0, since nothing equals a NaN minimum.
    """
    mins = vals.min(axis=0)
    at_prev = vals[prev, np.arange(vals.shape[1])]
    lowest = (vals == mins).argmax(axis=0)  # equals argmin on finite tables
    return np.where(at_prev == mins, prev, lowest)


def pontryagin_gaps(adjoint, control, rho, n_samples):
    """Gaps H~(a*, a*) - min_a H~(a*, a) at sampled (path, step) pairs.

    H~(a*, a) is the augmented Hamiltonian of action a penalised against
    the control's own action a*, along the adjoint and the states it
    carries, so each gap is nonnegative and zero exactly where a* is the
    penalised argmin against itself.  The pairs are drawn from
    default_rng(0), paths first, then steps.
    """
    states = adjoint.states
    rng = np.random.default_rng(0)
    ii = rng.integers(0, states.n_paths, size=n_samples)
    kk = rng.integers(0, control.n_steps, size=n_samples)
    gaps = np.empty(n_samples)
    for k in np.unique(kk):
        sel = np.flatnonzero(kk == k)
        i = ii[sel]
        own = control.indices(k, states.n_paths)[i]
        x, y, z = states.values[k, i], adjoint.y_values[k, i], adjoint.z_values[k, i]
        vals = augmented_hamiltonian(
            states.problem, float(states.grid.nodes[k]), x, y, z, own, rho
        )
        gaps[sel] = vals[own, np.arange(sel.size)] - vals.min(axis=0)
    return gaps
