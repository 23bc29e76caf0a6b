"""Independent references the tests compare the library against.

Closed-form linear-quadratic values and Riccati curves coded apart from
the problem and oracle modules, the continuous-time LQ value and the LQ
adjoint by classical RK4, the exact Bellman recursion of the
Euler-discretised scalar LQ problem with its optimal feedback, the exact
expected cost of a linear feedback on that scheme by its first two moments,
the exact checker of the recursive bound b_{k+1} <= b_k - q b_k^2, the
control update's tie rule in its direct column-wise form, its action-terms
table with the penalty gathered per action, and a sampled
check of the extended Pontryagin condition built on the public
``augmented_hamiltonian``.
"""

import math
from dataclasses import dataclass

import numpy as np

from msacontrol.oracle import LqSpec
from msacontrol.problem import augmented_hamiltonian


def _rk4(rhs, t0: float, u0, h: float, n_steps: int) -> np.ndarray:
    """Classical RK4 from (t0, u0) in n_steps steps of signed size h (h < 0 runs backward)."""
    u = np.asarray(u0, dtype=float)
    for i in range(n_steps):
        t = t0 + h * i
        k1 = rhs(t, u)
        k2 = rhs(t + 0.5 * h, u + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, u + 0.5 * h * k2)
        k4 = rhs(t + h, u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def continuous_lq_value(spec: LqSpec, horizon: float, n_steps: int = 4000) -> float:
    """Optimal cost of the continuous-time problem, unconstrained action.

    The value is V = P x^2 + 2 S x + c.  With D = sigma_gain^2 P + r and
    k = gain S + nu sigma_gain P,
    P' = -2 beta P + (gain^2 / D) P^2 - q,         P(T) = q_t
    S' = -beta S + gain P k / D,                    S(T) = 0
    c' = -(nu^2 P - k^2 / D),                       c(T) = 0
    integrated backward by RK4 in n_steps steps; the Euler scheme's
    optimum tends to it as its step shrinks.  Not for stiff specs: the
    step is fixed.
    """
    beta, g, nu, s, q, r = spec.beta, spec.control_gain, spec.nu, spec.sigma_gain, spec.q, spec.r

    def rhs(t, u):
        p_val, s_val, c_val = u
        d = p_val * s * s + r
        k = g * s_val + p_val * nu * s
        dp = -2.0 * beta * p_val + g * g * p_val * p_val / d - q
        ds = -beta * s_val + g * p_val * k / d
        dc = -(nu * nu * p_val - k * k / d)
        return np.array([dp, ds, dc])

    p0, s0, c0 = _rk4(rhs, horizon, (spec.q_t, 0.0, 0.0), -horizon / n_steps, n_steps)
    return float(p0) * spec.x0 * spec.x0 + 2.0 * float(s0) * spec.x0 + float(c0)


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


def euler_lq_recursion(spec: LqSpec, horizon: float, n_steps: int):
    """Optimal cost and feedback of the Euler scheme of spec's problem, unconstrained action.

    x' = (1 + beta h) x + gain h a + (nu + sigma_gain a) sqrt(h) xi with
    E xi = 0, E xi^2 = 1, and stage cost (q x^2 + r a^2) h.  The value
    V_k = P x^2 + 2 S x + c is quadratic at every step, so the Bellman
    minimum over a is taken in closed form: with A = 1 + beta h,
    D = r h + P gain^2 h^2 + P sigma_gain^2 h, L1 = P A gain h and
    L0 = (P nu sigma_gain + S gain) h, the step maps (P, S, c) to
    (q h + P A^2 - L1^2 / D, S A - L1 L0 / D, c + P nu^2 h - L0^2 / D)
    from (q_t, 0, 0), and its minimiser is a = -(L1 x + L0) / D.
    Returns (value, gains, offsets), the optimal action at step k being
    gains[k] x + offsets[k].  It differs from the continuous value by O(h).
    """
    h = horizon / n_steps
    a_h = 1.0 + spec.beta * h
    g, nu, s = spec.control_gain, spec.nu, spec.sigma_gain
    p, s_lin, c = spec.q_t, 0.0, 0.0
    gains, offsets = np.empty(n_steps), np.empty(n_steps)
    for k in reversed(range(n_steps)):
        d = spec.r * h + p * g * g * h * h + p * s * s * h
        l1 = p * a_h * g * h
        l0 = (p * nu * s + s_lin * g) * h
        gains[k], offsets[k] = -l1 / d, -l0 / d
        p, s_lin, c = (
            spec.q * h + p * a_h * a_h - l1 * l1 / d,
            s_lin * a_h - l1 * l0 / d,
            c + p * nu * nu * h - l0 * l0 / d,
        )
    return p * spec.x0 * spec.x0 + 2.0 * s_lin * spec.x0 + c, gains, offsets


def euler_lq_value(spec: LqSpec, horizon: float, n_steps: int) -> float:
    """The Euler scheme's optimal cost, from euler_lq_recursion."""
    return euler_lq_recursion(spec, horizon, n_steps)[0]


def linear_feedback_cost(spec: LqSpec, h: float, gains, offsets, mean: float, second: float):
    """Exact expected cost of a = gains[j] x + offsets[j] on the Euler scheme.

    Starts from E x = mean and E x^2 = second and runs len(gains) steps of
    size h, carrying the first two moments exactly: with a = G x + F,
    x' = (A + gain h G) x + gain h F + (nu + sigma_gain F + sigma_gain G x)
    sqrt(h) xi, and the stage cost is (q E x^2 + r E a^2) h.  Returns the
    cost and the (E x, E x^2) at the start of every step.
    """
    a_h = 1.0 + spec.beta * h
    g, nu, s = spec.control_gain, spec.nu, spec.sigma_gain
    cost, moments = 0.0, []
    for gk, fk in zip(gains, offsets):
        moments.append((mean, second))
        cost += (spec.q * second + spec.r * (gk * gk * second + 2.0 * gk * fk * mean + fk * fk)) * h
        alpha, shift = a_h + g * h * gk, g * h * fk
        noise, noise_x = nu + s * fk, s * gk
        mean, second = (
            alpha * mean + shift,
            alpha * alpha * second + 2.0 * alpha * shift * mean + shift * shift
            + h * (noise_x * noise_x * second + 2.0 * noise * noise_x * mean + noise * noise),
        )
    return cost + spec.q_t * second, moments


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


def term_values_reference(adjoint, rho, k):
    """Step k's action-terms table with the textbook penalty (rho/2) |C_a - C_prev|^2.

    C_a . [y, vec z] + f2(a) per (action, path), plus the penalty read
    from an (actions, actions) table, one path-length gather per action;
    a shared prev gives the path mean as one column.
    """
    states = adjoint.states
    p, m, prev = states.problem, states.n_paths, states.control
    terms, points = p.action_terms, p.action_space.points
    t = float(states.grid.nodes[k])
    b2 = np.asarray(terms.drift(t, points))
    s2 = np.asarray(terms.diffusion(t, points)).reshape(len(points), -1)
    c = np.concatenate([b2, s2], axis=1)
    f2 = np.asarray(terms.running_cost(t, points))
    diff = c[:, None, :] - c[None, :, :]
    half_pen = 0.5 * rho * np.einsum("apq,apq->ap", diff, diff)
    w = np.concatenate([adjoint.y_values[k].T, adjoint.z_values[k].reshape(m, -1).T])
    if prev.shared:
        return (c @ w.mean(axis=1) + f2)[:, None] + half_pen[:, prev.indices(k, 1)]
    vals = c @ w
    vals += f2[:, None]
    if rho > 0:
        idx = prev.indices(k, m).astype(np.intp)
        for a, pen in enumerate(half_pen):
            vals[a] += pen.take(idx, mode="clip")
    return vals


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
