"""Independent references the tests compare the library against.

Closed-form linear-quadratic values coded apart from the problem module,
the exact checker of the recursive bound b_{k+1} <= b_k - q b_k^2, the
control update's tie rule in its direct column-wise form, and a sampled
check of the extended Pontryagin condition built on the public
``augmented_hamiltonian``.
"""

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

    _, u = _rk4(rhs, 0.0, (spec.x0, 1.0, 0.0), horizon / refine, refine)
    m_t, s_t, acc = u[-1]
    return float(s_t * 2.0 * spec.q_t * m_t + acc)


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
