"""Time grid, Brownian noise bank, Euler-Maruyama simulation, cost estimate.

The noise bank is drawn once per solve and reused across all iterations
(common random numbers).  Path i's stream derives from (seed, i) alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .msa import ControlEnsemble
    from .problem import ControlProblem

# refuse to allocate noise banks beyond this size instead of thrashing
_MAX_BANK_BYTES = 2 ** 31


class SimulationError(RuntimeError):
    def __init__(self, message: str, step: int = -1, path: int = -1):
        super().__init__(message)
        self.step = step
        self.path = path


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = T with t_k = k * dt."""

    n_steps: int
    horizon: float

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise ValueError("horizon must be positive and finite")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class NoiseBank:
    """Frozen Gaussian increments, shape (n_paths, n_steps, noise_dim).

    Each increment has mean 0 and variance dt per component.
    """

    increments: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 3:
            raise ValueError("increments must have shape (M, N, noise_dim)")
        inc = inc.copy()
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def n_steps(self) -> int:
        return self.increments.shape[1]

    @property
    def noise_dim(self) -> int:
        return self.increments.shape[2]


def make_noise(grid: TimeGrid, n_paths: int, noise_dim: int, seed: int) -> NoiseBank:
    """Draw the full increment bank, one independent substream per path."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if noise_dim < 1:
        raise ValueError("noise_dim must be >= 1")
    total = 8 * n_paths * grid.n_steps * noise_dim
    if total > _MAX_BANK_BYTES:
        raise MemoryError(
            f"noise bank would need {total} bytes "
            f"(M={n_paths}, N={grid.n_steps}, d'={noise_dim}); refusing"
        )
    scale = np.sqrt(grid.dt)
    out = np.empty((n_paths, grid.n_steps, noise_dim))
    children = np.random.SeedSequence(seed).spawn(n_paths)
    for i, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        out[i] = scale * rng.standard_normal((grid.n_steps, noise_dim))
    return NoiseBank(increments=out, seed=seed)


@dataclass(frozen=True)
class StateEnsemble:
    """Simulated states, shape (n_paths, n_steps + 1, state_dim)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 3:
            raise ValueError("values must have shape (M, N + 1, d)")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1] - 1


def _validate_control(control, n_paths: int, n_steps: int, n_actions: int) -> None:
    idx = control.action_indices
    if idx.shape != (n_paths, n_steps):
        raise ValueError(
            f"control shape {idx.shape} does not match (M, N) = "
            f"({n_paths}, {n_steps})"
        )
    if idx.min() < 0 or idx.max() >= n_actions:
        raise ValueError("control has action indices out of range")


def simulate_forward(
    p: "ControlProblem",
    grid: TimeGrid,
    noise: NoiseBank,
    control: "ControlEnsemble",
) -> StateEnsemble:
    """Euler-Maruyama forward simulation of all paths under the control.

    X_{k+1} = X_k + b(t_k, X_k, a_k) dt + sigma(t_k, X_k, a_k) dW_k.
    """
    m, n, d = noise.n_paths, noise.n_steps, p.state_dim
    if grid.n_steps != n:
        raise ValueError("grid and noise bank disagree on n_steps")
    if noise.noise_dim != p.noise_dim:
        raise ValueError("noise bank dimension does not match the problem")
    _validate_control(control, m, n, p.action_space.n_actions)

    dt = grid.dt
    nodes = grid.nodes
    points = p.action_space.points
    idx = control.action_indices
    inc = noise.increments
    out = np.empty((m, n + 1, d))
    x = np.broadcast_to(p.initial_state, (m, d)).copy()
    out[:, 0] = x
    for k in range(n):
        a = points[idx[:, k]]
        t = float(nodes[k])
        b = np.asarray(p.drift(t, x, a))
        sig = np.asarray(p.diffusion(t, x, a))
        x = x + b * dt + np.einsum("mjp,mp->mj", sig, inc[:, k])
        if not np.all(np.isfinite(x)):
            bad = int(np.where(~np.isfinite(x).all(axis=1))[0][0])
            raise SimulationError(
                f"non-finite state at step {k + 1}, path {bad}",
                step=k + 1,
                path=bad,
            )
        out[:, k + 1] = x
    return StateEnsemble(values=out)


def cost_per_path(
    p: "ControlProblem",
    grid: TimeGrid,
    states: StateEnsemble,
    control: "ControlEnsemble",
) -> np.ndarray:
    """Per-path cost sum_k f(t_k, X_k, a_k) dt + g(X_N), left-endpoint rule."""
    m, n = states.n_paths, states.n_steps
    _validate_control(control, m, n, p.action_space.n_actions)
    dt = grid.dt
    nodes = grid.nodes
    points = p.action_space.points
    idx = control.action_indices
    xs = states.values
    acc = np.zeros(m)
    for k in range(n):
        a = points[idx[:, k]]
        acc += np.asarray(p.running_cost(float(nodes[k]), xs[:, k], a)) * dt
    acc += np.asarray(p.terminal_cost(xs[:, n]))
    if not np.all(np.isfinite(acc)):
        bad = int(np.where(~np.isfinite(acc))[0][0])
        raise SimulationError(f"non-finite cost on path {bad}", path=bad)
    return acc


def mean_and_se(values: np.ndarray) -> tuple[float, float]:
    m = values.shape[0]
    if m < 2:
        return float(values.mean()), 0.0
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(m))
