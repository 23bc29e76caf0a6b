"""Time grid, Brownian noise bank, Euler-Maruyama simulation, cost estimate.

The noise bank is drawn once per solve and reused across all iterations
(common random numbers).  Path i's stream derives from (seed, i) alone:
it is numpy's ``PCG64(SeedSequence(seed).spawn(M)[i])`` normal stream,
scaled by sqrt(dt).  The children's seed words are computed for every
path in one vectorised pass of SeedSequence's hash (``_child_words``)
instead of building one SeedSequence object per path.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .msa import ControlEnsemble
    from .problem import ControlProblem

# refuse to allocate noise banks beyond this size instead of thrashing
_MAX_BANK_BYTES = 2 ** 31

# numpy.random.SeedSequence's hash constants (32-bit words, pool of 4)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


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

    Each increment has mean 0 and variance dt per component.  The bank
    takes ownership of the array and makes it read-only.
    """

    increments: np.ndarray

    def __post_init__(self) -> None:
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 3:
            raise ValueError("increments must have shape (M, N, noise_dim)")
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


def _child_words(seed: int, n_paths: int) -> np.ndarray:
    """Seed words of the children of numpy's ``SeedSequence(seed)``.

    Row i is ``SeedSequence(seed).spawn(n_paths)[i].generate_state(4,
    np.uint64)``, the words PCG64 seeds itself from.  The entropy of
    child i is seed's 32-bit words, zero-padded to the pool size, followed
    by the spawn key i; each word is a uint32 array over i, and the hash
    is numpy's, step for step.  The key i is one word because the bank
    size limit keeps n_paths below 2**32.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.full(n_paths, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(n_paths, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))

    state = np.empty((n_paths, 8), dtype="<u4")
    hash_const = _INIT_B
    for j in range(8):
        value = pool[j % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state[:, j] = value ^ (value >> np.uint32(16))
    return state.view("<u8").astype(np.uint64)


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
    words = _child_words(seed, n_paths)
    # defined here, not at module level, so that importing msacontrol
    # does not load numpy.random
    from numpy.random.bit_generator import ISeedSequence

    class _Precomputed(ISeedSequence):
        """Hands PCG64 one child's precomputed generate_state(4, uint64)."""

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    generator, pcg64 = np.random.Generator, np.random.PCG64
    out = np.empty((n_paths, grid.n_steps, noise_dim))
    for i in range(n_paths):
        generator(pcg64(_Precomputed(words[i]))).standard_normal(out=out[i])
    out *= np.sqrt(grid.dt)
    return NoiseBank(increments=out)


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
    control.validate(m, n, p.action_space.n_actions)

    dt = grid.dt
    nodes = grid.nodes
    points = p.action_space.points
    inc = noise.increments
    out = np.empty((m, n + 1, d))
    x = np.broadcast_to(p.initial_state, (m, d)).copy()
    out[:, 0] = x
    for k in range(n):
        a = control.actions(points, k, m)
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
    control.validate(m, n, p.action_space.n_actions)
    dt = grid.dt
    nodes = grid.nodes
    points = p.action_space.points
    xs = states.values
    acc = np.zeros(m)
    for k in range(n):
        a = control.actions(points, k, m)
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
