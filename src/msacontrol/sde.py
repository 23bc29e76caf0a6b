"""Time grid, Brownian noise bank, controls, Euler-Maruyama simulation, cost.

The noise bank is drawn once per solve and reused across all iterations
(common random numbers).  Path i's stream derives from (seed, i) alone:
it is numpy's ``PCG64(SeedSequence(seed).spawn(M)[i])`` normal stream,
scaled by sqrt(dt).  The children's seed words are computed for every
path in one vectorised pass of SeedSequence's hash (``_child_words``)
instead of building one SeedSequence object per path.

Every array indexed by time step stores the step first: the bank's
increments are (N, M, d'), the states (N + 1, M, d) and a control's
indices (N, M), so every per-step kernel reads and writes one
contiguous (M, ...) slab.  Controls (``ControlEnsemble``) live here
with the kernels that read them, and every forward kernel walks a
control with ``ControlEnsemble.steps``.  A bank carries its grid and a
``StateEnsemble`` its bank and control, so kernels read all three from
the ensemble and cannot be handed a mismatched set.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .problem import ControlProblem

# refuse to allocate noise banks beyond this size instead of thrashing
_MAX_BANK_BYTES = 2 ** 31
# paths drawn per path-major block before transposing into the bank
_NOISE_BLOCK_PATHS = 1024

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
    """Frozen Gaussian increments on a grid, shape (grid.n_steps, n_paths, noise_dim).

    Step-major: increments[k] is step k's contiguous (M, d') slab.  Each
    increment has mean 0 and variance grid.dt per component.  The bank
    takes ownership of the array and makes it read-only.
    """

    increments: np.ndarray
    grid: TimeGrid

    def __post_init__(self) -> None:
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 3:
            raise ValueError("increments must have shape (N, M, noise_dim)")
        if inc.shape[0] != self.grid.n_steps:
            raise ValueError(
                f"increments of shape {inc.shape} have {inc.shape[0]} steps in "
                f"(N, M, noise_dim), the grid {self.grid.n_steps}"
            )
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)

    @property
    def n_paths(self) -> int:
        return self.increments.shape[1]

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

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
    """Draw the full increment bank, one independent substream per path.

    A generator fills one path's contiguous (N, d') row, so paths are
    drawn into a small path-major block and each block is transposed
    into the step-major bank: no second full-size array is made.
    """
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
    scale = np.sqrt(grid.dt)
    out = np.empty((grid.n_steps, n_paths, noise_dim))
    block = np.empty((min(n_paths, _NOISE_BLOCK_PATHS), grid.n_steps, noise_dim))
    for start in range(0, n_paths, len(block)):
        rows = block[: n_paths - start]
        for i, row in enumerate(rows, start):
            generator(pcg64(_Precomputed(words[i]))).standard_normal(out=row)
        np.multiply(rows.transpose(1, 0, 2), scale, out=out[:, start : start + len(rows)])
    return NoiseBank(out, grid)


@dataclass(frozen=True)
class StateEnsemble:
    """States simulated on a bank under a control, shape (N + 1, M, d), M and N the bank's.

    Step-major: values[k] is step k's contiguous (M, d) slab.  The
    control is validated by the kernels that read it (``steps``,
    ``validate``).
    """

    values: np.ndarray
    noise: NoiseBank
    control: ControlEnsemble

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        m, n = self.noise.n_paths, self.noise.n_steps
        if vals.ndim != 3 or vals.shape[:2] != (n + 1, m):
            raise ValueError(
                f"values of shape {vals.shape} do not match (N + 1, M, d) = ({n + 1}, {m}, d)"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def grid(self) -> TimeGrid:
        return self.noise.grid

    @property
    def n_paths(self) -> int:
        return self.values.shape[1]

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1


CONTROL_MODES = ("per_path", "deterministic")


@dataclass(frozen=True)
class ControlEnsemble:
    """Action choices as indices into the problem's ActionSpace.

    by_step has shape (N, M), one row of path indices per step, or
    (N, 1), one column that every path follows: a deterministic control.
    Kernels read it one step at a time, through ``steps`` going forward.
    """

    by_step: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.by_step)
        if idx.ndim != 2:
            raise ValueError("by_step must have shape (N, M) or (N, 1)")
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError("by_step must be integers")
        idx = np.ascontiguousarray(idx, dtype=np.int64)
        idx.setflags(write=False)
        object.__setattr__(self, "by_step", idx)

    @property
    def n_steps(self) -> int:
        return self.by_step.shape[0]

    @property
    def shared(self) -> bool:
        """One column that every path follows: a deterministic control."""
        return self.by_step.shape[1] == 1

    def validate(self, n_paths: int, n_steps: int, n_actions: int) -> None:
        """Raise ValueError unless this control fits N steps, M paths and the actions."""
        idx = self.by_step
        if idx.shape[0] != n_steps or idx.shape[1] not in (1, n_paths):
            raise ValueError(
                f"control shape {idx.shape} does not match (N, M) = "
                f"({n_steps}, {n_paths}) or (N, 1)"
            )
        if idx.min() < 0 or idx.max() >= n_actions:
            raise ValueError("control has action indices out of range")

    def indices(self, k: int, n_paths: int) -> np.ndarray:
        """Step k's action indices for n_paths paths, read-only."""
        return np.broadcast_to(self.by_step[k], n_paths)

    def actions(self, points: np.ndarray, k: int, n_paths: int) -> np.ndarray:
        """Step k's action points for n_paths paths, (n_paths, m), read-only."""
        return np.broadcast_to(points.take(self.by_step[k], axis=0), (n_paths, points.shape[1]))

    def steps(self, p: ControlProblem, noise: NoiseBank):
        """Validate against the bank once, then yield (k, float t_k, ``actions`` a_k)."""
        points = p.action_space.points
        m = noise.n_paths
        self.validate(m, noise.n_steps, len(points))
        for k, t in enumerate(noise.grid.nodes[:-1].tolist()):
            yield k, t, self.actions(points, k, m)


def constant_control(
    p: ControlProblem,
    n_paths: int,
    n_steps: int,
    mode: str = "per_path",
) -> ControlEnsemble:
    """The action closest to the action-set centroid, at every step and path.

    A deterministic control is the single column that every path follows.
    """
    if mode not in CONTROL_MODES:
        raise ValueError(f"mode must be one of {CONTROL_MODES}")
    rows = n_paths if mode == "per_path" else 1
    idx = np.full((n_steps, rows), p.action_space.centroid_index(), dtype=np.int64)
    return ControlEnsemble(idx)


def simulate_forward(
    p: ControlProblem,
    noise: NoiseBank,
    control: ControlEnsemble,
) -> StateEnsemble:
    """Euler-Maruyama forward simulation of all paths under the control.

    X_{k+1} = X_k + b(t_k, X_k, a_k) dt + sigma(t_k, X_k, a_k) dW_k.
    """
    m, n, d = noise.n_paths, noise.n_steps, p.state_dim
    if noise.noise_dim != p.noise_dim:
        raise ValueError("noise bank dimension does not match the problem")

    dt = noise.grid.dt
    inc = noise.increments
    out = np.empty((n + 1, m, d))
    x = np.broadcast_to(p.initial_state, (m, d)).copy()
    out[0] = x
    for k, t, a in control.steps(p, noise):
        b = np.asarray(p.drift(t, x, a))
        sig = np.asarray(p.diffusion(t, x, a))
        x = x + b * dt + np.einsum("mjp,mp->mj", sig, inc[k])
        if not np.all(np.isfinite(x)):
            bad = int(np.where(~np.isfinite(x).all(axis=1))[0][0])
            raise SimulationError(
                f"non-finite state at step {k + 1}, path {bad}",
                step=k + 1,
                path=bad,
            )
        out[k + 1] = x
    return StateEnsemble(out, noise, control)


def cost_per_path(p: ControlProblem, states: StateEnsemble) -> np.ndarray:
    """Per-path cost sum_k f(t_k, X_k, a_k) dt + g(X_N), left-endpoint rule."""
    m, n = states.n_paths, states.n_steps
    dt = states.grid.dt
    xs = states.values
    acc = np.zeros(m)
    for k, t, a in states.control.steps(p, states.noise):
        acc += np.asarray(p.running_cost(t, xs[k], a)) * dt
    acc += np.asarray(p.terminal_cost(xs[n]))
    if not np.all(np.isfinite(acc)):
        bad = int(np.where(~np.isfinite(acc))[0][0])
        raise SimulationError(f"non-finite cost on path {bad}", path=bad)
    return acc


def mean_and_se(values: np.ndarray) -> tuple:
    """Mean over axis 0 and std(ddof=1) / sqrt(M), 0 if M = 1; floats for a 1-D input."""
    m = values.shape[0]
    mean = values.mean(axis=0)
    se = values.std(axis=0, ddof=1) / np.sqrt(m) if m > 1 else np.zeros_like(mean)
    return (float(mean), float(se)) if values.ndim == 1 else (mean, se)
