"""Time grid, Brownian noise bank, controls, Euler-Maruyama simulation, cost.

The noise bank is drawn once per solve and reused across all iterations
(common random numbers).  Path i's stream derives from (seed, i) alone:
it is numpy's ``PCG64(SeedSequence(seed).spawn(M)[i])`` normal stream,
scaled by sqrt(dt).  The children's seed words are computed for every
path in one vectorised pass (``_child_words``) from numpy's parent pool,
not one SeedSequence object per path.  ``MsaConfig.bank`` in ``msa.py``
is the one caller of ``make_noise``.

Every array indexed by time step stores the step first: the bank's
increments are (N, M, d'), the states (N + 1, M, d) and a control's
indices (N, M), so every per-step kernel reads and writes one
contiguous (M, ...) slab.  Controls (``ControlEnsemble``) live here
with the kernels that read them, and every forward kernel walks a
control with ``ControlEnsemble.steps``.  An index is only gathered,
compared or assigned, so every control the package builds stores it in
``ActionSpace.index_dtype``, the smallest unsigned dtype that holds the
action space's indices: one byte up to 256 actions.  An (N, M) control
at M = 5e4, N = 50 is then 2.5 MB, where int64 indices took 20 MB, as
much as the bank or the states.  A bank carries its grid, and a
``StateEnsemble`` the problem, bank and control it was simulated with;
its constructor checks the four against each other, so ``cost_per_path``
takes the states alone and no kernel re-checks what it reads from them.
"""

from __future__ import annotations

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


def _hashmix(values, hash_const: int, mult: int):
    """Yield numpy SeedSequence's hashmix of each uint32 array, the constant stepping by mult."""
    for value in values:
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        yield value ^ (value >> np.uint32(16))


def _child_words(parent, n_paths: int) -> np.ndarray:
    """Row i is ``parent.spawn(n_paths)[i].generate_state(4, np.uint64)``, PCG64's seed.

    Child i's entropy is the parent's, zero-padded to the pool size, then
    the spawn key i, so its pool is ``parent.pool`` mixed with i, after
    the parent's 4 hashmix calls per entropy word (at least 4 words).
    Each word is a uint32 array over i; i is one word because the bank
    size limit keeps n_paths below 2**32.
    """
    n_words = max(_POOL_SIZE, (int(parent.entropy).bit_length() + 31) // 32)
    hash_const = _INIT_A * pow(_MULT_A, _POOL_SIZE * n_words, 1 << 32) & _MASK32
    keys = _hashmix([np.arange(n_paths, dtype=np.uint32)] * _POOL_SIZE, hash_const, _MULT_A)
    pool = []
    for word, key in zip(parent.pool.tolist(), keys):
        mixed = np.full(n_paths, _MIX_MULT_L * word & _MASK32, dtype=np.uint32)
        mixed -= np.uint32(_MIX_MULT_R) * key
        pool.append(mixed ^ (mixed >> np.uint32(16)))
    state = np.empty((n_paths, 8), dtype="<u4")
    for j, word in enumerate(_hashmix(pool * 2, _INIT_B, _MULT_B)):
        state[:, j] = word
    return state.view("<u8").astype(np.uint64, copy=False)


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
    # numpy.random is loaded here, not at module level, so that importing
    # msacontrol does not load it
    words = _child_words(np.random.SeedSequence(seed), n_paths)
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


def _check_horizon(noise: NoiseBank, p: ControlProblem) -> None:
    if noise.grid.horizon != p.horizon:
        raise ValueError(
            f"bank grid horizon {noise.grid.horizon} is not the problem's {p.horizon}"
        )


@dataclass(frozen=True)
class StateEnsemble:
    """States of a problem simulated on a bank under a control, shape (N + 1, M, d).

    Step-major: values[k] is step k's contiguous (M, d) slab.  The
    constructor checks d against the problem, M and N against the bank,
    the bank's d' and grid horizon against the problem and the control
    against all three, so a kernel that reads an ensemble need not check
    it again.
    """

    values: np.ndarray
    problem: ControlProblem
    noise: NoiseBank
    control: ControlEnsemble

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        p, (n, m, dn) = self.problem, self.noise.increments.shape
        if vals.shape != (n + 1, m, p.state_dim):
            raise ValueError(
                f"values of shape {vals.shape} do not match (N + 1, M, d) = "
                f"({n + 1}, {m}, {p.state_dim})"
            )
        if dn != p.noise_dim:
            raise ValueError(f"bank noise dimension {dn} is not the problem's {p.noise_dim}")
        _check_horizon(self.noise, p)
        self.control.validate(m, n, p.action_space.n_actions)
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
    It keeps the caller's integer dtype; the package's own controls use
    the action space's ``index_dtype``.  Like a bank, it takes ownership
    of a C-contiguous array and makes it read-only.  Kernels read it one
    step at a time, through ``steps`` going forward.
    """

    by_step: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.by_step)
        if idx.ndim != 2:
            raise ValueError("by_step must have shape (N, M) or (N, 1)")
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError("by_step must be integers")
        idx = np.ascontiguousarray(idx)
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
        """Yield (k, float t_k, ``actions`` a_k) on the bank's grid; the caller validates."""
        points, m = p.action_space.points, noise.n_paths
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
    Its indices have the action space's ``index_dtype``.
    """
    if mode not in CONTROL_MODES:
        raise ValueError(f"mode must be one of {CONTROL_MODES}")
    rows = n_paths if mode == "per_path" else 1
    space = p.action_space
    idx = np.full((n_steps, rows), space.centroid_index(), dtype=space.index_dtype)
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
    # checked before the walk, which would fail on a mismatch part-way through
    if noise.noise_dim != p.noise_dim:
        raise ValueError("noise bank dimension does not match the problem")
    _check_horizon(noise, p)
    control.validate(m, n, p.action_space.n_actions)

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
    return StateEnsemble(out, p, noise, control)


def cost_per_path(states: StateEnsemble) -> np.ndarray:
    """Per-path cost sum_k f(t_k, X_k, a_k) dt + g(X_N), left-endpoint rule."""
    p, xs = states.problem, states.values
    dt = states.grid.dt
    acc = np.zeros(states.n_paths)
    for k, t, a in states.control.steps(p, states.noise):
        acc += np.asarray(p.running_cost(t, xs[k], a)) * dt
    acc += np.asarray(p.terminal_cost(xs[states.n_steps]))
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
