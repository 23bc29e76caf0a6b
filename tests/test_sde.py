"""Noise bank, forward Euler simulation, and cost estimation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msacontrol import ActionSpace, StructuredProblem, get_benchmark
from msacontrol.oracle import riccati_lq, scalar_quadratic_problem
from msacontrol.sde import (
    ControlEnsemble,
    NoiseBank,
    SimulationError,
    StateEnsemble,
    TimeGrid,
    constant_control,
    cost_per_path,
    make_noise,
    mean_and_se,
    simulate_forward,
)

from conftest import fresh_interpreter_loads
from references import unit_gain_riccati_p
from test_problem import make_problem


class TestTimeGrid:
    def test_nodes(self):
        g = TimeGrid(n_steps=4, horizon=1.0)
        assert g.dt == 0.25
        assert np.array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_nodes_strictly_increasing_and_span(self):
        g = TimeGrid(n_steps=50, horizon=1.0)
        nodes = g.nodes
        assert nodes[0] == 0.0
        assert np.all(np.diff(nodes) > 0)
        assert abs(nodes[-1] - g.horizon) <= 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            TimeGrid(n_steps=0, horizon=1.0)
        with pytest.raises(ValueError):
            TimeGrid(n_steps=10, horizon=0.0)


class TestMakeNoise:
    def test_deterministic_regeneration(self):
        g = TimeGrid(n_steps=1, horizon=1.0)
        a = make_noise(g, 1, 1, seed=42)
        b = make_noise(g, 1, 1, seed=42)
        assert np.array_equal(a.increments, b.increments)

    def test_different_seeds_differ(self):
        g = TimeGrid(n_steps=1, horizon=1.0)
        a = make_noise(g, 1, 1, seed=1)
        b = make_noise(g, 1, 1, seed=2)
        assert a.increments[0, 0, 0] != b.increments[0, 0, 0]

    def test_gaussian_moments(self):
        m = 100_000
        g = TimeGrid(n_steps=1, horizon=0.01)
        bank = make_noise(g, m, 1, seed=7)
        inc = bank.increments[0, :, 0]
        dt = g.dt
        assert abs(inc.mean()) <= 4.0 * math.sqrt(dt) / math.sqrt(m)
        assert abs(inc.var() - dt) <= 0.05 * dt

    def test_path_prefix_stable_in_n_paths(self):
        # path i's stream depends on (seed, i) only
        g = TimeGrid(n_steps=3, horizon=1.0)
        small = make_noise(g, 4, 2, seed=9)
        large = make_noise(g, 8, 2, seed=9)
        assert np.array_equal(small.increments, large.increments[:, :4])

    def test_immutable(self):
        g = TimeGrid(n_steps=2, horizon=1.0)
        bank = make_noise(g, 3, 1, seed=0)
        with pytest.raises(ValueError):
            bank.increments[0, 0, 0] = 1.0

    def test_bank_is_not_copied(self):
        # the bank owns the array make_noise filled: peak memory stays
        # near one bank, where a copy would need two
        g = TimeGrid(n_steps=50, horizon=1.0)
        tracemalloc.start()
        try:
            bank = make_noise(g, 20_000, 1, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * bank.increments.nbytes

    def test_rejects_bad_sizes(self):
        g = TimeGrid(n_steps=10, horizon=1.0)
        with pytest.raises(ValueError):
            make_noise(g, 0, 1, seed=0)
        with pytest.raises(ValueError):
            make_noise(g, 1, 0, seed=0)
        with pytest.raises(MemoryError):
            make_noise(g, 10**8, 100, seed=0)


def spawned_bank(grid, n_paths, noise_dim, seed):
    """The bank as numpy's own SeedSequence.spawn streams, path by path."""
    out = np.empty((grid.n_steps, n_paths, noise_dim))
    children = np.random.SeedSequence(seed).spawn(n_paths)
    for i, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        out[:, i] = np.sqrt(grid.dt) * rng.standard_normal((grid.n_steps, noise_dim))
    return out


class TestNoiseStream:
    """make_noise computes the spawned seeds itself; the stream is numpy's."""

    # 2**130 + 7 has five 32-bit words, more than the pool's four
    SEEDS = [0, 1, 12345, 2**32 - 1, 2**32 + 5, 2**70 + 3, 2**130 + 7]
    SEEDS += [np.int64(s) for s in SEEDS if s < 2**63]

    @pytest.mark.parametrize("seed", SEEDS, ids=repr)
    def test_bank_is_spawned_stream(self, seed):
        g = TimeGrid(n_steps=7, horizon=0.3)
        # 2049 paths cross two edges of make_noise's 1024-path blocks
        for n_paths, noise_dim in ((1000, 1), (300, 2), (57, 3), (2049, 2)):
            bank = make_noise(g, n_paths, noise_dim, seed=seed)
            ref = spawned_bank(g, n_paths, noise_dim, seed)
            assert np.array_equal(bank.increments.view(np.uint64), ref.view(np.uint64))

    def test_invalid_seed_raises_as_numpy_does(self):
        g = TimeGrid(n_steps=2, horizon=1.0)
        for seed, error in ((-1, ValueError), (1.5, TypeError)):
            with pytest.raises(error):
                np.random.SeedSequence(seed)
            with pytest.raises(error):
                make_noise(g, 3, 1, seed=seed)

    def test_import_does_not_load_numpy_random(self):
        # numpy.random is loaded on the first make_noise call, not at import,
        # which keeps the start-up cost of building a problem flat
        code = "import msacontrol\nmsacontrol.get_benchmark('lq_drift_small')"
        assert not fresh_interpreter_loads(code, "numpy.random")


def constant_dynamics_problem(c, actions=(0.0,)):
    """b = c, sigma = 0, f = 0, g = 0."""
    z = lambda t, x, a: np.zeros_like(x)
    return make_problem(
        b=lambda t, x, a: np.full_like(x, c),
        sigma=lambda t, x, a: np.zeros_like(x),
        f=z,
        g=lambda x: np.zeros_like(x),
        b_jac=z,
        sigma_jac=z,
        f_grad=z,
        g_grad=lambda x: np.zeros_like(x),
        actions=actions,
        x0=1.0,
    )


class TestSimulateForward:
    def test_zero_dynamics_constant_state(self):
        p = constant_dynamics_problem(0.0)
        g = TimeGrid(n_steps=6, horizon=1.0)
        noise = make_noise(g, 5, 1, seed=3)
        ctrl = constant_control(p, 5, 6)
        states = simulate_forward(p, noise, ctrl)
        assert np.all(states.values == 1.0)

    def test_constant_drift_exact(self):
        # dt = 0.25 and c = 0.5 are binary-exact, so the Euler sum is exact
        p = constant_dynamics_problem(0.5)
        g = TimeGrid(n_steps=4, horizon=1.0)
        noise = make_noise(g, 3, 1, seed=3)
        ctrl = constant_control(p, 3, 4)
        states = simulate_forward(p, noise, ctrl)
        assert np.all(states.values[-1, :, 0] == 1.5)

    def test_geometric_dynamics_mean(self):
        beta, nu, x0, horizon = 0.1, 0.2, 1.0, 1.0
        sp = StructuredProblem(
            state_dim=1,
            noise_dim=1,
            horizon=horizon,
            initial_state=np.array([x0]),
            b1=lambda t: np.array([[beta]]),
            b2=lambda t, a: 0.0 * a,
            sigma1=lambda t: np.array([[[nu]]]),
            sigma2=lambda t, a: 0.0 * a[..., None, :],
            f1=lambda t, x: np.zeros(x.shape[:-1]),
            f1_grad_x=lambda t, x: np.zeros_like(x),
            f2=lambda t, a: np.zeros(a.shape[:-1]),
            terminal=lambda x: np.zeros(x.shape[:-1]),
            terminal_grad_x=lambda x: np.zeros_like(x),
            action_space=ActionSpace(points=np.array([0.0])),
            name="geometric",
        )
        p = sp.assemble()
        m = 100_000
        g = TimeGrid(n_steps=100, horizon=horizon)
        noise = make_noise(g, m, 1, seed=11)
        ctrl = constant_control(p, m, 100)
        states = simulate_forward(p, noise, ctrl)
        xt = states.values[-1, :, 0]
        mean, se = mean_and_se(xt)
        assert abs(mean - x0 * math.exp(beta * horizon)) <= 3.0 * se

    def test_initial_slice_is_x0(self, lq_bench):
        p = lq_bench.problem
        g = TimeGrid(n_steps=5, horizon=p.horizon)
        noise = make_noise(g, 7, 1, seed=5)
        ctrl = constant_control(p, 7, 5)
        states = simulate_forward(p, noise, ctrl)
        assert np.all(states.values[0] == p.initial_state)

    def test_bitwise_reproducible_and_worker_invariant(self, lq_bench):
        p = lq_bench.problem
        g = TimeGrid(n_steps=20, horizon=p.horizon)
        noise = make_noise(g, 500, 1, seed=21)
        rng = np.random.default_rng(0)
        idx = rng.integers(0, p.action_space.n_actions, size=(500, 20))
        ctrl = ControlEnsemble(by_step=idx.T)
        base = simulate_forward(p, noise, ctrl)
        again = simulate_forward(p, noise, ctrl)
        assert np.array_equal(base.values, again.values)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blowup_names_path_and_step(self):
        z = lambda t, x, a: np.zeros_like(x)
        p = make_problem(
            b=lambda t, x, a: 1e50 * x**3,
            sigma=z,
            f=z,
            g=lambda x: np.zeros_like(x),
            b_jac=lambda t, x, a: 3e50 * x**2,
            sigma_jac=z,
            f_grad=z,
            g_grad=lambda x: np.zeros_like(x),
            actions=[0.0],
            x0=1.0,
        )
        g = TimeGrid(n_steps=10, horizon=1.0)
        noise = make_noise(g, 4, 1, seed=0)
        ctrl = constant_control(p, 4, 10)
        with pytest.raises(SimulationError) as exc:
            simulate_forward(p, noise, ctrl)
        assert exc.value.step >= 1
        assert exc.value.path >= 0
        assert "step" in str(exc.value) and "path" in str(exc.value)

    def test_bank_on_another_horizon_is_refused(self):
        # priced silently, this T = 1 problem on a T = 2 bank would cost 4.028, not 1.970
        p = get_benchmark("lq_drift_small").problem
        assert p.horizon == 1.0
        noise = make_noise(TimeGrid(n_steps=5, horizon=2.0), 2000, 1, seed=1)
        with pytest.raises(ValueError, match="horizon 2.0 is not the problem's 1.0"):
            simulate_forward(p, noise, constant_control(p, 2000, 5))

    def test_shape_mismatches_rejected(self, lq_bench):
        p = lq_bench.problem
        g = TimeGrid(n_steps=5, horizon=p.horizon)
        short = TimeGrid(n_steps=4, horizon=p.horizon)
        noise = make_noise(g, 4, 1, seed=0)
        with pytest.raises(ValueError):
            simulate_forward(p, noise, constant_control(p, 4, 6))
        # neither a bank nor states can be paired with a grid of another step count
        with pytest.raises(ValueError, match="steps"):
            NoiseBank(noise.increments, short)
        states = simulate_forward(p, noise, constant_control(p, 4, 5))
        short_bank = NoiseBank(noise.increments[:4], short)
        with pytest.raises(ValueError, match="do not match"):
            StateEnsemble(states.values, p, short_bank, constant_control(p, 4, 4))
        with pytest.raises(ValueError, match="do not match"):
            StateEnsemble(states.values[:, :3], p, noise, states.control)


# the inputs' mismatches: StateEnsemble and simulate_forward share one check
INPUT_MISMATCHES = [
    ("bank_noise_dim", "bank noise dimension 2 is not the problem's 1"),
    ("bank_horizon", "bank grid horizon 2.0 is not the problem's 1.0"),
    ("control_rows", r"control shape \(4, 2\) does not match"),
    ("control_steps", r"control shape \(3, 100\) does not match"),
    ("control_index", "out of range"),
]


class TestStateEnsemble:
    """The constructor checks values, bank and control against the problem."""

    @staticmethod
    def mismatched(case):
        """A good ensemble's fields, with the one named by case made not to fit."""
        p = get_benchmark("lq_drift_small").problem
        m, n = 100, 4
        grid = TimeGrid(n_steps=n, horizon=p.horizon)
        noise = make_noise(grid, m, 1, seed=3)
        good = simulate_forward(p, noise, constant_control(p, m, n))
        StateEnsemble(good.values, p, noise, good.control)  # the good set is accepted
        args = dict(values=good.values, problem=p, noise=noise, control=good.control)
        if case == "state_dim":
            # d = 2 states, which a scalar problem's cost reads as the d = 1 ones
            args["values"] = np.repeat(good.values, 2, axis=2)
        elif case == "bank_noise_dim":
            args["noise"] = make_noise(grid, m, 2, seed=3)
        elif case == "bank_horizon":
            args["noise"] = make_noise(TimeGrid(n_steps=n, horizon=2 * p.horizon), m, 1, seed=3)
        elif case == "control_rows":
            args["control"] = ControlEnsemble(np.ones((n, 2), dtype=np.int64))
        elif case == "control_steps":
            args["control"] = ControlEnsemble(np.ones((n - 1, m), dtype=np.int64))
        else:
            args["control"] = ControlEnsemble(np.full((n, m), 3))
        return args

    @pytest.mark.parametrize(
        "case, message",
        [("state_dim", r"\(N \+ 1, M, d\) = \(5, 100, 1\)"), *INPUT_MISMATCHES],
    )
    def test_each_mismatch_is_refused(self, case, message):
        args = self.mismatched(case)
        with pytest.raises(ValueError, match=message):
            StateEnsemble(**args)

    @pytest.mark.parametrize("case, message", INPUT_MISMATCHES)
    def test_simulate_forward_refuses_with_the_same_message(self, case, message):
        args = self.mismatched(case)
        with pytest.raises(ValueError, match=message):
            simulate_forward(args["problem"], args["noise"], args["control"])


class TestEstimateCost:
    def test_zero_costs(self):
        p = constant_dynamics_problem(0.0)
        g = TimeGrid(n_steps=4, horizon=1.0)
        noise = make_noise(g, 8, 1, seed=1)
        ctrl = constant_control(p, 8, 4)
        states = simulate_forward(p, noise, ctrl)
        assert mean_and_se(cost_per_path(states)) == (0.0, 0.0)

    def test_unit_running_cost_integrates_to_horizon(self):
        z = lambda t, x, a: np.zeros_like(x)
        p = make_problem(
            b=z,
            sigma=lambda t, x, a: np.ones_like(x),
            f=lambda t, x, a: np.ones_like(x),
            g=lambda x: np.zeros_like(x),
            b_jac=z,
            sigma_jac=z,
            f_grad=z,
            g_grad=lambda x: np.zeros_like(x),
            actions=[0.0],
        )
        g = TimeGrid(n_steps=4, horizon=1.0)
        noise = make_noise(g, 256, 1, seed=1)
        ctrl = constant_control(p, 256, 4)
        states = simulate_forward(p, noise, ctrl)
        est, se = mean_and_se(cost_per_path(states))
        assert est == 1.0
        assert se == 0.0

    def test_riccati_feedback_cost_near_optimal(self, lq_bench):
        """Quantized Riccati feedback lands within noise + O(dt) of J*."""
        lq = lq_bench.lq
        n, m = 50, 4000
        grid = TimeGrid(n_steps=n, horizon=1.0)
        sol = riccati_lq(lq, grid)
        p = scalar_quadratic_problem("lq_fine", lq, 1.0, np.linspace(-2.0, 2.0, 401))
        noise = make_noise(grid, m, 1, seed=33)
        pts = p.action_space.points[:, 0]
        idx = np.zeros((n, m), dtype=int)
        x = np.full(m, lq.x0)
        dt = grid.dt
        for k in range(n):
            t = float(grid.nodes[k])
            gain = -lq.control_gain * unit_gain_riccati_p(lq, 1.0, t) / lq.r
            a = np.clip(gain * x, pts[0], pts[-1])
            idx[k] = np.rint((a - pts[0]) / (pts[1] - pts[0])).astype(int)
            a_used = pts[idx[k]]
            x = x + (0.2 * x + a_used) * dt + 0.2 * noise.increments[k, :, 0]
        ctrl = ControlEnsemble(by_step=idx)
        states = simulate_forward(p, noise, ctrl)
        est, se = mean_and_se(cost_per_path(states))
        j_star = sol.optimal_value
        assert abs(est - j_star) <= 3.0 * se + 0.05 * abs(j_star)

    def test_standard_error_scaling(self, lq_bench):
        p = lq_bench.problem
        grid = TimeGrid(n_steps=20, horizon=p.horizon)
        ses = {}
        for m in (1000, 10_000):
            noise = make_noise(grid, m, 1, seed=2)
            ctrl = constant_control(p, m, 20)
            states = simulate_forward(p, noise, ctrl)
            _, ses[m] = mean_and_se(cost_per_path(states))
        ratio = ses[1000] / ses[10_000]
        assert math.sqrt(10.0) / 1.5 <= ratio <= math.sqrt(10.0) * 1.5

    def test_nonfinite_cost_names_path(self):
        z = lambda t, x, a: np.zeros_like(x)
        p = make_problem(
            b=z,
            sigma=lambda t, x, a: np.ones_like(x),
            f=z,
            g=lambda x: np.where(np.abs(x) > 0.5, np.inf, 0.0),
            b_jac=z,
            sigma_jac=z,
            f_grad=z,
            g_grad=lambda x: np.zeros_like(x),
            actions=[0.0],
            x0=0.0,
        )
        g = TimeGrid(n_steps=8, horizon=1.0)
        noise = make_noise(g, 64, 1, seed=4)
        ctrl = constant_control(p, 64, 8)
        states = simulate_forward(p, noise, ctrl)
        with pytest.raises(SimulationError) as exc:
            cost_per_path(states)
        assert exc.value.path >= 0
        assert "path" in str(exc.value)


class TestMeanAndSe:
    def test_single_value(self):
        assert mean_and_se(np.array([3.0])) == (3.0, 0.0)

    def test_matches_manual_formula(self):
        vals = np.array([1.0, 2.0, 4.0, 7.0])
        mean, se = mean_and_se(vals)
        assert mean == vals.mean()
        assert se == pytest.approx(vals.std(ddof=1) / 2.0, rel=1e-15)

    def test_columns_of_a_matrix(self):
        vals = np.array([[1.0, -2.0], [2.0, 0.5], [4.0, 3.0], [7.0, 1.0]])
        mean, se = mean_and_se(vals)
        assert mean.shape == se.shape == (2,)
        for j in range(2):
            assert (mean[j], se[j]) == pytest.approx(mean_and_se(vals[:, j]), rel=1e-15)
        mean, se = mean_and_se(vals[:1])
        assert np.array_equal(mean, vals[0]) and np.array_equal(se, np.zeros(2))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_se_nonnegative_and_finite(self, xs):
        mean, se = mean_and_se(np.array(xs))
        assert np.isfinite(mean)
        assert se >= 0.0
