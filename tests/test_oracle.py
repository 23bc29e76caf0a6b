"""Ground-truth oracles: Riccati, adjoint ODE, enumeration, benchmarks."""

import dataclasses
import math

import numpy as np
import pytest

import msacontrol.oracle as oracle_mod
from msacontrol import (
    TimeGrid,
    benchmark_names,
    benchmark_suite,
    brute_force_optimal,
    check_derivatives,
    cost_per_path,
    get_benchmark,
    make_noise,
    register_benchmark,
    riccati_lq,
    simulate_forward,
)
from msacontrol.msa import ControlEnsemble
from msacontrol.oracle import LqSpec, diffusion_lq_value
from msacontrol.sde import mean_and_se

from references import lq_adjoint_y0

LQ_DRIFT_OPTIMUM = 1.1188145592565684
CTRL_DIFFUSION_OPTIMUM = 1.955913960085863


def closed_form_lq_value(beta, q, q_t, nu, x0, horizon):
    """Constant-coefficient scalar Riccati solution for gain = r = 1.

    Substituting P = beta + kappa w turns the Riccati equation into
    w' = kappa (w^2 - 1), solved by w = -tanh(kappa t + C).
    """
    kappa = math.sqrt(beta * beta + q)
    c_shift = math.atanh((beta - q_t) / kappa) - kappa * horizon
    p0 = beta - kappa * math.tanh(c_shift)
    integral = beta * horizon - (
        math.log(math.cosh(kappa * horizon + c_shift)) - math.log(math.cosh(c_shift))
    )
    c0 = nu * nu * integral
    return p0 * x0 * x0 + c0


class TestRiccati:
    def test_tanh_case(self):
        spec = LqSpec(beta=0.0, control_gain=1.0, nu=0.0, q=1.0, r=1.0, q_t=0.0, x0=1.0)
        sol = riccati_lq(spec, TimeGrid(n_steps=50, horizon=1.0))
        assert abs(sol.value_curve[1][0] - math.tanh(1.0)) <= 2e-12
        assert abs(sol.optimal_value - math.tanh(1.0)) <= 2e-12

    def test_no_state_cost_means_zero_value(self):
        spec = LqSpec(beta=0.4, nu=0.3, q=0.0, r=1.0, q_t=0.0, x0=2.0)
        sol = riccati_lq(spec, TimeGrid(n_steps=50, horizon=1.0))
        assert sol.optimal_value == 0.0
        assert sol.feedback_gain(0.37) == 0.0

    def test_matches_closed_form_on_drift_benchmark(self, lq_bench):
        want = closed_form_lq_value(
            beta=0.2, q=1.0, q_t=0.5, nu=0.2, x0=1.0, horizon=1.0
        )
        sol = riccati_lq(lq_bench.lq, TimeGrid(n_steps=50, horizon=1.0))
        assert abs(sol.optimal_value - want) <= 1e-9
        assert abs(lq_bench.continuous_optimum - LQ_DRIFT_OPTIMUM) <= 1e-10

    def test_terminal_feedback_gain(self, lq_bench):
        sol = riccati_lq(lq_bench.lq, TimeGrid(n_steps=50, horizon=1.0))
        # P(T) = q_t, so gain(T) = -control_gain q_t / r
        assert abs(sol.feedback_gain(1.0) + 0.5) <= 1e-12
        assert abs(sol.feedback_gain(0.0) + sol.value_curve[1][0]) <= 1e-12

    def test_value_curve_nonnegative(self, lq_bench):
        sol = riccati_lq(lq_bench.lq, TimeGrid(n_steps=50, horizon=1.0))
        _, p_vals, c_vals = sol.value_curve
        assert np.all(p_vals >= 0.0)
        assert np.all(c_vals >= 0.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            riccati_lq(LqSpec(r=0.0), TimeGrid(n_steps=10, horizon=1.0))
        with pytest.raises(ValueError):
            riccati_lq(LqSpec(q=-1.0), TimeGrid(n_steps=10, horizon=1.0))
        with pytest.raises(ValueError):
            riccati_lq(LqSpec(nu=-0.1), TimeGrid(n_steps=10, horizon=1.0))
        with pytest.raises(ValueError, match="sigma_gain"):
            riccati_lq(LqSpec(sigma_gain=0.3), TimeGrid(n_steps=10, horizon=1.0))


class TestAdjointOdeOracle:
    def test_constant_control_closed_form(self, lq_bench):
        # m = x0 e^{beta t}, s = e^{beta t}:
        # y0 = 2 q_t x0 e^{2 beta T} + 2 q x0 (e^{2 beta T} - 1) / (2 beta)
        beta, q, q_t, x0 = 0.2, 1.0, 0.5, 1.0
        e2 = math.exp(2.0 * beta)
        want = 2.0 * q_t * x0 * e2 + 2.0 * q * x0 * (e2 - 1.0) / (2.0 * beta)
        got = lq_adjoint_y0(lq_bench.lq, horizon=1.0, action=0.0)
        assert abs(got - want) <= 1e-9

    def test_linear_feedback_closed_form(self, lq_bench):
        # with a = fb x the mean grows at rate beta + fb while the
        # fundamental solution keeps rate beta
        beta, q, q_t, x0, fb = 0.2, 1.0, 0.5, 1.0, -1.0
        rate = 2.0 * beta + fb
        er = math.exp(rate)
        want = 2.0 * q_t * x0 * er + 2.0 * q * x0 * (er - 1.0) / rate
        got = lq_adjoint_y0(lq_bench.lq, horizon=1.0, action=0.0, feedback=fb)
        assert abs(got - want) <= 1e-9


class TestDiffusionControlOracle:
    def test_reduces_to_uncontrolled_when_nu1_zero(self):
        spec = dataclasses.replace(oracle_mod._CTRL_DIFFUSION, sigma_gain=0.0)
        value = diffusion_lq_value(spec, horizon=1.0)
        ref = riccati_lq(spec, TimeGrid(n_steps=50, horizon=1.0))
        assert abs(value - ref.optimal_value) <= 1e-9

    def test_control_never_hurts(self):
        spec = oracle_mod._CTRL_DIFFUSION
        with_ctrl = diffusion_lq_value(spec, horizon=1.0)
        without = diffusion_lq_value(dataclasses.replace(spec, sigma_gain=0.0), horizon=1.0)
        assert with_ctrl <= without + 1e-12

    def test_pinned_benchmark_value(self, ctrl_bench):
        assert abs(ctrl_bench.continuous_optimum - CTRL_DIFFUSION_OPTIMUM) <= 1e-9

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            diffusion_lq_value(
                LqSpec(control_gain=0.0, nu=1.0, sigma_gain=1.0, r=0.0), horizon=1.0
            )

    def test_rejects_control_in_the_drift(self):
        with pytest.raises(ValueError, match="control_gain"):
            diffusion_lq_value(LqSpec(control_gain=1.0, nu=1.0, sigma_gain=1.0), horizon=1.0)


class TestBruteForce:
    def test_one_step_enumeration(self):
        from test_problem import make_problem

        z = lambda t, x, a: np.zeros_like(x)
        p = make_problem(
            b=z,
            sigma=lambda t, x, a: np.ones_like(x),
            f=lambda t, x, a: a * a,
            g=lambda x: np.zeros_like(x),
            b_jac=z,
            sigma_jac=z,
            f_grad=z,
            g_grad=lambda x: np.zeros_like(x),
            actions=[0.0, 1.0],
        )
        grid = TimeGrid(n_steps=1, horizon=1.0)
        noise = make_noise(grid, 100, 1, seed=3)
        res = brute_force_optimal(p, grid, noise)
        assert res.j_star == 0.0
        assert list(res.best_sequence) == [0]
        assert res.n_sequences == 2

    def test_degenerate_all_tie(self):
        from test_msa import control_free_problem

        p = control_free_problem()
        grid = TimeGrid(n_steps=4, horizon=1.0)
        noise = make_noise(grid, 200, 1, seed=5)
        res = brute_force_optimal(p, grid, noise)
        assert res.n_sequences == 3**4
        assert list(res.best_sequence) == [0, 0, 0, 0]
        idx = np.zeros((200, 4), dtype=np.int64)
        ctrl = ControlEnsemble(action_indices=idx)
        states = simulate_forward(p, grid, noise, ctrl)
        est, _ = mean_and_se(cost_per_path(p, grid, states, ctrl))
        assert res.j_star == pytest.approx(est, rel=1e-12)

    def test_matches_sequence_by_sequence_evaluation(self):
        import itertools

        small = get_benchmark("lq_drift_small").problem
        grid = TimeGrid(n_steps=3, horizon=1.0)
        noise = make_noise(grid, 50, 1, seed=7)
        res = brute_force_optimal(small, grid, noise)
        best = np.inf
        arg = None
        # reversed order: the minimum value must not depend on enumeration
        for seq in reversed(list(itertools.product(range(3), repeat=3))):
            ctrl = ControlEnsemble(action_indices=np.array([seq], dtype=np.int64))
            states = simulate_forward(small, grid, noise, ctrl)
            est, _ = mean_and_se(cost_per_path(small, grid, states, ctrl))
            if est < best:
                best = est
                arg = seq
        assert res.j_star == pytest.approx(best, rel=1e-12, abs=1e-14)
        assert tuple(res.best_sequence) == arg

    def test_budget_guard(self, lq_bench):
        small = get_benchmark("lq_drift_small").problem
        grid = TimeGrid(n_steps=13, horizon=1.0)  # 3^13 sequences
        assert 3**13 > oracle_mod._BRUTE_FORCE_BUDGET
        noise = make_noise(grid, 10, 1, seed=0)
        with pytest.raises(ValueError, match="budget"):
            brute_force_optimal(small, grid, noise)

    def test_small_grid_sits_above_continuous_optimum(self, small_results, lq_bench):
        _, _, bf = small_results["lq_drift_small"]
        j_cont = lq_bench.continuous_optimum
        allowance = 0.15 * abs(j_cont) + 3.0 * bf.standard_error
        assert bf.j_star >= j_cont - allowance
        assert bf.standard_error > 0.0


class TestBenchmarkRegistry:
    def test_known_names(self):
        names = benchmark_names()
        for expected in (
            "lq_drift",
            "lq_drift_small",
            "ctrl_diffusion",
            "ctrl_diffusion_small",
            "msa_stress",
        ):
            assert expected in names

    def test_suite_contents(self, suite_benches):
        suite = benchmark_suite()
        assert [b.name for b in suite] == ["lq_drift", "ctrl_diffusion", "msa_stress"]

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="lq_drift"):
            get_benchmark("nope")

    def test_registration_hook(self, lq_bench):
        register_benchmark("lq_alias_for_test", lambda: lq_bench)
        try:
            assert get_benchmark("lq_alias_for_test") is lq_bench
            assert "lq_alias_for_test" in benchmark_names()
        finally:
            oracle_mod._FACTORIES.pop("lq_alias_for_test")

    def test_suite_derivatives_validate(self, suite_benches):
        for bench in suite_benches:
            errors = check_derivatives(bench.problem, n_samples=200, step=1e-5)
            assert max(errors.values()) <= 1e-6, (bench.name, errors)

    def test_structured_split_matches_assembled_problem(self, rng):
        # each suite problem is the one its spec describes, term for term
        specs = {
            "lq_drift": oracle_mod._LQ_DRIFT,
            "lq_drift_small": oracle_mod._LQ_DRIFT,
            "ctrl_diffusion": oracle_mod._CTRL_DIFFUSION,
            "ctrl_diffusion_small": oracle_mod._CTRL_DIFFUSION,
            "msa_stress": oracle_mod._MSA_STRESS,
        }
        for name, s in specs.items():
            p = get_benchmark(name).problem
            terms = p.action_terms
            x = rng.normal(size=(8, 1))
            ai = rng.integers(0, p.action_space.n_actions, size=8)
            a = p.action_space.points[ai]
            t = 0.4
            assert p.initial_state.tolist() == [s.x0]
            assert np.array_equal(terms.drift(t, a), s.control_gain * a)
            assert np.array_equal(np.asarray(p.drift(t, x, a)), s.beta * x + s.control_gain * a)
            assert np.array_equal(
                np.asarray(p.diffusion(t, x, a)), (s.nu + s.sigma_gain * a)[..., None]
            )
            assert np.array_equal(terms.running_cost(t, a), s.r * a[:, 0] * a[:, 0])
            assert np.array_equal(
                np.asarray(p.running_cost(t, x, a)),
                s.q * x[:, 0] * x[:, 0] + s.r * a[:, 0] * a[:, 0],
            )
            assert np.array_equal(p.terminal_cost(x), s.q_t * x[:, 0] * x[:, 0])

    def test_oracles_read_the_problem_spec(self):
        names = ("lq_drift", "lq_drift_small", "ctrl_diffusion", "ctrl_diffusion_small", "msa_stress")
        benches = {name: get_benchmark(name) for name in names}
        assert benches["lq_drift"].lq is benches["lq_drift_small"].lq is oracle_mod._LQ_DRIFT
        for name in ("ctrl_diffusion", "ctrl_diffusion_small", "msa_stress"):
            assert benches[name].lq is None
        optima = {name: b.continuous_optimum for name, b in benches.items()}
        # the pinned optima, to the last bit
        assert optima["lq_drift"] == optima["lq_drift_small"] == LQ_DRIFT_OPTIMUM
        assert optima["ctrl_diffusion"] == optima["ctrl_diffusion_small"] == CTRL_DIFFUSION_OPTIMUM
        assert optima["ctrl_diffusion"] == diffusion_lq_value(oracle_mod._CTRL_DIFFUSION, 1.0)
        assert optima["msa_stress"] is None

    def test_wide_grid_centroid_is_zero_action(self, lq_bench):
        space = lq_bench.problem.action_space
        centre = space.points[space.centroid_index()]
        assert centre[0] == 0.0
