"""Ground-truth oracles: the Euler LQ recursion, adjoint ODE, enumeration, benchmarks."""

import dataclasses
import math

import numpy as np
import pytest

import msacontrol.oracle as oracle_mod
from msacontrol import Benchmark, get_benchmark, register_benchmark
from msacontrol.oracle import (
    LqSpec,
    benchmark_names,
    benchmark_suite,
    brute_force_optimal,
    riccati_lq,
)
from msacontrol.problem import EvaluationError, ProblemDefinitionError, check_derivatives
from msacontrol.sde import (
    ControlEnsemble,
    SimulationError,
    TimeGrid,
    cost_per_path,
    make_noise,
    mean_and_se,
    simulate_forward,
)

from references import (
    continuous_lq_value,
    diffusion_lq_reference,
    euler_lq_recursion,
    euler_lq_value,
    linear_feedback_cost,
    lq_adjoint_y0,
    unit_gain_lq_value,
)

# the continuous-time optima, from the tests' own RK4 on 4000 steps
LQ_DRIFT_OPTIMUM = 1.1188145592568133
CTRL_DIFFUSION_OPTIMUM = 1.955913960085863
# the Euler scheme's optima at the solver's default N = 50
LQ_DRIFT_EULER_50 = 1.1274341901096405
CTRL_DIFFUSION_EULER_50 = 1.9460259157393516

STIFF = LqSpec(control_gain=30.0, r=0.01, q_t=1.0)
BOTH = LqSpec(0.2, 1.0, 0.4, 0.5, 1.0, 0.3, 0.5, 1.0)  # control in the drift and the diffusion
SUITE_SPECS = {
    "lq_drift": oracle_mod._LQ_DRIFT,
    "ctrl_diffusion": oracle_mod._CTRL_DIFFUSION,
    "msa_stress": oracle_mod._MSA_STRESS,
}


def euler_value(spec, n_steps, horizon=1.0):
    return riccati_lq(spec, TimeGrid(n_steps=n_steps, horizon=horizon)).optimal_value


def richardson(spec, n_steps, horizon=1.0):
    """2 V(2N) - V(N): the Euler value is first order in h, so this cancels that term."""
    return 2.0 * euler_value(spec, 2 * n_steps, horizon) - euler_value(spec, n_steps, horizon)


class TestRiccati:
    def test_tanh_case(self):
        # the continuous value is tanh(1); V_euler tends to it
        spec = LqSpec(beta=0.0, control_gain=1.0, nu=0.0, q=1.0, r=1.0, q_t=0.0, x0=1.0)
        assert abs(richardson(spec, 10_000) - math.tanh(1.0)) <= 1e-10
        assert abs(continuous_lq_value(spec, 1.0) - math.tanh(1.0)) <= 2e-12

    def test_no_state_cost_means_zero_value(self):
        spec = LqSpec(beta=0.4, nu=0.3, q=0.0, r=1.0, q_t=0.0, x0=2.0)
        sol = riccati_lq(spec, TimeGrid(n_steps=50, horizon=1.0))
        assert sol.optimal_value == 0.0

    def test_matches_closed_form_on_drift_benchmark(self, lq_bench):
        want = unit_gain_lq_value(lq_bench.lq, horizon=1.0)
        assert abs(richardson(lq_bench.lq, 10_000) - want) <= 1e-10
        assert abs(euler_value(lq_bench.lq, 50) - LQ_DRIFT_EULER_50) <= 1e-14
        assert abs(continuous_lq_value(lq_bench.lq, 1.0) - LQ_DRIFT_OPTIMUM) <= 1e-10
        assert abs(continuous_lq_value(lq_bench.lq, 1.0) - want) <= 1e-14

    @pytest.mark.parametrize("n_steps", [5, 50, 200])
    @pytest.mark.parametrize("name", list(SUITE_SPECS))
    def test_is_the_euler_scheme_value(self, name, n_steps):
        spec = SUITE_SPECS[name]
        want = euler_lq_value(spec, 1.0, n_steps)
        assert abs(euler_value(spec, n_steps) - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("name", list(SUITE_SPECS))
    def test_tends_to_the_continuous_value(self, name):
        # first order in h, with no step size to choose: the gap shrinks
        # with N and one Richardson step leaves a second-order remainder
        spec = SUITE_SPECS[name]
        want = continuous_lq_value(spec, 1.0)
        gaps = [abs(euler_value(spec, n) - want) for n in (5, 50, 200, 4000)]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] <= 2e-4
        assert abs(richardson(spec, 10_000) - want) <= 1e-7  # 3.7e-8 on msa_stress

    @pytest.mark.parametrize(
        "spec",
        [
            oracle_mod._LQ_DRIFT,
            oracle_mod._CTRL_DIFFUSION,
            oracle_mod._MSA_STRESS,
            STIFF,
            BOTH,
        ],
        ids=["lq_drift", "ctrl_diffusion", "msa_stress", "stiff", "both"],
    )
    def test_euler_feedback_prices_to_the_value_and_is_optimal(self, spec):
        # the reference's feedback a_k = gains[k] x + offsets[k], priced by
        # its exact first two moments, costs the recursion's value; moving
        # any one step's gain costs more from that step on, the earlier
        # steps being unchanged (on the stiff spec E x^2 falls to ~1e-90 by
        # the last step, so the whole cost could not show a late step's change)
        n = 20
        h = 1.0 / n
        value = euler_value(spec, n)
        _, gains, offsets = euler_lq_recursion(spec, 1.0, n)
        cost, moments = linear_feedback_cost(spec, h, gains, offsets, spec.x0, spec.x0 * spec.x0)
        assert abs(cost - value) <= 1e-12
        for k in range(n):
            own, _ = linear_feedback_cost(spec, h, gains[k:], offsets[k:], *moments[k])
            for step in (-1e-3, 1e-3):
                moved = gains[k:].copy()
                moved[0] += step
                cost_moved, _ = linear_feedback_cost(spec, h, moved, offsets[k:], *moments[k])
                assert cost_moved > own, (k, step)

    def test_stiff_spec_gets_its_value(self):
        # P falls from q_t = 1 towards sqrt(q r) / gain = 1/300 within a few
        # hundredths of the horizon (tanh(300) = 1): there is no step size
        # to pick, and V_euler tends to 1/300
        got = euler_value(STIFF, 50)
        assert abs(got - euler_lq_value(STIFF, 1.0, 50)) <= 1e-14 * got
        assert abs(got - 0.0205409) <= 1e-7
        assert abs(richardson(STIFF, 20_000) - 1.0 / 300.0) <= 1e-7

    def test_non_finite_value_raises(self):
        with pytest.raises(EvaluationError, match="Riccati recursion's value is nan on 5 steps"):
            riccati_lq(LqSpec(beta=1e200, q_t=1.0), TimeGrid(n_steps=5, horizon=1.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            riccati_lq(LqSpec(r=0.0), TimeGrid(n_steps=10, horizon=1.0))
        with pytest.raises(ValueError):
            riccati_lq(LqSpec(q=-1.0), TimeGrid(n_steps=10, horizon=1.0))
        with pytest.raises(ValueError):
            riccati_lq(LqSpec(nu=-0.1), TimeGrid(n_steps=10, horizon=1.0))

    @pytest.mark.parametrize("field", ["beta", "control_gain", "nu", "sigma_gain", "q", "r", "q_t", "x0"])
    def test_spec_fields_must_be_finite(self, field):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ProblemDefinitionError, match=f"^{field} must be finite"):
                LqSpec(**{field: value}).validate()

    @pytest.mark.parametrize(
        "spec, want",
        [
            (BOTH, 0.6404017),
            (LqSpec(0.0, 3.0, 1.0, 0.5, 0.0, 0.1, 1.0, 1.0), 0.0496031),
            (LqSpec(control_gain=1.0, nu=0.0, sigma_gain=0.3), 0.7709641),
        ],
        ids=["noisy", "noisy_stress", "noiseless"],
    )
    def test_control_in_drift_and_diffusion(self, spec, want):
        # V = P x^2 + 2 S x + c, where S moves only if control_gain * sigma_gain * nu != 0
        cont = continuous_lq_value(spec, 1.0)
        assert abs(richardson(spec, 10_000) - cont) <= 1e-8
        assert abs(cont - want) <= 1e-7


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
    def test_matches_closed_form_reference(self, ctrl_bench):
        want = diffusion_lq_reference(oracle_mod._CTRL_DIFFUSION, horizon=1.0)
        assert abs(continuous_lq_value(ctrl_bench.lq, 1.0) - want) <= 1e-12
        assert abs(richardson(ctrl_bench.lq, 10_000) - want) <= 1e-8

    def test_control_never_hurts(self):
        spec = oracle_mod._CTRL_DIFFUSION
        grid = TimeGrid(n_steps=400, horizon=1.0)
        with_ctrl = riccati_lq(spec, grid).optimal_value
        without = riccati_lq(dataclasses.replace(spec, sigma_gain=0.0), grid).optimal_value
        assert with_ctrl <= without + 1e-12

    def test_pinned_benchmark_value(self, ctrl_bench):
        assert abs(euler_value(ctrl_bench.lq, 50) - CTRL_DIFFUSION_EULER_50) <= 1e-14
        assert abs(continuous_lq_value(ctrl_bench.lq, 1.0) - CTRL_DIFFUSION_OPTIMUM) <= 1e-9

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            riccati_lq(
                LqSpec(control_gain=0.0, nu=1.0, sigma_gain=1.0, r=0.0),
                TimeGrid(n_steps=10, horizon=1.0),
            )


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
        res = brute_force_optimal(p, noise)
        assert res.j_star == 0.0
        assert list(res.best_sequence) == [0]
        assert res.n_sequences == 2

    def test_degenerate_all_tie(self):
        from test_msa import control_free_problem

        p = control_free_problem()
        grid = TimeGrid(n_steps=4, horizon=1.0)
        noise = make_noise(grid, 200, 1, seed=5)
        res = brute_force_optimal(p, noise)
        assert res.n_sequences == 3**4
        assert list(res.best_sequence) == [0, 0, 0, 0]
        idx = np.zeros((4, 200), dtype=np.int64)
        ctrl = ControlEnsemble(by_step=idx)
        states = simulate_forward(p, noise, ctrl)
        est, _ = mean_and_se(cost_per_path(states))
        assert res.j_star == pytest.approx(est, rel=1e-12)

    def test_matches_sequence_by_sequence_evaluation(self):
        import itertools

        small = get_benchmark("lq_drift_small").problem
        grid = TimeGrid(n_steps=3, horizon=1.0)
        # 27 sequences of 50 paths fit one chunk of _BRUTE_FORCE_ROWS; at
        # 20,000 paths a chunk holds 2, so 14 chunks, the last one partial
        assert oracle_mod._BRUTE_FORCE_ROWS // 20_000 == 2
        for n_paths in (50, 20_000):
            noise = make_noise(grid, n_paths, 1, seed=7)
            res = brute_force_optimal(small, noise)
            best = np.inf
            arg = None
            # reversed order, so the minimum value must not depend on
            # enumeration; <= keeps, of tied sequences, the first enumerated
            for seq in reversed(list(itertools.product(range(3), repeat=3))):
                ctrl = ControlEnsemble(by_step=np.array(seq, dtype=np.int64)[:, None])
                states = simulate_forward(small, noise, ctrl)
                est, _ = mean_and_se(cost_per_path(states))
                if est <= best:
                    best = est
                    arg = seq
            # brute force prices sequences with the same kernels: equal, not close
            assert res.j_star == best, n_paths
            assert tuple(res.best_sequence) == arg, n_paths

    def test_non_finite_cost_raises(self):
        from test_problem import make_problem

        # the all-zero sequence costs exactly 0; any other overflows x, and
        # the terminal cost 0 * x is then NaN
        z = lambda t, x, a: np.zeros_like(x)
        p = make_problem(
            b=lambda t, x, a: 1e300 * a * x,
            sigma=z,
            f=lambda t, x, a: a * a + 0.0 * x,
            g=lambda x: 0.0 * x,
            b_jac=lambda t, x, a: 1e300 * a + 0.0 * x,
            sigma_jac=z,
            f_grad=z,
            g_grad=lambda x: np.zeros_like(x),
            actions=[0.0, 1.0, 2.0],
            x0=1.0,
        )
        grid = TimeGrid(n_steps=5, horizon=1.0)
        noise = make_noise(grid, 10, 1, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationError, match="non-finite"):
                brute_force_optimal(p, noise)

    def test_budget_guard(self, lq_bench):
        small = get_benchmark("lq_drift_small").problem
        grid = TimeGrid(n_steps=13, horizon=1.0)  # 3^13 sequences
        assert 3**13 > oracle_mod._BRUTE_FORCE_BUDGET
        noise = make_noise(grid, 10, 1, seed=0)
        with pytest.raises(ValueError, match="budget"):
            brute_force_optimal(small, noise)

    def test_small_grid_sits_above_continuous_optimum(self, small_results, lq_bench):
        # the grid-restricted optimum of the 5-step scheme sits above that
        # scheme's unconstrained optimum, which sits above the continuous one
        _, _, bf = small_results["lq_drift_small"]
        j_euler = euler_value(lq_bench.lq, 5)
        assert j_euler >= continuous_lq_value(lq_bench.lq, 1.0)
        assert bf.j_star >= j_euler - 3.0 * bf.standard_error
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
            errors = check_derivatives(bench.problem)
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
        for name in ("ctrl_diffusion", "ctrl_diffusion_small"):
            assert benches[name].lq is oracle_mod._CTRL_DIFFUSION
        assert benches["msa_stress"].lq is None
        optima = {
            name: euler_value(b.lq, 50, b.problem.horizon)
            for name, b in benches.items()
            if b.lq is not None
        }
        # the pinned optima at N = 50, to the last bit
        assert optima["lq_drift"] == optima["lq_drift_small"] == LQ_DRIFT_EULER_50
        assert optima["ctrl_diffusion"] == optima["ctrl_diffusion_small"] == CTRL_DIFFUSION_EULER_50

    @pytest.mark.parametrize("name", ["lq_drift", "ctrl_diffusion"])
    def test_replace_runs_no_ode_oracle(self, monkeypatch, name):
        # the benchmark tracer's get_benchmark swaps in a wrapped problem this
        # way; neither building nor replacing a benchmark runs its oracle
        calls = []
        real = oracle_mod.riccati_lq
        monkeypatch.setattr(oracle_mod, "riccati_lq", lambda *args: calls.append(args) or real(*args))
        bench = get_benchmark(name)
        traced = dataclasses.replace(bench, problem=bench.problem.replace(name="traced"))
        assert calls == []
        assert traced.lq is bench.lq

    def test_optimum_given_by_lq_spec(self, monkeypatch, lq_bench):
        # a user problem with lq= carries its spec, checked when built; the
        # oracle runs only when a command prices it on the run's grid
        calls = []
        real = oracle_mod.riccati_lq
        monkeypatch.setattr(oracle_mod, "riccati_lq", lambda *args: calls.append(args) or real(*args))
        spec = LqSpec(beta=0.0, control_gain=1.0, nu=0.0, q=1.0, r=1.0, q_t=0.0, x0=1.0)
        p = oracle_mod.scalar_quadratic_problem("tanh", spec, 1.0, np.linspace(-1.0, 1.0, 3))
        bench = Benchmark("tanh", p, lq=spec)
        assert calls == []
        assert bench.lq is spec
        assert Benchmark("none", p).lq is None
        with pytest.raises(ProblemDefinitionError, match="r must be positive"):
            Benchmark("bad", p, lq=LqSpec(r=0.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            lq_bench.lq = None

    def test_optimum_is_on_the_problem_horizon(self, tmp_path, capsys):
        # msactl rate prices the oracle on the problem's horizon and the run's N
        from msacontrol.cli import main
        from test_cli import status_line, write_config

        spec = oracle_mod._LQ_DRIFT
        p = oracle_mod.scalar_quadratic_problem("long", spec, 2.0, np.linspace(-1.0, 1.0, 3))
        register_benchmark("long", lambda: Benchmark("long", p, lq=spec))
        try:
            cfg = write_config(
                tmp_path,
                problem={"name": "long"},
                msa={"n_paths": 200, "n_steps": 8},
                output={"directory": str(tmp_path / "r")},
            )
            main(["rate", "--config", cfg])
        finally:
            oracle_mod._FACTORIES.pop("long", None)
        status, _ = status_line(capsys)
        want = euler_value(spec, 8, horizon=2.0)
        assert f"j_star={want:.6g}" in status, status
        assert want != euler_value(spec, 8)
        closed_form = unit_gain_lq_value(spec, horizon=2.0)
        assert abs(richardson(spec, 10_000, horizon=2.0) - closed_form) <= 1e-8

    def test_wide_grid_centroid_is_zero_action(self, lq_bench):
        space = lq_bench.problem.action_space
        centre = space.points[space.centroid_index()]
        assert centre[0] == 0.0
