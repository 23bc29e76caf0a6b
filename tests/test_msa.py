"""Control updates, descent monitoring, the solver loop, certificates."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msacontrol import (
    DescentFailureError,
    EvaluationError,
    MsaConfig,
    RegressionBasis,
    TimeGrid,
    adjoint_residual,
    benchmark_names,
    compute_mu,
    constant_control,
    cost_per_path,
    get_benchmark,
    make_noise,
    run_msa,
    simulate_forward,
    solve_adjoint_linear_y0,
    solve_adjoint_lsmc,
    update_control,
)
from msacontrol.bsde import AdjointEnsemble
from msacontrol.oracle import LqSpec, scalar_quadratic_problem
from msacontrol.sde import ControlEnsemble, NoiseBank, StateEnsemble

from references import pontryagin_gaps
from test_problem import quadratic_drift_problem


def hand_built(prev, x, y, z, horizon=1.0):
    """States x under prev on a zero noise bank, and the adjoint (y, z)."""
    m, n = x.shape[1], x.shape[0] - 1
    noise = NoiseBank(np.zeros((n, m, 1)), TimeGrid(n_steps=n, horizon=horizon))
    return StateEnsemble(x, noise, prev), AdjointEnsemble(y_values=y, z_values=z)


def flat_artifacts(prev, m, y=2.0, z=7.0, x=0.0, horizon=1.0):
    """State and adjoint ensembles with constant entries, under prev."""
    n = prev.n_steps
    return hand_built(
        prev,
        np.full((n + 1, m, 1), float(x)),
        np.full((n + 1, m, 1), float(y)),
        np.full((n, m, 1, 1), float(z)),
        horizon,
    )


def control_free_problem():
    """Costs and dynamics that ignore the action entirely."""
    spec = LqSpec(beta=0.3, control_gain=0.0, nu=0.5, q=1.0, r=0.0, q_t=0.5, x0=1.0)
    return scalar_quadratic_problem("control_free", spec, 1.0, np.array([-1.0, 0.0, 1.0]))


class TestControlEnsemble:
    def test_validation(self):
        with pytest.raises(ValueError):
            ControlEnsemble(by_step=np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError):
            ControlEnsemble(by_step=np.zeros((2, 2)))  # floats
        with pytest.raises(ValueError, match="mode"):
            constant_control(quadratic_drift_problem(), 2, 2, mode="x")

    def test_constant_control_defaults_to_centroid(self):
        p = quadratic_drift_problem()
        ctrl = constant_control(p, 3, 4)
        assert ctrl.by_step.shape == (4, 3)  # one row per step
        assert np.all(ctrl.by_step == 1)  # action 0.0 of {-1, 0, 1}

    @pytest.mark.parametrize("rows", [1, 5])
    def test_steps_walks_the_grid_once(self, rows):
        p = quadratic_drift_problem()
        m, n = 5, 4
        grid = TimeGrid(n_steps=n, horizon=0.7)
        noise = NoiseBank(np.zeros((n, m, 1)), grid)
        ctrl = ControlEnsemble(by_step=np.arange(n * rows).reshape(n, rows) % 3)
        walk = list(ctrl.steps(p, noise))
        assert [k for k, _, _ in walk] == list(range(n))
        for k, t, a in walk:
            assert type(t) is float and t == grid.nodes[k]
            assert a.shape == (m, 1)
            assert np.array_equal(a, np.broadcast_to(p.action_space.points[ctrl.by_step[k]], (m, 1)))
        bad = ControlEnsemble(by_step=np.full((n, m), 3))
        with pytest.raises(ValueError, match="out of range"):
            next(bad.steps(p, noise))
        longer = NoiseBank(np.zeros((n + 1, m, 1)), TimeGrid(n_steps=n + 1, horizon=0.7))
        with pytest.raises(ValueError, match="does not match"):
            next(ctrl.steps(p, longer))

    @pytest.mark.parametrize(
        "idx, message",
        [
            (np.ones((4, 2), dtype=np.int64), "does not match"),
            (np.ones((3, 100), dtype=np.int64), "does not match"),
            (np.full((4, 100), 7), "out of range"),
        ],
        ids=["two_rows", "three_steps", "index_7_of_3"],
    )
    @pytest.mark.parametrize(
        "consumer",
        [
            "simulate_forward",
            "cost_per_path",
            "solve_adjoint_lsmc",
            "solve_adjoint_linear_y0",
            "adjoint_residual",
            "compute_mu_new",
            "compute_mu_prev",
            "update_control",
            "update_control_general",
        ],
    )
    def test_every_consumer_validates_the_control(self, consumer, idx, message):
        p = get_benchmark("lq_drift_small").problem
        grid = TimeGrid(n_steps=4, horizon=p.horizon)
        noise = make_noise(grid, 100, 1, seed=3)
        good = constant_control(p, 100, 4)
        states = simulate_forward(p, noise, good)
        adjoint = solve_adjoint_lsmc(p, states, RegressionBasis())
        bad = ControlEnsemble(by_step=idx)
        # the good states' values, paired by hand with a control that does not fit them
        bad_states = StateEnsemble(states.values, noise, bad)
        calls = {
            "simulate_forward": lambda: simulate_forward(p, noise, bad),
            "cost_per_path": lambda: cost_per_path(p, bad_states),
            "solve_adjoint_lsmc": lambda: solve_adjoint_lsmc(p, bad_states, RegressionBasis()),
            "solve_adjoint_linear_y0": lambda: solve_adjoint_linear_y0(p, bad_states),
            "adjoint_residual": lambda: adjoint_residual(p, bad_states, adjoint),
            "compute_mu_new": lambda: compute_mu(p, states, adjoint, bad),
            "compute_mu_prev": lambda: compute_mu(p, bad_states, adjoint, good),
            "update_control": lambda: update_control(p, bad_states, adjoint, 1.0),
            "update_control_general": lambda: update_control(
                p.replace(action_terms=None), bad_states, adjoint, 1.0
            ),
        }
        with pytest.raises(ValueError, match=message):
            calls[consumer]()


class TestOneRowControl:
    """A deterministic control is one column that every path follows."""

    @pytest.mark.parametrize("name", ["lq_drift", "ctrl_diffusion"])
    def test_one_row_matches_its_expansion(self, name):
        p = get_benchmark(name).problem
        n_act = p.action_space.n_actions
        m, n = 300, 6
        grid = TimeGrid(n_steps=n, horizon=p.horizon)
        noise = make_noise(grid, m, p.noise_dim, seed=3)
        rng = np.random.default_rng(3)
        prev_row, new_row = rng.integers(0, n_act, size=(2, 1, n))
        results = []
        for rows in (1, m):
            prev = ControlEnsemble(by_step=np.broadcast_to(prev_row.T, (n, rows)))
            new = ControlEnsemble(by_step=np.broadcast_to(new_row.T, (n, rows)))
            assert prev.by_step.shape == (n, rows)
            states = simulate_forward(p, noise, prev)
            adjoint = solve_adjoint_lsmc(p, states, RegressionBasis())
            results.append(
                (
                    states.values,
                    cost_per_path(p, states),
                    adjoint.y_values,
                    adjoint.z_values,
                    *solve_adjoint_linear_y0(p, states),
                    adjoint_residual(p, states, adjoint),
                    compute_mu(p, states, adjoint, new),
                )
            )
        one, full = results
        for a, b in zip(one, full):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_rows_must_be_one_or_m(self):
        p = quadratic_drift_problem()
        grid = TimeGrid(n_steps=3, horizon=1.0)
        noise = make_noise(grid, 5, 1, seed=1)
        for idx in (np.ones((3, 2), dtype=np.int64), np.ones((4, 1), dtype=np.int64)):
            with pytest.raises(ValueError, match="does not match"):
                simulate_forward(p, noise, ControlEnsemble(by_step=idx))

    def test_deterministic_run_returns_one_row(self):
        p = get_benchmark("lq_drift_small").problem
        cfg = MsaConfig(n_paths=500, n_steps=5, control_mode="deterministic")
        control, trace = run_msa(p, cfg)
        assert control.by_step.shape == (5, 1)
        assert trace.n_rows >= 1


class TestUpdateControl:
    def test_three_action_argmin(self):
        # minimize 2a + a^2/2 over {-1, 0, 1}: the -1 branch wins
        p = quadratic_drift_problem()
        m, n = 4, 2
        states, adjoint = flat_artifacts(ControlEnsemble(np.full((n, m), 1)), m, y=2.0, z=7.0)
        new = update_control(p, states, adjoint, rho=0.0)
        assert np.all(new.by_step == 0)

    def test_action_free_coefficients_keep_prev(self):
        p = control_free_problem()
        m, n = 5, 3
        prev = ControlEnsemble(np.full((n, m), 2))
        states, adjoint = flat_artifacts(prev, m, x=1.0)
        new = update_control(p, states, adjoint, rho=0.0)
        assert np.array_equal(new.by_step, prev.by_step)

    def test_large_rho_keeps_prev(self):
        p = quadratic_drift_problem()
        m, n = 4, 2
        prev = ControlEnsemble(np.full((n, m), 2))
        states, adjoint = flat_artifacts(prev, m, y=2.0)
        new = update_control(p, states, adjoint, rho=1e12)
        assert np.array_equal(new.by_step, prev.by_step)

    def test_negative_rho_rejected(self):
        # nan and inf are no penalty weight either, on both update paths
        p = get_benchmark("lq_drift").problem
        m, n = 200, 4
        for mode in ("per_path", "deterministic"):
            states, adjoint = flat_artifacts(constant_control(p, m, n, mode=mode), m)
            for q in (p, p.replace(action_terms=None)):
                for rho in (-1.0, np.nan, np.inf):
                    with pytest.raises(ValueError, match="rho"):
                        update_control(q, states, adjoint, rho=rho)

    def test_deterministic_mode_shares_action_per_step(self, rng):
        p = quadratic_drift_problem()
        m, n = 50, 4
        x, y, z = (
            rng.normal(size=s).swapaxes(0, 1) for s in ((m, n + 1, 1), (m, n + 1, 1), (m, n, 1, 1))
        )
        prev = constant_control(p, m, n, mode="deterministic")
        states, adjoint = hand_built(prev, x, y, z)
        new = update_control(p, states, adjoint, rho=0.5)
        assert new.by_step.shape == (n, 1)
        for k in range(n):
            a = new.actions(p.action_space.points, k, m)
            assert a.shape == (m, 1) and np.all(a == a[0])


class TestSeparableUpdate:
    """The action-terms path chooses the same actions as the generic one."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_matches_generic_path(self, name):
        p = get_benchmark(name).problem
        generic = p.replace(action_terms=None)
        n_act = p.action_space.n_actions
        m, n = 2000, 8
        grid = TimeGrid(n_steps=n, horizon=p.horizon)
        rng = np.random.default_rng(7)
        # states and adjoint of a random, far-from-converged control
        noise = make_noise(grid, m, p.noise_dim, seed=7)
        rough = ControlEnsemble(by_step=rng.integers(0, n_act, size=(m, n)).T)
        states = simulate_forward(p, noise, rough)
        adjoint = solve_adjoint_lsmc(p, states, MsaConfig().basis)
        steps = rng.integers(0, n_act, size=n)
        # the rough states, and the same values paired with one column: deterministic
        shared = StateEnsemble(states.values, noise, ControlEnsemble(by_step=steps[:, None]))
        for prev_states in (states, shared):
            for rho in (0.0, 0.5, 64.0, 1e12):
                fast = update_control(p, prev_states, adjoint, rho)
                slow = update_control(generic, prev_states, adjoint, rho)
                shape = prev_states.control.by_step.shape
                assert fast.by_step.shape == slow.by_step.shape == shape
                assert np.array_equal(fast.by_step, slow.by_step), (shape, rho)

    def test_non_finite_action_terms_raise_on_both_paths(self):
        # b2 blows up at t = 0.25, which the construction probe (t = 0 and
        # T/2) never samples; the N = 4 grid does
        base = get_benchmark("lq_drift_small").problem
        b2 = lambda t, a: a / (t - 0.25)
        fast = base.replace(
            drift=lambda t, x, a: base.drift(t, x, a) - base.action_terms.drift(t, a) + b2(t, a),
            action_terms=dataclasses.replace(base.action_terms, drift=b2),
        )
        m, n = 6, 4
        for p in (fast, fast.replace(action_terms=None)):
            for mode in ("per_path", "deterministic"):
                start = constant_control(fast, m, n, mode=mode)
                states, adjoint = flat_artifacts(start, m, horizon=fast.horizon)
                with np.errstate(divide="ignore", invalid="ignore"):
                    with pytest.raises(EvaluationError, match="non-finite"):
                        update_control(p, states, adjoint, rho=1.0)


class TestAdjointShape:
    @pytest.mark.parametrize("paths, steps", [(1, 4), (200, 2)], ids=["one_path", "two_steps"])
    @pytest.mark.parametrize("consumer", ["adjoint_residual", "compute_mu", "update_control"])
    def test_every_consumer_validates_the_adjoint(self, consumer, paths, steps):
        p = get_benchmark("lq_drift").problem
        m, n = 200, 4
        noise = make_noise(TimeGrid(n_steps=n, horizon=p.horizon), m, 1, seed=3)
        states = simulate_forward(p, noise, constant_control(p, m, n))
        adjoint = AdjointEnsemble(
            y_values=np.ones((steps + 1, paths, 1)), z_values=np.ones((steps, paths, 1, 1))
        )
        calls = {
            "adjoint_residual": lambda: adjoint_residual(p, states, adjoint),
            "compute_mu": lambda: compute_mu(p, states, adjoint, states.control),
            "update_control": lambda: update_control(p, states, adjoint, 1.0),
        }
        with pytest.raises(ValueError, match="adjoint shapes"):
            calls[consumer]()


class TestComputeMu:
    def test_identical_controls_zero(self):
        p = quadratic_drift_problem()
        m, n = 6, 3
        ctrl = constant_control(p, m, n)
        states, adjoint = flat_artifacts(ctrl, m)
        assert compute_mu(p, states, adjoint, ctrl) == (0.0, 0.0)

    @given(seed=st.integers(0, 10_000), rho=st.sampled_from([0.0, 0.3, 1.0, 16.0]))
    @settings(max_examples=40, deadline=None)
    def test_nonpositive_after_update(self, seed, rho):
        p = quadratic_drift_problem()
        m, n = 40, 4
        rng = np.random.default_rng(seed)
        x, y, z = (
            rng.normal(size=s).swapaxes(0, 1) for s in ((m, n + 1, 1), (m, n + 1, 1), (m, n, 1, 1))
        )
        prev = ControlEnsemble(by_step=rng.integers(0, 3, size=(m, n)).T)
        states, adjoint = hand_built(prev, x, y, z)
        new = update_control(p, states, adjoint, rho=rho)
        mu, se = compute_mu(p, states, adjoint, new)
        if rho == 0.0:
            # pointwise argmin of H itself: nonpositive without slack
            assert mu <= 0.0
        else:
            assert mu <= max(3.0 * se, 1e-12)


class TestRunMsa:
    def test_control_free_problem_is_one_iteration_fixed_point(self):
        p = control_free_problem()
        cfg = MsaConfig(n_paths=200, n_steps=8)
        control, trace = run_msa(p, cfg)
        assert trace.status == "fixed_point"
        assert trace.n_rows == 1
        assert trace.mus == [0.0]
        assert trace.accepted == [True]
        # the centroid initial guess (action 0.0) is returned unchanged
        assert np.all(control.by_step == 1)

    def test_trace_is_reproducible(self, lq_bench):
        cfg = MsaConfig(n_paths=400, n_steps=10, max_iterations=3, tol_mu=1e-9)
        a_control, a = run_msa(lq_bench.problem, cfg)
        b_control, b = run_msa(lq_bench.problem, cfg)
        assert a.costs == b.costs
        assert a.mus == b.mus
        assert a.rhos == b.rhos
        assert np.array_equal(a_control.by_step, b_control.by_step)

    def test_descent_failure_raises_with_trace(self, stress_bench):
        cfg = MsaConfig(
            n_paths=500,
            n_steps=10,
            rho_initial=0.0,
            rho_max=0.0,
            max_iterations=5,
        )
        with pytest.raises(DescentFailureError) as exc:
            run_msa(stress_bench.problem, cfg)
        trace = exc.value.trace
        assert trace.status == "descent_failure"
        assert trace.accepted[-1] is False
        assert trace.n_rows >= 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MsaConfig(rho_initial=-1.0)
        with pytest.raises(ValueError):
            MsaConfig(rho_growth=1.0)
        with pytest.raises(ValueError):
            MsaConfig(tol_mu=0.0)
        with pytest.raises(ValueError):
            MsaConfig(control_mode="average")
        for name in ("rho_initial", "rho_growth", "rho_max", "tol_mu", "tol_dj"):
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError, match=name):
                    MsaConfig(**{name: bad})
        with pytest.raises(ValueError, match="ridge"):
            MsaConfig(basis=RegressionBasis(ridge=np.nan))

    def test_accepted_steps_descend_within_noise(self, lq_bench):
        cfg = MsaConfig(n_paths=2000, n_steps=20)
        _, trace = run_msa(lq_bench.problem, cfg)
        costs = [trace.initial_cost] + trace.costs
        ses = [trace.initial_cost_se] + trace.cost_ses
        for i in range(1, len(costs)):
            if trace.accepted[i - 1]:
                slack = 3.0 * (ses[i] + ses[i - 1])
                assert costs[i] <= costs[i - 1] + slack


class TestPontryaginCertificate:
    def test_update_certifies_its_own_argmin(self, rng):
        p = quadratic_drift_problem()
        m, n = 60, 5
        x, y, z = (
            rng.normal(size=s).swapaxes(0, 1) for s in ((m, n + 1, 1), (m, n + 1, 1), (m, n, 1, 1))
        )
        states, adjoint = hand_built(constant_control(p, m, n), x, y, z)
        new = update_control(p, states, adjoint, rho=0.0)
        gaps = pontryagin_gaps(p, states, adjoint, new, rho=0.0, n_samples=400)
        assert np.mean(gaps > 1e-3) == 0.0
        assert gaps.max() == 0.0
        assert gaps.shape == (400,)

    def test_fixed_point_control_has_zero_gap_at_positive_rho(self):
        p = control_free_problem()
        m, n = 40, 4
        ctrl = constant_control(p, m, n)
        states, adjoint = flat_artifacts(ctrl, m, x=1.0)
        fixed = update_control(p, states, adjoint, rho=2.0)
        assert np.array_equal(fixed.by_step, ctrl.by_step)
        gaps = pontryagin_gaps(p, states, adjoint, fixed, rho=2.0, n_samples=200)
        assert np.mean(gaps > 1e-3) == 0.0
        assert gaps.max() == 0.0
