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
from msacontrol.msa import ControlEnsemble
from msacontrol.oracle import LqSpec, scalar_quadratic_problem
from msacontrol.sde import StateEnsemble

from references import pontryagin_gaps
from test_problem import quadratic_drift_problem


def flat_artifacts(m, n, y=2.0, z=7.0, x=0.0):
    """State and adjoint ensembles with constant entries."""
    states = StateEnsemble(values=np.full((m, n + 1, 1), float(x)))
    adjoint = AdjointEnsemble(
        y_values=np.full((m, n + 1, 1), float(y)),
        z_values=np.full((m, n, 1, 1), float(z)),
    )
    return states, adjoint


def control_free_problem():
    """Costs and dynamics that ignore the action entirely."""
    spec = LqSpec(beta=0.3, control_gain=0.0, nu=0.5, q=1.0, r=0.0, q_t=0.5, x0=1.0)
    return scalar_quadratic_problem("control_free", spec, 1.0, np.array([-1.0, 0.0, 1.0]))


class TestControlEnsemble:
    def test_validation(self):
        with pytest.raises(ValueError):
            ControlEnsemble(action_indices=np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError):
            ControlEnsemble(action_indices=np.zeros((2, 2)))  # floats
        with pytest.raises(ValueError, match="mode"):
            constant_control(quadratic_drift_problem(), 2, 2, mode="x")

    def test_constant_control_defaults_to_centroid(self):
        p = quadratic_drift_problem()
        ctrl = constant_control(p, 3, 4)
        assert np.all(ctrl.action_indices == 1)  # action 0.0 of {-1, 0, 1}


class TestOneRowControl:
    """A deterministic control is one row that every path follows."""

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
            prev = ControlEnsemble(action_indices=np.broadcast_to(prev_row, (rows, n)))
            new = ControlEnsemble(action_indices=np.broadcast_to(new_row, (rows, n)))
            assert prev.action_indices.shape == (rows, n)
            states = simulate_forward(p, grid, noise, prev)
            adjoint = solve_adjoint_lsmc(p, grid, noise, states, prev, RegressionBasis())
            results.append(
                (
                    states.values,
                    cost_per_path(p, grid, states, prev),
                    adjoint.y_values,
                    adjoint.z_values,
                    *solve_adjoint_linear_y0(p, grid, noise, states, prev),
                    adjoint_residual(p, grid, noise, states, prev, adjoint),
                    compute_mu(p, grid, states, adjoint, new, prev),
                )
            )
        one, full = results
        for a, b in zip(one, full):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_rows_must_be_one_or_m(self):
        p = quadratic_drift_problem()
        grid = TimeGrid(n_steps=3, horizon=1.0)
        noise = make_noise(grid, 5, 1, seed=1)
        for idx in (np.ones((2, 3), dtype=np.int64), np.ones((1, 4), dtype=np.int64)):
            with pytest.raises(ValueError, match="does not match"):
                simulate_forward(p, grid, noise, ControlEnsemble(action_indices=idx))

    def test_deterministic_run_returns_one_row(self):
        p = get_benchmark("lq_drift_small").problem
        cfg = MsaConfig(n_paths=500, n_steps=5, control_mode="deterministic")
        control, trace = run_msa(p, cfg)
        assert control.action_indices.shape == (1, 5)
        assert trace.n_rows >= 1


class TestUpdateControl:
    def test_three_action_argmin(self):
        # minimize 2a + a^2/2 over {-1, 0, 1}: the -1 branch wins
        p = quadratic_drift_problem()
        m, n = 4, 2
        grid = TimeGrid(n_steps=n, horizon=1.0)
        states, adjoint = flat_artifacts(m, n, y=2.0, z=7.0)
        prev = ControlEnsemble(np.full((m, n), 1))
        new = update_control(p, grid, states, adjoint, prev, rho=0.0)
        assert np.all(new.action_indices == 0)

    def test_action_free_coefficients_keep_prev(self):
        p = control_free_problem()
        m, n = 5, 3
        grid = TimeGrid(n_steps=n, horizon=1.0)
        states, adjoint = flat_artifacts(m, n, x=1.0)
        prev = ControlEnsemble(np.full((m, n), 2))
        new = update_control(p, grid, states, adjoint, prev, rho=0.0)
        assert np.array_equal(new.action_indices, prev.action_indices)

    def test_large_rho_keeps_prev(self):
        p = quadratic_drift_problem()
        m, n = 4, 2
        grid = TimeGrid(n_steps=n, horizon=1.0)
        states, adjoint = flat_artifacts(m, n, y=2.0)
        prev = ControlEnsemble(np.full((m, n), 2))
        new = update_control(p, grid, states, adjoint, prev, rho=1e12)
        assert np.array_equal(new.action_indices, prev.action_indices)

    def test_negative_rho_rejected(self):
        p = quadratic_drift_problem()
        grid = TimeGrid(n_steps=2, horizon=1.0)
        states, adjoint = flat_artifacts(3, 2)
        prev = constant_control(p, 3, 2)
        with pytest.raises(ValueError):
            update_control(p, grid, states, adjoint, prev, rho=-1.0)

    def test_deterministic_mode_shares_action_per_step(self, rng):
        p = quadratic_drift_problem()
        m, n = 50, 4
        grid = TimeGrid(n_steps=n, horizon=1.0)
        states = StateEnsemble(values=rng.normal(size=(m, n + 1, 1)))
        adjoint = AdjointEnsemble(
            y_values=rng.normal(size=(m, n + 1, 1)),
            z_values=rng.normal(size=(m, n, 1, 1)),
        )
        prev = constant_control(p, m, n, mode="deterministic")
        new = update_control(p, grid, states, adjoint, prev, rho=0.5)
        assert new.action_indices.shape == (1, n)
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
        rough = ControlEnsemble(action_indices=rng.integers(0, n_act, size=(m, n)))
        states = simulate_forward(p, grid, noise, rough)
        adjoint = solve_adjoint_lsmc(
            p, grid, noise, states, rough, MsaConfig().basis
        )
        steps = rng.integers(0, n_act, size=n)
        prevs = (
            rough,
            ControlEnsemble(action_indices=steps[None, :]),  # one row: deterministic
        )
        for prev in prevs:
            for rho in (0.0, 0.5, 64.0, 1e12):
                fast = update_control(p, grid, states, adjoint, prev, rho)
                slow = update_control(generic, grid, states, adjoint, prev, rho)
                shape = prev.action_indices.shape
                assert fast.action_indices.shape == slow.action_indices.shape == shape
                assert np.array_equal(fast.action_indices, slow.action_indices), (shape, rho)

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
        grid = TimeGrid(n_steps=n, horizon=fast.horizon)
        states, adjoint = flat_artifacts(m, n)
        for p in (fast, fast.replace(action_terms=None)):
            for mode in ("per_path", "deterministic"):
                start = constant_control(fast, m, n, mode=mode)
                with np.errstate(divide="ignore", invalid="ignore"):
                    with pytest.raises(EvaluationError, match="non-finite"):
                        update_control(p, grid, states, adjoint, start, rho=1.0)


class TestComputeMu:
    def test_identical_controls_zero(self):
        p = quadratic_drift_problem()
        m, n = 6, 3
        grid = TimeGrid(n_steps=n, horizon=1.0)
        states, adjoint = flat_artifacts(m, n)
        ctrl = constant_control(p, m, n)
        assert compute_mu(p, grid, states, adjoint, ctrl, ctrl) == (0.0, 0.0)

    @given(seed=st.integers(0, 10_000), rho=st.sampled_from([0.0, 0.3, 1.0, 16.0]))
    @settings(max_examples=40, deadline=None)
    def test_nonpositive_after_update(self, seed, rho):
        p = quadratic_drift_problem()
        m, n = 40, 4
        grid = TimeGrid(n_steps=n, horizon=1.0)
        rng = np.random.default_rng(seed)
        states = StateEnsemble(values=rng.normal(size=(m, n + 1, 1)))
        adjoint = AdjointEnsemble(
            y_values=rng.normal(size=(m, n + 1, 1)),
            z_values=rng.normal(size=(m, n, 1, 1)),
        )
        prev = ControlEnsemble(action_indices=rng.integers(0, 3, size=(m, n)))
        new = update_control(p, grid, states, adjoint, prev, rho=rho)
        mu, se = compute_mu(p, grid, states, adjoint, new, prev)
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
        assert np.all(control.action_indices == 1)

    def test_trace_is_reproducible(self, lq_bench):
        cfg = MsaConfig(n_paths=400, n_steps=10, max_iterations=3, tol_mu=1e-9)
        a_control, a = run_msa(lq_bench.problem, cfg)
        b_control, b = run_msa(lq_bench.problem, cfg)
        assert a.costs == b.costs
        assert a.mus == b.mus
        assert a.rhos == b.rhos
        assert np.array_equal(a_control.action_indices, b_control.action_indices)

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
        grid = TimeGrid(n_steps=n, horizon=1.0)
        states = StateEnsemble(values=rng.normal(size=(m, n + 1, 1)))
        adjoint = AdjointEnsemble(
            y_values=rng.normal(size=(m, n + 1, 1)),
            z_values=rng.normal(size=(m, n, 1, 1)),
        )
        prev = constant_control(p, m, n)
        new = update_control(p, grid, states, adjoint, prev, rho=0.0)
        gaps = pontryagin_gaps(p, grid, states, adjoint, new, rho=0.0, n_samples=400)
        assert np.mean(gaps > 1e-3) == 0.0
        assert gaps.max() == 0.0
        assert gaps.shape == (400,)

    def test_fixed_point_control_has_zero_gap_at_positive_rho(self):
        p = control_free_problem()
        m, n = 40, 4
        grid = TimeGrid(n_steps=n, horizon=1.0)
        states, adjoint = flat_artifacts(m, n, x=1.0)
        ctrl = constant_control(p, m, n)
        fixed = update_control(p, grid, states, adjoint, ctrl, rho=2.0)
        assert np.array_equal(fixed.action_indices, ctrl.action_indices)
        gaps = pontryagin_gaps(p, grid, states, adjoint, fixed, rho=2.0, n_samples=200)
        assert np.mean(gaps > 1e-3) == 0.0
        assert gaps.max() == 0.0
