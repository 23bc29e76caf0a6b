"""Control updates, descent monitoring, the solver loop, certificates."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msacontrol import get_benchmark
from msacontrol.bsde import (
    AdjointEnsemble,
    adjoint_residual,
    solve_adjoint_linear_y0,
    solve_adjoint_lsmc,
)
from msacontrol.msa import (
    _TOL_DJ,
    _TOL_MU,
    MsaConfig,
    _keep_or_lowest,
    compute_mu,
    run_msa,
    update_control,
)
from msacontrol.oracle import LqSpec, benchmark_names, scalar_quadratic_problem
from msacontrol.problem import EvaluationError, augmented_hamiltonian
from msacontrol.sde import (
    ControlEnsemble,
    NoiseBank,
    StateEnsemble,
    TimeGrid,
    constant_control,
    cost_per_path,
    make_noise,
    mean_and_se,
    simulate_forward,
)

from references import keep_or_lowest_reference, pontryagin_gaps, term_values_reference
from test_problem import make_problem, quadratic_drift_problem


def hand_built(p, prev, x, y, z, horizon=1.0):
    """The adjoint (y, z) along states x of p under prev, on a zero noise bank."""
    m, n = x.shape[1], x.shape[0] - 1
    noise = NoiseBank(np.zeros((n, m, p.noise_dim)), TimeGrid(n_steps=n, horizon=horizon))
    return AdjointEnsemble(y, z, StateEnsemble(x, p, noise, prev))


def flat_artifacts(p, prev, m, y=2.0, z=7.0, x=0.0, horizon=1.0):
    """An adjoint with constant entries along constant states of p under prev."""
    n = prev.n_steps
    return hand_built(
        p,
        prev,
        np.full((n + 1, m, 1), float(x)),
        np.full((n + 1, m, 1), float(y)),
        np.full((n, m, 1, 1), float(z)),
        horizon,
    )


def paired(adjoint, problem, control):
    """The adjoint's values along its states' values, under another problem and control."""
    s = adjoint.states
    states = StateEnsemble(s.values, problem, s.noise, control)
    return AdjointEnsemble(adjoint.y_values, adjoint.z_values, states)


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

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    def test_keeps_the_callers_integer_dtype(self, dtype):
        assert ControlEnsemble(np.ones((3, 4), dtype=dtype)).by_step.dtype == dtype

    @pytest.mark.parametrize(
        "idx",
        [np.full((3, 4), -1, dtype=np.int8), np.full((3, 4), 3, dtype=np.uint8)],
        ids=["int8_minus_one", "uint8_index_3_of_3"],
    )
    def test_validate_rejects_compact_indices_out_of_range(self, idx):
        with pytest.raises(ValueError, match="out of range"):
            ControlEnsemble(idx).validate(4, 3, 3)

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
        """No kernel runs on a control that does not fit.

        simulate_forward and compute_mu check the control they are handed;
        every other kernel reads states, which cannot be built with one.
        """
        p = get_benchmark("lq_drift_small").problem
        noise = make_noise(TimeGrid(n_steps=4, horizon=p.horizon), 100, 1, seed=3)
        good = constant_control(p, 100, 4)
        adjoint = solve_adjoint_lsmc(simulate_forward(p, noise, good))
        bad = ControlEnsemble(by_step=idx)

        def mismatched(q=p):
            # the good values paired with the bad control: building them raises
            return paired(adjoint, q, bad)

        calls = {
            "simulate_forward": lambda: simulate_forward(p, noise, bad),
            "cost_per_path": lambda: cost_per_path(mismatched().states),
            "solve_adjoint_lsmc": lambda: solve_adjoint_lsmc(mismatched().states),
            "solve_adjoint_linear_y0": lambda: solve_adjoint_linear_y0(mismatched().states),
            "adjoint_residual": lambda: adjoint_residual(mismatched()),
            "compute_mu_new": lambda: compute_mu(adjoint, bad),
            "compute_mu_prev": lambda: compute_mu(mismatched(), good),
            "update_control": lambda: update_control(mismatched(), 1.0),
            "update_control_general": lambda: update_control(
                mismatched(p.replace(action_terms=None)), 1.0
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
            adjoint = solve_adjoint_lsmc(states)
            results.append(
                (
                    states.values,
                    cost_per_path(states),
                    adjoint.y_values,
                    adjoint.z_values,
                    *solve_adjoint_linear_y0(states),
                    adjoint_residual(adjoint),
                    compute_mu(adjoint, new),
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


class TestCompactIndices:
    """Every control the package builds stores its indices in the smallest unsigned dtype."""

    def test_suite_controls_take_one_byte_per_index(self, lq_bench):
        p = lq_bench.problem
        m, n = 400, 6
        assert p.action_space.n_actions == 21
        noise = make_noise(TimeGrid(n_steps=n, horizon=p.horizon), m, p.noise_dim, seed=3)
        start = constant_control(p, m, n)
        adjoint = solve_adjoint_lsmc(simulate_forward(p, noise, start))
        solved, _ = run_msa(p, MsaConfig(n_paths=m, n_steps=n))
        for ctrl in (start, update_control(adjoint, 1.0), solved):
            assert ctrl.by_step.dtype == np.uint8
            assert ctrl.by_step.nbytes == n * m

    def test_300_actions_take_two_bytes_and_solve(self, lq_bench):
        # the optimum near u = -0.5 lies above index 255 on this grid
        points = np.linspace(-10.0, 0.5, 300)
        p = scalar_quadratic_problem("lq_drift_300", lq_bench.lq, lq_bench.problem.horizon, points)
        assert p.action_space.index_dtype == np.uint16
        control, trace = run_msa(p, MsaConfig(n_paths=200, n_steps=5))
        assert control.by_step.dtype == np.uint16
        assert control.by_step.max() >= 256  # indices a uint8 could not hold
        assert trace.status in ("converged_mu", "converged_dj", "fixed_point")

    @pytest.mark.parametrize("general", [False, True], ids=["terms", "general"])
    def test_update_from_int64_prev_matches_uint8_prev(self, lq_bench, general):
        p = lq_bench.problem.replace(action_terms=None) if general else lq_bench.problem
        m, n = 300, 5
        noise = make_noise(TimeGrid(n_steps=n, horizon=p.horizon), m, p.noise_dim, seed=5)
        wide = np.random.default_rng(5).integers(0, p.action_space.n_actions, size=(n, m))
        news = []
        for idx in (wide, wide.astype(np.uint8)):
            states = simulate_forward(p, noise, ControlEnsemble(idx))
            news.append(update_control(solve_adjoint_lsmc(states), 1.0))
        assert [new.by_step.dtype for new in news] == [np.uint8, np.uint8]
        assert np.array_equal(news[0].by_step, news[1].by_step)


class TestUpdateControl:
    def test_three_action_argmin(self):
        # minimize 2a + a^2/2 over {-1, 0, 1}: the -1 branch wins
        p = quadratic_drift_problem()
        m, n = 4, 2
        adjoint = flat_artifacts(p, ControlEnsemble(np.full((n, m), 1)), m, y=2.0, z=7.0)
        new = update_control(adjoint, rho=0.0)
        assert np.all(new.by_step == 0)

    def test_action_free_coefficients_keep_prev(self):
        p = control_free_problem()
        m, n = 5, 3
        prev = ControlEnsemble(np.full((n, m), 2))
        adjoint = flat_artifacts(p, prev, m, x=1.0)
        new = update_control(adjoint, rho=0.0)
        assert np.array_equal(new.by_step, prev.by_step)

    def test_large_rho_keeps_prev(self):
        p = quadratic_drift_problem()
        m, n = 4, 2
        prev = ControlEnsemble(np.full((n, m), 2))
        adjoint = flat_artifacts(p, prev, m, y=2.0)
        new = update_control(adjoint, rho=1e12)
        assert np.array_equal(new.by_step, prev.by_step)

    def test_negative_rho_rejected(self):
        # nan and inf are no penalty weight either, on both update paths
        p = get_benchmark("lq_drift").problem
        m, n = 200, 4
        for mode in ("per_path", "deterministic"):
            for q in (p, p.replace(action_terms=None)):
                adjoint = flat_artifacts(q, constant_control(p, m, n, mode=mode), m)
                for rho in (-1.0, np.nan, np.inf):
                    with pytest.raises(ValueError, match="rho"):
                        update_control(adjoint, rho=rho)

    @pytest.mark.parametrize("mode", ["per_path", "deterministic"])
    def test_generic_update_holds_one_steps_table(self, lq_bench, mode):
        # tracemalloc's peak of the generic update is one step's table build
        # (augmented_hamiltonian, then the tie rule) plus the (N, M) candidate,
        # to within one float a path; every step's table kept alive adds N - 1
        p = lq_bench.problem.replace(action_terms=None)
        m, n, rho = 2000, 20, 1.0
        noise = make_noise(TimeGrid(n_steps=n, horizon=p.horizon), m, p.noise_dim, seed=3)
        prev = constant_control(p, m, n, mode=mode)
        if mode == "per_path":
            n_act = p.action_space.n_actions
            prev = ControlEnsemble(np.random.default_rng(3).integers(n_act, size=(n, m), dtype=np.uint8))
        adjoint = solve_adjoint_lsmc(simulate_forward(p, noise, prev))
        s, y, z = adjoint.states, adjoint.y_values, adjoint.z_values

        def one_step():
            vals = augmented_hamiltonian(p, 0.0, s.values[0], y[0], z[0], prev.indices(0, m), rho)
            return _keep_or_lowest(vals.mean(axis=1, keepdims=True) if prev.shared else vals, prev.by_step[0])

        def traced_peak(f):
            f()  # first-call allocations
            tracemalloc.start()
            try:
                f()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        step, update = traced_peak(one_step), traced_peak(lambda: update_control(adjoint, rho))
        assert update <= step + prev.by_step.nbytes + 8 * m, (update, step)

    def test_deterministic_mode_shares_action_per_step(self, rng):
        p = quadratic_drift_problem()
        m, n = 50, 4
        x, y, z = (
            rng.normal(size=s).swapaxes(0, 1) for s in ((m, n + 1, 1), (m, n + 1, 1), (m, n, 1, 1))
        )
        prev = constant_control(p, m, n, mode="deterministic")
        adjoint = hand_built(p, prev, x, y, z)
        new = update_control(adjoint, rho=0.5)
        assert new.by_step.shape == (n, 1)
        for k in range(n):
            a = new.actions(p.action_space.points, k, m)
            assert a.shape == (m, 1) and np.all(a == a[0])


@st.composite
def tie_tables(draw):
    """An (actions, columns) table rounded to one decimal, and a previous index per column."""
    n_act, dtype = draw(
        st.sampled_from([(1, np.uint8), (2, np.uint8), (3, np.uint8), (21, np.uint8),
                         (256, np.uint8), (300, np.uint16)])
    )
    m = draw(st.sampled_from([1, 2, 7, 40]))  # one column is a shared control's table
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0]))  # at 0.1 most columns tie at their minimum
    vals = np.round(rng.normal(scale=scale, size=(n_act, m)), 1)
    for special in draw(st.sets(st.sampled_from(["+0.0", "-0.0", "inf", "-inf"]))):
        vals[rng.random(vals.shape) < 0.2] = float(special)
    if draw(st.booleans()):
        col = rng.integers(m)
        vals[rng.random(n_act) < draw(st.sampled_from([0.1, 1.0])), col] = np.nan
    prev = rng.integers(n_act, size=m).astype(dtype)
    return vals, prev


class TestTieRule:
    """Row-wise passes keep the previous action on a tie, else take the lowest index."""

    @given(tie_tables())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_column_wise_rule(self, table):
        vals, prev = table
        new = _keep_or_lowest(vals, prev)
        assert np.array_equal(new, keep_or_lowest_reference(vals, prev))
        assert np.all(new[np.isnan(vals).any(axis=0)] == 0)  # a NaN column gets index 0

    @pytest.mark.parametrize("mode", ["per_path", "deterministic"])
    @pytest.mark.parametrize("rho, ys", [(0.0, (-1.0, -1.0)), (2.0, (2.0, 0.0))], ids=["rho0", "rho2"])
    def test_both_producers_break_ties_alike(self, mode, rho, ys):
        # H(a) = a y + a^2 at x = 0 on {-1, 0, 1, 2}, plus (rho/2)(a - a_prev)^2,
        # all in integers: at step 0 (prev index 3) indices 1 and 2 tie below
        # the previous action and 1 wins; at step 1 (prev index 2) index 1
        # ties with the previous action, which is kept
        p = scalar_quadratic_problem("ties", LqSpec(), 1.0, np.array([-1.0, 0.0, 1.0, 2.0]))
        m, n = 3, 2
        rows = m if mode == "per_path" else 1
        prev = ControlEnsemble(np.repeat(np.array([[3], [2]], dtype=np.uint8), rows, axis=1))
        x, z = np.zeros((n + 1, m, 1)), np.zeros((n, m, 1, 1))
        y = np.broadcast_to(np.array([*ys, 0.0])[:, None, None], x.shape)
        adjoint = hand_built(p, prev, x, y, z)
        for k in range(n):
            vals = augmented_hamiltonian(p, 0.0, x[k], y[k], z[k], prev.indices(k, m), rho)
            assert np.all(vals[1] == vals[2]) and np.all(vals[1] < vals[[0, 3]])
        for producer, q in (("terms", p), ("general", p.replace(action_terms=None))):
            new = update_control(paired(adjoint, q, prev), rho)
            assert new.by_step.tolist() == [[1] * rows, [2] * rows], producer


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
        adjoint = solve_adjoint_lsmc(states)
        steps = rng.integers(0, n_act, size=n)
        # the rough control, and the same values paired with one column: deterministic
        for prev in (rough, ControlEnsemble(by_step=steps[:, None])):
            for rho in (0.0, 0.5, 64.0, 1e12):
                fast = update_control(paired(adjoint, p, prev), rho)
                slow = update_control(paired(adjoint, generic, prev), rho)
                assert fast.by_step.shape == slow.by_step.shape == prev.by_step.shape
                assert np.array_equal(fast.by_step, slow.by_step), (prev.by_step.shape, rho)

    @pytest.mark.parametrize("name", [*benchmark_names(), "planar"])
    def test_expanded_table_picks_the_reference_actions(self, name):
        # the penalty expanded against the previous action chooses what the
        # (actions, actions) penalty table, gathered per action, chooses
        if name == "planar":
            from test_multidim import planar_problem  # test_multidim imports this module

            p = planar_problem()
        else:
            p = get_benchmark(name).problem
        n_act = p.action_space.n_actions
        m, n = 2000, 10
        rng = np.random.default_rng(29)
        noise = make_noise(TimeGrid(n_steps=n, horizon=p.horizon), m, p.noise_dim, seed=29)
        rough = ControlEnsemble(rng.integers(n_act, size=(n, m), dtype=np.uint8))
        adjoint = solve_adjoint_lsmc(simulate_forward(p, noise, rough))
        shared = ControlEnsemble(rng.integers(n_act, size=(n, 1), dtype=np.uint8))
        for prev in (rough, shared):
            a = paired(adjoint, p, prev)
            for rho in (0.25, 1.0, 2.0, 64.0, 65536.0, 1e12):
                new = update_control(a, rho).by_step
                for k in range(n):
                    ref = _keep_or_lowest(term_values_reference(a, rho, k), prev.by_step[k])
                    assert np.array_equal(new[k], ref), (prev.shared, rho, k)

    def test_rho_that_could_overflow_the_table_raises(self):
        # rho max |C_a|^2 = 3.7e309: the expanded table would hold inf and NaN
        p = get_benchmark("msa_stress").problem
        m, n = 2000, 10
        rng = np.random.default_rng(5)
        noise = make_noise(TimeGrid(n_steps=n, horizon=p.horizon), m, p.noise_dim, seed=5)
        prev = ControlEnsemble(rng.integers(p.action_space.n_actions, size=(n, m), dtype=np.uint8))
        adjoint = solve_adjoint_lsmc(simulate_forward(p, noise, prev))
        with pytest.raises(ValueError, match="rho"):
            update_control(adjoint, 1e308)

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
                adjoint = flat_artifacts(p, start, m, horizon=fast.horizon)
                with np.errstate(divide="ignore", invalid="ignore"):
                    with pytest.raises(EvaluationError, match="non-finite"):
                        update_control(adjoint, rho=1.0)


class TestAdjointShape:
    @pytest.mark.parametrize("paths, steps", [(1, 4), (200, 2)], ids=["one_path", "two_steps"])
    @pytest.mark.parametrize("consumer", ["adjoint_residual", "compute_mu", "update_control"])
    def test_every_consumer_validates_the_adjoint(self, consumer, paths, steps):
        """No kernel reads an adjoint that does not fit its states: none can be built."""
        p = get_benchmark("lq_drift").problem
        m, n = 200, 4
        noise = make_noise(TimeGrid(n_steps=n, horizon=p.horizon), m, 1, seed=3)
        states = simulate_forward(p, noise, constant_control(p, m, n))
        y, z = np.ones((steps + 1, paths, 1)), np.ones((steps, paths, 1, 1))
        calls = {
            "adjoint_residual": lambda: adjoint_residual(AdjointEnsemble(y, z, states)),
            "compute_mu": lambda: compute_mu(AdjointEnsemble(y, z, states), states.control),
            "update_control": lambda: update_control(AdjointEnsemble(y, z, states), 1.0),
        }
        with pytest.raises(ValueError, match="adjoint shapes"):
            calls[consumer]()


class TestComputeMu:
    def test_identical_controls_zero(self):
        p = quadratic_drift_problem()
        m, n = 6, 3
        ctrl = constant_control(p, m, n)
        adjoint = flat_artifacts(p, ctrl, m)
        assert compute_mu(adjoint, ctrl) == (0.0, 0.0)

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
        adjoint = hand_built(p, prev, x, y, z)
        new = update_control(adjoint, rho=rho)
        mu, se = compute_mu(adjoint, new)
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
        assert [(row.mu, row.accepted) for row in trace.rows] == [(0.0, True)]
        # the centroid initial guess (action 0.0) is returned unchanged
        assert np.all(control.by_step == 1)

    def test_trace_is_reproducible(self, lq_bench):
        cfg = MsaConfig(n_paths=400, n_steps=10, max_iterations=3)
        a_control, a = run_msa(lq_bench.problem, cfg)
        b_control, b = run_msa(lq_bench.problem, cfg)
        assert a.rows == b.rows
        assert np.array_equal(a_control.by_step, b_control.by_step)

    def test_descent_failure_returns_its_trace(self, stress_bench):
        cfg = MsaConfig(
            n_paths=500,
            n_steps=10,
            rho_initial=0.0,
            rho_max=0.0,
            max_iterations=5,
        )
        p = stress_bench.problem
        control, trace = run_msa(p, cfg)
        assert trace.status == "descent_failure"
        assert trace.rows[-1].accepted is False
        assert trace.n_rows >= 1
        assert {row.rho for row in trace.rows} == {0.0}  # no candidate is computed at another rho
        # the returned control is the last accepted one: it prices at the trace's final J
        j, _ = mean_and_se(cost_per_path(simulate_forward(p, cfg.bank(p), control)))
        assert j == trace.final[0]

    def test_general_update_with_action_dependent_grad_x(self):
        # b = a x makes grad_x H = a y + f_x depend on the action, so the
        # penalty's |delta grad_x H|^2 term is live in a whole solve
        p = make_problem(
            b=lambda t, x, a: a * x,
            sigma=lambda t, x, a: 0.3 + 0.0 * (x + a),
            f=lambda t, x, a: x * x + 0.1 * a * a,
            g=lambda x: x * x,
            b_jac=lambda t, x, a: a + 0.0 * x,
            sigma_jac=lambda t, x, a: 0.0 * (x + a),
            f_grad=lambda t, x, a: 2.0 * x + 0.0 * a,
            g_grad=lambda x: 2.0 * x,
            actions=np.linspace(-2.0, 1.0, 7),
            x0=1.0,
        )
        assert p.action_terms is None  # the update takes augmented_hamiltonian's path
        m, n = 2000, 20
        cfg = MsaConfig(n_paths=m, n_steps=n)
        control, trace = run_msa(p, cfg)
        js = [trace.initial_cost] + [row.J for row in trace.accepted_rows]
        assert len(js) > 1 and all(b < a for a, b in zip(js, js[1:])), js
        again_control, again = run_msa(p, cfg)
        assert again.rows == trace.rows
        assert np.array_equal(again_control.by_step, control.by_step)
        # along the initial iterate and the solved one, the update at every
        # step is the tie rule on the augmented Hamiltonian table
        for prev in (constant_control(p, m, n), control):
            adjoint = solve_adjoint_lsmc(simulate_forward(p, cfg.bank(p), prev))
            new, states = update_control(adjoint, 1.0), adjoint.states
            for k in range(n):
                x, y, z = states.values[k], adjoint.y_values[k], adjoint.z_values[k]
                idx = prev.indices(k, m)
                vals = augmented_hamiltonian(p, float(states.grid.nodes[k]), x, y, z, idx, 1.0)
                assert np.array_equal(new.by_step[k], keep_or_lowest_reference(vals, idx)), k

    def test_failure_row_reports_its_candidates_rho(self, stress_bench):
        # candidates at rho 0.25, then 0.5 on the replayed iterate; 1.0 is never tried
        cfg = MsaConfig(n_paths=500, n_steps=10, rho_initial=0.25, rho_max=0.5, max_iterations=5)
        _, trace = run_msa(stress_bench.problem, cfg)
        assert trace.status == "descent_failure"
        assert [(row.rho, row.backtracks) for row in trace.rows] == [(0.5, 2)]

    def test_classical_demo_stays_far_from_the_stopping_tolerances(self, stress_classical_run):
        # msactl bench's demonstration runs on the solver's tolerances: were
        # they raised towards its |mu| or |dJ|, it would stop before its cap
        _, demo = stress_classical_run
        assert demo.status == "max_iterations"
        assert [row.n for row in demo.rows] == list(range(1, 21))
        costs = [demo.initial_cost] + [row.J for row in demo.rows]
        for row, j_prev in zip(demo.rows, costs):
            assert abs(row.mu) > 1000 * _TOL_MU, row
            assert abs(row.J - j_prev) > 1000 * _TOL_DJ, row

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MsaConfig(rho_initial=-1.0)
        with pytest.raises(ValueError):
            MsaConfig(control_mode="average")
        for name in ("rho_initial", "rho_max"):
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError, match=name):
                    MsaConfig(**{name: bad})
        # a penalised solve only grows rho, so it may not start above the cap
        with pytest.raises(ValueError, match=r"rho_initial 4\.0 exceeds rho_max 2\.0"):
            MsaConfig(rho_initial=4.0, rho_max=2.0)
        MsaConfig(rho_initial=2.0, rho_max=2.0)
        MsaConfig(rho_initial=4.0, rho_max=2.0, classical=True)  # rho never grows

    def test_accepted_steps_descend_exactly(self, lq_bench):
        cfg = MsaConfig(n_paths=2000, n_steps=20)
        _, trace = run_msa(lq_bench.problem, cfg)
        js = [trace.initial_cost] + [row.J for row in trace.accepted_rows]
        assert all(b <= a for a, b in zip(js, js[1:])), js

    @pytest.mark.parametrize(
        "name, m, n, mode, budget",
        [
            ("lq_drift", 20_000, 20, "per_path", 5.95),
            ("lq_drift_small", 20_000, 20, "per_path", 5.4),
            ("msa_stress", 10_000, 50, "deterministic", 4.8),
        ],
        ids=["lq_drift", "lq_drift_small", "msa_stress"],
    )
    def test_peak_memory_in_float_arrays(self, name, m, n, mode, budget):
        # tracemalloc's peak, in (N, M) float arrays, is the bank, one
        # iterate's states, its adjoint's y and z, and one step's table or
        # regression: 5.84, 5.08 and 4.36 here.  Pricing a candidate while
        # the states it would replace are alive gave 6.63, 5.80 and 6.24;
        # the tie rule's argmax and gather on lq_drift's table gave 6.02.
        p = get_benchmark(name).problem
        run_msa(p, MsaConfig(n_paths=100, n_steps=2, control_mode=mode))  # first-call imports
        tracemalloc.start()
        try:
            _, trace = run_msa(p, MsaConfig(n_paths=m, n_steps=n, control_mode=mode))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if name == "msa_stress":
            assert sum(trace.backtracks) >= 1  # a rejected candidate's iterate was replayed
        assert peak <= budget * n * m * 8, f"peak {peak / (n * m * 8):.2f} arrays"

    def test_accepted_costs_never_rise(self, stress_bench, suite_runs):
        # at M=2000, N=20 an acceptance rule that lets J rise within noise
        # alternates between two controls on msa_stress until max_iterations
        _, small = run_msa(stress_bench.problem, MsaConfig(n_paths=2000, n_steps=20))
        assert small.status != "max_iterations"
        for trace in [small] + [trace for _, trace in suite_runs.values()]:
            js = [trace.initial_cost] + [row.J for row in trace.accepted_rows]
            # exact: both controls are priced on one bank; a fixed_point row repeats J
            assert all(b <= a for a, b in zip(js, js[1:])), js


class TestPontryaginCertificate:
    def test_update_certifies_its_own_argmin(self, rng):
        p = quadratic_drift_problem()
        m, n = 60, 5
        x, y, z = (
            rng.normal(size=s).swapaxes(0, 1) for s in ((m, n + 1, 1), (m, n + 1, 1), (m, n, 1, 1))
        )
        adjoint = hand_built(p, constant_control(p, m, n), x, y, z)
        new = update_control(adjoint, rho=0.0)
        gaps = pontryagin_gaps(adjoint, new, rho=0.0, n_samples=400)
        assert np.mean(gaps > 1e-3) == 0.0
        assert gaps.max() == 0.0
        assert gaps.shape == (400,)

    def test_fixed_point_control_has_zero_gap_at_positive_rho(self):
        p = control_free_problem()
        m, n = 40, 4
        ctrl = constant_control(p, m, n)
        adjoint = flat_artifacts(p, ctrl, m, x=1.0)
        fixed = update_control(adjoint, rho=2.0)
        assert np.array_equal(fixed.by_step, ctrl.by_step)
        gaps = pontryagin_gaps(adjoint, fixed, rho=2.0, n_samples=200)
        assert np.mean(gaps > 1e-3) == 0.0
        assert gaps.max() == 0.0
