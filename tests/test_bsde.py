"""Adjoint backward solve, linear-representation oracle, residual."""

import math

import numpy as np
import pytest

from msacontrol.bsde import (
    _TIE_BAND,
    AdjointEnsemble,
    RegressionError,
    _square,
    adjoint_residual,
    basis_size,
    features,
    solve_adjoint_linear_y0,
    solve_adjoint_lsmc,
)
from msacontrol.oracle import driverless_problem, scalar_quadratic_problem
from msacontrol.sde import (
    ControlEnsemble,
    NoiseBank,
    StateEnsemble,
    TimeGrid,
    constant_control,
    make_noise,
    simulate_forward,
)

from references import lq_adjoint_y0
from test_problem import make_problem


def solve_setup(p, m, n, seed=17, mode="per_path", rng_actions=True):
    """States under random or constant actions; they carry their bank and control."""
    grid = TimeGrid(n_steps=n, horizon=p.horizon)
    noise = make_noise(grid, m, p.noise_dim, seed=seed)
    if rng_actions:
        rng = np.random.default_rng(seed + 1)
        idx = rng.integers(0, p.action_space.n_actions, size=(m, n))
        ctrl = ControlEnsemble(by_step=idx.T)
    else:
        ctrl = constant_control(p, m, n, mode=mode)
    return simulate_forward(p, noise, ctrl)


# the degree-2 basis's exponent rows for d = 4, in column order: 1, u_j,
# then u_i u_j for i <= j in increasing (i, j)
DEGREE_2_EXPONENTS = np.array(
    [
        [0, 0, 0, 0],
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
        [2, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1],
        [0, 2, 0, 0], [0, 1, 1, 0], [0, 1, 0, 1],
        [0, 0, 2, 0], [0, 0, 1, 1],
        [0, 0, 0, 2],
    ]
)


def degree_2_exponents(d):
    """The rows for d <= 4 coordinates: those that leave the later ones out, in the same order."""
    return DEGREE_2_EXPONENTS[~DEGREE_2_EXPONENTS[:, d:].any(axis=1), :d]


class TestRegressionBasis:
    def test_function_count(self):
        assert [basis_size(d) for d in (1, 2, 3, 4)] == [3, 6, 10, 15]
        assert [len(degree_2_exponents(d)) for d in (1, 2, 3, 4)] == [3, 6, 10, 15]

    def test_features_shape_and_constant_column(self, rng):
        x = rng.normal(size=(40, 2))
        phi = features(x)
        assert phi.shape == (40, 6)
        assert np.all(phi[:, 0] == 1.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_features_equal_their_definition(self, rng, d):
        # the solver passes xs[k], a contiguous step slab of the state array
        xs = np.ascontiguousarray((1.0 + 3.0 * rng.normal(size=(100_000, 4, d))).swapaxes(0, 1))
        xs[3, :, d - 1] = 2.5  # a zero-variance coordinate
        exps = degree_2_exponents(d)
        for x in (xs[1], xs[2, :7], xs[3]):
            mu = x.mean(axis=0)
            sd = x.std(axis=0)
            u = (x - mu) / np.where(sd > 0, sd, 1.0)
            ref = np.prod(u[:, None, :] ** exps[None, :, :], axis=2)
            phi = features(x)
            assert phi.shape == ref.shape
            assert np.array_equal(phi.view(np.uint64), ref.view(np.uint64))

    def test_overdetermination_guard(self, lq_bench):
        # d = 1 has 3 functions, more than M/10 = 2
        p = lq_bench.problem
        states = solve_setup(p, m=20, n=4)
        with pytest.raises(RegressionError, match=r"3 functions for 20 paths"):
            solve_adjoint_lsmc(states)


def same_bits_as_pow(u):
    ref = np.power(u, np.full(len(u), 2.0))
    return np.array_equal(_square(u).view(np.uint64), ref.view(np.uint64))


def ulps_from_nearest(v):
    """(v ** 2 - RN(v ** 2)) / ulp, from exact integer arithmetic."""
    p, q = abs(v).as_integer_ratio()
    num, den = p**2, q**2
    h = num / den  # int true division rounds correctly
    hp, hq = h.as_integer_ratio()
    up, uq = math.ulp(h).as_integer_ratio()
    return (num * hq - hp * den) * uq / (den * hq * up)


class TestSquare:
    """_square is numpy's array pow to the bit, warnings included."""

    def test_normal_draws_at_every_scale(self, rng):
        for scale in np.logspace(-3, 3, 7):
            u = scale * rng.normal(size=150_000)
            assert same_bits_as_pow(u)

    def test_special_values(self):
        tiny = np.finfo(float).tiny
        u = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, tiny / 3,
             -tiny / 3, tiny, -tiny, 2.0**-100, -(2.0**-100), 2.0**-101, -(2.0**-101),
             2.0**100, -(2.0**100), 2.0**101, -(2.0**101), 1.0, -1.0, -2.0, -0.5]
        )
        # raises no warning (it would be an error) where pow raises none
        assert same_bits_as_pow(u)
        big = np.array([1e300, -1e300, -1e200, 3.0, -3.0])
        with np.errstate(over="ignore"):
            assert same_bits_as_pow(big)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _square(big)

    def test_draws_near_a_midpoint_or_the_tie_band(self, rng):
        u = rng.normal(size=100_000)
        off = np.abs([ulps_from_nearest(v) for v in u.tolist()])
        for centre in (0.5, _TIE_BAND):
            near = u[np.abs(off - centre) < 0.01]
            assert len(near) > 500
            assert same_bits_as_pow(near)


def test_few_sign_bit_lanes_reach_pow(rng, monkeypatch):
    # numpy's pow is ~30x slower on a sign-bit lane: only the lanes near a
    # rounding midpoint (about a tenth of the negative ones) may reach it
    x = rng.normal(size=(10_000, 1))
    u = (x - x.mean()) / x.std()
    power, lanes = np.power, []

    def counting_power(base, exponent, *args, **kwargs):
        lanes.append(np.count_nonzero(np.asarray(base) < 0))
        return power(base, exponent, *args, **kwargs)

    monkeypatch.setattr(np, "power", counting_power)
    features(x)
    assert lanes
    assert sum(lanes) <= 0.15 * np.count_nonzero(u < 0)


class TestAdjointEnsembleType:
    def test_shape_validation(self, lq_bench):
        states = solve_setup(lq_bench.problem, m=4, n=3)
        with pytest.raises(ValueError, match="adjoint shapes"):
            AdjointEnsemble(np.zeros((3, 4)), np.zeros((3, 3, 1, 1)), states)

    @pytest.mark.parametrize(
        "y_shape, z_shape",
        [
            ((4, 5, 1), (3, 4, 1, 1)),
            ((3, 4, 1), (3, 4, 1, 1)),
            ((4, 4, 2), (3, 4, 1, 1)),
            ((4, 4, 1), (3, 5, 1, 1)),
            ((4, 4, 1), (4, 4, 1, 1)),
            ((4, 4, 1), (3, 4, 2, 1)),
            ((4, 4, 1), (3, 4, 1, 2)),
        ],
        ids=["y_paths", "y_steps", "y_dim", "z_paths", "z_steps", "z_dim", "z_noise_dim"],
    )
    def test_constructor_checks_both_shapes_against_the_states(self, lq_bench, y_shape, z_shape):
        # the states have N = 3, M = 4 and d = d' = 1
        states = solve_setup(lq_bench.problem, m=4, n=3)
        AdjointEnsemble(np.zeros((4, 4, 1)), np.zeros((3, 4, 1, 1)), states)
        with pytest.raises(ValueError, match=r"adjoint shapes .* \(N\+1, M, d\) = \(4, 4, 1\)"):
            AdjointEnsemble(np.zeros(y_shape), np.zeros(z_shape), states)

    def test_immutable(self, lq_bench):
        states = solve_setup(lq_bench.problem, m=2, n=2)
        adj = AdjointEnsemble(np.zeros((3, 2, 1)), np.zeros((2, 2, 1, 1)), states)
        with pytest.raises(ValueError):
            adj.y_values[0, 0, 0] = 1.0


class TestStepMajorLayout:
    def test_every_step_is_one_contiguous_slab(self, lq_bench):
        p = lq_bench.problem
        m, n = 300, 5
        states = solve_setup(p, m=m, n=n)
        adj = solve_adjoint_lsmc(states)
        inc = states.noise.increments
        assert inc.shape == (n, m, p.noise_dim)
        assert states.values.shape == adj.y_values.shape == (n + 1, m, p.state_dim)
        assert adj.z_values.shape == (n, m, p.state_dim, p.noise_dim)
        for k in range(n + 1):
            assert states.values[k].flags.c_contiguous
            assert adj.y_values[k].flags.c_contiguous
        for k in range(n):
            assert inc[k].flags.c_contiguous
            assert adj.z_values[k].flags.c_contiguous

    def test_path_major_shapes_rejected(self, lq_bench):
        p = lq_bench.problem
        m, n = 7, 4
        grid = TimeGrid(n_steps=n, horizon=p.horizon)
        with pytest.raises(ValueError, match=r"\(N, M, noise_dim\)"):
            NoiseBank(np.zeros((m, n, 1)), grid)
        noise = NoiseBank(np.zeros((n, m, 1)), grid)
        with pytest.raises(ValueError, match=r"\(N \+ 1, M, d\)"):
            StateEnsemble(np.zeros((m, n + 1, 1)), p, noise, constant_control(p, m, n))
        states = StateEnsemble(np.zeros((n + 1, m, 1)), p, noise, constant_control(p, m, n))
        with pytest.raises(ValueError, match=r"\(N\+1, M, d\)"):
            AdjointEnsemble(np.zeros((m, n + 1, 1)), np.zeros((m, n, 1, 1)), states)


class TestSolveAdjointLsmc:
    def test_terminal_slice_exact(self, lq_bench):
        p = lq_bench.problem
        states = solve_setup(p, m=400, n=10)
        adj = solve_adjoint_lsmc(states)
        want = np.asarray(p.terminal_cost_grad_x(states.values[-1]))
        assert np.array_equal(adj.y_values[-1], want)

    def test_driverless_constant_y_small_z(self):
        c = 2.5
        p = driverless_problem(c)
        states = solve_setup(p, m=10_000, n=50)
        adj = solve_adjoint_lsmc(states)
        assert np.max(np.abs(adj.y_values - c)) <= 1e-5
        assert np.max(np.abs(adj.z_values)) <= 1e-2
        res = adjoint_residual(adj)
        assert res <= 1e-8

    def test_deterministic(self, lq_bench):
        p = lq_bench.problem
        states = solve_setup(p, m=500, n=10)
        a = solve_adjoint_lsmc(states)
        b = solve_adjoint_lsmc(states)
        assert np.array_equal(a.y_values, b.y_values)
        assert np.array_equal(a.z_values, b.z_values)

    def test_linear_feedback_y0_matches_ode_oracle(self, lq_bench):
        """Simulate under a quantised linear feedback and compare Y_0 with
        the deterministic adjoint ODE value."""
        lq = lq_bench.lq
        gain = -1.0
        m, n = 10_000, 50
        grid = TimeGrid(n_steps=n, horizon=1.0)
        pts = np.linspace(-3.0, 3.0, 601)
        p = scalar_quadratic_problem("lq_feedback", lq, 1.0, pts)
        noise = make_noise(grid, m, 1, seed=29)
        dt = grid.dt
        h = pts[1] - pts[0]
        idx = np.zeros((n, m), dtype=int)
        values = np.empty((n + 1, m, 1))
        x = np.full(m, lq.x0)
        values[0, :, 0] = x
        for k in range(n):
            a = np.clip(gain * x, pts[0], pts[-1])
            idx[k] = np.rint((a - pts[0]) / h).astype(int)
            a_used = pts[idx[k]]
            x = x + (0.2 * x + a_used) * dt + 0.2 * noise.increments[k, :, 0]
            values[k + 1, :, 0] = x
        ctrl = ControlEnsemble(by_step=idx)
        states = StateEnsemble(values, p, noise, ctrl)
        adj = solve_adjoint_lsmc(states)
        y0_mean = float(adj.y_values[0, :, 0].mean())
        y0_se = float(adj.y_values[0, :, 0].std(ddof=1) / math.sqrt(m))
        oracle = lq_adjoint_y0(lq, horizon=1.0, action=0.0, feedback=gain)
        assert abs(y0_mean - oracle) <= 3.0 * y0_se + 0.02 * abs(oracle)


class TestLinearRepresentation:
    def test_identity_fundamental_solution_exact(self):
        c = 2.5
        p = driverless_problem(c)
        states = solve_setup(p, m=500, n=10)
        y0, se = solve_adjoint_linear_y0(states)
        assert y0.shape == (1,) and se.shape == (1,)
        assert float(y0[0]) == c
        assert float(se[0]) == 0.0

    def test_constant_coefficient_growth_and_ode_value(self, lq_bench):
        # b = beta x + a: S_T is the plain product (1 + beta dt)^N on every
        # path, so with grad f = 0 and grad g = 1, Y_0 = mean S_T exactly.
        beta = 0.2
        z = lambda t, x, a: np.zeros_like(x)
        growth = make_problem(
            b=lambda t, x, a: beta * x + a,
            sigma=lambda t, x, a: 0.2 + 0.0 * x,
            f=z,
            g=lambda x: x,
            b_jac=lambda t, x, a: beta + 0.0 * x,
            sigma_jac=z,
            f_grad=z,
            g_grad=np.ones_like,
            actions=[-1.0, 0.0, 1.0],
            x0=1.0,
        )
        m, n = 4000, 50
        states = solve_setup(growth, m, n)
        y0, se = solve_adjoint_linear_y0(states)
        want = (1.0 + beta * states.grid.dt) ** n
        assert np.allclose(y0, want, rtol=1e-13, atol=0.0)
        assert float(se[0]) <= 1e-13 * want

        # y0 follows the linear ODE on the benchmark itself
        lq = lq_bench.lq
        p = lq_bench.problem
        states = solve_setup(p, m, n, rng_actions=False)
        y0, se = solve_adjoint_linear_y0(states)
        centroid = p.action_space.points[p.action_space.centroid_index()][0]
        oracle = lq_adjoint_y0(lq, horizon=1.0, action=float(centroid))
        # left-endpoint quadrature bias is first order in dt, hence the
        # half-percent band beyond the Monte-Carlo noise
        assert abs(float(y0[0]) - oracle) <= 3.0 * float(se[0]) + 0.005 * abs(oracle)

    def test_agrees_with_lsmc_on_benchmarks(self, suite_benches):
        for bench in suite_benches:
            p = bench.problem
            states = solve_setup(p, m=4000, n=50, rng_actions=False)
            adj = solve_adjoint_lsmc(states)
            y0_lin, se_lin = solve_adjoint_linear_y0(states)
            y = adj.y_values[0, :, 0]
            y0_lsmc = float(y.mean())
            se_lsmc = float(y.std(ddof=1) / math.sqrt(y.shape[0]))
            gap = abs(y0_lsmc - float(y0_lin[0]))
            assert gap <= 3.0 * (se_lsmc + float(se_lin[0])) + 1e-9, bench.name


class TestAdjointResidual:
    def test_lq_baseline(self, lq_bench):
        p = lq_bench.problem
        states = solve_setup(p, m=10_000, n=50, rng_actions=False)
        adj = solve_adjoint_lsmc(states)
        res = adjoint_residual(adj)
        # recorded healthy-solver level for this scale
        assert res <= 1e-5

    def test_residual_does_not_grow_under_refinement(self, lq_bench):
        p = lq_bench.problem
        res = {}
        for n in (50, 100):
            states = solve_setup(p, m=10_000, n=n, rng_actions=False)
            adj = solve_adjoint_lsmc(states)
            res[n] = adjoint_residual(adj)
        assert res[100] <= 1.10 * res[50]
