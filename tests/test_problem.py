"""Problem model, Hamiltonian evaluation, and derivative validation."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msacontrol import ActionSpace, ActionTerms, ControlProblem, get_benchmark
from msacontrol.oracle import LqSpec, benchmark_names, scalar_quadratic_problem
from msacontrol.problem import (
    ProblemDefinitionError,
    augmented_hamiltonian,
    check_derivatives,
    hamiltonian,
    hamiltonian_grad_x,
)

from conftest import fresh_interpreter_loads
from references import lq_hamiltonian_reference


def make_problem(
    b,
    sigma,
    f,
    g,
    b_jac,
    sigma_jac,
    f_grad,
    g_grad,
    actions,
    x0=0.0,
    horizon=1.0,
):
    """Scalar problem from plain (t, x, a) callables on batched arrays."""
    return ControlProblem(
        state_dim=1,
        noise_dim=1,
        horizon=horizon,
        initial_state=np.array([x0]),
        drift=lambda t, x, a: b(t, x[..., 0], a[..., 0])[..., None],
        diffusion=lambda t, x, a: sigma(t, x[..., 0], a[..., 0])[..., None, None],
        running_cost=lambda t, x, a: f(t, x[..., 0], a[..., 0]),
        terminal_cost=lambda x: g(x[..., 0]),
        drift_jac_x=lambda t, x, a: b_jac(t, x[..., 0], a[..., 0])[..., None, None],
        diffusion_jac_x=lambda t, x, a: sigma_jac(t, x[..., 0], a[..., 0])[
            ..., None, None, None
        ],
        running_cost_grad_x=lambda t, x, a: f_grad(t, x[..., 0], a[..., 0])[..., None],
        terminal_cost_grad_x=lambda x: g_grad(x[..., 0])[..., None],
        action_space=ActionSpace(points=np.asarray(actions)),
    )


def quadratic_drift_problem(actions=(-1.0, 0.0, 1.0)):
    """b = a, sigma = 1, f = a^2/2, g = 0."""
    z = lambda t, x, a: np.zeros_like(x)
    return make_problem(
        b=lambda t, x, a: a + 0.0 * x,
        sigma=lambda t, x, a: np.ones_like(x),
        f=lambda t, x, a: 0.5 * a * a + 0.0 * x,
        g=lambda x: np.zeros_like(x),
        b_jac=z,
        sigma_jac=z,
        f_grad=z,
        g_grad=lambda x: np.zeros_like(x),
        actions=actions,
    )


class TestActionSpace:
    def test_scalar_points_stored_as_column(self):
        sp = ActionSpace(points=np.array([-1.0, 0.0, 1.0]))
        assert sp.points.shape == (3, 1)
        assert sp.n_actions == 3
        assert sp.dim == 1

    def test_empty_rejected(self):
        with pytest.raises(ProblemDefinitionError):
            ActionSpace(points=np.zeros((0, 1)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ProblemDefinitionError):
            ActionSpace(points=np.array([0.0, np.nan]))

    def test_duplicate_rejected(self):
        with pytest.raises(ProblemDefinitionError):
            ActionSpace(points=np.array([1.0, 1.0]))

    @pytest.mark.parametrize(
        "points, distinct",
        [
            ([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]], False),  # repeated rows, not neighbours
            ([[0.0, 1.0], [0.0, 2.0], [1.0, 1.0]], True),  # rows that share one coordinate
            ([[0.0], [-0.0]], False),  # equal as numbers
        ],
        ids=["repeat_apart", "shared_column", "signed_zero"],
    )
    def test_distinct_rows(self, points, distinct):
        if distinct:
            assert ActionSpace(points=np.array(points)).n_actions == len(points)
        else:
            with pytest.raises(ProblemDefinitionError, match="distinct"):
                ActionSpace(points=np.array(points))

    @pytest.mark.parametrize(
        "module",
        [
            "numpy.ma",
            "msacontrol.bsde",
            "msacontrol.msa",
            "msacontrol.diagnostics",
            "msacontrol.cli",
            "csv",
        ],
    )
    def test_building_a_problem_loads_only_what_it_needs(self, module):
        # a problem module and the benchmark's set-up need no solver, no csv
        # (which diagnostics imports) and no numpy.ma (which np.unique(axis=0) imports)
        code = "import msacontrol\nmsacontrol.get_benchmark('lq_drift')"
        assert not fresh_interpreter_loads(code, module)

    def test_points_immutable(self):
        sp = ActionSpace(points=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            sp.points[0, 0] = 5.0

    def test_centroid_symmetric_grid(self):
        sp = ActionSpace(points=np.array([-1.0, 0.0, 1.0]))
        assert sp.centroid_index() == 1

    def test_centroid_tie_takes_lowest_index(self):
        sp = ActionSpace(points=np.array([0.0, 10.0]))
        assert sp.centroid_index() == 0

    def test_centroid_asymmetric(self):
        sp = ActionSpace(points=np.array([0.0, 1.0, 5.0]))
        # centroid 2.0 is closest to 1.0
        assert sp.centroid_index() == 1

    def test_centroid_vector_actions(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
        sp = ActionSpace(points=pts)
        # centroid (1, 1/3) is closest to (1, 1)
        assert sp.centroid_index() == 2


class TestProblemValidation:
    def test_bad_drift_shape_rejected(self):
        z = lambda t, x, a: np.zeros_like(x)
        with pytest.raises(ProblemDefinitionError):
            make_problem(
                b=lambda t, x, a: np.stack([x, x], axis=-1),  # (..., 2) not (...,)
                sigma=lambda t, x, a: np.ones_like(x),
                f=lambda t, x, a: 0.0 * x,
                g=lambda x: np.zeros_like(x),
                b_jac=z,
                sigma_jac=z,
                f_grad=z,
                g_grad=lambda x: np.zeros_like(x),
                actions=[0.0, 1.0],
            )

    def test_nonfinite_coefficient_rejected(self):
        z = lambda t, x, a: np.zeros_like(x)
        with pytest.raises(ProblemDefinitionError):
            make_problem(
                b=lambda t, x, a: np.full_like(x, np.inf),
                sigma=lambda t, x, a: np.ones_like(x),
                f=lambda t, x, a: 0.0 * x,
                g=lambda x: np.zeros_like(x),
                b_jac=z,
                sigma_jac=z,
                f_grad=z,
                g_grad=lambda x: np.zeros_like(x),
                actions=[0.0, 1.0],
            )

    def test_wrong_initial_state_shape(self):
        p = quadratic_drift_problem()
        with pytest.raises(ProblemDefinitionError):
            dataclasses.replace(p, initial_state=np.array([0.0, 1.0]))


class TestActionTerms:
    """Construction rejects action terms that disagree with the coefficients."""

    def test_registered_problems_carry_matching_terms(self):
        for name in benchmark_names():
            p = get_benchmark(name).problem
            assert p.action_terms is not None, name
            # wrappers that return the same values pass the check again
            coeffs = ("drift", "diffusion", "running_cost", "drift_jac_x",
                      "diffusion_jac_x", "running_cost_grad_x")
            p.replace(**{f: functools.partial(getattr(p, f)) for f in coeffs})

    @pytest.mark.parametrize("fname", ["drift", "diffusion", "running_cost"])
    def test_mismatched_coefficient_rejected(self, fname):
        spec = LqSpec(beta=0.2, control_gain=1.0, nu=0.3, sigma_gain=0.4, q=1.0, r=0.5, x0=0.5)
        p = scalar_quadratic_problem("separable", spec, 1.0, np.linspace(-1.0, 1.0, 5))
        fn = getattr(p, fname)
        # doubling a coefficient doubles its action-dependent part
        doubled = lambda t, x, a: 2.0 * fn(t, x, a)
        with pytest.raises(ProblemDefinitionError, match=fname):
            p.replace(**{fname: doubled})
        # without action terms the same callable is accepted
        p.replace(**{fname: doubled, "action_terms": None})

    def test_wrong_gain_drift_rejected(self, lq_bench):
        p = lq_bench.problem

        def drift(t, x, a):
            return p.drift(t, x, a) + 0.5 * p.action_terms.drift(t, a)

        with pytest.raises(ProblemDefinitionError, match="drift"):
            p.replace(drift=drift)

    def test_action_dependent_jacobian_rejected(self, lq_bench):
        p = lq_bench.problem

        def drift_jac_x(t, x, a):
            return p.drift_jac_x(t, x, a) + 0.1 * a[..., None]

        with pytest.raises(ProblemDefinitionError, match="drift_jac_x"):
            p.replace(drift_jac_x=drift_jac_x)

    def test_wrong_term_shape_rejected(self, lq_bench):
        p = lq_bench.problem
        terms = p.action_terms
        flat = ActionTerms(
            drift=lambda t, a: terms.drift(t, a)[..., 0],
            diffusion=terms.diffusion,
            running_cost=terms.running_cost,
        )
        with pytest.raises(ProblemDefinitionError, match="shape"):
            p.replace(action_terms=flat)

    def test_nonfinite_term_rejected(self, lq_bench):
        p = lq_bench.problem
        terms = p.action_terms
        bad = ActionTerms(
            drift=terms.drift,
            diffusion=terms.diffusion,
            running_cost=lambda t, a: np.full(a.shape[:-1], np.nan),
        )
        with pytest.raises(ProblemDefinitionError, match="running_cost"):
            p.replace(action_terms=bad)


class TestHamiltonian:
    def test_direct_value(self):
        # b = a, sigma = 1, f = a^2/2 at (y=2, z=3, a=1): 2 + 3 + 0.5
        p = quadratic_drift_problem()
        h = hamiltonian(
            p,
            0.0,
            np.array([0.0]),
            np.array([2.0]),
            np.array([[3.0]]),
            np.array([1.0]),
        )
        assert float(h) == 5.5

    def test_zero_coefficients(self):
        z = lambda t, x, a: np.zeros_like(x)
        p = make_problem(
            b=z,
            sigma=z,
            f=z,
            g=lambda x: np.zeros_like(x),
            b_jac=z,
            sigma_jac=z,
            f_grad=z,
            g_grad=lambda x: np.zeros_like(x),
            actions=[0.0, 1.0],
        )
        h = hamiltonian(
            p,
            0.3,
            np.array([1.7]),
            np.array([-2.0]),
            np.array([[4.0]]),
            np.array([1.0]),
        )
        assert float(h) == 0.0

    def test_batched_evaluation_matches_loop(self, rng):
        p = quadratic_drift_problem()
        x = rng.normal(size=(6, 1))
        y = rng.normal(size=(6, 1))
        z = rng.normal(size=(6, 1, 1))
        a = rng.choice([-1.0, 0.0, 1.0], size=(6, 1))
        batch = hamiltonian(p, 0.5, x, y, z, a)
        assert batch.shape == (6,)
        for i in range(6):
            single = hamiltonian(p, 0.5, x[i], y[i], z[i], a[i])
            assert float(single) == float(batch[i])

    def test_matches_independent_lq_evaluator_bitwise(self, lq_bench, rng):
        """Structured evaluation and the standalone quadratic formula agree
        to the last bit at random points."""
        p = lq_bench.problem
        spec = lq_bench.lq
        for _ in range(100):
            t = float(rng.uniform(0.0, p.horizon))
            x = rng.normal(scale=2.0, size=(1,))
            y = rng.normal(scale=2.0, size=(1,))
            z = rng.normal(scale=2.0, size=(1, 1))
            a = p.action_space.points[int(rng.integers(p.action_space.n_actions))]
            got = float(hamiltonian(p, t, x, y, z, a))
            want = float(
                lq_hamiltonian_reference(spec, t, float(x[0]), float(y[0]), float(z[0, 0]), float(a[0]))
            )
            assert got == want


class TestHamiltonianGradX:
    def test_x_free_coefficients_zero(self):
        p = quadratic_drift_problem()
        g = hamiltonian_grad_x(
            p,
            0.0,
            np.array([3.0]),
            np.array([2.0]),
            np.array([[5.0]]),
            np.array([1.0]),
        )
        assert g.shape == (1,)
        assert float(g[0]) == 0.0

    def test_bilinear_drift_value(self):
        # b = x a, sigma = 1, f = x^2 at (x=2, y=3, a=5): 5*3 + 0 + 4 = 19
        p = make_problem(
            b=lambda t, x, a: x * a,
            sigma=lambda t, x, a: np.ones_like(x),
            f=lambda t, x, a: x * x,
            g=lambda x: np.zeros_like(x),
            b_jac=lambda t, x, a: a + 0.0 * x,
            sigma_jac=lambda t, x, a: np.zeros_like(x),
            f_grad=lambda t, x, a: 2.0 * x,
            g_grad=lambda x: np.zeros_like(x),
            actions=[0.0, 5.0],
            x0=2.0,
        )
        g = hamiltonian_grad_x(
            p,
            0.0,
            np.array([2.0]),
            np.array([3.0]),
            np.array([[7.0]]),
            np.array([5.0]),
        )
        assert float(g[0]) == 19.0

    def test_matches_finite_differences_on_lq(self, lq_bench, rng):
        p = lq_bench.problem
        h = 1e-6
        for _ in range(20):
            t = float(rng.uniform(0.0, p.horizon))
            x = rng.normal(scale=2.0, size=(1,))
            y = rng.normal(scale=2.0, size=(1,))
            z = rng.normal(scale=2.0, size=(1, 1))
            a = p.action_space.points[int(rng.integers(p.action_space.n_actions))]
            grad = float(hamiltonian_grad_x(p, t, x, y, z, a)[0])
            hp = float(hamiltonian(p, t, x + h, y, z, a))
            hm = float(hamiltonian(p, t, x - h, y, z, a))
            fd = (hp - hm) / (2.0 * h)
            scale = max(1.0, abs(grad), abs(fd))
            assert abs(grad - fd) / scale <= 1e-6


class TestAugmentedHamiltonian:
    def test_direct_value(self):
        # b = a, sigma = 1, f = 0: H(a=2) = 2, penalty (3/2)*4 = 6
        z = lambda t, x, a: np.zeros_like(x)
        p = make_problem(
            b=lambda t, x, a: a + 0.0 * x,
            sigma=lambda t, x, a: np.ones_like(x),
            f=z,
            g=lambda x: np.zeros_like(x),
            b_jac=z,
            sigma_jac=z,
            f_grad=z,
            g_grad=lambda x: np.zeros_like(x),
            actions=[0.0, 2.0],
        )
        vals = augmented_hamiltonian(
            p,
            0.0,
            np.array([[0.0]]),
            np.array([[1.0]]),
            np.array([[[0.0]]]),
            np.array([0]),  # previous action 0.0
            3.0,
        )
        assert vals.shape == (2, 1)
        assert float(vals[1, 0]) == 8.0  # candidate action 2.0
        assert float(vals[0, 0]) == 0.0  # no move, no penalty

    def test_matches_per_action_loop(self, rng):
        # x-derivatives that move with the action, so all three penalty
        # terms are nonzero; the reference evaluates one action at a time
        p = make_problem(
            b=lambda t, x, a: a * x + a,
            sigma=lambda t, x, a: 1.0 + a * a * x,
            f=lambda t, x, a: a * x * x + a * a,
            g=lambda x: x * x,
            b_jac=lambda t, x, a: a + 0.0 * x,
            sigma_jac=lambda t, x, a: a * a + 0.0 * x,
            f_grad=lambda t, x, a: 2.0 * a * x,
            g_grad=lambda x: 2.0 * x,
            actions=[-1.0, 0.0, 0.5, 2.0],
        )
        n = 50
        x, y = rng.normal(size=(2, n, 1))
        z = rng.normal(size=(n, 1, 1))
        prev = rng.integers(0, 4, size=n)
        h, parts = [], []
        for point in p.action_space.points:
            a = np.broadcast_to(point, (n, 1))
            h.append(hamiltonian(p, 0.3, x, y, z, a))
            parts.append(
                np.concatenate(
                    [
                        p.drift(0.3, x, a),
                        p.diffusion(0.3, x, a)[..., 0],
                        hamiltonian_grad_x(p, 0.3, x, y, z, a),
                    ],
                    axis=1,
                )
            )
        h, parts = np.array(h), np.array(parts)
        pen = ((parts - parts[prev, np.arange(n)]) ** 2).sum(axis=2)
        assert np.array_equal(augmented_hamiltonian(p, 0.3, x, y, z, prev, 0.0), h)
        for rho in (0.5, 1e6):
            vals = augmented_hamiltonian(p, 0.3, x, y, z, prev, rho)
            np.testing.assert_allclose(vals, h + 0.5 * rho * pen, rtol=1e-12)

    def test_negative_rho_rejected(self):
        p = quadratic_drift_problem()
        args = (
            p,
            0.0,
            np.array([[0.0]]),
            np.array([[1.0]]),
            np.array([[[0.0]]]),
            np.array([0]),
        )
        for rho in (-0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="rho"):
                augmented_hamiltonian(*args, rho)

    @given(
        beta=st.floats(-2.0, 2.0),
        gain=st.floats(-2.0, 2.0),
        sig_gain=st.floats(-1.0, 1.0),
        q=st.floats(0.0, 3.0),
        r=st.floats(0.1, 3.0),
        rho=st.floats(0.0, 100.0),
        xv=st.floats(-3.0, 3.0),
        yv=st.floats(-3.0, 3.0),
        zv=st.floats(-3.0, 3.0),
        ia=st.integers(0, 4),
        ip=st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_penalty_properties(self, beta, gain, sig_gain, q, r, rho, xv, yv, zv, ia, ip):
        spec = LqSpec(beta=beta, control_gain=gain, nu=1.0, sigma_gain=sig_gain, q=q, r=r, x0=0.5)
        p = scalar_quadratic_problem("prop", spec, 1.0, np.linspace(-1.0, 1.0, 5))
        x = np.array([[xv]])
        y = np.array([[yv]])
        z = np.array([[[zv]]])
        h = float(hamiltonian(p, 0.3, x[0], y[0], z[0], p.action_space.points[ia]))

        def aug(prev_index, r):
            vals = augmented_hamiltonian(p, 0.3, x, y, z, np.array([prev_index]), r)
            return float(vals[ia, 0])

        # rho = 0 is the plain Hamiltonian, bit for bit
        assert aug(ip, 0.0) == h
        # a == prev collapses the penalty for any rho
        assert aug(ia, rho) == h
        # penalty is nonnegative
        assert aug(ip, rho) >= h


class TestCheckDerivatives:
    def test_linear_problem_near_exact(self):
        # central differences are exact for affine maps, up to rounding
        z = lambda t, x, a: np.zeros_like(x)
        p = make_problem(
            b=lambda t, x, a: 0.7 * x + a,
            sigma=lambda t, x, a: 1.0 + 0.0 * x,
            f=lambda t, x, a: 2.0 * x + a,
            g=lambda x: 3.0 * x,
            b_jac=lambda t, x, a: 0.7 + 0.0 * x,
            sigma_jac=z,
            f_grad=lambda t, x, a: 2.0 + 0.0 * x,
            g_grad=lambda x: 3.0 + 0.0 * x,
            actions=[-1.0, 1.0],
        )
        errors = check_derivatives(p)
        assert max(errors.values()) <= 1e-10, errors

    def test_lq_benchmark_tolerance(self, lq_bench):
        errors = check_derivatives(lq_bench.problem)
        assert max(errors.values()) <= 1e-6, errors

    def test_corrupted_derivative_flagged(self):
        z = lambda t, x, a: np.zeros_like(x)
        p = make_problem(
            b=lambda t, x, a: a + 0.0 * x,
            sigma=lambda t, x, a: np.ones_like(x),
            f=lambda t, x, a: x * x,
            g=lambda x: np.zeros_like(x),
            b_jac=z,
            sigma_jac=z,
            f_grad=lambda t, x, a: 4.0 * x,  # true gradient is 2x
            g_grad=lambda x: np.zeros_like(x),
            actions=[0.0, 1.0],
        )
        errors = check_derivatives(p)
        assert max(errors.values()) > 1e-6
        name = max(errors, key=errors.get)
        assert name == "running_cost_grad_x"
        assert errors[name] >= 0.3

    def test_non_finite_values_fail_the_audit(self):
        # a NaN must give a failing error, not drop out of the running max
        z = lambda t, x, a: np.zeros_like(x)
        base = dict(
            b=lambda t, x, a: a + 0.0 * x,
            sigma=lambda t, x, a: np.ones_like(x),
            f=lambda t, x, a: x * x,
            g=lambda x: np.zeros_like(x),
            b_jac=z,
            sigma_jac=z,
            f_grad=lambda t, x, a: 2.0 * x,
            g_grad=lambda x: np.zeros_like(x),
            actions=[0.0, 1.0],
        )
        nan_analytic = make_problem(**{**base, "f_grad": lambda t, x, a: np.where(x < 0, np.nan, 2.0 * x)})
        nan_difference = make_problem(**{**base, "f": lambda t, x, a: np.where(x < -4, np.nan, x * x)})
        for p in (nan_analytic, nan_difference):
            errors = check_derivatives(p)
            assert errors["running_cost_grad_x"] == np.inf
            assert errors["drift_jac_x"] <= 1e-10
