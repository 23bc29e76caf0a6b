"""Coverage beyond d=1: two states, two noise sources, a 2-D action grid.

At d=1 a transposed index convention (drift_jac_x[..., j, i] against
[..., i, j]) cannot show; a non-symmetric b1 and a nonzero sigma1 make
it show in the derivative check, the control update and the adjoint.
"""

import math

import numpy as np

from msacontrol import (
    ActionSpace,
    MsaConfig,
    StructuredProblem,
    TimeGrid,
    check_derivatives,
    make_noise,
    simulate_forward,
    solve_adjoint_linear_y0,
    solve_adjoint_lsmc,
    update_control,
)
from msacontrol.sde import ControlEnsemble

from conftest import combined_se
from test_bsde import solve_setup
from test_msa import paired

B1 = np.array([[0.1, 0.4], [-0.3, 0.2]])
K = np.array([[1.0, 0.5], [0.0, 1.0]])
S0 = np.array([[0.3, 0.1], [0.0, 0.25]])
Q = np.array([[1.0, 0.2], [0.2, 0.5]])
G = np.array([[1.0, 0.0], [0.0, 2.0]])


def _sigma1():
    s = np.zeros((2, 2, 2))
    s[0, 0, 0] = 0.2
    s[0, 1, 1] = 0.15
    s[1, 0, 0] = -0.1
    s[1, 1, 1] = 0.1
    return s


def planar_problem():
    """b = B1 x + K a, sigma = sigma1 x + S0 + 0.1 a_0 I, f = x'Qx/2 + |a|^2/4, g = x'Gx/2."""
    s1 = _sigma1()
    grid = np.linspace(-1.0, 1.0, 5)
    return StructuredProblem(
        state_dim=2,
        noise_dim=2,
        horizon=1.0,
        initial_state=np.array([1.0, -0.5]),
        b1=lambda t: B1,
        b2=lambda t, a: np.einsum("ji,...i->...j", K, a),
        sigma1=lambda t: s1,
        sigma2=lambda t, a: S0 + 0.1 * a[..., 0, None, None] * np.eye(2),
        f1=lambda t, x: 0.5 * np.einsum("...i,ij,...j->...", x, Q, x),
        f1_grad_x=lambda t, x: np.einsum("ij,...j->...i", Q, x),
        f2=lambda t, a: 0.25 * np.sum(a * a, axis=-1),
        terminal=lambda x: 0.5 * np.einsum("...i,ij,...j->...", x, G, x),
        terminal_grad_x=lambda x: np.einsum("ij,...j->...i", G, x),
        action_space=ActionSpace(points=np.array([[u, v] for u in grid for v in grid])),
        name="planar",
    ).assemble()


def test_derivatives_match_finite_differences():
    planar = planar_problem()
    errors = check_derivatives(planar, n_samples=200, step=1e-5)
    assert max(errors.values()) <= 1e-6, errors


def test_separable_update_matches_generic():
    planar = planar_problem()
    generic = planar.replace(action_terms=None)
    n_act = planar.action_space.n_actions
    m, n = 1000, 6
    grid = TimeGrid(n_steps=n, horizon=planar.horizon)
    rng = np.random.default_rng(11)
    noise = make_noise(grid, m, planar.noise_dim, seed=11)
    rough = ControlEnsemble(by_step=rng.integers(0, n_act, size=(m, n)).T)
    states = simulate_forward(planar, noise, rough)
    adjoint = solve_adjoint_lsmc(states, MsaConfig().basis)
    steps = rng.integers(0, n_act, size=n)
    # the rough control, and the same values paired with one column: deterministic
    for prev in (rough, ControlEnsemble(by_step=steps[:, None])):
        for rho in (0.0, 1.0, 64.0):
            fast = update_control(paired(adjoint, planar, prev), rho)
            slow = update_control(paired(adjoint, generic, prev), rho)
            assert np.array_equal(fast.by_step, slow.by_step), (prev.by_step.shape, rho)


def test_linear_representation_matches_lsmc_per_component():
    planar = planar_problem()
    states = solve_setup(planar, m=4000, n=20, rng_actions=False)
    adj = solve_adjoint_lsmc(states, MsaConfig().basis)
    y0_lin, se_lin = solve_adjoint_linear_y0(states)
    y = adj.y_values[0]
    for i in range(planar.state_dim):
        se_lsmc = float(y[:, i].std(ddof=1) / math.sqrt(y.shape[0]))
        gap = abs(float(y[:, i].mean()) - float(y0_lin[i]))
        assert gap <= 3.0 * combined_se(se_lsmc, se_lin[i]) + 1e-9, (i, gap, se_lsmc, se_lin[i])
