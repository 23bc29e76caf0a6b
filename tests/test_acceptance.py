"""End-to-end acceptance checks at full desk scale.

One test per claim: monotone descent, mu convergence, agreement with the
Riccati and brute-force oracles, the decay-rate fit, the classical-mode
failure demonstration, adjoint correctness, the optimality certificate,
the recursive sequence bound, and byte-level determinism.  Each test
prints a single summary line.
"""

import math

import numpy as np

from msacontrol import (
    IterationTrace,
    MsaConfig,
    RegressionBasis,
    adjoint_residual,
    driverless_problem,
    rate_fit,
    simulate_forward,
    solve_adjoint_linear_y0,
    solve_adjoint_lsmc,
    upward_jumps,
)
from msacontrol.cli import main
from msacontrol.msa import TraceRow

from conftest import combined_se
from references import check_recursive_bound, pontryagin_gaps
from test_bsde import solve_setup

TOL_MU = 1e-3


def emit(tag, ok, detail):
    line = f"criterion {tag} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def monotone_violations(trace):
    """Accepted steps whose cost is above the previous accepted cost.

    Exact, with no noise allowance: a candidate and the control it
    replaces are priced on one bank, and a non-classical run accepts a
    candidate only if it lowers that in-sample cost.
    """
    js = [trace.initial_cost] + [row.J for row in trace.accepted_rows]
    return sum(b > a for a, b in zip(js, js[1:]))


def test_criterion_01_monotone_descent_across_suite(suite_runs):
    bad = {name: monotone_violations(tr) for name, (_, tr) in suite_runs.items()}
    emit("01", all(v == 0 for v in bad.values()), f"accepted-step violations {bad}")


def test_criterion_02_mu_nonpositive_and_converges(suite_runs):
    ok = True
    details = []
    for name, (_, tr) in suite_runs.items():
        worst = max(row.mu - 3.0 * row.mu_se for row in tr.rows)
        ok = ok and worst <= 0.0
        details.append(f"{name} max(mu-3se)={worst:.2e}")
    for name in ("lq_drift", "ctrl_diffusion"):
        _, tr = suite_runs[name]
        hits = [row.n for row in tr.accepted_rows if abs(row.mu) < TOL_MU and row.n <= 100]
        ok = ok and bool(hits)
        details.append(f"{name} |mu|<{TOL_MU:g} at n={hits[0] if hits else 'never'}")
    emit("02", ok, "; ".join(details))


def test_criterion_03_lq_cost_in_riccati_band(lq_bench, lq_run, lq_run_n200):
    j_star = lq_bench.continuous_optimum
    ok = lq_bench.problem.action_space.n_actions == 21
    details = [f"j*={j_star:.6f}"]
    for label, (_, tr), dt_frac in (
        ("N=50", lq_run, 0.05),
        ("N=200", lq_run_n200, 0.025),
    ):
        j_fin, se_fin, _ = tr.final
        band = max(0.02 * abs(j_star), 3.0 * se_fin + dt_frac * abs(j_star))
        gap = abs(j_fin - j_star)
        ok = ok and gap <= band
        details.append(f"{label} gap={gap:.4f} band={band:.4f}")
    emit("03", ok, "; ".join(details))


def test_criterion_04_small_instances_reach_brute_force_optimum(small_results):
    ok = True
    details = []
    for name, (_, trace, bf) in small_results.items():
        j_fin, se_fin, _ = trace.final
        slack = 3.0 * combined_se(se_fin, bf.standard_error)
        ok = ok and j_fin <= bf.j_star + slack
        details.append(f"{name} J={j_fin:.5f} vs j*={bf.j_star:.5f}+{slack:.5f}")
    emit("04", ok, "; ".join(details))


def test_criterion_05_rate_fit_passes_and_log_control_fails(lq_bench, lq_run):
    _, tr = lq_run
    last = max(row.n for row in tr.accepted_rows)
    rep = rate_fit(tr, lq_bench.continuous_optimum, 1, min(last, 100))
    rows = [TraceRow(n, 1.0 / math.log(n + 1.0), 0.0, 0.0, 0.0, 0.0, 0, True) for n in range(1, 101)]
    synthetic = IterationTrace(rows, initial_cost=2.0, initial_cost_se=0.0)
    bad = rate_fit(synthetic, 0.0, 10, 100)
    emit(
        "05",
        rep.passed and not bad.passed,
        f"lq {rep.status}; synthetic log decay {bad.status} slope={bad.slope:.3f}",
    )


def test_criterion_06_classical_jumps_modified_descends(stress_classical_run, stress_run):
    _, demo = stress_classical_run
    jump = next(iter(upward_jumps(demo)), None)
    _, tr = stress_run
    violations = monotone_violations(tr)
    ok = jump is not None and jump <= 20 and violations == 0
    emit("06", ok, f"classical upward jump at n={jump}; modified violations={violations}")


def test_criterion_07a_driverless_adjoint_is_constant(lq_bench):
    p = driverless_problem(2.5)
    states = solve_setup(p, m=10_000, n=50, rng_actions=False)
    adjoint = solve_adjoint_lsmc(states, RegressionBasis())
    y_dev = float(np.max(np.abs(adjoint.y_values - 2.5)))
    z_max = float(np.max(np.abs(adjoint.z_values)))
    emit(
        "07a",
        y_dev <= 1e-5 and z_max <= 1e-2,
        f"max|Y-c|={y_dev:.2e} (<=1e-5), max|Z|={z_max:.2e} (<=1e-2)",
    )


def test_criterion_07b_linear_representation_matches_lsmc(suite_benches):
    ok = True
    details = []
    for bench in suite_benches:
        p = bench.problem
        states = solve_setup(p, m=10_000, n=50, rng_actions=False)
        adjoint = solve_adjoint_lsmc(states, RegressionBasis())
        y0_lin, se_lin = solve_adjoint_linear_y0(states)
        y = adjoint.y_values[0, :, 0]
        se_lsmc = float(y.std(ddof=1) / math.sqrt(y.shape[0]))
        gap = abs(float(y.mean()) - float(y0_lin[0]))
        allow = 3.0 * combined_se(se_lsmc, float(se_lin[0])) + 1e-9
        ok = ok and gap <= allow
        details.append(f"{bench.name} gap={gap:.2e} allow={allow:.2e}")
    emit("07b", ok, "; ".join(details))


def test_criterion_07c_residual_stable_under_step_doubling(lq_bench):
    p = lq_bench.problem
    residuals = {}
    for n in (50, 100):
        states = solve_setup(p, m=10_000, n=n, rng_actions=False)
        adjoint = solve_adjoint_lsmc(states, RegressionBasis())
        residuals[n] = adjoint_residual(adjoint)
    emit(
        "07c",
        residuals[100] <= 1.10 * residuals[50],
        f"residual N=50 {residuals[50]:.3e} -> N=100 {residuals[100]:.3e}",
    )


def test_criterion_08_pontryagin_certificate_after_convergence(lq_bench, lq_run):
    control, trace = lq_run
    cfg = MsaConfig()
    p = lq_bench.problem
    states = simulate_forward(p, cfg.bank(p), control)
    adjoint = solve_adjoint_lsmc(states, cfg.basis)
    rho = trace.rows[-1].rho
    gaps = pontryagin_gaps(adjoint, control, rho=rho, n_samples=10_000)
    violation_fraction = float(np.mean(gaps > TOL_MU))
    emit(
        "08",
        violation_fraction <= 0.01,
        f"violation fraction {violation_fraction:.4f} (<=0.01) "
        f"worst gap {gaps.max():.2e} at rho={rho:g}",
    )


def test_criterion_09_recursive_bound_property_suite():
    rng = np.random.default_rng(20260817)
    failures = 0
    for _ in range(1000):
        q = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        b = [float(rng.uniform(0.0, 0.999)) / q]
        for _ in range(int(rng.integers(1, 60))):
            threshold = b[-1] - q * b[-1] * b[-1]
            if threshold < 0.0:
                break
            b.append(max(0.0, threshold - float(rng.uniform(0.0, 0.05))))
        if not check_recursive_bound(np.array(b), q).ok:
            failures += 1
    emit("09", failures == 0, f"{failures} failures in 1000 generated sequences")


def test_criterion_10_cli_runs_are_byte_identical(tmp_path, capsys):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text("[problem]\nname = lq_drift\n", encoding="utf-8")
    for out, extra in (("r1", []), ("r2", []), ("r3", ["--workers", "4"])):
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / out)] + extra)
        assert code == 0
    capsys.readouterr()
    traces = [(tmp_path / d / "lq_drift_trace.csv").read_bytes() for d in ("r1", "r2", "r3")]
    summaries = [
        (tmp_path / d / "lq_drift_summary.txt").read_bytes() for d in ("r1", "r2", "r3")
    ]
    ok = traces[0] == traces[1] == traces[2] and summaries[0] == summaries[1] == summaries[2]
    emit("10", ok, f"three runs, {len(traces[0])} trace bytes, identical={ok}")
