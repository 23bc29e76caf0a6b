"""Command-line interface: run a solve, validate a problem, benchmark, rate-fit.

Configuration is a strict INI file with one section per module; unknown
sections or keys are rejected.  Every invocation ends with a single
machine-parseable STATUS line.  Exit codes: 0 success, 2 descent
failure, 1 usage or configuration errors and failed checks.
"""

from __future__ import annotations

import argparse
import configparser
import importlib
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .bsde import (
    RegressionBasis,
    adjoint_residual,
    solve_adjoint_linear_y0,
    solve_adjoint_lsmc,
)
from .diagnostics import export_csv, rate_fit, upward_jumps
from .msa import (
    DescentFailureError,
    IterationTrace,
    MsaConfig,
    constant_control,
    run_msa,
)
from .oracle import benchmark_names, brute_force_optimal, get_benchmark, riccati_lq
from .problem import ActionSpace, ControlProblem, check_derivatives
from .sde import TimeGrid, make_noise, simulate_forward

DEFAULT_SEED = 12345


class ConfigError(Exception):
    """Configuration file problem; message names the offending field."""


@dataclass
class RunConfig:
    problem: str = ""
    msa: MsaConfig = field(default_factory=MsaConfig)
    out_dir: str = "out"
    validate_samples: int = 200
    validate_step: float = 1e-5
    validate_tol: float = 1e-4
    rate_n_min: int = 1
    rate_n_max: int = 100
    rate_oracle: str = "riccati"
    rate_synthetic: str = "one_over_n"


_SCHEMA = {
    "problem": {"name", "module"},
    "msa": {
        "n_paths",
        "n_steps",
        "seed",
        "rho_initial",
        "rho_growth",
        "rho_max",
        "tol_mu",
        "tol_dj",
        "max_iterations",
        "control_mode",
        "classical",
    },
    "bsde": {"kind", "degree", "ridge"},
    "output": {"directory"},
    "validate": {"n_samples", "step", "tolerance"},
    "rate": {"n_min", "n_max", "oracle", "synthetic"},
}


def _get(parser, section, key, conv, current):
    if not parser.has_option(section, key):
        return current
    raw = parser.get(section, key)
    try:
        return conv(raw)
    except ValueError:
        raise ConfigError(f"invalid value for {section}.{key}: {raw!r}") from None


def _to_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def load_config(path: str) -> RunConfig:
    """Parse and validate an INI config; reject anything not in the schema."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key {section}.{key}")

    cfg = RunConfig()
    if parser.has_option("problem", "module"):
        module_name = parser.get("problem", "module")
        try:
            importlib.import_module(module_name)
        except ImportError as exc:
            raise ConfigError(f"cannot import problem.module {module_name!r}: {exc}")
    cfg.problem = _get(parser, "problem", "name", str, cfg.problem)

    msa = cfg.msa
    kwargs = dict(
        n_paths=_get(parser, "msa", "n_paths", int, msa.n_paths),
        n_steps=_get(parser, "msa", "n_steps", int, msa.n_steps),
        seed=_get(parser, "msa", "seed", int, msa.seed),
        rho_initial=_get(parser, "msa", "rho_initial", float, msa.rho_initial),
        rho_growth=_get(parser, "msa", "rho_growth", float, msa.rho_growth),
        rho_max=_get(parser, "msa", "rho_max", float, msa.rho_max),
        tol_mu=_get(parser, "msa", "tol_mu", float, msa.tol_mu),
        tol_dj=_get(parser, "msa", "tol_dj", float, msa.tol_dj),
        max_iterations=_get(parser, "msa", "max_iterations", int, msa.max_iterations),
        control_mode=_get(parser, "msa", "control_mode", str, msa.control_mode),
        classical=_get(parser, "msa", "classical", _to_bool, msa.classical),
    )
    kind = _get(parser, "bsde", "kind", str, "polynomial")
    degree = _get(parser, "bsde", "degree", int, 2)
    ridge_raw = parser.get("bsde", "ridge", fallback="").strip()
    ridge = None
    if ridge_raw:
        try:
            ridge = float(ridge_raw)
        except ValueError:
            raise ConfigError(f"invalid value for bsde.ridge: {ridge_raw!r}") from None
    try:
        basis = RegressionBasis(kind=kind, degree=degree, ridge=ridge)
        cfg.msa = MsaConfig(basis=basis, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    cfg.out_dir = _get(parser, "output", "directory", str, cfg.out_dir)
    cfg.validate_samples = _get(parser, "validate", "n_samples", int, cfg.validate_samples)
    cfg.validate_step = _get(parser, "validate", "step", float, cfg.validate_step)
    cfg.validate_tol = _get(parser, "validate", "tolerance", float, cfg.validate_tol)
    cfg.rate_n_min = _get(parser, "rate", "n_min", int, cfg.rate_n_min)
    cfg.rate_n_max = _get(parser, "rate", "n_max", int, cfg.rate_n_max)
    cfg.rate_oracle = _get(parser, "rate", "oracle", str, cfg.rate_oracle)
    cfg.rate_synthetic = _get(parser, "rate", "synthetic", str, cfg.rate_synthetic)
    if cfg.rate_oracle not in ("riccati", "brute_force", "synthetic"):
        raise ConfigError(f"rate.oracle must be riccati|brute_force|synthetic, got {cfg.rate_oracle!r}")
    if cfg.rate_synthetic not in ("one_over_n", "one_over_log"):
        raise ConfigError(f"rate.synthetic must be one_over_n|one_over_log, got {cfg.rate_synthetic!r}")
    if cfg.rate_n_min < 1 or cfg.rate_n_max < cfg.rate_n_min:
        raise ConfigError(f"bad rate window [{cfg.rate_n_min}, {cfg.rate_n_max}]")
    return cfg


def _apply_overrides(cfg: RunConfig, out: str | None, seed: int | None) -> RunConfig:
    if out is not None:
        cfg.out_dir = out
    if seed is not None:
        cfg.msa = replace(cfg.msa, seed=seed)
    return cfg


def _require_problem(cfg: RunConfig):
    if not cfg.problem:
        raise ConfigError("problem.name is required for this command")
    try:
        return get_benchmark(cfg.problem)
    except KeyError:
        raise ConfigError(
            f"unknown problem {cfg.problem!r}; known: {', '.join(benchmark_names())}"
        ) from None


def _status(command: str, code: int, **kv) -> None:
    parts = [f"STATUS command={command}", f"exit={code}"]
    parts += [f"{k}={v}" for k, v in kv.items()]
    print(" ".join(parts))


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _write_summary(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _trace_summary_lines(name: str, trace: IterationTrace) -> list[str]:
    rho_history = sorted(set(trace.rhos))
    final_se = trace.cost_ses[-1] if trace.cost_ses else trace.initial_cost_se
    return [
        f"problem: {name}",
        f"status: {trace.status}",
        f"iterations: {trace.n_rows}",
        f"initial_cost: {_fmt(trace.initial_cost)} +- {_fmt(trace.initial_cost_se)}",
        f"final_cost: {_fmt(trace.final_cost)} +- {_fmt(final_se)}",
        f"final_mu: {_fmt(trace.final_mu)}",
        f"total_backtracks: {sum(trace.backtracks)}",
        f"rho_history: {' '.join(_fmt(r) for r in rho_history)}",
    ]


def cmd_run(config_path: str, out: str | None = None, seed: int | None = None) -> int:
    """Solve the configured problem; write trace CSV and summary."""
    try:
        cfg = _apply_overrides(load_config(config_path), out, seed)
        bench = _require_problem(cfg)
    except ConfigError as exc:
        _status("run", 1, error=repr(str(exc)))
        return 1
    os.makedirs(cfg.out_dir, exist_ok=True)
    trace_path = os.path.join(cfg.out_dir, f"{bench.name}_trace.csv")
    summary_path = os.path.join(cfg.out_dir, f"{bench.name}_summary.txt")
    try:
        _, trace = run_msa(bench.problem, cfg.msa)
    except DescentFailureError as exc:
        trace = exc.trace
        export_csv(trace, trace_path, wall_clock=False)
        _write_summary(summary_path, _trace_summary_lines(bench.name, trace))
        _status(
            "run",
            2,
            problem=bench.name,
            status=trace.status,
            iterations=trace.n_rows,
            rho=_fmt(trace.rhos[-1]) if trace.rhos else "0",
        )
        return 2
    export_csv(trace, trace_path, wall_clock=False)
    _write_summary(summary_path, _trace_summary_lines(bench.name, trace))
    _status(
        "run",
        0,
        problem=bench.name,
        status=trace.status,
        iterations=trace.n_rows,
        J=_fmt(trace.final_cost),
        J_se=_fmt(trace.cost_ses[-1] if trace.cost_ses else trace.initial_cost_se),
        mu=_fmt(trace.final_mu),
        trace=trace_path,
    )
    return 0


def _driverless_problem() -> ControlProblem:
    """Zero-driver scalar case: b=0, sigma=1, f=0, g=x."""

    def drift(t, x, a):
        return np.zeros_like(x)

    def diffusion(t, x, a):
        return np.ones(x.shape[:-1] + (1, 1))

    def running_cost(t, x, a):
        return np.zeros(x.shape[:-1])

    def terminal_cost(x):
        return x[..., 0]

    def jac_zero(t, x, a):
        return np.zeros(x.shape[:-1] + (1, 1))

    def diff_jac_zero(t, x, a):
        return np.zeros(x.shape[:-1] + (1, 1, 1))

    def grad_zero(t, x, a):
        return np.zeros_like(x)

    def terminal_grad(x):
        return np.ones_like(x)

    return ControlProblem(
        state_dim=1,
        noise_dim=1,
        horizon=1.0,
        initial_state=np.array([0.0]),
        drift=drift,
        diffusion=diffusion,
        running_cost=running_cost,
        terminal_cost=terminal_cost,
        drift_jac_x=jac_zero,
        diffusion_jac_x=diff_jac_zero,
        running_cost_grad_x=grad_zero,
        terminal_cost_grad_x=terminal_grad,
        action_space=ActionSpace(points=np.array([0.0])),
        name="driverless",
    )


def cmd_validate(config_path: str, out: str | None = None, seed: int | None = None) -> int:
    """Derivative checks, zero-driver sanity, linear-representation cross-check."""
    try:
        cfg = _apply_overrides(load_config(config_path), out, seed)
        bench = _require_problem(cfg)
    except ConfigError as exc:
        _status("validate", 1, error=repr(str(exc)))
        return 1
    p = bench.problem
    checks: list[tuple[str, bool, str]] = []

    report = check_derivatives(p, n_samples=cfg.validate_samples, step=cfg.validate_step)
    for key, err in sorted(report.max_errors.items()):
        checks.append((f"derivative:{key}", err <= cfg.validate_tol, f"max_rel_err={err:.3e}"))

    dp = _driverless_problem()
    grid = TimeGrid(n_steps=cfg.msa.n_steps, horizon=dp.horizon)
    n_paths = min(cfg.msa.n_paths, 4000)
    noise = make_noise(grid, n_paths, dp.noise_dim, cfg.msa.seed)
    control = constant_control(dp, n_paths, grid.n_steps, mode=cfg.msa.control_mode)
    states = simulate_forward(dp, grid, noise, control)
    adjoint = solve_adjoint_lsmc(dp, grid, noise, states, control, cfg.msa.basis)
    y_dev = float(np.max(np.abs(adjoint.y_values - 1.0)))
    z_max = float(np.max(np.abs(adjoint.z_values)))
    resid = adjoint_residual(dp, grid, noise, states, control, adjoint)
    checks.append(("driverless:y_constant", y_dev <= 1e-5, f"max|Y-1|={y_dev:.3e}"))
    checks.append(("driverless:z_small", z_max <= 1e-2, f"max|Z|={z_max:.3e}"))
    checks.append(("driverless:residual", resid <= 1e-8, f"residual={resid:.3e}"))

    grid_p = TimeGrid(n_steps=cfg.msa.n_steps, horizon=p.horizon)
    noise_p = make_noise(grid_p, cfg.msa.n_paths, p.noise_dim, cfg.msa.seed)
    control_p = constant_control(p, cfg.msa.n_paths, grid_p.n_steps, mode=cfg.msa.control_mode)
    states_p = simulate_forward(p, grid_p, noise_p, control_p)
    adjoint_p = solve_adjoint_lsmc(p, grid_p, noise_p, states_p, control_p, cfg.msa.basis)
    y0_lsmc = adjoint_p.y_values[:, 0, :].mean(axis=0)
    y0_lin, y0_se = solve_adjoint_linear_y0(p, grid_p, noise_p, states_p, control_p)
    gap = np.abs(y0_lsmc - y0_lin)
    allow = 3.0 * y0_se + 1e-9
    checks.append(
        (
            "linear_representation:y0",
            bool(np.all(gap <= allow)),
            f"gap={np.max(gap):.3e} allow={np.min(allow):.3e}",
        )
    )

    lines = []
    for name, ok, detail in checks:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name} {detail}")
        print(lines[-1])
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_summary(os.path.join(cfg.out_dir, f"{bench.name}_validate.txt"), lines)
    all_ok = all(ok for _, ok, _ in checks)
    n_failed = sum(0 if ok else 1 for _, ok, _ in checks)
    _status("validate", 0 if all_ok else 1, problem=bench.name, checks=len(checks), failed=n_failed)
    return 0 if all_ok else 1


def cmd_bench(config_path: str, out: str | None = None, seed: int | None = None) -> int:
    """Run the benchmark suite plus the unpenalised stress demonstration."""
    try:
        cfg = _apply_overrides(load_config(config_path), out, seed)
    except ConfigError as exc:
        _status("bench", 1, error=repr(str(exc)))
        return 1
    os.makedirs(cfg.out_dir, exist_ok=True)
    lines: list[str] = []
    all_ok = True
    descent_failed = False
    from .oracle import benchmark_suite  # imported here to keep module load light

    for bench in benchmark_suite():
        p = bench.problem
        try:
            _, trace = run_msa(p, cfg.msa)
        except DescentFailureError as exc:
            trace = exc.trace
            descent_failed = True
            all_ok = False
            export_csv(trace, os.path.join(cfg.out_dir, f"{bench.name}_trace.csv"), wall_clock=False)
            lines.append(f"FAIL {bench.name} descent_failure after {trace.n_rows} rows")
            continue
        export_csv(trace, os.path.join(cfg.out_dir, f"{bench.name}_trace.csv"), wall_clock=False)
        ok = True
        details = [f"status={trace.status}", f"iters={trace.n_rows}", f"J={_fmt(trace.final_cost)}"]
        if upward_jumps(trace):
            ok = False
            details.append("non-monotone")
        if trace.status not in ("converged_mu", "converged_dj", "fixed_point"):
            ok = False
            details.append("did-not-converge")
        if bench.lq is not None:
            grid = TimeGrid(n_steps=cfg.msa.n_steps, horizon=p.horizon)
            ric = riccati_lq(bench.lq, grid)
            j_gap = abs(trace.final_cost - ric.optimal_value)
            se = trace.cost_ses[-1] if trace.cost_ses else trace.initial_cost_se
            band = max(0.02 * abs(ric.optimal_value), 3.0 * se + 0.05 * abs(ric.optimal_value))
            details.append(f"riccati_gap={_fmt(j_gap)} band={_fmt(band)}")
            if j_gap > band:
                ok = False
                details.append("outside-band")
        lines.append(f"{'PASS' if ok else 'FAIL'} {bench.name} {' '.join(details)}")
        all_ok = all_ok and ok

    stress = get_benchmark("msa_stress")
    classical_cfg = replace(
        cfg.msa,
        classical=True,
        rho_initial=0.0,
        max_iterations=min(20, cfg.msa.max_iterations),
        tol_mu=1e-12,
        tol_dj=1e-15,
    )
    _, demo = run_msa(stress.problem, classical_cfg)
    export_csv(demo, os.path.join(cfg.out_dir, "msa_stress_classical_trace.csv"), wall_clock=False)
    jumps = upward_jumps(demo)
    if not jumps:
        all_ok = False
        lines.append("FAIL msa_stress_classical no upward cost jump within the demo window")
    else:
        lines.append(f"PASS msa_stress_classical upward jump at iteration {jumps[0]}")

    for line in lines:
        print(line)
    _write_summary(os.path.join(cfg.out_dir, "bench_summary.txt"), lines)
    code = 0 if all_ok else (2 if descent_failed else 1)
    n_failed = sum(1 for line in lines if line.startswith("FAIL"))
    _status("bench", code, problems=len(lines), failed=n_failed, out=cfg.out_dir)
    return code


def _synthetic_trace(kind: str, n_min: int, n_max: int) -> IterationTrace:
    trace = IterationTrace(problem_name=f"synthetic_{kind}")
    for n in range(n_min, n_max + 1):
        gap = 1.0 / n if kind == "one_over_n" else 1.0 / np.log(n + 1.0)
        trace.add_row(n, gap, 0.0, 0.0, 0.0, 0.0, 0, True, 0.0)
    trace.status = "synthetic"
    return trace


def cmd_rate(config_path: str, out: str | None = None, seed: int | None = None) -> int:
    """Fit the optimality-gap decay against an oracle value."""
    try:
        cfg = _apply_overrides(load_config(config_path), out, seed)
        if cfg.rate_oracle == "synthetic":
            bench = None
            name = f"synthetic_{cfg.rate_synthetic}"
        else:
            bench = _require_problem(cfg)
            name = bench.name
    except ConfigError as exc:
        _status("rate", 1, error=repr(str(exc)))
        return 1
    os.makedirs(cfg.out_dir, exist_ok=True)

    if cfg.rate_oracle == "synthetic":
        trace = _synthetic_trace(cfg.rate_synthetic, cfg.rate_n_min, cfg.rate_n_max)
        j_star = 0.0
    else:
        p = bench.problem
        grid = TimeGrid(n_steps=cfg.msa.n_steps, horizon=p.horizon)
        if cfg.rate_oracle == "riccati":
            if bench.lq is None:
                _status("rate", 1, error=repr(f"problem {name} has no Riccati oracle"))
                return 1
            j_star = riccati_lq(bench.lq, grid).optimal_value
        else:
            total = p.action_space.n_actions ** grid.n_steps
            if total > 1_000_000:
                _status(
                    "rate",
                    1,
                    error=repr(
                        f"brute force needs |A|^N <= 1e6, got {total}; shrink n_steps or the action grid"
                    ),
                )
                return 1
            noise = make_noise(grid, cfg.msa.n_paths, p.noise_dim, cfg.msa.seed)
            j_star = brute_force_optimal(p, grid, noise).j_star
        try:
            _, trace = run_msa(p, cfg.msa)
        except DescentFailureError as exc:
            _status("rate", 2, problem=name, status=exc.trace.status)
            return 2

    accepted_n = [n for n, ok in zip(trace.iterations, trace.accepted) if ok]
    if not accepted_n or max(accepted_n) < cfg.rate_n_min:
        _status("rate", 0, problem=name, status="converged-before-rate-window", passed=True)
        return 0
    n_max = min(cfg.rate_n_max, max(accepted_n))
    report = rate_fit(trace, j_star, cfg.rate_n_min, n_max)
    export_csv(report, os.path.join(cfg.out_dir, f"{name}_rate.csv"))
    slope = "none" if report.slope is None else _fmt(report.slope)
    sup = "none" if report.sup_n_times_bn is None else _fmt(report.sup_n_times_bn)
    code = 0 if report.passed else 1
    _status(
        "rate",
        code,
        problem=name,
        status=report.status,
        passed=report.passed,
        slope=slope,
        sup_n_bn=sup,
        j_star=_fmt(j_star),
    )
    return code


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1 with a STATUS line, not argparse's default 2
    def error(self, message):
        _status("usage", 1, error=repr(message))
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="msactl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("run", cmd_run),
        ("validate", cmd_validate),
        ("bench", cmd_bench),
        ("rate", cmd_rate),
    ):
        sp = sub.add_parser(name, help=fn.__doc__)
        sp.add_argument("--config", required=True, help="path to the INI config file")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--workers", type=int, default=1, help="ignored; solves are single-threaded")
        sp.add_argument("--seed", type=int, default=None, help="seed override")
        sp.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args.config, out=args.out, seed=args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
