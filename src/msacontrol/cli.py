"""Command-line interface: run a solve, validate a problem, benchmark, rate-fit.

Configuration is a strict INI file with one section per module; unknown
sections or keys are rejected.  Every invocation ends with a single
machine-parseable STATUS line.  Exit codes: 0 success, 2 descent
failure (a solve's trace status), 1 usage errors, failed checks and any
exception from a step or a user problem.
"""

from __future__ import annotations

import argparse
import configparser
import importlib
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .bsde import RegressionBasis, adjoint_residual, solve_adjoint_linear_y0, solve_adjoint_lsmc
from .diagnostics import export_csv, rate_fit, upward_jumps
from .msa import IterationTrace, MsaConfig, run_msa
from .oracle import (
    benchmark_names,
    benchmark_suite,
    brute_force_optimal,
    driverless_problem,
    get_benchmark,
)
from .problem import ControlProblem, ProblemDefinitionError, check_derivatives
from .sde import constant_control, simulate_forward


class ConfigError(Exception):
    """Configuration file problem; message names the offending field."""


@dataclass
class RunConfig:
    """A loaded config: field <section>_<key> holds INI key section.key,
    except [msa] and [bsde], which build the solver's MsaConfig."""

    msa: MsaConfig = field(default_factory=MsaConfig)
    problem_name: str = ""
    problem_module: str = ""
    output_directory: str = "out"
    validate_n_samples: int = 200
    validate_step: float = 1e-5
    validate_tolerance: float = 1e-4
    rate_n_min: int = 1
    rate_n_max: int = 100
    rate_oracle: str = "riccati"


def _to_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _import_module(name: str) -> str:
    # imported for its side effect: the module registers its problems
    try:
        importlib.import_module(name)
    except Exception as exc:  # whatever the module raises, the config named it
        kind = type(exc).__name__
        raise ConfigError(f"cannot import problem.module {name!r}: {kind}: {exc}") from None
    return name


# section -> key -> converter of the raw value.  [msa] keys are MsaConfig
# arguments and [bsde] keys RegressionBasis arguments.
_SCHEMA = {
    "problem": {"name": str, "module": _import_module},
    "msa": {
        "n_paths": int,
        "n_steps": int,
        "seed": int,
        "rho_initial": float,
        "rho_max": float,
        "tol_mu": float,
        "tol_dj": float,
        "max_iterations": int,
        "control_mode": str,
        "classical": _to_bool,
    },
    "bsde": {"degree": int},
    "output": {"directory": str},
    "validate": {"n_samples": int, "step": float, "tolerance": float},
    "rate": {"n_min": int, "n_max": int, "oracle": str},
}


def load_config(path: str) -> RunConfig:
    """Parse and validate an INI config; reject anything not in the schema."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    values = {section: {} for section in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            try:
                values[section][key] = _SCHEMA[section][key](raw)
            except ValueError:
                raise ConfigError(f"invalid value for {section}.{key}: {raw!r}") from None

    try:
        msa = MsaConfig(basis=RegressionBasis(**values.pop("bsde")), **values.pop("msa"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    cfg = RunConfig(msa=msa, **{f"{s}_{k}": v for s, keys in values.items() for k, v in keys.items()})
    if cfg.rate_oracle not in ("riccati", "brute_force"):
        raise ConfigError(f"rate.oracle must be riccati|brute_force, got {cfg.rate_oracle!r}")
    if cfg.rate_n_min < 1 or cfg.rate_n_max < cfg.rate_n_min:
        raise ConfigError(f"bad rate window [{cfg.rate_n_min}, {cfg.rate_n_max}]")
    if cfg.validate_n_samples < 1:
        raise ConfigError(f"validate.n_samples must be >= 1, got {cfg.validate_n_samples}")
    if not 0 < cfg.validate_step < np.inf:
        raise ConfigError(f"validate.step must be positive and finite, got {cfg.validate_step}")
    if not np.isfinite(cfg.validate_tolerance):
        raise ConfigError(f"validate.tolerance must be finite, got {cfg.validate_tolerance}")
    return cfg


def _require_problem(cfg: RunConfig):
    name = cfg.problem_name
    if not name:
        raise ConfigError("problem.name is required for this command")
    if name not in benchmark_names():
        raise ConfigError(f"unknown problem {name!r}; known: {', '.join(benchmark_names())}")
    try:
        return get_benchmark(name)
    except ProblemDefinitionError as exc:
        raise ConfigError(f"problem {name!r}: {exc}") from None
    except Exception as exc:  # whatever a user factory raises, name the problem
        raise ConfigError(f"problem {name!r}: {type(exc).__name__}: {exc}") from None


def _status(command: str, code: int, **kv) -> None:
    parts = [f"STATUS command={command}", f"exit={code}"]
    parts += [f"{k}={v}" for k, v in kv.items()]
    print(" ".join(parts))


def _exit_code(trace: IterationTrace) -> int:
    """A solve's exit code: 2 for a descent failure, else 0."""
    return 2 if trace.status == "descent_failure" else 0


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _write_summary(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _trace_summary_lines(name: str, trace: IterationTrace) -> list[str]:
    rho_history = sorted({row.rho for row in trace.rows})
    j, j_se, mu = trace.final
    return [
        f"problem: {name}",
        f"status: {trace.status}",
        f"iterations: {trace.n_rows}",
        f"initial_cost: {_fmt(trace.initial_cost)} +- {_fmt(trace.initial_cost_se)}",
        f"final_cost: {_fmt(j)} +- {_fmt(j_se)}",
        f"final_mu: {_fmt(mu)}",
        f"total_backtracks: {sum(trace.backtracks)}",
        f"rho_history: {' '.join(_fmt(r) for r in rho_history)}",
    ]


def cmd_run(cfg: RunConfig) -> int:
    """Solve the configured problem; write trace CSV and summary."""
    bench = _require_problem(cfg)
    os.makedirs(cfg.output_directory, exist_ok=True)
    trace_path = os.path.join(cfg.output_directory, f"{bench.name}_trace.csv")
    summary_path = os.path.join(cfg.output_directory, f"{bench.name}_summary.txt")
    _, trace = run_msa(bench.problem, cfg.msa)
    code = _exit_code(trace)
    if code:  # the rho the rejected candidate was computed at
        outcome = dict(rho=_fmt(trace.rows[-1].rho))
    else:
        j, j_se, mu = trace.final
        outcome = dict(J=_fmt(j), J_se=_fmt(j_se), mu=_fmt(mu), trace=trace_path)
    export_csv(trace, trace_path)
    _write_summary(summary_path, _trace_summary_lines(bench.name, trace))
    _status("run", code, problem=bench.name, status=trace.status, iterations=trace.n_rows, **outcome)
    return code


def _centroid_solve(p: ControlProblem, msa: MsaConfig):
    """LSMC adjoint along the forward paths of the constant centroid control."""
    control = constant_control(p, msa.n_paths, msa.n_steps, mode=msa.control_mode)
    states = simulate_forward(p, msa.bank(p), control)
    return solve_adjoint_lsmc(states, msa.basis)


def cmd_validate(cfg: RunConfig) -> int:
    """Derivative checks, zero-driver sanity, linear-representation cross-check."""
    bench = _require_problem(cfg)
    p = bench.problem
    checks: list[tuple[str, bool, str]] = []

    errors = check_derivatives(p, n_samples=cfg.validate_n_samples, step=cfg.validate_step)
    for key, err in sorted(errors.items()):
        checks.append((f"derivative:{key}", err <= cfg.validate_tolerance, f"max_rel_err={err:.3e}"))

    dp = driverless_problem(1.0)
    adjoint = _centroid_solve(dp, replace(cfg.msa, n_paths=min(cfg.msa.n_paths, 4000)))
    y_dev = float(np.max(np.abs(adjoint.y_values - 1.0)))
    z_max = float(np.max(np.abs(adjoint.z_values)))
    resid = adjoint_residual(adjoint)
    checks.append(("driverless:y_constant", y_dev <= 1e-5, f"max|Y-1|={y_dev:.3e}"))
    checks.append(("driverless:z_small", z_max <= 1e-2, f"max|Z|={z_max:.3e}"))
    checks.append(("driverless:residual", resid <= 1e-8, f"residual={resid:.3e}"))

    adjoint = _centroid_solve(p, cfg.msa)
    y0_lsmc = adjoint.y_values[0].mean(axis=0)
    y0_lin, y0_se = solve_adjoint_linear_y0(adjoint.states)
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
    os.makedirs(cfg.output_directory, exist_ok=True)
    _write_summary(os.path.join(cfg.output_directory, f"{bench.name}_validate.txt"), lines)
    all_ok = all(ok for _, ok, _ in checks)
    n_failed = sum(0 if ok else 1 for _, ok, _ in checks)
    _status("validate", 0 if all_ok else 1, problem=bench.name, checks=len(checks), failed=n_failed)
    return 0 if all_ok else 1


def cmd_bench(cfg: RunConfig) -> int:
    """Run the benchmark suite plus the unpenalised stress demonstration."""
    os.makedirs(cfg.output_directory, exist_ok=True)
    lines: list[str] = []
    solve_code = 0

    for bench in benchmark_suite():
        _, trace = run_msa(bench.problem, cfg.msa)
        export_csv(trace, os.path.join(cfg.output_directory, f"{bench.name}_trace.csv"))
        if code := _exit_code(trace):
            solve_code = code
            lines.append(f"FAIL {bench.name} descent_failure after {trace.n_rows} rows")
            continue
        ok = True
        j, j_se, _ = trace.final
        details = [f"status={trace.status}", f"iters={trace.n_rows}", f"J={_fmt(j)}"]
        if upward_jumps(trace):
            ok = False
            details.append("non-monotone")
        if trace.status not in ("converged_mu", "converged_dj", "fixed_point"):
            ok = False
            details.append("did-not-converge")
        j_star = bench.continuous_optimum
        if j_star is not None:
            j_gap = abs(j - j_star)
            band = max(0.02 * abs(j_star), 3.0 * j_se + 0.05 * abs(j_star))
            details.append(f"riccati_gap={_fmt(j_gap)} band={_fmt(band)}")
            if j_gap > band:
                ok = False
                details.append("outside-band")
        lines.append(f"{'PASS' if ok else 'FAIL'} {bench.name} {' '.join(details)}")

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
    export_csv(demo, os.path.join(cfg.output_directory, "msa_stress_classical_trace.csv"))
    jumps = upward_jumps(demo)
    if not jumps:
        lines.append("FAIL msa_stress_classical no upward cost jump within the demo window")
    else:
        lines.append(f"PASS msa_stress_classical upward jump at iteration {jumps[0]}")

    for line in lines:
        print(line)
    _write_summary(os.path.join(cfg.output_directory, "bench_summary.txt"), lines)
    n_failed = sum(1 for line in lines if line.startswith("FAIL"))
    code = max(solve_code, 1) if n_failed else 0
    _status("bench", code, problems=len(lines), failed=n_failed, out=cfg.output_directory)
    return code


def cmd_rate(cfg: RunConfig) -> int:
    """Fit the optimality-gap decay against an oracle value."""
    bench = _require_problem(cfg)
    os.makedirs(cfg.output_directory, exist_ok=True)
    name, p = bench.name, bench.problem
    if cfg.rate_oracle == "riccati":
        j_star = bench.continuous_optimum
        if j_star is None:
            raise ConfigError(f"problem {name} has no Riccati oracle")
    else:
        try:
            j_star = brute_force_optimal(p, cfg.msa.bank(p)).j_star
        except ValueError as exc:
            raise ConfigError(f"brute force: {exc}; shrink n_steps or the action grid") from None
    _, trace = run_msa(p, cfg.msa)
    if code := _exit_code(trace):
        _status("rate", code, problem=name, status=trace.status)
        return code

    accepted_n = [row.n for row in trace.accepted_rows]
    if not accepted_n or max(accepted_n) < cfg.rate_n_min:
        _status("rate", 0, problem=name, status="converged-before-rate-window", passed=True)
        return 0
    n_max = min(cfg.rate_n_max, max(accepted_n))
    report = rate_fit(trace, j_star, cfg.rate_n_min, n_max)
    export_csv(report, os.path.join(cfg.output_directory, f"{name}_rate.csv"))
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
    """Load the config, apply --out and --seed, run the command.

    Any exception from a step or from a user problem (a bad config, a
    singular regression, a non-finite state or coefficient, a refused
    noise bank, an unwritable output path, a bug in a problem module)
    ends the command with exit code 1 and one STATUS line whose error=
    names it: the message of an exception msacontrol defines, any other
    prefixed by its type, as in "KeyError: 'x'".  A descent failure is
    not an exception: the command reads it from the trace's status.
    """
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg.output_directory = args.out
        if args.seed is not None:
            try:
                cfg.msa = replace(cfg.msa, seed=args.seed)
            except ValueError as exc:
                raise ConfigError(f"--seed {args.seed}: {exc}") from None
        return args.fn(cfg)
    except Exception as exc:
        _status(args.command, 1, error=repr(_error_text(exc)))
        return 1


def _error_text(exc: Exception) -> str:
    # by package, not module name: under `python -m` this module is __main__
    module = sys.modules.get(type(exc).__module__)
    if getattr(module, "__package__", None) == __package__:
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


if __name__ == "__main__":
    raise SystemExit(main())
