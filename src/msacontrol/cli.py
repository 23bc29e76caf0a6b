"""Command-line interface: run a solve, validate a problem, benchmark, rate-fit.

Configuration is a strict INI file with one section per module; unknown
sections or keys are rejected.  Every invocation ends with a single
machine-parseable STATUS line of key=value fields, each value quoted
for a POSIX shell, so shlex.split reads it back.  Exit codes: 0 success,
2 descent failure (a solve's trace status), 1 usage errors, failed checks
and any exception from a step or a user problem.
"""

from __future__ import annotations

import argparse
import configparser
import importlib
import os
import shlex
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .bsde import adjoint_residual, solve_adjoint_linear_y0, solve_adjoint_lsmc
from .diagnostics import export_csv, rate_fit, upward_jumps
from .msa import IterationTrace, MsaConfig, run_msa
from .oracle import (
    benchmark_names,
    benchmark_suite,
    brute_force_optimal,
    driverless_problem,
    get_benchmark,
    riccati_lq,
)
from .problem import ControlProblem, ProblemDefinitionError, check_derivatives
from .sde import TimeGrid, constant_control, simulate_forward


class ConfigError(Exception):
    """Configuration file problem; message names the offending field."""


@dataclass
class RunConfig:
    """A loaded config: field <section>_<key> holds INI key section.key,
    except [msa], which builds the solver's MsaConfig, and problem.module,
    which is imported, not kept.  msactl rate takes its oracle from
    msa.control_mode, so no key names one."""

    msa: MsaConfig = field(default_factory=MsaConfig)
    problem_name: str = ""
    output_directory: str = "out"


# the largest relative error msactl validate's derivative audit passes
_AUDIT_TOLERANCE = 1e-4


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


# section -> key -> converter of the raw value.  [msa] keys are
# MsaConfig's fields, one each, read by their default's type.
_SCHEMA = {
    "problem": {"name": str, "module": _import_module},
    "msa": {
        f.name: _to_bool if isinstance(f.default, bool) else type(f.default)
        for f in fields(MsaConfig)
    },
    "output": {"directory": str},
}


def load_config(path: str) -> RunConfig:
    """Parse and validate an INI config; reject anything not in the schema."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    # read_file, not read: read skips a file it cannot open, which loads as empty
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
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
        msa = MsaConfig(**values.pop("msa"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    values["problem"].pop("module", None)
    return RunConfig(msa=msa, **{f"{s}_{k}": v for s, keys in values.items() for k, v in keys.items()})


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
    # a path, a name or an error message may hold a space or a quote
    parts = [f"STATUS command={command}", f"exit={code}"]
    parts += [f"{k}={shlex.quote(str(v))}" for k, v in kv.items()]
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
    return solve_adjoint_lsmc(states)


def cmd_validate(cfg: RunConfig) -> int:
    """Derivative checks, zero-driver sanity, linear-representation cross-check."""
    bench = _require_problem(cfg)
    p = bench.problem
    checks: list[tuple[str, bool, str]] = []

    errors = check_derivatives(p)
    for key, err in sorted(errors.items()):
        checks.append((f"derivative:{key}", err <= _AUDIT_TOLERANCE, f"max_rel_err={err:.3e}"))

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
    """Run the benchmark suite plus the unpenalised stress demonstration.

    A suite problem with an LQ spec is held to a band about its Euler
    scheme's optimum on the run's grid, and its line shows the signed gap
    in SE, gap_se = (J - j*) / J_se.  The demonstration is msa_stress
    under the classical update (rho 0, every candidate accepted) for at
    most 20 iterations; its |mu| and |dJ| stay far above the solver's
    stopping tolerances, so it runs to its iteration cap.
    """
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
        if bench.lq is not None:
            grid = TimeGrid(cfg.msa.n_steps, bench.problem.horizon)
            j_star = riccati_lq(bench.lq, grid).optimal_value
            j_gap = abs(j - j_star)
            band = max(0.02 * abs(j_star), 3.0 * j_se + 0.05 * abs(j_star))
            gap_se = (j - j_star) / j_se if j_se > 0 else float("nan")
            details.append(f"riccati_gap={_fmt(j_gap)} gap_se={_fmt(gap_se)} band={_fmt(band)}")
            if j_gap > band:
                ok = False
                details.append("outside-band")
        lines.append(f"{'PASS' if ok else 'FAIL'} {bench.name} {' '.join(details)}")

    stress = get_benchmark("msa_stress")
    classical_cfg = replace(
        cfg.msa, classical=True, rho_initial=0.0, max_iterations=min(20, cfg.msa.max_iterations)
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
    """Fit the optimality-gap decay of every accepted iteration against the optimum.

    j* is the optimum of the control class the solver runs: for a
    deterministic control, the brute-force minimum over every action
    sequence on the run's own bank; for a per-path one, the Euler
    scheme's LQ optimum on the run's grid, refused without an lq spec.
    """
    bench = _require_problem(cfg)
    name, p = bench.name, bench.problem
    # the oracle first: a run refused for its oracle leaves no directory
    if cfg.msa.control_mode == "deterministic":
        try:
            j_star = brute_force_optimal(p, cfg.msa.bank(p)).j_star
        except ValueError as exc:
            raise ConfigError(f"brute force: {exc}; shrink n_steps or the action grid") from None
    else:
        if bench.lq is None:
            raise ConfigError(f"problem {name} has no Riccati oracle")
        j_star = riccati_lq(bench.lq, TimeGrid(cfg.msa.n_steps, p.horizon)).optimal_value
    os.makedirs(cfg.output_directory, exist_ok=True)
    _, trace = run_msa(p, cfg.msa)
    if code := _exit_code(trace):
        _status("rate", code, problem=name, status=trace.status)
        return code

    # a trace that exits 0 has an accepted row: every finished iteration
    # appends one, a fixed point too, and max_iterations >= 1
    report = rate_fit(trace, j_star)
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
        _status("usage", 1, error=message)
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
        _status(args.command, 1, error=_error_text(exc))
        return 1


def _error_text(exc: Exception) -> str:
    # by package, not module name: under `python -m` this module is __main__
    module = sys.modules.get(type(exc).__module__)
    if getattr(module, "__package__", None) == __package__:
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


if __name__ == "__main__":
    raise SystemExit(main())
