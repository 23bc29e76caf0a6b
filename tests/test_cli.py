"""Command-line interface: config parsing, exit codes, output files."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msacontrol.cli as cli
import msacontrol.oracle as oracle_mod
from msacontrol import Benchmark, get_benchmark, register_benchmark
from msacontrol.cli import ConfigError, load_config, main

from conftest import csv_rows

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
FAST_MSA = {"n_paths": 2000, "n_steps": 25, "max_iterations": 30}


def write_config(tmp_path, name="cfg.ini", **sections):
    lines = []
    for section, kv in sections.items():
        lines.append(f"[{section}]")
        for key, value in kv.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    path = tmp_path / name
    path.write_text("\n".join(lines), encoding="utf-8")
    return str(path)


def status_line(capsys):
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines() if l.startswith("STATUS ")]
    assert lines, f"no STATUS line in output:\n{out}"
    return lines[-1], out


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        cfg = load_config(str(path))
        assert cfg.problem_name == ""
        assert cfg.msa.n_paths == 10000
        assert cfg.msa.n_steps == 50
        assert cfg.output_directory == "out"
        assert cfg.rate_oracle == "riccati"

    def test_values_are_applied(self, tmp_path):
        sections = dict(
            problem={"name": "lq_drift", "module": "msacontrol.oracle"},
            msa={
                "n_paths": 256,
                "n_steps": 7,
                "seed": 3,
                "rho_initial": 0.5,
                "rho_max": 99.0,
                "tol_mu": 1e-4,
                "tol_dj": 1e-7,
                "max_iterations": 11,
                "control_mode": "deterministic",
                "classical": "true",
            },
            bsde={"degree": 3},
            output={"directory": "elsewhere"},
            validate={"n_samples": 17, "step": 1e-6, "tolerance": 1e-3},
            rate={"n_min": 4, "n_max": 40, "oracle": "brute_force"},
        )
        # every key the loader knows is set here, so a dropped key fails below
        assert {s: set(kv) for s, kv in sections.items()} == {
            s: set(kv) for s, kv in cli._SCHEMA.items()
        }
        cfg = load_config(write_config(tmp_path, **sections))
        assert cfg.problem_name == "lq_drift"
        assert cfg.problem_module == "msacontrol.oracle"
        assert cfg.msa.n_paths == 256
        assert cfg.msa.n_steps == 7
        assert cfg.msa.seed == 3
        assert cfg.msa.rho_initial == 0.5
        assert cfg.msa.rho_max == 99.0
        assert cfg.msa.tol_mu == 1e-4
        assert cfg.msa.tol_dj == 1e-7
        assert cfg.msa.max_iterations == 11
        assert cfg.msa.control_mode == "deterministic"
        assert cfg.msa.classical is True
        assert cfg.msa.basis.degree == 3
        assert cfg.output_directory == "elsewhere"
        assert cfg.validate_n_samples == 17
        assert cfg.validate_step == 1e-6
        assert cfg.validate_tolerance == 1e-3
        assert cfg.rate_n_min == 4
        assert cfg.rate_n_max == 40
        assert cfg.rate_oracle == "brute_force"

    def test_shipped_configs_load(self):
        paths = sorted(CONFIG_DIR.glob("*.ini"))
        assert paths
        for path in paths:
            cfg = load_config(str(path))
            if cfg.problem_name:
                get_benchmark(cfg.problem_name)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, extras={"x": 1})
        with pytest.raises(ConfigError, match="extras"):
            load_config(path)

    def test_unknown_key_is_named(self, tmp_path):
        path = write_config(tmp_path, msa={"n_path": 4})
        with pytest.raises(ConfigError, match=r"msa\.n_path"):
            load_config(path)

    def test_bad_value_is_named(self, tmp_path):
        for section, key, value, named in (
            ("msa", "n_paths", "plenty", r"msa\.n_paths"),
            ("msa", "n_paths", "50%", r"msa\.n_paths"),
            ("msa", "seed", -1, "seed"),
            ("validate", "n_samples", 0, r"validate\.n_samples"),
            ("validate", "step", -1e-5, r"validate\.step"),
            ("validate", "step", "nan", r"validate\.step"),
            ("validate", "step", "inf", r"validate\.step"),
            ("validate", "tolerance", "nan", r"validate\.tolerance"),
            ("validate", "tolerance", "inf", r"validate\.tolerance"),
            ("validate", "tolerance", "-1", r"validate\.tolerance"),
            ("msa", "rho_initial", "nan", "rho_initial"),
            ("msa", "rho_max", "inf", "rho_max"),
            ("msa", "tol_mu", "nan", "tol_mu"),
            ("msa", "tol_dj", "inf", "tol_dj"),
        ):
            path = write_config(tmp_path, **{section: {key: value}})
            with pytest.raises(ConfigError, match=named):
                load_config(path)

    def test_removed_settings_are_refused_by_their_own_message(self, tmp_path):
        # the unknown-key message names the key whatever its value, so each
        # case pins the message, not just the key's name
        for section, key, value, message in (
            ("msa", "rho_growth", 2.0, r"^unknown config key msa\.rho_growth$"),
            ("bsde", "ridge", 1e-6, r"^unknown config key bsde\.ridge$"),
            ("rate", "oracle", "one_over_n", r"^rate\.oracle must be riccati\|brute_force, got 'one_over_n'$"),
        ):
            path = write_config(tmp_path, **{section: {key: value}})
            with pytest.raises(ConfigError, match=message):
                load_config(path)

    def test_solver_validation_surfaces_as_config_error(self, tmp_path):
        path = write_config(tmp_path, msa={"control_mode": "sideways"})
        with pytest.raises(ConfigError, match="control_mode"):
            load_config(path)

    def test_bad_rate_oracle_rejected(self, tmp_path):
        path = write_config(tmp_path, rate={"oracle": "tea_leaves"})
        with pytest.raises(ConfigError, match="tea_leaves"):
            load_config(path)

    def test_bad_rate_window_rejected(self, tmp_path):
        path = write_config(tmp_path, rate={"n_min": 9, "n_max": 3})
        with pytest.raises(ConfigError, match="rate window"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "absent.ini"))

    def test_unimportable_problem_module_rejected(self, tmp_path):
        path = write_config(tmp_path, problem={"module": "no_such_module_xyz"})
        with pytest.raises(ConfigError, match="no_such_module_xyz"):
            load_config(path)


# a problem module whose drift raises {exc} partway through a solve
BUGGY_DRIFT_MODULE = (
    "import numpy as np\n"
    "from msacontrol import ActionSpace, ControlProblem\n"
    "def drift(t, x, a):\n"
    "    if t > 0.5:\n"
    "        raise {exc}\n"
    "    return 0.2 * x + a\n"
    "_p = ControlProblem(\n"
    "    state_dim=1, noise_dim=1, horizon=1.0, initial_state=np.array([1.0]),\n"
    "    drift=drift,\n"
    "    diffusion=lambda t, x, a: (0.2 + 0.0 * (x + a))[..., None],\n"
    "    running_cost=lambda t, x, a: x[..., 0] ** 2 + a[..., 0] ** 2,\n"
    "    terminal_cost=lambda x: 0.5 * x[..., 0] ** 2,\n"
    "    drift_jac_x=lambda t, x, a: (0.2 + 0.0 * (x + a))[..., None],\n"
    "    diffusion_jac_x=lambda t, x, a: (0.0 * (x + a))[..., None, None],\n"
    "    running_cost_grad_x=lambda t, x, a: 2.0 * x + 0.0 * a,\n"
    "    terminal_cost_grad_x=lambda x: x,\n"
    "    action_space=ActionSpace(points=np.linspace(-1.0, 1.0, 3)),\n"
    ")\n"
    "register_benchmark('buggy', lambda: Benchmark('buggy', _p))\n"
)


class TestRun:
    def test_writes_trace_and_summary(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            problem={"name": "lq_drift"},
            msa=FAST_MSA,
            output={"directory": str(tmp_path / "out")},
        )
        code = main(["run", "--config", cfg])
        status, out = status_line(capsys)
        assert code == 0
        assert "STATUS command=run exit=0" in status
        assert "problem=lq_drift" in status
        rows = csv_rows(tmp_path / "out" / "lq_drift_trace.csv")
        assert len(rows) >= 1
        assert all(r["wall_ms"] == "0.0" for r in rows)
        text = (tmp_path / "out" / "lq_drift_summary.txt").read_text()
        assert "problem: lq_drift" in text
        assert "final_cost:" in text

    def test_rerun_and_workers_are_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, problem={"name": "lq_drift"}, msa=FAST_MSA)
        outs = [str(tmp_path / d) for d in ("o1", "o2", "o3")]
        assert main(["run", "--config", cfg, "--out", outs[0]]) == 0
        assert main(["run", "--config", cfg, "--out", outs[1]]) == 0
        assert main(["run", "--config", cfg, "--out", outs[2], "--workers", "4"]) == 0
        capsys.readouterr()
        traces = [(tmp_path / d / "lq_drift_trace.csv").read_bytes() for d in ("o1", "o2", "o3")]
        assert traces[0] == traces[1]
        assert traces[0] == traces[2]
        summaries = [(tmp_path / d / "lq_drift_summary.txt").read_bytes() for d in ("o1", "o2", "o3")]
        assert summaries[0] == summaries[1]
        assert summaries[0] == summaries[2]

    def test_seed_override_changes_estimates(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            problem={"name": "lq_drift_small"},
            msa={"n_paths": 500, "n_steps": 5},
        )
        a, b, c = (str(tmp_path / d) for d in ("a", "b", "c"))
        assert main(["run", "--config", cfg, "--out", a, "--seed", "1"]) == 0
        assert main(["run", "--config", cfg, "--out", b, "--seed", "1"]) == 0
        assert main(["run", "--config", cfg, "--out", c, "--seed", "2"]) == 0
        capsys.readouterr()
        ja, jb, jc = (
            [r["J"] for r in csv_rows(tmp_path / d / "lq_drift_small_trace.csv")]
            for d in ("a", "b", "c")
        )
        assert ja == jb
        assert ja != jc

    def test_unknown_problem_exits_one_naming_known(self, tmp_path, capsys):
        cfg = write_config(tmp_path, problem={"name": "nope"})
        assert main(["run", "--config", cfg]) == 1
        status, _ = status_line(capsys)
        assert "exit=1" in status
        assert "nope" in status
        assert "lq_drift" in status

    def test_missing_problem_name_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg]) == 1
        status, _ = status_line(capsys)
        assert "problem.name" in status

    def test_unknown_config_key_exits_one_naming_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, problem={"name": "lq_drift"}, msa={"n_path": 4})
        assert main(["run", "--config", cfg]) == 1
        status, _ = status_line(capsys)
        assert "msa.n_path" in status

    @pytest.mark.parametrize(
        "command, sections, flags, named",
        [
            ("run", {"msa": {"seed": -1}}, [], "seed"),
            ("run", {}, ["--seed", "-5"], "--seed"),
            ("validate", {"validate": {"n_samples": 0}}, [], "validate.n_samples"),
            ("validate", {"validate": {"step": -1e-5}}, [], "validate.step"),
            ("run", {"msa": {"n_paths": 200, "n_steps": 5}, "bsde": {"degree": 30}}, [], "degree"),
            ("run", {"msa": {"n_paths": 100_000_000}}, [], "noise bank"),
            ("run", {"msa": {"rho_initial": 4.0, "rho_max": 2.0}}, [], "'rho_initial 4.0 exceeds rho_max 2.0'"),
        ],
    )
    def test_bad_value_exits_one_naming_it(self, tmp_path, capsys, command, sections, flags, named):
        cfg = write_config(tmp_path, problem={"name": "lq_drift"}, **sections)
        out = str(tmp_path / "out")
        assert main([command, "--config", cfg, "--out", out, *flags]) == 1
        status, _ = status_line(capsys)
        assert status.startswith(f"STATUS command={command} exit=1 error=")
        assert named in status

    def test_descent_failure_exits_two_with_trace(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            problem={"name": "msa_stress"},
            msa={"n_paths": 2000, "n_steps": 50, "rho_initial": 0.0, "rho_max": 0.0, "max_iterations": 20},
            output={"directory": str(tmp_path / "fail")},
        )
        code = main(["run", "--config", cfg])
        status, _ = status_line(capsys)
        assert code == 2
        assert "STATUS command=run exit=2" in status
        assert "status=descent_failure" in status
        # the rho the rejected candidate was computed at, not the one it would grow to
        assert status.endswith(" rho=0")
        rows = csv_rows(tmp_path / "fail" / "msa_stress_trace.csv")
        assert rows[-1]["accepted"] == "0"
        assert float(rows[-1]["rho"]) == 0.0

    def test_problem_module_hook_registers_benchmark(self, tmp_path, capsys, monkeypatch):
        mod_dir = tmp_path / "mods"
        mod_dir.mkdir()
        (mod_dir / "extra_bench_mod.py").write_text(
            "import dataclasses\n"
            "from msacontrol import Benchmark, get_benchmark, register_benchmark\n"
            "_b = dataclasses.replace(get_benchmark('lq_drift_small'), name='hooked')\n"
            "register_benchmark('hooked', lambda: _b)\n"
        )
        monkeypatch.syspath_prepend(str(mod_dir))
        try:
            cfg = write_config(
                tmp_path,
                problem={"name": "hooked", "module": "extra_bench_mod"},
                msa={"n_paths": 500, "n_steps": 5},
                output={"directory": str(tmp_path / "hooked_out")},
            )
            assert main(["run", "--config", cfg]) == 0
            assert (tmp_path / "hooked_out" / "hooked_trace.csv").is_file()
        finally:
            oracle_mod._FACTORIES.pop("hooked", None)
        capsys.readouterr()

    def test_problem_module_plain_control_problem(self, tmp_path, capsys, monkeypatch):
        # no action terms and no oracle data: the update takes the general path
        mod_dir = tmp_path / "mods"
        mod_dir.mkdir()
        (mod_dir / "plain_bench_mod.py").write_text(
            "import numpy as np\n"
            "from msacontrol import ActionSpace, Benchmark, ControlProblem, register_benchmark\n"
            "_p = ControlProblem(\n"
            "    state_dim=1, noise_dim=1, horizon=1.0, initial_state=np.array([1.0]),\n"
            "    drift=lambda t, x, a: 0.2 * x + a,\n"
            "    diffusion=lambda t, x, a: (0.2 + 0.3 * a + 0.0 * x)[..., None],\n"
            "    running_cost=lambda t, x, a: x[..., 0] ** 2 + a[..., 0] ** 2,\n"
            "    terminal_cost=lambda x: 0.5 * x[..., 0] ** 2,\n"
            "    drift_jac_x=lambda t, x, a: (0.2 + 0.0 * (x + a))[..., None],\n"
            "    diffusion_jac_x=lambda t, x, a: (0.0 * (x + a))[..., None, None],\n"
            "    running_cost_grad_x=lambda t, x, a: 2.0 * x + 0.0 * a,\n"
            "    terminal_cost_grad_x=lambda x: x,\n"
            "    action_space=ActionSpace(points=np.linspace(-1.0, 1.0, 5)),\n"
            ")\n"
            "register_benchmark('plain', lambda: Benchmark('plain', _p))\n"
        )
        monkeypatch.syspath_prepend(str(mod_dir))
        try:
            cfg = write_config(
                tmp_path,
                problem={"name": "plain", "module": "plain_bench_mod"},
                msa={"n_paths": 500, "n_steps": 5},
                output={"directory": str(tmp_path / "plain_out")},
            )
            assert main(["run", "--config", cfg]) == 0
            rows = csv_rows(tmp_path / "plain_out" / "plain_trace.csv")
            bench = get_benchmark("plain")
        finally:
            oracle_mod._FACTORIES.pop("plain", None)
        status, _ = status_line(capsys)
        assert "problem=plain" in status
        assert rows
        assert bench.problem.action_terms is None
        assert bench.lq is None and bench.continuous_optimum is None
        # the oracle fields are keyword-only, so the old three-argument form fails
        with pytest.raises(TypeError):
            Benchmark("plain", bench.problem, bench.problem)

    def test_problem_module_overflow_exits_one(self, tmp_path, capsys, monkeypatch):
        mod_dir = tmp_path / "mods"
        mod_dir.mkdir()
        (mod_dir / "overflow_bench_mod.py").write_text(
            "import numpy as np\n"
            "from msacontrol import Benchmark, register_benchmark\n"
            "from msacontrol.oracle import LqSpec, scalar_quadratic_problem\n"
            "_spec = LqSpec(beta=1e40, control_gain=1.0, nu=0.5, q=1.0, r=0.1, q_t=1.0, x0=1.0)\n"
            "_p = scalar_quadratic_problem('overflow', _spec, 1.0, np.array([-1.0, 0.0, 1.0]))\n"
            "register_benchmark('overflow', lambda: Benchmark('overflow', _p))\n"
        )
        monkeypatch.syspath_prepend(str(mod_dir))
        try:
            cfg = write_config(
                tmp_path,
                problem={"name": "overflow", "module": "overflow_bench_mod"},
                msa={"n_paths": 50, "n_steps": 20},
                output={"directory": str(tmp_path / "overflow_out")},
            )
            with np.errstate(over="ignore", invalid="ignore"):
                assert main(["run", "--config", cfg]) == 1
        finally:
            oracle_mod._FACTORIES.pop("overflow", None)
        status, _ = status_line(capsys)
        assert status.startswith("STATUS command=run exit=1 error=")
        assert "non-finite state" in status

    @pytest.mark.parametrize("where", ["import", "lookup"])
    def test_problem_module_definition_error_exits_one(self, tmp_path, capsys, monkeypatch, where):
        # a ProblemDefinitionError raised while the module imports, or by its
        # factory when the problem is looked up, names the module or problem
        mod_dir = tmp_path / "mods"
        mod_dir.mkdir()
        build = "ActionSpace(points=np.array([0.0, 0.0]))"
        (mod_dir / f"bad_{where}_mod.py").write_text(
            "import numpy as np\n"
            "from msacontrol import ActionSpace, register_benchmark\n"
            + (f"{build}\n" if where == "import" else f"register_benchmark('bad', lambda: {build})\n")
        )
        monkeypatch.syspath_prepend(str(mod_dir))
        try:
            cfg = write_config(
                tmp_path,
                problem={"name": "bad", "module": f"bad_{where}_mod"},
                output={"directory": str(tmp_path / "bad_out")},
            )
            assert main(["run", "--config", cfg]) == 1
        finally:
            oracle_mod._FACTORIES.pop("bad", None)
        status, out = status_line(capsys)
        assert out.count("STATUS ") == 1
        assert status.startswith("STATUS command=run exit=1 error=")
        assert "action points must be distinct" in status
        assert (f"'bad_{where}_mod'" if where == "import" else "problem 'bad'") in status

    @pytest.mark.parametrize(
        "kind, source",
        [("SyntaxError", "def broken(:\n"), ("NameError", "undefined_name\n")],
        ids=["syntax", "name"],
    )
    def test_problem_module_import_failure_exits_one(self, tmp_path, capsys, monkeypatch, kind, source):
        # whatever a module raises while it imports is reported, not a traceback
        mod_dir = tmp_path / "mods"
        mod_dir.mkdir()
        module = f"broken_{kind.lower()}_mod"
        (mod_dir / f"{module}.py").write_text(source)
        monkeypatch.syspath_prepend(str(mod_dir))
        cfg = write_config(
            tmp_path,
            problem={"name": "lq_drift", "module": module},
            output={"directory": str(tmp_path / "broken_out")},
        )
        assert main(["run", "--config", cfg]) == 1
        status, out = status_line(capsys)
        assert out.count("STATUS ") == 1
        assert status.startswith("STATUS command=run exit=1 error=")
        assert f"cannot import problem.module '{module}': {kind}" in status
        assert not (tmp_path / "broken_out").exists()

    @pytest.mark.parametrize(
        "module, source, named",
        [
            (
                "buggy_lookup_mod",
                "register_benchmark('buggy', lambda: 1 / 0)\n",
                "problem 'buggy': ZeroDivisionError: division by zero",
            ),
            (
                "buggy_solve_mod",
                BUGGY_DRIFT_MODULE.format(exc="TypeError('drift broke after t = 0.5')"),
                "error='TypeError: drift broke after t = 0.5'",
            ),
            (
                "buggy_key_mod",
                BUGGY_DRIFT_MODULE.format(exc="KeyError('x')"),
                "error=\"KeyError: 'x'\"",
            ),
        ],
        ids=["lookup", "solve", "key"],
    )
    def test_problem_module_bug_exits_one(self, tmp_path, capsys, monkeypatch, module, source, named):
        # any exception from a user problem, when it is looked up or partway
        # through a solve, ends the command with one STATUS line
        mod_dir = tmp_path / "mods"
        mod_dir.mkdir()
        (mod_dir / f"{module}.py").write_text(
            "from msacontrol import Benchmark, register_benchmark\n" + source
        )
        monkeypatch.syspath_prepend(str(mod_dir))
        try:
            cfg = write_config(
                tmp_path,
                problem={"name": "buggy", "module": module},
                msa={"n_paths": 200, "n_steps": 10},
                output={"directory": str(tmp_path / "buggy_out")},
            )
            assert main(["run", "--config", cfg]) == 1
        finally:
            oracle_mod._FACTORIES.pop("buggy", None)
        out, err = capsys.readouterr()
        assert [l for l in out.splitlines() if l.startswith("STATUS ")] == out.splitlines()[-1:]
        assert out.splitlines()[-1].startswith("STATUS command=run exit=1 error=")
        assert named in out
        assert "Traceback" not in out + err


class TestValidate:
    def test_benchmark_passes_all_checks(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            problem={"name": "lq_drift"},
            msa={"n_paths": 2000, "n_steps": 10},
            validate={"n_samples": 50},
            output={"directory": str(tmp_path / "v")},
        )
        code = main(["validate", "--config", cfg])
        status, out = status_line(capsys)
        assert code == 0, out
        assert "STATUS command=validate exit=0" in status
        assert "failed=0" in status
        assert "PASS derivative:drift_jac_x" in out
        assert "PASS derivative:running_cost_grad_x" in out
        assert "PASS driverless:y_constant" in out
        assert "PASS driverless:z_small" in out
        assert "PASS driverless:residual" in out
        assert "PASS linear_representation:y0" in out
        assert "FAIL" not in out
        report = (tmp_path / "v" / "lq_drift_validate.txt").read_text()
        assert "PASS driverless:y_constant" in report

    def test_corrupted_gradient_fails_named_check(self, tmp_path, capsys):
        base = get_benchmark("lq_drift")

        def bad_grad(t, x, a):
            return 4.0 * x

        bad_problem = dataclasses.replace(
            base.problem, running_cost_grad_x=bad_grad, name="corrupted_check"
        )
        bad_bench = dataclasses.replace(base, name="corrupted_check", problem=bad_problem)
        register_benchmark("corrupted_check", lambda: bad_bench)
        try:
            cfg = write_config(
                tmp_path,
                problem={"name": "corrupted_check"},
                msa={"n_paths": 1000, "n_steps": 5},
                validate={"n_samples": 40},
                output={"directory": str(tmp_path / "v")},
            )
            code = main(["validate", "--config", cfg])
            status, out = status_line(capsys)
            assert code == 1
            assert "FAIL derivative:running_cost_grad_x" in out
            assert "STATUS command=validate exit=1" in status
        finally:
            oracle_mod._FACTORIES.pop("corrupted_check", None)


class TestBench:
    def test_suite_passes_at_default_scale(self, tmp_path, capsys):
        # the stress instance needs the full path count: with fewer paths
        # the acceptance band is wide enough to keep its 2-cycle alive
        cfg = write_config(
            tmp_path,
            output={"directory": str(tmp_path / "bench")},
        )
        code = main(["bench", "--config", cfg])
        status, out = status_line(capsys)
        assert code == 0, out
        assert "PASS lq_drift" in out
        assert "PASS ctrl_diffusion" in out
        # both suite problems with a value-ODE oracle are held to its band
        for name in ("lq_drift", "ctrl_diffusion"):
            line = next(l for l in out.splitlines() if l.startswith(f"PASS {name} "))
            assert "riccati_gap=" in line, line
        assert "PASS msa_stress " in out
        assert "PASS msa_stress_classical upward jump at iteration" in out
        for name in ("lq_drift", "ctrl_diffusion", "msa_stress", "msa_stress_classical"):
            assert (tmp_path / "bench" / f"{name}_trace.csv").is_file()
        assert (tmp_path / "bench" / "bench_summary.txt").is_file()
        assert "failed=0" in status


class TestRate:
    def test_riccati_oracle_on_drift_benchmark(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            problem={"name": "lq_drift"},
            msa=FAST_MSA,
            output={"directory": str(tmp_path / "r")},
        )
        code = main(["rate", "--config", cfg])
        status, _ = status_line(capsys)
        assert code == 0, status
        assert "passed=True" in status

    def test_riccati_oracle_on_diffusion_benchmark(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            problem={"name": "ctrl_diffusion"},
            msa=FAST_MSA,
            output={"directory": str(tmp_path / "r")},
        )
        # the fit's verdict is not checked: at this scale the bank's cost and
        # the 25-step Euler bias can put J more than 3 SE below j_star
        main(["rate", "--config", cfg])
        status, _ = status_line(capsys)
        assert status.startswith("STATUS command=rate exit=")
        assert "j_star=1.95591" in status
        assert "error=" not in status

    def test_rate_window_after_convergence_passes_vacuously(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            problem={"name": "lq_drift"},
            msa=FAST_MSA,
            rate={"n_min": 50, "n_max": 60},
            output={"directory": str(tmp_path / "r")},
        )
        code = main(["rate", "--config", cfg])
        status, _ = status_line(capsys)
        assert code == 0
        assert "converged-before-rate-window" in status

    def test_missing_riccati_oracle_exits_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            problem={"name": "msa_stress"},
            msa=FAST_MSA,
            output={"directory": str(tmp_path / "r")},
        )
        code = main(["rate", "--config", cfg])
        status, _ = status_line(capsys)
        assert code == 1
        assert "no Riccati oracle" in status

    def test_stiff_ode_oracle_gets_its_value(self, tmp_path, capsys, monkeypatch):
        # a stiff spec that overflowed fixed-step RK4 at 4000 steps; its
        # exact value is sqrt(q r) / gain = 1/300, as tanh(300) = 1
        mod_dir = tmp_path / "mods"
        mod_dir.mkdir()
        (mod_dir / "stiff_bench_mod.py").write_text(
            "import numpy as np\n"
            "from msacontrol import Benchmark, register_benchmark\n"
            "from msacontrol.oracle import LqSpec, scalar_quadratic_problem\n"
            "_spec = LqSpec(control_gain=30.0, r=0.01, q_t=1.0)\n"
            "_p = scalar_quadratic_problem('stiff', _spec, 1.0, np.array([-1.0, 0.0, 1.0]))\n"
            "register_benchmark('stiff', lambda: Benchmark('stiff', _p, lq=_spec))\n"
        )
        monkeypatch.syspath_prepend(str(mod_dir))
        try:
            cfg = write_config(
                tmp_path,
                problem={"name": "stiff", "module": "stiff_bench_mod"},
                msa={"n_paths": 200, "n_steps": 5},
                output={"directory": str(tmp_path / "r")},
            )
            main(["rate", "--config", cfg])
        finally:
            oracle_mod._FACTORIES.pop("stiff", None)
        status, out = status_line(capsys)
        assert out.count("STATUS ") == 1
        assert status.startswith("STATUS command=rate exit=")
        assert "j_star=0.00333333" in status
        assert "blew up" not in status and "error=" not in status

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("r=0.0", "r must be positive"),
            ("x0=np.inf", "x0 must be finite, got inf"),
            ("q=np.nan", "q must be finite, got nan"),
            ("beta=np.nan", "beta must be finite, got nan"),
            ("sigma_gain=np.nan", "sigma_gain must be finite, got nan"),
        ],
        ids=["r", "x0", "q", "beta", "sigma_gain"],
    )
    def test_invalid_lq_spec_exits_one(self, tmp_path, capsys, monkeypatch, spec, message):
        # the spec is checked when the benchmark is built, before any oracle
        # runs; the problem comes from a valid spec, as a non-finite
        # coefficient would fail the problem's own probe first
        # one module per case: an imported module is not run again
        module = f"bad_lq_{spec.split('=')[0]}_mod"
        mod_dir = tmp_path / "mods"
        mod_dir.mkdir()
        (mod_dir / f"{module}.py").write_text(
            "import numpy as np\n"
            "from msacontrol import Benchmark, register_benchmark\n"
            "from msacontrol.oracle import LqSpec, scalar_quadratic_problem\n"
            f"_spec = LqSpec({spec})\n"
            "_p = scalar_quadratic_problem('bad_lq', LqSpec(), 1.0, np.array([-1.0, 0.0, 1.0]))\n"
            "register_benchmark('bad_lq', lambda: Benchmark('bad_lq', _p, lq=_spec))\n"
        )
        monkeypatch.syspath_prepend(str(mod_dir))
        try:
            cfg = write_config(
                tmp_path,
                problem={"name": "bad_lq", "module": module},
                msa={"n_paths": 200, "n_steps": 5},
                output={"directory": str(tmp_path / "r")},
            )
            assert main(["rate", "--config", cfg]) == 1
        finally:
            oracle_mod._FACTORIES.pop("bad_lq", None)
        status, out = status_line(capsys)
        assert out.count("STATUS ") == 1
        assert status.startswith("STATUS command=rate exit=1 error=")
        assert f"problem 'bad_lq': {message}" in status

    def test_brute_force_budget_guard(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            problem={"name": "lq_drift"},
            msa={"n_paths": 500, "n_steps": 30},
            rate={"oracle": "brute_force"},
            output={"directory": str(tmp_path / "r")},
        )
        code = main(["rate", "--config", cfg])
        status, _ = status_line(capsys)
        assert code == 1
        assert "brute force" in status

    def test_brute_force_oracle_on_small_instance(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            problem={"name": "lq_drift_small"},
            msa={"n_paths": 500, "n_steps": 5, "control_mode": "deterministic"},
            rate={"oracle": "brute_force"},
            output={"directory": str(tmp_path / "r")},
        )
        code = main(["rate", "--config", cfg])
        status, _ = status_line(capsys)
        assert code == 0, status
        assert "passed=True" in status


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1
        status, _ = status_line(capsys)
        assert "STATUS command=usage exit=1" in status

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x.ini"])
        assert exc.value.code == 1
        status, _ = status_line(capsys)
        assert "command=usage" in status

    def test_missing_config_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 1
        status, _ = status_line(capsys)
        assert "command=usage" in status

    def test_own_error_keeps_its_message_under_python_m(self, tmp_path):
        # run as a script, cli is __main__ and defines its own ConfigError
        src = str(Path(cli.__file__).resolve().parents[1])
        config = write_config(tmp_path, output={"directory": str(tmp_path / "o")})
        out = subprocess.run(
            [sys.executable, "-m", "msacontrol.cli", "run", "--config", config],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 1
        assert out.stdout.splitlines() == [
            "STATUS command=run exit=1 error='problem.name is required for this command'"
        ]

    def test_missing_config_file_exits_one(self, capsys):
        assert main(["run", "--config", "/no/such/file.ini"]) == 1
        status, _ = status_line(capsys)
        assert "not found" in status

    def test_unwritable_output_directory_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "a_file"
        blocker.write_text("", encoding="utf-8")
        config = write_config(
            tmp_path, problem={"name": "lq_drift_small"}, msa={"n_paths": 200, "n_steps": 5}
        )
        assert main(["run", "--config", config, "--out", str(blocker / "x")]) == 1
        status, out = status_line(capsys)
        assert out.count("STATUS ") == 1
        assert status.startswith('STATUS command=run exit=1 error="NotADirectoryError: ')
        assert "Not a directory" in status
