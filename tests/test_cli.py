"""Command-line interface: config parsing, exit codes, output files."""

import builtins
import dataclasses
import errno
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msacontrol.cli as cli
import msacontrol.oracle as oracle_mod
from msacontrol import Benchmark, get_benchmark, register_benchmark
from msacontrol.cli import ConfigError, load_config, main
from msacontrol.oracle import riccati_lq
from msacontrol.sde import TimeGrid

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


def status_fields(status):
    """A STATUS line's key=value fields, read back through shlex.split."""
    words = shlex.split(status)
    assert words[0] == "STATUS"
    return dict(word.split("=", 1) for word in words[1:])


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        cfg = load_config(str(path))
        assert cfg.problem_name == ""
        assert cfg.msa.n_paths == 10000
        assert cfg.msa.n_steps == 50
        assert cfg.output_directory == "out"

    def test_values_are_applied(self, tmp_path):
        sections = dict(
            problem={"name": "lq_drift", "module": "msacontrol.oracle"},
            msa={
                "n_paths": 256,
                "n_steps": 7,
                "seed": 3,
                "rho_initial": 0.5,
                "rho_max": 99.0,
                "max_iterations": 11,
                "control_mode": "deterministic",
                "classical": "true",
            },
            output={"directory": "elsewhere"},
        )
        # every key the loader knows is set here, so a dropped key fails below
        assert {s: set(kv) for s, kv in sections.items()} == {
            s: set(kv) for s, kv in cli._SCHEMA.items()
        }
        cfg = load_config(write_config(tmp_path, **sections))
        assert cfg.problem_name == "lq_drift"
        assert cfg.msa.n_paths == 256
        assert cfg.msa.n_steps == 7
        assert cfg.msa.seed == 3
        assert cfg.msa.rho_initial == 0.5
        assert cfg.msa.rho_max == 99.0
        assert cfg.msa.max_iterations == 11
        assert cfg.msa.control_mode == "deterministic"
        assert cfg.msa.classical is True
        assert cfg.output_directory == "elsewhere"
        # and nothing else is kept, and every solver setting has its key
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "msa", "problem_name", "output_directory"
        ]
        assert [f.name for f in dataclasses.fields(cfg.msa)] == list(cli._SCHEMA["msa"])
        assert sum(map(len, cli._SCHEMA.values())) == 11
        # the oracle comes from msa.control_mode, so no section names one
        sections["rate"] = {"oracle": "brute_force"}
        with pytest.raises(ConfigError, match=r"^unknown config section \[rate\]$"):
            load_config(write_config(tmp_path, **sections))

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
            ("msa", "rho_initial", "nan", "rho_initial"),
            ("msa", "rho_max", "inf", "rho_max"),
        ):
            path = write_config(tmp_path, **{section: {key: value}})
            with pytest.raises(ConfigError, match=named):
                load_config(path)

    def test_removed_settings_are_refused_by_their_own_message(self, tmp_path):
        # the unknown-key message names the key whatever its value, so each
        # case pins the message, not just the key's name
        for section, key, value, message in (
            ("msa", "rho_growth", 2.0, r"^unknown config key msa\.rho_growth$"),
            ("msa", "tol_mu", 1e-3, r"^unknown config key msa\.tol_mu$"),
            ("msa", "tol_dj", 1e-6, r"^unknown config key msa\.tol_dj$"),
            ("bsde", "ridge", 1e-6, r"^unknown config section \[bsde\]$"),
            ("bsde", "degree", 2, r"^unknown config section \[bsde\]$"),
            ("validate", "n_samples", 50, r"^unknown config section \[validate\]$"),
            ("rate", "n_min", 4, r"^unknown config section \[rate\]$"),
            ("rate", "n_max", 40, r"^unknown config section \[rate\]$"),
            ("rate", "oracle", "one_over_n", r"^unknown config section \[rate\]$"),
            ("rate", "oracle", "brute_force", r"^unknown config section \[rate\]$"),
        ):
            path = write_config(tmp_path, **{section: {key: value}})
            with pytest.raises(ConfigError, match=message):
                load_config(path)

    def test_solver_validation_surfaces_as_config_error(self, tmp_path):
        path = write_config(tmp_path, msa={"control_mode": "sideways"})
        with pytest.raises(ConfigError, match="control_mode"):
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

    def test_status_line_parses_with_a_spaced_output_path(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, problem={"name": "lq_drift_small"}, msa={"n_paths": 500, "n_steps": 5}
        )
        out = str(tmp_path / "out dir")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        status, _ = status_line(capsys)
        assert status.startswith("STATUS command=run exit=0 ")
        fields = status_fields(status)
        assert fields["trace"] == os.path.join(out, "lq_drift_small_trace.csv")
        assert fields["problem"] == "lq_drift_small"
        assert float(fields["J"]) > 0

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
            ("validate", {"validate": {"n_samples": 50}}, [], "unknown config section [validate]"),
            ("rate", {"msa": {"oracle": "brute_force"}}, [], "unknown config key msa.oracle"),
            ("run", {"msa": {"n_paths": 20, "n_steps": 5}}, [], "3 functions for 20 paths"),
            ("run", {"msa": {"n_paths": 100_000_000}}, [], "noise bank"),
            ("run", {"msa": {"rho_initial": 4.0, "rho_max": 2.0}}, [], "'rho_initial 4.0 exceeds rho_max 2.0'"),
            ("rate", {"rate": {"oracle": "brute_force"}}, [], "'unknown config section [rate]'"),
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
        assert bench.lq is None
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
        error = status_fields(status)["error"]
        assert "action points must be distinct" in error
        assert (f"'bad_{where}_mod'" if where == "import" else "problem 'bad'") in error

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
        assert f"cannot import problem.module '{module}': {kind}" in status_fields(status)["error"]
        assert not (tmp_path / "broken_out").exists()

    @pytest.mark.parametrize(
        "module, source, named",
        [
            (
                "buggy_lookup_mod",
                "register_benchmark('buggy', lambda: 1 / 0)\n",
                "error='problem '\"'\"'buggy'\"'\"': ZeroDivisionError: division by zero'",
            ),
            (
                "buggy_solve_mod",
                BUGGY_DRIFT_MODULE.format(exc="TypeError('drift broke after t = 0.5')"),
                "error='TypeError: drift broke after t = 0.5'",
            ),
            (
                "buggy_key_mod",
                BUGGY_DRIFT_MODULE.format(exc="KeyError('x')"),
                "error='KeyError: '\"'\"'x'\"'\"''",
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
        assert out.splitlines()[-1].endswith(named)
        assert "Traceback" not in out + err


class TestValidate:
    def test_benchmark_passes_all_checks(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            problem={"name": "lq_drift"},
            msa={"n_paths": 2000, "n_steps": 10},
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
        # both suite problems with an LQ spec are held to a band about the
        # Euler scheme's optimum on the run's N, with the signed gap in SE beside it
        for name in ("lq_drift", "ctrl_diffusion"):
            line = next(l for l in out.splitlines() if l.startswith(f"PASS {name} "))
            rows = csv_rows(tmp_path / "bench" / f"{name}_trace.csv")
            final = [r for r in rows if r["accepted"] == "1"][-1]
            j, j_se = float(final["J"]), float(final["J_se"])
            j_star = riccati_lq(get_benchmark(name).lq, TimeGrid(50, 1.0)).optimal_value
            gap = re.search(r" riccati_gap=(\S+) gap_se=(\S+) band=\S+", line)
            assert gap, line
            assert float(gap[1]) == pytest.approx(abs(j - j_star), rel=1e-5)
            assert float(gap[2]) == pytest.approx((j - j_star) / j_se, rel=1e-5)
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
        assert "j_star=1.13605" in status  # the 25-step scheme's optimum

    def test_riccati_oracle_on_diffusion_benchmark(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            problem={"name": "ctrl_diffusion"},
            msa=FAST_MSA,
            output={"directory": str(tmp_path / "r")},
        )
        # j_star is the 25-step Euler scheme's optimum; the continuous-time
        # optimum, 1.95591, is 3.1 SE above the solver's J at this scale
        code = main(["rate", "--config", cfg])
        status, _ = status_line(capsys)
        assert code == 0, status
        assert "oracle-inconsistent" not in status
        assert "j_star=1.93621" in status

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

    def test_refused_oracle_leaves_no_output_directory(self, tmp_path, capsys):
        out = tmp_path / "D"
        config = str(CONFIG_DIR / "msa_stress_failure.ini")
        assert main(["rate", "--config", config, "--out", str(out)]) == 1
        status, _ = status_line(capsys)
        assert "problem msa_stress has no Riccati oracle" in status
        assert not out.exists()

    def test_stiff_ode_oracle_gets_its_value(self, tmp_path, capsys, monkeypatch):
        # a stiff spec (h 2 gain^2 P / r is about 45 at 4000 steps, far past
        # RK4's limit); the 5-step scheme's recursion has no step to pick
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
        assert "j_star=0.200056" in status
        assert "error=" not in status

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
        assert f"problem 'bad_lq': {message}" in status_fields(status)["error"]

    def test_brute_force_budget_guard(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            problem={"name": "lq_drift"},
            msa={"n_paths": 500, "n_steps": 30, "control_mode": "deterministic"},
            output={"directory": str(tmp_path / "r")},
        )
        code = main(["rate", "--config", cfg])
        status, _ = status_line(capsys)
        assert code == 1
        assert "brute force" in status
        assert not (tmp_path / "r").exists()

    def test_brute_force_oracle_on_small_instance(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            problem={"name": "lq_drift_small"},
            msa={"n_paths": 500, "n_steps": 5, "control_mode": "deterministic"},
            output={"directory": str(tmp_path / "r")},
        )
        code = main(["rate", "--config", cfg])
        status, _ = status_line(capsys)
        assert code == 0, status
        assert "passed=True" in status

    def test_shipped_deterministic_config_is_rated_by_brute_force(self, tmp_path, capsys):
        # the config names no oracle: a deterministic solve is priced against
        # every action sequence on its own bank, j* = 1.32128
        config = CONFIG_DIR / "small_brute_force.ini"
        assert "[rate]" not in config.read_text(encoding="utf-8")
        assert main(["rate", "--config", str(config), "--out", str(tmp_path / "r")]) == 0
        status, _ = status_line(capsys)
        fields = status_fields(status)
        assert fields["problem"] == "lq_drift_small"
        assert fields["status"] == "rate-ok"
        assert fields["j_star"] == "1.32128"

    @pytest.mark.parametrize("mode", ["per_path", "deterministic"])
    def test_oracle_follows_the_control_mode(self, tmp_path, capsys, monkeypatch, mode):
        # per-path solves are priced by the Euler scheme's LQ optimum, and
        # deterministic ones by brute force on the run's bank, never the other
        calls = []
        for name in ("riccati_lq", "brute_force_optimal"):
            real = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
            )
        cfg = write_config(
            tmp_path,
            problem={"name": "lq_drift_small"},
            msa={"n_paths": 500, "n_steps": 5, "control_mode": mode},
            output={"directory": str(tmp_path / "r")},
        )
        assert main(["rate", "--config", cfg]) == 0
        status, _ = status_line(capsys)
        assert calls == (["riccati_lq"] if mode == "per_path" else ["brute_force_optimal"])
        bench = get_benchmark("lq_drift_small")
        if mode == "per_path":
            j_star = riccati_lq(bench.lq, TimeGrid(5, 1.0)).optimal_value
        else:
            bank = load_config(cfg).msa.bank(bench.problem)
            j_star = oracle_mod.brute_force_optimal(bench.problem, bank).j_star
        assert status_fields(status)["j_star"] == cli._fmt(j_star)


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1
        status, _ = status_line(capsys)
        assert "STATUS command=usage exit=1" in status
        fields = status_fields(status)
        assert fields["error"] == "the following arguments are required: command"

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

    def test_error_with_quotes_in_it_parses_back(self, tmp_path, capsys):
        # error= is shell-quoted like every other field, so shlex.split reads
        # a message holding both quote characters and a backslash back intact
        path = str(tmp_path / "no'such\"file\\x.ini")
        assert main(["run", "--config", path]) == 1
        status, _ = status_line(capsys)
        assert status_fields(status) == {
            "command": "run",
            "exit": "1",
            "error": f"config file not found: {path}",
        }

    def test_unreadable_config_file_exits_one(self, tmp_path, capsys, monkeypatch):
        # a config that exists but cannot be read must not run on defaults;
        # open() is patched, as chmod 000 does not stop root
        path = write_config(tmp_path, problem={"name": "lq_drift_small"})
        real_open = builtins.open

        def guarded(file, *args, **kwargs):
            if file == path:
                raise PermissionError(errno.EACCES, "Permission denied", path)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", guarded)
        with pytest.raises(ConfigError, match=f"^cannot read {re.escape(path)}: Permission denied$"):
            load_config(path)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        status, out = status_line(capsys)
        assert out.count("STATUS ") == 1
        assert status == f"STATUS command=run exit=1 error='cannot read {path}: Permission denied'"
        assert status_fields(status)["error"] == f"cannot read {path}: Permission denied"
        assert not (tmp_path / "o").exists()

    def test_unwritable_output_directory_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "a_file"
        blocker.write_text("", encoding="utf-8")
        config = write_config(
            tmp_path, problem={"name": "lq_drift_small"}, msa={"n_paths": 200, "n_steps": 5}
        )
        assert main(["run", "--config", config, "--out", str(blocker / "x")]) == 1
        status, out = status_line(capsys)
        assert out.count("STATUS ") == 1
        assert status.startswith("STATUS command=run exit=1 error='NotADirectoryError: ")
        error = status_fields(status)["error"]
        assert error == f"NotADirectoryError: [Errno 20] Not a directory: '{blocker / 'x'}'"
