"""Shared fixtures.

The expensive solver runs (full-scale benchmark solves, the N=200
refinement, the classical-mode stress demo) are session-scoped so the
unit tests and the acceptance tests share one computation each.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msacontrol
from msacontrol import get_benchmark
from msacontrol.msa import MsaConfig, run_msa
from msacontrol.oracle import brute_force_optimal


@pytest.fixture(scope="session")
def lq_bench():
    return get_benchmark("lq_drift")


@pytest.fixture(scope="session")
def ctrl_bench():
    return get_benchmark("ctrl_diffusion")


@pytest.fixture(scope="session")
def stress_bench():
    return get_benchmark("msa_stress")


@pytest.fixture(scope="session")
def suite_benches(lq_bench, ctrl_bench, stress_bench):
    return [lq_bench, ctrl_bench, stress_bench]


@pytest.fixture(scope="session")
def lq_run(lq_bench):
    """Full-scale default-config solve of the drift-control benchmark."""
    return run_msa(lq_bench.problem, MsaConfig())


@pytest.fixture(scope="session")
def ctrl_run(ctrl_bench):
    return run_msa(ctrl_bench.problem, MsaConfig())


@pytest.fixture(scope="session")
def stress_run(stress_bench):
    return run_msa(stress_bench.problem, MsaConfig())


@pytest.fixture(scope="session")
def suite_runs(lq_run, ctrl_run, stress_run):
    return {"lq_drift": lq_run, "ctrl_diffusion": ctrl_run, "msa_stress": stress_run}


@pytest.fixture(scope="session")
def stress_classical_run(stress_bench):
    """Plain successive approximations: penalty pinned at zero, no backtracking."""
    cfg = MsaConfig(
        classical=True,
        rho_initial=0.0,
        max_iterations=20,
        tol_mu=1e-12,
        tol_dj=1e-15,
    )
    return run_msa(stress_bench.problem, cfg)


@pytest.fixture(scope="session")
def lq_run_n200(lq_bench):
    return run_msa(lq_bench.problem, MsaConfig(n_steps=200))


@pytest.fixture(scope="session")
def small_results():
    """Deterministic-mode solves of the small instances plus exhaustive optima.

    Both use N=5, three actions, M=2000, and share the solver's noise bank
    so the comparison is paired.
    """
    out = {}
    for name in ("lq_drift_small", "ctrl_diffusion_small"):
        bench = get_benchmark(name)
        cfg = MsaConfig(n_paths=2000, n_steps=5, control_mode="deterministic")
        control, trace = run_msa(bench.problem, cfg)
        bf = brute_force_optimal(bench.problem, cfg.bank(bench.problem))
        out[name] = (control, trace, bf)
    return out


def combined_se(se_a, se_b):
    """Conservative standard error for a difference of two estimates."""
    return float(se_a) + float(se_b)


def csv_rows(path):
    """The rows of a CSV file with a header line, as dicts of raw strings."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def fresh_interpreter_loads(code, module):
    """Whether a new Python process that runs code has imported module."""
    src = str(Path(msacontrol.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint({module!r} in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return out.stdout.strip() == "True"


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(2026)
