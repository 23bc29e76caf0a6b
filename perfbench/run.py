#!/usr/bin/env python3
"""Benchmark of the msacontrol solver: `msactl run` solves on three workloads.

Run from the root of the repository:

    python3 perfbench/run.py --workload desk_lq [--seed 12345] [--seconds 36] [--trace 0]
    python3 perfbench/run.py --all [--seed 12345] [--seconds 36]

A run is a closed loop of one client in one process: it solves the
workload's problem through the real entry point,
``msacontrol.cli.main(["run", ...])``, one solve after another, with an
INI config generated from the workload and ``--seed``.  Every solve's
trace CSV and summary are checked (see ``OutputCheck``).

``--trace 0`` measures the end-to-end metrics with tracing off: the
repeated set-up time, then ``--workers 1`` solves until the next one would
end after ``--seconds``, reporting medians.  ``--trace 1`` measures the
per-layer metrics: an untraced ``--workers 1`` and ``--workers 2`` pair,
one solve with spans and counts (``tracing.Tracer``), and one memory pass
under tracemalloc, kept apart because tracemalloc slows the noise bank
several-fold.  The counts of the two traced solves must be identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--all`` runs
every workload in both modes in child processes, prints every metric and
writes ``BENCHMARK.json``.  ``--record`` stores the run's outputs as the
reference for its workload and seed.
"""

import os

# The only source of threads must be --workers: a multi-threaded OpenBLAS
# made the LSMC regressions slower on a 2-core machine.  Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import csv
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from tracing import COEFFICIENTS, GLUE_SPANS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 12345
RUN_SECONDS = 36
N_STEPS = 50
SETUP_REPEATS = 7


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    n_paths: int
    control_mode: str
    why: str


WORKLOADS = (
    Workload(
        "desk_lq", "lq_drift", 10_000, "per_path",
        "desk scale, 21 actions: per-path argmin dominates, ~80% in update_control",
    ),
    Workload(
        "wide_bank", "lq_drift_small", 50_000, "per_path",
        "5x paths, 3 actions: work and memory move to noise, simulation and LSMC",
    ),
    Workload(
        "open_loop_stress", "msa_stress", 10_000, "deterministic",
        "path-averaged argmin branch of update_control, with one rejected candidate",
    ),
)
BY_NAME = {w.name: w for w in WORKLOADS}

# (name, unit, better, bound)
# The timing bounds are as wide as allowed: on the 2-vCPU machine the
# benchmark was written on, the host's speed alone moved solve times by
# 10-20% between runs.  --workers 2 times moved by 20-40%, more than any
# allowed bound, so they are per-layer metrics (see README.md).
END_TO_END = (
    ("solve_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)
# (name, unit, better)
PER_LAYER = (
    ("msa.update_control.s", "s", "lower"),
    ("msa.update_control.calls", "count", "lower"),
    ("msa.update_control.ms_per_call", "ms", "lower"),
    ("msa.update_control.peak_mb", "MB", "lower"),
    ("msa.compute_mu.s", "s", "lower"),
    ("msa.compute_mu.calls", "count", "lower"),
    ("msa.run_msa.self_s", "s", "lower"),
    ("msa.rows", "count", "lower"),
    ("msa.backtracks", "count", "lower"),
    ("msa.candidates", "count", "lower"),
    ("msa.accept_ratio", "fraction", "higher"),
    ("problem.coeff_calls", "count", "lower"),
    *((f"problem.coeff_calls.{c}", "count", "lower") for c in COEFFICIENTS),
    ("problem.rows_per_coeff_call", "rows/call", "higher"),
    ("bsde.solve_adjoint_lsmc.s", "s", "lower"),
    ("bsde.solve_adjoint_lsmc.calls", "count", "lower"),
    ("bsde.solve_adjoint_lsmc.peak_mb", "MB", "lower"),
    ("bsde.regressions_per_s", "1/s", "higher"),
    ("sde.make_noise.s", "s", "lower"),
    ("sde.make_noise.peak_mb", "MB", "lower"),
    ("sde.simulate_forward.s", "s", "lower"),
    ("sde.simulate_forward.calls", "count", "lower"),
    ("sde.simulate_forward.peak_mb", "MB", "lower"),
    ("sde.cost_per_path.s", "s", "lower"),
    ("sde.cost_per_path.calls", "count", "lower"),
    ("sde.path_steps_per_s", "1/s", "higher"),
    ("sde.run_chunked.w2_solve_s", "s", "lower"),
    ("sde.run_chunked.w2_speedup", "ratio", "higher"),
    ("oracle.get_benchmark.s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("diagnostics.export_csv.s", "s", "lower"),
    ("trace.solve_s", "s", "lower"),
    ("trace.coverage", "fraction", "higher"),
    ("trace.overhead_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

SETUP_CHILD = """\
import sys, time
from msacontrol.oracle import get_benchmark
get_benchmark(sys.argv[1])
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""


def benchmark_spec() -> dict:
    """The contents of BENCHMARK.json, generated from the definitions above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def env_info() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def write_config(w: Workload, seed: int, path: Path) -> None:
    path.write_text(
        "[problem]\n"
        f"name = {w.problem}\n"
        "[msa]\n"
        f"n_paths = {w.n_paths}\n"
        f"n_steps = {N_STEPS}\n"
        f"seed = {seed}\n"
        f"control_mode = {w.control_mode}\n",
        encoding="utf-8",
    )


def output_names(w: Workload) -> tuple[str, str]:
    return f"{w.problem}_trace.csv", f"{w.problem}_summary.txt"


class OutputCheck:
    """Correctness of each solve's outputs.

    Every solve must exit 0 and write a trace CSV and summary (wall-clock
    column zeroed by the CLI) identical, byte for byte, to the run's first
    solve, so ``--workers 1`` and ``--workers 2`` agree.  Where a reference
    is stored for the workload and seed, the outputs must equal it; for
    other seeds ``desk_lq`` must land in the Riccati band of ``msactl bench``.
    """

    def __init__(self, w: Workload, seed: int, use_reference: bool = True):
        self.w = w
        self.first: dict[str, bytes] | None = None
        ref_dir = REFERENCES / w.name / str(seed)
        self.reference = read_outputs(w, ref_dir) if use_reference and ref_dir.is_dir() else None
        self._band_error: list[str] | None = None

    def errors(self, code, outputs: dict[str, bytes] | None) -> list[str]:
        if code != 0:
            return [f"msactl run exited {code}"]
        if outputs is None:
            return ["trace CSV or summary missing"]
        errs = []
        if self.first is None:
            self.first = outputs
        elif outputs != self.first:
            errs.append("outputs differ from the run's first (--workers 1) solve")
        if self.reference is not None:
            if outputs != self.reference:
                errs.append("outputs differ from the stored reference")
        elif self.w.name == "desk_lq":
            errs += self.riccati_band()
        return errs

    def riccati_band(self) -> list[str]:
        if self._band_error is None:
            from msacontrol.oracle import get_benchmark, riccati_lq
            from msacontrol.sde import TimeGrid

            bench = get_benchmark(self.w.problem)
            j_star = riccati_lq(bench.lq, TimeGrid(N_STEPS, bench.problem.horizon)).optimal_value
            rows = list(csv.DictReader(io.StringIO(self.first[output_names(self.w)[0]].decode())))
            j = float([r for r in rows if r["accepted"] == "1"][-1]["J"])
            se = float(rows[-1]["J_se"])
            band = max(0.02 * abs(j_star), 3.0 * se + 0.05 * abs(j_star))
            ok = abs(j - j_star) <= band
            self._band_error = [] if ok else [f"J={j!r} outside Riccati band {j_star!r} +- {band!r}"]
        return self._band_error


def read_outputs(w: Workload, directory: Path) -> dict[str, bytes] | None:
    try:
        return {name: (directory / name).read_bytes() for name in output_names(w)}
    except FileNotFoundError:
        return None


class Runner:
    """One closed-loop client solving one workload and seed."""

    def __init__(self, w: Workload, seed: int, work: Path, check: OutputCheck):
        self.w = w
        self.check = check
        self.work = work
        self.config = work / "run.ini"
        write_config(w, seed, self.config)
        self.attempted = 0
        self.failed = 0

    def solve(self, workers: int, tracer=None) -> float:
        """One `msactl run`; returns its wall time and checks its outputs."""
        from msacontrol import cli

        out = self.work / f"out{self.attempted}"
        argv = ["run", "--config", str(self.config), "--out", str(out), "--workers", str(workers)]
        self.attempted += 1
        code = None
        with redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                code = tracer.run(cli.main, argv) if tracer else cli.main(argv)
            except Exception:  # the run reports the failure and goes on
                traceback.print_exc()
            elapsed = time.perf_counter() - start
        outputs = read_outputs(self.w, out)
        shutil.rmtree(out, ignore_errors=True)
        self.fail(self.check.errors(code, outputs), f"solve {self.attempted} (--workers {workers})")
        return elapsed

    def fail(self, errors: list[str], what: str) -> None:
        if errors:
            self.failed += 1
            for e in errors:
                print(f"FAIL {self.w.name} {what}: {e}", file=sys.stderr)


def measure_setup(w: Workload) -> list[float]:
    """Process start until the workload's problem is ready, in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, w.problem],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return times


def run_end_to_end(runner: Runner, seconds: float) -> dict:
    setup = measure_setup(runner.w)
    solve_s = []
    start = time.perf_counter()
    while True:
        solve_s.append(runner.solve(1))
        if len(solve_s) == 1:
            # the high-water mark creeps up over repeated solves in one
            # process, while one `msactl run` process makes a single solve
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        # stop before a solve that would overrun
        if time.perf_counter() - start + statistics.median(solve_s) > seconds:
            break
    print(f"samples: setup={setup} solve_s={solve_s}")
    return {
        "solve_s": statistics.median(solve_s),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss,
    }


def run_traced(runner: Runner) -> dict:
    untraced_s = runner.solve(1)
    w2_s = runner.solve(2)
    timing = Tracer()
    runner.solve(1, tracer=timing)
    memory = Tracer(memory=True)
    tracemalloc.start()
    try:
        runner.solve(1, tracer=memory)
    finally:
        tracemalloc.stop()
    if timing.iteration_trace is None:
        raise RuntimeError("the traced solve did not finish; no per-layer metrics")
    counts, again = timing.counts(), memory.counts()
    if counts != again:
        diff = {k: (counts.get(k), again.get(k)) for k in counts.keys() | again.keys()
                if counts.get(k) != again.get(k)}
        runner.fail([f"counts differ between traced solves: {diff}"], "counts self-check")

    incl = timing.inclusive_s()
    own = timing.self_s()
    calls = timing.calls
    solve_s = timing.root().duration
    glue = sum(own[name] for name in GLUE_SPANS)
    candidates = calls["msa.compute_mu"]
    it = timing.iteration_trace
    backtracks = sum(it.backtracks)
    coeff_total = sum(timing.coeff_calls.values())
    m, n = runner.w.n_paths, N_STEPS
    mb = {name: b / 1e6 for name, b in memory.peak_bytes.items()}
    metrics = {
        "msa.update_control.s": incl["msa.update_control"],
        "msa.update_control.calls": calls["msa.update_control"],
        "msa.update_control.ms_per_call": 1e3 * incl["msa.update_control"] / calls["msa.update_control"],
        "msa.update_control.peak_mb": mb["msa.update_control"],
        "msa.compute_mu.s": incl["msa.compute_mu"],
        "msa.compute_mu.calls": candidates,
        "msa.run_msa.self_s": own["msa.run_msa"],
        "msa.rows": it.n_rows,
        "msa.backtracks": backtracks,
        "msa.candidates": candidates,
        "msa.accept_ratio": (candidates - backtracks) / candidates if candidates else 0.0,
        "problem.coeff_calls": coeff_total,
        **{f"problem.coeff_calls.{c}": timing.coeff_calls[c] for c in COEFFICIENTS},
        "problem.rows_per_coeff_call": timing.coeff_rows / coeff_total,
        "bsde.solve_adjoint_lsmc.s": incl["bsde.solve_adjoint_lsmc"],
        "bsde.solve_adjoint_lsmc.calls": calls["bsde.solve_adjoint_lsmc"],
        "bsde.solve_adjoint_lsmc.peak_mb": mb["bsde.solve_adjoint_lsmc"],
        "bsde.regressions_per_s": 2 * n * calls["bsde.solve_adjoint_lsmc"] / incl["bsde.solve_adjoint_lsmc"],
        "sde.make_noise.s": incl["sde.make_noise"],
        "sde.make_noise.peak_mb": mb["sde.make_noise"],
        "sde.simulate_forward.s": incl["sde.simulate_forward"],
        "sde.simulate_forward.calls": calls["sde.simulate_forward"],
        "sde.simulate_forward.peak_mb": mb["sde.simulate_forward"],
        "sde.cost_per_path.s": incl["sde.cost_per_path"],
        "sde.cost_per_path.calls": calls["sde.cost_per_path"],
        "sde.path_steps_per_s": m * n * calls["sde.simulate_forward"] / incl["sde.simulate_forward"],
        "sde.run_chunked.w2_solve_s": w2_s,
        "sde.run_chunked.w2_speedup": untraced_s / w2_s,
        "oracle.get_benchmark.s": incl["oracle.get_benchmark"],
        "cli.run.self_s": own["cli.run"],
        "diagnostics.export_csv.s": incl["diagnostics.export_csv"],
        "trace.solve_s": solve_s,
        "trace.coverage": (solve_s - glue) / solve_s,
        "trace.overhead_s": solve_s - untraced_s,
    }
    shares = {name: incl[name] / solve_s for name in incl if name not in GLUE_SPANS}
    print("layer shares of trace.solve_s: " + ", ".join(
        f"{k}={v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    return metrics


def run_one(args) -> int:
    if not (SRC / "msacontrol" / "__init__.py").is_file():
        print(f"error: no msacontrol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import msacontrol  # noqa: F401  (fails here, before any result, if the package is broken)

    w = BY_NAME[args.workload]
    work = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(w, args.seed, work, OutputCheck(w, args.seed, use_reference=not args.record))
        metrics = run_traced(runner) if args.trace else run_end_to_end(runner, args.seconds)
        if args.record and runner.failed == 0:
            ref_dir = REFERENCES / w.name / str(args.seed)
            ref_dir.mkdir(parents=True, exist_ok=True)
            for name, data in runner.check.first.items():
                (ref_dir / name).write_bytes(data)
            print(f"recorded reference outputs in {ref_dir.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    print("env: " + json.dumps(env_info()))
    for name, value in metrics.items():
        print(f"metric {w.name} {name} = {value} {UNITS[name]}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in both modes, each in its own process."""
    failed = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w.name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            for line in lines[:-1]:
                if not line.startswith("metric "):
                    print(f"{w.name} trace={trace} {line}")
            if done.returncode != 0 or not lines:
                print(f"FAIL {w.name} trace={trace}: exit {done.returncode}")
                failed += 1
                continue
            result = json.loads(lines[-1])
            failed += result["failed"]
            print(f"{w.name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {w.name:17s} {name:36s} {m['value']:>16.6g} {m['unit']}")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n", encoding="utf-8")
    print("wrote BENCHMARK.json")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(BY_NAME))
    target.add_argument("--all", action="store_true", help="run every workload, write BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store this run's outputs as the reference")
    args = parser.parse_args(argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
