"""`msactl run` still writes the benchmark's stored reference outputs.

``perfbench/run.py`` checks every solve's trace CSV and summary against
``perfbench/references/<workload>/<seed>/``, but only when the benchmark
runs.  This test runs each workload once at every stored seed through the
same entry point and config, so a change that moves any output byte
fails the suite.  It reads files under ``perfbench/`` and writes only to
a temporary directory.
"""

import importlib.util
import io
import itertools
import sys
from contextlib import redirect_stdout
from pathlib import Path

import msacontrol.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
STORED_SEEDS = sorted({d.name for d in (PERFBENCH / "references").glob("*/*") if d.is_dir()})


def load(monkeypatch, name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_workload_matches_its_reference(tmp_path, monkeypatch):
    # run.py pins OPENBLAS_NUM_THREADS and imports its tracer as `tracing`
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    load(monkeypatch, "tracing", PERFBENCH / "tracing.py")
    bench = load(monkeypatch, "perfbench_run", PERFBENCH / "run.py")
    assert STORED_SEEDS
    for seed, w in itertools.product(STORED_SEEDS, bench.WORKLOADS):
        work = tmp_path / seed / w.name
        work.mkdir(parents=True)
        config = work / "run.ini"
        bench.write_config(w, seed, config)
        with redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", str(config), "--out", str(work)])
        assert code == 0, (seed, w.name)
        reference = bench.REFERENCES / w.name / seed
        for name in bench.output_names(w):
            assert (work / name).read_bytes() == (reference / name).read_bytes(), (seed, w.name, name)
