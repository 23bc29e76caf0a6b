"""The names the benchmark reaches into from outside still resolve.

``perfbench/tracing.py`` wraps functions of ``msacontrol.msa`` and
``msacontrol.cli`` and the coefficient callables of a benchmark problem
by name; a refactor that removes one of those names breaks
``perfbench/run.py --trace 1`` without failing any other test.  Likewise
``perfbench/run.py``'s Riccati-band check, which runs only at seeds with
no stored reference, reads ``Benchmark.lq`` and ``riccati_lq``.  A
traced solve reads the iteration trace's ``n_rows`` and ``backtracks``.
"""

import io
from contextlib import redirect_stdout

import msacontrol.cli as cli
import msacontrol.msa as msa

from test_perfbench_references import PERFBENCH, load

TRACING = PERFBENCH / "tracing.py"


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    tracing = load(monkeypatch, "perfbench_tracing", TRACING)
    hooks = [(msa, attr) for attr, _ in tracing.MSA_LAYERS]
    hooks += [(cli, attr) for attr, _ in tracing.CLI_LAYERS]
    originals = [getattr(mod, attr) for mod, attr in hooks]
    tracer = tracing.Tracer()
    with tracer.installed():
        bench = cli.get_benchmark("lq_drift_small")
        for (mod, attr), fn in zip(hooks, originals):
            assert getattr(mod, attr) is not fn, attr
    assert tracer.calls["oracle.get_benchmark"] == 1
    assert bench.name == "lq_drift_small"
    p = bench.problem
    for name in tracing.COEFFICIENTS:
        assert getattr(p, name).__name__ == "counted", name
    assert p.action_terms is not None  # the traced problem keeps the fast path
    for (mod, attr), fn in zip(hooks, originals):
        assert getattr(mod, attr) is fn, attr


def test_riccati_band_check_accepts_stored_outputs(monkeypatch):
    # run.py pins OPENBLAS_NUM_THREADS and imports its tracer as `tracing`
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    load(monkeypatch, "tracing", TRACING)
    bench = load(monkeypatch, "perfbench_run", PERFBENCH / "run.py")
    w = bench.BY_NAME["desk_lq"]
    check = bench.OutputCheck(w, 1)
    assert check.reference is None  # no stored reference at seed 1
    check.first = bench.read_outputs(w, bench.REFERENCES / "desk_lq" / "12345")
    assert check.riccati_band() == []


def test_traced_solve_counts_the_trace_rows(monkeypatch, tmp_path):
    # msa_stress rejects a candidate here, so the replay path runs under the tracer
    tracing = load(monkeypatch, "perfbench_tracing", TRACING)
    config = tmp_path / "run.ini"
    config.write_text(
        "[problem]\nname = msa_stress\n"
        "[msa]\nn_paths = 2000\nn_steps = 10\ncontrol_mode = deterministic\n",
        encoding="utf-8",
    )
    tracer = tracing.Tracer()
    with redirect_stdout(io.StringIO()):
        code = tracer.run(cli.main, ["run", "--config", str(config), "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "msa_stress_summary.txt").read_text(encoding="utf-8").splitlines()
    summary = dict(line.split(": ", 1) for line in lines)
    counts = tracer.counts()
    assert counts["rows"] == int(summary["iterations"])
    assert counts["backtracks"] == int(summary["total_backtracks"]) >= 1
