"""The names the benchmark's tracer patches from outside still resolve.

``perfbench/tracing.py`` wraps functions of ``msacontrol.msa`` and
``msacontrol.cli`` and the coefficient callables of a benchmark problem
by name; a refactor that removes one of those names breaks
``perfbench/run.py --trace 1`` without failing any other test.
"""

import importlib.util
import sys
from pathlib import Path

import msacontrol.cli as cli
import msacontrol.msa as msa

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    tracing = load_tracing(monkeypatch)
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
