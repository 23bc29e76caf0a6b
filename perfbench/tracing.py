"""Layer tracing for the msacontrol benchmark, applied from outside the package.

Nothing under ``src/`` is edited.  While a ``Tracer`` is installed it
replaces, by attribute assignment:

- the public functions that ``run_msa`` looks up in ``msacontrol.msa``
  (noise bank, forward simulation, cost, LSMC adjoint, control update, mu);
- the names ``msacontrol.cli`` imported for ``msactl run`` (``run_msa``,
  ``get_benchmark``, ``export_csv``);
- the eight coefficient callables of the solved problem, through
  ``ControlProblem.replace`` on the benchmark that ``get_benchmark`` returns.

Each wrapped call records a span (name, start, end, parent) in memory.
Coefficient callables are only counted (calls and rows), because timing
thousands of sub-millisecond calls would cost more than it explains.
Counting is not thread-safe: trace only ``--workers 1`` solves.
"""

from __future__ import annotations

import dataclasses
import math
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (attribute of msacontrol.msa, span name)
MSA_LAYERS = (
    ("make_noise", "sde.make_noise"),
    ("simulate_forward", "sde.simulate_forward"),
    ("cost_per_path", "sde.cost_per_path"),
    ("solve_adjoint_lsmc", "bsde.solve_adjoint_lsmc"),
    ("update_control", "msa.update_control"),
    ("compute_mu", "msa.compute_mu"),
)
# (attribute of msacontrol.cli, span name)
CLI_LAYERS = (
    ("get_benchmark", "oracle.get_benchmark"),
    ("run_msa", "msa.run_msa"),
    ("export_csv", "diagnostics.export_csv"),
)
ROOT_SPAN = "cli.run"
# spans whose self time is glue code rather than a named layer
GLUE_SPANS = (ROOT_SPAN, "msa.run_msa")
COEFFICIENTS = (
    "drift",
    "diffusion",
    "running_cost",
    "terminal_cost",
    "drift_jac_x",
    "diffusion_jac_x",
    "running_cost_grad_x",
    "terminal_cost_grad_x",
)
_STATE_ONLY = ("terminal_cost", "terminal_cost_grad_x")  # called as fn(x)
MEMORY_LAYERS = (
    "sde.make_noise",
    "sde.simulate_forward",
    "bsde.solve_adjoint_lsmc",
    "msa.update_control",
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counts of one traced solve.

    With ``memory=True`` the spans in MEMORY_LAYERS also record the peak
    tracemalloc allocation above their entry level; the caller starts and
    stops tracemalloc around the solve.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span | None] = []
        self.calls: Counter = Counter()
        self.coeff_calls: Counter = Counter()
        self.coeff_rows = 0
        self.peak_bytes: defaultdict = defaultdict(int)
        self.iteration_trace = None
        self._stack: list[int] = []
        self._solving = False

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(idx)
            self.calls[name] += 1
            measure_memory = self.memory and name in MEMORY_LAYERS
            if measure_memory:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    self.peak_bytes[name] = max(self.peak_bytes[name], peak)
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent)

        return traced

    def _solve(self, run_msa):
        # coefficient calls count only inside the solve, not in the
        # construction-time shape probe of ControlProblem
        from msacontrol.msa import DescentFailureError

        def solve(*args, **kwargs):
            self._solving = True
            try:
                result = run_msa(*args, **kwargs)
            except DescentFailureError as exc:
                self.iteration_trace = exc.trace
                raise
            finally:
                self._solving = False
            self.iteration_trace = result[1]
            return result

        return solve

    def _count(self, name: str, fn):
        state_only = name in _STATE_ONLY

        def counted(*args):
            if self._solving:
                x = args[0] if state_only else args[1]
                self.coeff_calls[name] += 1
                self.coeff_rows += math.prod(x.shape[:-1])
            return fn(*args)

        return counted

    def _instrument(self, get_benchmark):
        def instrumented(name):
            bench = get_benchmark(name)
            p = bench.problem
            coeffs = {c: self._count(c, getattr(p, c)) for c in COEFFICIENTS}
            return dataclasses.replace(bench, problem=p.replace(**coeffs))

        return instrumented

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        import msacontrol.cli as cli
        import msacontrol.msa as msa

        patches = [(msa, attr, self.wrap(name, getattr(msa, attr))) for attr, name in MSA_LAYERS]
        for attr, name in CLI_LAYERS:
            fn = self.wrap(name, getattr(cli, attr))
            if attr == "run_msa":
                fn = self._solve(fn)
            elif attr == "get_benchmark":
                fn = self._instrument(fn)
            patches.append((cli, attr, fn))
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, fn in patches:
                setattr(mod, attr, fn)
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def run(self, main, argv):
        """Call ``main(argv)`` under a root span, with the wrappers installed."""
        with self.installed():
            return self.wrap(ROOT_SPAN, main)(argv)

    # --- summaries -----------------------------------------------------

    def root(self) -> Span:
        return next(s for s in self.spans if s.name == ROOT_SPAN)

    def inclusive_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration
        return out

    def self_s(self) -> dict[str, float]:
        """Per-layer self time: span durations minus their children's."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration
            if s.parent is not None:
                out[self.spans[s.parent].name] -= s.duration
        return out

    def counts(self) -> dict[str, int]:
        """Every count that must repeat exactly across solves of one input."""
        out = {f"calls.{k}": v for k, v in sorted(self.calls.items())}
        out.update({f"coeff.{k}": v for k, v in sorted(self.coeff_calls.items())})
        out["coeff_rows"] = self.coeff_rows
        t = self.iteration_trace
        if t is not None:
            out["rows"] = t.n_rows
            out["backtracks"] = sum(t.backtracks)
        return out
