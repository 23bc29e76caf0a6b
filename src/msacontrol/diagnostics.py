"""Convergence-rate analysis, descent checks and CSV export, all over trace rows."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .msa import IterationTrace, TraceRow


_NOISE_FLOOR_FACTOR = 5.0  # gaps within this many standard errors are noise


@dataclass(frozen=True)
class RateReport:
    """Optimality-gap decay fitted over a window of accepted iterations.

    gaps holds b_n = J_n - j_star for every accepted iteration in the
    window; kept marks the entries above the noise floor that enter the
    fit.  passed is true when either the log-log slope is at most -0.8
    or sup n*b_n stays within twice its value at the first kept point.
    """

    n_values: np.ndarray
    gaps: np.ndarray
    kept: np.ndarray
    slope: float | None
    sup_n_times_bn: float | None
    sup_reference: float | None
    passed: bool
    status: str


def rate_fit(
    trace: IterationTrace,
    j_star: float,
    n_min: int,
    n_max: int,
) -> RateReport:
    """Fit the decay of b_n = J_n - j_star on accepted iterations.

    Iterations with b_n <= _NOISE_FLOOR_FACTOR * se are excluded from the
    fit; if everything is excluded the run converged before the window
    and the report passes vacuously.  A gap below -3 se marks the oracle
    and the run as mutually inconsistent.
    """
    if n_min < 1 or n_max < n_min:
        raise ValueError(f"bad rate window [{n_min}, {n_max}]")
    rows = [row for row in trace.accepted_rows if n_min <= row.n <= n_max]
    if not rows:
        raise ValueError(f"trace has no accepted iterations in [{n_min}, {n_max}]")
    n_values = np.array([row.n for row in rows], dtype=float)
    gaps = np.array([row.J - j_star for row in rows])
    gap_ses = np.array([row.J_se for row in rows])

    kept = gaps > _NOISE_FLOOR_FACTOR * gap_ses
    slope = sup_val = reference = None
    if np.any(gaps < -3.0 * gap_ses):
        kept[:] = False
        passed, status = False, "oracle-inconsistent"
    elif not kept.any():
        passed, status = True, "converged-before-rate-window"
    else:
        nk = n_values[kept]
        bk = gaps[kept]
        n_times = nk * bk
        sup_val = float(n_times.max())
        reference = 2.0 * float(n_times[0])
        if nk.size >= 2:
            slope = float(np.polyfit(np.log(nk), np.log(bk), 1)[0])
        passed = (slope is not None and slope <= -0.8) or sup_val <= reference
        status = "rate-ok" if passed else "rate-fail"
    return RateReport(
        n_values=n_values,
        gaps=gaps,
        kept=kept,
        slope=slope,
        sup_n_times_bn=sup_val,
        sup_reference=reference,
        passed=passed,
        status=status,
    )


def upward_jumps(trace: IterationTrace) -> list[int]:
    """Accepted iterations whose cost rose beyond Monte-Carlo noise.

    Each accepted J is compared with the previous accepted one, starting
    from the initial cost; a rise of more than 3 (se + previous se) is a
    jump.  An empty list means the accepted costs descend within noise.
    """
    prev_j, prev_se = trace.initial_cost, trace.initial_cost_se
    jumps = []
    for row in trace.accepted_rows:
        if row.J > prev_j + 3.0 * (row.J_se + prev_se):
            jumps.append(row.n)
        prev_j, prev_se = row.J, row.J_se
    return jumps


TRACE_COLUMNS = TraceRow._fields + ("wall_ms",)
RATE_COLUMNS = ("n", "b_n", "n_times_bn")


def _num(x) -> str:
    # repr of a python float is the shortest round-tripping decimal
    return repr(float(x))


def export_csv(obj, path) -> None:
    """Write a trace or a rate report as CSV.

    Numbers are rendered with shortest round-trip decimals, so reading
    the file back reproduces the in-memory doubles exactly.  A trace's
    wall_ms column is always 0.0, which keeps repeated runs
    byte-identical.
    """
    if isinstance(obj, IterationTrace):
        header = TRACE_COLUMNS
        rows = [
            [str(row.n), *map(_num, row[1:6]), str(row.backtracks), str(int(row.accepted)), _num(0.0)]
            for row in obj.rows
        ]
    elif isinstance(obj, RateReport):
        header = RATE_COLUMNS
        rows = [
            [str(int(n)), _num(b), _num(n * b)]
            for n, b in zip(obj.n_values, obj.gaps)
        ]
    else:
        raise TypeError(f"cannot export {type(obj).__name__} as CSV")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"failed to write CSV to {path}: {exc}") from exc
