"""Convergence-rate analysis, descent checks, CSV export."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .msa import IterationTrace


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
    gap_ses: np.ndarray
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
    noise_floor_factor: float = 5.0,
) -> RateReport:
    """Fit the decay of b_n = J_n - j_star on accepted iterations.

    Iterations with b_n <= noise_floor_factor * se are excluded from the
    fit; if everything is excluded the run converged before the window
    and the report passes vacuously.  A gap below -3 se marks the oracle
    and the run as mutually inconsistent.
    """
    if n_min < 1 or n_max < n_min:
        raise ValueError(f"bad rate window [{n_min}, {n_max}]")
    rows = [
        (n, j, se)
        for n, j, se, ok in zip(
            trace.iterations, trace.costs, trace.cost_ses, trace.accepted
        )
        if ok and n_min <= n <= n_max
    ]
    if not rows:
        raise ValueError(
            f"trace has no accepted iterations in [{n_min}, {n_max}]"
        )
    n_values = np.array([r[0] for r in rows], dtype=float)
    gaps = np.array([r[1] - j_star for r in rows])
    gap_ses = np.array([r[2] for r in rows])

    if np.any(gaps < -3.0 * gap_ses):
        return RateReport(
            n_values=n_values,
            gaps=gaps,
            gap_ses=gap_ses,
            kept=np.zeros(len(gaps), dtype=bool),
            slope=None,
            sup_n_times_bn=None,
            sup_reference=None,
            passed=False,
            status="oracle-inconsistent",
        )

    kept = gaps > noise_floor_factor * gap_ses
    if not kept.any():
        return RateReport(
            n_values=n_values,
            gaps=gaps,
            gap_ses=gap_ses,
            kept=kept,
            slope=None,
            sup_n_times_bn=None,
            sup_reference=None,
            passed=True,
            status="converged-before-rate-window",
        )

    nk = n_values[kept]
    bk = gaps[kept]
    n_times = nk * bk
    sup_val = float(n_times.max())
    reference = 2.0 * float(n_times[0])
    slope = None
    if nk.size >= 2:
        coeffs = np.polyfit(np.log(nk), np.log(bk), 1)
        slope = float(coeffs[0])
    slope_ok = slope is not None and slope <= -0.8
    sup_ok = sup_val <= reference
    passed = slope_ok or sup_ok
    return RateReport(
        n_values=n_values,
        gaps=gaps,
        gap_ses=gap_ses,
        kept=kept,
        slope=slope,
        sup_n_times_bn=sup_val,
        sup_reference=reference,
        passed=passed,
        status="rate-ok" if passed else "rate-fail",
    )


def upward_jumps(trace: IterationTrace) -> list[int]:
    """Accepted iterations whose cost rose beyond Monte-Carlo noise.

    Each accepted J is compared with the previous accepted one, starting
    from the initial cost; a rise of more than 3 (se + previous se) is a
    jump.  An empty list means the accepted costs descend within noise.
    """
    prev_j, prev_se = trace.initial_cost, trace.initial_cost_se
    jumps = []
    for n, j, se, ok in zip(
        trace.iterations, trace.costs, trace.cost_ses, trace.accepted
    ):
        if not ok:
            continue
        if j > prev_j + 3.0 * (se + prev_se):
            jumps.append(n)
        prev_j, prev_se = j, se
    return jumps


TRACE_COLUMNS = ("n", "J", "J_se", "mu", "mu_se", "rho", "backtracks", "accepted", "wall_ms")
RATE_COLUMNS = ("n", "b_n", "n_times_bn")


def _num(x) -> str:
    # repr of a python float is the shortest round-tripping decimal
    return repr(float(x))


def export_csv(obj, path, wall_clock: bool = True) -> None:
    """Write a trace or a rate report as CSV.

    Numbers are rendered with shortest round-trip decimals, so reading
    the file back reproduces the in-memory doubles exactly.  Passing
    wall_clock=False zeroes the wall_ms column, which makes repeated
    runs byte-identical.
    """
    if isinstance(obj, IterationTrace):
        header = TRACE_COLUMNS
        rows = [
            [
                str(n),
                _num(j),
                _num(j_se),
                _num(mu),
                _num(mu_se),
                _num(rho),
                str(bt),
                str(int(acc)),
                _num(wall if wall_clock else 0.0),
            ]
            for n, j, j_se, mu, mu_se, rho, bt, acc, wall in zip(
                obj.iterations,
                obj.costs,
                obj.cost_ses,
                obj.mus,
                obj.mu_ses,
                obj.rhos,
                obj.backtracks,
                obj.accepted,
                obj.wall_ms,
            )
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
