"""Rate fitting, the recursive sequence bound, and CSV round-trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msacontrol import IterationTrace, export_csv, rate_fit, upward_jumps
from msacontrol.diagnostics import RATE_COLUMNS, TRACE_COLUMNS

from conftest import csv_rows
from references import check_recursive_bound


def trace_from_costs(costs, ses=None, accepted=None):
    """Accepted-by-default synthetic trace with iterations numbered from 1."""
    m = len(costs)
    ses = [0.0] * m if ses is None else ses
    accepted = [True] * m if accepted is None else accepted
    trace = IterationTrace(problem_name="synthetic")
    trace.initial_cost = float(costs[0]) + 1.0 if m else 1.0
    trace.initial_cost_se = 0.0
    for i in range(m):
        trace.add_row(i + 1, costs[i], ses[i], 0.0, 0.0, 1.0, 0, accepted[i], 0.0)
    trace.status = "converged_mu"
    return trace


class TestRateFit:
    def test_one_over_n_recovers_slope_minus_one(self):
        trace = trace_from_costs([1.0 / n for n in range(1, 101)])
        rep = rate_fit(trace, 0.0, 10, 100)
        assert rep.status == "rate-ok"
        assert rep.passed
        assert bool(rep.kept.all())
        assert rep.slope == pytest.approx(-1.0, abs=1e-9)
        assert rep.sup_n_times_bn == pytest.approx(1.0, abs=1e-12)
        assert rep.sup_reference == pytest.approx(2.0, rel=1e-12)
        assert np.allclose(rep.n_values * rep.gaps, 1.0, rtol=0.0, atol=1e-12)

    def test_one_over_log_decay_fails(self):
        trace = trace_from_costs([1.0 / math.log(n + 1.0) for n in range(1, 101)])
        rep = rate_fit(trace, 0.0, 10, 100)
        assert rep.status == "rate-fail"
        assert not rep.passed
        assert rep.slope > -0.8
        assert -0.35 < rep.slope < -0.2
        # sup n*b_n keeps growing, so the fallback criterion fails too
        assert rep.sup_n_times_bn > rep.sup_reference

    def test_slope_matches_direct_least_squares(self):
        trace = trace_from_costs([1.0 / math.log(n + 1.0) for n in range(1, 101)])
        rep = rate_fit(trace, 0.0, 10, 100)
        x = np.log(rep.n_values[rep.kept])
        y = np.log(rep.gaps[rep.kept])
        xc = x - x.mean()
        slope_ls = float((xc * (y - y.mean())).sum() / (xc * xc).sum())
        assert rep.slope == pytest.approx(slope_ls, abs=1e-9)

    def test_cost_below_oracle_is_flagged(self):
        trace = trace_from_costs([0.5] * 5, ses=[0.01] * 5)
        rep = rate_fit(trace, 1.0, 1, 5)
        assert rep.status == "oracle-inconsistent"
        assert rep.passed is False
        assert rep.slope is None
        assert rep.sup_n_times_bn is None
        assert not rep.kept.any()

    def test_noise_floor_gives_vacuous_pass(self):
        trace = trace_from_costs([2.0 + 1e-6] * 8, ses=[1e-3] * 8)
        rep = rate_fit(trace, 2.0, 1, 8)
        assert rep.status == "converged-before-rate-window"
        assert rep.passed is True
        assert rep.slope is None

    def test_rejected_rows_are_excluded(self):
        trace = trace_from_costs([1.0 / n for n in range(1, 101)])
        trace.add_row(55, 50.0, 0.0, 0.0, 0.0, 4.0, 2, False, 0.0)
        rep = rate_fit(trace, 0.0, 10, 100)
        assert rep.slope == pytest.approx(-1.0, abs=1e-9)
        assert rep.gaps.max() < 0.2

    def test_single_kept_point_passes_by_sup(self):
        trace = trace_from_costs([1.0 / n for n in range(1, 101)])
        rep = rate_fit(trace, 0.0, 10, 10)
        assert rep.slope is None
        assert rep.sup_n_times_bn == pytest.approx(1.0, abs=1e-12)
        assert rep.passed
        assert rep.status == "rate-ok"

    def test_noise_floor_factor_controls_inclusion(self):
        trace = trace_from_costs([1.0, 0.5], ses=[0.3, 0.3])
        assert rate_fit(trace, 0.0, 1, 2).status == "converged-before-rate-window"
        tight = rate_fit(trace, 0.0, 1, 2, noise_floor_factor=1.0)
        assert tight.kept.tolist() == [True, True]
        assert tight.slope is not None

    def test_window_validation(self):
        trace = trace_from_costs([1.0, 0.5])
        with pytest.raises(ValueError):
            rate_fit(trace, 0.0, 0, 10)
        with pytest.raises(ValueError):
            rate_fit(trace, 0.0, 5, 4)
        with pytest.raises(ValueError):
            rate_fit(trace, 0.0, 10, 20)
        all_rejected = trace_from_costs([1.0, 0.5], accepted=[False, False])
        with pytest.raises(ValueError):
            rate_fit(all_rejected, 0.0, 1, 2)

    def test_solver_trace_passes(self, lq_bench, lq_run):
        _, trace = lq_run
        last = max(n for n, ok in zip(trace.iterations, trace.accepted) if ok)
        rep = rate_fit(trace, lq_bench.continuous_optimum, 1, last)
        assert rep.passed, rep.status


class TestUpwardJumps:
    def test_descent_has_no_jumps(self):
        assert upward_jumps(trace_from_costs([3.0, 2.0, 2.0, 1.5])) == []

    def test_rise_within_noise_is_not_a_jump(self):
        # 2.0 -> 2.5 with se 0.1 each: slack 3 * (0.1 + 0.1) = 0.6
        trace = trace_from_costs([2.0, 2.5], ses=[0.1, 0.1])
        assert upward_jumps(trace) == []
        trace = trace_from_costs([2.0, 2.7], ses=[0.1, 0.1])
        assert upward_jumps(trace) == [2]

    def test_first_row_compares_with_initial_cost(self):
        trace = trace_from_costs([5.0, 4.0])
        trace.initial_cost = 1.0
        assert upward_jumps(trace) == [1]

    def test_rejected_rows_are_skipped(self):
        # row 2 is rejected; row 3 is compared with row 1, not with row 2
        trace = trace_from_costs([2.0, 9.0, 2.5], accepted=[True, False, True])
        assert upward_jumps(trace) == [3]
        trace = trace_from_costs([2.0, 9.0, 1.0], accepted=[True, False, True])
        assert upward_jumps(trace) == []

    def test_every_jump_is_listed(self):
        trace = trace_from_costs([1.0, 2.0, 1.0, 3.0])
        assert upward_jumps(trace) == [2, 4]


class TestRecursiveBound:
    def test_saturating_sequence_passes(self):
        # b_k = 1/(2qk) meets the decrement with equality at k=1, exactly
        # representable for q = 2
        q = 2.0
        b = np.array([1.0 / (2.0 * q * k) for k in range(1, 201)])
        assert b[1] == b[0] - q * b[0] * b[0]
        res = check_recursive_bound(b, q)
        assert res.ok and res.hypothesis_ok and res.bound_ok
        assert res.first_violation is None
        assert res.kind == ""
        assert bool(res)

    def test_constant_sequence_fails_at_one(self):
        res = check_recursive_bound([0.3] * 10, 1.0)
        assert not res.ok
        assert not res.hypothesis_ok
        assert res.kind == "hypothesis"
        assert res.first_violation == 1
        assert not bool(res)

    def test_plain_harmonic_decay_is_too_slow(self):
        # 1/(qk) halves too slowly: the first decrement already demands
        # b_2 <= 0
        q = 1.7
        res = check_recursive_bound([1.0 / (q * k) for k in range(1, 50)], q)
        assert res.kind == "hypothesis"
        assert res.first_violation == 1

    def test_violation_position_is_reported(self):
        q = 2.0
        b = [1.0 / (2.0 * q * k) for k in range(1, 6)]
        b.append(b[-1] * 2.0)
        res = check_recursive_bound(b, q)
        assert res.kind == "hypothesis"
        assert res.first_violation == 5

    def test_zero_sequence_passes(self):
        assert check_recursive_bound(np.zeros(7), 0.5).ok

    def test_validation(self):
        with pytest.raises(ValueError):
            check_recursive_bound([], 1.0)
        with pytest.raises(ValueError):
            check_recursive_bound([[0.1]], 1.0)
        with pytest.raises(ValueError):
            check_recursive_bound([0.1, -0.1], 1.0)
        with pytest.raises(ValueError):
            check_recursive_bound([0.1], 0.0)
        with pytest.raises(ValueError):
            check_recursive_bound([0.1], -2.0)

    @given(
        q=st.floats(0.1, 10.0),
        b1_frac=st.floats(0.0, 0.99),
        eps=st.lists(st.floats(0.0, 0.05), min_size=0, max_size=40),
    )
    @settings(max_examples=120, deadline=None)
    def test_generated_sequences_never_violate(self, q, b1_frac, eps):
        # greedy construction: each term sits at or below the decrement
        # threshold computed with the checker's own expression
        b = [b1_frac / q]
        for e in eps:
            thr = b[-1] - q * b[-1] * b[-1]
            if thr < 0.0:
                break
            b.append(max(0.0, thr - e))
        res = check_recursive_bound(np.array(b), q)
        assert res.ok, (res.kind, res.first_violation)


class TestCsvExport:
    def test_empty_trace_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_csv(IterationTrace(), path)
        assert path.read_text() == ",".join(TRACE_COLUMNS) + "\n"

    def test_single_row_round_trip(self, tmp_path):
        trace = IterationTrace()
        trace.add_row(3, 1.2345678901234567e-07, 0.1, -1e-3, 1e-5, 2.0, 4, True, 12.5)
        path = tmp_path / "one.csv"
        export_csv(trace, path)
        rows = csv_rows(path)
        assert [r["n"] for r in rows] == ["3"]
        assert float(rows[0]["J"]) == 1.2345678901234567e-07
        assert float(rows[0]["J_se"]) == 0.1
        assert float(rows[0]["mu"]) == -1e-3
        assert [r["backtracks"] for r in rows] == ["4"]
        assert [r["accepted"] for r in rows] == ["1"]
        assert float(rows[0]["wall_ms"]) == 12.5

    def test_wall_clock_flag_zeroes_timing(self, tmp_path):
        trace = IterationTrace()
        trace.add_row(1, 0.5, 0.01, 0.0, 0.0, 1.0, 0, True, 833.25)
        path = tmp_path / "zeroed.csv"
        export_csv(trace, path, wall_clock=False)
        assert [r["wall_ms"] for r in csv_rows(path)] == ["0.0"]

    def test_solver_trace_round_trip(self, lq_run, tmp_path):
        _, trace = lq_run
        path = tmp_path / "trace.csv"
        export_csv(trace, path)
        rows = csv_rows(path)
        assert list(rows[0]) == list(TRACE_COLUMNS)
        assert [int(r["n"]) for r in rows] == trace.iterations
        assert [float(r["J"]) for r in rows] == trace.costs
        assert [float(r["J_se"]) for r in rows] == trace.cost_ses
        assert [float(r["mu"]) for r in rows] == trace.mus
        assert [float(r["rho"]) for r in rows] == trace.rhos
        assert [bool(int(r["accepted"])) for r in rows] == trace.accepted

    def test_rate_report_round_trip(self, tmp_path):
        trace = trace_from_costs([1.0 / n for n in range(1, 21)])
        rep = rate_fit(trace, 0.0, 1, 20)
        path = tmp_path / "rate.csv"
        export_csv(rep, path)
        rows = csv_rows(path)
        assert list(rows[0]) == list(RATE_COLUMNS)
        assert [int(r["n"]) for r in rows] == [int(v) for v in rep.n_values]
        assert [float(r["b_n"]) for r in rows] == list(rep.gaps)
        got = np.array([float(r["n_times_bn"]) for r in rows])
        assert np.array_equal(got, rep.n_values * rep.gaps)

    def test_unknown_object_raises_type_error(self, tmp_path):
        with pytest.raises(TypeError):
            export_csv({"not": "a trace"}, tmp_path / "x.csv")

    def test_write_failure_names_the_path(self, tmp_path):
        trace = IterationTrace()
        bad = tmp_path / "missing_dir" / "x.csv"
        with pytest.raises(OSError, match="missing_dir"):
            export_csv(trace, str(bad))
