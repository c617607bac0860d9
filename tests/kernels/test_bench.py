"""Benchmark harness: report round-trips and regression detection.

The regression comparison is geomean-normalized so a uniformly faster
or slower machine never flags; these tests pin both directions — a
single case that slows down relative to its peers is flagged, and a
uniform slowdown across all cases is not.
"""

import pytest

from repro.kernels import (BenchCaseResult, BenchReport,
                           compare_reports, load_report, run_bench,
                           write_report)


def _case(solver="connected", kernel="scalar", n=8, median=1.0,
          capped=False, converged=True):
    return BenchCaseResult(solver=solver, kernel=kernel, n=n,
                           median_s=median, p95_s=median * 1.1,
                           repeats=3, converged=converged,
                           iterations=10, max_iter=3000, capped=capped)


def _report(cases):
    return BenchReport(repeats=3, sizes=[8], cases=cases)


def _timed(kernel, best, median):
    case = _case(kernel=kernel, median=median)
    case.best_s = best
    return case


class TestCompareReports:
    def test_gates_on_best_when_both_reports_carry_it(self):
        # A slow stretch of host load lifts a case's median; once both
        # reports record the fastest repeat, the gate compares that.
        baseline = _report([_timed("scalar", 1.0, 1.0),
                            _timed("running", 1.0, 1.0)])
        noisy = _report([_timed("scalar", 1.0, 2.0),
                         _timed("running", 1.0, 1.0)])
        assert compare_reports(noisy, baseline, tolerance=0.25) == []
        slower = _report([_timed("scalar", 2.0, 2.0),
                          _timed("running", 1.0, 1.0)])
        regressions = compare_reports(slower, baseline, tolerance=0.25)
        assert len(regressions) == 1
        assert "normalized best" in regressions[0]
        # A baseline without best_s falls back to medians.
        legacy = _report([_case(kernel="scalar"), _case(kernel="running")])
        assert compare_reports(noisy, legacy, tolerance=0.25)

    def test_single_case_slowdown_is_flagged(self):
        baseline = _report([_case(kernel="scalar", median=1.0),
                            _case(kernel="running", median=1.0),
                            _case(kernel="vectorized", median=1.0)])
        current = _report([_case(kernel="scalar", median=2.0),
                           _case(kernel="running", median=1.0),
                           _case(kernel="vectorized", median=1.0)])
        regressions = compare_reports(current, baseline, tolerance=0.25)
        assert len(regressions) == 1
        assert regressions[0].startswith("connected/scalar/n=8")

    def test_uniform_slowdown_is_machine_independent(self):
        baseline = _report([_case(kernel="scalar", median=1.0),
                            _case(kernel="running", median=0.5),
                            _case(kernel="vectorized", median=2.0)])
        # Same machine, 3x slower across the board: must not flag.
        current = _report([_case(kernel="scalar", median=3.0),
                           _case(kernel="running", median=1.5),
                           _case(kernel="vectorized", median=6.0)])
        assert compare_reports(current, baseline, tolerance=0.25) == []

    def test_within_tolerance_not_flagged(self):
        baseline = _report([_case(kernel="scalar", median=1.0),
                            _case(kernel="running", median=1.0)])
        current = _report([_case(kernel="scalar", median=1.2),
                           _case(kernel="running", median=1.0)])
        assert compare_reports(current, baseline, tolerance=0.25) == []
        assert compare_reports(current, baseline, tolerance=0.05)

    def test_capping_mismatch_excluded_from_comparison(self):
        # A case whose capping state changed is not comparable: the
        # capped timing is a lower bound, not the same measurement.
        baseline = _report([_case(kernel="scalar", median=1.0,
                                  capped=True),
                            _case(kernel="running", median=1.0),
                            _case(kernel="vectorized", median=1.0)])
        current = _report([_case(kernel="scalar", median=50.0,
                                 capped=False),
                           _case(kernel="running", median=1.0),
                           _case(kernel="vectorized", median=1.0)])
        assert compare_reports(current, baseline, tolerance=0.25) == []

    def test_lost_convergence_is_flagged_not_silently_dropped(self):
        # A case that converged at baseline but not now is a
        # regression even if its (meaningless) timing looks fine — it
        # must be reported, and excluded from the timing geomean so it
        # cannot also mask or manufacture timing drift.
        baseline = _report([_case(kernel="scalar", median=1.0),
                            _case(kernel="running", median=1.0),
                            _case(kernel="vectorized", median=1.0)])
        current = _report([_case(kernel="scalar", median=1.0,
                                 converged=False),
                           _case(kernel="running", median=1.0),
                           _case(kernel="vectorized", median=1.0)])
        regressions = compare_reports(current, baseline, tolerance=0.25)
        assert len(regressions) == 1
        assert regressions[0].startswith("connected/scalar/n=8")
        assert "did not converge" in regressions[0]

    def test_lost_convergence_excluded_from_geomean(self):
        # The non-converged case's timing must not enter the geomean:
        # here its 100x "speedup" would otherwise shift the normalizer
        # and flag the two honest, unchanged cases.
        baseline = _report([_case(kernel="scalar", median=1.0),
                            _case(kernel="running", median=1.0),
                            _case(kernel="vectorized", median=1.0)])
        current = _report([_case(kernel="scalar", median=0.01,
                                 converged=False),
                           _case(kernel="running", median=1.0),
                           _case(kernel="vectorized", median=1.0)])
        regressions = compare_reports(current, baseline, tolerance=0.25)
        assert all(r.startswith("connected/scalar/n=8")
                   for r in regressions)

    def test_capped_nonconverged_pair_stays_comparable(self):
        # Cap-limited cases (e.g. the sweep-capped scalar kernel at
        # large n) are comparable as long as BOTH sides carry the same
        # capped/converged state: their lower-bound timings still
        # drift-detect.
        baseline = _report([_case(kernel="scalar", median=1.0,
                                  capped=True, converged=False),
                            _case(kernel="running", median=1.0),
                            _case(kernel="vectorized", median=1.0)])
        current = _report([_case(kernel="scalar", median=2.0,
                                 capped=True, converged=False),
                           _case(kernel="running", median=1.0),
                           _case(kernel="vectorized", median=1.0)])
        regressions = compare_reports(current, baseline, tolerance=0.25)
        assert len(regressions) == 1
        assert regressions[0].startswith("connected/scalar/n=8")
        assert "did not converge" not in regressions[0]

    def test_fewer_than_two_common_cases_is_vacuous(self):
        baseline = _report([_case(kernel="scalar")])
        current = _report([_case(kernel="scalar", median=100.0)])
        assert compare_reports(current, baseline) == []

    def test_negative_tolerance_rejected(self):
        report = _report([_case()])
        with pytest.raises(ValueError):
            compare_reports(report, report, tolerance=-0.1)


class TestReportSerialization:
    def test_write_load_roundtrip(self, tmp_path):
        report = _report([_case(), _case(kernel="vectorized",
                                         median=0.1)])
        report.speedups["connected/n=8"] = 10.0
        report.notes.append("a note")
        path = write_report(report, tmp_path / "bench.json")
        loaded = load_report(path)
        assert loaded.to_dict() == report.to_dict()

    def test_summary_lines_cover_all_cases(self):
        report = _report([_case(), _case(kernel="vectorized")])
        report.speedups["connected/n=8"] = 3.0
        lines = report.summary_lines()
        text = "\n".join(lines)
        assert "connected/scalar/n=8" in text
        assert "connected/vectorized/n=8" in text
        assert "speedup connected/n=8: 3.0x" in text


class TestRunBench:
    def test_smoke_connected_only(self):
        report = run_bench(sizes=(4,), repeats=2,
                           solvers=("connected",))
        ids = {c.case_id for c in report.cases}
        assert ids == {"connected/scalar/n=4",
                       "connected/running/n=4",
                       "connected/vectorized/n=4"}
        assert "connected/n=4" in report.speedups
        assert all(c.converged for c in report.cases)
        assert all(not c.capped for c in report.cases)
        assert all(c.repeats == 2 and 0 < c.best_s <= c.median_s
                   for c in report.cases)
        # At prices above the mixed region every kernel iterates.
        assert all(c.iterations > 0 for c in report.cases)
        # Telemetry counters were harvested from instrumented solves.
        scalar = next(c for c in report.cases if c.kernel == "scalar")
        assert scalar.counters.get("br_sweeps", 0) > 0

    def test_connected_bound_family(self):
        # Its own solver label: the connected case ids stay unchanged.
        report = run_bench(sizes=(4,), repeats=1,
                           solvers=("connected-bound",))
        ids = {c.case_id for c in report.cases}
        assert ids == {"connected-bound/scalar/n=4",
                       "connected-bound/running/n=4"}
        assert all(c.converged for c in report.cases)
        assert report.speedups == {}

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            run_bench(sizes=(1,))
        with pytest.raises(ValueError):
            run_bench(sizes=(4,), repeats=0)
        with pytest.raises(ValueError):
            run_bench(sizes=(4,), solvers=("connected", "simd"))


class TestCoverageComparison:
    """Missing-case detection distinguishes renames from shrinkage."""

    def test_missing_case_with_no_replacement_is_flagged(self):
        # The vectorized family still runs (n=64), so losing its n=8
        # case is genuine shrinkage, not a subset run.
        baseline = _report([_case(kernel="scalar"),
                            _case(kernel="running"),
                            _case(kernel="vectorized"),
                            _case(kernel="vectorized", n=64)])
        current = _report([_case(kernel="scalar"),
                           _case(kernel="running"),
                           _case(kernel="vectorized", n=64)])
        regressions = compare_reports(current, baseline, tolerance=0.25)
        assert any("connected/vectorized/n=8" in r
                   and "coverage shrank" in r for r in regressions)

    def test_unattempted_case_family_not_flagged(self):
        # A kernel label absent from the ENTIRE current run is an
        # opt-in family the run did not attempt (e.g. `bench` without
        # --multiscenario against a full baseline) — not shrinkage.
        baseline = _report([_case(kernel="scalar"),
                            _case(kernel="vectorized"),
                            _case(kernel="multiscenario"),
                            _case(kernel="multiscenario-serial")])
        current = _report([_case(kernel="scalar"),
                           _case(kernel="vectorized")])
        assert compare_reports(current, baseline, tolerance=0.25) == []

    def test_kernel_rename_is_new_not_missing(self):
        # A case whose kernel label changed (e.g. "vectorized" ->
        # "auto:vectorized") is new coverage, not lost coverage.
        baseline = _report([_case(kernel="scalar"),
                            _case(kernel="running"),
                            _case(kernel="vectorized")])
        current = _report([_case(kernel="scalar"),
                           _case(kernel="running"),
                           _case(kernel="auto:vectorized")])
        assert compare_reports(current, baseline, tolerance=0.25) == []

    def test_subset_run_not_flagged(self):
        # Running a subset of solvers/sizes (e.g. --quick) must not
        # report the deliberately skipped combos as regressions.
        baseline = _report([_case(kernel="scalar"),
                            _case(kernel="running"),
                            _case(kernel="scalar", n=64),
                            _case(kernel="running", n=64)])
        current = _report([_case(kernel="scalar"),
                           _case(kernel="running")])
        assert compare_reports(current, baseline, tolerance=0.25) == []


class TestRunBenchMultiscenario:
    def test_multiscenario_cases_and_speedup(self):
        report = run_bench(sizes=(4,), repeats=1,
                           solvers=("connected",), multiscenario=True)
        ids = {c.case_id for c in report.cases}
        assert "connected/multiscenario/n=4" in ids
        assert "connected/multiscenario-serial/n=4" in ids
        assert "connected/n=4/multiscenario" in report.speedups
        batched = next(c for c in report.cases
                       if c.kernel == "multiscenario")
        assert batched.converged

    def test_sizes_past_crossover_are_note_skipped(self):
        from repro.kernels.bench import _multiscenario_cases
        from repro.kernels.multiscenario import MULTISCENARIO_MAX_N

        big = MULTISCENARIO_MAX_N + 1
        notes = []
        cases = _multiscenario_cases((4, big), notes)
        ids = {c.case_id for c in cases}
        assert "connected/multiscenario/n=4" in ids
        assert f"connected/multiscenario/n={big}" not in ids
        assert any("past the batching crossover" in note
                   for note in notes)
