import pytest

from modeval.sandbox import (
    INTERPRETER_OVERHEAD_BOUND,
    KILL_GRACE,
    MB,
    ComparePolicy,
    ExecStatus,
    InfrastructureError,
    Judge,
    ResourceLimits,
    VerdictCache,
    compare_output,
    judge,
    judge_batch,
    run_once,
)

from conftest import make_problem

FAST = ResourceLimits(wall_time=5.0)


class TestRunOnce:
    def test_echo(self):
        report = run_once("import sys; sys.stdout.write(sys.stdin.read())", "7\n", FAST)
        assert report.status is ExecStatus.OK
        assert report.stdout == "7\n"
        assert report.exit_code == 0
        assert report.wall_time_used > 0

    def test_busy_loop_killed_as_timeout(self):
        limits = ResourceLimits(wall_time=1.0)
        report = run_once("while True: pass", "", limits)
        assert report.status is ExecStatus.TIMEOUT
        assert 1.0 <= report.wall_time_used <= 1.0 + KILL_GRACE

    def test_allocation_peak_memory_bounds(self):
        # 100 MB allocation: the reading covers it but not much more
        n = 100 * MB
        report = run_once(f"b = bytearray({n})\nprint(len(b))", "", FAST)
        assert report.status is ExecStatus.OK
        assert n <= report.peak_memory <= n + INTERPRETER_OVERHEAD_BOUND

    def test_crash_is_runtime_error_and_harness_survives(self):
        report = run_once("raise RuntimeError('boom')", "", FAST)
        assert report.status is ExecStatus.RUNTIME_ERROR
        assert report.exit_code == 1
        assert "RuntimeError" in report.stderr

    def test_segfault_style_exit(self):
        report = run_once("import os, signal; os.kill(os.getpid(), signal.SIGSEGV)", "", FAST)
        assert report.status is ExecStatus.RUNTIME_ERROR
        assert report.exit_code < 0

    def test_memory_breach_reported_as_oom(self):
        limits = ResourceLimits(wall_time=5.0, memory=128 * MB)
        report = run_once("b = bytearray(512 * 1024 * 1024)\nprint('ok')", "", limits)
        assert report.status is ExecStatus.OOM

    def test_output_overflow(self):
        limits = ResourceLimits(wall_time=5.0, output_cap=64 * 1024)
        report = run_once("print('x' * 1000000)", "", limits)
        assert report.status is ExecStatus.OUTPUT_OVERFLOW
        assert len(report.stdout.encode()) <= 64 * 1024

    def test_missing_interpreter_is_infrastructure_error(self):
        with pytest.raises(InfrastructureError):
            run_once("print(1)", "", FAST, runner="no-such-interpreter-xyz {file}")

    def test_runner_template(self):
        import sys
        report = run_once("print(40 + 2)", "", FAST, runner=f"{sys.executable} {{file}}")
        assert report.stdout == "42\n"

    def test_keep_scratch(self, tmp_path):
        run_once("print(1)", "", FAST, scratch_root=tmp_path, keep_scratch=True)
        kept = list(tmp_path.iterdir())
        assert len(kept) == 1
        assert (kept[0] / "main.py").exists()

    def test_scratch_cleaned_by_default(self, tmp_path):
        run_once("print(1)", "", FAST, scratch_root=tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestResourceLimits:
    @pytest.mark.parametrize("kwargs", [
        {"wall_time": 0}, {"memory": 0}, {"output_cap": -1},
    ])
    def test_positive_limits_required(self, kwargs):
        with pytest.raises(ValueError):
            ResourceLimits(**kwargs)


class TestCompareOutput:
    def test_trailing_whitespace_invariance(self):
        assert compare_output("1 2 3\n", "1 2 3") is True

    def test_float_tolerance(self):
        assert compare_output("0.500000", "0.5000001") is True  # |delta| = 1e-7 < 1e-6
        assert compare_output("0.5", "0.51") is False

    def test_plain_mismatch(self):
        assert compare_output("yes", "no") is False

    def test_token_count_mismatch(self):
        assert compare_output("1 2", "1 2 3") is False

    def test_numeric_equivalence_across_formats(self):
        assert compare_output("1", "1.0") is True

    def test_nan_never_matches_numerically(self):
        assert compare_output("nan", "nan") is True    # exact string equality
        assert compare_output("nan", "NaN") is False   # no numeric comparison for nan

    def test_exact_mode(self):
        policy = ComparePolicy(mode="exact")
        assert compare_output("a b\n", "a b", policy) is True
        assert compare_output("a  b", "a b", policy) is False

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            compare_output("a", "a", ComparePolicy(mode="fuzzy"))


class TestJudge:
    def test_reference_solution_self_consistency(self):
        problem = make_problem(
            solutions=("a, b = map(int, input().split())\nprint(a + b)",),
            tests=(("1 2\n", "3\n"), ("5 7\n", "12\n")),
        )
        verdict = judge(problem.solutions[0], problem, FAST)
        assert verdict.passed
        assert verdict.first_failure is None
        assert verdict.avg_time > 0
        assert verdict.avg_peak_memory > 0

    def test_constant_program_first_failure_zero(self):
        problem = make_problem(tests=(("a\n", "x\n"), ("b\n", "7\n"), ("c\n", "y\n")))
        verdict = judge("print(7)", problem, FAST)
        assert not verdict.passed
        assert verdict.first_failure == 0
        assert [m for _, m in verdict.per_test] == [False, True, False]

    def test_fail_fast_stops_early(self):
        problem = make_problem(tests=(("a\n", "x\n"), ("b\n", "7\n"), ("c\n", "y\n")))
        verdict = judge("print(7)", problem, FAST, fail_fast=True)
        assert not verdict.passed
        assert len(verdict.per_test) == 1

    def test_untestable_problem_rejected(self):
        problem = make_problem(tests=(), untestable=True)
        with pytest.raises(ValueError):
            judge("print(1)", problem, FAST)

    def test_averages_over_executed_tests(self):
        problem = make_problem(tests=(("1\n", "1\n"), ("2\n", "2\n")))
        verdict = judge("print(input())", problem, FAST)
        times = [r.wall_time_used for r, _ in verdict.per_test]
        assert verdict.avg_time == pytest.approx(sum(times) / len(times))


class TestJudgeBatch:
    def test_parallel_matches_sequential(self):
        problems = [
            make_problem(f"p{i}", tests=((f"{i}\n", f"{i * 2}\n"),))
            for i in range(6)
        ]
        # half the programs are wrong
        tasks = [
            ("print(int(input()) * 2)" if i % 2 == 0 else "print(0)", p)
            for i, p in enumerate(problems)
        ]
        seq = judge_batch(tasks, Judge(FAST), workers=1)
        par = judge_batch(tasks, Judge(FAST), workers=4)
        assert [[m for _, m in v.per_test] for v in seq] == \
               [[m for _, m in v.per_test] for v in par]
        assert [v.passed for v in seq] == [i % 2 == 0 for i in range(6)]

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            judge_batch([], workers=0)

    def test_duplicate_pair_judged_once(self, monkeypatch):
        from modeval import sandbox

        calls = []
        real = sandbox.judge
        monkeypatch.setattr(sandbox, "judge", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        problem = make_problem(tests=(("1\n", "1\n"),))
        tasks = [("print(input())", problem), ("print(input())", problem)]
        first, second = judge_batch(tasks, Judge(FAST), workers=2)
        assert len(calls) == 1
        assert first == second and first.passed


class TestVerdictCache:
    def test_hit_returns_equal_verdict(self, tmp_path):
        cache = VerdictCache(tmp_path / "verdicts")
        problem = make_problem(tests=(("1\n", "1\n"),))
        first = cache.judge("print(input())", problem, FAST)
        second = cache.judge("print(input())", problem, FAST)
        assert cache.hits == 1 and cache.misses == 1
        assert second == first  # every field read back from disk
        assert second.passed == first.passed
        assert second.avg_time == first.avg_time  # replayed, not re-measured
        assert [m for _, m in second.per_test] == [m for _, m in first.per_test]

    def test_key_sensitive_to_tests_and_limits(self, tmp_path):
        cache = VerdictCache(tmp_path / "verdicts")
        p1 = make_problem(tests=(("1\n", "1\n"),))
        p2 = make_problem(tests=(("1\n", "2\n"),))
        cache.judge("print(input())", p1, FAST)
        v = cache.judge("print(input())", p2, FAST)
        assert cache.misses == 2
        assert not v.passed

    def test_key_names_default_interpreter(self, tmp_path, monkeypatch):
        import sys

        cache = VerdictCache(tmp_path / "verdicts")
        problem = make_problem(tests=(("1\n", "1\n"),))
        args = ("print(input())", problem, FAST, ComparePolicy(), None, False)
        here = cache._key(*args)
        monkeypatch.setattr(sys, "executable", "/usr/bin/python3.9")
        monkeypatch.setattr(sys, "version", "3.9.18 (main) [GCC 12.2.0]")
        assert cache._key(*args) != here

    def test_corrupt_entry_recomputed(self, tmp_path):
        cache = VerdictCache(tmp_path / "verdicts")
        problem = make_problem(tests=(("1\n", "1\n"),))
        cache.judge("print(input())", problem, FAST)
        entry = next((tmp_path / "verdicts").glob("*.json"))
        entry.write_text("{broken")
        verdict = cache.judge("print(input())", problem, FAST)
        assert verdict.passed
        assert cache.misses == 2
