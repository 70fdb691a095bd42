"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s -v tests/test_acceptance.py`` to see the lines as they
complete.  Criteria with runtime budgets measure and assert them.
"""

import json
import math
import time
from contextlib import contextmanager

import pytest

from modeval import codemetrics, evaluate, sandbox
from modeval.cli import main
from modeval.codemetrics import analyze, maintainability_index
from modeval.corpus import Split, load_corpus
from modeval.evaluate import CandidateRow, evaluate_corpus, pass_at_k
from modeval.sandbox import (
    INTERPRETER_OVERHEAD_BOUND,
    KILL_GRACE,
    MB,
    ExecStatus,
    Judge,
    ResourceLimits,
    judge_batch,
    run_once,
)
from modeval.validator import Marker, Verdict, filter_pass_rate

import test_validator as marker_fixtures
from conftest import FIXTURES
from oracles import cyclomatic_ast, halstead_volume_std, pass_at_k_enumerated


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS", flush=True)


def test_criterion_1_pass_at_k_oracle():
    with criterion(1, "pass@k equals exhaustive enumeration for n <= 8"):
        start = time.perf_counter()
        checked = 0
        for n in range(1, 9):
            for c in range(n + 1):
                for k in range(1, n + 1):
                    estimator = pass_at_k(n, c, k)
                    oracle = pass_at_k_enumerated(n, c, k)
                    assert abs(estimator - oracle) <= 1e-12, (n, c, k)
                    checked += 1
        elapsed = time.perf_counter() - start
        assert checked == 240  # sum over n<=8 of n*(n+1) cells
        assert elapsed < 1.0, f"oracle sweep took {elapsed:.3f}s"


def test_criterion_2_filter_rate_arithmetic():
    with criterion(2, "filter rates reproduce the scaled pre/post fixtures"):
        records = (
            marker_fixtures.records_for("APPS", "mot", 117, 68)
            + marker_fixtures.records_for("CodeContests", "mot", 154, 70)
            + marker_fixtures.records_for("APPS", "clean", 117, 75)
            + marker_fixtures.records_for("CodeContests", "clean", 154, 99)
        )
        table = filter_pass_rate(records)
        assert table[("APPS", "mot")].rate_percent == 58
        assert table[("CodeContests", "mot")].rate_percent == 45
        assert table[("APPS", "clean")].rate_percent == 64
        assert table[("CodeContests", "clean")].rate_percent == 64


def test_criterion_3_maintainability_formula_and_monotonicity():
    with criterion(3, "MI reference points and monotonicity grid"):
        assert maintainability_index(1, 1, 1, 0.0) == pytest.approx(170.77, abs=0.01)
        assert maintainability_index(8, 3, 4, 0.0) == pytest.approx(122.31, abs=0.01)

        violations = 0
        eps = 1e-12
        volumes = [10 ** (6 * i / 99) for i in range(100)]
        values = [maintainability_index(v, 5, 50, 0.1) for v in volumes]
        violations += sum(b > a + eps for a, b in zip(values, values[1:]))

        ccs = range(1, 101)
        values = [maintainability_index(100.0, cc, 50, 0.1) for cc in ccs]
        violations += sum(b > a + eps for a, b in zip(values, values[1:]))

        locs = sorted({int(10 ** (5 * i / 99)) for i in range(100)})
        values = [maintainability_index(100.0, 5, loc, 0.1) for loc in locs]
        violations += sum(b > a + eps for a, b in zip(values, values[1:]))

        # the sin term peaks at sqrt(2.46*C) = pi/2, i.e. C* ~ 1.003 > 1,
        # so MI is non-decreasing in C over the whole [0, 1] domain
        c_star = min(1.0, (math.pi / 2) ** 2 / 2.46)
        cs = [c_star * i / 99 for i in range(100)]
        values = [maintainability_index(100.0, 5, 50, c) for c in cs]
        violations += sum(b < a - eps for a, b in zip(values, values[1:]))

        assert violations == 0


def test_criterion_4_validator_marker_fixtures():
    with criterion(4, "12 rejection fixtures hit their markers, 4 clean ones accepted"):
        expected = {
            Marker.M1_STRATEGY_DIVERGENCE: marker_fixtures.M1_FIXTURES,
            Marker.M2_NO_SUBMODULES: marker_fixtures.M2_FIXTURES,
            Marker.M3_MAIN_CODE_COUNT: marker_fixtures.M3_FIXTURES,
        }
        total = 0
        for marker, fixtures in expected.items():
            assert len(fixtures) == 3
            for name, raw in fixtures.items():
                result = marker_fixtures.assess(raw)
                assert result.verdict is Verdict.REJECT, name
                assert result.marker is marker, name
                total += 1

        # marker 4 is functional: wrong answer, timeout, crash
        from modeval.promptgen import parse_mot_response
        from modeval.validator import assess_verdict
        from conftest import make_problem

        limits = ResourceLimits(wall_time=1.0)
        m4_bodies = [
            "```python\nprint(7)\n```\n",
            "```python\nwhile True:\n    pass\n```\n",
            "```python\nraise RuntimeError('no')\n```\n",
        ]
        problem = make_problem(tests=(("3\n", "6\n"),))
        for body in m4_bodies:
            raw = marker_fixtures.WELL_FORMED["plain"].replace(marker_fixtures.GOOD_BODY, body)
            verdict = Judge(limits)(parse_mot_response(raw).final_code, problem)
            assert assess_verdict(verdict).marker is Marker.M4_TESTS_FAILED
            total += 1
        assert total == 12

        for name, raw in marker_fixtures.WELL_FORMED.items():
            assert marker_fixtures.assess(raw).verdict is Verdict.ACCEPT, name


def test_criterion_5_sandbox_limits():
    with criterion(5, "timeout, peak-memory and crash semantics under limits"):
        start = time.perf_counter()

        report = run_once("while True: pass", "", ResourceLimits(wall_time=1.0))
        assert report.status is ExecStatus.TIMEOUT
        assert report.wall_time_used <= 1.0 + KILL_GRACE

        n = 100 * MB
        report = run_once(f"b = bytearray({n})\nprint(len(b))", "",
                          ResourceLimits(wall_time=10.0))
        assert report.status is ExecStatus.OK
        assert n <= report.peak_memory <= n + INTERPRETER_OVERHEAD_BOUND

        report = run_once("import os; os.abort()", "", ResourceLimits(wall_time=5.0))
        assert report.status is ExecStatus.RUNTIME_ERROR
        # and the harness is alive to run one more
        report = run_once("print('still here')", "", ResourceLimits(wall_time=5.0))
        assert report.stdout == "still here\n"

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"sandbox criterion took {elapsed:.1f}s"


def test_criterion_6_self_consistency():
    with criterion(6, "reference solutions judge to pass@1 = 1.0 on their own tests"):
        start = time.perf_counter()
        corpus = load_corpus(FIXTURES / "corpus20.jsonl", Split.TEST)
        assert len(corpus) == 20
        testable = [p for p in corpus if not p.untestable]
        tasks = [(p.solutions[0], p) for p in testable]
        verdicts = judge_batch(tasks, Judge(ResourceLimits(wall_time=5.0)), workers=4)
        rows = [
            CandidateRow.judged(p, 0, v, analyze(p.solutions[0]))
            for p, v in zip(testable, verdicts)
        ]
        report = evaluate_corpus(rows, ks=[1])
        for label, rates in report.pass_at_k.items():
            assert rates[1] == 1.0, label
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"self-consistency took {elapsed:.1f}s"


def _run_pipeline(config_path, outdir):
    flags = ["--config", str(config_path), "--outdir", str(outdir)]
    assert main(["transform", *flags]) == 0
    assert main(["evaluate", *flags,
                 "--candidates", str(FIXTURES / "e2e" / "candidates.jsonl")]) == 0
    assert main(["reflect", *flags]) == 0
    assert main(["analyze", *flags]) == 0


def _snapshot(outdir):
    return {
        str(p.relative_to(outdir)): p.read_bytes()
        for p in sorted(outdir.rglob("*"))
        if p.is_file()
    }


def test_criterion_7_end_to_end_byte_stable(tmp_path):
    with criterion(7, "transform/evaluate/reflect/analyze is byte-stable with warm cache"):
        start = time.perf_counter()
        config = {
            "corpus": {"train": str(FIXTURES / "corpus10.jsonl"),
                       "test": str(FIXTURES / "corpus10.jsonl")},
            "provider": {"model_name": "mock-model", "max_inflight": 2,
                         "retry_limit": 1, "retry_backoff": 0.001},
            "limits": {"wall_time": 2.0, "memory": 268435456, "output_cap": 1048576},
            "compare": {"mode": "token", "float_tolerance": 1e-6},
            "ks": [1],
            "max_reflection_rounds": 5,
            "workers": 2,
            "cache_dir": str(tmp_path / "cache"),
            "mock_provider": str(FIXTURES / "e2e" / "mock"),
            "fail_fast": True,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))

        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        _run_pipeline(config_path, out_a)
        cache_a = _snapshot(tmp_path / "cache")
        _run_pipeline(config_path, out_b)
        cache_b = _snapshot(tmp_path / "cache")

        snap_a = _snapshot(out_a)
        snap_b = _snapshot(out_b)
        assert set(snap_a) == set(snap_b)
        for rel in snap_a:
            assert snap_a[rel] == snap_b[rel], f"output differs between runs: {rel}"
        # the warm run only reads the caches: it appends to no log, adds no file
        assert {"responses/entries.jsonl", "verdicts/entries.jsonl"} <= set(cache_a)
        assert set(cache_a) == set(cache_b)
        for rel in cache_a:
            assert cache_a[rel] == cache_b[rel], f"warm run changed cache file {rel}"

        # reflection cap of 5 honored: no trace exceeds five rounds, and the
        # never-solved problems use every one of them
        traces = [json.loads(line) for line in
                  (out_a / "reflect" / "traces.jsonl").read_text().splitlines()]
        assert traces
        assert all(len(t["rounds"]) <= 5 for t in traces)
        assert max(len(t["rounds"]) for t in traces) == 5

        for profile in ("function_profile.csv", "resource_profile.csv", "mi_profile.csv"):
            assert (out_a / "analyze" / profile).exists()

        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"end-to-end took {elapsed:.1f}s"


def test_criterion_8_metrics_cross_check():
    with criterion(8, "CC matches the AST analyzer exactly; volume within 5%"):
        programs = sorted((FIXTURES / "programs").glob("p*.py"))
        assert len(programs) == 10
        for path in programs:
            source = path.read_text()
            metrics = codemetrics.analyze(source)
            assert metrics.cyclomatic == cyclomatic_ast(source), path.name
            mine = metrics.halstead_volume
            reference = halstead_volume_std(source)
            assert mine == pytest.approx(reference, rel=0.05), path.name


def test_criterion_9_parallel_determinism():
    with criterion(9, "evaluate with workers=1 and workers=8 agrees"):
        corpus = load_corpus(FIXTURES / "corpus20.jsonl", Split.TEST)
        problems = list(corpus)[:10]
        tasks = []
        for i, problem in enumerate(problems):
            code = problem.solutions[0] if i % 2 == 0 else "print('wrong')"
            tasks.append((code, problem))

        limits = ResourceLimits(wall_time=5.0)
        seq = judge_batch(tasks, Judge(limits), workers=1)
        par = judge_batch(tasks, Judge(limits), workers=8)

        matched_seq = [[m for _, m in v.per_test] for v in seq]
        matched_par = [[m for _, m in v.per_test] for v in par]
        assert matched_seq == matched_par

        def build_report(verdicts):
            rows = [
                CandidateRow.judged(p, 0, v, analyze(code))
                for (code, p), v in zip(tasks, verdicts)
            ]
            return evaluate_corpus(rows, ks=[1])

        report_seq = build_report(seq)
        report_par = build_report(par)
        assert report_seq.pass_at_k == report_par.pass_at_k
        assert report_seq.function_profile == report_par.function_profile
        assert report_seq.mi_profile == report_par.mi_profile
        assert report_seq.mi_profile_by_split == report_par.mi_profile_by_split
        # resource averages come from wall-clock measurements, which the
        # judging contract does not promise to reproduce between runs;
        # their populations must still agree exactly
        for label in report_seq.resource_profile:
            avg_seq = report_seq.resource_profile[label]
            avg_par = report_par.resource_profile[label]
            assert (avg_seq is None) == (avg_par is None)
            if avg_seq is not None:
                assert avg_seq.passed_count == avg_par.passed_count
