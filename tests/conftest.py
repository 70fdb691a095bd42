import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modeval import codemetrics
from modeval.codemetrics import CodeMetrics, analyze
from modeval.corpus import Corpus, Difficulty, Problem, Split, TestCase
from modeval.evaluate import CandidateRow
from modeval.promptgen import ParseError, parse_mot_response
from modeval.sandbox import ExecStatus, ExecutionReport, JudgeVerdict
from modeval.validator import AssessmentResult, Marker, assess_structure

TestCase.__test__ = False  # domain type, not a pytest class

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def make_problem(
    pid="p1",
    statement="Read one line and print it unchanged.",
    solutions=("print(input())",),
    tests=(("hi\n", "hi\n"),),
    difficulty=Difficulty.INTRODUCTORY,
    source="alpha",
    split=Split.TRAIN,
) -> Problem:
    return Problem(
        id=pid,
        statement=statement,
        solutions=list(solutions),
        tests=[TestCase(i, o) for i, o in tests],
        difficulty=difficulty,
        source=source,
        split=split,
    )


# each ParseError kind of parse_mot_response, and the marker it fires
KIND_MARKERS = {
    "missing_step": Marker.M1_STRATEGY_DIVERGENCE,
    "code_before_outline": Marker.M1_STRATEGY_DIVERGENCE,
    "no_submodules": Marker.M2_NO_SUBMODULES,
    "outline_strays": Marker.M2_NO_SUBMODULES,
    "no_final_code": Marker.M3_MAIN_CODE_COUNT,
    "multiple_main": Marker.M3_MAIN_CODE_COUNT,
}


def parse_and_assess(raw: str) -> tuple[str | None, AssessmentResult]:
    """The kind ``parse_mot_response`` raises over ``raw`` (None if it parses)
    and ``assess_structure``'s result, checked to agree: the parser raises
    exactly when a marker fires, that marker is its kind's, and the detail is
    its message."""
    result, solution = assess_structure(raw)
    try:
        parsed = parse_mot_response(raw)
    except ParseError as exc:
        assert (result.marker, result.detail, solution) == (
            KIND_MARKERS[exc.kind], exc.message, None), raw
        return exc.kind, result
    assert result.accepted and solution == parsed, raw
    return None, result


def make_verdict(passed=True, n_tests=1, avg_time=0.01, avg_peak_memory=10_000_000,
                 first_failure=None, statuses=None) -> JudgeVerdict:
    """Synthetic verdict so evaluation tests don't need the sandbox."""
    if not passed and first_failure is None:
        first_failure = 0
    statuses = statuses or [ExecStatus.OK] * n_tests
    per_test = []
    for i in range(n_tests):
        matched = passed or (first_failure is not None and i != first_failure)
        report = ExecutionReport(
            status=statuses[i], stdout="", stderr="",
            wall_time_used=avg_time, compile_time=0.0, cpu_time=avg_time,
            peak_memory=avg_peak_memory, exit_code=0,
        )
        per_test.append((report, matched))
    return JudgeVerdict(per_test)


def make_rows(problem, n, c, code="print(1)", metrics: CodeMetrics | None = None,
              avg_time=0.01, avg_peak_memory=10_000_000) -> list[CandidateRow]:
    """``n`` judged candidates of ``problem``, the first ``c`` passing."""
    metrics = metrics or analyze(code)
    return [
        CandidateRow.judged(
            problem, i,
            make_verdict(passed=(i < c), avg_time=avg_time, avg_peak_memory=avg_peak_memory),
            metrics,
        )
        for i in range(n)
    ]


def corpus_of(*problems) -> Corpus:
    return Corpus(problems=list(problems))


def cache_entries(root) -> list[tuple[str, object]]:
    """Every ``(key, entry)`` line of the cache log under ``root``, in order;
    each line must be whole: a 64-hex key, a tab and its JSON."""
    text = (Path(root) / "entries.jsonl").read_text()
    assert text.endswith("\n")
    lines = [line.split("\t", 1) for line in text.splitlines()]
    assert all(len(key) == 64 and set(key) <= set("0123456789abcdef") for key, _ in lines)
    return [(key, json.loads(body)) for key, body in lines]


def edit_cache_entry(root, edit) -> None:
    """Rewrite the only entry of the cache log under ``root`` as ``edit(entry)``,
    dumped as JSON unless it is a string."""
    [(key, entry)] = cache_entries(root)
    body = edit(entry)
    (Path(root) / "entries.jsonl").write_text(
        f"{key}\t{body if isinstance(body, str) else json.dumps(body)}\n")


def count_analyze_calls(monkeypatch) -> list:
    """Record each call of the module-level ``codemetrics.analyze``, the one
    ``cli`` makes without a metrics cache and a ``MetricsCache`` miss makes."""
    calls = []
    real = codemetrics.analyze
    monkeypatch.setattr(codemetrics, "analyze", lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def loaded_modules(code, *flags):
    """The names in ``sys.modules`` after ``code`` runs in a fresh interpreter
    started with the interpreter options ``flags``."""
    probe = f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))"
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, *flags, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))
