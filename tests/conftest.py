from pathlib import Path

import pytest

from modeval.codemetrics import CodeMetrics, analyze
from modeval.corpus import Corpus, Difficulty, Problem, Split, TestCase
from modeval.evaluate import CandidateRow
from modeval.sandbox import ExecStatus, ExecutionReport, JudgeVerdict

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
    untestable=False,
) -> Problem:
    return Problem(
        id=pid,
        statement=statement,
        solutions=list(solutions),
        tests=[TestCase(i, o) for i, o in tests],
        difficulty=difficulty,
        source=source,
        split=split,
        untestable=untestable,
    )


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
            wall_time_used=avg_time, peak_memory=avg_peak_memory, exit_code=0,
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
    return Corpus(problems=list(problems), provenance="test")
