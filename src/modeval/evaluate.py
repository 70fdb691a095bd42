"""pass@k estimation, per-difficulty aggregation, analysis profiles, and the
bounded self-reflection loop.

pass@k uses the standard unbiased combinatorial estimator

    pass@k = 1 - C(n-c, k) / C(n, k)

computed in product form for numerical stability; it is verified against
exhaustive subset enumeration in the test suite.  Aggregations average over
problems (the "all" row is problem-weighted by default; a per-level mean is
available).  Resource and maintainability profiles follow the passed-only
population: failed candidates are excluded.  Every mean is the correctly
rounded sum (``math.fsum``) over the count, so no aggregate depends on the
order of the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .codemetrics import CodeMetrics
from .corpus import Difficulty, Problem
from .settings import ExecStatus

if TYPE_CHECKING:  # self_reflect imports the layers it drives when it runs
    from .llm_client import ResponseCache
    from .promptgen import Prompt
    from .sandbox import Judge, JudgeVerdict
    from .settings import ProviderConfig

DIFFICULTY_ORDER = [d.value for d in Difficulty]  # the enum's member order
ALL_LABEL = "all"


def pass_at_k(n: int, c: int, k: int) -> float:
    """Probability that at least one of k draws from n samples is correct.

    Product form of 1 - C(n-c, k)/C(n, k); exact 1.0 when fewer than k
    incorrect samples exist.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise ValueError(f"k must be <= n, got k={k}, n={n}")
    if not (0 <= c <= n):
        raise ValueError(f"c must be in [0, n], got c={c}, n={n}")
    if n - c < k:
        return 1.0
    miss = 1.0
    for i in range(k):
        miss *= (n - c - i) / (n - i)
    return 1.0 - miss


@dataclass
class CandidateRow:
    """One judged candidate program: the schema of a ``records.jsonl`` line.

    ``passed`` and ``first_failure`` are computed from ``matched`` and written
    beside it; the records loader of ``cli`` rejects a line where they disagree.
    """

    problem_id: str
    candidate_index: int
    difficulty: str
    split: str
    passed: bool = field(init=False)
    first_failure: int | None = field(init=False)
    matched: list[bool]
    statuses: list[ExecStatus]
    avg_time: float
    avg_peak_memory: float
    metrics: CodeMetrics

    def __post_init__(self) -> None:
        self.passed = all(self.matched)
        self.first_failure = next((i for i, ok in enumerate(self.matched) if not ok), None)

    @classmethod
    def judged(
        cls, problem: Problem, index: int, verdict: JudgeVerdict, metrics: CodeMetrics
    ) -> CandidateRow:
        return cls(
            problem_id=problem.id,
            candidate_index=index,
            difficulty=problem.difficulty.value,
            split=problem.split.value,
            matched=[bool(ok) for _, ok in verdict.per_test],
            statuses=[report.status for report, _ in verdict.per_test],
            avg_time=verdict.avg_time,
            avg_peak_memory=verdict.avg_peak_memory,
            metrics=metrics,
        )


@dataclass
class BinStat:
    """The candidates in one function-count bin and the share of them that passed."""

    count: int
    accuracy: float


@dataclass
class ResourceAverages:
    """Mean time and peak memory over the passed candidates of one group."""

    passed_count: int
    avg_time: float
    avg_peak_memory: float


@dataclass
class EvalReport:
    """Everything ``evaluate_corpus`` computes: pass@k and the analysis profiles."""

    pass_at_k: dict[str, dict[int, float]]  # difficulty label / "all" -> k -> rate
    function_profile: dict[str, dict[str, BinStat]]
    resource_profile: dict[str, ResourceAverages | None]
    mi_profile: dict[str, float | None]
    mi_profile_by_split: dict[str, float | None]
    problem_count: int
    candidate_count: int


def by_problem(rows: list[CandidateRow]) -> dict[str, list[CandidateRow]]:
    """Rows per problem id, in the order each id first appears."""
    groups: dict[str, list[CandidateRow]] = {}
    for row in rows:
        groups.setdefault(row.problem_id, []).append(row)
    return groups


def by_difficulty(items: list[tuple[str, object]]) -> dict[str, list]:
    """Values of (difficulty, value) pairs per level present, in DIFFICULTY_ORDER,
    then all of them, in input order, under "all"."""
    groups: dict[str, list] = {}
    for label, value in items:
        groups.setdefault(label, []).append(value)
    ordered = {label: groups[label] for label in DIFFICULTY_ORDER if label in groups}
    ordered[ALL_LABEL] = [value for _, value in items]
    return ordered


def _mean(values: list[float]) -> float | None:
    """The correctly rounded sum over the count, so the result depends on no
    order of ``values``; None when empty."""
    if not values:
        return None
    return math.fsum(values) / len(values)


def evaluate_corpus(
    rows: list[CandidateRow],
    ks: list[int],
    all_mode: str = "problems",
) -> EvalReport:
    """Aggregate candidate rows into pass@k tables and the analysis profiles.

    ``all_mode="problems"`` averages the "all" row over every problem;
    ``"difficulty-means"`` averages the per-difficulty means instead.
    """
    if all_mode not in ("problems", "difficulty-means"):
        raise ValueError(f"unknown all_mode {all_mode!r}")
    problems = by_problem(rows)
    if ks:
        starved = sorted(pid for pid, prows in problems.items() if len(prows) < max(ks))
        if starved:
            raise ValueError(
                f"pass@{max(ks)} needs at least {max(ks)} candidates per problem; "
                f"too few for: {', '.join(starved)}"
            )

    rates = by_difficulty([
        (prows[0].difficulty,
         {k: pass_at_k(len(prows), sum(r.passed for r in prows), k) for k in ks})
        for prows in problems.values()
    ])
    table = {label: {k: _mean([r[k] for r in group]) for k in ks}
             for label, group in rates.items() if group}
    if table and all_mode == "difficulty-means":
        levels = [means for label, means in table.items() if label != ALL_LABEL]
        table[ALL_LABEL] = {k: _mean([means[k] for means in levels]) for k in ks}

    mi = mi_profile(rows)
    return EvalReport(
        pass_at_k=table,
        function_profile=function_accuracy_profile(rows),
        resource_profile=resource_profile(rows),
        mi_profile=mi.by_difficulty,
        mi_profile_by_split=mi.by_split,
        problem_count=len(problems),
        candidate_count=len(rows),
    )


MAX_BIN = 8  # function counts from here up share the bin "8+"


def bin_label(function_count: int) -> str:
    return f"{MAX_BIN}+" if function_count >= MAX_BIN else str(function_count)


def function_accuracy_profile(rows: list[CandidateRow]) -> dict[str, dict[str, BinStat]]:
    """Pass fraction per (difficulty, function-count bin), plus an "all" row."""
    profile: dict[str, dict[str, BinStat]] = {}
    for label, group in sorted(by_difficulty([(r.difficulty, r) for r in rows]).items()):
        cells: dict[str, list[int]] = {}
        for row in group:
            cell = cells.setdefault(bin_label(row.metrics.function_count), [0, 0])
            cell[0] += 1
            cell[1] += row.passed
        if cells:
            profile[label] = {
                b: BinStat(count=total, accuracy=passed / total)
                for b, (total, passed) in sorted(cells.items(), key=lambda kv: _bin_sort_key(kv[0]))
            }
    return profile


def _bin_sort_key(label: str) -> int:
    return int(label.rstrip("+"))


def resource_profile(rows: list[CandidateRow]) -> dict[str, ResourceAverages | None]:
    """Average judge wall time and peak memory over passed candidates."""
    out: dict[str, ResourceAverages | None] = {}
    for label, group in by_difficulty([(r.difficulty, r) for r in rows]).items():
        passed = [r for r in group if r.passed]
        out[label] = ResourceAverages(
            passed_count=len(passed),
            avg_time=_mean([r.avg_time for r in passed]),
            avg_peak_memory=_mean([r.avg_peak_memory for r in passed]),
        ) if passed else None
    return out


@dataclass
class MiProfile:
    """Mean maintainability of passed candidates, per difficulty and per split."""

    by_difficulty: dict[str, float | None]
    by_split: dict[str, float | None]


def mi_profile(rows: list[CandidateRow]) -> MiProfile:
    """Mean maintainability index over passed candidates, per difficulty and split."""
    by_split: dict[str, list[float]] = {}
    for row in rows:
        if row.passed:
            by_split.setdefault(row.split, []).append(row.metrics.maintainability)
    return MiProfile(
        by_difficulty={
            label: _mean([r.metrics.maintainability for r in group if r.passed])
            for label, group in by_difficulty([(r.difficulty, r) for r in rows]).items()
        },
        by_split={split: _mean(values) for split, values in sorted(by_split.items())},
    )


# --- self-reflection loop ---------------------------------------------------


@dataclass
class ReflectionRound:
    """One round of the self-reflection loop: its prompt, attempt and verdict."""

    prompt: Prompt
    attempt: str
    verdict: JudgeVerdict


@dataclass
class ReflectionTrace:
    """The rounds the self-reflection loop ran for one problem, or the error that stopped it."""

    problem_id: str
    rounds: list[ReflectionRound] = field(default_factory=list)
    error: str | None = None

    @property
    def solved_at(self) -> int | None:
        """The index of the round that passed: the last one, as the loop stops there."""
        if self.rounds and self.rounds[-1].verdict.passed:
            return len(self.rounds) - 1
        return None

    @property
    def solved(self) -> bool:
        return self.solved_at is not None


def self_reflect(
    problem: Problem,
    provider_cfg: ProviderConfig,
    judge: Judge | None = None,
    max_rounds: int = 5,
    *,
    provider=None,
    cache: ResponseCache | None = None,
) -> ReflectionTrace:
    """Generate, judge, and re-prompt with failure evidence until solved.

    Round 0 is a direct generation; each later round feeds the previous
    attempt and the first test it failed back to the model.  The trace holds at
    most ``max_rounds`` rounds in total and stops at the first pass.
    Provider errors end the loop for this problem and are recorded on the
    trace.  ``judge`` defaults to ``Judge()``.
    """
    from . import llm_client, promptgen
    from .sandbox import Judge

    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")

    judge = Judge() if judge is None else judge
    trace = ReflectionTrace(problem_id=problem.id)
    prompt = promptgen.build_direct_prompt(problem)
    while True:
        try:
            completion = llm_client.complete(prompt, provider_cfg, provider=provider, cache=cache)
        except llm_client.ProviderError as exc:
            trace.error = str(exc)
            return trace
        attempt = promptgen.parse_code_response(completion.text)
        verdict = judge(attempt, problem)
        trace.rounds.append(ReflectionRound(prompt=prompt, attempt=attempt, verdict=verdict))
        if verdict.passed or len(trace.rounds) >= max_rounds:
            return trace
        prompt = promptgen.build_reflection_prompt(
            problem, attempt, verdict, round=len(trace.rounds), max_rounds=max_rounds
        )
