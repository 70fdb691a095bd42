"""pass@k estimation, per-difficulty aggregation, analysis profiles, and the
bounded self-reflection loop.

pass@k uses the standard unbiased combinatorial estimator

    pass@k = 1 - C(n-c, k) / C(n, k)

computed in product form for numerical stability; it is verified against
exhaustive subset enumeration in the test suite.  Aggregations average over
problems (the "all" row is problem-weighted by default; a per-level mean is
available).  Resource and maintainability profiles follow the passed-only
population: failed candidates are excluded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import llm_client, promptgen
from .codemetrics import CodeMetrics
from .corpus import Corpus, Difficulty, Problem
from .llm_client import ProviderConfig, ProviderError
from .promptgen import Prompt
from .sandbox import Judge, JudgeVerdict

DIFFICULTY_ORDER = [d.value for d in
                    (Difficulty.INTRODUCTORY, Difficulty.INTERVIEW,
                     Difficulty.COMPETITION, Difficulty.UNKNOWN)]
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
class CandidateResult:
    code: str
    verdict: JudgeVerdict
    metrics: CodeMetrics


@dataclass
class GenerationRecord:
    problem_id: str
    candidates: list[CandidateResult]

    @property
    def n(self) -> int:
        return len(self.candidates)

    @property
    def c(self) -> int:
        return sum(1 for cand in self.candidates if cand.verdict.passed)


@dataclass
class BinStat:
    count: int
    accuracy: float


@dataclass
class ResourceAverages:
    passed_count: int
    avg_time: float
    avg_peak_memory: float


@dataclass
class EvalReport:
    pass_at_k: dict[str, dict[int, float]]  # difficulty label / "all" -> k -> rate
    function_profile: dict[str, dict[str, BinStat]]
    resource_profile: dict[str, ResourceAverages | None]
    mi_profile: dict[str, float | None]
    mi_profile_by_split: dict[str, float | None]
    problem_count: int
    candidate_count: int


def _check_known(records: list[GenerationRecord], corpus: Corpus) -> None:
    unknown = sorted({r.problem_id for r in records if r.problem_id not in corpus})
    if unknown:
        raise ValueError(f"records reference unknown problem ids: {', '.join(unknown)}")


def _labels_in_use(records: list[GenerationRecord], corpus: Corpus) -> list[str]:
    present = {corpus.get(r.problem_id).difficulty.value for r in records}
    return [d for d in DIFFICULTY_ORDER if d in present]


def evaluate_corpus(
    corpus: Corpus,
    records: list[GenerationRecord],
    ks: list[int],
    all_mode: str = "problems",
) -> EvalReport:
    """Aggregate records into pass@k tables and the analysis profiles.

    ``all_mode="problems"`` averages the "all" row over every problem;
    ``"difficulty-means"`` averages the per-difficulty means instead.
    """
    _check_known(records, corpus)
    if all_mode not in ("problems", "difficulty-means"):
        raise ValueError(f"unknown all_mode {all_mode!r}")
    if ks:
        starved = sorted(r.problem_id for r in records if 0 < r.n < max(ks))
        if starved:
            raise ValueError(
                f"pass@{max(ks)} needs at least {max(ks)} candidates per problem; "
                f"too few for: {', '.join(starved)}"
            )

    per_problem: dict[str, dict[int, float]] = {}
    for record in records:
        if record.n == 0:
            continue
        per_problem[record.problem_id] = {
            k: pass_at_k(record.n, record.c, k) for k in ks
        }

    table: dict[str, dict[int, float]] = {}
    labels = _labels_in_use(records, corpus)
    for label in labels:
        ids = [pid for pid in per_problem
               if corpus.get(pid).difficulty.value == label]
        if ids:
            table[label] = {
                k: float(np.mean([per_problem[pid][k] for pid in ids])) for k in ks
            }
    if per_problem:
        if all_mode == "problems":
            table[ALL_LABEL] = {
                k: float(np.mean([vals[k] for vals in per_problem.values()])) for k in ks
            }
        else:
            table[ALL_LABEL] = {
                k: float(np.mean([table[lbl][k] for lbl in labels if lbl in table]))
                for k in ks
            }

    mi = mi_profile(records, corpus)
    return EvalReport(
        pass_at_k=table,
        function_profile=function_accuracy_profile(records, corpus),
        resource_profile=resource_profile(records, corpus),
        mi_profile=mi.by_difficulty,
        mi_profile_by_split=mi.by_split,
        problem_count=len(per_problem),
        candidate_count=sum(r.n for r in records),
    )


def bin_label(function_count: int, max_bin: int = 8) -> str:
    return f"{max_bin}+" if function_count >= max_bin else str(function_count)


def function_accuracy_profile(
    records: list[GenerationRecord], corpus: Corpus, max_bin: int = 8
) -> dict[str, dict[str, BinStat]]:
    """Pass fraction per (difficulty, function-count bin), plus an "all" row."""
    _check_known(records, corpus)
    counts: dict[tuple[str, str], list[int]] = {}
    for record in records:
        difficulty = corpus.get(record.problem_id).difficulty.value
        for cand in record.candidates:
            label = bin_label(cand.metrics.function_count, max_bin)
            for group in (difficulty, ALL_LABEL):
                cell = counts.setdefault((group, label), [0, 0])
                cell[0] += 1
                cell[1] += cand.verdict.passed

    profile: dict[str, dict[str, BinStat]] = {}
    for (group, label), (total, passed) in sorted(
        counts.items(), key=lambda kv: (kv[0][0], _bin_sort_key(kv[0][1]))
    ):
        profile.setdefault(group, {})[label] = BinStat(count=total, accuracy=passed / total)
    return profile


def _bin_sort_key(label: str) -> int:
    return int(label.rstrip("+"))


def resource_profile(
    records: list[GenerationRecord], corpus: Corpus
) -> dict[str, ResourceAverages | None]:
    """Average judge wall time and peak memory over passed candidates."""
    _check_known(records, corpus)
    groups: dict[str, list[tuple[float, float]]] = {}
    labels = _labels_in_use(records, corpus)
    for record in records:
        difficulty = corpus.get(record.problem_id).difficulty.value
        for cand in record.candidates:
            if not cand.verdict.passed:
                continue
            sample = (cand.verdict.avg_time, cand.verdict.avg_peak_memory)
            groups.setdefault(difficulty, []).append(sample)
            groups.setdefault(ALL_LABEL, []).append(sample)
    out: dict[str, ResourceAverages | None] = {}
    for label in labels + [ALL_LABEL]:
        samples = groups.get(label)
        if not samples:
            out[label] = None
            continue
        times, mems = zip(*samples)
        out[label] = ResourceAverages(
            passed_count=len(samples),
            avg_time=float(np.mean(times)),
            avg_peak_memory=float(np.mean(mems)),
        )
    return out


@dataclass
class MiProfile:
    by_difficulty: dict[str, float | None]
    by_split: dict[str, float | None]


def mi_profile(records: list[GenerationRecord], corpus: Corpus) -> MiProfile:
    """Mean maintainability index over passed candidates, per difficulty and split."""
    _check_known(records, corpus)
    by_diff: dict[str, list[float]] = {}
    by_split: dict[str, list[float]] = {}
    for record in records:
        problem = corpus.get(record.problem_id)
        for cand in record.candidates:
            if not cand.verdict.passed:
                continue
            by_diff.setdefault(problem.difficulty.value, []).append(cand.metrics.maintainability)
            by_split.setdefault(problem.split.value, []).append(cand.metrics.maintainability)

    labels = _labels_in_use(records, corpus)
    diff_out: dict[str, float | None] = {
        label: (float(np.mean(by_diff[label])) if by_diff.get(label) else None)
        for label in labels
    }
    all_values = [v for vals in by_diff.values() for v in vals]
    diff_out[ALL_LABEL] = float(np.mean(all_values)) if all_values else None
    split_out: dict[str, float | None] = {
        split: float(np.mean(vals)) for split, vals in sorted(by_split.items())
    }
    return MiProfile(by_difficulty=diff_out, by_split=split_out)


# --- self-reflection loop ---------------------------------------------------


@dataclass
class ReflectionRound:
    prompt: Prompt
    completion_text: str
    attempt: str
    verdict: JudgeVerdict


@dataclass
class ReflectionTrace:
    problem_id: str
    rounds: list[ReflectionRound] = field(default_factory=list)
    solved_at: int | None = None
    error: str | None = None

    @property
    def solved(self) -> bool:
        return self.solved_at is not None


def self_reflect(
    problem: Problem,
    provider_cfg: ProviderConfig,
    judge: Judge = Judge(),
    max_rounds: int = 5,
    *,
    provider=None,
    cache: llm_client.ResponseCache | None = None,
) -> ReflectionTrace:
    """Generate, judge, and re-prompt with failure evidence until solved.

    Round 0 is a direct generation; each later round feeds the previous
    attempt and the first test it failed back to the model.  The trace holds at
    most ``max_rounds`` rounds in total and stops at the first pass.
    Provider errors end the loop for this problem and are recorded on the
    trace.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")

    trace = ReflectionTrace(problem_id=problem.id)
    prompt = promptgen.build_direct_prompt(problem)
    while True:
        try:
            completion = llm_client.complete(prompt, provider_cfg, provider=provider, cache=cache)
        except ProviderError as exc:
            trace.error = str(exc)
            return trace
        attempt = promptgen.parse_code_response(completion.text)
        verdict = judge(attempt, problem)
        trace.rounds.append(
            ReflectionRound(
                prompt=prompt, completion_text=completion.text,
                attempt=attempt, verdict=verdict,
            )
        )
        if verdict.passed:
            trace.solved_at = len(trace.rounds) - 1
            return trace
        if len(trace.rounds) >= max_rounds:
            return trace
        prompt = promptgen.build_reflection_prompt(
            problem, attempt, verdict, round=len(trace.rounds), max_rounds=max_rounds
        )
