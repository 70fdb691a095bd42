import random

import pytest

from modeval.codemetrics import analyze
from modeval.corpus import Difficulty, Split
from modeval.evaluate import (
    CandidateResult,
    GenerationRecord,
    evaluate_corpus,
    function_accuracy_profile,
    mi_profile,
    pass_at_k,
    resource_profile,
    self_reflect,
)
from modeval.llm_client import MockProvider, ProviderConfig, ProviderError
from modeval.sandbox import Judge, ResourceLimits

from conftest import corpus_of, make_problem, make_record, make_verdict
from oracles import pass_at_k_enumerated

CFG = ProviderConfig(retry_limit=0, retry_backoff=0.001)
FAST = ResourceLimits(wall_time=5.0)


class TestPassAtK:
    def test_single_correct_sample(self):
        assert pass_at_k(1, 1, 1) == 1.0

    def test_no_correct_samples(self):
        assert pass_at_k(5, 0, 3) == 0.0

    def test_known_value(self):
        # 1 - C(3,3)/C(5,3) = 1 - 1/10
        assert pass_at_k(5, 2, 3) == pytest.approx(0.9, abs=1e-12)
        assert pass_at_k(5, 2, 3) == pytest.approx(pass_at_k_enumerated(5, 2, 3), abs=1e-12)

    def test_saturates_when_few_incorrect(self):
        assert pass_at_k(10, 8, 3) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pass_at_k(3, 1, 4)  # k > n
        with pytest.raises(ValueError):
            pass_at_k(3, 1, 0)  # k < 1
        with pytest.raises(ValueError):
            pass_at_k(3, 4, 1)  # c > n

    def test_matches_enumeration_spot_grid(self):
        for n in range(1, 7):
            for c in range(n + 1):
                for k in range(1, n + 1):
                    assert pass_at_k(n, c, k) == pytest.approx(
                        pass_at_k_enumerated(n, c, k), abs=1e-12
                    ), (n, c, k)

    def test_monotone_in_k_and_c(self):
        n = 8
        for c in range(n + 1):
            values = [pass_at_k(n, c, k) for k in range(1, n + 1)]
            assert values == sorted(values)
        for k in range(1, n + 1):
            values = [pass_at_k(n, c, k) for c in range(n + 1)]
            assert values == sorted(values)

    def test_pass_at_n_is_any_correct(self):
        for n in range(1, 9):
            for c in range(n + 1):
                assert pass_at_k(n, c, n) == (1.0 if c >= 1 else 0.0)


class TestEvaluateCorpus:
    def test_all_passing(self):
        corpus = corpus_of(make_problem("a"), make_problem("b"))
        records = [make_record("a", 1, 1), make_record("b", 2, 2)]
        report = evaluate_corpus(corpus, records, ks=[1])
        assert report.pass_at_k["all"][1] == 1.0
        assert report.pass_at_k["introductory"][1] == 1.0

    def test_two_difficulty_average(self):
        corpus = corpus_of(
            make_problem("a", difficulty=Difficulty.INTRODUCTORY),
            make_problem("b", difficulty=Difficulty.COMPETITION),
        )
        records = [make_record("a", 1, 1), make_record("b", 1, 0)]
        report = evaluate_corpus(corpus, records, ks=[1])
        assert report.pass_at_k["introductory"][1] == 1.0
        assert report.pass_at_k["competition"][1] == 0.0
        assert report.pass_at_k["all"][1] == 0.5

    def test_thirty_problem_fixture_matches_hand_average(self):
        # known (n, c) per problem; expectation computed with the enumeration
        # oracle and a plain mean, independently of the estimator under test
        rng = random.Random(7)
        corpus_problems = []
        records = []
        difficulties = [Difficulty.INTRODUCTORY, Difficulty.INTERVIEW, Difficulty.COMPETITION]
        for i in range(30):
            difficulty = difficulties[i % 3]
            n = rng.randint(3, 6)
            c = rng.randint(0, n)
            corpus_problems.append(make_problem(f"p{i}", difficulty=difficulty))
            records.append(make_record(f"p{i}", n, c))
        corpus = corpus_of(*corpus_problems)
        report = evaluate_corpus(corpus, records, ks=[1, 3])

        for k in (1, 3):
            by_difficulty = {}
            for problem, record in zip(corpus_problems, records):
                by_difficulty.setdefault(problem.difficulty.value, []).append(
                    pass_at_k_enumerated(record.n, record.c, k)
                )
            for label, values in by_difficulty.items():
                assert report.pass_at_k[label][k] == pytest.approx(
                    sum(values) / len(values), abs=1e-12
                )
            everything = [v for vals in by_difficulty.values() for v in vals]
            assert report.pass_at_k["all"][k] == pytest.approx(
                sum(everything) / len(everything), abs=1e-12
            )

    def test_unknown_problem_id_listed(self):
        corpus = corpus_of(make_problem("a"))
        with pytest.raises(ValueError, match="ghost"):
            evaluate_corpus(corpus, [make_record("ghost", 1, 1)], ks=[1])

    def test_per_level_mean_mode(self):
        corpus = corpus_of(
            make_problem("a", difficulty=Difficulty.INTRODUCTORY),
            make_problem("b", difficulty=Difficulty.INTRODUCTORY),
            make_problem("c", difficulty=Difficulty.COMPETITION),
        )
        records = [make_record("a", 1, 1), make_record("b", 1, 1), make_record("c", 1, 0)]
        problems_weighted = evaluate_corpus(corpus, records, ks=[1])
        level_weighted = evaluate_corpus(corpus, records, ks=[1], all_mode="difficulty-means")
        assert problems_weighted.pass_at_k["all"][1] == pytest.approx(2 / 3)
        assert level_weighted.pass_at_k["all"][1] == pytest.approx(0.5)

    def test_record_order_does_not_matter(self):
        corpus = corpus_of(*[make_problem(f"p{i}") for i in range(6)])
        records = [make_record(f"p{i}", 2, i % 3) for i in range(6)]
        forward = evaluate_corpus(corpus, records, ks=[1, 2])
        backward = evaluate_corpus(corpus, list(reversed(records)), ks=[1, 2])
        assert forward.pass_at_k == backward.pass_at_k
        assert forward.mi_profile == backward.mi_profile


FUNC0 = "print(input())"
FUNC2 = "def f():\n    pass\ndef g():\n    pass\nprint(1)"


class TestFunctionAccuracyProfile:
    def test_single_bin_all_passing(self):
        corpus = corpus_of(make_problem("a"))
        records = [make_record("a", 3, 3, code=FUNC0)]
        profile = function_accuracy_profile(records, corpus)
        assert profile["introductory"]["0"].accuracy == 1.0
        assert profile["introductory"]["0"].count == 3
        assert profile["all"]["0"].accuracy == 1.0

    def test_two_function_pass_zero_function_fail(self):
        corpus = corpus_of(make_problem("a"))
        record = GenerationRecord(
            problem_id="a",
            candidates=[
                CandidateResult(FUNC2, make_verdict(passed=True), analyze(FUNC2)),
                CandidateResult(FUNC0, make_verdict(passed=False), analyze(FUNC0)),
            ],
        )
        profile = function_accuracy_profile([record], corpus)
        assert profile["introductory"]["2"].accuracy == 1.0
        assert profile["introductory"]["0"].accuracy == 0.0

    def test_empty_records(self):
        assert function_accuracy_profile([], corpus_of()) == {}

    def test_overflow_bin(self):
        many = "\n".join(f"def f{i}():\n    pass" for i in range(9))
        corpus = corpus_of(make_problem("a"))
        record = GenerationRecord(
            "a", [CandidateResult(many, make_verdict(passed=True), analyze(many))]
        )
        profile = function_accuracy_profile([record], corpus)
        assert profile["introductory"]["8+"].count == 1


class TestResourceProfile:
    def test_single_passed_candidate(self):
        corpus = corpus_of(make_problem("a"))
        records = [make_record("a", 1, 1, avg_time=1.0, avg_peak_memory=10 * 10 ** 6)]
        profile = resource_profile(records, corpus)
        assert profile["introductory"].avg_time == pytest.approx(1.0)
        assert profile["introductory"].avg_peak_memory == pytest.approx(10 * 10 ** 6)

    def test_mean_over_passed(self):
        corpus = corpus_of(make_problem("a"), make_problem("b"))
        records = [
            make_record("a", 1, 1, avg_time=1.0),
            make_record("b", 1, 1, avg_time=3.0),
        ]
        profile = resource_profile(records, corpus)
        assert profile["all"].avg_time == pytest.approx(2.0)

    def test_failed_candidates_excluded(self):
        corpus = corpus_of(make_problem("a"))
        record = GenerationRecord(
            problem_id="a",
            candidates=[
                CandidateResult(FUNC0, make_verdict(passed=True, avg_time=1.0), analyze(FUNC0)),
                CandidateResult(FUNC0, make_verdict(passed=False, avg_time=99.0), analyze(FUNC0)),
            ],
        )
        profile = resource_profile([record], corpus)
        assert profile["introductory"].avg_time == pytest.approx(1.0)
        assert profile["introductory"].passed_count == 1

    def test_no_passed_candidates_absent(self):
        corpus = corpus_of(make_problem("a"))
        profile = resource_profile([make_record("a", 1, 0)], corpus)
        assert profile["introductory"] is None


class TestMiProfile:
    def test_single_value(self):
        corpus = corpus_of(make_problem("a"))
        record = make_record("a", 1, 1)
        record.candidates[0].metrics.maintainability = 122.31
        profile = mi_profile([record], corpus)
        assert profile.by_difficulty["introductory"] == pytest.approx(122.31)

    def test_mean_of_two(self):
        corpus = corpus_of(make_problem("a"), make_problem("b"))
        r1, r2 = make_record("a", 1, 1), make_record("b", 1, 1)
        r1.candidates[0].metrics.maintainability = 100.0
        r2.candidates[0].metrics.maintainability = 150.0
        profile = mi_profile([r1, r2], corpus)
        assert profile.by_difficulty["all"] == pytest.approx(125.0)

    def test_absent_when_nothing_passed(self):
        corpus = corpus_of(make_problem("a"))
        profile = mi_profile([make_record("a", 2, 0)], corpus)
        assert profile.by_difficulty["introductory"] is None
        assert profile.by_difficulty["all"] is None

    def test_split_breakdown(self):
        corpus = corpus_of(
            make_problem("a", split=Split.VALID),
            make_problem("b", split=Split.TEST),
        )
        r1, r2 = make_record("a", 1, 1), make_record("b", 1, 1)
        r1.candidates[0].metrics.maintainability = 80.0
        r2.candidates[0].metrics.maintainability = 120.0
        profile = mi_profile([r1, r2], corpus)
        assert profile.by_split == {"test": 120.0, "valid": 80.0}


SOLUTION = "a, b = map(int, input().split())\nprint(a + b)"
WRONG = "print(0)"


def sum_problem():
    return make_problem(
        "sum", statement="Print the sum of two integers.",
        tests=(("1 2\n", "3\n"), ("4 4\n", "8\n")),
    )


def fenced(code):
    return f"```python\n{code}\n```"


class TestSelfReflect:
    def test_solves_at_round_two(self):
        provider = MockProvider(script=[fenced(WRONG), fenced(WRONG), fenced(SOLUTION)])
        trace = self_reflect(sum_problem(), CFG, Judge(FAST), max_rounds=5, provider=provider)
        assert trace.solved_at == 2
        assert len(trace.rounds) == 3
        assert trace.rounds[-1].verdict.passed

    def test_cap_reached_when_never_solved(self):
        provider = MockProvider(script=[fenced(WRONG)] * 10)
        trace = self_reflect(sum_problem(), CFG, Judge(FAST), max_rounds=5, provider=provider)
        assert len(trace.rounds) == 5
        assert trace.solved_at is None
        assert len(provider.calls) == 5

    def test_immediate_success_single_round(self):
        provider = MockProvider(script=[fenced(SOLUTION)])
        trace = self_reflect(sum_problem(), CFG, Judge(FAST), max_rounds=5, provider=provider)
        assert trace.solved_at == 0
        assert len(trace.rounds) == 1

    def test_round_prompts_carry_failure_evidence(self):
        provider = MockProvider(script=[fenced(WRONG), fenced(SOLUTION)])
        trace = self_reflect(sum_problem(), CFG, Judge(FAST), max_rounds=3, provider=provider)
        reflection_prompt = trace.rounds[1].prompt
        assert reflection_prompt.tag.value == "reflect"
        assert "round 1 of 3" in reflection_prompt.user
        assert WRONG in reflection_prompt.user

    def test_provider_error_recorded_and_stops(self):
        provider = MockProvider(script=[fenced(WRONG), ProviderError("auth", "denied")])
        trace = self_reflect(sum_problem(), CFG, Judge(FAST), max_rounds=5, provider=provider)
        assert trace.error is not None
        assert len(trace.rounds) == 1
        assert trace.solved_at is None

    def test_max_rounds_validated(self):
        with pytest.raises(ValueError):
            self_reflect(sum_problem(), CFG, Judge(FAST), max_rounds=0, provider=MockProvider())

    def test_rerun_with_cache_reproduces_prefix(self, tmp_path):
        from modeval.llm_client import ResponseCache
        from modeval.sandbox import VerdictCache

        cache = ResponseCache(tmp_path / "responses")
        vcache = VerdictCache(tmp_path / "verdicts")
        provider = MockProvider(script=[fenced(WRONG), fenced(WRONG), fenced(SOLUTION)])
        first = self_reflect(sum_problem(), CFG, Judge(FAST, cache=vcache), max_rounds=3,
                             provider=provider, cache=cache)
        assert first.solved_at == 2
        # rerun at the same cap: every completion replays from the cache (the
        # round prompts embed the cap, so the cap is part of the cache key),
        # and the trace comes back identical
        second = self_reflect(sum_problem(), CFG, Judge(FAST, cache=vcache), max_rounds=3,
                              provider=MockProvider(synthesize=False), cache=cache)
        assert second.solved_at == 2
        assert [r.attempt for r in second.rounds] == [r.attempt for r in first.rounds]
        assert [r.verdict.passed for r in second.rounds] == \
               [r.verdict.passed for r in first.rounds]
