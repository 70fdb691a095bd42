import operator
import random
from dataclasses import asdict
from fractions import Fraction
from functools import reduce

import pytest

from modeval.codemetrics import CodeMetrics, analyze
from modeval.corpus import Difficulty, Split
from modeval.evaluate import (
    CandidateRow,
    _mean,
    evaluate_corpus,
    function_accuracy_profile,
    mi_profile,
    pass_at_k,
    resource_profile,
    self_reflect,
)
from modeval.llm_client import MockProvider, ProviderConfig, ProviderError
from modeval.sandbox import Judge, ResourceLimits

from conftest import make_problem, make_rows, make_verdict
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


def mean_inputs(make_item, rng, extra=300):
    lengths = [*range(1, 9), 1000] + [rng.randint(1, 1000) for _ in range(extra)]
    return [[make_item(rng) for _ in range(n)] for n in lengths]


def wide_float(rng):
    return rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-8, 8)


def exact_mean(xs):
    """The exact sum, rounded once, over the count."""
    return float(sum(map(Fraction, xs))) / len(xs)


class TestMean:
    """``_mean`` is the correctly rounded sum over the count, whatever the order
    of the items; float.hex compares to the bit, sign of zero included."""

    @pytest.mark.parametrize("make_item", [
        wide_float,
        lambda rng: rng.randint(-10**6, 10**6),
        lambda rng: rng.random() < 0.3,
    ], ids=["floats", "ints", "bools"])
    def test_matches_fraction_oracle(self, make_item):
        for xs in mean_inputs(make_item, random.Random(8)):
            assert _mean(xs).hex() == exact_mean(xs).hex(), len(xs)

    def test_negative_zero_reads_positive(self):
        for xs in ([-0.0], [-0.0] * 8, [-0.0] * 200):
            assert _mean(xs).hex() == "0x0.0p+0"

    def test_empty_is_none(self):
        assert _mean([]) is None

    def test_the_inputs_tell_summation_orders_apart(self):
        # a plain left-to-right sum rounds at every step; the inputs above
        # must catch it, or the oracle test proves nothing (the built-in sum
        # is compensated from Python 3.12 on, so the fold is written out)
        inputs = mean_inputs(wide_float, random.Random(8))
        assert any((reduce(operator.add, xs) / len(xs)).hex() != exact_mean(xs).hex()
                   for xs in inputs)


def random_rows(rng):
    """Candidate rows of 1-40 problems over every level and split, with wide-
    magnitude times, memory and maintainability, 3-5 candidates each."""
    rows = []
    for i in range(rng.randint(1, 40)):
        problem = make_problem(f"p{i}", difficulty=rng.choice(list(Difficulty)),
                               split=rng.choice([Split.TRAIN, Split.VALID, Split.TEST]))
        for index in range(rng.randint(3, 5)):
            metrics = CodeMetrics(halstead_volume=1.0, cyclomatic=1, sloc=1,
                                  comment_density=0.0, maintainability=wide_float(rng),
                                  function_count=rng.randint(0, 9))
            verdict = make_verdict(passed=rng.random() < 0.5, avg_time=abs(wide_float(rng)),
                                   avg_peak_memory=abs(wide_float(rng)))
            rows.append(CandidateRow.judged(problem, index, verdict, metrics))
    return rows


class TestEvaluateCorpus:
    def test_all_passing(self):
        rows = make_rows(make_problem("a"), 1, 1) + make_rows(make_problem("b"), 2, 2)
        report = evaluate_corpus(rows, ks=[1])
        assert report.pass_at_k["all"][1] == 1.0
        assert report.pass_at_k["introductory"][1] == 1.0

    def test_two_difficulty_average(self):
        rows = (make_rows(make_problem("a", difficulty=Difficulty.INTRODUCTORY), 1, 1)
                + make_rows(make_problem("b", difficulty=Difficulty.COMPETITION), 1, 0))
        report = evaluate_corpus(rows, ks=[1])
        assert report.pass_at_k["introductory"][1] == 1.0
        assert report.pass_at_k["competition"][1] == 0.0
        assert report.pass_at_k["all"][1] == 0.5

    def test_thirty_problem_fixture_matches_hand_average(self):
        # known (n, c) per problem; expectation computed with the enumeration
        # oracle and a plain mean, independently of the estimator under test
        rng = random.Random(7)
        corpus_problems = []
        counts = []
        rows = []
        difficulties = [Difficulty.INTRODUCTORY, Difficulty.INTERVIEW, Difficulty.COMPETITION]
        for i in range(30):
            difficulty = difficulties[i % 3]
            n = rng.randint(3, 6)
            c = rng.randint(0, n)
            corpus_problems.append(make_problem(f"p{i}", difficulty=difficulty))
            counts.append((n, c))
            rows += make_rows(corpus_problems[-1], n, c)
        report = evaluate_corpus(rows, ks=[1, 3])

        for k in (1, 3):
            by_difficulty = {}
            for problem, (n, c) in zip(corpus_problems, counts):
                by_difficulty.setdefault(problem.difficulty.value, []).append(
                    pass_at_k_enumerated(n, c, k)
                )
            for label, values in by_difficulty.items():
                assert report.pass_at_k[label][k] == pytest.approx(
                    sum(values) / len(values), abs=1e-12
                )
            everything = [v for vals in by_difficulty.values() for v in vals]
            assert report.pass_at_k["all"][k] == pytest.approx(
                sum(everything) / len(everything), abs=1e-12
            )

    def test_per_level_mean_mode(self):
        rows = (make_rows(make_problem("a", difficulty=Difficulty.INTRODUCTORY), 1, 1)
                + make_rows(make_problem("b", difficulty=Difficulty.INTRODUCTORY), 1, 1)
                + make_rows(make_problem("c", difficulty=Difficulty.COMPETITION), 1, 0))
        problems_weighted = evaluate_corpus(rows, ks=[1])
        level_weighted = evaluate_corpus(rows, ks=[1], all_mode="difficulty-means")
        assert problems_weighted.pass_at_k["all"][1] == pytest.approx(2 / 3)
        assert level_weighted.pass_at_k["all"][1] == pytest.approx(0.5)

    def test_record_order_does_not_matter(self):
        rows = [row for i in range(6) for row in make_rows(make_problem(f"p{i}"), 2, i % 3)]
        orders = [(rows, [1, 2], list(reversed(rows)))]
        rng = random.Random(9)
        for _ in range(150):
            rows = random_rows(rng)
            orders.append((rows, [1, 2, 3], rng.sample(rows, len(rows))))
        for rows, ks, reordered in orders:
            for all_mode in ("problems", "difficulty-means"):
                assert asdict(evaluate_corpus(rows, ks, all_mode)) == \
                       asdict(evaluate_corpus(reordered, ks, all_mode)), (len(rows), all_mode)


FUNC0 = "print(input())"
FUNC2 = "def f():\n    pass\ndef g():\n    pass\nprint(1)"


class TestFunctionAccuracyProfile:
    def test_single_bin_all_passing(self):
        rows = make_rows(make_problem("a"), 3, 3, code=FUNC0)
        profile = function_accuracy_profile(rows)
        assert profile["introductory"]["0"].accuracy == 1.0
        assert profile["introductory"]["0"].count == 3
        assert profile["all"]["0"].accuracy == 1.0

    def test_two_function_pass_zero_function_fail(self):
        problem = make_problem("a")
        rows = [
            CandidateRow.judged(problem, 0, make_verdict(passed=True), analyze(FUNC2)),
            CandidateRow.judged(problem, 1, make_verdict(passed=False), analyze(FUNC0)),
        ]
        profile = function_accuracy_profile(rows)
        assert profile["introductory"]["2"].accuracy == 1.0
        assert profile["introductory"]["0"].accuracy == 0.0

    def test_empty_records(self):
        assert function_accuracy_profile([]) == {}

    def test_overflow_bin(self):
        many = "\n".join(f"def f{i}():\n    pass" for i in range(9))
        rows = [CandidateRow.judged(make_problem("a"), 0, make_verdict(passed=True), analyze(many))]
        profile = function_accuracy_profile(rows)
        assert profile["introductory"]["8+"].count == 1


class TestResourceProfile:
    def test_single_passed_candidate(self):
        rows = make_rows(make_problem("a"), 1, 1, avg_time=1.0, avg_peak_memory=10 * 10 ** 6)
        profile = resource_profile(rows)
        assert profile["introductory"].avg_time == pytest.approx(1.0)
        assert profile["introductory"].avg_peak_memory == pytest.approx(10 * 10 ** 6)

    def test_mean_over_passed(self):
        rows = (make_rows(make_problem("a"), 1, 1, avg_time=1.0)
                + make_rows(make_problem("b"), 1, 1, avg_time=3.0))
        profile = resource_profile(rows)
        assert profile["all"].avg_time == pytest.approx(2.0)

    def test_failed_candidates_excluded(self):
        problem = make_problem("a")
        rows = [
            CandidateRow.judged(problem, 0, make_verdict(passed=True, avg_time=1.0), analyze(FUNC0)),
            CandidateRow.judged(problem, 1, make_verdict(passed=False, avg_time=99.0), analyze(FUNC0)),
        ]
        profile = resource_profile(rows)
        assert profile["introductory"].avg_time == pytest.approx(1.0)
        assert profile["introductory"].passed_count == 1

    def test_no_passed_candidates_absent(self):
        profile = resource_profile(make_rows(make_problem("a"), 1, 0))
        assert profile["introductory"] is None


class TestMiProfile:
    def test_single_value(self):
        rows = make_rows(make_problem("a"), 1, 1)
        rows[0].metrics.maintainability = 122.31
        profile = mi_profile(rows)
        assert profile.by_difficulty["introductory"] == pytest.approx(122.31)

    def test_mean_of_two(self):
        r1, r2 = make_rows(make_problem("a"), 1, 1), make_rows(make_problem("b"), 1, 1)
        r1[0].metrics.maintainability = 100.0
        r2[0].metrics.maintainability = 150.0
        profile = mi_profile(r1 + r2)
        assert profile.by_difficulty["all"] == pytest.approx(125.0)

    def test_absent_when_nothing_passed(self):
        profile = mi_profile(make_rows(make_problem("a"), 2, 0))
        assert profile.by_difficulty["introductory"] is None
        assert profile.by_difficulty["all"] is None

    def test_split_breakdown(self):
        r1 = make_rows(make_problem("a", split=Split.VALID), 1, 1)
        r2 = make_rows(make_problem("b", split=Split.TEST), 1, 1)
        r1[0].metrics.maintainability = 80.0
        r2[0].metrics.maintainability = 120.0
        profile = mi_profile(r1 + r2)
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
        assert provider.calls == 5

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
