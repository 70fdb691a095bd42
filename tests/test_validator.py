import pytest

from modeval.promptgen import parse_mot_response
from modeval.sandbox import InfrastructureError, Judge, ResourceLimits
from modeval.validator import (
    AssessmentResult,
    FilterRecord,
    Marker,
    assess_clean,
    assess_structure,
    assess_verdict,
    filter_pass_rate,
)

from conftest import KIND_MARKERS, make_problem, parse_and_assess


def assess(raw: str) -> AssessmentResult:
    return assess_structure(raw)[0]


GOOD_BODY = """```python
def helper():
    return int(input())

print(helper() * 2)
```
"""

# Four well-formed responses that must all be accepted.
WELL_FORMED = {
    "plain": (
        "### STEP 1\n\ndef helper():\n    \"\"\"Parse one int from stdin.\"\"\"\n\n"
        "### STEP 2\n\n" + GOOD_BODY
    ),
    "two_submodules": (
        "### STEP 1\n\ndef read():\n    \"\"\"Read ints.\"\"\"\n\n"
        "def solve(xs):\n    \"\"\"Answer for xs (list of int).\"\"\"\n\n"
        "### STEP 2\n\n" + GOOD_BODY
    ),
    "placeholder_pass": (
        "### STEP 1\n\ndef helper():\n    \"\"\"Parse one int.\"\"\"\n    pass\n\n"
        "### STEP 2\n\n" + GOOD_BODY
    ),
    "chatter_before_outline": (
        "Sure, here is the modular rewrite.\n\n### STEP 1\n\n"
        "def helper():\n    \"\"\"Parse one int.\"\"\"\n\n"
        "### STEP 2\n\nHere is the final program:\n\n" + GOOD_BODY
    ),
}

# Twelve rejection fixtures, three per marker.
M1_FIXTURES = {
    "code_fence_before_outline": (
        "```python\nprint('eager implementation')\n```\n\n### STEP 1\n\n"
        "def helper():\n    \"\"\"Doc.\"\"\"\n\n### STEP 2\n\n" + GOOD_BODY
    ),
    "no_step1_delimiter": (
        "def helper():\n    \"\"\"Doc.\"\"\"\n\n### STEP 2\n\n" + GOOD_BODY
    ),
    "steps_out_of_order": (
        "### STEP 2\n\n" + GOOD_BODY + "\n### STEP 1\n\ndef helper():\n    \"\"\"Doc.\"\"\"\n"
    ),
}
M2_FIXTURES = {
    "empty_outline": "### STEP 1\n\n(no functions needed)\n\n### STEP 2\n\n" + GOOD_BODY,
    "full_body_in_outline": (
        "### STEP 1\n\ndef helper():\n    \"\"\"Doc.\"\"\"\n    value = int(input())\n"
        "    return value\n\n### STEP 2\n\n" + GOOD_BODY
    ),
    "overarching_code_instead": (
        "### STEP 1\n\nresult = int(input()) * 2\nprint(result)\n\n"
        "def helper():\n    \"\"\"Doc.\"\"\"\n\n### STEP 2\n\n" + GOOD_BODY
    ),
}
M3_FIXTURES = {
    "no_final_block": (
        "### STEP 1\n\ndef helper():\n    \"\"\"Doc.\"\"\"\n\n### STEP 2\n\n"
        "The final solution just doubles the input.\n"
    ),
    "two_final_blocks": (
        "### STEP 1\n\ndef helper():\n    \"\"\"Doc.\"\"\"\n\n### STEP 2\n\n"
        "```python\ndef helper():\n    return int(input())\n```\n\n"
        "```python\nprint(helper() * 2)\n```\n"
    ),
    "three_final_blocks": (
        "### STEP 1\n\ndef helper():\n    \"\"\"Doc.\"\"\"\n\n### STEP 2\n\n"
        "```python\na = 1\n```\n```python\nb = 2\n```\n```python\nprint(a + b)\n```\n"
    ),
}


# the kind each rejection fixture raises, and the detail filter_records.jsonl writes for it
REJECTIONS = {
    "code_fence_before_outline": (
        "code_before_outline", "code block appears before the outline region"),
    "no_step1_delimiter": ("missing_step", "no '### STEP 1' delimiter"),
    "steps_out_of_order": ("missing_step", "no '### STEP 2' delimiter"),
    "empty_outline": ("no_submodules", "no sub-modules outlined"),
    "full_body_in_outline": (
        "outline_strays",
        "outline contains more than headers and docstrings: 'value = int(input())'"),
    "overarching_code_instead": (
        "outline_strays",
        "outline contains more than headers and docstrings: 'result = int(input()) * 2'"),
    "no_final_block": ("no_final_code", "0 code blocks in the final region"),
    "two_final_blocks": ("multiple_main", "2 code blocks in the final region"),
    "three_final_blocks": ("multiple_main", "3 code blocks in the final region"),
}
MARKED = {name: (marker, raw)
          for marker, fixtures in ((Marker.M1_STRATEGY_DIVERGENCE, M1_FIXTURES),
                                   (Marker.M2_NO_SUBMODULES, M2_FIXTURES),
                                   (Marker.M3_MAIN_CODE_COUNT, M3_FIXTURES))
          for name, raw in fixtures.items()}


class TestStructuralMarkers:
    @pytest.mark.parametrize("name", sorted(WELL_FORMED))
    def test_well_formed_accepted(self, name):
        assert parse_and_assess(WELL_FORMED[name]) == (None, AssessmentResult())

    @pytest.mark.parametrize("name", sorted(M1_FIXTURES))
    def test_m1_strategy_divergence(self, name):
        result = assess(M1_FIXTURES[name])
        assert not result.accepted
        assert result.marker is Marker.M1_STRATEGY_DIVERGENCE

    @pytest.mark.parametrize("name", sorted(M2_FIXTURES))
    def test_m2_no_submodules(self, name):
        result = assess(M2_FIXTURES[name])
        assert result.marker is Marker.M2_NO_SUBMODULES

    @pytest.mark.parametrize("name", sorted(M3_FIXTURES))
    def test_m3_main_code_count(self, name):
        result = assess(M3_FIXTURES[name])
        assert result.marker is Marker.M3_MAIN_CODE_COUNT

    def test_markers_checked_in_order(self):
        # violates m1 (fence before the outline), m2 (no sub-modules), and
        # m3 (two final blocks): the first marker in the fixed order wins
        raw = (
            "```python\nx = 1\n```\n### STEP 1\n\nnothing here\n\n### STEP 2\n\n"
            "```python\na = 1\n```\n```python\nb = 2\n```\n"
        )
        assert assess(raw).marker is Marker.M1_STRATEGY_DIVERGENCE

    def test_fence_mentioned_in_prose_is_no_code_block(self):
        # "```" inside a prose line opens no fence, so no code comes before the outline
        raw = ('Answer uses ``` fences below.\n### STEP 1\ndef f():\n    """Do it."""\n'
               "### STEP 2\n```python\nprint(1)\n```\n")
        assert parse_and_assess(raw) == (None, AssessmentResult())

    @pytest.mark.parametrize("name", sorted(MARKED))
    def test_parser_kind_names_the_marker_and_detail(self, name):
        marker, raw = MARKED[name]
        kind, result = parse_and_assess(raw)
        assert (kind, result.detail) == REJECTIONS[name]
        assert result.marker is marker

    def test_every_kind_is_pinned(self):
        assert {kind for kind, _ in REJECTIONS.values()} == set(KIND_MARKERS)
        assert set(REJECTIONS) == set(MARKED)

    @pytest.mark.parametrize("text, count", [
        ("Renamed the variables; the code is unchanged.\n", 0),
        ("```python\n   \n```\n", 0),
        ("```python\nx = 1\n```\n```python\nprint(x)\n```\n", 2),
    ], ids=["no_block", "blank_block", "two_blocks"])
    def test_rewrite_without_one_code_block_is_m3(self, text, count):
        result, code = assess_clean(text)
        assert (result.marker, result.detail, code) == (
            Marker.M3_MAIN_CODE_COUNT, f"{count} code blocks in rewrite response", None)

    def test_accept_implies_reparseable(self):
        for raw in WELL_FORMED.values():
            result = assess(raw)
            assert result.accepted
            sol = parse_mot_response(raw)
            assert sol.outline  # nonempty outline
            assert sol.final_code.strip()
            assert assess_structure(raw)[1] == sol


class TestFunctionalMarker:
    LIMITS = ResourceLimits(wall_time=5.0)

    def test_echo_program_accepted(self):
        sol = parse_mot_response(WELL_FORMED["plain"])
        problem = make_problem(tests=(("3\n", "6\n"), ("10\n", "20\n")))
        verdict = Judge(self.LIMITS)(sol.final_code, problem)
        assert assess_verdict(verdict).accepted
        assert verdict.passed

    def test_constant_program_rejected_at_first_test(self):
        raw = WELL_FORMED["plain"].replace(GOOD_BODY, "```python\nprint(7)\n```\n")
        sol = parse_mot_response(raw)
        problem = make_problem(tests=(("1\n", "2\n"), ("2\n", "4\n")))
        verdict = Judge(self.LIMITS)(sol.final_code, problem)
        result = assess_verdict(verdict)
        assert result.marker is Marker.M4_TESTS_FAILED
        assert "test 0" in result.detail
        assert verdict.first_failure == 0

    def test_timeout_rejected_with_timeout_detail(self):
        raw = WELL_FORMED["plain"].replace(
            GOOD_BODY, "```python\nwhile True:\n    pass\n```\n"
        )
        sol = parse_mot_response(raw)
        problem = make_problem(tests=(("1\n", "1\n"),))
        result = assess_verdict(Judge(ResourceLimits(wall_time=1.0))(sol.final_code, problem))
        assert result.marker is Marker.M4_TESTS_FAILED
        assert "timeout" in result.detail

    def test_untestable_problem_rejected_as_precondition(self):
        sol = parse_mot_response(WELL_FORMED["plain"])
        problem = make_problem(tests=())
        with pytest.raises(ValueError):
            Judge()(sol.final_code, problem)

    def test_missing_interpreter_is_infrastructure_not_m4(self):
        sol = parse_mot_response(WELL_FORMED["plain"])
        problem = make_problem(tests=(("1\n", "2\n"),))
        with pytest.raises(InfrastructureError):
            Judge(runner="definitely-not-a-binary {file}")(sol.final_code, problem)


def records_for(source: str, data_type: str, pre: int, post: int) -> list[FilterRecord]:
    rows = []
    for i in range(pre):
        if i < post:
            result = AssessmentResult()
        else:
            result = AssessmentResult(marker=Marker.M4_TESTS_FAILED, detail="t")
        rows.append(FilterRecord(f"{source}-{data_type}-{i}", source, data_type, result))
    return rows


class TestFilterPassRate:
    def test_scaled_training_table_rates(self):
        records = (
            records_for("APPS", "mot", 117, 68)
            + records_for("CodeContests", "mot", 154, 70)
            + records_for("APPS", "clean", 117, 75)
            + records_for("CodeContests", "clean", 154, 99)
        )
        table = filter_pass_rate(records)
        assert table[("APPS", "mot")].rate_percent == 58
        assert table[("CodeContests", "mot")].rate_percent == 45
        assert table[("APPS", "clean")].rate_percent == 64
        assert table[("CodeContests", "clean")].rate_percent == 64

    def test_counts_carried_through(self):
        table = filter_pass_rate(records_for("S", "mot", 10, 4))
        row = table[("S", "mot")]
        assert (row.pre_count, row.post_count) == (10, 4)

    def test_zero_attempts_rate_absent(self):
        assert filter_pass_rate([]) == {}

    def test_post_never_exceeds_pre(self):
        records = records_for("S", "mot", 7, 7) + records_for("S", "clean", 3, 0)
        table = filter_pass_rate(records)
        assert sum(r.post_count for r in table.values()) <= sum(
            r.pre_count for r in table.values()
        )
        assert table[("S", "mot")].rate_percent == 100
        assert table[("S", "clean")].rate_percent == 0
