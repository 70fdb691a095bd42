import pkgutil
import random
from collections import Counter

import pytest

from modeval import promptgen, validator
from modeval.promptgen import (
    ModularSolution,
    ParseError,
    PromptTag,
    SubModule,
    build_clean_prompt,
    build_direct_prompt,
    build_mot_prompt,
    build_reflection_prompt,
    extract_code_blocks,
    parse_code_response,
    parse_mot_response,
    parse_outline,
    render_modular_solution,
)
from modeval.sandbox import ExecStatus, ExecutionReport, JudgeVerdict

from conftest import KIND_MARKERS, make_problem, parse_and_assess
from oracles import (
    extract_code_blocks_splitlines,
    parse_mot_response_splitlines,
    parse_outline_splitlines,
)


def failing_verdict(status=ExecStatus.OK, stdout="wrong\n", stderr="", exit_code=0):
    report = ExecutionReport(status=status, stdout=stdout, stderr=stderr,
                             wall_time_used=0.01, compile_time=0.0, cpu_time=0.01,
                             peak_memory=1_000_000,
                             exit_code=exit_code)
    return JudgeVerdict(per_test=[(report, False)])


class TestBuildMotPrompt:
    @pytest.mark.parametrize("statement,solution", [
        ("Sum two ints.", "print(1+2)"),
        ("", "x = input()\nprint(x)"),
        ("Multi\nline\nstatement", "print(0)"),
    ])
    def test_delimiters_exactly_once(self, statement, solution):
        prompt = build_mot_prompt(make_problem(statement=statement), solution)
        assert prompt.user.count("### STEP 1") == 1
        assert prompt.user.count("### STEP 2") == 1

    def test_one_line_solution_still_outlines_first(self):
        prompt = build_mot_prompt(make_problem(), "print(input())")
        # the outline instruction precedes the implementation instruction
        first = prompt.user.index("first step")
        second = prompt.user.index("second step")
        assert first < second
        assert prompt.tag is PromptTag.MOT

    def test_prompts_share_one_one_shot_example(self):
        texts = [pkgutil.get_data("modeval", f"templates/one_shot_{part}.txt").decode().rstrip("\n")
                 for part in ("input", "output")]
        for pid, solution in (("a", "print(1)"), ("b", "print(2)")):
            user = build_mot_prompt(make_problem(pid=pid), solution).user
            assert all(text in user for text in texts)

    def test_embeds_statement_and_solution(self):
        prompt = build_mot_prompt(make_problem(statement="UNIQUE-STMT"), "UNIQUE_SOL = 1")
        assert "UNIQUE-STMT" in prompt.user
        assert "UNIQUE_SOL = 1" in prompt.user

    def test_golden_file(self, fixtures_dir):
        problem = make_problem(
            pid="golden-p1",
            statement="Read two integers on one line and print their sum.",
            solutions=("a, b = map(int, input().split())\nprint(a + b)",),
            tests=(("1 2\n", "3\n"), ("5 7\n", "12\n")),
        )
        prompt = build_mot_prompt(problem, problem.solutions[0])
        golden = (fixtures_dir / "golden" / "mot_prompt.txt").read_text(encoding="utf-8")
        assert prompt.user == golden

    def test_empty_solution_rejected(self):
        with pytest.raises(ValueError):
            build_mot_prompt(make_problem(), "")

    def test_pure(self):
        p = make_problem()
        assert build_mot_prompt(p, "x=1").user == build_mot_prompt(p, "x=1").user


class TestBuildCleanPrompt:
    def test_three_goal_clauses(self):
        prompt = build_clean_prompt(make_problem(), "x = 1")
        assert "Rename variables" in prompt.user
        assert "Add comments" in prompt.user
        assert "without changing" in prompt.user or "no change in functionality" in prompt.user

    def test_empty_statement_allowed(self):
        prompt = build_clean_prompt(make_problem(statement=""), "x = 1")
        assert prompt.user

    def test_golden_file(self, fixtures_dir):
        problem = make_problem(
            pid="golden-p1",
            statement="Read two integers on one line and print their sum.",
        )
        prompt = build_clean_prompt(problem, "a, b = map(int, input().split())\nprint(a + b)")
        golden = (fixtures_dir / "golden" / "clean_prompt.txt").read_text(encoding="utf-8")
        assert prompt.user == golden


class TestBuildReflectionPrompt:
    def test_wrong_answer_embeds_diff_triple(self):
        # the test's input and the program's output; never the expected output, which
        # the next attempt is scored on
        problem = make_problem(tests=(("1 2\n", "3\n"),))
        prompt = build_reflection_prompt(problem, "print(4)", failing_verdict(stdout="4\n"),
                                         round=1)
        evidence = prompt.user.partition("[FAILURE]\n")[2].partition("\n\n")[0]
        assert evidence == "Test 0 failed.\nInput:\n1 2\nGot:\n4"
        assert "Expected output" not in prompt.user

    def test_timeout_has_notice_and_no_got(self):
        verdict = failing_verdict(status=ExecStatus.TIMEOUT, stdout="")
        prompt = build_reflection_prompt(make_problem(), "while True: pass", verdict, round=1)
        assert "time" in prompt.user.lower()
        assert "Got:" not in prompt.user

    def test_crash_reports_error_class(self):
        verdict = failing_verdict(status=ExecStatus.RUNTIME_ERROR, stdout="",
                                  stderr="Traceback...\nZeroDivisionError: division by zero",
                                  exit_code=1)
        prompt = build_reflection_prompt(make_problem(), "1/0", verdict, round=1)
        assert "crashed" in prompt.user
        assert "ZeroDivisionError" in prompt.user
        assert "Got:" not in prompt.user

    def test_memory_breach_notice(self):
        verdict = failing_verdict(status=ExecStatus.OOM, stdout="")
        prompt = build_reflection_prompt(make_problem(), "x = [0] * 10**9", verdict, round=1)
        assert "memory" in prompt.user.lower()
        assert "Got:" not in prompt.user

    def test_output_flood_notice(self):
        verdict = failing_verdict(status=ExecStatus.OUTPUT_OVERFLOW, stdout="xxxx")
        prompt = build_reflection_prompt(make_problem(), "while 1: print(1)", verdict, round=1)
        assert "more output" in prompt.user
        assert "Got:" not in prompt.user

    def test_golden_round2(self, fixtures_dir):
        problem = make_problem(
            pid="golden-p1",
            statement="Read two integers on one line and print their sum.",
            tests=(("1 2\n", "3\n"), ("5 7\n", "12\n")),
        )
        verdict = failing_verdict(stdout="4\n")
        prompt = build_reflection_prompt(
            problem, "a, b = map(int, input().split())\nprint(a * 2)", verdict,
            round=2, max_rounds=5,
        )
        assert "round 2 of 5" in prompt.user
        golden = (fixtures_dir / "golden" / "reflect_prompt_round2.txt").read_text(encoding="utf-8")
        assert prompt.user == golden

    def test_passing_verdict_rejected(self):
        report, _ = failing_verdict().per_test[0]
        verdict = JudgeVerdict(per_test=[(report, True)])
        with pytest.raises(ValueError):
            build_reflection_prompt(make_problem(), "x", verdict, round=1)

    def test_round_bounds(self):
        with pytest.raises(ValueError):
            build_reflection_prompt(make_problem(), "x", failing_verdict(), round=0)
        with pytest.raises(ValueError):
            build_reflection_prompt(make_problem(), "x", failing_verdict(), round=6, max_rounds=5)


WELL_FORMED = """### STEP 1

def read_input():
    \"\"\"Read n and the list of ints from stdin.\"\"\"

def solve(values):
    \"\"\"Return the answer for the list of ints.\"\"\"

### STEP 2

```python
def read_input():
    return list(map(int, input().split()))

def solve(values):
    return sum(values)

print(solve(read_input()))
```
"""


class TestParseMotResponse:
    def test_well_formed_two_submodules(self):
        sol = parse_mot_response(WELL_FORMED)
        assert [s.name for s in sol.outline] == ["read_input", "solve"]
        assert sol.outline[0].docstring == "Read n and the list of ints from stdin."
        assert "print(solve(read_input()))" in sol.final_code

    def test_missing_step2_delimiter(self):
        raw = WELL_FORMED.replace("### STEP 2", "## part two")
        with pytest.raises(ParseError) as exc:
            parse_mot_response(raw)
        assert exc.value.kind == "missing_step"
        assert exc.value.byte_offset == len(raw.encode("utf-8"))

    def test_missing_step1_delimiter(self):
        with pytest.raises(ParseError) as exc:
            parse_mot_response(WELL_FORMED.replace("### STEP 1", ""))
        assert exc.value.kind == "missing_step"

    def test_step2_before_step1_is_missing_step(self):
        raw = "### STEP 2\n```python\nx=1\n```\n### STEP 1\ndef f():\n    \"\"\"D.\"\"\"\n"
        with pytest.raises(ParseError) as exc:
            parse_mot_response(raw)
        assert exc.value.kind == "missing_step"

    def test_two_final_blocks(self):
        raw = WELL_FORMED + "\n```python\nprint('extra')\n```\n"
        with pytest.raises(ParseError) as exc:
            parse_mot_response(raw)
        assert exc.value.kind == "multiple_main"
        assert 0 < exc.value.byte_offset <= len(raw.encode("utf-8"))

    def test_zero_final_blocks(self):
        raw = WELL_FORMED.split("```")[0]  # cut everything from the first fence
        with pytest.raises(ParseError) as exc:
            parse_mot_response(raw)
        assert exc.value.kind == "no_final_code"

    def test_round_trip(self):
        sol = ModularSolution(
            outline=[
                SubModule("parse", "def parse(line):", "Split the line into ints."),
                SubModule("answer", "def answer(xs):", "Compute the output value."),
            ],
            final_code="def parse(line):\n    return line.split()\nprint(parse(input()))",
        )
        rendered = render_modular_solution(sol)
        back = parse_mot_response(rendered)
        assert [s.name for s in back.outline] == ["parse", "answer"]
        assert [s.docstring for s in back.outline] == [s.docstring for s in sol.outline]
        assert back.final_code == sol.final_code

    def test_fenced_outline_tolerated(self):
        raw = WELL_FORMED.replace(
            "### STEP 1\n", "### STEP 1\n```python\n"
        ).replace("\n### STEP 2", "\n```\n### STEP 2", 1)
        sol = parse_mot_response(raw)
        assert len(sol.outline) == 2


class TestParseOutline:
    def test_statement_body_is_stray(self):
        entries, strays = parse_outline(
            'def f():\n    """Doc."""\n    return 42\n'
        )
        assert len(entries) == 1
        assert strays == ["return 42"]

    def test_pass_and_ellipsis_are_placeholders(self):
        entries, strays = parse_outline(
            'def f():\n    """Doc."""\n    pass\n\ndef g():\n    """Doc2."""\n    ...\n'
        )
        assert len(entries) == 2
        assert strays == []

    def test_header_without_docstring_is_defect(self):
        entries, strays = parse_outline("def f():\n    pass\n")
        assert entries == []
        assert strays

    def test_empty_region(self):
        assert parse_outline("") == ([], [])

    def test_multiline_docstring(self):
        entries, _ = parse_outline('def f(a, b):\n    """Line one\n    line two.\n    """\n')
        assert entries[0].docstring == "Line one\n    line two."

    def test_blank_docstring_is_defect(self):
        assert parse_outline('def f():\n    """   """\n') == ([], ["f: empty docstring"])


class TestParseCodeResponse:
    def test_takes_first_fenced_block(self):
        assert parse_code_response("intro\n```python\nx = 1\n```\nbye") == "x = 1"

    def test_falls_back_to_bare_text(self):
        assert parse_code_response("print(1)\n") == "print(1)"


class TestSections:
    def test_echo_mot_outlines_each_def_line(self):
        # the mock's MoT answer outlines every def line of the solution, nested or not,
        # with its header as written, and ships the solution as the final code
        solution = ("def read() -> int:\n    return int(input())\n\nclass Box:\n"
                    "    def area(self, w):\n        return w * w\n\nprint(Box().area(read()))")
        prompt = build_mot_prompt(make_problem(), solution)
        parsed = parse_mot_response(promptgen.echo_response(prompt))
        assert [(m.name, m.header) for m in parsed.outline] == [
            ("read", "def read() -> int:"), ("area", "def area(self, w):")]
        assert {m.docstring for m in parsed.outline} == {"Helper used by the final solution."}
        assert parsed.final_code == solution

    @pytest.mark.parametrize("build", [
        build_mot_prompt,
        build_clean_prompt,
        lambda problem, program: build_reflection_prompt(problem, program, failing_verdict(), 1),
    ], ids=["mot", "clean", "reflect"])
    def test_echo_gives_back_a_program_with_section_like_lines(self, build):
        # a column-0 "[N]" line looks like a prompt section header, but the echo
        # answers from the program the prompt was built from, not from its text
        program = "N = 2\n[N]\nprint(N)"
        prompt = build(make_problem(), program + "\n")
        response = promptgen.echo_response(prompt)
        if prompt.tag is PromptTag.MOT:
            assert parse_mot_response(response).final_code == program
        else:
            assert response == f"```python\n{program}\n```\n"

    def test_direct_prompt_has_statement(self):
        prompt = build_direct_prompt(make_problem(statement="THE-TASK"))
        assert prompt.tag is PromptTag.DIRECT
        assert "THE-TASK" in prompt.user

    def test_prompt_requires_user_text(self):
        with pytest.raises(ValueError):
            promptgen.Prompt(system="s", user="", tag=PromptTag.MOT)


class TestSplitSteps:
    """Where the response splits into its two steps, as ``ParseError`` offsets report it."""

    def test_char_offsets_point_at_delimiters(self):
        # "à" is two bytes in UTF-8, so a char offset would fall one byte short
        no_outline = "Voilà\n### STEP 1\n\n### STEP 2\n```\nx\n```\n"
        no_code = "Voilà\n" + WELL_FORMED.split("```")[0]
        for raw, kind, delimiter in ((no_outline, "no_submodules", "### STEP 1"),
                                     (no_code, "no_final_code", "### STEP 2")):
            with pytest.raises(ParseError) as exc:
                parse_mot_response(raw)
            assert exc.value.kind == kind
            assert raw.encode("utf-8")[exc.value.byte_offset:].startswith(delimiter.encode())


# characters at which ``str.splitlines`` breaks a line and the scanners do not
SPLITLINES_ONLY = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r")


class TestLineModel:
    """A line ends at "\\n" alone, so fenced code comes back byte for byte."""

    PROGRAM = 's = "a\u2028b\x85c\fd"\nprint(len(s))'

    def test_extract_code_blocks_keeps_separators(self):
        text = f"intro\n```python\n{self.PROGRAM}\n```\n"
        assert extract_code_blocks(text) == [(self.PROGRAM, 6)]

    def test_parse_code_response_keeps_separators(self):
        assert parse_code_response(f"```python\n{self.PROGRAM}\n```\n") == self.PROGRAM

    def test_parse_mot_response_keeps_separators(self):
        raw = WELL_FORMED.split("```python")[0] + f"```python\n{self.PROGRAM}\n```\n"
        assert parse_mot_response(raw).final_code == self.PROGRAM
        result, sol = validator.assess_structure(raw)
        assert result.accepted and sol.final_code == self.PROGRAM

    def test_assess_clean_keeps_separators(self):
        result, code = validator.assess_clean(f"Cleaned:\n```python\n{self.PROGRAM}\n```\n")
        assert result.accepted and code == self.PROGRAM

    def test_separators_do_not_end_a_fence_or_delimiter_line(self):
        # "x\u2028```" is one line, which neither opens nor closes a fence
        assert extract_code_blocks("x\u2028```\ny\n") == []
        with pytest.raises(ParseError) as exc:
            parse_mot_response("### STEP 1\nx\u2028### STEP 2\n")
        assert exc.value.kind == "missing_step"

    def test_crlf_two_step_response(self):
        raw = WELL_FORMED.replace("\n", "\r\n")
        sol = parse_mot_response(raw)
        assert [(s.name, s.header, s.docstring) for s in sol.outline] == [
            ("read_input", "def read_input():", "Read n and the list of ints from stdin."),
            ("solve", "def solve(values):", "Return the answer for the list of ints."),
        ]
        assert sol.final_code == (
            "def read_input():\r\n    return list(map(int, input().split()))\r\n\r\n"
            "def solve(values):\r\n    return sum(values)\r\n\r\nprint(solve(read_input()))\r"
        )
        raw += "\r\n```python\r\nprint(2)\r\n```\r\n"
        with pytest.raises(ParseError) as exc:
            parse_mot_response(raw)
        assert (exc.value.kind, exc.value.byte_offset) == ("multiple_main", 330)
        assert raw[330:].startswith("```python\r\nprint(2)")

    def test_multiple_main_points_at_the_second_fence(self):
        raw = ('### STEP 1\ndef f():\n    """Doc."""\n### STEP 2\n'
               "```python\nprint(1)\n```\n```python\nprint(2)\n```\n")
        with pytest.raises(ParseError) as exc:
            parse_mot_response(raw)
        assert (exc.value.kind, exc.value.byte_offset) == ("multiple_main", 69)
        assert raw[69:].startswith("```python\nprint(2)")


PIECES = (
    "```", "```python", "```py title", "``` ", "  ```", "\t```\t", "```x`y", "`", "``",
    "### STEP 1", "### STEP 10", "### STEP 2", "  ### STEP 2", "x ### STEP 1",
    "[PROBLEM]", "[ORIGINAL SOLUTION]", "[PROBLEM] \t", "[Problem]", "[PROBLEM] x",
    "def f(a):", "async def g(", "b):", "def h()", '    """Doc."""', '    """Doc', '    more."""',
    "    pass", "# note", "x = 1", "print(a)", "", " ", "\t", "\xa0", "é",
)


def random_text(rng, separators):
    parts = []
    for _ in range(rng.randrange(30)):
        parts += [rng.choice(PIECES) for _ in range(rng.randrange(3))]
        parts.append(rng.choice(separators))
    if parts and rng.random() < 0.5:
        parts.pop()  # no line end at the end of the text
    return "".join(parts)


# the grammar's skeleton: lines before STEP 1, STEP 1, outline pieces, STEP 2,
# then 0-3 fenced blocks among other final-region pieces
BEFORE_PIECES = (("Intro.",), ("Answer uses ``` fences below.",), ("```python", "x = 0", "```"))
OUTLINE_PIECES = (
    ("def f(a):", '    """Doc."""'), ("async def g(", "b):", '    """Doc', '    more."""'),
    ("def h():", "    pass"), ("    pass",), ("# note",), ("",), ("x = 1",),
    ("```python",), ("```",),
)
FINAL_PIECES = (("Done.",), ("```", ""), ("```python", "   ", "```"), ("```python", "print(2)"))
BLOCK = ("```python", "print(1)", "```")


def skeleton_text(rng, separator):
    lines = [*rng.choice(BEFORE_PIECES)] if rng.random() < 0.1 else []
    if rng.random() < 0.95:
        lines.append("### STEP 1")
    for _ in range(rng.randrange(4)):
        lines += rng.choice(OUTLINE_PIECES)
    if rng.random() < 0.95:
        lines.append("### STEP 2")
    final = [BLOCK] * rng.randrange(4) + [rng.choice(FINAL_PIECES) for _ in range(rng.randrange(2))]
    rng.shuffle(final)
    for piece in final:
        lines += piece
    return separator.join(lines) + rng.choice(("", separator))


def outcome(fn, text):
    try:
        return fn(text)
    except ParseError as exc:
        return exc.kind, exc.byte_offset, exc.message


class TestDifferentialOracle:
    """The scanners against their earlier ``str.splitlines`` forms."""

    def test_equal_where_lines_end_only_at_newlines(self):
        rng = random.Random(20)
        for _ in range(20_000):
            text = random_text(rng, ("\n", "\r\n", "\n\n"))
            assert extract_code_blocks(text) == extract_code_blocks_splitlines(text), text
            assert outcome(parse_mot_response, text) == outcome(
                parse_mot_response_splitlines, text), text
            assert parse_outline(text) == parse_outline_splitlines(text), text
            parse_and_assess(text)

    def test_equal_on_the_grammar_skeleton_and_every_rule_is_reached(self):
        rng = random.Random(22)
        kinds = Counter()
        for separator in ("\n", "\r\n", "\n\n"):
            for _ in range(1_000):
                text = skeleton_text(rng, separator)
                assert outcome(parse_mot_response, text) == outcome(
                    parse_mot_response_splitlines, text), text
                kind, _ = parse_and_assess(text)
                kinds[kind] += 1
        assert set(kinds) == {*KIND_MARKERS, None}, kinds

    def test_window_scans_like_the_slice(self):
        rng = random.Random(23)
        for _ in range(5_000):
            text = random_text(rng, ("\n", "\r\n") + SPLITLINES_ONLY)
            start = rng.randrange(len(text) + 1)
            end = rng.choice((None, rng.randrange(start, len(text) + 1)))
            shifted = [(code, start + at) for code, at in extract_code_blocks(text[start:end])]
            assert extract_code_blocks(text, start, end) == shifted, (text, start, end)

    def test_blocks_are_verbatim_slices_under_any_separator(self):
        rng = random.Random(21)
        for _ in range(5_000):
            text = random_text(rng, ("\n", "\r\n") + SPLITLINES_ONLY)
            for content, at in extract_code_blocks(text):
                fence_end = text.find("\n", at)
                if fence_end < 0:
                    fence_end = len(text)
                assert "```" in text[at:fence_end], text
                assert text.startswith(content, fence_end + 1) or not content, text
