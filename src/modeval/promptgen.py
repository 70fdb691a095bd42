"""Prompt construction and response parsing for the transformation pipeline.

Three prompt families are built here:

* the two-step modularization prompt (outline sub-modules first, then
  implement and integrate them into one final program),
* the readability ("clean") rewrite prompt,
* the self-reflection prompt that feeds failure evidence back to the model,
  plus a plain direct-generation prompt used as reflection round 0.

The expected response grammar is explicit so that downstream checks are
decidable: two regions opened by the delimiter lines ``### STEP 1`` and
``### STEP 2``, sub-module outlines as ``def`` headers followed by
docstrings, and exactly one fenced code block in the second region.
Wording lives in versioned template files under ``templates/``, not in code.

Responses are scanned on one line model: a line ends at ``"\\n"`` alone (a
``"\\r"`` before it stays in the line), so U+2028, ``"\\x85"`` or ``"\\f"``
inside a program never split it, and fenced code is a slice of the response.
"""

from __future__ import annotations

import pkgutil
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from string import Template
from typing import TYPE_CHECKING

from .corpus import Problem

if TYPE_CHECKING:
    from .sandbox import JudgeVerdict

STEP1_DELIMITER = "### STEP 1"
STEP2_DELIMITER = "### STEP 2"

SYSTEM_MOT = (
    "You are an expert Python developer who writes clear, modular solutions "
    "to programming problems."
)
SYSTEM_CLEAN = (
    "You are an expert Python developer who improves code readability "
    "without changing behavior."
)
SYSTEM_SOLVE = (
    "You are an expert competitive programmer. Your programs read standard "
    "input and write standard output."
)


class PromptTag(str, Enum):
    MOT = "mot"
    CLEAN = "clean"
    REFLECT = "reflect"
    DIRECT = "direct"


@dataclass(frozen=True)
class Prompt:
    system: str
    user: str
    tag: PromptTag

    def __post_init__(self) -> None:
        if not self.user:
            raise ValueError("prompt user text must be nonempty")


@dataclass(frozen=True)
class SubModule:
    name: str
    header: str
    docstring: str

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ValueError(f"sub-module name {self.name!r} is not an identifier")
        if not self.docstring:
            raise ValueError("sub-module docstring must be nonempty")


@dataclass
class ModularSolution:
    outline: list[SubModule]
    final_code: str


class ParseError(Exception):
    """Response does not match the expected two-step grammar.

    ``kind`` is one of ``missing_step``, ``no_final_code``, ``multiple_main``;
    ``byte_offset`` is the UTF-8 offset of the violation in the raw text.
    """

    def __init__(self, kind: str, byte_offset: int, message: str) -> None:
        super().__init__(f"{kind} at byte {byte_offset}: {message}")
        self.kind = kind
        self.byte_offset = byte_offset
        self.message = message


def _byte_offset(text: str, char_index: int) -> int:
    return len(text[:char_index].encode("utf-8"))


@lru_cache(maxsize=None)
def _template(name: str) -> Template:
    """``templates/<name>``; its ``template`` attribute is the file's text."""
    # pkgutil reads package data without importing importlib.resources, which imports tempfile
    return Template(pkgutil.get_data("modeval", f"templates/{name}").decode("utf-8"))


@lru_cache(maxsize=None)
def _one_shot() -> tuple[str, str]:
    """The one-shot (input, output) example, stripped once: every MoT prompt shares it."""
    return (_template("one_shot_input.txt").template.rstrip("\n"),
            _template("one_shot_output.txt").template.rstrip("\n"))


def build_mot_prompt(problem: Problem, solution: str) -> Prompt:
    """Two-step modularization prompt for one (problem, reference solution) pair."""
    if not solution:
        raise ValueError("solution must be nonempty")
    example = _one_shot()
    user = _template("mot_user.txt").substitute(
        example_input=example[0],
        example_output=example[1],
        statement=problem.statement,
        solution=solution.rstrip("\n"),
    )
    return Prompt(system=SYSTEM_MOT, user=user, tag=PromptTag.MOT)


def build_clean_prompt(problem: Problem, solution: str) -> Prompt:
    """Readability-rewrite prompt: rename variables, comment, keep behavior."""
    if not solution:
        raise ValueError("solution must be nonempty")
    user = _template("clean_user.txt").substitute(
        statement=problem.statement,
        solution=solution.rstrip("\n"),
    )
    return Prompt(system=SYSTEM_CLEAN, user=user, tag=PromptTag.CLEAN)


def build_direct_prompt(problem: Problem) -> Prompt:
    """Plain generation prompt (round 0 of the reflection loop)."""
    user = _template("direct_user.txt").substitute(statement=problem.statement)
    return Prompt(system=SYSTEM_SOLVE, user=user, tag=PromptTag.DIRECT)


def _failure_evidence(verdict: JudgeVerdict, problem: Problem) -> str:
    idx = verdict.first_failure
    if idx is None:
        raise ValueError("verdict has no failing test")
    report, _ = verdict.per_test[idx]
    test = problem.tests[idx]
    lines = [f"Test {idx} failed."]
    # statuses by their ExecStatus values, so building prompts loads no sandbox
    status = report.status.value
    if status == "timeout":
        lines.append("The program exceeded the wall-time limit and was stopped.")
    elif status == "oom":
        lines.append("The program exceeded the memory limit.")
    elif status == "output_overflow":
        lines.append("The program printed far more output than the test allows.")
    elif status == "runtime_error":
        lines.append(f"The program crashed (exit code {report.exit_code}).")
        if report.stderr.strip():
            tail = report.stderr.strip().splitlines()[-5:]
            lines.append("Error output:")
            lines.extend(tail)
    lines.append("Input:")
    lines.append(test.input.rstrip("\n"))
    lines.append("Expected output:")
    lines.append(test.expected_output.rstrip("\n"))
    if status == "ok":
        lines.append("Got:")
        lines.append(report.stdout.rstrip("\n"))
    return "\n".join(lines)


def build_reflection_prompt(
    problem: Problem,
    attempt: str,
    verdict: JudgeVerdict,
    round: int,
    max_rounds: int = 5,
) -> Prompt:
    """Reflection prompt embedding the prior attempt and the first failure."""
    if verdict.passed:
        raise ValueError("cannot build a reflection prompt from a passing verdict")
    if not (1 <= round <= max_rounds):
        raise ValueError(f"round must be in [1, {max_rounds}], got {round}")
    user = _template("reflect_user.txt").substitute(
        round=round,
        max_rounds=max_rounds,
        statement=problem.statement,
        attempt=attempt.rstrip("\n"),
        failure_evidence=_failure_evidence(verdict, problem),
    )
    return Prompt(system=SYSTEM_SOLVE, user=user, tag=PromptTag.REFLECT)


# --- response parsing -------------------------------------------------------

_FENCE_OPEN = re.compile(r"^\s*```[^\n`]*$")
_FENCE_CLOSE = re.compile(r"^\s*```\s*$")
_DEF_RE = re.compile(r"^\s*(?:async\s+)?def\s+([A-Za-z_]\w*)\s*\(")


@dataclass
class StepSplit:
    step1: str
    step2: str
    step1_char: int  # char offset of the STEP 1 delimiter line start
    step2_char: int


def _line(text: str, at: int) -> tuple[int, int]:
    """Start and end of the line that holds ``text[at]``; the end is its ``"\\n"``
    or the end of ``text``."""
    end = text.find("\n", at)
    return text.rfind("\n", 0, at) + 1, len(text) if end < 0 else end


def _delimiter_line(raw: str, delimiter: str, pos: int) -> tuple[int, int] | None:
    """The first line from ``pos``, a line start, that begins with ``delimiter``
    after blanks, as ``_line`` gives it; None if there is none."""
    while (at := raw.find(delimiter, pos)) >= 0:
        start, end = _line(raw, at)
        if not raw[start:at].strip():
            return start, end
        pos = end + 1
    return None


def split_steps(raw: str) -> StepSplit:
    """Locate the two step delimiters; raise ParseError(missing_step) otherwise."""
    step1 = _delimiter_line(raw, STEP1_DELIMITER, 0)
    step2 = step1 and _delimiter_line(raw, STEP2_DELIMITER, step1[1] + 1)
    if step2 is None:
        missing = STEP2_DELIMITER if step1 else STEP1_DELIMITER
        raise ParseError("missing_step", _byte_offset(raw, len(raw)), f"no {missing!r} delimiter")
    return StepSplit(
        step1=raw[step1[1] + 1:step2[0]],
        step2=raw[step2[1] + 1:],
        step1_char=step1[0],
        step2_char=step2[0],
    )


_DOCSTRING_OPEN = re.compile(r'^\s*[rRbBuUfF]{0,2}("""|\'\'\')')


def parse_outline(step1_text: str) -> tuple[list[SubModule], list[str]]:
    """Parse the outline region into sub-module entries plus stray statements.

    A stray statement is any line that is not part of a header, a docstring,
    a comment, a fence, a blank line, or a lone ``pass``/``...`` placeholder.
    Stray statements mean the outline was not "headers and docstrings only".
    """
    entries: list[SubModule] = []
    strays: list[str] = []
    # headers and docstrings are rebuilt from lines, so a CRLF ending drops its "\r"
    lines = step1_text.replace("\r\n", "\n").split("\n")
    i = 0
    while i < len(lines):
        line = lines[i]
        stripped = line.strip()
        if (
            not stripped
            or stripped.startswith("#")
            or _FENCE_OPEN.match(line)
            or stripped in ("pass", "...")
        ):
            i += 1
            continue
        m = _DEF_RE.match(line)
        if not m:
            strays.append(stripped)
            i += 1
            continue

        name = m.group(1)
        header_lines = [line]
        while not header_lines[-1].rstrip().endswith(":") and i + 1 < len(lines):
            i += 1
            header_lines.append(lines[i])
            if len(header_lines) > 8:
                break
        header = "\n".join(header_lines)
        if not header.rstrip().endswith(":"):
            strays.append(stripped)
            i += 1
            continue
        i += 1

        # skip blanks between header and docstring
        while i < len(lines) and not lines[i].strip():
            i += 1
        doc_open = _DOCSTRING_OPEN.match(lines[i]) if i < len(lines) else None
        if doc_open is None:
            strays.append(f"{name}: header without docstring")
            continue
        quote = doc_open.group(1)
        rest = lines[i][doc_open.end():]
        if quote in rest:
            doc = rest[: rest.index(quote)]
            i += 1
        else:
            doc_parts = [rest]
            i += 1
            while i < len(lines) and quote not in lines[i]:
                doc_parts.append(lines[i])
                i += 1
            if i < len(lines):
                doc_parts.append(lines[i][: lines[i].index(quote)])
                i += 1
            doc = "\n".join(doc_parts)
        doc = doc.strip()
        if not doc:
            strays.append(f"{name}: empty docstring")
            continue
        entries.append(SubModule(name=name, header=header, docstring=doc))
    return entries, strays


def extract_code_blocks(text: str) -> list[tuple[str, int]]:
    """Fenced code blocks in ``text`` as (content, char offset of the fence).

    Content is the slice of ``text`` between the fence lines, without the
    ``"\\n"`` that ends its last line."""
    blocks: list[tuple[str, int]] = []
    open_at: int | None = None
    body = pos = 0  # body: where the open block's content starts
    while (at := text.find("```", pos)) >= 0:
        start, end = _line(text, at)
        if open_at is None:
            if _FENCE_OPEN.match(text[start:end]):
                open_at, body = start, end + 1
        elif _FENCE_CLOSE.match(text[start:end]):
            blocks.append((text[body:start - 1], open_at))
            open_at = None
        pos = end + 1
    if open_at is not None:
        # unterminated fence: take it to the end, tolerant of sloppy output
        blocks.append((text[body:len(text) - text.endswith("\n")], open_at))
    return blocks


def parse_mot_response(raw: str) -> ModularSolution:
    """Parse a two-step response into its outline and final program.

    Raises :class:`ParseError` with kind ``missing_step`` when a delimiter is
    absent, ``no_final_code`` when the second region has no fenced block, and
    ``multiple_main`` when it has more than one.
    """
    split = split_steps(raw)
    outline, _ = parse_outline(split.step1)
    blocks = extract_code_blocks(split.step2)
    blocks = [(code, off) for code, off in blocks if code.strip()]
    if not blocks:
        raise ParseError(
            "no_final_code",
            _byte_offset(raw, split.step2_char),
            "no fenced code block in the final-solution region",
        )
    if len(blocks) > 1:
        raise ParseError(
            "multiple_main",
            _byte_offset(raw, split.step2_char + blocks[1][1]),
            f"{len(blocks)} fenced code blocks in the final-solution region",
        )
    final_code = blocks[0][0]
    return ModularSolution(outline=outline, final_code=final_code)


def parse_code_response(raw: str) -> str:
    """Extract a single program from a plain (non two-step) response.

    Takes the first fenced code block; falls back to the whole text when the
    model answered with bare code.
    """
    blocks = [code for code, _ in extract_code_blocks(raw) if code.strip()]
    if blocks:
        return blocks[0]
    return raw.strip()


def render_modular_solution(sol: ModularSolution) -> str:
    """Render a solution in the exact format :func:`parse_mot_response` reads."""
    parts = [STEP1_DELIMITER, ""]
    for sub in sol.outline:
        parts.append(sub.header)
        doc = sub.docstring.replace('"""', "'''")
        parts.append(f'    """{doc}"""')
        parts.append("")
    parts += [STEP2_DELIMITER, "", "```python", sol.final_code.rstrip("\n"), "```"]
    return "\n".join(parts) + "\n"


_SECTION_RE = re.compile(r"^\[([A-Z ]+)\]\s*$", re.MULTILINE)


def extract_section(user_text: str, name: str) -> str | None:
    """Text of the last ``[NAME]`` section in a built prompt, or None.

    Sections run to the next ``[HEADER]`` line or end of text.  The last
    occurrence wins because the one-shot example embeds sections of its own
    and the real problem always comes after it.  Used by the deterministic
    mock provider to recover the statement or original solution embedded in
    a prompt.
    """
    header = f"[{name}]"
    at = user_text.rfind(header)
    while at >= 0:
        m = _SECTION_RE.match(user_text, at)  # only where a line starts, by ``^``
        if m and m.group(1) == name:
            end = user_text.find("\n[", m.end())
            while end >= 0 and not _SECTION_RE.match(user_text, end + 1):
                end = user_text.find("\n[", end + 1)
            return user_text[m.end():len(user_text) if end < 0 else end + 1].strip("\n")
        at = user_text.rfind(header, 0, at + len(header) - 1)
    return None


def extract_fenced_section(user_text: str, name: str) -> str | None:
    """The code inside the fenced block of a ``[NAME]`` section, if any."""
    section = extract_section(user_text, name)
    if section is None:
        return None
    blocks = extract_code_blocks(section)
    if blocks:
        return blocks[0][0]
    return section


def _echo_mot(user_text: str) -> str:
    """Echo-style modular response built from the solution inside the prompt."""
    solution = extract_fenced_section(user_text, "ORIGINAL SOLUTION")
    if solution is None:
        solution = "print()"
    outline = []
    for line in solution.split("\n"):
        stripped = line.strip()
        if stripped.startswith("def ") and stripped.endswith(":"):
            name = stripped[4:].split("(", 1)[0].strip()
            if name.isidentifier():
                outline.append(
                    SubModule(name=name, header=stripped, docstring="Helper used by the final solution.")
                )
    outline = outline or [SubModule(name="solve", header="def solve():",
                                    docstring="Read standard input, compute the answer, print it.")]
    return render_modular_solution(ModularSolution(outline=outline, final_code=solution))


def echo_response(prompt: Prompt) -> str:
    """A well-formed response to ``prompt`` built from the code embedded in it:
    what the mock provider answers when no script, rule or default does."""
    if prompt.tag is PromptTag.MOT:
        return _echo_mot(prompt.user)
    if prompt.tag is PromptTag.CLEAN:
        solution = extract_fenced_section(prompt.user, "ORIGINAL SOLUTION") or "print()"
        return f"```python\n{solution}\n```\n"
    if prompt.tag is PromptTag.REFLECT:
        attempt = extract_fenced_section(prompt.user, "PRIOR ATTEMPT") or "print()"
        return f"```python\n{attempt}\n```\n"
    return "```python\nprint()\n```\n"
