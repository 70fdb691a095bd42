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
from .settings import ExecStatus

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
    """A system and user message pair, tagged with the kind of prompt it is.

    ``program`` is the program ``user`` embeds, which the mock echoes: the reference
    solution of a MoT or clean prompt, the prior attempt of a reflect prompt, empty
    for a direct prompt.  It is in no response-cache key, since ``user`` holds it, and
    is not called ``source``, which names a problem's dataset origin."""

    system: str
    user: str
    tag: PromptTag
    program: str = ""

    def __post_init__(self) -> None:
        if not self.user:
            raise ValueError("prompt user text must be nonempty")


@dataclass(frozen=True)
class SubModule:
    """One function of a MoT outline: its name, its ``def`` header and its docstring."""

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
    """A parsed MoT response: the outline of sub-modules and the final code."""

    outline: list[SubModule]
    final_code: str


class ParseError(Exception):
    """Response does not match the expected two-step grammar.

    ``kind`` names the first rule broken, in the order they are checked:
    ``missing_step`` (a delimiter absent or out of order),
    ``code_before_outline`` (a code block before the STEP 1 line),
    ``no_submodules`` (no sub-module outlined), ``outline_strays`` (the
    outline holds more than headers and docstrings), ``no_final_code`` and
    ``multiple_main`` (the final region holds no or several code blocks).

    ``byte_offset`` is a UTF-8 offset in the raw response: its end for
    ``missing_step``, the first early fence for ``code_before_outline``, the
    STEP 1 line for ``no_submodules`` and ``outline_strays``, the STEP 2 line
    for ``no_final_code`` and the second fence for ``multiple_main``.
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
    return Prompt(system=SYSTEM_MOT, user=user, tag=PromptTag.MOT, program=solution)


def build_clean_prompt(problem: Problem, solution: str) -> Prompt:
    """Readability-rewrite prompt: rename variables, comment, keep behavior."""
    if not solution:
        raise ValueError("solution must be nonempty")
    user = _template("clean_user.txt").substitute(
        statement=problem.statement,
        solution=solution.rstrip("\n"),
    )
    return Prompt(system=SYSTEM_CLEAN, user=user, tag=PromptTag.CLEAN, program=solution)


def build_direct_prompt(problem: Problem) -> Prompt:
    """Plain generation prompt (round 0 of the reflection loop)."""
    user = _template("direct_user.txt").substitute(statement=problem.statement)
    return Prompt(system=SYSTEM_SOLVE, user=user, tag=PromptTag.DIRECT)


def _failure_evidence(verdict: JudgeVerdict, problem: Problem) -> str:
    idx = verdict.first_failure
    if idx is None:
        raise ValueError("verdict has no failing test")
    report, _ = verdict.per_test[idx]
    lines = [f"Test {idx} failed."]
    if report.status is ExecStatus.TIMEOUT:
        lines.append("The program exceeded the wall-time limit and was stopped.")
    elif report.status is ExecStatus.OOM:
        lines.append("The program exceeded the memory limit.")
    elif report.status is ExecStatus.OUTPUT_OVERFLOW:
        lines.append("The program printed far more output than the test allows.")
    elif report.status is ExecStatus.RUNTIME_ERROR:
        lines.append(f"The program crashed (exit code {report.exit_code}).")
        if report.stderr.strip():
            tail = report.stderr.strip().splitlines()[-5:]
            lines.append("Error output:")
            lines.extend(tail)
    # never the test's expected output: the next attempt is scored on this test
    lines.append("Input:")
    lines.append(problem.tests[idx].input.rstrip("\n"))
    if report.status is ExecStatus.OK:
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
    return Prompt(system=SYSTEM_SOLVE, user=user, tag=PromptTag.REFLECT, program=attempt)


# --- response parsing -------------------------------------------------------

_FENCE_OPEN = re.compile(r"^\s*```[^\n`]*$")
_FENCE_CLOSE = re.compile(r"^\s*```\s*$")
_DEF_RE = re.compile(r"^\s*(?:async\s+)?def\s+([A-Za-z_]\w*)\s*\(")


def _line(text: str, at: int, start: int, end: int) -> tuple[int, int]:
    """Start and end of the line that holds ``text[at]`` within ``text[start:end]``;
    the end is its ``"\\n"`` or the end of the window."""
    nl = text.find("\n", at, end)
    return max(text.rfind("\n", start, at) + 1, start), end if nl < 0 else nl


def _delimiter_line(raw: str, delimiter: str, pos: int) -> tuple[int, int] | None:
    """The first line from ``pos``, a line start, that begins with ``delimiter``
    after blanks, as ``_line`` gives it; None if there is none."""
    while (at := raw.find(delimiter, pos)) >= 0:
        start, end = _line(raw, at, 0, len(raw))
        if not raw[start:at].strip():
            return start, end
        pos = end + 1
    return None


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


def extract_code_blocks(text: str, start: int = 0, end: int | None = None) -> list[tuple[str, int]]:
    """Fenced code blocks in ``text[start:end]`` as (content, char offset of the
    fence in ``text``).

    Content is the slice of ``text`` between the fence lines, without the
    ``"\\n"`` that ends its last line."""
    end = len(text) if end is None else end
    blocks: list[tuple[str, int]] = []
    open_at: int | None = None
    body = pos = start  # body: where the open block's content starts
    while (at := text.find("```", pos, end)) >= 0:
        line_start, line_end = _line(text, at, start, end)
        if open_at is None:
            if _FENCE_OPEN.match(text[line_start:line_end]):
                open_at, body = line_start, line_end + 1
        elif _FENCE_CLOSE.match(text[line_start:line_end]):
            blocks.append((text[body:line_start - 1], open_at))
            open_at = None
        pos = line_end + 1
    if open_at is not None:
        # unterminated fence: take it to the end, tolerant of sloppy output
        blocks.append((text[body:end - text.endswith("\n", start, end)], open_at))
    return blocks


def _code_blocks(text: str, start: int = 0, end: int | None = None) -> list[tuple[str, int]]:
    """The fenced blocks of ``text[start:end]`` that hold more than whitespace: a code block."""
    return [(code, at) for code, at in extract_code_blocks(text, start, end) if code.strip()]


def parse_mot_response(raw: str) -> ModularSolution:
    """Parse a two-step response into its outline and final program.

    Raises :class:`ParseError` of the kind of the first rule it breaks.
    """
    step1 = _delimiter_line(raw, STEP1_DELIMITER, 0)
    step2 = step1 and _delimiter_line(raw, STEP2_DELIMITER, step1[1] + 1)
    if step2 is None:
        missing = STEP2_DELIMITER if step1 else STEP1_DELIMITER
        raise ParseError("missing_step", _byte_offset(raw, len(raw)), f"no {missing!r} delimiter")
    early = _code_blocks(raw, 0, step1[0])
    if early:
        raise ParseError("code_before_outline", _byte_offset(raw, early[0][1]),
                         "code block appears before the outline region")
    outline, strays = parse_outline(raw[step1[1] + 1:step2[0]])
    if not outline:
        raise ParseError("no_submodules", _byte_offset(raw, step1[0]),
                         "no sub-modules outlined")
    if strays:
        raise ParseError("outline_strays", _byte_offset(raw, step1[0]),
                         f"outline contains more than headers and docstrings: {strays[0]!r}")
    blocks = _code_blocks(raw, step2[1] + 1)
    if len(blocks) != 1:
        kind, at = ("multiple_main", blocks[1][1]) if blocks else ("no_final_code", step2[0])
        raise ParseError(kind, _byte_offset(raw, at),
                         f"{len(blocks)} code blocks in the final region")
    return ModularSolution(outline=outline, final_code=blocks[0][0])


def parse_code_response(raw: str) -> str:
    """Extract a single program from a plain (non two-step) response.

    Takes the first fenced code block; falls back to the whole text when the
    model answered with bare code.
    """
    blocks = _code_blocks(raw)
    return blocks[0][0] if blocks else raw.strip()


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


def _echo_mot(solution: str) -> str:
    """Echo-style modular response that outlines each ``def`` line of ``solution``."""
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
    """A well-formed response that hands ``prompt.program`` back unchanged (``print()``
    when it is empty): what the mock provider answers when no script or rule does."""
    program = prompt.program.rstrip("\n") or "print()"
    if prompt.tag is PromptTag.MOT:
        return _echo_mot(program)
    return f"```python\n{program}\n```\n"
