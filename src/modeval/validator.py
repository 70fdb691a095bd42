"""Acceptance checks for transformed solutions, and filtering-rate reports.

A transformed response is rejected on the first of four markers that fires:

* m1 strategy divergence: the response does not follow the outline-first
  protocol (implementation code appears before the outline region, or the
  step delimiters are missing or out of order);
* m2 no sub-modules: the outline region is empty, or it contains statement
  bodies beyond headers and docstrings (a lone ``pass``/``...`` placeholder
  is allowed);
* m3 main-code count: the final region does not contain exactly one code
  block;
* m4 tests failed: the final program does not pass every test of its problem.

Markers are checked in that fixed order so rejection reasons are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from . import promptgen
from .promptgen import ModularSolution, ParseError

if TYPE_CHECKING:  # structural checks run no sandbox
    from .sandbox import JudgeVerdict


class Marker(str, Enum):
    M1_STRATEGY_DIVERGENCE = "m1_strategy_divergence"
    M2_NO_SUBMODULES = "m2_no_submodules"
    M3_MAIN_CODE_COUNT = "m3_main_code_count"
    M4_TESTS_FAILED = "m4_tests_failed"


@dataclass
class AssessmentResult:
    """A rejection names the marker that fired; an acceptance names none."""

    marker: Marker | None = None
    detail: str = ""

    @property
    def accepted(self) -> bool:
        return self.marker is None


@dataclass
class FilterRecord:
    problem_id: str
    source: str
    data_type: str  # "mot" or "clean"
    result: AssessmentResult


def _single_block(text: str, where: str) -> tuple[AssessmentResult, str | None]:
    """Marker m3: ``text`` must hold exactly one non-empty fenced code block."""
    blocks = [b for b, _ in promptgen.extract_code_blocks(text) if b.strip()]
    if len(blocks) != 1:
        return AssessmentResult(Marker.M3_MAIN_CODE_COUNT,
                                f"{len(blocks)} code blocks in {where}"), None
    return AssessmentResult(), blocks[0]


def assess_structure(raw: str) -> tuple[AssessmentResult, ModularSolution | None]:
    """Structural markers m1-m3 over a raw two-step response, parsed once.

    The checks run in the fixed m1 -> m2 -> m3 order, so the first firing
    marker is always the one reported.  An accepted response comes back
    parsed, equal to what :func:`promptgen.parse_mot_response` returns.
    """
    try:
        split = promptgen.split_steps(raw)
    except ParseError as exc:
        return AssessmentResult(Marker.M1_STRATEGY_DIVERGENCE, exc.message), None
    if "```" in raw[: split.step1_char]:
        return AssessmentResult(Marker.M1_STRATEGY_DIVERGENCE,
                                "code block appears before the outline region"), None

    outline, strays = promptgen.parse_outline(split.step1)
    if not outline:
        return AssessmentResult(Marker.M2_NO_SUBMODULES, "no sub-modules outlined"), None
    if strays:
        detail = f"outline contains more than headers and docstrings: {strays[0]!r}"
        return AssessmentResult(Marker.M2_NO_SUBMODULES, detail), None

    result, final_code = _single_block(split.step2, "the final region")
    if final_code is None:
        return result, None
    return result, ModularSolution(outline=outline, final_code=final_code)


def assess_clean(text: str) -> tuple[AssessmentResult, str | None]:
    """Marker m3 over a readability rewrite; the program when accepted."""
    return _single_block(text, "rewrite response")


def assess_verdict(verdict: JudgeVerdict) -> AssessmentResult:
    """Marker m4 over a judge verdict: accept only when every test passed."""
    if verdict.passed:
        return AssessmentResult()
    idx = verdict.first_failure
    status = verdict.per_test[idx][0].status.value
    return AssessmentResult(Marker.M4_TESTS_FAILED, f"first failing test {idx} ({status})")


@dataclass
class RateRow:
    pre_count: int
    post_count: int
    rate_percent: int | None  # whole percent, absent when pre_count is 0


def filter_pass_rate(records: list[FilterRecord]) -> dict[tuple[str, str], RateRow]:
    """Pre/post counts and whole-percent passing rate per (source, data_type)."""
    pre: dict[tuple[str, str], int] = {}
    post: dict[tuple[str, str], int] = {}
    for record in records:
        cell = (record.source, record.data_type)
        pre[cell] = pre.get(cell, 0) + 1
        if record.result.accepted:
            post[cell] = post.get(cell, 0) + 1
    table: dict[tuple[str, str], RateRow] = {}
    for cell, pre_count in sorted(pre.items()):
        post_count = post.get(cell, 0)
        rate = int(post_count * 100 / pre_count + 0.5) if pre_count else None
        table[cell] = RateRow(pre_count=pre_count, post_count=post_count, rate_percent=rate)
    return table


def rate_table_lines(table: dict[tuple[str, str], RateRow]) -> list[str]:
    """Human-readable rate table, one row per (source, data_type)."""
    lines = [f"{'source':<16} {'type':<6} {'pre':>8} {'post':>8} {'rate':>6}"]
    for (source, data_type), row in table.items():
        rate = f"{row.rate_percent}%" if row.rate_percent is not None else "-"
        lines.append(
            f"{source:<16} {data_type:<6} {row.pre_count:>8} {row.post_count:>8} {rate:>6}"
        )
    return lines
