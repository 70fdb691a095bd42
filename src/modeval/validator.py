"""Acceptance checks for transformed solutions, and filtering-rate reports.

A transformed response is rejected on the first of four markers that fires:

* m1 strategy divergence: the response does not follow the outline-first
  protocol (a code block comes before the outline region, or the step
  delimiters are missing or out of order);
* m2 no sub-modules: the outline region is empty, or it contains statement
  bodies beyond headers and docstrings (a lone ``pass``/``...`` placeholder
  is allowed);
* m3 main-code count: the final region does not contain exactly one code
  block;
* m4 tests failed: the final program does not pass every test of its problem.

Markers are checked in that fixed order so rejection reasons are stable.
The grammar of m1-m3 is :func:`promptgen.parse_mot_response`'s alone: this
module only names the marker of the :class:`ParseError` kind it raises.
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
    """The assessment of one transformed solution, with its problem, source and data type."""

    problem_id: str
    source: str
    data_type: str  # "mot" or "clean"
    result: AssessmentResult


# each ParseError kind of parse_mot_response, and the marker it fires
_MARKERS = {
    "missing_step": Marker.M1_STRATEGY_DIVERGENCE,
    "code_before_outline": Marker.M1_STRATEGY_DIVERGENCE,
    "no_submodules": Marker.M2_NO_SUBMODULES,
    "outline_strays": Marker.M2_NO_SUBMODULES,
    "no_final_code": Marker.M3_MAIN_CODE_COUNT,
    "multiple_main": Marker.M3_MAIN_CODE_COUNT,
}


def assess_structure(raw: str) -> tuple[AssessmentResult, ModularSolution | None]:
    """Structural markers m1-m3 over a raw two-step response, parsed once.

    The marker is that of the first rule :func:`promptgen.parse_mot_response`
    finds broken, and the detail its message; an accepted response comes back
    parsed.
    """
    try:
        return AssessmentResult(), promptgen.parse_mot_response(raw)
    except ParseError as exc:
        return AssessmentResult(_MARKERS[exc.kind], exc.message), None


def assess_clean(text: str) -> tuple[AssessmentResult, str | None]:
    """Marker m3 over a readability rewrite; the program when accepted."""
    blocks = promptgen._code_blocks(text)
    if len(blocks) != 1:
        return AssessmentResult(Marker.M3_MAIN_CODE_COUNT,
                                f"{len(blocks)} code blocks in rewrite response"), None
    return AssessmentResult(), blocks[0][0]


def assess_verdict(verdict: JudgeVerdict) -> AssessmentResult:
    """Marker m4 over a judge verdict: accept only when every test passed."""
    if verdict.passed:
        return AssessmentResult()
    idx = verdict.first_failure
    status = verdict.per_test[idx][0].status.value
    return AssessmentResult(Marker.M4_TESTS_FAILED, f"first failing test {idx} ({status})")


@dataclass
class RateRow:
    """The records of one (source, data type) cell before and after filtering."""

    pre_count: int  # at least 1: a cell exists once a record is counted in it
    post_count: int

    @property
    def rate_percent(self) -> int:
        """The whole percent of the cell's records that were accepted, rounded half up."""
        return int(self.post_count * 100 / self.pre_count + 0.5)


def filter_pass_rate(records: list[FilterRecord]) -> dict[tuple[str, str], RateRow]:
    """Pre/post counts and whole-percent passing rate per (source, data_type)."""
    pre: dict[tuple[str, str], int] = {}
    post: dict[tuple[str, str], int] = {}
    for record in records:
        cell = (record.source, record.data_type)
        pre[cell] = pre.get(cell, 0) + 1
        if record.result.accepted:
            post[cell] = post.get(cell, 0) + 1
    return {cell: RateRow(pre_count, post.get(cell, 0)) for cell, pre_count in sorted(pre.items())}


def rate_table_lines(table: dict[tuple[str, str], RateRow]) -> list[str]:
    """Human-readable rate table, one row per (source, data_type)."""
    lines = [f"{'source':<16} {'type':<6} {'pre':>8} {'post':>8} {'rate':>6}"]
    for (source, data_type), row in table.items():
        rate = f"{row.rate_percent}%"
        lines.append(
            f"{source:<16} {data_type:<6} {row.pre_count:>8} {row.post_count:>8} {rate:>6}"
        )
    return lines
