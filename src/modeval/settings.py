"""Pipeline config sections, the harness error, the statuses a run ends in, and
``check_judged``, the one rule of what judging records.

They live apart from the layers that use them (``sandbox`` and ``llm_client``
re-export them) so that reading a config or records loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

MB = 1024 * 1024


class InfrastructureError(Exception):
    """The harness itself cannot run candidates (missing interpreter, etc.)."""


class ExecStatus(str, Enum):
    OK = "ok"
    TIMEOUT = "timeout"
    OOM = "oom"
    RUNTIME_ERROR = "runtime_error"
    OUTPUT_OVERFLOW = "output_overflow"


def check_judged(matched: list[bool], statuses: list[ExecStatus], amounts: list[float],
                 tests: int, fail_fast: bool | None) -> None:
    """Raise ValueError unless judging a problem of ``tests`` tests could record
    these results: one status per result, at least one result, a match only of
    an ok run, each time and memory amount finite and not negative, and a result
    per test or, under ``fail_fast``, per test up to and including the first
    failure.  ``fail_fast=None`` (not recorded) allows either shape."""
    if len(statuses) != len(matched) or not matched:
        raise ValueError(f"{len(matched)} results and {len(statuses)} statuses, where judging "
                         "records one status per result and at least one result")
    if any(ok and status is not ExecStatus.OK for ok, status in zip(matched, statuses)):
        raise ValueError("a result matched where its run did not end ok")
    if not all(0 <= amount < math.inf for amount in amounts):
        raise ValueError(f"a time or memory amount is negative or not finite: {amounts}")
    stopped = min(tests, next((i + 1 for i, ok in enumerate(matched) if not ok), tests))
    if len(matched) not in {False: {tests}, True: {stopped}, None: {tests, stopped}}[fail_fast]:
        raise ValueError(f"{len(matched)} results for a problem of {tests} tests")


@dataclass(frozen=True)
class ResourceLimits:
    """The wall time, resident memory and output size each run may use."""

    wall_time: float = 10.0  # seconds
    memory: int = 256 * MB  # bytes, resident budget
    output_cap: int = 1 * MB  # bytes of stdout kept / allowed

    def __post_init__(self) -> None:
        if self.wall_time <= 0 or self.memory <= 0 or self.output_cap <= 0:
            raise ValueError("all resource limits must be strictly positive")


@dataclass(frozen=True)
class ComparePolicy:
    """How a run's stdout is compared with the expected output."""

    mode: str = "token"  # "token" or "exact"
    float_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.mode not in ("token", "exact"):
            raise ValueError(f"unknown compare mode {self.mode!r}")


@dataclass(frozen=True)
class ProviderConfig:
    """The model, sampling settings and request budget of completion requests."""

    endpoint: str = ""
    model_name: str = "mock"
    temperature: float = 0.0
    max_output_tokens: int = 2048
    api_key_env: str = "MODEVAL_API_KEY"
    max_inflight: int = 4
    retry_limit: int = 3
    timeout: float = 60.0
    retry_backoff: float = 0.5  # seconds; doubles per retry

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if not (0 <= self.retry_limit <= 10):
            raise ValueError("retry_limit must be in [0, 10]")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
