"""Every pipeline config type (``PipelineConfig`` and its sections), the harness
error, the statuses a run ends in, and ``check_judged``, the one rule of what
judging records.

They live apart from the layers that use them (``sandbox`` and ``llm_client``
re-export them) so that reading a config or records loads neither, and apart
from ``cli``, so that ``decode`` resolves every config annotation here
whichever module runs as ``__main__``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .corpus import Split

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


@dataclass
class PipelineConfig:
    """One pipeline config: the JSON file's keys, then the command-line flags given."""

    corpus: dict[Split, str | None] = field(default_factory=dict)
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    limits: ResourceLimits = field(default_factory=ResourceLimits)
    compare: ComparePolicy = field(default_factory=ComparePolicy)
    dedup_threshold: float = 0.9
    dedup_holdout_split: str | None = None
    solution_cap: int = 100
    ks: list[int] = field(default_factory=lambda: [1])
    max_reflection_rounds: int = 5
    outdir: str = "out"
    workers: int = 4
    cache_dir: str | None = None
    runner: str | None = None
    keep_scratch: bool = False
    data_types: list[str] = field(default_factory=lambda: ["mot", "clean"])
    transform_split: str = "train"
    eval_split: str = "test"
    fail_fast: bool = False
    all_mode: str = "problems"
    mock_provider: str | None = None
    top_level_functions_only: bool = False
    raw: dict = field(default_factory=dict, init=False, compare=False)  # hashed into manifests

    def __post_init__(self) -> None:
        self.ks = sorted(set(self.ks))
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.solution_cap < 1:
            raise ValueError(f"solution_cap must be >= 1, got {self.solution_cap}")
        if not 0 < self.dedup_threshold <= 1:
            raise ValueError(f"dedup_threshold must be in (0, 1], got {self.dedup_threshold}")
        if self.max_reflection_rounds < 1:
            raise ValueError(f"max_reflection_rounds must be >= 1, got {self.max_reflection_rounds}")
        if self.ks and self.ks[0] < 1:
            raise ValueError(f"ks must be >= 1, got {self.ks[0]}")
        if self.all_mode not in ("problems", "difficulty-means"):
            raise ValueError(f"unknown all_mode {self.all_mode!r}")
        for i, dt in enumerate(self.data_types):
            if dt not in ("mot", "clean"):
                raise ValueError(f"unknown data type {dt!r}")
            if dt in self.data_types[:i]:
                raise ValueError(f"data_types names {dt!r} twice")
