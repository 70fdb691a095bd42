"""The sections of a pipeline config, and the error of a harness that cannot run.

They live apart from the layers that use them (``sandbox`` and
``llm_client`` re-export them) so that reading a config loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass

MB = 1024 * 1024


class InfrastructureError(Exception):
    """The harness itself cannot run candidates (missing interpreter, etc.)."""


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
