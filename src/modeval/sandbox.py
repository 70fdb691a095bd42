"""Run candidate programs against I/O tests in isolated subprocesses.

Each run gets a fresh scratch directory and a fresh process in its own
session.  Wall time is enforced by polling with a hard kill of the whole
process group; memory is enforced through an address-space rlimit installed
by a small ``sh`` wrapper (no fork hooks, so it is safe to launch runs from
worker threads).  Peak memory is the child's max resident set as reported by
the kernel at reap time (``wait4``), which is the usual notion of peak for
single-process candidates.

Candidates are not forked from this (potentially large) process directly: a
forked child starts with the parent's resident pages and Linux folds that
into the child's reported max RSS, which would put a harness-sized floor
under every memory reading.  Instead runs go through a pool of slim broker
processes (``python -S``) that do the fork/exec/wait4 dance from their own
small images, so peak-memory readings reflect the candidate alone.

This is resource isolation, not a security boundary: candidates can read the
filesystem and open sockets.  Do not run untrusted code outside a disposable
environment.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import math
import os
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

from .corpus import Problem

MB = 1024 * 1024

# Address space allowed beyond the resident-memory budget (interpreter
# mappings, shared libs).  Enforcement only; accounting uses max RSS.
ADDRESS_SPACE_SLACK = 128 * MB

# Documented bound on the interpreter's own resident footprint: a run that
# allocates N bytes reports peak_memory in [N, N + this bound].
INTERPRETER_OVERHEAD_BOUND = 64 * MB

# Extra seconds a timed-out process may run past its wall limit before the
# kill lands (scheduler / poll granularity).
KILL_GRACE = 0.5

_POLL_INTERVAL = 0.004


class ExecStatus(str, Enum):
    OK = "ok"
    TIMEOUT = "timeout"
    OOM = "oom"
    RUNTIME_ERROR = "runtime_error"
    OUTPUT_OVERFLOW = "output_overflow"


class InfrastructureError(Exception):
    """The harness itself cannot run candidates (missing interpreter, etc.)."""


@dataclass(frozen=True)
class ResourceLimits:
    wall_time: float = 10.0  # seconds
    memory: int = 256 * MB  # bytes, resident budget
    output_cap: int = 1 * MB  # bytes of stdout kept / allowed

    def __post_init__(self) -> None:
        if self.wall_time <= 0 or self.memory <= 0 or self.output_cap <= 0:
            raise ValueError("all resource limits must be strictly positive")


@dataclass
class ExecutionReport:
    status: ExecStatus
    stdout: str
    stderr: str
    wall_time_used: float
    peak_memory: int
    exit_code: int


@dataclass(frozen=True)
class ComparePolicy:
    mode: str = "token"  # "token" or "exact"
    float_tolerance: float = 1e-6


@dataclass
class JudgeVerdict:
    per_test: list[tuple[ExecutionReport, bool]]
    passed: bool
    first_failure: int | None
    avg_time: float
    avg_peak_memory: float


def _runner_command(runner: str | None, src: Path) -> str:
    if runner is None:
        return f"{shlex.quote(sys.executable)} {shlex.quote(str(src))}"
    return runner.format(file=shlex.quote(str(src)))


def _check_interpreter(command: str) -> None:
    try:
        argv0 = shlex.split(command)[0]
    except ValueError as exc:
        raise InfrastructureError(f"unparseable runner command {command!r}: {exc}") from exc
    if not argv0 or shutil.which(argv0) is None:
        raise InfrastructureError(f"interpreter {argv0!r} not found on this host")


def _read_capped(path: Path, cap: int) -> tuple[str, int]:
    size = path.stat().st_size
    with path.open("rb") as fh:
        data = fh.read(cap)
    return data.decode("utf-8", errors="replace"), size


# Runs inside a slim `python -S` helper so candidate processes fork from a
# small image; forking from the main process would bequeath its resident set
# to every child's reported max RSS.
_BROKER_SOURCE = r"""
import json, os, signal, subprocess, sys, time
for line in sys.stdin:
    req = json.loads(line)
    fi = open(req["stdin"], "rb"); fo = open(req["stdout"], "wb"); fe = open(req["stderr"], "wb")
    try:
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(["/bin/sh", "-c", req["shell"]], stdin=fi, stdout=fo,
                                    stderr=fe, cwd=req["cwd"], start_new_session=True)
        except OSError as exc:
            sys.stdout.write(json.dumps({"spawn_error": str(exc)}) + "\n")
            sys.stdout.flush()
            continue
        deadline = start + req["wall_time"]
        timed_out = False
        while True:
            pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.perf_counter() >= deadline:
                timed_out = True
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                pid, status, ru = os.wait4(proc.pid, 0)
                break
            time.sleep(req["poll"])
        wall = time.perf_counter() - start
        proc.returncode = 0  # reaped via wait4
        try:
            exit_code = os.waitstatus_to_exitcode(status)
        except ValueError:
            exit_code = -1
    finally:
        fi.close(); fo.close(); fe.close()
    sys.stdout.write(json.dumps({"exit_code": exit_code, "timed_out": timed_out,
                                 "wall": wall, "maxrss_kb": ru.ru_maxrss}) + "\n")
    sys.stdout.flush()
"""


class _Broker:
    def __init__(self) -> None:
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-S", "-c", _BROKER_SOURCE],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
        except OSError as exc:
            raise InfrastructureError(f"cannot start run broker: {exc}") from exc

    def alive(self) -> bool:
        return self.proc.poll() is None

    def request(self, req: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(req) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except (OSError, ValueError) as exc:
            raise InfrastructureError(f"run broker pipe failed: {exc}") from exc
        if not line:
            raise InfrastructureError("run broker exited unexpectedly")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=2)
        except (OSError, subprocess.TimeoutExpired, ValueError):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


_broker_pool: list[_Broker] = []  # idle, reusable brokers
_pool_lock = threading.Lock()


def _checkout_broker() -> _Broker:
    with _pool_lock:
        while _broker_pool:
            broker = _broker_pool.pop()
            if broker.alive():
                return broker
            broker.close()
    return _Broker()


def _checkin_broker(broker: _Broker) -> None:
    if broker.alive():
        with _pool_lock:
            _broker_pool.append(broker)
    else:
        broker.close()


@atexit.register
def _shutdown_brokers() -> None:
    with _pool_lock:
        for broker in _broker_pool:
            broker.close()
        _broker_pool.clear()


def run_once(
    program: str,
    stdin_text: str,
    limits: ResourceLimits = ResourceLimits(),
    *,
    runner: str | None = None,
    scratch_root: str | Path | None = None,
    keep_scratch: bool = False,
) -> ExecutionReport:
    """Execute ``program`` once with ``stdin_text`` on stdin, under ``limits``."""
    workdir = Path(tempfile.mkdtemp(prefix="modeval-run-", dir=scratch_root))
    try:
        src = workdir / "main.py"
        src.write_text(program, encoding="utf-8")
        command = _runner_command(runner, src)
        _check_interpreter(command)

        as_kb = (limits.memory + ADDRESS_SPACE_SLACK) // 1024
        fsize_blocks = limits.output_cap // 512 + 2
        shell_line = (
            f"ulimit -v {as_kb} 2>/dev/null; "
            f"ulimit -f {fsize_blocks} 2>/dev/null; "
            f"exec {command}"
        )

        stdin_path = workdir / "stdin.txt"
        stdin_path.write_text(stdin_text, encoding="utf-8")
        out_path = workdir / "stdout.txt"
        err_path = workdir / "stderr.txt"
        out_path.touch()
        err_path.touch()

        broker = _checkout_broker()
        try:
            result = broker.request(
                {
                    "shell": shell_line,
                    "stdin": str(stdin_path),
                    "stdout": str(out_path),
                    "stderr": str(err_path),
                    "cwd": str(workdir),
                    "wall_time": limits.wall_time,
                    "poll": _POLL_INTERVAL,
                }
            )
        finally:
            _checkin_broker(broker)
        if "spawn_error" in result:
            raise InfrastructureError(f"cannot spawn candidate process: {result['spawn_error']}")
        exit_code = result["exit_code"]
        timed_out = result["timed_out"]
        wall = result["wall"]
        peak_memory = result["maxrss_kb"] * 1024  # kernel reports KiB

        stdout, stdout_size = _read_capped(out_path, limits.output_cap)
        stderr, _ = _read_capped(err_path, limits.output_cap)

        if timed_out:
            status_enum = ExecStatus.TIMEOUT
        elif stdout_size > limits.output_cap or exit_code == -signal.SIGXFSZ:
            status_enum = ExecStatus.OUTPUT_OVERFLOW
        elif exit_code != 0:
            if "MemoryError" in stderr or peak_memory >= limits.memory:
                status_enum = ExecStatus.OOM
            else:
                status_enum = ExecStatus.RUNTIME_ERROR
        else:
            status_enum = ExecStatus.OK

        return ExecutionReport(
            status=status_enum,
            stdout=stdout,
            stderr=stderr,
            wall_time_used=wall,
            peak_memory=peak_memory,
            exit_code=exit_code,
        )
    finally:
        if not keep_scratch:
            shutil.rmtree(workdir, ignore_errors=True)


def _tokens_match(expected: str, actual: str, tolerance: float) -> bool:
    if expected == actual:
        return True
    try:
        fe = float(expected)
        fa = float(actual)
    except ValueError:
        return False
    if not (math.isfinite(fe) and math.isfinite(fa)):
        return False
    return abs(fe - fa) <= tolerance


def compare_output(expected: str, actual: str, policy: ComparePolicy = ComparePolicy()) -> bool:
    """Compare judge outputs.

    The default ``token`` policy splits both texts on whitespace and compares
    token sequences, treating tokens that parse as finite numbers as equal
    within an absolute tolerance.  The ``exact`` policy compares lines after
    stripping trailing whitespace and trailing blank lines.
    """
    if policy.mode == "exact":
        def norm(text: str) -> list[str]:
            lines = [ln.rstrip() for ln in text.splitlines()]
            while lines and not lines[-1]:
                lines.pop()
            return lines

        return norm(expected) == norm(actual)
    if policy.mode != "token":
        raise ValueError(f"unknown compare mode {policy.mode!r}")

    etoks = expected.split()
    atoks = actual.split()
    if len(etoks) != len(atoks):
        return False
    return all(_tokens_match(e, a, policy.float_tolerance) for e, a in zip(etoks, atoks))


def judge(
    program: str,
    problem: Problem,
    limits: ResourceLimits = ResourceLimits(),
    policy: ComparePolicy = ComparePolicy(),
    *,
    runner: str | None = None,
    fail_fast: bool = False,
    keep_scratch: bool = False,
) -> JudgeVerdict:
    """Run ``program`` against every test of ``problem`` and aggregate.

    Averages are over executed tests; with ``fail_fast`` the remaining tests
    after the first failure are not executed.
    """
    if problem.untestable or not problem.tests:
        raise ValueError(f"problem {problem.id!r} has no tests (untestable)")

    per_test: list[tuple[ExecutionReport, bool]] = []
    for test in problem.tests:
        report = run_once(program, test.input, limits, runner=runner, keep_scratch=keep_scratch)
        matched = report.status is ExecStatus.OK and compare_output(
            test.expected_output, report.stdout, policy
        )
        per_test.append((report, matched))
        if fail_fast and not matched:
            break

    all_matched = all(m for _, m in per_test)
    passed = all_matched and len(per_test) == len(problem.tests)
    first_failure = next((i for i, (_, m) in enumerate(per_test) if not m), None)
    n = len(per_test)
    return JudgeVerdict(
        per_test=per_test,
        passed=passed,
        first_failure=first_failure,
        avg_time=sum(r.wall_time_used for r, _ in per_test) / n,
        avg_peak_memory=sum(r.peak_memory for r, _ in per_test) / n,
    )


@dataclass(frozen=True)
class Judge:
    """How programs are judged: the sandbox settings plus an optional verdict cache.

    Calling it judges one program, through the cache when there is one.  The
    module-level ``judge`` and ``VerdictCache.judge`` are looked up at call
    time, so wrappers installed on them see every call.
    """

    limits: ResourceLimits = ResourceLimits()
    policy: ComparePolicy = ComparePolicy()
    runner: str | None = None
    fail_fast: bool = False
    keep_scratch: bool = False
    cache: VerdictCache | None = None

    def __call__(self, program: str, problem: Problem) -> JudgeVerdict:
        run = judge if self.cache is None else self.cache.judge
        return run(
            program, problem, self.limits, self.policy,
            runner=self.runner, fail_fast=self.fail_fast, keep_scratch=self.keep_scratch,
        )


def judge_batch(
    tasks: Sequence[tuple[str, Problem]],
    judge: Judge = Judge(),
    *,
    workers: int = 1,
) -> list[JudgeVerdict]:
    """Judge many (program, problem) pairs; results in input order.

    Each distinct pair (same program text, same problem object) is judged
    once and its verdict is shared by every duplicate, so the work done does
    not depend on ``workers`` or on timing.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    distinct = {(program, id(problem)): (program, problem) for program, problem in tasks}
    pairs = list(distinct.values())
    if workers == 1 or len(pairs) <= 1:
        verdicts = [judge(*pair) for pair in pairs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            verdicts = list(pool.map(lambda pair: judge(*pair), pairs))
    by_pair = dict(zip(distinct, verdicts))
    return [by_pair[program, id(problem)] for program, problem in tasks]


# --- verdict cache ----------------------------------------------------------


def _verdict_from_json(obj: dict) -> JudgeVerdict:
    """Rebuild a verdict from the JSON of its ``dataclasses.asdict`` form."""
    per_test = [
        (ExecutionReport(**dict(report, status=ExecStatus(report["status"]))), matched)
        for report, matched in obj["per_test"]
    ]
    return JudgeVerdict(**dict(obj, per_test=per_test))


@dataclass
class VerdictCache:
    """Disk cache of judge verdicts keyed by program, tests, limits, policy and runner.

    Makes pipeline reruns cheap and byte-stable: a rerun with an unchanged
    candidate reuses the recorded verdict, including its timing fields.
    """

    root: Path
    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _key(self, program: str, problem: Problem, limits: ResourceLimits,
             policy: ComparePolicy, runner: str | None, fail_fast: bool) -> str:
        # the default runner is this interpreter, so its identity is part of the key
        interpreter = [os.path.realpath(sys.executable), sys.version] if runner is None else None
        payload = json.dumps(
            [
                program,
                problem.id,
                [[t.input, t.expected_output] for t in problem.tests],
                [limits.wall_time, limits.memory, limits.output_cap],
                [policy.mode, policy.float_tolerance],
                runner,
                fail_fast,
                interpreter,
            ],
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def judge(
        self,
        program: str,
        problem: Problem,
        limits: ResourceLimits = ResourceLimits(),
        policy: ComparePolicy = ComparePolicy(),
        *,
        runner: str | None = None,
        fail_fast: bool = False,
        keep_scratch: bool = False,
    ) -> JudgeVerdict:
        key = self._key(program, problem, limits, policy, runner, fail_fast)
        path = self.root / f"{key}.json"
        if path.exists():
            try:
                verdict = _verdict_from_json(json.loads(path.read_text(encoding="utf-8")))
                self.hits += 1
                return verdict
            except (ValueError, KeyError, TypeError):
                path.unlink(missing_ok=True)
        verdict = judge(
            program, problem, limits, policy,
            runner=runner, fail_fast=fail_fast, keep_scratch=keep_scratch,
        )
        self.misses += 1
        tmp = path.with_suffix(f".tmp-{os.getpid()}-{id(verdict)}")
        tmp.write_text(json.dumps(asdict(verdict), sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)
        return verdict
