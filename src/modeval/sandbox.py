"""Run candidate programs against I/O tests in isolated processes.

Runs go through a pool of broker processes.  A broker is an interpreter of
this host running ``_broker.py`` with ``site`` (so ``exit`` and ``quit``
exist) that serves one run at a time as a fork server: it forks a child, and
the child

* starts its own session (``setsid``);
* sets its address-space and file-size rlimits with ``resource.setrlimit``;
  a limit that cannot be set is an ``InfrastructureError``, never ignored;
* puts the run's stdin, stdout and stderr files, which the broker opened
  before the fork, on fds 0-2 and closes every other descriptor;
* with the default runner, runs ``main.py`` as a fresh ``__main__`` module
  with new ``sys.std*`` streams, ``sys.argv`` and ``sys.path[0]``, and exits
  as the interpreter does: the same exit code for ``SystemExit`` and uncaught
  exceptions, the same traceback on stderr, atexit functions run, and the
  streams and the program's unclosed files flushed as at shutdown;
* with a custom ``runner`` command, ``exec``s that command instead (split
  with ``shlex``; no shell).

Forking the warm broker skips interpreter start-up, which is most of the cost
of a typical test run.  Every broker starts in the environment ``FIXED_ENV``
plus each ``PASSED_ENV`` variable the harness has, and forked children and
exec'd runners keep it.  So a run sees no other variable of the shell (no
provider key, none of the shell's interpreter settings), string hashes (and
so the order of a set of strings) are the same in every run of every
process, local time is UTC, and stdio is Python's default for files: stdout
block-buffered, stderr line-buffered (a runner such as ``python3 -u {file}``
asks for unbuffered).

The broker waits on a pidfd with ``select`` until the wall-time deadline, then
kills the child and its process group; where ``os.pidfd_open`` is missing it
polls.  On Linux (3.4 or later) the broker is a child subreaper: processes a
run leaves behind, even in a new session, are re-parented to the broker, which
kills and reaps every one of them before it replies.  Other platforms have no
subreaper, so there a detached descendant can outlive its run.

Each run has a scratch directory of its own, made by ``run_once``: it holds
``main.py`` and the working directory ``run/``, which holds ``stdin.txt``,
``stdout.txt`` and ``stderr.txt``.  The broker reads stdout and stderr back
through the descriptors it opened, after the run and every descendant are
gone, and sends them in its reply; after that the harness only removes the
directory.  So nothing a program does to its files (removing or renaming
them, its working directory or ``main.py``) can raise in the harness or reach
a later run.

Peak memory is the child's max resident set as reported by the kernel at
reap time (``wait4``).  Candidates are not forked from this (potentially
large) process: a forked child starts with its parent's resident pages, which
would put a harness-sized floor under every memory reading.  Brokers are
small, single-threaded processes, so forking them is safe and cheap.

The run machinery (``subprocess``, ``tempfile``, ``shutil``, ``shlex`` and
``signal``) is imported by the first run, not with this module: a command
whose every verdict replays from a ``VerdictCache`` starts no broker, and
this module imports none of it.

This is resource isolation, not a security boundary: candidates can read the
filesystem and open sockets.  Do not run untrusted code outside a disposable
environment.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import re
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

from .corpus import EntryLog, Problem, decode, map_in_threads
from .settings import (MB, ComparePolicy, ExecStatus, InfrastructureError, ResourceLimits, check_judged,
                       runner_argv)

# Address space allowed beyond the resident-memory budget (interpreter
# mappings, shared libs).  Enforcement only; accounting uses max RSS.
ADDRESS_SPACE_SLACK = 128 * MB

# Documented bound on the interpreter's own resident footprint: a run that
# allocates N bytes reports peak_memory in [N, N + this bound].
INTERPRETER_OVERHEAD_BOUND = 64 * MB

# Extra seconds a timed-out process may run past its wall limit before the
# kill lands (scheduler granularity).
KILL_GRACE = 0.5

# Part of every verdict-cache key.  Bump it when a change to how programs run
# or how outputs compare can change a verdict, so verdicts recorded before
# the change miss once instead of being replayed.
SANDBOX_SEMANTICS = 7

# Every run's environment: FIXED_ENV, plus each PASSED_ENV variable that the
# harness has, which the verdict key names.  Changing either changes SANDBOX_SEMANTICS.
FIXED_ENV = {"PYTHONHASHSEED": "0", "TZ": "UTC", "PYTHONUTF8": "1", "PYTHONDONTWRITEBYTECODE": "1"}
PASSED_ENV = ("PATH", "PYTHONPATH")


@dataclass
class ExecutionReport:
    """What one run of a program did: status, output, times, peak memory and exit code.

    ``wall_time_used`` runs from the fork of the run's process to its reaping;
    ``compile_time`` is the broker's compile of ``main.py`` before the fork (0
    with a custom runner), and ``limits.wall_time`` bounds the two together.
    ``cpu_time`` is the user plus system CPU of the run's process.
    """

    status: ExecStatus
    stdout: str
    stderr: str
    wall_time_used: float
    compile_time: float
    cpu_time: float
    peak_memory: int
    exit_code: int


@dataclass
class JudgeVerdict:
    """The result of each executed test, in test order; the rest is derived from it."""

    per_test: list[tuple[ExecutionReport, bool]]

    @property
    def passed(self) -> bool:
        # judge stops early only after a failure, so this also means every test ran
        return all(matched for _, matched in self.per_test)

    @property
    def first_failure(self) -> int | None:
        return next((i for i, (_, matched) in enumerate(self.per_test) if not matched), None)

    @property
    def avg_time(self) -> float:
        return sum(r.wall_time_used for r, _ in self.per_test) / len(self.per_test)

    @property
    def avg_peak_memory(self) -> float:
        return sum(r.peak_memory for r, _ in self.per_test) / len(self.per_test)


def _runner_argv(runner: str, src: Path) -> list[str]:
    """The argv of a custom ``runner`` template for ``src``; its interpreter must exist."""
    import shutil

    try:
        argv = runner_argv(runner, str(src))
    except ValueError as exc:
        raise InfrastructureError(str(exc)) from exc
    if shutil.which(argv[0]) is None:
        raise InfrastructureError(f"interpreter {argv[0]!r} not found on this host")
    return argv


# The fork server, ``_broker.py``.  It runs in its own interpreter so candidates
# fork from a small image; forking the main process would bequeath its resident
# set to every child's reported max RSS (and it has threads).
class _Broker:
    def __init__(self) -> None:
        import subprocess

        try:
            self.proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("_broker.py"))],
                env={name: os.environ[name] for name in PASSED_ENV if name in os.environ} | FIXED_ENV,
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
        import subprocess

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
    keep_scratch: bool = False,
) -> ExecutionReport:
    """Execute ``program`` once with ``stdin_text`` on stdin, under ``limits``.

    The run has a fresh scratch directory of its own under the default
    temporary directory, removed afterwards unless ``keep_scratch``.
    """
    import shutil
    import signal
    import tempfile

    scratch = Path(tempfile.mkdtemp(prefix="modeval-run-"))
    try:
        src = scratch / "main.py"
        src.write_bytes(program.encode("utf-8"))
        workdir = scratch / "run"
        workdir.mkdir()
        (workdir / "stdin.txt").write_text(stdin_text, encoding="utf-8")
        # None: the broker runs main.py itself
        argv = None if runner is None else _runner_argv(runner, src)
        broker = _checkout_broker()
        try:
            result = broker.request(
                {
                    "file": str(src),
                    "argv": argv,
                    "cwd": str(workdir),
                    "wall_time": limits.wall_time,
                    "as_bytes": limits.memory + ADDRESS_SPACE_SLACK,
                    # room past the cap, so an overflow shows as a larger file
                    "fsize_bytes": limits.output_cap + 1024,
                    "cap": limits.output_cap,
                }
            )
        finally:
            _checkin_broker(broker)
    finally:
        if not keep_scratch:
            shutil.rmtree(scratch, ignore_errors=True)
    if "spawn_error" in result:
        raise InfrastructureError(f"cannot start candidate process: {result['spawn_error']}")
    exit_code = result["exit_code"]
    peak_memory = result["maxrss_kb"] * 1024  # kernel reports KiB
    stderr = result["stderr"]

    if result["timed_out"]:
        status = ExecStatus.TIMEOUT
    elif result["stdout_size"] > limits.output_cap or exit_code == -signal.SIGXFSZ:
        status = ExecStatus.OUTPUT_OVERFLOW
    elif exit_code != 0:
        last_line = stderr.rstrip().rpartition("\n")[2]
        if last_line.startswith("MemoryError") or peak_memory >= limits.memory:
            status = ExecStatus.OOM
        else:
            status = ExecStatus.RUNTIME_ERROR
    else:
        status = ExecStatus.OK

    return ExecutionReport(
        status=status,
        stdout=result["stdout"],
        stderr=stderr,
        wall_time_used=result["wall"],
        compile_time=result["compile"],
        cpu_time=result["cpu"],
        peak_memory=peak_memory,
        exit_code=exit_code,
    )


_NUMBER = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)
_INTEGER = re.compile(r"([+-]?)0*(\d+)", re.ASCII)  # sign, digits without leading zeros


def _tokens_match(expected: str, actual: str, tolerance: float) -> bool:
    if expected == actual:
        return True
    ie, ia = _INTEGER.fullmatch(expected), _INTEGER.fullmatch(actual)
    if ie and ia:  # as digit strings: int() refuses more than 4,300 digits
        return ie[2] == ia[2] and (ie[2] == "0" or (ie[1] == "-") == (ia[1] == "-"))
    if not (_NUMBER.fullmatch(expected) and _NUMBER.fullmatch(actual)):
        return False
    fe = float(expected)
    fa = float(actual)
    return math.isfinite(fe) and math.isfinite(fa) and abs(fe - fa) <= tolerance


def compare_output(expected: str, actual: str, policy: ComparePolicy = ComparePolicy()) -> bool:
    """Compare judge outputs.

    The default ``token`` policy splits both texts on whitespace and compares
    token sequences.  Two tokens that are both ASCII integers (``_INTEGER``)
    are equal exactly: same digits after leading zeros, same sign, with ``+``
    the same as none and ``-0`` the same as ``0``.  Any other two tokens that
    are both finite ASCII decimal numbers (``_NUMBER``) are equal within an
    absolute tolerance, so ``7`` equals ``7.0``; any other tokens must be
    identical strings.  The ``exact`` policy splits both texts at
    ``"\n"`` alone and compares the lines after stripping each one's trailing
    whitespace (a CRLF's ``"\r"`` among it) and dropping trailing blank lines.
    """
    if policy.mode == "exact":
        def norm(text: str) -> list[str]:
            lines = [ln.rstrip() for ln in text.split("\n")]
            while lines and not lines[-1]:
                lines.pop()
            return lines

        return norm(expected) == norm(actual)

    etoks = expected.split()
    atoks = actual.split()
    if len(etoks) != len(atoks):
        return False
    return all(_tokens_match(e, a, policy.float_tolerance) for e, a in zip(etoks, atoks))


def judge(program: str, problem: Problem, settings: Judge) -> JudgeVerdict:
    """Run ``program`` against every test of ``problem`` under ``settings``,
    past its cache, and aggregate.

    Averages are over executed tests; with ``settings.fail_fast`` the
    remaining tests after the first failure are not executed.  Each test is
    one ``run_once``, in a scratch directory of its own.
    """
    if problem.untestable:
        raise ValueError(f"problem {problem.id!r} has no tests (untestable)")

    per_test: list[tuple[ExecutionReport, bool]] = []
    for test in problem.tests:
        report = run_once(program, test.input, settings.limits,
                          runner=settings.runner, keep_scratch=settings.keep_scratch)
        matched = report.status is ExecStatus.OK and compare_output(
            test.expected_output, report.stdout, settings.policy
        )
        per_test.append((report, matched))
        if settings.fail_fast and not matched:
            break
    return JudgeVerdict(per_test)


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
        if self.cache is None:
            return judge(program, problem, self)
        return self.cache.judge(program, problem, self)


def judge_batch(
    tasks: Sequence[tuple[str, Problem]],
    judge: Judge | None = None,
    *,
    workers: int = 1,
) -> list[JudgeVerdict]:
    """Judge many (program, problem) pairs, at most ``workers`` at once (the
    calling thread is one of them); results in input order.

    Each distinct pair (same program text, same problem object) is judged
    once and its verdict is shared by every duplicate, so the work done does
    not depend on ``workers`` or on timing.  ``judge`` defaults to ``Judge()``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    judge = Judge() if judge is None else judge
    distinct = {(program, id(problem)): (program, problem) for program, problem in tasks}
    verdicts = map_in_threads(lambda pair: judge(*pair), distinct.values(), workers)
    by_pair = dict(zip(distinct, verdicts))
    return [by_pair[program, id(problem)] for program, problem in tasks]


# --- verdict cache ----------------------------------------------------------


def _verdict_from_json(obj: dict, problem: Problem, fail_fast: bool) -> JudgeVerdict:
    """A verdict from its ``asdict`` JSON; TypeError or ValueError unless judge could record it."""
    verdict = decode(JudgeVerdict, {"per_test": obj["per_test"]}, "verdict")
    reports = [report for report, _ in verdict.per_test]
    check_judged([matched for _, matched in verdict.per_test], [r.status for r in reports],
                 [v for r in reports
                  for v in (r.wall_time_used, r.compile_time, r.cpu_time, r.peak_memory)],
                 len(problem.tests), fail_fast)
    return verdict


@lru_cache(maxsize=None)
def _resolved(path: str) -> str:
    """``os.path.realpath(path)`` once per path: each call lstat's every component."""
    return os.path.realpath(path)


class VerdictCache:
    """Disk cache of judge verdicts keyed by program, tests, limits, policy, runner,
    ``fail_fast``, the environment a run sees of ``PASSED_ENV`` and ``SANDBOX_SEMANTICS``.

    Makes pipeline reruns cheap and byte-stable: a rerun with an unchanged
    candidate reuses the recorded per-test results, including their timings.
    """

    def __init__(self, root: str | Path) -> None:
        self._log = EntryLog(Path(root))

    hits = property(lambda self: self._log.hits)
    misses = property(lambda self: self._log.misses)

    @staticmethod
    def _parts(program: str, problem: Problem, settings: Judge) -> list:
        limits, policy, runner = settings.limits, settings.policy, settings.runner
        # the default runner is this interpreter, so its identity is part of the key
        interpreter = [_resolved(sys.executable), sys.version] if runner is None else None
        path = os.environ.get("PYTHONPATH")  # each entry made absolute, as the broker's interpreter does
        return [program, problem.id, [[t.input, t.expected_output] for t in problem.tests],
                [limits.wall_time, limits.memory, limits.output_cap],
                [policy.mode, policy.float_tolerance], runner, settings.fail_fast, interpreter,
                os.environ.get("PATH"), [os.path.abspath(p) for p in path.split(os.pathsep)] if path else [],
                SANDBOX_SEMANTICS]

    def judge(self, program: str, problem: Problem, settings: Judge) -> JudgeVerdict:
        """``judge(program, problem, settings)``, replayed from disk when recorded."""
        return self._log.replay(self._parts(program, problem, settings),
                                lambda obj: _verdict_from_json(obj, problem, settings.fail_fast),
                                lambda: judge(program, problem, settings))
