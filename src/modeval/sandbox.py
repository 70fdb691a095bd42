"""Run candidate programs against I/O tests in isolated processes.

Runs go through a pool of broker processes.  A broker is an interpreter of
this host started with ``site`` (so ``exit`` and ``quit`` exist) that serves
one run at a time as a fork server: it forks a child, and the child

* starts its own session (``setsid``);
* sets its address-space and file-size rlimits with ``resource.setrlimit``;
  a limit that cannot be set is an ``InfrastructureError``, never ignored;
* puts the run's stdin, stdout and stderr files on fds 0-2 and closes every
  other descriptor;
* with the default runner, runs ``main.py`` as a fresh ``__main__`` module
  with new ``sys.std*`` streams, ``sys.argv`` and ``sys.path[0]``, and exits
  as the interpreter does: the same exit code for ``SystemExit`` and uncaught
  exceptions, the same traceback on stderr, atexit functions run, and the
  streams and the program's unclosed files flushed as at shutdown;
* with a custom ``runner`` command, ``exec``s that command instead (split
  with ``shlex``; no shell).

Forking the warm broker skips interpreter start-up, which is most of the cost
of a typical test run.  Every broker starts with ``PYTHONHASHSEED`` set to
``HASH_SEED``, and forked children and exec'd runners keep it, so string
hashes (and so the order of a set of strings) are the same in every run of
every process, where a default interpreter draws a seed at random.

The broker waits on a pidfd with ``select`` until the wall-time deadline, then
kills the child and its process group; where ``os.pidfd_open`` is missing it
polls.  On Linux (3.4 or later) the broker is a child subreaper: processes a
run leaves behind, even in a new session, are re-parented to the broker, which
kills and reaps every one of them before it replies.  Other platforms have no
subreaper, so there a detached descendant can outlive its run.

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
from .settings import MB, ComparePolicy, ExecStatus, InfrastructureError, ResourceLimits, check_judged

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
SANDBOX_SEMANTICS = 4

HASH_SEED = "0"  # every broker's PYTHONHASHSEED: changing it changes SANDBOX_SEMANTICS


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
    import shlex
    import shutil

    command = runner.format(file=shlex.quote(str(src)))
    try:
        argv = shlex.split(command)
    except ValueError as exc:
        raise InfrastructureError(f"unparseable runner command {command!r}: {exc}") from exc
    if not argv or shutil.which(argv[0]) is None:
        raise InfrastructureError(f"interpreter {argv[0] if argv else ''!r} not found on this host")
    return argv


def _read_capped(path: Path, cap: int) -> tuple[str, int]:
    size = path.stat().st_size
    with path.open("rb") as fh:
        data = fh.read(cap)
    return data.decode("utf-8", errors="replace"), size


# The fork server.  It runs in its own interpreter so candidates fork from a
# small image; forking the main process would bequeath its resident set to
# every child's reported max RSS (and it has threads).
_BROKER_SOURCE = r"""
import sys
del sys.path[0]  # the caller's cwd: the broker's own imports come from the interpreter
import atexit, builtins, gc, io, json, os, resource, select, signal, time, warnings

MAXFD = os.sysconf("SC_OPEN_MAX")
CHILDREN = f"/proc/self/task/{os.getpid()}/children"
POLL = 0.004  # only where there is no pidfd
ENCODING, ERRORS = sys.stdout.encoding, sys.stdout.errors
UNBUFFERED = sys.stdout.write_through  # -u or PYTHONUNBUFFERED


def become_subreaper():
    # orphaned descendants of a run re-parent to this process, which kills them
    if sys.platform.startswith("linux"):
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def kill_descendants():
    while True:
        try:
            with open(CHILDREN) as fh:
                pids = [int(p) for p in fh.read().split()]
        except OSError:  # no /proc children list: not Linux
            return
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:  # their own children re-parent here: list again
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def stdio(fd, mode, errors):
    # built as the interpreter builds sys.stdin, sys.stdout and sys.stderr
    unbuffered = mode == "w" and UNBUFFERED
    buf = open(fd, mode + "b", 0 if unbuffered else -1, closefd=False)
    (buf if unbuffered else buf.raw).name = ("<stdin>", "<stdout>", "<stderr>")[fd]
    stream = io.TextIOWrapper(buf, ENCODING, errors, "\n",
                              line_buffering=fd == 2 and not unbuffered, write_through=unbuffered)
    stream.mode = mode
    return stream


def exit_status(code):
    if code is None:
        return 0
    if isinstance(code, int):
        return code & 0xFF
    sys.stderr.write(f"{code}\n")
    return 1


def compiled(path):
    # Compiled here, warm: compiling in the fresh child costs several times
    # more.  On an error or a warning the child compiles again and reports it
    # on its own stderr.
    with open(path, "rb") as fh:
        source = fh.read()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return compile(source, path, "exec", dont_inherit=True)
        except Exception:
            return None


def run_program(path, code):
    sys.stdin = sys.__stdin__ = stdio(0, "r", ERRORS)
    sys.stdout = sys.__stdout__ = stdio(1, "w", ERRORS)
    sys.stderr = sys.__stderr__ = stdio(2, "w", "backslashreplace")
    sys.argv = [path]
    sys.path.insert(0, os.path.dirname(path))
    main = type(sys)("__main__")
    main.__file__, main.__cached__, main.__builtins__ = path, None, builtins
    sys.modules["__main__"] = main
    try:
        if code is None:
            with open(path, "rb") as fh:
                code = compile(fh.read(), path, "exec", dont_inherit=True)
        exec(code, vars(main))
        status = 0
    except SystemExit as exc:
        status = exit_status(exc.code)
    except BaseException as exc:
        tb = exc.__traceback__.tb_next  # from the program's frame on
        sys.excepthook(type(exc), exc.with_traceback(tb), tb)
        # the interpreter re-raises an uncaught Ctrl-C as SIGINT
        status = -signal.SIGINT if isinstance(exc, KeyboardInterrupt) else 1
    # Not via interpreter finalization: tearing down the inherited broker heap adds ~8 ms a run.
    threading = sys.modules.get("threading")
    if threading is not None:
        threading._shutdown()  # wait for non-daemon threads
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is None or getattr(stream, "closed", False):
            continue
        try:
            stream.flush()
        except Exception as exc:
            if stream is sys.stdout:
                sys.stderr.write(f"Exception ignored in: {stream!r}\n")
                sys.__excepthook__(type(exc), exc.with_traceback(None), None)
            status = 120
    # Then, as the interpreter's shutdown does: collect garbage, put the
    # original streams back, free the program's globals (an unclosed file
    # flushes as it closes), collect again and flush once more, ignoring
    # failures this time.
    gc.collect()
    sys.stdin, sys.stdout, sys.stderr = sys.__stdin__, sys.__stdout__, sys.__stderr__
    names = vars(main)
    for name in list(names):
        if name != "__builtins__":
            names[name] = None
    gc.collect()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except Exception:
            pass
    return status


def child(req, err_w, code):
    # never returns: a failure before the program runs goes to err_w
    status = 127
    try:
        try:
            os.setsid()
            for limit, value in ((resource.RLIMIT_AS, req["as_bytes"]),
                                 (resource.RLIMIT_FSIZE, req["fsize_bytes"])):
                resource.setrlimit(limit, (value, value))
            os.chdir(req["cwd"])
            for fd, (name, flags) in enumerate((("stdin", os.O_RDONLY),
                                                ("stdout", os.O_WRONLY | os.O_CREAT | os.O_TRUNC),
                                                ("stderr", os.O_WRONLY | os.O_CREAT | os.O_TRUNC))):
                os.dup2(os.open(req[name], flags, 0o644), fd)
            os.closerange(3, err_w)
            os.closerange(err_w + 1, MAXFD)
            if req["argv"]:
                for sig in (signal.SIGPIPE, signal.SIGXFSZ):  # as subprocess restores them
                    signal.signal(sig, signal.SIG_DFL)
                os.execvp(req["argv"][0], req["argv"])
        except BaseException as exc:
            os.write(err_w, f"{type(exc).__name__}: {exc}".encode())
            return
        os.close(err_w)
        status = run_program(req["file"], code)
        if status < 0:
            signal.signal(-status, signal.SIG_DFL)
            os.kill(os.getpid(), -status)
    finally:
        os._exit(status)


def reap(pid, deadline):
    # (wait status, rusage, timed out); past the deadline the child's group is killed
    try:
        pidfd = os.pidfd_open(pid)
    except (AttributeError, OSError):  # no pidfd here: poll
        while time.perf_counter() < deadline:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                return status, usage, False
            time.sleep(POLL)
    else:
        try:
            exited = select.select([pidfd], [], [], max(0.0, deadline - time.perf_counter()))[0]
        finally:
            os.close(pidfd)
        if exited:
            _, status, usage = os.wait4(pid, 0)
            return status, usage, False
    try:
        os.killpg(pid, signal.SIGKILL)  # the child leads its own group
    except ProcessLookupError:
        pass
    _, status, usage = os.wait4(pid, 0)
    return status, usage, True


def run(req):
    start = time.perf_counter()  # the deadline's, so that wall_time bounds compile and run
    code, compile_time = None, 0.0
    if not req["argv"]:
        code = compiled(req["file"])
        compile_time = time.perf_counter() - start
    err_r, err_w = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(err_r)
        os.close(err_w)
        return {"spawn_error": f"fork: {exc}"}
    if pid == 0:
        os.close(err_r)
        child(req, err_w, code)
    os.close(err_w)
    with open(err_r, "rb") as fh:
        error = fh.read()  # EOF once the program starts
    if error:
        os.waitpid(pid, 0)
        return {"spawn_error": error.decode("utf-8", "replace")}
    status, usage, timed_out = reap(pid, start + req["wall_time"])
    wall = time.perf_counter() - start - compile_time
    kill_descendants()
    return {"exit_code": os.waitstatus_to_exitcode(status), "timed_out": timed_out,
            "compile": compile_time, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss}


become_subreaper()
gc.freeze()  # the broker's objects stay out of every child's collections
for line in sys.stdin:
    sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
    sys.stdout.flush()
"""


class _Broker:
    def __init__(self) -> None:
        import subprocess

        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", _BROKER_SOURCE],
                env={**os.environ, "PYTHONHASHSEED": HASH_SEED},
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


class _Scratch:
    """A scratch directory holding one program as ``main.py``.

    Each run gets a fresh subdirectory as its working directory, holding its
    stdin, stdout and stderr files, so nothing a run leaves there is seen by
    the next.  ``main.py`` is written once and rewritten before a run only if
    an earlier run changed or removed it.
    """

    def __init__(self, program: str, runner: str | None, keep: bool) -> None:
        import tempfile

        self.dir = Path(tempfile.mkdtemp(prefix="modeval-run-"))
        self.keep = keep
        self.src = self.dir / "main.py"
        self.source = program.encode("utf-8")
        self.runs = 0
        try:
            self.src.write_bytes(self.source)
            # None: the broker runs main.py itself
            self.argv = None if runner is None else _runner_argv(runner, self.src)
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> _Scratch:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        if not self.keep:
            import shutil

            shutil.rmtree(self.dir, ignore_errors=True)

    def next_workdir(self) -> Path:
        try:
            intact = self.src.read_bytes() == self.source
        except OSError:
            intact = False
        if not intact:
            self.src.write_bytes(self.source)
        workdir = self.dir / str(self.runs)
        self.runs += 1
        workdir.mkdir()
        return workdir


def run_once(
    program: str,
    stdin_text: str,
    limits: ResourceLimits = ResourceLimits(),
    *,
    runner: str | None = None,
    _scratch: _Scratch | None = None,
) -> ExecutionReport:
    """Execute ``program`` once with ``stdin_text`` on stdin, under ``limits``."""
    # ``_scratch`` is judge's: an open scratch directory that already holds
    # ``program`` and was made with judge's runner and keep flag.
    if _scratch is not None:
        return _run_in(_scratch, stdin_text, limits)
    with _Scratch(program, runner, False) as scratch:
        return _run_in(scratch, stdin_text, limits)


def _run_in(scratch: _Scratch, stdin_text: str, limits: ResourceLimits) -> ExecutionReport:
    import signal

    workdir = scratch.next_workdir()
    stdin_path = workdir / "stdin.txt"
    stdin_path.write_text(stdin_text, encoding="utf-8")
    out_path = workdir / "stdout.txt"
    err_path = workdir / "stderr.txt"

    broker = _checkout_broker()
    try:
        result = broker.request(
            {
                "file": str(scratch.src),
                "argv": scratch.argv,
                "stdin": str(stdin_path),
                "stdout": str(out_path),
                "stderr": str(err_path),
                "cwd": str(workdir),
                "wall_time": limits.wall_time,
                "as_bytes": limits.memory + ADDRESS_SPACE_SLACK,
                # room past the cap, so an overflow shows as a larger file
                "fsize_bytes": limits.output_cap + 1024,
            }
        )
    finally:
        _checkin_broker(broker)
    if "spawn_error" in result:
        raise InfrastructureError(f"cannot start candidate process: {result['spawn_error']}")
    exit_code = result["exit_code"]
    peak_memory = result["maxrss_kb"] * 1024  # kernel reports KiB

    stdout, stdout_size = _read_capped(out_path, limits.output_cap)
    stderr, _ = _read_capped(err_path, limits.output_cap)

    if result["timed_out"]:
        status = ExecStatus.TIMEOUT
    elif stdout_size > limits.output_cap or exit_code == -signal.SIGXFSZ:
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
        stdout=stdout,
        stderr=stderr,
        wall_time_used=result["wall"],
        compile_time=result["compile"],
        cpu_time=result["cpu"],
        peak_memory=peak_memory,
        exit_code=exit_code,
    )


_NUMBER = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)


def _tokens_match(expected: str, actual: str, tolerance: float) -> bool:
    if expected == actual:
        return True
    if not (_NUMBER.fullmatch(expected) and _NUMBER.fullmatch(actual)):
        return False
    fe = float(expected)
    fa = float(actual)
    return math.isfinite(fe) and math.isfinite(fa) and abs(fe - fa) <= tolerance


def compare_output(expected: str, actual: str, policy: ComparePolicy = ComparePolicy()) -> bool:
    """Compare judge outputs.

    The default ``token`` policy splits both texts on whitespace and compares
    token sequences.  Two tokens that are both finite ASCII decimal numbers
    (``_NUMBER``) are equal within an absolute tolerance; any other tokens
    must be identical strings.  The ``exact`` policy splits both texts at
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
    remaining tests after the first failure are not executed.  The program is
    written to one scratch directory for all its tests; each test runs in a
    fresh subdirectory of it.
    """
    if problem.untestable:
        raise ValueError(f"problem {problem.id!r} has no tests (untestable)")

    per_test: list[tuple[ExecutionReport, bool]] = []
    with _Scratch(program, settings.runner, settings.keep_scratch) as scratch:
        for test in problem.tests:
            report = run_once(program, test.input, settings.limits, _scratch=scratch)
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
    ``fail_fast``, stdio buffering and ``SANDBOX_SEMANTICS``.

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
        return [program, problem.id, [[t.input, t.expected_output] for t in problem.tests],
                [limits.wall_time, limits.memory, limits.output_cap],
                [policy.mode, policy.float_tolerance], runner, settings.fail_fast, interpreter,
                bool(os.environ.get("PYTHONUNBUFFERED")),  # brokers and exec'd runs read it
                SANDBOX_SEMANTICS]

    def judge(self, program: str, problem: Problem, settings: Judge) -> JudgeVerdict:
        """``judge(program, problem, settings)``, replayed from disk when recorded."""
        return self._log.replay(self._parts(program, problem, settings),
                                lambda obj: _verdict_from_json(obj, problem, settings.fail_fast),
                                lambda: judge(program, problem, settings))
