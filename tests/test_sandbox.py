import inspect
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import fields
from pathlib import Path

import pytest

from modeval import _broker, sandbox
from modeval.corpus import EntryLog
from modeval.evaluate import self_reflect
from modeval.llm_client import MockProvider, ProviderConfig
from modeval.sandbox import (
    INTERPRETER_OVERHEAD_BOUND,
    KILL_GRACE,
    MB,
    ComparePolicy,
    ExecStatus,
    InfrastructureError,
    Judge,
    JudgeVerdict,
    ResourceLimits,
    VerdictCache,
    _Broker,
    compare_output,
    judge_batch,
    run_once,
)

from conftest import cache_entries, edit_cache_entry, loaded_modules, make_problem

FAST = ResourceLimits(wall_time=5.0)
EXEC = f"{sys.executable} {{file}}"  # the exec path: a fresh interpreter per run
PROGRAMS = sorted((Path(__file__).parent / "fixtures" / "programs").glob("p*.py"))


def verdict_key(program, problem, settings):
    """The verdict-cache key of ``program`` on ``problem`` under ``settings``."""
    return EntryLog.key(VerdictCache._parts(program, problem, settings))


def _is_decimal(token: str) -> bool:
    """[+-]? (D+ (. D*)? | . D+) ([eE] [+-]? D+)? with D the ASCII digits, written out."""
    digits = "0123456789"
    i, n = 0, len(token)

    def run_of_digits(j: int) -> int:
        while j < n and token[j] in digits:
            j += 1
        return j

    if i < n and token[i] in "+-":
        i += 1
    end = run_of_digits(i)
    whole = end > i
    i = end
    fraction = False
    if i < n and token[i] == ".":
        end = run_of_digits(i + 1)
        fraction = end > i + 1
        i = end
    if not (whole or fraction):
        return False
    if i < n and token[i] in "eE":
        i += 1
        if i < n and token[i] in "+-":
            i += 1
        end = run_of_digits(i)
        if end == i:
            return False
        i = end
    return i == n


def _reference_match(expected: str, actual: str, tolerance: float) -> bool:
    if expected == actual:
        return True
    if not (_is_decimal(expected) and _is_decimal(actual)):
        return False
    fe, fa = float(expected), float(actual)
    return math.isfinite(fe) and math.isfinite(fa) and abs(fe - fa) <= tolerance


class TestRunOnce:
    def test_echo(self):
        report = run_once("import sys; sys.stdout.write(sys.stdin.read())", "7\n", FAST)
        assert report.status is ExecStatus.OK
        assert report.stdout == "7\n"
        assert report.exit_code == 0
        assert report.wall_time_used > 0

    def test_busy_loop_killed_as_timeout(self):
        limits = ResourceLimits(wall_time=1.0)
        report = run_once("while True: pass", "", limits)
        assert report.status is ExecStatus.TIMEOUT
        assert 1.0 <= report.wall_time_used <= 1.0 + KILL_GRACE

    def test_allocation_peak_memory_bounds(self):
        # 100 MB allocation: the reading covers it but not much more
        n = 100 * MB
        report = run_once(f"b = bytearray({n})\nprint(len(b))", "", FAST)
        assert report.status is ExecStatus.OK
        assert n <= report.peak_memory <= n + INTERPRETER_OVERHEAD_BOUND

    def test_crash_is_runtime_error_and_harness_survives(self):
        report = run_once("raise RuntimeError('boom')", "", FAST)
        assert report.status is ExecStatus.RUNTIME_ERROR
        assert report.exit_code == 1
        assert "RuntimeError" in report.stderr

    def test_segfault_style_exit(self):
        report = run_once("import os, signal; os.kill(os.getpid(), signal.SIGSEGV)", "", FAST)
        assert report.status is ExecStatus.RUNTIME_ERROR
        assert report.exit_code < 0

    def test_memory_breach_reported_as_oom(self):
        limits = ResourceLimits(wall_time=5.0, memory=128 * MB)
        report = run_once("b = bytearray(512 * 1024 * 1024)\nprint('ok')", "", limits)
        assert report.status is ExecStatus.OOM

    def test_word_memoryerror_on_stderr_is_not_oom(self):
        program = "import sys\nsys.stderr.write('no MemoryError here\\n')\nsys.exit(1)"
        report = run_once(program, "", FAST)
        assert report.status is ExecStatus.RUNTIME_ERROR
        assert report.exit_code == 1

    @pytest.mark.parametrize("runner", [None, EXEC], ids=["fork", "exec"])
    def test_limit_that_cannot_be_set_is_infrastructure_error(self, runner):
        limits = ResourceLimits(wall_time=5.0, memory=2**70)  # beyond any rlimit value
        with pytest.raises(InfrastructureError, match="cannot start candidate process"):
            run_once("print(1)", "", limits, runner=runner)

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or shutil.which("setsid") is None or shutil.which("pgrep") is None,
                        reason="the broker is a subreaper on Linux only")
    @pytest.mark.parametrize("runner", [None, EXEC], ids=["fork", "exec"])
    def test_detached_child_dies_with_the_run(self, runner):
        # exactly one detached process: setsid execs sleep in a new session
        program = "import subprocess\nsubprocess.Popen(['setsid', 'sleep', '3.123'])\n"
        pattern = r"^(setsid )?sleep 3\.123$"
        try:
            report = run_once(program, "", FAST, runner=runner)
            found = subprocess.run(["pgrep", "-f", pattern], capture_output=True, text=True).stdout
        finally:
            subprocess.run(["pkill", "-f", pattern], check=False)
        assert report.status is ExecStatus.OK
        assert found == ""

    def test_output_overflow(self):
        limits = ResourceLimits(wall_time=5.0, output_cap=64 * 1024)
        report = run_once("print('x' * 1000000)", "", limits)
        assert report.status is ExecStatus.OUTPUT_OVERFLOW
        assert len(report.stdout.encode()) <= 64 * 1024

    def test_missing_interpreter_is_infrastructure_error(self):
        with pytest.raises(InfrastructureError):
            run_once("print(1)", "", FAST, runner="no-such-interpreter-xyz {file}")

    def test_runner_template(self):
        report = run_once("print(40 + 2)", "", FAST, runner=EXEC)
        assert report.stdout == "42\n"

    # 6,000 one-line functions, about 208 KB: compiling it takes far longer than running it
    LONG_COMPILE = "".join(f"def f{i:04d}(a): return a * {i} - 10\n"
                           for i in range(6000)) + "print(f0002(3))\n"

    def test_compile_is_accounted_apart_from_the_run(self):
        report = run_once(self.LONG_COMPILE, "", FAST)
        assert (report.status, report.stdout) == (ExecStatus.OK, "-4\n")
        assert 0 < report.wall_time_used < report.compile_time
        assert report.compile_time + report.wall_time_used <= FAST.wall_time
        assert 0 < report.cpu_time <= report.wall_time_used

    def test_compile_counts_against_wall_time(self):
        limits = ResourceLimits(wall_time=0.01)
        report = run_once(self.LONG_COMPILE, "", limits)
        assert report.status is ExecStatus.TIMEOUT
        assert report.compile_time > limits.wall_time
        assert report.wall_time_used <= KILL_GRACE  # the deadline had passed: killed at once

    def test_custom_runner_compiles_nothing_and_reports_cpu(self):
        report = run_once("sum(range(3_000_000))", "", FAST, runner=EXEC)
        assert report.status is ExecStatus.OK
        assert report.compile_time == 0
        assert 0 < report.cpu_time <= report.wall_time_used


PARITY_LIMITS = ResourceLimits(wall_time=1.0, memory=128 * MB, output_cap=64 * 1024)
PARITY_CASES = {
    **{path.stem: (path.read_text(), "3\n1 2 3\n2 3 4\n") for path in PROGRAMS},
    "ok": ("print(int(input()) * 2)", "21\n"),
    "timeout": ("while True: pass", ""),
    "oom": ("b = bytearray(512 * 1024 * 1024)\nprint(len(b))", ""),
    "runtime_error": ("def f():\n    raise RuntimeError('boom')\nf()", ""),
    "syntax_error": ("x = (", ""),
    "output_overflow": ("print('x' * 1000000)", ""),
    "exit_3": ("exit(3)", ""),
    "quit": ("print('before')\nquit()\nprint('after')", ""),
    "sys_exit_msg": ("import sys\nsys.exit('msg')", ""),
    "sys_exit_none": ("import sys\nsys.exit(None)", ""),
    "input_until_eof": ("lines = []\nwhile True:\n    try:\n        lines.append(input())\n"
                        "    except EOFError:\n        break\nprint(len(lines), lines[-1])",
                        "a\r\nb\nc"),
    "main_guard": ("import sys\nif __name__ == '__main__':\n"
                   "    print(__name__, sys.argv[0] == __file__, sys.stdout.name)", ""),
    "atexit_prints": ("import atexit\natexit.register(print, 'bye')\nprint('hi')", ""),
    "stdout_closed": ("import sys\nprint('a')\nsys.stdout.close()", ""),
    "keyboard_interrupt": ("raise KeyboardInterrupt", ""),
    "thread_outlives_main": ("import threading, time\n"
                             "threading.Thread(target=lambda: (time.sleep(0.2), print('late'))).start()\n"
                             "print('early')", ""),
    # what only interpreter shutdown flushes
    "stdout_replaced": ("import sys, io\nsys.stdout = io.StringIO()\nprint(1)\n"
                        "sys.__stdout__.write(sys.stdout.getvalue())", ""),
    "unclosed_writer": ("out = open(1, 'w')\nout.write('42\\n')", ""),
    "unclosed_writer_in_cycle": ("class Node:\n    pass\nnode = Node()\nnode.me = node\n"
                                 "node.out = open(1, 'w')\nnode.out.write('42\\n')", ""),
    "finalizer_prints": ("class Noisy:\n    def __del__(self):\n        print('del')\n"
                         "noisy = Noisy()\nprint('main')", ""),
    "stdout_fd_closed": ("import os\nprint('x')\nos.close(1)", ""),  # exit 120 when buffered
}


@pytest.fixture(scope="class", params=["buffered", "unbuffered"])
def stdio_buffering(request):
    """A harness whose own std streams are block-buffered, or unbuffered by
    ``PYTHONUNBUFFERED=1``; its brokers and their runs get the same stdio either way."""
    with pytest.MonkeyPatch.context() as mp:
        if request.param == "unbuffered":
            mp.setenv("PYTHONUNBUFFERED", "1")
        else:
            mp.delenv("PYTHONUNBUFFERED", raising=False)
        sandbox._shutdown_brokers()  # brokers started from here on see this environment
        yield request.param
    sandbox._shutdown_brokers()


@pytest.mark.usefixtures("stdio_buffering")
class TestForkExecParity:
    """The fork server and a fresh interpreter per run judge programs alike."""

    @pytest.mark.parametrize("name", sorted(PARITY_CASES))
    def test_same_report(self, name):
        program, stdin = PARITY_CASES[name]
        forked = run_once(program, stdin, PARITY_LIMITS)
        execed = run_once(program, stdin, PARITY_LIMITS, runner=EXEC)
        assert forked.status is execed.status
        assert forked.stdout == execed.stdout
        assert forked.exit_code == execed.exit_code
        assert forked.stderr.splitlines()[-1:] == execed.stderr.splitlines()[-1:]
        if name in {status.value for status in ExecStatus}:  # a case named for its status
            assert forked.status.value == name


class TestResourceLimits:
    @pytest.mark.parametrize("kwargs", [
        {"wall_time": 0}, {"memory": 0}, {"output_cap": -1},
    ])
    def test_positive_limits_required(self, kwargs):
        with pytest.raises(ValueError):
            ResourceLimits(**kwargs)


class TestCompareOutput:
    def test_trailing_whitespace_invariance(self):
        assert compare_output("1 2 3\n", "1 2 3") is True

    def test_float_tolerance(self):
        assert compare_output("0.500000", "0.5000001") is True  # |delta| = 1e-7 < 1e-6
        assert compare_output("0.5", "0.51") is False

    def test_plain_mismatch(self):
        assert compare_output("yes", "no") is False

    def test_token_count_mismatch(self):
        assert compare_output("1 2", "1 2 3") is False

    def test_numeric_equivalence_across_formats(self):
        assert compare_output("1", "1.0") is True

    def test_nan_never_matches_numerically(self):
        assert compare_output("nan", "nan") is True    # exact string equality
        assert compare_output("nan", "NaN") is False   # no numeric comparison for nan

    @pytest.mark.parametrize("expected, actual, equal", [
        ("100", "1e2", True),
        ("1", "+1", True),
        ("3", "3.0000004", True),
        ("0.5", ".5", True),
        ("2", "2.", True),
        ("10", "1_0", False),
        ("12", "\u0661\u0662", False),  # Arabic-Indic digits
        ("5", "\uff15", False),  # fullwidth digit
        ("1e999", "1e999", True),  # identical strings
        ("1e999", "2e999", False),  # not finite
        ("inf", "Infinity", False),
        ("1", "0x1", False),
    ])
    def test_number_policy(self, expected, actual, equal):
        assert compare_output(expected, actual) is equal
        assert compare_output(actual, expected) is equal

    @pytest.mark.parametrize("expected, actual, equal", [
        ("10000000000000001", "10000000000000000", False),  # one double apart
        (str(2**63 - 1), str(2**63), False),
        ("123456789012345678", "123456789012345679", False),
        ("007", "7", True),
        ("+5", "5", True),
        ("-0", "0", True),
        ("-00", "+0", True),
        ("-5", "5", False),
    ])
    def test_integers_compare_exactly(self, expected, actual, equal):
        assert compare_output(expected, actual) is equal
        assert compare_output(actual, expected) is equal

    def test_long_integers_compare_without_int(self):
        digits = "7" * 5000  # int() of more than 4,300 digits raises
        assert compare_output(digits, "+" + digits) is True
        assert compare_output(digits, digits[:-1] + "8") is False
        exact = ComparePolicy(mode="exact")  # unchanged: lines compare as strings
        assert compare_output(digits, "+" + digits, exact) is False
        assert compare_output("10000000000000001", "10000000000000000", exact) is False

    def test_numbers_match_written_grammar(self):
        rng = random.Random(20231)
        noise = ["0", "1", ".", "+", "-", "e", "E", "_", "x", "\u0661", "\uff15", "\u00b2"]

        def token() -> str:
            text = (rng.choice(["", "+", "-"])
                    + "".join(rng.choice("0159") for _ in range(rng.randint(0, 3)))
                    + rng.choice(["", ".", ".0", ".5", ".0000004"])
                    + rng.choice(["", "", "e1", "E-2", "e+0", "e"]))
            while rng.random() < 0.3:  # a stray character anywhere
                at = rng.randint(0, len(text))
                text = text[:at] + rng.choice(noise) + text[at:]
            return text or "0"

        same_value = [lambda t: "+" + t, lambda t: "0" + t, lambda t: t + "e0",
                      lambda t: t.replace("1", "\u0661"), lambda t: t.replace("0", "_0")]
        numeric_pairs = 0
        for _ in range(4000):
            expected = token()
            actual = rng.choice(same_value)(expected) if rng.random() < 0.3 else token()
            want = _reference_match(expected, actual, 1e-6)
            numeric_pairs += want and expected != actual
            assert compare_output(expected, actual) is want, (expected, actual)
        assert numeric_pairs > 100  # the numeric branch is exercised, not just string equality

    def test_exact_mode(self):
        policy = ComparePolicy(mode="exact")
        assert compare_output("a b\n", "a b", policy) is True
        assert compare_output("a  b", "a b", policy) is False
        assert compare_output("a\nb\n", "a\r\nb\r\n", policy) is True  # a CRLF's "\r" is stripped

    @pytest.mark.parametrize("sep", ["\u2028", "\x85", "\v", "\f", "\r"],
                             ids=["line_separator", "next_line", "vertical_tab", "form_feed", "cr"])
    def test_exact_mode_ends_lines_at_newline_alone(self, sep):
        policy = ComparePolicy(mode="exact")
        assert compare_output("a\nb\n", "a" + sep + "b\n", policy) is False

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            compare_output("a", "a", ComparePolicy(mode="fuzzy"))


def test_set_order_is_the_same_in_every_harness_process():
    # each harness process starts its own broker; none is given a hash seed
    program = 'print(list({f"w{i}" for i in range(20)}))'
    probe = f"from modeval.sandbox import run_once\nprint(run_once({program!r}, '').stdout, end='')"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    outputs = [subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=60, check=True).stdout for _ in range(3)]
    assert outputs[0].startswith("['w") and len(set(outputs)) == 1, outputs


@pytest.fixture
def hostile_shell(monkeypatch):
    """A shell holding a probe, the provider's key and a time zone, seen by brokers started here."""
    for name, value in {"MODEVAL_PROBE": "b", "MODEVAL_API_KEY": "sk-x", "TZ": "Asia/Tokyo"}.items():
        monkeypatch.setenv(name, value)
    sandbox._shutdown_brokers()
    yield
    sandbox._shutdown_brokers()


@pytest.mark.usefixtures("hostile_shell")
class TestCandidateEnvironment:
    @pytest.mark.parametrize("runner", [None, EXEC], ids=["fork", "exec"])
    @pytest.mark.parametrize("program, expected", [
        ("import os\nprint(os.environ.get('MODEVAL_PROBE', 'a'))", "a"),
        ("import os\nprint('key' if os.environ.get('MODEVAL_API_KEY') else 'none')", "none"),
        ("import time\nprint(time.localtime(0).tm_hour == 0)", "True"),
    ], ids=["probe", "provider_key", "time_zone"])
    def test_the_shell_does_not_reach_the_run(self, program, expected, runner):
        assert run_once(program, "", FAST, runner=runner).stdout == expected + "\n"

    def test_the_shells_pythonunbuffered_changes_no_report(self, monkeypatch):
        # output still buffered when the program ends without flushing it is lost, as
        # it is from a judge's `python3 main.py < in > out`
        expected = {"import os\nprint(input())\nos._exit(0)": (ExecStatus.OK, "", 0),
                    "import os\nprint(input())\nos.close(1)": (ExecStatus.RUNTIME_ERROR, "", 120)}
        reports = {program: set() for program in expected}
        for value in ("1", None):
            sandbox._shutdown_brokers()  # the next broker starts in this shell
            if value is None:
                monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
            else:
                monkeypatch.setenv("PYTHONUNBUFFERED", value)
            for program in expected:
                for runner in (None, EXEC):
                    report = run_once(program, "7\n", FAST, runner=runner)
                    reports[program].add((report.status, report.stdout, report.exit_code))
        assert reports == {program: {report} for program, report in expected.items()}

    def test_run_sees_only_the_fixed_and_passed_variables(self):
        names = set(run_once("import os\nprint(*os.environ)", "", FAST).stdout.split())
        # LC_CTYPE: the interpreter coerces a C locale to C.UTF-8 (PEP 538)
        assert set(sandbox.FIXED_ENV) <= names <= {*sandbox.FIXED_ENV, *sandbox.PASSED_ENV, "LC_CTYPE"}


class TestJudge:
    def test_reference_solution_self_consistency(self):
        problem = make_problem(
            solutions=("a, b = map(int, input().split())\nprint(a + b)",),
            tests=(("1 2\n", "3\n"), ("5 7\n", "12\n")),
        )
        verdict = Judge(FAST)(problem.solutions[0], problem)
        assert verdict.passed
        assert verdict.first_failure is None
        assert verdict.avg_time > 0
        assert verdict.avg_peak_memory > 0

    def test_constant_program_first_failure_zero(self):
        problem = make_problem(tests=(("a\n", "x\n"), ("b\n", "7\n"), ("c\n", "y\n")))
        verdict = Judge(FAST)("print(7)", problem)
        assert not verdict.passed
        assert verdict.first_failure == 0
        assert [m for _, m in verdict.per_test] == [False, True, False]

    def test_fail_fast_stops_early(self):
        problem = make_problem(tests=(("a\n", "x\n"), ("b\n", "7\n"), ("c\n", "y\n")))
        verdict = Judge(FAST, fail_fast=True)("print(7)", problem)
        assert not verdict.passed
        assert len(verdict.per_test) == 1

    def test_untestable_problem_rejected(self):
        problem = make_problem(tests=())
        with pytest.raises(ValueError):
            Judge(FAST)("print(1)", problem)

    def test_averages_over_executed_tests(self):
        problem = make_problem(tests=(("1\n", "1\n"), ("2\n", "2\n")))
        verdict = Judge(FAST)("print(input())", problem)
        times = [r.wall_time_used for r, _ in verdict.per_test]
        assert verdict.avg_time == pytest.approx(sum(times) / len(times))

    def test_one_scratch_directory_and_one_run_per_test(self, monkeypatch):
        made, runs = [], []
        mkdtemp, run = tempfile.mkdtemp, sandbox.run_once
        monkeypatch.setattr(tempfile, "mkdtemp",
                            lambda *a, **kw: made.append(1) or mkdtemp(*a, **kw))
        monkeypatch.setattr(sandbox, "run_once", lambda *a, **kw: runs.append(1) or run(*a, **kw))
        problem = make_problem(tests=(("1\n", "1\n"), ("2\n", "2\n"), ("3\n", "3\n")))
        verdict = Judge(FAST)("print(input())", problem)
        assert verdict.passed
        assert (len(made), len(runs)) == (3, 3)

    @pytest.mark.parametrize("keep", [False, True], ids=["cleaned", "kept"])
    def test_keep_scratch(self, monkeypatch, tmp_path, keep):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        problem = make_problem(tests=(("1\n", "1\n"), ("2\n", "2\n")))
        assert Judge(FAST, keep_scratch=keep)("print(input())", problem).passed
        layout = ["main.py", "run", "run/stderr.txt", "run/stdin.txt", "run/stdout.txt"]
        kept = [sorted(f.relative_to(d).as_posix() for f in d.rglob("*"))
                for d in tmp_path.iterdir()]
        assert kept == ([layout, layout] if keep else [])
        if keep:
            inputs = sorted((d / "run" / "stdin.txt").read_text() for d in tmp_path.iterdir())
            assert inputs == ["1\n", "2\n"]

    @pytest.mark.parametrize("runner", [None, EXEC], ids=["fork", "exec"])
    def test_tests_do_not_see_each_others_files(self, runner):
        program = "import os\nprint(sorted(os.listdir()))\nopen('left.txt', 'w').write('x')"
        expected = "['stderr.txt', 'stdin.txt', 'stdout.txt']\n"
        problem = make_problem(tests=(("", expected), ("", expected)))
        verdict = Judge(FAST, runner=runner)(program, problem)
        assert [r.stdout for r, _ in verdict.per_test] == [expected, expected]

    @pytest.mark.parametrize("change", ["open(__file__, 'a').write('print(2)\\n')",
                                        "import os\nos.remove(__file__)"],
                             ids=["appended", "removed"])
    @pytest.mark.parametrize("runner", [None, EXEC], ids=["fork", "exec"])
    def test_every_test_runs_the_program_as_written(self, runner, change):
        program = f"print(input())\n{change}\n"
        problem = make_problem(tests=(("1\n", "1\n"), ("2\n", "2\n"), ("3\n", "3\n")))
        verdict = Judge(FAST, runner=runner)(program, problem)
        assert [r.stdout for r, _ in verdict.per_test] == ["1\n", "2\n", "3\n"]

    @pytest.mark.parametrize("runner, lookups", [(None, 0), (EXEC, 3)], ids=["fork", "exec"])
    def test_runner_checked_once_per_run(self, monkeypatch, runner, lookups):
        calls = []
        which = shutil.which
        monkeypatch.setattr(shutil, "which", lambda *a, **kw: calls.append(a) or which(*a, **kw))
        problem = make_problem(tests=(("1\n", "1\n"), ("2\n", "2\n"), ("3\n", "3\n")))
        assert Judge(FAST, runner=runner)("print(input())", problem).passed
        assert len(calls) == lookups

    @pytest.mark.parametrize("change", ["os.remove('stdout.txt')",
                                        "os.rename(os.getcwd(), os.getcwd() + '.moved')",
                                        "os.remove(__file__)\nos.mkdir(__file__)",
                                        "os.mkdir('../1')"],
                             ids=["stdout_removed", "cwd_renamed", "file_made_a_directory",
                                  "sibling_made"])
    @pytest.mark.parametrize("runner", [None, EXEC], ids=["fork", "exec"])
    def test_no_program_can_break_judge_through_its_files(self, monkeypatch, tmp_path,
                                                          runner, change):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        brokers = []
        monkeypatch.setattr(sandbox, "_Broker", lambda: brokers.append(1) or _Broker())
        sandbox._shutdown_brokers()  # so this judge starts its one broker
        program = f"import os\nprint(input())\n{change}\n"
        problem = make_problem(tests=(("1\n", "1\n"), ("2\n", "2\n")))
        verdict = Judge(FAST, runner=runner)(program, problem)
        assert [(r.status, matched) for r, matched in verdict.per_test] == [
            (ExecStatus.OK, True), (ExecStatus.OK, True)]
        assert len(brokers) == 1
        assert list(tmp_path.iterdir()) == []


class TestJudgeBatch:
    def test_parallel_matches_sequential(self):
        problems = [
            make_problem(f"p{i}", tests=((f"{i}\n", f"{i * 2}\n"),))
            for i in range(6)
        ]
        # half the programs are wrong
        tasks = [
            ("print(int(input()) * 2)" if i % 2 == 0 else "print(0)", p)
            for i, p in enumerate(problems)
        ]
        seq = judge_batch(tasks, Judge(FAST), workers=1)
        par = judge_batch(tasks, Judge(FAST), workers=4)
        assert [[m for _, m in v.per_test] for v in seq] == \
               [[m for _, m in v.per_test] for v in par]
        assert [v.passed for v in seq] == [i % 2 == 0 for i in range(6)]

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            judge_batch([], workers=0)

    def test_empty_or_single_batch_starts_no_thread(self, monkeypatch):
        def no_start(thread):
            raise AssertionError("a thread was started for at most one task")

        monkeypatch.setattr(threading.Thread, "start", no_start)
        assert judge_batch([]) == []
        assert judge_batch([], workers=4) == []
        problem = make_problem(tests=(("1\n", "1\n"),))
        # two copies of one pair are one task: the caller judges it alone
        for tasks in ([("print(input())", problem)], 2 * [("print(input())", problem)]):
            assert all(v.passed for v in judge_batch(tasks, Judge(FAST), workers=4))

    def test_duplicate_pair_judged_once(self, monkeypatch):
        calls = []
        real = sandbox.judge
        monkeypatch.setattr(sandbox, "judge", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        problem = make_problem(tests=(("1\n", "1\n"),))
        tasks = [("print(input())", problem), ("print(input())", problem)]
        first, second = judge_batch(tasks, Judge(FAST), workers=2)
        assert len(calls) == 1
        assert first == second and first.passed

    def test_default_judge_built_per_call_under_default_settings(self, monkeypatch):
        # no Judge is built at import: each entry point builds Judge() when called
        for fn in (judge_batch, self_reflect):
            assert inspect.signature(fn).parameters["judge"].default is None
        settings = []
        real = sandbox.judge
        monkeypatch.setattr(sandbox, "judge", lambda program, problem, judged_under:
                            settings.append(judged_under) or real(program, problem, judged_under))
        problem = make_problem()
        [verdict] = judge_batch([("print(input())", problem)])
        trace = self_reflect(problem, ProviderConfig(), provider=MockProvider(
            script=["```python\nprint(input())\n```"]))
        assert verdict.passed and trace.solved
        assert settings == 2 * [Judge()]


class TestVerdictCache:
    def test_hit_returns_equal_verdict(self, tmp_path):
        cache = VerdictCache(tmp_path / "verdicts")
        problem = make_problem(tests=(("1\n", "1\n"),))
        first = cache.judge("print(input())", problem, Judge(FAST))
        second = cache.judge("print(input())", problem, Judge(FAST))
        assert cache.hits == 1 and cache.misses == 1
        assert second == first  # every field read back from disk
        assert second.passed == first.passed
        assert second.avg_time == first.avg_time  # replayed, not re-measured
        assert [m for _, m in second.per_test] == [m for _, m in first.per_test]

    def test_key_sensitive_to_tests_and_limits(self, tmp_path):
        cache = VerdictCache(tmp_path / "verdicts")
        p1 = make_problem(tests=(("1\n", "1\n"),))
        p2 = make_problem(tests=(("1\n", "2\n"),))
        cache.judge("print(input())", p1, Judge(FAST))
        v = cache.judge("print(input())", p2, Judge(FAST))
        assert cache.misses == 2
        assert not v.passed

    def test_key_names_default_interpreter(self, monkeypatch):
        args = ("print(input())", make_problem(tests=(("1\n", "1\n"),)), Judge(FAST))
        here = verdict_key(*args)
        monkeypatch.setattr(sys, "executable", "/usr/bin/python3.9")
        monkeypatch.setattr(sys, "version", "3.9.18 (main) [GCC 12.2.0]")
        assert verdict_key(*args) != here

    def test_key_pinned(self, monkeypatch):
        # computed with hashlib.sha256: existing caches hit only while this holds
        monkeypatch.setattr(sys, "executable", "/nonexistent/bin/python3")
        monkeypatch.setattr(sys, "version", "3.11.7 (fixed)")
        monkeypatch.setenv("PATH", "/usr/bin:/bin")
        monkeypatch.setenv("PYTHONPATH", "/nonexistent/lib")
        monkeypatch.setattr(sandbox, "SANDBOX_SEMANTICS", 3)  # the recipe, not the version
        problem = make_problem(tests=(("1\n", "1\n"), ("\u00fc\n", "\u00fc\n")))
        settings = Judge(ResourceLimits(wall_time=2.0), ComparePolicy(mode="exact"),
                         fail_fast=True)
        assert (verdict_key("print(input())", problem, settings)
                == "ba84de1e9c3f41d5cd22fd76b38181d16824021d8282664f210a769a7c3bfdae")

    def test_key_resolves_each_interpreter_path_once(self, tmp_path, monkeypatch):
        # realpath lstat's every path component, and a round makes a key per candidate
        args = ("print(input())", make_problem(tests=(("1\n", "1\n"),)), Judge(FAST))
        here = verdict_key(*args)
        link = tmp_path / "python"
        link.symlink_to(sys.executable)
        realpath, resolved = os.path.realpath, []
        monkeypatch.setattr(os.path, "realpath", lambda path: resolved.append(path) or realpath(path))
        monkeypatch.setattr(sys, "executable", str(link))
        assert {verdict_key(*args) for _ in range(3)} == {here}
        assert resolved == [str(link)]

    def test_key_names_sandbox_semantics(self, monkeypatch):
        args = ("print(input())", make_problem(tests=(("1\n", "1\n"),)), Judge(FAST))
        here = verdict_key(*args)
        monkeypatch.setattr(sandbox, "SANDBOX_SEMANTICS", sandbox.SANDBOX_SEMANTICS + 1)
        assert verdict_key(*args) != here

    def test_key_names_path_and_each_pythonpath_entry_made_absolute(self, tmp_path, monkeypatch):
        args = ("print(input())", make_problem(tests=(("1\n", "1\n"),)), Judge(FAST))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PYTHONPATH", "src")
        here = verdict_key(*args)
        monkeypatch.setenv("PYTHONPATH", str(tmp_path / "src"))
        assert verdict_key(*args) == here  # one directory, one key
        monkeypatch.setenv("PYTHONPATH", str(tmp_path / "lib"))
        assert verdict_key(*args) != here
        monkeypatch.setenv("PYTHONPATH", "src")
        monkeypatch.setenv("PATH", os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")]))
        assert verdict_key(*args) != here

    def test_verdict_is_not_served_under_another_pythonpath(self, tmp_path, monkeypatch):
        for name, value in (("a", 1), ("b", 2)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "helper.py").write_text(f"VALUE = {value}\n")
        problem = make_problem(tests=(("", "1\n"),))
        passed = []
        try:
            for name in ("a", "b"):
                sandbox._shutdown_brokers()  # the next broker starts with this PYTHONPATH
                monkeypatch.setenv("PYTHONPATH", str(tmp_path / name))
                cache = VerdictCache(tmp_path / "verdicts")
                passed.append(Judge(FAST, cache=cache)("import helper\nprint(helper.VALUE)", problem).passed)
        finally:
            sandbox._shutdown_brokers()
        assert passed == [True, False]
        assert (cache.hits, cache.misses) == (0, 1)

    def test_corrupt_entry_recomputed(self, tmp_path):
        cache = VerdictCache(tmp_path / "verdicts")
        problem = make_problem(tests=(("1\n", "1\n"),))
        cache.judge("print(input())", problem, Judge(FAST))
        edit_cache_entry(tmp_path / "verdicts", lambda entry: "{broken")
        cache = VerdictCache(tmp_path / "verdicts")  # a later run
        verdict = cache.judge("print(input())", problem, Judge(FAST))
        assert verdict.passed
        assert (cache.hits, cache.misses) == (0, 1)
        broken, rejudged = (tmp_path / "verdicts" / "entries.jsonl").read_text().splitlines()
        assert broken.endswith("\t{broken")  # superseded, not deleted
        assert rejudged.startswith(broken[:65])

    def test_entry_holds_only_per_test(self, tmp_path):
        Judge(FAST, cache=VerdictCache(tmp_path))("print(input())", make_problem())
        [(_, entry)] = cache_entries(tmp_path)
        assert [f.name for f in fields(JudgeVerdict)] == list(entry) == ["per_test"]

    def test_written_verdict_fields_are_ignored(self, tmp_path):
        problem = make_problem(tests=(("1\n", "2\n"),))
        Judge(FAST, cache=VerdictCache(tmp_path))("print(input())", problem)
        edit_cache_entry(tmp_path, lambda entry: dict(entry, passed=True, first_failure=None))
        cache = VerdictCache(tmp_path)  # a later run
        verdict = Judge(FAST, cache=cache)("print(input())", problem)
        assert cache.hits == 1
        assert not verdict.passed and verdict.first_failure == 0

    @pytest.mark.parametrize("fail_fast, edit, served", [
        (False, lambda results: results, True),
        (False, lambda results: [r for r in results if r[1]], False),
        (False, lambda results: results + results[:1], False),
        (True, lambda results: results, True),
        (True, lambda results: results[:1], False),
        (True, lambda results: results + results[:1], False),
        (False, lambda results: [[r, m or "false"] for r, m in results], False),
        (False, lambda results: [[dict(r, wall_time_used="fast"), m] for r, m in results], False),
        (False, lambda results: [[dict(r, status="timeout"), m] for r, m in results], False),
        (False, lambda results: [[dict(r, wall_time_used=-5.0), m] for r, m in results], False),
        (False, lambda results: [[dict(r, compile_time=-1.0), m] for r, m in results], False),
        (False, lambda results: [[dict(r, cpu_time=math.inf), m] for r, m in results], False),
    ], ids=["all-tests", "matched-only", "extra-result",
            "fail-fast", "fail-fast-before-failure", "fail-fast-past-failure",
            "matched-string", "wall-time-string", "matched-not-ok", "negative-wall-time",
            "negative-compile-time", "infinite-cpu-time"])
    def test_entry_served_only_in_a_shape_judge_records(self, tmp_path, fail_fast, edit, served):
        problem = make_problem(tests=(("1\n", "1\n"), ("2\n", "x\n"), ("3\n", "3\n")))
        first = Judge(FAST, fail_fast=fail_fast, cache=VerdictCache(tmp_path))(
            "print(input())", problem)
        edit_cache_entry(tmp_path, lambda obj: dict(obj, per_test=edit(obj["per_test"])))
        cache = VerdictCache(tmp_path)  # a later run
        judged = Judge(FAST, fail_fast=fail_fast, cache=cache)
        again = judged("print(input())", problem)
        assert (cache.hits, cache.misses) == ((1, 0) if served else (0, 1))
        assert [m for _, m in again.per_test] == [m for _, m in first.per_test]
        judged("print(input())", problem)  # a re-judged entry was written back whole
        assert cache.hits == (2 if served else 1)
        later = VerdictCache(tmp_path)
        Judge(FAST, fail_fast=fail_fast, cache=later)("print(input())", problem)
        assert (later.hits, later.misses) == (1, 0)  # the last line of a key wins
        assert len(cache_entries(tmp_path)) == (1 if served else 2)


class TestBroker:
    @pytest.mark.parametrize("hangs", [False, True], ids=["exits", "killed"])
    def test_close_releases_pipe_and_reaps(self, monkeypatch, hangs):
        broker = _Broker()
        if hangs:
            wait = broker.proc.wait

            def slow_wait(timeout=None):
                if timeout is not None:
                    raise subprocess.TimeoutExpired(broker.proc.args, timeout)
                return wait()

            monkeypatch.setattr(broker.proc, "wait", slow_wait)
        broker.close()
        assert broker.proc.stdout.closed
        assert broker.proc.returncode is not None

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/<pid>/fd to count")
    def test_every_reply_closes_the_runs_descriptors(self, tmp_path):
        (tmp_path / "main.py").write_text("print(input())\n")
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "stdin.txt").write_text("7\n")
        ok = {"file": str(tmp_path / "main.py"), "argv": None, "cwd": str(tmp_path / "run"),
              "wall_time": 5.0, "as_bytes": 512 * MB, "fsize_bytes": MB, "cap": MB}
        child_fails = {**ok, "as_bytes": 2**70}  # beyond any rlimit value
        open_fails = {**ok, "cwd": str(tmp_path / "missing")}
        broker = _Broker()
        try:
            def open_fds():
                return len(os.listdir(f"/proc/{broker.proc.pid}/fd"))

            assert broker.request(ok)["stdout"] == "7\n"
            before = open_fds()
            for req in (ok, child_fails, open_fails) * 2:
                broker.request(req)
            assert "spawn_error" in broker.request(child_fails)
            assert broker.request(open_fails)["spawn_error"].startswith("FileNotFoundError")
            assert open_fds() == before
        finally:
            broker.close()

    def test_eof_ends_the_broker_with_status_zero(self, tmp_path):
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "stdin.txt").write_text("")
        (tmp_path / "main.py").write_text("print(1)\n")
        broker = _Broker()
        reply = broker.request({"file": str(tmp_path / "main.py"), "argv": None,
                                "cwd": str(tmp_path / "run"), "wall_time": 5.0,
                                "as_bytes": 512 * MB, "fsize_bytes": MB, "cap": MB})
        broker.close()
        assert reply["stdout"] == "1\n"
        assert broker.proc.returncode == 0


class TestBrokerModule:
    """``_broker``'s functions, called directly, and what importing it does."""

    def test_exit_status(self, capsys):
        assert [_broker.exit_status(code) for code in (None, 0, 3, 256 + 7, -1, True)] == [0, 0, 3, 7, 255, 1]
        assert _broker.exit_status("bye") == 1
        assert capsys.readouterr().err == "bye\n"

    def test_stdio(self):
        streams = [_broker.stdio(0, "r", "strict"), _broker.stdio(1, "w", "strict"),
                   _broker.stdio(2, "w", "backslashreplace")]
        try:
            assert [s.name for s in streams] == ["<stdin>", "<stdout>", "<stderr>"]
            assert [s.mode for s in streams] == ["r", "w", "w"]
            assert [s.errors for s in streams] == ["strict", "strict", "backslashreplace"]
            assert {s.encoding for s in streams} == {_broker.ENCODING}
            # Python's default for files: stdout block-buffered, stderr line-buffered
            assert [s.line_buffering for s in streams] == [False, False, True]
            assert [s.write_through for s in streams] == [False, False, False]
            assert [type(s.buffer) for s in streams] == [io.BufferedReader, io.BufferedWriter,
                                                         io.BufferedWriter]
        finally:
            for stream in streams:
                stream.close()  # not its fd: the stream was opened with closefd=False

    def test_candidate_path_holds_neither_the_package_nor_the_cwd(self):
        path = json.loads(run_once("import json, sys\nprint(json.dumps(sys.path))", "", FAST).stdout)
        assert Path(path[0]).name.startswith("modeval-run-")  # main.py's directory
        resolved = {os.path.realpath(entry) for entry in path[1:]}
        assert "" not in path and os.path.realpath(Path(_broker.__file__).parent) not in resolved

    def test_import_starts_nothing_and_loads_no_modeval_module(self):
        probe = ("import ctypes, os\n"
                 "import modeval._broker\n"
                 "children = f'/proc/self/task/{os.getpid()}/children'\n"
                 "if os.path.exists(children):\n"
                 "    with open(children) as fh:\n"
                 "        assert fh.read() == ''\n"
                 "if sys.platform.startswith('linux'):  # PR_GET_CHILD_SUBREAPER\n"
                 "    prctl = ctypes.CDLL(None, use_errno=True).prctl\n"
                 "    prctl.argtypes = [ctypes.c_int, ctypes.POINTER(ctypes.c_int)] + [ctypes.c_ulong] * 3\n"
                 "    prctl.restype = ctypes.c_int\n"
                 "    flag = ctypes.c_int(-1)\n"
                 "    assert prctl(37, ctypes.byref(flag), 0, 0, 0) == 0 and flag.value == 0, flag.value\n")
        loaded = loaded_modules(probe)
        assert {name for name in loaded if name.startswith("modeval")} == {"modeval", "modeval._broker"}
