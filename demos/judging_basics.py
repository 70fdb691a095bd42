#!/usr/bin/env python3
"""Run programs under resource limits and judge them against I/O tests."""
from modeval import (
    ComparePolicy,
    Judge,
    Problem,
    ResourceLimits,
    TestCase,
    compare_output,
    run_once,
)

MB = 1024 * 1024

# --- single runs and their statuses -------------------------------------------
echo = run_once("import sys; sys.stdout.write(sys.stdin.read())", "42\n")
print("echo        ->", echo.status.value, repr(echo.stdout),
      "%.0f ms, %.1f MB" % (echo.wall_time_used * 1e3, echo.peak_memory / MB))

spin = run_once("while True: pass", "", ResourceLimits(wall_time=1.0))
print("busy loop   ->", spin.status.value, "after %.2f s" % spin.wall_time_used)

hungry = run_once("b = bytearray(512 * 1024 * 1024)", "",
                  ResourceLimits(memory=128 * MB))
print("big alloc   ->", hungry.status.value)

crash = run_once("raise ValueError('nope')", "")
print("crash       ->", crash.status.value, "exit", crash.exit_code)

chatty = run_once("print('x' * 10_000_000)", "", ResourceLimits(output_cap=64 * 1024))
print("flooding    ->", chatty.status.value)

# --- output comparison policy --------------------------------------------------
print("\ntoken comparison:")
print("  '1 2 3\\n' vs '1 2 3'      ->", compare_output("1 2 3\n", "1 2 3"))
print("  '0.500000' vs '0.5000001' ->", compare_output("0.500000", "0.5000001"))
print("  exact mode, same pair     ->",
      compare_output("0.500000", "0.5000001", ComparePolicy(mode="exact")))

# --- a full judged problem ------------------------------------------------------
problem = Problem(
    id="square",
    statement="Read an integer and print its square.",
    solutions=["n = int(input())\nprint(n * n)"],
    tests=[TestCase("3\n", "9\n"), TestCase("-4\n", "16\n"), TestCase("0\n", "0\n")],
)

judge = Judge()  # default limits and token comparison, no verdict cache
verdict = judge(problem.solutions[0], problem)
print(f"\nreference solution: passed={verdict.passed}, "
      f"avg {verdict.avg_time * 1e3:.0f} ms, {verdict.avg_peak_memory / MB:.1f} MB peak")

verdict = judge("n = int(input())\nprint(n + n)", problem)
print(f"doubler instead:    passed={verdict.passed}, "
      f"first failure at test {verdict.first_failure}")
for i, (report, matched) in enumerate(verdict.per_test):
    print(f"  test {i}: {report.status.value}, matched={matched}, got {report.stdout.strip()!r}")
