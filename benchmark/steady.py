"""Steadiness check: two sets of runs of one checkout, compared metric by metric.

    python3 benchmark/steady.py --runs 10 [--workload transform-dedup ...] [--json out.json]

Run from the root of a checkout. Each of the two sets runs the command of
``BENCHMARK.json`` ``--runs`` times per workload, with seeds 1 onwards,
cycling through the workloads seed by seed. For every end-to-end metric and
set it prints the median, the quartiles and the quartile spread as a share
of the median (``statistics.quantiles(n=4)``), and whether that spread is
within the metric's bound. It then prints whether the two sets' medians
agree within the bound, in either direction. It also prints each set's
failed operations and the steal time ``/proc/stat`` reports while the set
ran, as a share of busy plus stolen CPU time.

Exit status 0 when every run is correct with no failed operation, every
spread is within its bound and every pair of medians agrees; 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SETS = 2
FIRST_SEED = 1


def cpu_times() -> list[int]:
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return [int(x) for x in fields[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    # user nice system idle iowait irq softirq steal ...
    d = [b - a for a, b in zip(before, after)]
    busy = d[0] + d[1] + d[2] + d[5] + d[6] + d[7]
    return d[7] / busy if busy else 0.0


def one_run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--json", help="also write every run's result to this file")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seeds = range(FIRST_SEED, FIRST_SEED + args.runs)

    sets, steal = [], []
    for s in range(SETS):
        before = cpu_times()
        runs: dict[str, list[dict]] = {w: [] for w in workloads}
        for seed in seeds:
            for w in workloads:
                out = one_run(bench["command"], w, seed, bench["run_seconds"])
                runs[w].append(out)
                values = " ".join(f"{m['name']}={out['metrics'][m['name']]['value']:.4g}"
                                  for m in metrics)
                print(f"set {s + 1} {w} seed {seed}: {values} "
                      f"failed {out['failed']}/{out['attempted']}", file=sys.stderr, flush=True)
        steal.append(steal_share(before, cpu_times()))
        sets.append(runs)

    ok = True
    for s, share in enumerate(steal):
        print(f"set {s + 1}: steal {100 * share:.1f}% of busy CPU time")
    for w in workloads:
        print(f"\n{w}")
        for s, runs in enumerate(sets):
            failed = sum(r["failed"] for r in runs[w])
            attempted = sum(r["attempted"] for r in runs[w])
            correct = sum(r["correct"] for r in runs[w])
            ok &= failed == 0 and correct == len(runs[w])
            print(f"  set {s + 1}: failed {failed}/{attempted}, "
                  f"correct in {correct}/{len(runs[w])} runs")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, runs in enumerate(sets):
                median, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs[w]])
                medians.append(median)
                steady = spread <= bound
                ok &= steady
                print(f"  {name:16s} set {s + 1}: median {median:.5g} {m['unit']}  "
                      f"q1 {q1:.5g}  q3 {q3:.5g}  spread {100 * spread:.1f}% "
                      f"(bound {100 * bound:.0f}%){'' if steady else '  TOO WIDE'}")
            change = (medians[1] - medians[0]) / medians[0]
            agree = abs(change) <= bound
            ok &= agree
            print(f"  {name:16s} second median {100 * change:+.1f}% against the first: "
                  f"{'agrees' if agree else 'DISAGREES'} within {100 * bound:.0f}%")
    if args.json:
        Path(args.json).write_text(json.dumps({"steal": steal, "sets": sets}, indent=1))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
