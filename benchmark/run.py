"""Benchmark of the modeval pipeline, run from the root of a checkout.

    python3 benchmark/run.py --workload judge-cold --seed 1 --seconds 20 --trace 0

Untraced (``--trace 0``): generates the workload's inputs from the seed into
a fresh work directory under ``.bench_work/``, runs the set-up, then repeats
whole rounds of ``python -m modeval.cli …`` commands until ``--seconds`` have
passed. Each command is a separate process, measured from outside: wall
clock, then CPU time and peak RSS from ``wait4`` once it has exited. Every
round's outputs are checked against values the benchmark computes itself.

Traced (``--trace 1``): runs one round in this process through
``modeval.cli.main`` without wrappers, then one with the wrappers of
``tracing.py``, and prints every per-layer metric and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The work directory is removed on
exit; the run leaves no process and no file behind.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, RoundResult, Timed, Workload  # noqa: E402

WORK_ROOT = ".bench_work"


class CliProcess:
    """Runs one ``modeval`` command as a child process and measures it."""

    def __init__(self, src: Path, workdir: Path) -> None:
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(src),
            # the checkout stays free of __pycache__; modeval compiles per start
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONHASHSEED": "0",
        })
        self.log = workdir / "cli.log"
        self.proc: subprocess.Popen | None = None

    def __call__(self, argv: list[str]) -> Timed:
        with self.log.open("ab") as log:
            start = time.perf_counter()
            self.proc = subprocess.Popen([sys.executable, "-m", "modeval.cli", *argv],
                                         stdout=log, stderr=subprocess.STDOUT, env=self.env)
            _, status, usage = os.wait4(self.proc.pid, 0)
            wall = time.perf_counter() - start
        self.proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.proc = None
        if code != 0:  # the log goes with the work directory: show its end now
            tail = self.log.read_text(errors="replace").splitlines()[-20:]
            print(f"modeval {' '.join(argv)} exited {code}:", *tail, sep="\n", file=sys.stderr)
        return Timed(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code)

    def stop(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


class InProcess:
    """Runs one ``modeval`` command through ``modeval.cli.main`` in this process."""

    def __init__(self) -> None:
        from modeval import cli
        self.main = cli.main

    def __call__(self, argv: list[str]) -> Timed:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.main(argv)
        return Timed(time.perf_counter() - start, 0.0, 0.0, code)


def measured(workload: Workload, cli: CliProcess, seconds: float) -> dict:
    setup = workload.setup(cli)
    rounds: list[RoundResult] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.round(cli))

    def per_round(fn) -> float:
        return statistics.median(fn(r) for r in rounds)

    metrics = {
        "items_per_s": (per_round(lambda r: r.items / sum(t.wall for t in r.timings)), "1/s"),
        "cpu_ms_per_item": (per_round(lambda r: 1000 * sum(t.cpu for t in r.timings) / r.items),
                            "ms"),
        "peak_rss_mb": (per_round(lambda r: max(t.maxrss_mb for t in r.timings)), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    print(f"{workload.name}: {len(rounds)} rounds; setup samples (s) "
          + " ".join(f"{s:.3f}" for s in setup) + "; round walls (s) "
          + " ".join(f"{sum(t.wall for t in r.timings):.3f}" for r in rounds)
          + "; round CPU (s) " + " ".join(f"{sum(t.cpu for t in r.timings):.3f}" for r in rounds))
    return result(rounds, metrics)


def traced(workload: Workload, spans_path: Path, keep_spans: bool, pairs: int = 3) -> dict:
    """Per-layer metrics from the first of ``pairs`` traced in-process rounds.

    The overhead compares the median traced round with the median of as many
    untraced ones, run alternately after a warm-up round.
    """
    from modeval import sandbox

    inproc = InProcess()
    untraced, with_spans, first = [], [], None
    try:
        workload.traced_round(inproc)  # first calls: lazy imports, templates, brokers
        empty_runs = [sandbox.run_once("", "").wall_time_used for _ in range(5)]
        for _ in range(pairs):
            untraced.append(workload.traced_round(inproc)[1])
            rec = tracing.Recorder()
            restore = tracing.install(rec)
            try:
                traced_round, wall = workload.traced_round(inproc)
            finally:
                restore()
            with_spans.append(wall)
            first = first or (rec, traced_round)
    finally:
        sandbox._shutdown_brokers()  # the in-process run's broker pool
    rec, traced_round = first
    rec.write(spans_path)
    base, spanned = statistics.median(untraced), statistics.median(with_spans)
    print(f"{workload.name}: median of {pairs} rounds traced {spanned:.3f} s, untraced "
          f"{base:.3f} s, tracing overhead {100 * (spanned / base - 1):+.1f}%; "
          f"{len(rec.spans)} spans of the first traced round written to {spans_path}"
          + ("" if keep_spans else " (removed with the work directory; keep them with --spans)"))
    layer = tracing.per_layer(rec, empty_runs)
    metrics = {name: (layer[name], unit) for name, unit in tracing.PER_LAYER_UNITS.items()}
    return result([traced_round], metrics)


def result(rounds: list[RoundResult], metrics: dict[str, tuple[float, str]]) -> dict:
    attempted = sum(r.items for r in rounds)
    failed = sum(len(r.failed) for r in rounds)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="traced mode: keep the span file at this path")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "modeval" / "cli.py").is_file():
        print(f"error: no modeval sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    (root / WORK_ROOT).mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=root / WORK_ROOT))
    cli = CliProcess(src, workdir)
    workers = len(os.sched_getaffinity(0))
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed, workers)
        workload.prepare()
        if args.trace:
            spans = Path(args.spans).resolve() if args.spans else workdir / "spans.jsonl"
            out = traced(workload, spans, keep_spans=bool(args.spans))
        else:
            out = measured(workload, cli, args.seconds)
    finally:
        cli.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / WORK_ROOT).rmdir()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
