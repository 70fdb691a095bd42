"""The three benchmark workloads: seeded inputs, the commands each round runs,
and the checks that compare the pipeline's outputs with values the benchmark
computes on its own.

Every input is generated from the run's seed into a fresh work directory.
Every expected value (test outputs, labels, pass@k, dedup pairs, filter
rates) comes from the generator's plan, never from a saved copy of earlier
pipeline output.

A workload exposes:

* ``prepare()`` - write the corpora, candidates, mock rules and config;
* ``setup(run)`` - the set-up whose wall time is reported as ``setup_s``
  (one sample per entry of the returned list);
* ``round(run)`` - one whole round of timed commands, returning the timings,
  the item count and the set of items whose checks failed;
* ``traced_round(run)`` - what one traced round covers, with its wall time.

``run(argv)`` executes one ``modeval`` command and returns its ``Timed``.
"""

from __future__ import annotations

import csv
import json
import math
import random
import shutil
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DIFFICULTIES = ("introductory", "interview", "competition")
SOURCES = ("codeforces", "atcoder", "codechef")
KINDS = ("sum_mod", "spread", "count_div", "sorted", "weighted")


@dataclass
class Timed:
    """One command as measured from outside: wall clock, CPU and peak RSS.

    ``cpu`` is user plus system time of the command and every descendant it
    waited for, and ``maxrss_mb`` its peak resident set, both from ``wait4``.
    In-process runs report CPU and RSS as 0; they only feed the trace.
    """

    wall: float
    cpu: float
    maxrss_mb: float
    exit_code: int


Runner = Callable[[list[str]], Timed]


@dataclass
class RoundResult:
    timings: list[Timed]
    items: int
    failed: set


def reset(*paths: Path) -> None:
    for path in paths:
        shutil.rmtree(path, ignore_errors=True)


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def _read_jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _tree(root: Path) -> dict[str, bytes]:
    if not root.exists():
        return {}
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# --- programs and their reference answers -----------------------------------

def reference_answer(kind: str, param: int, values: list[int]) -> str:
    """The expected output, computed independently of any candidate program."""
    if kind == "sum_mod":
        return str(sum(values) % param)
    if kind == "spread":
        return str(max(values) - min(values))
    if kind == "count_div":
        return str(len([v for v in values if v % param == 0]))
    if kind == "sorted":
        return " ".join(map(str, sorted(values)))
    if kind == "weighted":
        return str(sum(i * v for i, v in zip(range(1, len(values) + 1), values)) % param)
    raise ValueError(kind)


STATEMENT = {
    "sum_mod": "print the sum of the integers modulo {p}",
    "spread": "print the largest integer minus the smallest one",
    "count_div": "print how many of the integers are divisible by {p}",
    "sorted": "print the integers in non-decreasing order separated by spaces",
    "weighted": "print the sum of i times the i-th integer, modulo {p}",
}

_SOLVE_BODY = {
    "sum_mod": ["total = 0", "for value in values:", "    total += value", "return total % {p}"],
    "spread": ["low = high = values[0]", "for value in values[1:]:",
               "    low = min(low, value)", "    high = max(high, value)", "return high - low"],
    "count_div": ["count = 0", "for value in values:", "    if value % {p} == 0:",
                  "        count += 1", "return count"],
    "sorted": ["ordered = sorted(values)", "return ' '.join(str(v) for v in ordered)"],
    "weighted": ["total = 0", "for index, value in enumerate(values, start=1):",
                 "    total = total + index * value", "return total % {p}"],
}

# Identity passes over the value list; they only add modules (and length).
_STAGES = [
    ["result = []", "for value in values:", "    result.append(value)", "return result"],
    ["result = []", "for value in values:", "    if value >= 0:", "        result.append(value)",
     "    else:", "        result.append(value)", "return result"],
    ["result = list(values)", "index = 0", "while index < len(result):",
     "    result[index] = result[index] + 0", "    index += 1", "return result"],
]


def program_source(kind: str, param: int, stages: int, mode: str, tag: str) -> str:
    """A modular candidate: ``stages + 3`` defs. ``mode`` is its planted label.

    ``correct`` answers every test, ``wrong`` prints an extra token so it
    fails every test with status ok, ``runtime_error`` raises in ``solve``.
    """
    lines = [f"# {tag}", "import sys", "", "",
             "def read_values():",
             '    """Read the count n, then n integers; return the integers."""',
             "    data = sys.stdin.read().split()",
             "    n = int(data[0])",
             "    return [int(x) for x in data[1:1 + n]]", "", ""]
    for s in range(stages):
        lines.append(f"def stage_{s}(values):")
        lines.append(f'    """Pass {s}: return the same values as a new list."""')
        lines += ["    " + ln for ln in _STAGES[s % len(_STAGES)]]
        lines += ["", ""]
    lines += ["def solve(values):", '    """Compute the answer for the list of values."""']
    if mode == "runtime_error":
        lines.append("    raise ValueError('unsupported input')")
    lines += ["    " + ln.format(p=param) for ln in _SOLVE_BODY[kind]]
    lines += ["", "", "def main():", '    """Read the input, pass it through every stage, print."""',
              "    values = read_values()"]
    lines += [f"    values = stage_{s}(values)" for s in range(stages)]
    lines.append("    print(solve(values), 0)" if mode == "wrong" else "    print(solve(values))")
    lines += ["", "", "main()"]
    return "\n".join(lines) + "\n"


def _task(rng: random.Random) -> tuple[str, int]:
    kind = rng.choice(KINDS)
    param = rng.randint(2, 9) if kind == "count_div" else rng.randint(7, 997)
    return kind, param


def _tests(rng: random.Random, kind: str, param: int, count: int) -> tuple[list[str], list[str]]:
    inputs, outputs = [], []
    for _ in range(count):
        values = [rng.randint(-500, 500) for _ in range(rng.randint(5, 40))]
        inputs.append(f"{len(values)}\n{' '.join(map(str, values))}\n")
        outputs.append(reference_answer(kind, param, values) + "\n")
    return inputs, outputs


@dataclass
class Candidate:
    problem_id: str
    index: int
    mode: str
    defs: int

    @property
    def passed(self) -> bool:
        return self.mode == "correct"

    def statuses(self, tests: int) -> list[str]:
        return ["runtime_error" if self.mode == "runtime_error" else "ok"] * tests


def _check_record(row: dict, cand: Candidate, tests: int) -> bool:
    return (row.get("passed") == cand.passed
            and row.get("statuses") == cand.statuses(tests)
            and row.get("metrics", {}).get("function_count") == cand.defs)


def _pass_at_k(n: int, c: int, k: int) -> float:
    return 1.0 - math.comb(n - c, k) / math.comb(n, k)


class Workload:
    name = ""

    def __init__(self, workdir: Path, seed: int, workers: int) -> None:
        self.dir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workers = workers
        self.config = workdir / "config.json"
        self.cache = workdir / "cache"
        self.out = workdir / "out"

    def _write_config(self, extra: dict) -> None:
        cfg = {
            "provider": {"model_name": "mock-model", "max_inflight": self.workers,
                         "retry_limit": 0},
            "limits": {"wall_time": 5.0, "memory": 268435456, "output_cap": 1048576},
            "workers": self.workers,
            "cache_dir": "cache",
            "outdir": "out",
        }
        cfg.update(extra)
        self.config.write_text(json.dumps(cfg, indent=2), encoding="utf-8")

    def setup(self, run: Runner, samples: int = 5) -> list[float]:
        """Set-up cost every command pays: interpreter, imports, config, corpus."""
        times = []
        for _ in range(samples):
            t = run(["stats", "--config", str(self.config), "--outdir", str(self.dir / "stats")])
            times.append(t.wall)
        return times

    def traced_round(self, run: Runner) -> tuple[RoundResult, float]:
        r = self.round(run)
        return r, sum(t.wall for t in r.timings)


# --- judge-cold ---------------------------------------------------------------

class JudgeCold(Workload):
    """``modeval evaluate`` over empty caches: the sandbox does the work.

    Runnable by name but not listed in BENCHMARK.json: under host steal its
    wall-clock throughput spread past the largest bound a benchmark may set
    (see the README).
    """

    name = "judge-cold"
    problems_per_difficulty = 3
    candidates_per_problem = 4
    tests_per_problem = 3
    ks = [1, 3]

    def prepare(self) -> None:
        rng = self.rng
        corpus, cand_rows = [], []
        self.candidates: list[Candidate] = []
        self.difficulty: dict[str, str] = {}
        for d, difficulty in enumerate(DIFFICULTIES):
            for i in range(self.problems_per_difficulty):
                pid = f"jc{d}{i:02d}"
                kind, param = _task(rng)
                inputs, outputs = _tests(rng, kind, param, self.tests_per_problem)
                corpus.append({
                    "id": pid, "question": f"Read n and then n integers; {STATEMENT[kind].format(p=param)}.",
                    "solutions": [program_source(kind, param, 1, "correct", pid)],
                    "input_output": {"inputs": inputs, "outputs": outputs},
                    "difficulty": difficulty, "source": rng.choice(SOURCES),
                })
                self.difficulty[pid] = difficulty
                codes = []
                for ci in range(self.candidates_per_problem):
                    mode = rng.choices(("correct", "wrong", "runtime_error"), (5, 3, 2))[0]
                    stages = rng.randint(0, 4)
                    source = program_source(kind, param, stages, mode, f"{pid} candidate {ci}")
                    self.candidates.append(Candidate(pid, ci, mode, stages + 3))
                    codes.append(source)
                cand_rows.append({"problem_id": pid, "candidates": codes})
        _write_jsonl(self.dir / "test.jsonl", corpus)
        _write_jsonl(self.dir / "candidates.jsonl", cand_rows)
        self._write_config({"corpus": {"test": "test.jsonl"}, "ks": self.ks})

    def round(self, run: Runner) -> RoundResult:
        reset(self.cache, self.out)
        t = run(["evaluate", "--config", str(self.config),
                 "--candidates", str(self.dir / "candidates.jsonl")])
        return RoundResult([t], len(self.candidates), self.check(t))

    def check(self, t: Timed) -> set:
        everything = {(c.problem_id, c.index) for c in self.candidates}
        if t.exit_code != 0:
            return everything
        rows = {(r["problem_id"], r["candidate_index"]): r
                for r in _read_jsonl(self.out / "evaluate" / "records.jsonl")}
        failed = {(c.problem_id, c.index) for c in self.candidates
                  if not _check_record(rows.get((c.problem_id, c.index), {}), c,
                                       self.tests_per_problem)}
        report_path = self.out / "evaluate" / "report.json"
        table = json.loads(report_path.read_text())["pass_at_k"] if report_path.exists() else {}
        per_problem: dict[str, list[Candidate]] = {}
        for c in self.candidates:
            per_problem.setdefault(c.problem_id, []).append(c)
        groups = {d: [p for p in per_problem if self.difficulty[p] == d] for d in DIFFICULTIES}
        groups["all"] = list(per_problem)
        for label, pids in groups.items():
            for k in self.ks:
                want = sum(_pass_at_k(len(per_problem[p]), sum(c.passed for c in per_problem[p]), k)
                           for p in pids) / len(pids)
                got = table.get(label, {}).get(str(k))
                if got is None or abs(got - want) > 1e-9:
                    failed |= {(p, c.index) for p in pids for c in per_problem[p]}
        return failed


# --- transform-dedup ----------------------------------------------------------

def _words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(4, 9)))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _render(rng: random.Random, words: list[str], shout: bool = False) -> str:
    """Words as sentences; punctuation and case vanish under normalization."""
    sentences, i = [], 0
    while i < len(words):
        step = rng.randint(6, 12)
        chunk = " ".join(words[i:i + step])
        sentences.append(chunk.capitalize() + rng.choice(".?!;"))
        i += step
    text = "  ".join(sentences) if shout else " ".join(sentences)
    return text.upper() if shout else text


# Responses that break one structural marker each (two shapes per marker).
_BROKEN = {
    "m1_strategy_divergence": [
        "```python\nprint(0)\n```\n\n### STEP 1\n\ndef solve():\n    \"\"\"Solve it.\"\"\"\n\n"
        "### STEP 2\n\n```python\nprint(0)\n```\n",
        "### STEP 1\n\ndef solve():\n    \"\"\"Solve it.\"\"\"\n\n```python\nprint(0)\n```\n",
    ],
    "m2_no_submodules": [
        "### STEP 1\n\ndef solve(values):\n    \"\"\"Solve it.\"\"\"\n    return sum(values)\n\n"
        "### STEP 2\n\n```python\nprint(0)\n```\n",
        "### STEP 1\n\nNo helpers are needed.\n\n### STEP 2\n\n```python\nprint(0)\n```\n",
    ],
    "m3_main_code_count": [
        "### STEP 1\n\ndef solve():\n    \"\"\"Solve it.\"\"\"\n\n### STEP 2\n\n"
        "```python\nprint(0)\n```\n\n```python\nprint(1)\n```\n",
        "### STEP 1\n\ndef solve():\n    \"\"\"Solve it.\"\"\"\n\n### STEP 2\n\nprint(0)\n",
    ],
}


class TransformDedup(Workload):
    """``modeval transform`` with dedup against a holdout holding planted copies.

    Train problems carry no tests, so the sandbox does no work. Unplanted
    statements share at most their 10 common words with any holdout
    statement (Jaccard <= 10/80), planted near copies differ from their holdout in one
    word (Jaccard >= 44/46), so the expected removals are exact by
    construction.
    """

    name = "transform-dedup"
    train_size = 500
    holdout_size = 400
    exact_copies = 24
    near_copies = 24
    broken_per_marker = 6
    common_words = 60
    threshold = 0.9

    def prepare(self) -> None:
        rng = self.rng
        taken: set[str] = set()
        common = _words(rng, self.common_words, taken)
        holdout_words = []
        for _ in range(self.holdout_size):
            words = rng.sample(common, 10) + _words(rng, rng.randint(35, 50), taken)
            rng.shuffle(words)
            holdout_words.append(words)
        train_pool = _words(rng, 3000, taken)

        holdout = [{"id": f"ho{h:05d}", "question": _render(rng, words), "solutions": [],
                    "difficulty": rng.choice(DIFFICULTIES), "source": rng.choice(SOURCES)}
                   for h, words in enumerate(holdout_words)]

        planted_h = rng.sample(range(self.holdout_size), self.exact_copies + self.near_copies)
        copy_of: dict[int, tuple[int, str]] = {}
        slots = rng.sample(range(self.train_size), len(planted_h))
        for n, (slot, h) in enumerate(zip(slots, planted_h)):
            copy_of[slot] = (h, "exact" if n < self.exact_copies else "jaccard")

        self.removed: dict[str, tuple[str, str, float]] = {}
        self.kept: list[str] = []
        self.source: dict[str, str] = {}
        train, rules = [], []
        for t in range(self.train_size):
            pid = f"tr{t:05d}"
            if t in copy_of:
                h, reason = copy_of[t]
                words = list(holdout_words[h])
                if reason == "exact":
                    statement, sim = _render(rng, words, shout=True), 1.0
                else:
                    words[rng.randrange(len(words))] = rng.choice(train_pool)
                    statement = _render(rng, words)
                    a, b = set(words), set(holdout_words[h])
                    sim = len(a & b) / len(a | b)
                self.removed[pid] = (holdout[h]["id"], reason, round(sim, 6))
            else:
                words = rng.sample(common, 10) + rng.sample(train_pool, rng.randint(35, 50))
                rng.shuffle(words)
                statement = _render(rng, words)
                self.kept.append(pid)
            kind, param = _task(rng)
            source = rng.choice(SOURCES)
            self.source[pid] = source
            train.append({"id": pid, "question": statement,
                          "solutions": [program_source(kind, param, rng.randint(0, 2), "correct",
                                                       f"task {pid}")],
                          "difficulty": rng.choice(DIFFICULTIES), "source": source})

        self.broken: dict[str, str] = {}
        planted = rng.sample(self.kept, self.broken_per_marker * len(_BROKEN))
        for n, pid in enumerate(planted):
            marker = list(_BROKEN)[n % len(_BROKEN)]
            self.broken[pid] = marker
            rules.append({"tag": "mot", "contains": f"# task {pid}\n",
                          "response": _BROKEN[marker][n // len(_BROKEN) % 2]})

        _write_jsonl(self.dir / "train.jsonl", train)
        _write_jsonl(self.dir / "holdout.jsonl", holdout)
        (self.dir / "mock").mkdir()
        _write_jsonl(self.dir / "mock" / "rules.jsonl", rules)
        self._write_config({
            "corpus": {"train": "train.jsonl", "test": "holdout.jsonl"},
            "dedup_holdout_split": "test", "dedup_threshold": self.threshold,
            "data_types": ["mot", "clean"], "mock_provider": "mock",
        })

    def round(self, run: Runner) -> RoundResult:
        reset(self.cache, self.out)
        t = run(["transform", "--config", str(self.config)])
        return RoundResult([t], self.train_size, self.check(t))

    def expected_rates(self) -> dict[tuple[str, str], tuple[int, int, int]]:
        cells: dict[tuple[str, str], list[int]] = {}
        for pid in self.kept:
            for data_type in ("mot", "clean"):
                cell = cells.setdefault((self.source[pid], data_type), [0, 0])
                cell[0] += 1
                cell[1] += not (data_type == "mot" and pid in self.broken)
        # whole percent, half rounds up
        return {key: (pre, post, (200 * post + pre) // (2 * pre))
                for key, (pre, post) in cells.items()}

    def check(self, t: Timed) -> set:
        everything = set(self.kept) | set(self.removed)
        if t.exit_code != 0:
            return everything
        out = self.out / "transform"
        failed = set()

        report = {}
        path = out / "dedup_report.csv"
        if path.exists():
            with path.open(newline="") as fh:
                for row in csv.DictReader(fh):
                    report[row["train_id"]] = (row["holdout_id"], row["reason"],
                                               float(row["similarity"]))
        failed |= {pid for pid in set(report) | set(self.removed)
                   if report.get(pid) != self.removed.get(pid)}

        rejected = {(r["problem_id"], r["data_type"]): r["marker"]
                    for r in _read_jsonl(out / "rejected.jsonl")}
        want_rejected = {(pid, "mot"): marker for pid, marker in self.broken.items()}
        failed |= {key[0] for key in set(rejected) | set(want_rejected)
                   if rejected.get(key) != want_rejected.get(key)}

        for data_type in ("mot", "clean"):
            got = [r["problem_id"] for r in _read_jsonl(out / f"{data_type}.jsonl")]
            want = [pid for pid in self.kept if not (data_type == "mot" and pid in self.broken)]
            if got != want:
                failed |= set(got) ^ set(want) or set(want)

        rates = {}
        path = out / "filter_rates.csv"
        if path.exists():
            with path.open(newline="") as fh:
                for row in csv.DictReader(fh):
                    rates[(row["source"], row["data_type"])] = (
                        int(row["pre_count"]), int(row["post_count"]), int(row["rate_percent"]))
        want_rates = self.expected_rates()
        for source, _ in {k for k in set(rates) | set(want_rates)
                          if rates.get(k) != want_rates.get(k)}:
            failed |= {pid for pid in everything if self.source[pid] == source}
        return failed


# --- rerun-warm ---------------------------------------------------------------

RECORDS = "evaluate/records.jsonl"

class RerunWarm(Workload):
    """The whole pipeline rerun over warm response and verdict caches.

    Set-up is the cold pass (transform, evaluate, reflect, analyze) that
    fills both caches; each timed round reruns the four commands into a new
    output directory. Candidates are long modular programs so that
    ``codemetrics.analyze`` and cache reads, not the sandbox, dominate.
    """

    name = "rerun-warm"
    problems = 12
    candidates_per_problem = 3
    failing_problems = 5
    solved_by_reflection = 3
    rounds_cap = 3
    commands = ("transform", "evaluate", "reflect", "analyze")

    def prepare(self) -> None:
        rng = self.rng
        self.cold = self.dir / "cold"
        self.warm = self.dir / "warm"
        failing = set(rng.sample(range(self.problems), self.failing_problems))
        self.failing = {f"rw{p:03d}" for p in failing}
        corpus, cand_rows, rules = [], [], []
        self.candidates: list[Candidate] = []
        self.tests: dict[str, int] = {}
        self.planted: set[str] = set()
        for p in range(self.problems):
            pid = f"rw{p:03d}"
            kind, param = _task(rng)
            tests = 2 if rng.random() < 0.3 else 1
            self.tests[pid] = tests
            inputs, outputs = _tests(rng, kind, param, tests)
            corpus.append({
                "id": pid,
                "question": f"Task {pid}: read n and then n integers; "
                            f"{STATEMENT[kind].format(p=param)}.",
                "solutions": [program_source(kind, param, rng.randint(50, 80), "correct",
                                             f"{pid} reference")],
                "input_output": {"inputs": inputs, "outputs": outputs},
                "difficulty": DIFFICULTIES[p % len(DIFFICULTIES)], "source": rng.choice(SOURCES),
            })
            codes = []
            for ci in range(self.candidates_per_problem):
                if p in failing:
                    mode = rng.choice(("wrong", "runtime_error"))
                else:
                    mode = "correct" if ci == 0 else rng.choice(("correct", "wrong", "runtime_error"))
                stages = rng.randint(50, 80)
                source = program_source(kind, param, stages, mode, f"{pid} candidate {ci}")
                self.candidates.append(Candidate(pid, ci, mode, stages + 3))
                codes.append(source)
            cand_rows.append({"problem_id": pid, "candidates": codes})
            if p in failing and len(self.planted) < self.solved_by_reflection:
                self.planted.add(pid)
                fix = program_source(kind, param, 2, "correct", f"{pid} reflection fix")
                rules.append({"tag": "reflect", "contains": [f"Task {pid}:", "round 2 of 3"],
                              "response": f"```python\n{fix}```\n"})
        _write_jsonl(self.dir / "test.jsonl", corpus)
        _write_jsonl(self.dir / "candidates.jsonl", cand_rows)
        (self.dir / "mock").mkdir()
        _write_jsonl(self.dir / "mock" / "rules.jsonl", rules)
        self._write_config({
            "corpus": {"test": "test.jsonl"}, "transform_split": "test", "eval_split": "test",
            "data_types": ["mot"], "mock_provider": "mock", "ks": [1],
            "max_reflection_rounds": self.rounds_cap,
        })

    def _pass(self, run: Runner, outdir: Path) -> list[Timed]:
        timings = []
        for command in self.commands:
            argv = [command, "--config", str(self.config), "--outdir", str(outdir)]
            if command == "evaluate":
                argv += ["--candidates", str(self.dir / "candidates.jsonl")]
            timings.append(run(argv))
        return timings

    def setup(self, run: Runner, samples: int = 3) -> list[float]:
        """The cold pass that fills both caches; the last one is kept."""
        times = []
        for _ in range(samples):
            reset(self.cache, self.cold)
            times.append(sum(t.wall for t in self._pass(run, self.cold)))
        self.cold_outputs = _tree(self.cold)
        return times

    def traced_round(self, run: Runner) -> tuple[RoundResult, float]:
        """The cold pass, where the sandbox works, then one warm round."""
        cold = self.setup(run, samples=1)
        r, warm = super().traced_round(run)
        return r, cold[0] + warm

    def _cache_files(self) -> set[str]:
        return set(_tree(self.cache))

    def round(self, run: Runner) -> RoundResult:
        reset(self.warm)
        before = self._cache_files()
        timings = self._pass(run, self.warm)
        grew = self._cache_files() != before
        return RoundResult(timings, len(self.candidates), self.check(timings, grew))

    def check(self, timings: list[Timed], cache_grew: bool) -> set:
        everything = {(c.problem_id, c.index) for c in self.candidates}
        warm = _tree(self.warm)
        if (cache_grew or any(t.exit_code != 0 for t in timings)
                or set(warm) != set(self.cold_outputs)
                or any(warm[rel] != self.cold_outputs[rel] for rel in warm if rel != RECORDS)):
            return everything
        cold_lines = self.cold_outputs[RECORDS].decode().splitlines()
        warm_lines = warm[RECORDS].decode().splitlines()
        if len(cold_lines) != len(warm_lines):
            return everything
        failed, rows = set(), {}
        for cold_line, warm_line in zip(cold_lines, warm_lines):
            row = json.loads(warm_line)
            key = (row["problem_id"], row["candidate_index"])
            rows[key] = row
            if cold_line != warm_line:
                failed.add(key)
        for c in self.candidates:
            if not _check_record(rows.get((c.problem_id, c.index), {}), c, self.tests[c.problem_id]):
                failed.add((c.problem_id, c.index))
        # only all-failing problems are reflected on; the planted ones are
        # solved in the last round, the others use every round
        traces = {t["problem_id"]: t for t in _read_jsonl(self.warm / "reflect" / "traces.jsonl")}
        for pid in self.failing | set(traces):
            trace = traces.get(pid)
            want = self.rounds_cap - 1 if pid in self.planted else None
            if (trace is None or pid not in self.failing or trace["solved_at"] != want
                    or len(trace["rounds"]) != self.rounds_cap):
                failed |= {key for key in everything if key[0] == pid}
        return failed


WORKLOADS = {w.name: w for w in (JudgeCold, TransformDedup, RerunWarm)}
