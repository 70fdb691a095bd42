"""Spans around the public functions of each ``modeval`` layer.

``install()`` swaps timing wrappers into the modules, at the name each caller
looks up: ``cli`` imported ``load_corpus``, ``dedup_against`` and
``complete_batch`` by name, so those are replaced on ``modeval.cli``; the
rest are called through their module (``sandbox.judge``, ``promptgen.…``) or
through a global of their own module (``run_once`` from ``judge``,
``tokenize`` from ``analyze``), so they are replaced on the defining module.

A span is (name, start, end, parent, thread). The parent is the innermost
open span of the same thread; a span that opens on a pool thread with no open
span of its own takes the innermost open span of the thread that installed
the wrappers, which is blocked in the pool call that started it. Spans stay
in memory until ``write()``.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    value: float = 0.0  # per-span quantity: bytes analyzed, child wall, pairs, rounds
    hit: bool | None = None  # cache lookups: whether the lookup hit


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1

    def wrap(self, name: str, fn, measure=None):
        """``fn`` inside a span; ``measure(span, args, kwargs, result)`` fills it."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else (rec._main_stack[-1] if rec._main_stack else None)
            span = Span(name, 0.0, 0.0, parent, threading.get_ident())
            with rec._lock:
                rec.spans.append(span)
                index = len(rec.spans) - 1
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if measure is not None:
                measure(span, args, kwargs, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "thread": span.thread,
                }) + "\n")


def _set(span: Span, value: float) -> None:
    span.value = value


def install(rec: Recorder):
    """Wrap every traced function; returns a function that restores them."""
    from modeval import cli, codemetrics, evaluate, llm_client, promptgen, sandbox, validator

    def counting(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.count(name)
            return fn(*args, **kwargs)
        return wrapper

    patches = [
        (cli, "load_corpus", "corpus.load", None),
        (cli, "dedup_against", "corpus.dedup",
         lambda s, a, k, r: _set(s, len(a[0]) * len(a[1]))),
        (promptgen, "build_mot_prompt", "promptgen.build", None),
        (promptgen, "build_clean_prompt", "promptgen.build", None),
        (promptgen, "build_direct_prompt", "promptgen.build", None),
        (promptgen, "build_reflection_prompt", "promptgen.build", None),
        (promptgen, "parse_mot_response", "promptgen.parse", None),
        (promptgen, "parse_code_response", "promptgen.parse", None),
        (cli, "complete_batch", "llm_client.complete_batch", None),
        (llm_client, "complete", "llm_client.complete", None),
        (llm_client.ResponseCache, "get", "llm_client.response_cache",
         lambda s, a, k, r: setattr(s, "hit", r is not None)),
        (llm_client.ResponseCache, "put", "llm_client.response_cache", None),
        (validator, "assess_structure", "validator.assess_structure", None),
        (sandbox, "run_once", "sandbox.run_once", lambda s, a, k, r: _set(s, r.wall_time_used)),
        (sandbox, "judge", "sandbox.judge", None),
        (sandbox, "judge_batch", "sandbox.judge_batch", None),
        (sandbox, "compare_output", "sandbox.compare_output", None),
        (sandbox.VerdictCache, "judge", "sandbox.verdict_cache", None),
        (codemetrics, "analyze", "codemetrics.analyze",
         lambda s, a, k, r: _set(s, len(a[0].encode("utf-8")))),
        (evaluate, "evaluate_corpus", "evaluate.evaluate_corpus", None),
        (evaluate, "self_reflect", "evaluate.self_reflect", lambda s, a, k, r: _set(s, len(r.rounds))),
        (cli, "cmd_transform", "cli.transform", None),
        (cli, "cmd_evaluate", "cli.evaluate", None),
        (cli, "cmd_reflect", "cli.reflect", None),
        (cli, "cmd_analyze", "cli.analyze", None),
    ]
    originals = []
    for owner, attr, name, measure in patches:
        fn = owner.__dict__[attr]
        originals.append((owner, attr, fn))
        setattr(owner, attr, rec.wrap(name, fn, measure))
    originals.append((codemetrics, "tokenize", codemetrics.tokenize))
    codemetrics.tokenize = counting(codemetrics.tokenize, "codemetrics.tokenize")

    def restore() -> None:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)

    return restore


# --- per-layer metrics --------------------------------------------------------

def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _overlap(span: Span, windows: list[Span]) -> float:
    return sum(max(0.0, min(span.end, w.end) - max(span.start, w.start)) for w in windows)


PER_LAYER_UNITS = {
    "corpus.load.ms": "ms",
    "corpus.dedup.ms": "ms",
    "corpus.dedup.pairs_per_s": "1/s",
    "promptgen.build.ms": "ms",
    "promptgen.parse.ms": "ms",
    "llm_client.complete.calls": "count",
    "llm_client.complete.ms": "ms",
    "llm_client.response_cache.hits": "count",
    "llm_client.response_cache.misses": "count",
    "llm_client.response_cache.ms": "ms",
    "validator.assess_structure.ms": "ms",
    "sandbox.run_once.calls": "count",
    "sandbox.run_once.ms": "ms",
    "sandbox.run_once.child_ms": "ms",
    "sandbox.run_once.overhead_ms_per_run": "ms",
    "sandbox.empty_run_ms": "ms",
    "sandbox.judge_batch.concurrency": "ratio",
    "sandbox.compare_output.ms": "ms",
    "sandbox.verdict_cache.hits": "count",
    "sandbox.verdict_cache.misses": "count",
    "codemetrics.analyze.calls": "count",
    "codemetrics.analyze.ms": "ms",
    "codemetrics.analyze.kb_per_s": "KB/s",
    "codemetrics.tokenize.per_analyze": "count",
    "evaluate.evaluate_corpus.ms": "ms",
    "evaluate.self_reflect.ms": "ms",
    "evaluate.self_reflect.rounds": "count",
    "cli.transform.self_ms": "ms",
    "cli.evaluate.self_ms": "ms",
    "cli.reflect.self_ms": "ms",
    "cli.analyze.self_ms": "ms",
}


def per_layer(rec: Recorder, empty_runs: list[float]) -> dict[str, float]:
    """Every per-layer metric from the recorded spans (0 where a layer idled).

    ``empty_runs`` are wall times, in seconds, of ``run_once`` on an empty
    program, measured outside the traced round.
    """
    by_name: dict[str, list[Span]] = {}
    for span in rec.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(name: str) -> list[Span]:
        return by_name.get(name, [])

    def ms(name: str) -> float:
        return 1000.0 * sum(s.end - s.start for s in spans(name))

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    runs = spans("sandbox.run_once")
    child_ms = 1000.0 * sum(s.value for s in runs)
    lookups = [s for s in spans("llm_client.response_cache") if s.hit is not None]
    judged_under = {s.parent for s in spans("sandbox.judge")}
    verdicts = spans("sandbox.verdict_cache")
    verdict_misses = sum(1 for i, s in enumerate(rec.spans)
                         if s.name == "sandbox.verdict_cache" and i in judged_under)
    analyses = spans("codemetrics.analyze")
    batches = spans("sandbox.judge_batch")
    metrics = {
        "corpus.load.ms": ms("corpus.load"),
        "corpus.dedup.ms": ms("corpus.dedup"),
        "corpus.dedup.pairs_per_s": per(sum(s.value for s in spans("corpus.dedup")),
                                        ms("corpus.dedup") / 1000.0),
        "promptgen.build.ms": ms("promptgen.build"),
        "promptgen.parse.ms": ms("promptgen.parse"),
        "llm_client.complete.calls": len(spans("llm_client.complete")),
        "llm_client.complete.ms": ms("llm_client.complete"),
        "llm_client.response_cache.hits": sum(1 for s in lookups if s.hit),
        "llm_client.response_cache.misses": sum(1 for s in lookups if not s.hit),
        "llm_client.response_cache.ms": ms("llm_client.response_cache"),
        "validator.assess_structure.ms": ms("validator.assess_structure"),
        "sandbox.run_once.calls": len(runs),
        "sandbox.run_once.ms": ms("sandbox.run_once"),
        "sandbox.run_once.child_ms": child_ms,
        "sandbox.run_once.overhead_ms_per_run": per(ms("sandbox.run_once") - child_ms, len(runs)),
        "sandbox.empty_run_ms": 1000.0 * statistics.median(empty_runs),
        "sandbox.judge_batch.concurrency": per(
            sum(_overlap(s, batches) for s in spans("sandbox.judge")),
            sum(s.end - s.start for s in batches)),
        "sandbox.compare_output.ms": ms("sandbox.compare_output"),
        "sandbox.verdict_cache.hits": len(verdicts) - verdict_misses,
        "sandbox.verdict_cache.misses": verdict_misses,
        "codemetrics.analyze.calls": len(analyses),
        "codemetrics.analyze.ms": ms("codemetrics.analyze"),
        "codemetrics.analyze.kb_per_s": per(sum(s.value for s in analyses) / 1024.0,
                                            ms("codemetrics.analyze") / 1000.0),
        "codemetrics.tokenize.per_analyze": per(rec.counts.get("codemetrics.tokenize", 0),
                                                len(analyses)),
        "evaluate.evaluate_corpus.ms": ms("evaluate.evaluate_corpus"),
        "evaluate.self_reflect.ms": ms("evaluate.self_reflect"),
        "evaluate.self_reflect.rounds": sum(s.value for s in spans("evaluate.self_reflect")),
    }
    for command in ("transform", "evaluate", "reflect", "analyze"):
        total = 0.0
        for i, span in enumerate(rec.spans):
            if span.name != f"cli.{command}":
                continue
            children = [(max(c.start, span.start), min(c.end, span.end))
                        for c in rec.spans if c.parent == i]
            total += (span.end - span.start) - _union(children)
        metrics[f"cli.{command}.self_ms"] = 1000.0 * total
    return metrics
