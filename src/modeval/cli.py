"""Command-line pipeline driver.

Subcommands: ``transform`` (build modular / clean rewrites and filter them),
``evaluate`` (judge candidate programs and compute pass@k plus metrics),
``reflect`` (rerun failed problems through the self-reflection loop),
``analyze`` (emit the function-count / resource / maintainability CSV
profiles), and ``stats`` (corpus summary).

One JSON config file drives everything; command-line flags win over config
values.  All outputs land under ``<outdir>/<command>/`` with a manifest
recording the config hash, and reruns with a warm cache are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from . import __version__
from .corpus import (
    Corpus,
    CorpusError,
    EntryLog,
    Problem,
    Split,
    corpus_stats,
    decode,
    dedup_against,
    load_corpus,
    map_in_threads,
    read_jsonl,
)
from .llm_client import HttpProvider, MockProvider, ProviderError, ResponseCache, complete_batch
from .settings import InfrastructureError, PipelineConfig, check_judged

if TYPE_CHECKING:  # each command imports the layers it runs when it runs
    from .evaluate import CandidateRow
    from .sandbox import Judge


class ConfigError(Exception):
    pass


def load_pipeline_config(config_path: str | Path, flags: argparse.Namespace) -> PipelineConfig:
    """The config file's object with each flag of ``flags`` stored under the config key
    it sets, checked once; a relative path from the file is resolved against its
    directory, and one from a flag against the cwd."""
    config_path = Path(config_path)
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {config_path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {config_path} must be a JSON object")
    given = {f.name: getattr(flags, f.name) for f in fields(PipelineConfig) if hasattr(flags, f.name)}
    try:  # a null section means its defaults
        cfg = decode(PipelineConfig, {key: value for key, value in raw.items() if value is not None
                                      or key not in ("corpus", "provider", "limits", "compare")} | given,
                     "config")
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    # a path from the file joins the config's directory (an absolute one stays as it is)
    base = config_path.parent
    cfg.corpus = {split: str(base / path) for split, path in cfg.corpus.items() if path}
    for key in ("outdir", "cache_dir", "mock_provider"):
        if key not in given and (getattr(cfg, key) or key == "outdir"):
            setattr(cfg, key, str(base / getattr(cfg, key)))
    cfg.raw = raw
    for split, path in cfg.corpus.items():
        if not Path(path).exists():
            raise ConfigError(f"corpus path for split {split.value!r} does not exist: {path}")
    if cfg.mock_provider and not Path(cfg.mock_provider).is_dir():
        raise ConfigError(f"mock provider fixture dir does not exist: {cfg.mock_provider}")
    return cfg


def _make_provider(cfg: PipelineConfig):
    if cfg.mock_provider:
        try:
            return MockProvider(fixture_dir=cfg.mock_provider)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return HttpProvider()


def _cache(cfg: PipelineConfig, kind, name: str):
    """A ``kind`` cache under ``<cache_dir>/<name>``, or None when caching is off."""
    return kind(Path(cfg.cache_dir) / name) if cfg.cache_dir else None


def _judge(cfg: PipelineConfig) -> Judge:
    """The judge every sandbox run of a command goes through."""
    from .sandbox import Judge, VerdictCache

    return Judge(
        limits=cfg.limits, policy=cfg.compare, runner=cfg.runner, fail_fast=cfg.fail_fast,
        keep_scratch=cfg.keep_scratch, cache=_cache(cfg, VerdictCache, "verdicts"),
    )


def _outdir(cfg: PipelineConfig, command: str) -> Path:
    out = Path(cfg.outdir) / command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, cfg: PipelineConfig) -> None:
    manifest = {
        "command": command,
        "config_hash": EntryLog.key(cfg.raw),
        "version": __version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _corpus_for(cfg: PipelineConfig, split: str) -> Corpus:
    if split not in cfg.corpus:
        raise ConfigError(f"no corpus configured for split {split!r}")
    return load_corpus(cfg.corpus[split], Split(split))


# --- transform ---------------------------------------------------------------


def cmd_transform(cfg: PipelineConfig) -> int:
    from . import promptgen, validator
    from .validator import AssessmentResult, FilterRecord

    corpus = _corpus_for(cfg, cfg.transform_split)
    provider = _make_provider(cfg)
    rcache = _cache(cfg, ResponseCache, "responses")
    out = _outdir(cfg, "transform")

    if cfg.dedup_holdout_split:  # the holdout corpus is released once dedup has read it
        corpus, removed = dedup_against(corpus, _corpus_for(cfg, cfg.dedup_holdout_split),
                                        cfg.dedup_threshold)
        _write_csv(
            out / "dedup_report.csv",
            ["train_id", "holdout_id", "similarity", "reason"],
            [[r.train_id, r.holdout_id, round(r.similarity, 6), r.reason] for r in removed],
        )
        print(f"dedup against {cfg.dedup_holdout_split}: "
              f"removed {len(removed)}, kept {len(corpus)}")

    items: list[tuple[Problem, int, str, str]] = []
    for problem in corpus:
        for si, solution in enumerate(problem.solutions[:cfg.solution_cap]):
            if not solution:  # no prompt can be built from it: stop before any completion
                raise CorpusError(f"problem {problem.id!r}: solution {si} is empty")
            for data_type in cfg.data_types:
                items.append((problem, si, solution, data_type))
    # only a corpus with tests loads the sandbox, before any completion (later raises peak RSS)
    judge = _judge(cfg) if any(not p.untestable for p in corpus) else None

    def build(item) -> promptgen.Prompt:
        """Run in the worker that sends the prompt, so it lives only while in flight."""
        problem, _, solution, data_type = item
        if data_type == "mot":
            return promptgen.build_mot_prompt(problem, solution)
        return promptgen.build_clean_prompt(problem, solution)

    def structural_pass(prompt, result) -> tuple:
        """Run in the completion's worker, so only what it returns outlives the response."""
        if isinstance(result, ProviderError):
            return None, None, [], str(result)
        if prompt.tag is not promptgen.PromptTag.MOT:
            return (*validator.assess_clean(result.text), [], None)
        assessment, parsed = validator.assess_structure(result.text)
        final_code = parsed.final_code if parsed else None
        outline = [vars(s).copy() for s in parsed.outline] if parsed else []
        return assessment, final_code, outline, None

    checks = complete_batch(items, cfg.provider, provider=provider, cache=rcache,
                            build=build, then=structural_pass)

    # m4 judges, in item order, the final code m1-m3 accepted where the problem has tests
    tasks = [(final_code, problem) for (problem, *_), (_, final_code, *_) in zip(items, checks)
             if final_code is not None and not problem.untestable]
    verdicts = iter(())
    if tasks:  # so the corpus has tests and there is a judge
        from .sandbox import judge_batch
        verdicts = iter(judge_batch(tasks, judge, workers=cfg.workers))

    records: list[FilterRecord] = []
    accepted_rows: dict[str, list[dict]] = {"mot": [], "clean": []}
    rejected_rows: list[dict] = []
    for (problem, si, _, data_type), (assessment, final_code, outline, err) in zip(items, checks):
        if final_code is not None:
            assessment = (AssessmentResult(detail="functional check skipped (untestable)")
                          if problem.untestable else validator.assess_verdict(next(verdicts)))
        if err is None:
            records.append(FilterRecord(problem.id, problem.source, data_type, assessment))
        if err is None and assessment.accepted:
            row = {
                "problem_id": problem.id,
                "source": problem.source,
                "difficulty": problem.difficulty.value,
                "split": problem.split.value,
                "data_type": data_type,
                "solution_index": si,
                "final_code": final_code,
            }
            if data_type == "mot":
                row["outline"] = outline
            accepted_rows[data_type].append(row)
        else:
            rejected_rows.append({
                "problem_id": problem.id, "data_type": data_type, "solution_index": si,
                "marker": None if err is not None else assessment.marker.value,
                "detail": f"provider error: {err}" if err is not None else assessment.detail,
            })

    for data_type in cfg.data_types:
        _write_jsonl(out / f"{data_type}.jsonl", accepted_rows[data_type])
    _write_jsonl(out / "rejected.jsonl", rejected_rows)
    _write_jsonl(
        out / "filter_records.jsonl",
        [
            {
                "problem_id": r.problem_id, "source": r.source, "data_type": r.data_type,
                "verdict": "accept" if r.result.accepted else "reject",
                "marker": r.result.marker.value if r.result.marker else None,
                "detail": r.result.detail,
            }
            for r in records
        ],
    )
    table = validator.filter_pass_rate(records)
    _write_csv(
        out / "filter_rates.csv",
        ["source", "data_type", "pre_count", "post_count", "rate_percent"],
        [
            [source, data_type, row.pre_count, row.post_count, row.rate_percent]
            for (source, data_type), row in table.items()
        ],
    )
    _write_manifest(out, "transform", cfg)
    for line in validator.rate_table_lines(table):
        print(line)
    return 0


# --- evaluate ----------------------------------------------------------------


def _read_or_fail(path: Path, what: str, parse) -> list:
    """``read_jsonl(path, parse)``'s values; its first diagnostic, or a file it
    cannot read, is a ConfigError."""
    try:
        values, diagnostics = read_jsonl(path, parse)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read {what}: {exc.strerror or exc}") from exc
    if diagnostics:
        bad = diagnostics[0]
        raise ConfigError(f"{path}: malformed {what} line {bad.line_number}: {bad.reason}")
    return values


def _load_candidates(path: Path) -> list[tuple[str, list[str]]]:
    """Candidate programs per problem, file order, from a candidates JSONL.

    Accepts ``{"problem_id", "candidates": [code, ...]}`` lines and transform
    output lines (``{"problem_id", "final_code": code}``) interchangeably.
    """
    if not path.exists():
        raise ConfigError(f"candidates file does not exist: {path}")

    def parse(lineno: int, obj) -> tuple[str, list[str]]:
        return decode(str, obj["problem_id"], "problem_id"), (
            decode(list[str], obj["candidates"], "candidates") if "candidates" in obj
            else [decode(str, obj["final_code"], "final_code")])

    grouped: dict[str, list[str]] = {}
    for pid, codes in _read_or_fail(path, "candidates", parse):
        grouped.setdefault(pid, []).extend(codes)
    return list(grouped.items())


def _build_rows(
    cfg: PipelineConfig,
    corpus: Corpus,
    candidates: list[tuple[str, list[str]]],
    judge: Judge,
) -> list[CandidateRow]:
    from . import codemetrics, sandbox
    from .evaluate import CandidateRow

    unknown = sorted({pid for pid, _ in candidates if pid not in corpus})
    if unknown:
        raise ConfigError(f"candidates reference unknown problem ids: {', '.join(unknown)}")

    judged: list[tuple[Problem, int, str]] = []
    for pid, codes in candidates:
        problem = corpus.get(pid)
        if problem.untestable:
            print(f"skipping untestable problem {pid}")
            continue
        judged.extend((problem, index, code) for index, code in enumerate(codes))

    verdicts = sandbox.judge_batch(
        [(code, problem) for problem, _, code in judged], judge, workers=cfg.workers
    )
    metrics = _cache(cfg, codemetrics.MetricsCache, "metrics")
    measure = metrics.analyze if metrics else codemetrics.analyze
    return [
        CandidateRow.judged(problem, index, verdict, measure(
            code, top_level_functions_only=cfg.top_level_functions_only
        ))
        for (problem, index, code), verdict in zip(judged, verdicts)
    ]


def cmd_evaluate(cfg: PipelineConfig, candidates_path: str) -> int:
    from . import evaluate

    corpus = _corpus_for(cfg, cfg.eval_split)
    out = _outdir(cfg, "evaluate")

    candidates = _load_candidates(Path(candidates_path))
    rows = _build_rows(cfg, corpus, candidates, _judge(cfg))
    try:
        report = evaluate.evaluate_corpus(rows, cfg.ks, all_mode=cfg.all_mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    # string pass@k keys, so they sort as strings ("1", "10", "2")
    report_json = dict(asdict(report), pass_at_k={
        label: {str(k): v for k, v in rates.items()} for label, rates in report.pass_at_k.items()
    })
    (out / "report.json").write_text(
        json.dumps(report_json, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    _write_csv(
        out / "pass_at_k.csv",
        ["difficulty", "k", "pass_at_k"],
        [
            [label, k, rate]
            for label, rates in report.pass_at_k.items()
            for k, rate in sorted(rates.items())
        ],
    )
    # wide companion table: one row per k, one column per difficulty level
    labels = list(report.pass_at_k)
    _write_csv(
        out / "pass_at_k_table.csv",
        ["k"] + labels,
        [
            [k] + [report.pass_at_k[label].get(k, "") for label in labels]
            for k in cfg.ks
        ],
    )
    _write_jsonl(out / "records.jsonl", [asdict(row) for row in rows])
    _write_manifest(out, "evaluate", cfg)

    for label, rates in report.pass_at_k.items():
        for k, rate in sorted(rates.items()):
            print(f"pass@{k} {label:<14} {rate:.4f}")
    return 0


# --- reflect -----------------------------------------------------------------


def _load_rows(path: Path, corpus: Corpus) -> list[CandidateRow]:
    """The candidate rows of an evaluate ``records.jsonl``, checked against ``corpus``."""
    from .codemetrics import _metrics_from_json
    from .evaluate import CandidateRow

    if not path.exists():
        raise ConfigError(f"evaluate records not found: {path} (run evaluate first)")

    def parse(lineno: int, obj) -> CandidateRow:
        written = decode(dict, obj, "row")
        stated = [written.pop("passed"), written.pop("first_failure")]  # KeyError when missing
        written["metrics"] = _metrics_from_json(written["metrics"])  # only as analyze returns them
        row = decode(CandidateRow, written, "row")
        computed = [row.passed, row.first_failure]
        if [(type(v), v) for v in stated] != [(type(v), v) for v in computed]:  # 1 is not True
            raise ValueError(f"row.passed and row.first_failure are {stated}, "
                             f"where row.matched gives {computed}")
        problem = corpus.get(row.problem_id)
        if problem is None:  # reported below, with the other unknown ids
            return row
        expected = [problem.difficulty.value, problem.split.value]
        if [row.difficulty, row.split] != expected:
            raise ValueError(f"row.difficulty and row.split are {[row.difficulty, row.split]}, "
                             f"where problem {row.problem_id!r} is {expected}")
        check_judged(row.matched, row.statuses, [row.avg_time, row.avg_peak_memory],
                     len(problem.tests), fail_fast=None)  # a line does not record fail_fast
        return row

    rows = _read_or_fail(path, "records", parse)
    unknown = sorted({row.problem_id for row in rows if row.problem_id not in corpus})
    if unknown:
        raise ConfigError(f"records reference unknown problem ids: {', '.join(unknown)}")
    return rows


def cmd_reflect(cfg: PipelineConfig) -> int:
    from . import evaluate

    corpus = _corpus_for(cfg, cfg.eval_split)
    problems = evaluate.by_problem(
        _load_rows(Path(cfg.outdir) / "evaluate" / "records.jsonl", corpus)
    )
    out = _outdir(cfg, "reflect")

    failed = [pid for pid, prows in problems.items() if not any(r.passed for r in prows)]

    provider = _make_provider(cfg)
    rcache, judge = _cache(cfg, ResponseCache, "responses"), _judge(cfg)

    def reflect_one(pid: str) -> evaluate.ReflectionTrace:
        return evaluate.self_reflect(
            corpus.get(pid), cfg.provider, judge, cfg.max_reflection_rounds,
            provider=provider, cache=rcache,
        )

    # a loop alternates completions and judging, so the loops at once are capped by both
    traces = map_in_threads(reflect_one, failed, min(cfg.workers, cfg.provider.max_inflight))

    _write_jsonl(
        out / "traces.jsonl",
        [
            {
                "problem_id": t.problem_id,
                "solved_at": t.solved_at,
                "error": t.error,
                "rounds": [
                    {
                        "round": i,
                        "passed": r.verdict.passed,
                        "first_failure": r.verdict.first_failure,
                        "attempt": r.attempt,
                    }
                    for i, r in enumerate(t.rounds)
                ],
            }
            for t in traces
        ],
    )

    solved = {t.problem_id for t in traces if t.solved}
    before = {pid: sum(r.passed for r in prows) / len(prows) for pid, prows in problems.items()}
    groups = evaluate.by_difficulty([(prows[0].difficulty, pid) for pid, prows in problems.items()])
    comparison_rows = [
        [label, len(pids),
         round(evaluate._mean([before[pid] for pid in pids]), 6),
         round(evaluate._mean([1.0 if pid in solved else before[pid] for pid in pids]), 6)]
        for label, pids in groups.items() if pids
    ]
    _write_csv(
        out / "comparison.csv",
        ["difficulty", "problems", "pass_at_1_before", "pass_at_1_after"],
        comparison_rows,
    )
    _write_manifest(out, "reflect", cfg)
    print(f"reflected on {len(failed)} failed problems, solved {len(solved)}")
    return 0


# --- analyze -----------------------------------------------------------------


def cmd_analyze(cfg: PipelineConfig, records_path: str | None = None) -> int:
    from . import evaluate

    path = Path(records_path) if records_path else Path(cfg.outdir) / "evaluate" / "records.jsonl"
    rows = _load_rows(path, _corpus_for(cfg, cfg.eval_split))
    out = _outdir(cfg, "analyze")

    profile = evaluate.function_accuracy_profile(rows)
    resources = evaluate.resource_profile(rows)
    mi = evaluate.mi_profile(rows)

    _write_csv(
        out / "function_profile.csv",
        ["difficulty", "function_bin", "count", "accuracy"],
        [
            [label, b, stat.count, stat.accuracy]
            for label, bins in profile.items()
            for b, stat in bins.items()
        ],
    )
    _write_csv(
        out / "resource_profile.csv",
        ["difficulty", "passed_count", "avg_time_seconds", "avg_peak_memory_bytes"],
        [
            [label, avg.passed_count if avg else 0,
             avg.avg_time if avg else "", avg.avg_peak_memory if avg else ""]
            for label, avg in resources.items()
        ],
    )
    mi_rows = [["difficulty", label, "" if value is None else value]
               for label, value in mi.by_difficulty.items()]
    mi_rows += [["split", label, "" if value is None else value]
                for label, value in mi.by_split.items()]
    _write_csv(out / "mi_profile.csv", ["group", "label", "mean_maintainability"], mi_rows)
    _write_manifest(out, "analyze", cfg)
    print(f"analysis profiles written to {out}")
    return 0


# --- stats -------------------------------------------------------------------


def cmd_stats(cfg: PipelineConfig) -> int:
    if not cfg.corpus:
        raise ConfigError("no corpus paths configured")
    out = _outdir(cfg, "stats")
    summary: dict[str, dict] = {}
    csv_rows: list[list] = []
    for split in sorted(split.value for split in cfg.corpus):
        corpus = _corpus_for(cfg, split)
        stats = corpus_stats(corpus)
        summary[split] = {
            "total_problems": stats.total_problems,
            "by_source": stats.by_source,
            "by_difficulty": stats.by_difficulty,
            "untestable": stats.untestable_count,
            "total_solutions": stats.total_solutions,
            "total_tests": stats.total_tests,
            "skipped_lines": len(corpus.diagnostics),
        }
        for (source, difficulty, _), count in sorted(stats.by_source_difficulty_split.items()):
            csv_rows.append([split, source, difficulty, count])
        print(
            f"{split}: {stats.total_problems} problems, "
            f"{stats.total_solutions} solutions, {stats.untestable_count} untestable"
        )
    (out / "stats.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    _write_csv(out / "stats.csv", ["split", "source", "difficulty", "count"], csv_rows)
    _write_manifest(out, "stats", cfg)
    return 0


# --- entry point -------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    """The flags every command takes; each is stored under the config key it sets,
    and only when given, so that it wins over the file's value."""
    parser.add_argument("--config", required=True, help="pipeline config JSON")
    parser.add_argument("--outdir", help="output directory (overrides config)")
    parser.add_argument("--workers", type=int, help="worker count (overrides config)")
    parser.add_argument("--mock-provider", help="mock provider fixture directory")
    parser.add_argument("--runner", help='candidate runner command, e.g. "python3 {file}"')
    parser.add_argument("--keep-scratch", action="store_true", help="keep run scratch dirs")
    parser.add_argument("--no-cache", dest="cache_dir", action="store_const", const=None,
                        help="bypass the response, verdict and metrics caches")
    parser.add_argument("--per-level-mean", dest="all_mode", action="store_const",
                        const="difficulty-means",
                        help='aggregate the "all" row as the mean of difficulty means')
    parser.add_argument("--top-level-only", dest="top_level_functions_only", action="store_true",
                        help="count only top-level functions in the metrics")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="modeval",
        description="Modular-code transformation and evaluation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("transform", "evaluate", "reflect", "analyze", "stats"):
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        _add_common(p)
        if name == "evaluate":
            p.add_argument("--candidates", required=True, help="candidates JSONL file")
        if name == "analyze":
            p.add_argument("--records", default=None, help="records JSONL (default: <outdir>/evaluate/records.jsonl)")

    args = parser.parse_args(argv)
    try:
        cfg = load_pipeline_config(args.config, args)
        if args.command == "transform":
            return cmd_transform(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.candidates)
        if args.command == "reflect":
            return cmd_reflect(cfg)
        if args.command == "analyze":
            return cmd_analyze(cfg, args.records)
        if args.command == "stats":
            return cmd_stats(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, CorpusError, InfrastructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> NoReturn:
    """The process entry of the ``modeval`` script and of ``python -m modeval.cli``:
    ``main()``, then exit with its status without collecting the heap.

    ``gc.freeze()`` moves every object to the permanent generation, which the
    collections of interpreter finalization skip, so the exit does not walk
    the reference cycles of every loaded module.  Finalization still runs the
    atexit functions (the sandbox's broker shutdown, each cache log's fd
    close) and flushes stdout and stderr; only cyclic garbage is left to the
    OS.  No modeval object has a ``__del__`` in a cycle, and every output file
    is closed before ``main`` returns.  ``main`` called in process keeps its
    collections.
    """
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    console_main()
