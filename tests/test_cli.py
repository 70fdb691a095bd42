import argparse
import csv
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest

from modeval import cli, promptgen
from modeval.cli import main
from modeval.codemetrics import CodeMetrics
from modeval.llm_client import MockProvider
from modeval.settings import ComparePolicy, ProviderConfig, ResourceLimits

from conftest import FIXTURES, cache_entries, count_analyze_calls, loaded_modules, make_problem


def write_config(tmp_path, **overrides):
    config = {
        "corpus": {
            "train": str(FIXTURES / "corpus10.jsonl"),
            "test": str(FIXTURES / "corpus10.jsonl"),
        },
        "provider": {"model_name": "mock-model", "max_inflight": 2,
                     "retry_limit": 1, "retry_backoff": 0.001},
        "limits": {"wall_time": 2.0, "memory": 268435456, "output_cap": 1048576},
        "compare": {"mode": "token", "float_tolerance": 1e-6},
        "ks": [1],
        "max_reflection_rounds": 5,
        "workers": 2,
        "outdir": str(tmp_path / "out"),
        "cache_dir": str(tmp_path / "cache"),
        "mock_provider": str(FIXTURES / "e2e" / "mock"),
        "fail_fast": True,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").split("\n") if line.strip()]


def read_csv(path):
    with path.open() as fh:
        return list(csv.reader(fh))


class TestConfig:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["stats", "--config", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["stats", "--config", str(path)]) == 1

    def test_missing_corpus_path(self, tmp_path):
        config = write_config(tmp_path, corpus={"train": str(tmp_path / "missing.jsonl")})
        assert main(["stats", "--config", str(config)]) == 1

    def test_bad_data_type(self, tmp_path):
        config = write_config(tmp_path, data_types=["mot", "weird"])
        assert main(["stats", "--config", str(config)]) == 1

    @pytest.mark.parametrize("flags, overrides", [
        (["--workers", "0"], {}),
        ([], {"workers": "2"}),
    ], ids=["flag_zero", "config_string"])
    def test_bad_workers_is_config_error(self, tmp_path, capsys, flags, overrides):
        config = write_config(tmp_path, **overrides)
        assert main(["stats", "--config", str(config), *flags]) == 1
        assert "workers must be" in capsys.readouterr().err

    @pytest.mark.parametrize("config, named", [
        ([], "JSON object"),
        ({"corpus": ["x"]}, "corpus"),
        ({"corpus": {"train": 5}}, "corpus"),
        ({"solution_cap": "3"}, "solution_cap"),
        ({"dedup_threshold": "0.5"}, "dedup_threshold"),
        ({"workers": True}, "workers"),
        ({"ks": "1"}, "ks"),
        ({"data_types": "mot"}, "data_types"),
        ({"compare": {"mode": "fuzzy"}}, "mode"),
        ({"limits": {"memory": 268435456.5}}, "memory"),
        ({"limits": {"wall_time": True}}, "wall_time"),
        ({"provider": {"model_name": 5}}, "model_name"),
        ({"provider": {"max_inflight": 2.5}}, "max_inflight"),
        ({"compare": {"float_tolerance": "x"}}, "float_tolerance"),
        ({"fail_fsat": True}, "fail_fsat"),
        ({"use_cache": False, "corpus_paths": {}, "raw": {}}, "['corpus_paths', 'raw', 'use_cache']"),
        ({"limits": False}, "limits"),
    ], ids=["root_list", "corpus_list", "corpus_path_int", "solution_cap_string",
            "dedup_threshold_string", "workers_bool", "ks_string", "data_types_string",
            "compare_mode_unknown", "memory_float", "wall_time_bool", "model_name_int",
            "max_inflight_float", "float_tolerance_string", "unknown_key", "loader_owned_key",
            "section_false"])
    def test_mistyped_value_is_config_error(self, tmp_path, capsys, config, named):
        if isinstance(config, dict):
            path = write_config(tmp_path, **config)
        else:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
        for command in ("stats", "transform"):
            assert main([command, "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("config, named, command", [
        ({"solution_cap": 0}, "solution_cap", "transform"),
        ({"dedup_threshold": 1.5, "dedup_holdout_split": "test"}, "dedup_threshold", "transform"),
        ({"max_reflection_rounds": 0}, "max_reflection_rounds", "reflect"),
        ({"data_types": ["mot", "mot"]}, "data_types", "transform"),
        ({"ks": [2, 0]}, "ks", "stats"),
        ({"all_mode": "median"}, "all_mode", "stats"),
    ], ids=["solution_cap_zero", "dedup_threshold_above_one", "max_reflection_rounds_zero",
            "data_types_repeated", "ks_zero", "all_mode_unknown"])
    def test_out_of_range_value_is_config_error(self, tmp_path, capsys, config, named, command):
        if command == "reflect":
            run_evaluate(tmp_path, write_config(tmp_path))
        path = write_config(tmp_path, **config)
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("rules", [
        "{not json",
        "[1, 2]",
        json.dumps({"contains": "", "response_file": "missing.txt"}),
        json.dumps({"contains": 5, "response": "x"}),
        json.dumps({"contains": "", "response": 5}),
        '{"contains": "\udcff", "response": "y"}',  # written as the byte 0xFF
        json.dumps({"contains": 0, "response": "x"}),
        json.dumps({"contains": False, "response": "x"}),
        json.dumps({"contains": {}, "response": "x"}),
        json.dumps({"contain": "NEVER-IN-PROMPT", "response": "typo-key rule"}),
        json.dumps({"tag": "reflection", "contains": "x", "response": "x"}),
    ], ids=["bad_json", "not_an_object", "missing_response_file", "contains_int",
            "response_int", "invalid_utf8", "contains_zero", "contains_false", "contains_object",
            "contains_misspelt", "tag_unknown"])
    def test_malformed_mock_fixture_is_config_error(self, tmp_path, capsys, rules):
        mock = tmp_path / "mock"
        mock.mkdir()
        (mock / "rules.jsonl").write_text(json.dumps({"contains": "x", "response": "y"})
                                          + "\n\n" + rules + "\n",
                                          encoding="utf-8", errors="surrogateescape")
        config = write_config(tmp_path, mock_provider=str(mock))
        assert main(["transform", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rules.jsonl:3" in err

    def test_null_section_means_its_defaults(self, tmp_path):
        config = write_config(tmp_path, provider=None, limits=None, compare=None)
        cfg = cli.load_pipeline_config(config, argparse.Namespace())
        assert (cfg.provider, cfg.limits, cfg.compare) == \
               (ProviderConfig(), ResourceLimits(), ComparePolicy())

    def test_relative_paths_resolved_against_config_dir(self, tmp_path):
        (tmp_path / "corpus.jsonl").write_text(
            json.dumps({"id": "x", "question": "q", "solutions": ["print(1)"],
                        "input_output": {"inputs": ["\n"], "outputs": ["1\n"]},
                        "difficulty": "unknown", "source": "s"}) + "\n"
        )
        config = write_config(tmp_path, corpus={"train": "corpus.jsonl"},
                              outdir="out", cache_dir=None, mock_provider=None)
        assert main(["stats", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "stats" / "stats.json").exists()


class TestStats:
    def test_stats_outputs(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["stats", "--config", str(config)]) == 0
        out = tmp_path / "out" / "stats"
        summary = json.loads((out / "stats.json").read_text())
        assert summary["train"]["total_problems"] == 10
        assert summary["train"]["untestable"] == 1
        rows = read_csv(out / "stats.csv")
        assert rows[0] == ["split", "source", "difficulty", "count"]
        assert (out / "manifest.json").exists()

    def test_invalid_utf8_corpus_line_is_skipped(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        line = json.dumps({"id": "a", "question": "Print 1.", "solutions": ["print(1)"]})
        corpus.write_bytes(line.encode() + b"\n" + line.replace('"a"', '"b"').encode() + b"\xff\n")
        config = write_config(tmp_path, corpus={"test": str(corpus)})
        assert main(["stats", "--config", str(config)]) == 0
        summary = json.loads((tmp_path / "out" / "stats" / "stats.json").read_text())
        assert (summary["test"]["total_problems"], summary["test"]["skipped_lines"]) == (1, 1)

    def test_manifest_config_hash_pinned(self, tmp_path):
        # computed with hashlib.sha256: a manifest names the same config as before
        raw = {"corpus": {"test": "c.jsonl"}, "workers": 2}
        cli._write_manifest(tmp_path, "stats", argparse.Namespace(raw=raw))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"] == (
            "6919d9edf9dad660b28f59b6b640cc491e03262d6bccbfe4efb30648e6754774")


class TestTransform:
    def test_transform_pipeline(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["transform", "--config", str(config)]) == 0
        out = tmp_path / "out" / "transform"

        mot = read_jsonl(out / "mot.jsonl")
        clean = read_jsonl(out / "clean.jsonl")
        rejected = read_jsonl(out / "rejected.jsonl")

        # 10 problems; the scripted two-block response kills e2e-repeat's
        # mot rewrite, everything else passes its own tests or is untestable
        assert len(mot) == 9
        assert len(clean) == 10
        assert {r["problem_id"] for r in rejected} == {"e2e-repeat"}
        assert rejected[0]["marker"] == "m3_main_code_count"
        assert all(row["outline"] for row in mot)

        rates = read_csv(out / "filter_rates.csv")
        assert rates[0] == ["source", "data_type", "pre_count", "post_count", "rate_percent"]
        table = {(r[0], r[1]): r for r in rates[1:]}
        assert table[("beta", "mot")][2:] == ["4", "3", "75"]  # the rejected rewrite
        assert table[("alpha", "mot")][2:] == ["6", "6", "100"]
        assert "rate" in capsys.readouterr().out

    def test_content_parts_reply_is_a_rejected_row(self, tmp_path, monkeypatch):
        # an endpoint that answers with a list of content parts, not text: each
        # completion is a protocol error, so each item is a rejected row
        monkeypatch.setenv("TEST_KEY_VAR", "secret")
        reply = {"choices": [{"message": {"content": [{"type": "text", "text": "hi"}]}}]}
        monkeypatch.setattr("modeval.llm_client._post", lambda *a, **kw: (200, json.dumps(reply)))
        config = write_config(tmp_path, mock_provider=None, provider={
            "endpoint": "https://api.example/v1", "api_key_env": "TEST_KEY_VAR",
            "model_name": "m", "retry_limit": 1, "retry_backoff": 0.001})
        assert main(["transform", "--config", str(config)]) == 0
        out = tmp_path / "out" / "transform"
        assert read_jsonl(out / "mot.jsonl") == read_jsonl(out / "clean.jsonl") == []
        rejected = read_jsonl(out / "rejected.jsonl")
        assert len(rejected) == 20
        assert all(r["detail"].startswith("provider error: protocol: ") for r in rejected)

    def test_empty_corpus(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        config = write_config(tmp_path, corpus={"train": str(empty), "test": str(empty)})
        assert main(["transform", "--config", str(config)]) == 0
        out = tmp_path / "out" / "transform"
        assert read_jsonl(out / "mot.jsonl") == []
        assert read_jsonl(out / "rejected.jsonl") == []

    def test_dedup_against_holdout_split(self, tmp_path):
        # train shares one statement with the holdout; that problem must not
        # be transformed, and the removal is reported
        rows = read_jsonl(FIXTURES / "corpus10.jsonl")
        holdout = tmp_path / "holdout.jsonl"
        holdout.write_text(json.dumps({
            "id": "other-id", "question": rows[0]["question"],
            "solutions": ["print(input())"],
            "input_output": {"inputs": ["a\n"], "outputs": ["a\n"]},
            "difficulty": "unknown", "source": "holdout",
        }) + "\n")
        config = write_config(
            tmp_path,
            corpus={"train": str(FIXTURES / "corpus10.jsonl"), "test": str(holdout)},
            dedup_holdout_split="test",
            data_types=["clean"],
        )
        assert main(["transform", "--config", str(config)]) == 0
        out = tmp_path / "out" / "transform"
        report = read_csv(out / "dedup_report.csv")
        assert report[0] == ["train_id", "holdout_id", "similarity", "reason"]
        assert report[1][:2] == [rows[0]["id"], "other-id"]
        clean = read_jsonl(out / "clean.jsonl")
        assert rows[0]["id"] not in {r["problem_id"] for r in clean}
        assert len(clean) == 9

    def test_one_parse_per_mot_response(self, tmp_path, monkeypatch):
        calls = {"build": 0, "parse": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(promptgen, "build_mot_prompt",
                            counted("build", promptgen.build_mot_prompt))
        monkeypatch.setattr(promptgen, "parse_mot_response",
                            counted("parse", promptgen.parse_mot_response))
        config = write_config(tmp_path, data_types=["mot"])
        assert main(["transform", "--config", str(config)]) == 0
        assert calls["build"] == 10
        assert calls["parse"] == calls["build"]

    def test_unicode_line_separators_survive_transform_evaluate_analyze(self, tmp_path):
        # the program, its problem id and every JSONL line between the
        # commands hold raw U+2028 and NEL; each reader must keep them whole
        code = 's = "a\u2028b\x85c"\nprint(len(s))'
        pid = "u\u20281"
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({
            "id": pid, "question": "Print five.", "solutions": [code],
            "input_output": {"inputs": [""], "outputs": ["5\n"]},
        }, ensure_ascii=False) + "\n", encoding="utf-8")
        (tmp_path / "mock").mkdir()
        config = write_config(tmp_path, corpus={"train": str(corpus), "test": str(corpus)},
                              mock_provider=str(tmp_path / "mock"), data_types=["mot"])
        assert main(["transform", "--config", str(config)]) == 0
        mot = tmp_path / "out" / "transform" / "mot.jsonl"
        assert [(r["problem_id"], r["final_code"]) for r in read_jsonl(mot)] == [(pid, code)]
        assert main(["evaluate", "--config", str(config), "--candidates", str(mot)]) == 0
        records = read_jsonl(tmp_path / "out" / "evaluate" / "records.jsonl")
        assert [(r["problem_id"], r["passed"]) for r in records] == [(pid, True)]
        assert main(["analyze", "--config", str(config)]) == 0

    def test_provider_error_is_data_not_exit_code(self, tmp_path, monkeypatch):
        from modeval import cli as cli_module
        from modeval.llm_client import MockProvider, ProviderError

        # every call errors: items become rejected rows, the command still
        # exits 0 because nothing infrastructural broke
        def broken_provider(cfg):
            return MockProvider(script=[ProviderError("auth", "nope")] * 100)

        monkeypatch.setattr(cli_module, "_make_provider", broken_provider)
        config = write_config(tmp_path, data_types=["mot"])
        assert main(["transform", "--config", str(config)]) == 0
        out = tmp_path / "out" / "transform"
        rejected = read_jsonl(out / "rejected.jsonl")
        assert len(rejected) == 10
        assert all("provider error" in r["detail"] for r in rejected)
        assert read_jsonl(out / "mot.jsonl") == []

    def test_each_response_lives_until_it_is_checked(self, tmp_path, monkeypatch):
        # 40 responses of ~200 KB prose before a short program, checked in the worker
        # that received each, so one response is alive at a time and not all 8 MB
        size = 200_000
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"p{i}", "question": f"Print {i}.", "solutions": [f"print({i})"]})
            + "\n" for i in range(20)
        ))

        def respond(prompt):
            prose = "Let me think this through. " * (size // 27) + "\n"  # a new string per call
            if prompt.tag is promptgen.PromptTag.MOT:
                return (prose + '### STEP 1\ndef solve():\n    """Print it."""\n'
                        "### STEP 2\n```python\nprint(1)\n```\n")
            return prose + "```python\nprint(1)\n```\n"

        provider = MockProvider(script=[respond] * 40)
        monkeypatch.setattr(cli, "_make_provider", lambda cfg: provider)
        config = write_config(tmp_path, corpus={"train": str(corpus)},
                              provider={"model_name": "mock-model", "max_inflight": 1})
        cfg = cli.load_pipeline_config(config, argparse.Namespace())
        tracemalloc.start()
        try:
            assert cli.cmd_transform(cfg) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = tmp_path / "out" / "transform"
        assert len(read_jsonl(out / "mot.jsonl")) == len(read_jsonl(out / "clean.jsonl")) == 20
        # one response, its cache entry's JSON and bytes, and the rest of the command
        assert peak < 5 * size, peak

    def test_empty_solution_fails_before_any_completion(self, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps({"id": pid, "question": "Print 1.", "solutions": [code]})
                                  + "\n" for pid, code in (("ok", "print(1)"), ("empty", ""))))
        provider = MockProvider()
        monkeypatch.setattr(cli, "_make_provider", lambda cfg: provider)
        config = write_config(tmp_path, corpus={"train": str(corpus)})
        assert main(["transform", "--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: problem 'empty': solution 0 is empty\n"
        assert provider.calls == 0

    def test_each_prompt_lives_only_while_in_flight(self, tmp_path, monkeypatch):
        # 20 reference solutions of ~100 KB under two data types make 40 prompts of 4 MB
        # in all; each is built in the worker that sends it and dropped once checked
        size = 100_000
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(
            json.dumps({"id": f"p{i}", "question": f"Print {i}.",
                        "solutions": [f"print({i})  # " + "." * size]}) + "\n"
            for i in range(20)
        ))
        corpus = cli.load_corpus(path)  # loaded before tracing: the peak is transform's own
        monkeypatch.setattr(cli, "_corpus_for", lambda cfg, split: corpus)

        def respond(prompt):
            if prompt.tag is promptgen.PromptTag.MOT:
                return '### STEP 1\ndef solve():\n    """Print it."""\n### STEP 2\n```python\nprint(1)\n```\n'
            return "```python\nprint(1)\n```\n"

        provider = MockProvider(script=[respond] * 40)
        monkeypatch.setattr(cli, "_make_provider", lambda cfg: provider)
        config = write_config(tmp_path, provider={"model_name": "mock-model", "max_inflight": 1})
        cfg = cli.load_pipeline_config(config, argparse.Namespace())
        tracemalloc.start()
        try:
            assert cli.cmd_transform(cfg) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = tmp_path / "out" / "transform"
        assert len(read_jsonl(out / "mot.jsonl")) == len(read_jsonl(out / "clean.jsonl")) == 20
        assert provider.calls == 40
        # one prompt, the copies its cache key and entry make, and the rest of the command
        assert peak < 5 * size, peak


class TestEvaluate:
    def test_reference_solutions_pass(self, tmp_path):
        # feed every testable problem's own reference solution back as ten
        # identical candidates; the batch judges each distinct program once
        corpus_rows = read_jsonl(FIXTURES / "corpus10.jsonl")
        candidates = tmp_path / "cands.jsonl"
        with candidates.open("w") as fh:
            for row in corpus_rows:
                if "input_output" in row:
                    fh.write(json.dumps({"problem_id": row["id"],
                                         "candidates": [row["solutions"][0]] * 10}) + "\n")
        config = write_config(tmp_path, ks=[1, 2, 10])
        assert main(["evaluate", "--config", str(config), "--candidates", str(candidates)]) == 0
        out = tmp_path / "out" / "evaluate"
        report = json.loads((out / "report.json").read_text())
        assert report["pass_at_k"]["all"]["1"] == 1.0
        assert list(report["pass_at_k"]["all"]) == ["1", "10", "2"]  # string key order
        names = {f.name for f in fields(CodeMetrics)}
        assert all(set(row["metrics"]) == names for row in read_jsonl(out / "records.jsonl"))

    def test_fixture_candidates_report(self, tmp_path):
        config = write_config(tmp_path)
        rc = main(["evaluate", "--config", str(config),
                   "--candidates", str(FIXTURES / "e2e" / "candidates.jsonl")])
        assert rc == 0
        out = tmp_path / "out" / "evaluate"
        report = json.loads((out / "report.json").read_text())
        # 5 of 9 problems pass at k=1 given the fixture candidates:
        # echo, sum, sorted, initials pass; max has 1 of 2 candidates correct
        assert report["pass_at_k"]["all"]["1"] == pytest.approx((4 + 0.5) / 9)
        records = read_jsonl(out / "records.jsonl")
        assert len(records) == 10  # 10 candidate programs over 9 problems
        assert read_csv(out / "pass_at_k.csv")[0] == ["difficulty", "k", "pass_at_k"]
        wide = read_csv(out / "pass_at_k_table.csv")
        assert wide[0][0] == "k"
        assert set(wide[0][1:]) == {"introductory", "interview", "competition", "all"}
        assert wide[1][0] == "1"

    def test_untestable_problem_is_skipped(self, tmp_path, capsys):
        candidates = tmp_path / "cands.jsonl"
        candidates.write_text(json.dumps({"problem_id": "e2e-untestable",
                                          "candidates": ["print('interactive')"]}) + "\n")
        config = write_config(tmp_path)
        assert main(["evaluate", "--config", str(config), "--candidates", str(candidates)]) == 0
        assert "skipping untestable problem e2e-untestable" in capsys.readouterr().out
        assert (tmp_path / "out" / "evaluate" / "records.jsonl").read_text() == ""

    def test_missing_candidates_file(self, tmp_path):
        config = write_config(tmp_path)
        rc = main(["evaluate", "--config", str(config),
                   "--candidates", str(tmp_path / "missing.jsonl")])
        assert rc == 1

    def test_unknown_problem_id_nonzero_exit(self, tmp_path, capsys):
        candidates = tmp_path / "cands.jsonl"
        candidates.write_text(json.dumps({"problem_id": "ghost", "candidates": ["x"]}) + "\n")
        config = write_config(tmp_path)
        rc = main(["evaluate", "--config", str(config), "--candidates", str(candidates)])
        assert rc == 1
        assert "ghost" in capsys.readouterr().err

    def test_malformed_candidates_line(self, tmp_path, capsys):
        candidates = tmp_path / "cands.jsonl"
        candidates.write_text("{broken\n")
        config = write_config(tmp_path)
        rc = main(["evaluate", "--config", str(config), "--candidates", str(candidates)])
        assert rc == 1
        assert "line 1" in capsys.readouterr().err

    def test_invalid_utf8_candidates_line(self, tmp_path, capsys):
        candidates = tmp_path / "cands.jsonl"
        line = json.dumps({"problem_id": "e2e-echo", "candidates": ["print(input())"]})
        candidates.write_bytes(line.encode() + b"\n" + line.encode()[:-3] + b"\xff\"]}\n")
        config = write_config(tmp_path)
        rc = main(["evaluate", "--config", str(config), "--candidates", str(candidates)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: {candidates}: malformed candidates line 2: 'utf-8' codec")

    def test_candidates_must_be_a_list(self, tmp_path, capsys):
        candidates = tmp_path / "cands.jsonl"
        candidates.write_text(json.dumps({"problem_id": "e2e-echo",
                                          "candidates": "print(input())"}) + "\n")
        config = write_config(tmp_path)
        rc = main(["evaluate", "--config", str(config), "--candidates", str(candidates)])
        assert rc == 1
        assert "list" in capsys.readouterr().err

    def test_k_larger_than_candidate_count_is_config_error(self, tmp_path, capsys):
        candidates = tmp_path / "cands.jsonl"
        candidates.write_text(json.dumps({"problem_id": "e2e-echo",
                                          "candidates": ["print(input())"]}) + "\n")
        config = write_config(tmp_path, ks=[1, 5])
        rc = main(["evaluate", "--config", str(config), "--candidates", str(candidates)])
        assert rc == 1
        assert "e2e-echo" in capsys.readouterr().err


def run_evaluate(tmp_path, config):
    rc = main(["evaluate", "--config", str(config),
               "--candidates", str(FIXTURES / "e2e" / "candidates.jsonl")])
    assert rc == 0


class TestReflect:
    def test_requires_prior_evaluate(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["reflect", "--config", str(config)]) == 1

    def test_reflect_fixes_scripted_problems(self, tmp_path):
        config = write_config(tmp_path)
        run_evaluate(tmp_path, config)
        assert main(["reflect", "--config", str(config)]) == 0
        out = tmp_path / "out" / "reflect"
        traces = {t["problem_id"]: t for t in read_jsonl(out / "traces.jsonl")}
        # four failed problems reflected; two get fixed by scripted responses
        assert set(traces) == {"e2e-parity", "e2e-repeat", "e2e-sumlist", "e2e-countdown"}
        assert traces["e2e-parity"]["solved_at"] == 0
        assert traces["e2e-sumlist"]["solved_at"] == 2
        assert traces["e2e-repeat"]["solved_at"] is None
        assert len(traces["e2e-repeat"]["rounds"]) == 5  # cap honored
        assert len(traces["e2e-countdown"]["rounds"]) == 5

        rows = read_csv(out / "comparison.csv")
        assert rows[0] == ["difficulty", "problems", "pass_at_1_before", "pass_at_1_after"]
        table = {r[0]: r for r in rows[1:]}
        before, after = float(table["all"][2]), float(table["all"][3])
        assert after > before

    def test_noop_when_nothing_failed(self, tmp_path):
        corpus_rows = read_jsonl(FIXTURES / "corpus10.jsonl")
        candidates = tmp_path / "cands.jsonl"
        with candidates.open("w") as fh:
            for row in corpus_rows:
                if "input_output" in row:
                    fh.write(json.dumps({"problem_id": row["id"],
                                         "candidates": [row["solutions"][0]]}) + "\n")
        config = write_config(tmp_path)
        assert main(["evaluate", "--config", str(config), "--candidates", str(candidates)]) == 0
        assert main(["reflect", "--config", str(config)]) == 0
        out = tmp_path / "out" / "reflect"
        assert read_jsonl(out / "traces.jsonl") == []
        rows = read_csv(out / "comparison.csv")
        table = {r[0]: r for r in rows[1:]}
        assert table["all"][2] == table["all"][3]

    def test_reflection_loops_capped_by_max_inflight(self, tmp_path, monkeypatch):
        provider = MockProvider(fixture_dir=FIXTURES / "e2e" / "mock", latency=0.05)
        monkeypatch.setattr(cli, "_make_provider", lambda cfg: provider)
        config = write_config(tmp_path, workers=4, max_reflection_rounds=1,
                              provider={"model_name": "mock-model", "max_inflight": 1})
        run_evaluate(tmp_path, config)
        assert main(["reflect", "--config", str(config)]) == 0
        assert provider.calls == 4  # four failed problems, one round each
        assert provider.peak_inflight == 1

    def test_max_rounds_one_caps_trace(self, tmp_path):
        config = write_config(tmp_path, max_reflection_rounds=1)
        run_evaluate(tmp_path, config)
        assert main(["reflect", "--config", str(config)]) == 0
        traces = read_jsonl(tmp_path / "out" / "reflect" / "traces.jsonl")
        assert all(len(t["rounds"]) <= 1 for t in traces)


class TestCacheLogs:
    """Each command opens only the caches it uses, and evaluate replays metrics."""

    def test_evaluate_opens_verdicts_and_metrics_only(self, tmp_path):
        run_evaluate(tmp_path, write_config(tmp_path))
        assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == ["metrics", "verdicts"]

    def test_no_cache_writes_no_cache(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["evaluate", "--config", str(config), "--no-cache",
                     "--candidates", str(FIXTURES / "e2e" / "candidates.jsonl")]) == 0
        assert not (tmp_path / "cache").exists()

    def test_warm_evaluate_measures_nothing(self, tmp_path, monkeypatch):
        calls = count_analyze_calls(monkeypatch)
        config = write_config(tmp_path)
        records = tmp_path / "out" / "evaluate" / "records.jsonl"
        run_evaluate(tmp_path, config)
        cold, measured = records.read_bytes(), len(calls)
        assert measured == len(read_jsonl(records)) > 0
        log = (tmp_path / "cache" / "metrics" / "entries.jsonl").read_bytes()
        run_evaluate(tmp_path, config)
        assert len(calls) == measured  # the warm run called analyze 0 times
        assert records.read_bytes() == cold
        assert (tmp_path / "cache" / "metrics" / "entries.jsonl").read_bytes() == log

    def test_two_cold_runs_write_identical_response_logs(self, tmp_path):
        # an entry holds the completion alone, not when it was written
        logs = []
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            config = write_config(tmp_path / run, workers=1,
                                  provider={"model_name": "mock-model", "max_inflight": 1})
            assert main(["transform", "--config", str(config)]) == 0
            logs.append((tmp_path / run / "cache" / "responses" / "entries.jsonl").read_bytes())
        assert logs[0] and logs[0] == logs[1]

    def test_every_key_is_the_hash_of_its_parts(self, tmp_path, monkeypatch):
        # each key as it was made before EntryLog made them all, so every cache written
        # before still hits and every manifest names the same config
        import hashlib

        from modeval import codemetrics, sandbox
        from modeval.llm_client import ResponseCache, complete
        from modeval.promptgen import Prompt, PromptTag

        def recipe(parts):
            return hashlib.sha256(json.dumps(parts, sort_keys=True).encode("utf-8")).hexdigest()

        def keys(root):
            return [key for key, _ in cache_entries(root)]

        monkeypatch.setenv("PYTHONPATH", "src")
        prompt, provider_cfg = Prompt("sys", "q \u00e9", PromptTag.DIRECT), ProviderConfig(model_name="m")
        complete(prompt, provider_cfg, provider=MockProvider(script=["a"]),
                 cache=ResponseCache(tmp_path / "responses"))
        assert keys(tmp_path / "responses") == [recipe(
            [prompt.system, prompt.user, "m", provider_cfg.temperature, provider_cfg.max_output_tokens])]

        problem = make_problem(tests=(("1\n", "1\n"),))
        judge = sandbox.Judge(ResourceLimits(wall_time=5.0), fail_fast=True,
                              cache=sandbox.VerdictCache(tmp_path / "verdicts"))
        judge("print(input())", problem)
        assert keys(tmp_path / "verdicts") == [recipe([
            "print(input())", problem.id, [["1\n", "1\n"]], [5.0, judge.limits.memory,
            judge.limits.output_cap], ["token", 1e-6], None, True,
            [os.path.realpath(sys.executable), sys.version], os.environ.get("PATH"),
            [os.path.abspath("src")], sandbox.SANDBOX_SEMANTICS])]

        codemetrics.MetricsCache(tmp_path / "metrics").analyze("print(1)\n", True)
        assert keys(tmp_path / "metrics") == [recipe(["print(1)\n", True,
                                                       codemetrics.METRICS_SEMANTICS])]

        raw = {"workers": 2, "corpus": {"test": "c.jsonl"}}
        cli._write_manifest(tmp_path, "stats", argparse.Namespace(raw=raw))
        assert json.loads((tmp_path / "manifest.json").read_text())["config_hash"] == recipe(raw)


ECHO_ROW = {
    "problem_id": "e2e-echo", "candidate_index": 0, "difficulty": "introductory",
    "split": "test", "passed": False, "first_failure": 0, "matched": [False],
    "statuses": ["ok"], "avg_time": 0.1, "avg_peak_memory": 1000,
    "metrics": {"halstead_volume": 1.0, "cyclomatic": 1, "sloc": 1,
                "comment_density": 0.0, "maintainability": 100.0,
                "function_count": 0},
}


class TestRecordsLoader:
    """``reflect`` and ``analyze`` read evaluate's records.jsonl through one loader."""

    def write_records(self, tmp_path, lines):
        path = tmp_path / "out" / "evaluate" / "records.jsonl"
        path.parent.mkdir(parents=True)
        path.write_text("".join(line + "\n" for line in lines))

    @pytest.mark.parametrize("command", ["analyze", "reflect"])
    def test_unknown_problem_id_named(self, tmp_path, capsys, command):
        config = write_config(tmp_path)
        self.write_records(tmp_path, [json.dumps(ECHO_ROW),
                                      json.dumps(dict(ECHO_ROW, problem_id="ghost"))])
        assert main([command, "--config", str(config)]) == 1
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "reflect"])
    @pytest.mark.parametrize("row", [
        {k: v for k, v in ECHO_ROW.items() if k != "avg_time"},
        dict(ECHO_ROW, code="print(input())"),
        dict(ECHO_ROW, difficulty="expert"),
        dict(ECHO_ROW, passed="yes"),
        dict(ECHO_ROW, statuses=[1]),
        dict(ECHO_ROW, metrics=dict(ECHO_ROW["metrics"], function_count=1.5)),
        dict(ECHO_ROW, difficulty="competition", split="train"),
        dict(ECHO_ROW, difficulty="interview"),
        dict(ECHO_ROW, split="train"),
        dict(ECHO_ROW, statuses=["bogus"]),
        dict(ECHO_ROW, avg_time=-5.0, avg_peak_memory=-1.0),
        dict(ECHO_ROW, metrics=dict(ECHO_ROW["metrics"], maintainability=-40.0)),
        dict(ECHO_ROW, metrics=dict(ECHO_ROW["metrics"], halstead_volume=float("inf"))),
    ], ids=["missing_field", "extra_field", "unknown_difficulty", "passed_string",
            "statuses_ints", "function_count_float", "other_difficulty_and_split",
            "other_difficulty", "other_split", "unknown_status", "negative_averages",
            "metrics_out_of_range", "metrics_not_finite"])
    def test_bad_row_names_its_file_line(self, tmp_path, capsys, command, row):
        config = write_config(tmp_path)
        self.write_records(tmp_path, [json.dumps(ECHO_ROW), "", json.dumps(row)])
        assert main([command, "--config", str(config)]) == 1
        assert "malformed records line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "reflect"])
    @pytest.mark.parametrize("passed, first_failure, matched", [
        (True, 0, [False, False]), (False, 1, [False, False]), (1, None, [True, True]),
    ], ids=["passed_contradicts", "first_failure_contradicts", "passed_one"])
    def test_row_must_agree_with_its_matched(self, tmp_path, capsys, command,
                                             passed, first_failure, matched):
        # passed and first_failure are written from matched: a line where they
        # disagree is an error, and nothing is written
        config = write_config(tmp_path)
        self.write_records(tmp_path, [json.dumps(dict(
            ECHO_ROW, passed=passed, first_failure=first_failure, matched=matched,
            statuses=["ok", "ok"]))])
        assert main([command, "--config", str(config)]) == 1
        records = tmp_path / "out" / "evaluate" / "records.jsonl"
        assert capsys.readouterr().err.startswith(f"error: {records}: malformed records line 1: ")
        assert not (tmp_path / "out" / command).exists()

    @pytest.mark.parametrize("command", ["analyze", "reflect"])
    @pytest.mark.parametrize("passed, first_failure, matched, statuses", [
        (True, None, [True, True], ["ok"]),
        (True, None, [True], ["ok", "ok", "ok"]),
        (True, None, [], []),
        (True, None, [True, True, True], ["ok", "ok", "ok"]),
        (True, None, [True], ["ok"]),
        (True, None, [True, True], ["timeout", "runtime_error"]),
        (False, 1, [True, False], ["output_overflow", "ok"]),
    ], ids=["statuses_shorter", "statuses_longer", "no_results", "more_results_than_tests",
            "stopped_without_failure", "matched_runs_not_ok", "matched_run_overflowed"])
    def test_row_must_fit_its_problem(self, tmp_path, capsys, command,
                                      passed, first_failure, matched, statuses):
        # e2e-echo has two tests: judge records a result and a status for each,
        # or stops after the first failure, and matches only the output of an ok run
        config = write_config(tmp_path)
        self.write_records(tmp_path, [json.dumps(ECHO_ROW), json.dumps(dict(
            ECHO_ROW, passed=passed, first_failure=first_failure, matched=matched,
            statuses=statuses))])
        assert main([command, "--config", str(config)]) == 1
        records = tmp_path / "out" / "evaluate" / "records.jsonl"
        assert capsys.readouterr().err.startswith(f"error: {records}: malformed records line 2: ")
        assert not (tmp_path / "out" / command).exists()

    @pytest.mark.parametrize("command", ["analyze", "reflect"])
    def test_row_of_an_untestable_problem_is_rejected(self, tmp_path, capsys, command):
        # judging records at least one result, and a problem of no tests is never
        # judged, so no line can hold one: reflect never sees an untestable problem
        config = write_config(tmp_path)
        self.write_records(tmp_path, [json.dumps(dict(
            ECHO_ROW, problem_id="e2e-untestable", difficulty="unknown"))])
        assert main([command, "--config", str(config)]) == 1
        records = tmp_path / "out" / "evaluate" / "records.jsonl"
        assert capsys.readouterr().err.startswith(
            f"error: {records}: malformed records line 1: 1 results for a problem of 0 tests")
        assert not (tmp_path / "out" / command).exists()

    @pytest.mark.parametrize("command", ["analyze", "reflect"])
    def test_invalid_utf8_row_names_its_file_line(self, tmp_path, capsys, command):
        config = write_config(tmp_path)
        self.write_records(tmp_path, [json.dumps(ECHO_ROW)])
        records = tmp_path / "out" / "evaluate" / "records.jsonl"
        with records.open("ab") as fh:
            fh.write(json.dumps(ECHO_ROW).encode().replace(b"e2e-echo", b"e2e-\xffecho") + b"\n")
        assert main([command, "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {records}: malformed records line 2: 'utf-8' codec")


class TestAnalyze:
    def test_profiles_emitted(self, tmp_path):
        config = write_config(tmp_path)
        run_evaluate(tmp_path, config)
        assert main(["analyze", "--config", str(config)]) == 0
        out = tmp_path / "out" / "analyze"

        function_rows = read_csv(out / "function_profile.csv")
        assert function_rows[0] == ["difficulty", "function_bin", "count", "accuracy"]
        assert len(function_rows) > 1

        resource_rows = read_csv(out / "resource_profile.csv")
        assert resource_rows[0] == ["difficulty", "passed_count",
                                    "avg_time_seconds", "avg_peak_memory_bytes"]

        mi_rows = read_csv(out / "mi_profile.csv")
        assert mi_rows[0] == ["group", "label", "mean_maintainability"]
        groups = {r[0] for r in mi_rows[1:]}
        assert groups == {"difficulty", "split"}

    def test_no_passed_candidates_absent_means(self, tmp_path):
        config = write_config(tmp_path)
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps(ECHO_ROW) + "\n")
        assert main(["analyze", "--config", str(config), "--records", str(records)]) == 0
        mi_rows = read_csv(tmp_path / "out" / "analyze" / "mi_profile.csv")
        values = [r[2] for r in mi_rows[1:] if r[0] == "difficulty"]
        assert all(v == "" for v in values)

    def test_missing_records_nonzero(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["analyze", "--config", str(config)]) == 1

    def test_malformed_records_line_diagnosed(self, tmp_path, capsys):
        config = write_config(tmp_path)
        records = tmp_path / "records.jsonl"
        records.write_text('{"problem_id": "x"}\n')
        rc = main(["analyze", "--config", str(config), "--records", str(records)])
        assert rc == 1
        assert "line 1" in capsys.readouterr().err


class TestFlagOverrides:
    @pytest.mark.parametrize("flags, setting", [
        (["--outdir", "/elsewhere"], {"outdir": "/elsewhere"}),
        (["--workers", "3"], {"workers": 3}),
        (["--mock-provider", str(FIXTURES)], {"mock_provider": str(FIXTURES)}),
        (["--runner", "python3 -I {file}"], {"runner": "python3 -I {file}"}),
        (["--keep-scratch"], {"keep_scratch": True}),
        (["--no-cache"], {"cache_dir": None}),
        (["--per-level-mean"], {"all_mode": "difficulty-means"}),
        (["--top-level-only"], {"top_level_functions_only": True}),
    ], ids=["outdir", "workers", "mock_provider", "runner", "keep_scratch", "no_cache",
            "per_level_mean", "top_level_only"])
    def test_flag_is_its_config_key(self, tmp_path, monkeypatch, flags, setting):
        # each flag stores the value its config key would hold, through the same checks
        loaded = []
        monkeypatch.setattr(cli, "cmd_stats", loaded.append)
        for argv, overrides in (([], {}), (flags, {}), ([], setting)):
            main(["stats", "--config", str(write_config(tmp_path, **overrides)), *argv])
        base, flagged, keyed = loaded
        assert flagged == keyed != base

    @pytest.mark.parametrize("bad, flags", [
        ({"workers": 0}, ["--workers", "2"]),
        ({"runner": "python3 {x}"}, ["--runner", "python3 {file}"]),
    ], ids=["workers", "runner"])
    def test_flag_replaces_a_bad_file_value_before_any_check(self, tmp_path, capsys, bad, flags):
        assert main(["stats", "--config", str(write_config(tmp_path, **bad)), *flags]) == 0
        assert capsys.readouterr().err == ""

    def test_bad_flag_over_a_good_file_names_its_key(self, tmp_path, capsys):
        assert main(["stats", "--config", str(write_config(tmp_path)), "--workers", "0"]) == 1
        assert capsys.readouterr().err == "error: workers must be >= 1\n"

    def test_relative_outdir_flag_is_relative_to_cwd(self, tmp_path, monkeypatch):
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        loaded = []
        monkeypatch.setattr(cli, "cmd_stats", loaded.append)
        main(["stats", "--config", str(write_config(tmp_path)), "--outdir", "rel"])
        main(["stats", "--config", str(write_config(tmp_path, outdir="rel"))])
        assert [cfg.outdir for cfg in loaded] == ["rel", str(tmp_path / "rel")]

    def test_outdir_flag_wins(self, tmp_path):
        config = write_config(tmp_path)
        other = tmp_path / "elsewhere"
        assert main(["stats", "--config", str(config), "--outdir", str(other)]) == 0
        assert (other / "stats" / "stats.json").exists()

    def test_no_cache_flag(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["stats", "--config", str(config), "--no-cache"]) == 0

    def test_infrastructure_error_exits_nonzero(self, tmp_path, capsys):
        candidates = tmp_path / "cands.jsonl"
        candidates.write_text(json.dumps({"problem_id": "e2e-echo",
                                          "candidates": ["print(input())"]}) + "\n")
        config = write_config(tmp_path)
        rc = main(["evaluate", "--config", str(config), "--candidates", str(candidates),
                   "--runner", "missing-interpreter-zzz {file}", "--no-cache"])
        assert rc == 1
        assert "missing-interpreter-zzz" in capsys.readouterr().err

    @pytest.mark.parametrize("runner", ["python3 {file} {x}", "python3 {} {file}", "python3 {file"],
                             ids=["unknown_field", "positional_field", "unclosed_brace"])
    def test_bad_runner_template_exits_nonzero(self, tmp_path, capsys, runner):
        candidates = tmp_path / "cands.jsonl"
        candidates.write_text(json.dumps({"problem_id": "e2e-echo",
                                          "candidates": ["print(input())"]}) + "\n")
        config = write_config(tmp_path)
        rc = main(["evaluate", "--config", str(config), "--candidates", str(candidates),
                   "--runner", runner, "--no-cache"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: bad runner template {runner!r}")

    @pytest.mark.parametrize("runner", ["python3 {file} {x}", "python3 {} {file}", "python3 {file", " "],
                             ids=["unknown_field", "positional_field", "unclosed_brace", "no_command"])
    def test_bad_runner_template_stops_transform_before_any_completion(self, tmp_path, capsys, runner):
        config = write_config(tmp_path)
        assert main(["transform", "--config", str(config), "--runner", runner]) == 1
        assert capsys.readouterr().err.startswith(f"error: bad runner template {runner!r}")
        assert not (tmp_path / "cache" / "responses" / "entries.jsonl").exists()

    @pytest.mark.parametrize("unreadable", ["candidates", "records", "rules.jsonl", "default.txt"])
    def test_unreadable_input_file_exits_nonzero(self, tmp_path, capsys, unreadable):
        mock = tmp_path / "mock"
        mock.mkdir()
        directory = (mock if "." in unreadable else tmp_path) / unreadable
        directory.mkdir()  # a directory where a file is read
        config = write_config(tmp_path, mock_provider=str(mock))
        args = {"candidates": ["evaluate", "--candidates", str(directory)],
                "records": ["analyze", "--records", str(directory)]}.get(unreadable, ["transform"])
        assert main([*args, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(directory) in err

    def test_mock_default_txt_that_no_rule_reads_is_refused(self, tmp_path, capsys):
        # the mock has no fallback file, so one that no rule reads stops the command
        # before any completion, rather than being ignored
        mock = tmp_path / "mock"
        mock.mkdir()
        (mock / "default.txt").write_text("```python\nprint()\n```\n")
        config = write_config(tmp_path, mock_provider=str(mock))
        assert main(["transform", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {mock / 'default.txt'}: ")
        assert '{"response_file": "default.txt"} as the last line' in err
        assert not (tmp_path / "cache" / "responses" / "entries.jsonl").exists()

    def test_top_level_only_changes_function_counts(self, tmp_path):
        nested = "def outer():\n    def inner():\n        return input()\n    return inner()\nprint(outer())"
        candidates = tmp_path / "cands.jsonl"
        candidates.write_text(json.dumps({"problem_id": "e2e-echo",
                                          "candidates": [nested]}) + "\n")
        config = write_config(tmp_path)
        args = ["evaluate", "--config", str(config), "--candidates", str(candidates)]
        assert main([*args, "--no-cache"]) == 0
        all_defs = read_jsonl(tmp_path / "out" / "evaluate" / "records.jsonl")
        assert all_defs[0]["metrics"]["function_count"] == 2
        assert main([*args, "--no-cache", "--top-level-only"]) == 0
        top_only = read_jsonl(tmp_path / "out" / "evaluate" / "records.jsonl")
        assert top_only[0]["metrics"]["function_count"] == 1


def test_import_loads_no_third_party_or_network_module():
    # every layer a command can load: the runtime is stdlib-only, and
    # urllib.request waits until an HTTP provider sends
    loaded = loaded_modules("import modeval.cli\nfrom modeval import *")
    assert {"modeval.sandbox", "modeval.validator", "modeval.evaluate"} <= loaded
    assert {"numpy", "requests", "urllib.request"}.isdisjoint(loaded)


def test_no_command_loads_openssl(tmp_path):
    # cache keys and manifests hash with CPython's built-in SHA-256 below
    # corpus.HASHLIB_MIN_BYTES, as every payload here is: hashlib loads libcrypto
    config = write_config(tmp_path)
    candidates = tmp_path / "candidates.jsonl"
    candidates.write_text(json.dumps({"problem_id": "e2e-echo",
                                      "candidates": ["print(input())"]}) + "\n")
    runs = [["transform"], ["evaluate", "--candidates", str(candidates)], ["reflect"],
            ["analyze"], ["stats"]]
    code = "\n".join(f"assert main({[*run, '--config', str(config)]!r}) == 0" for run in runs)
    # -S, as below
    loaded = loaded_modules(f"from modeval.cli import main\n{code}", "-S")
    assert {"modeval.sandbox", "modeval.promptgen", "modeval.codemetrics"} <= loaded
    assert {"hashlib", "_hashlib"}.isdisjoint(loaded), sorted({"hashlib", "_hashlib"} & loaded)
    assert {"responses", "verdicts", "metrics"} <= {p.name for p in (tmp_path / "cache").iterdir()}


# stats and analyze run no sandbox, build no prompt and start no thread pool
NO_JUDGING = {"modeval.sandbox", "modeval.promptgen", "modeval.validator",
              "subprocess", "concurrent.futures"}


@pytest.mark.parametrize("command, absent", [
    ("stats", NO_JUDGING),
    ("analyze", NO_JUDGING | {"importlib.resources", "tempfile", "random"}),
    ("evaluate", {"modeval.promptgen", "modeval.validator", "concurrent.futures"}),
    ("transform", {"modeval.evaluate", "modeval.codemetrics", "concurrent.futures"}),
])
def test_command_loads_only_its_layers(tmp_path, command, absent):
    config = write_config(tmp_path, cache_dir=None)
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps(ECHO_ROW) + "\n")
    candidates = tmp_path / "candidates.jsonl"
    candidates.write_text(json.dumps({"problem_id": "e2e-echo",
                                      "candidates": ["print(input())"]}) + "\n")
    argv = [command, "--config", str(config), *{
        "analyze": ["--records", str(records)],
        "evaluate": ["--candidates", str(candidates)],
    }.get(command, [])]
    # -S: site may import tempfile (for a .pth file) before modeval runs at all
    loaded = loaded_modules(f"from modeval.cli import main\nassert main({argv!r}) == 0", "-S")
    assert "modeval.cli" in loaded
    assert absent.isdisjoint(loaded), sorted(absent & loaded)


def test_transform_without_tests_loads_no_sandbox(tmp_path):
    corpus = tmp_path / "untestable.jsonl"
    corpus.write_text(json.dumps({"id": "u1", "question": "Print the sum of two numbers.",
                                  "solutions": ["print(sum(map(int, input().split())))"]}) + "\n")
    (tmp_path / "mock").mkdir()
    config = write_config(tmp_path, corpus={"train": str(corpus)},
                          mock_provider=str(tmp_path / "mock"))
    argv = ["transform", "--config", str(config)]
    # -S, as above
    loaded = loaded_modules(f"from modeval.cli import main\nassert main({argv!r}) == 0", "-S")
    assert {"modeval.promptgen", "modeval.validator"} <= loaded
    assert {"modeval.sandbox", "subprocess", "tempfile"}.isdisjoint(loaded)
    assert (tmp_path / "cache" / "responses").is_dir()
    assert not (tmp_path / "cache" / "verdicts").exists()
    records = read_jsonl(tmp_path / "out" / "transform" / "filter_records.jsonl")
    assert [r["detail"] for r in records] == 2 * ["functional check skipped (untestable)"]


def test_transform_keeps_a_solution_whose_line_looks_like_a_prompt_section(tmp_path):
    # a column-0 "[N]" line reads like a prompt's section header; the mock echoes the
    # program each prompt was built from, so both rewrites keep all of it
    solution = "N = 2\n[N]\nprint(N)\n"
    corpus = tmp_path / "untestable.jsonl"
    corpus.write_text(json.dumps({"id": "u1", "question": "Print two.", "solutions": [solution]}) + "\n")
    (tmp_path / "mock").mkdir()
    config = write_config(tmp_path, corpus={"train": str(corpus)},
                          mock_provider=str(tmp_path / "mock"))
    assert main(["transform", "--config", str(config)]) == 0
    out = tmp_path / "out" / "transform"
    for name in ("mot.jsonl", "clean.jsonl"):
        assert [row["final_code"] for row in read_jsonl(out / name)] == [solution.rstrip("\n")]


def test_transform_with_tests_opens_the_verdict_log(tmp_path):
    config = write_config(tmp_path)
    assert main(["transform", "--config", str(config)]) == 0
    assert (tmp_path / "cache" / "verdicts" / "entries.jsonl").is_file()


def test_warm_command_loads_no_run_machinery(tmp_path):
    # one cold evaluate and reflect fill the verdict cache; warm, every verdict
    # replays from it, so no broker starts and the run machinery never loads
    config = write_config(tmp_path)
    candidates = tmp_path / "candidates.jsonl"
    candidates.write_text(json.dumps({"problem_id": "e2e-echo", "candidates": ["print(1)"]}) + "\n")
    runs = [["evaluate", "--config", str(config), "--candidates", str(candidates)],
            ["reflect", "--config", str(config)]]
    for argv in runs:
        assert main(argv) == 0
    assert json.loads((tmp_path / "out" / "evaluate" / "records.jsonl").read_text())["matched"] == [False]
    for argv in runs:
        # -S, as above
        loaded = loaded_modules(f"from modeval.cli import main\nassert main({argv!r}) == 0", "-S")
        assert "modeval.sandbox" in loaded
        assert {"subprocess", "tempfile", "shlex"}.isdisjoint(loaded), (argv[0], sorted(
            {"subprocess", "tempfile", "shlex"} & loaded))


def test_module_entry_exits_with_mains_status(tmp_path):
    # python -m modeval.cli exits through the same process entry as the modeval script
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    mistyped = tmp_path / "mistyped.json"
    mistyped.write_text(json.dumps({"limits": {"memory": 1.5}}))
    done = [subprocess.run([sys.executable, "-m", "modeval.cli", "stats", "--config", str(config)],
                           capture_output=True, text=True, env=env, timeout=60)
            for config in (write_config(tmp_path), mistyped)]
    assert [d.returncode for d in done] == [0, 1]
    assert done[0].stdout.startswith("test: 10 problems") and not done[0].stderr
    assert (tmp_path / "out" / "stats" / "manifest.json").is_file()
    assert done[1].stderr.startswith("error:") and "memory" in done[1].stderr


def test_profiled_module_entry_runs(tmp_path):
    # under cProfile the pipeline's modules run while cProfile's own module is __main__,
    # so every config annotation must resolve in the module that defines it
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "cProfile", "-o", str(tmp_path / "stats.prof"), "-m", "modeval.cli",
         "stats", "--config", str(write_config(tmp_path))],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "stats" / "stats.json").is_file()
    assert (tmp_path / "stats.prof").is_file()
