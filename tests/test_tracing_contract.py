"""The benchmark's tracing wrappers see the judging and parsing seams as they expect.

``benchmark/tracing.py`` patches ``sandbox.judge`` and
``sandbox.VerdictCache.judge`` by name and counts a verdict-cache miss as a
``sandbox.verdict_cache`` span that encloses a ``sandbox.judge`` span, so
``Judge`` must look both up when it is called.  ``benchmark/README.md``'s
layer table puts ``parse_mot_response`` under ``promptgen.parse`` on
transform's path, so ``validator.assess_structure`` must look the parser up
on ``promptgen``.
"""

import importlib.util
import sys
from pathlib import Path

from modeval import cli, codemetrics, evaluate, llm_client, promptgen, sandbox, validator
from modeval.sandbox import Judge, VerdictCache

from conftest import make_problem

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_cache_miss_encloses_judge_and_restore_undoes_every_patch(tmp_path):
    tracing = load_tracing()
    owners = [cli, codemetrics, evaluate, llm_client, promptgen, sandbox, validator,
              llm_client.ResponseCache, sandbox.VerdictCache]
    before = [dict(vars(owner)) for owner in owners]

    rec = tracing.Recorder()
    restore = tracing.install(rec)
    try:
        patched = [attr for owner, saved in zip(owners, before)
                   for attr, value in vars(owner).items() if saved.get(attr) is not value]
        judge = Judge(cache=VerdictCache(tmp_path / "verdicts"))
        problem = make_problem(tests=(("1\n", "1\n"),))
        first = judge("print(input())", problem)
        second = judge("print(input())", problem)
    finally:
        restore()

    assert {"judge", "judge_batch", "run_once", "tokenize"} <= set(patched)
    assert first.passed and second == first
    lookups = [i for i, s in enumerate(rec.spans) if s.name == "sandbox.verdict_cache"]
    judged_under = {s.parent for s in rec.spans if s.name == "sandbox.judge"}
    assert len(lookups) == 2
    assert lookups[0] in judged_under  # miss: the cache ran the sandbox
    assert lookups[1] not in judged_under  # hit: read back from disk
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert all(now.get(attr) is value for attr, value in saved.items()), owner
        assert set(now) == set(saved), owner


def test_assess_structure_encloses_a_parse_span():
    tracing = load_tracing()
    rec = tracing.Recorder()
    restore = tracing.install(rec)
    try:
        result, _ = validator.assess_structure(
            '### STEP 1\ndef f():\n    """Doc."""\n### STEP 2\n```python\nprint(1)\n```\n')
    finally:
        restore()

    assert result.accepted
    assert [(s.name, s.parent) for s in rec.spans] == [
        ("validator.assess_structure", None), ("promptgen.parse", 0)]
