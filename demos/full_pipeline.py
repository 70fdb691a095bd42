#!/usr/bin/env python3
"""Drive the whole pipeline offline: transform, evaluate, reflect, analyze."""
import json
import tempfile
from pathlib import Path

from modeval.cli import main

with tempfile.TemporaryDirectory(prefix="modeval-demo-") as tmp:
    work = Path(tmp)
    print("working under", work)

    # --- a three-problem corpus -----------------------------------------------------
    corpus = work / "corpus.jsonl"
    rows = [
        {"id": "double", "question": "Read an integer and print twice its value.",
         "solutions": ["print(2 * int(input()))"],
         "input_output": {"inputs": ["4\n", "0\n"], "outputs": ["8\n", "0\n"]},
         "difficulty": "introductory", "source": "demo"},
        {"id": "shout", "question": "Read a line and print it in upper case.",
         "solutions": ["print(input().upper())"],
         "input_output": {"inputs": ["hey\n"], "outputs": ["HEY\n"]},
         "difficulty": "interview", "source": "demo"},
        {"id": "total", "question": "Read n, then n integers; print their sum.",
         "solutions": ["input()\nprint(sum(map(int, input().split())))"],
         "input_output": {"inputs": ["3\n1 2 3\n"], "outputs": ["6\n"]},
         "difficulty": "competition", "source": "demo"},
    ]
    corpus.write_text("".join(json.dumps(r) + "\n" for r in rows))

    # candidates to evaluate: two good programs, one wrong one
    candidates = work / "candidates.jsonl"
    candidates.write_text("".join(json.dumps(r) + "\n" for r in [
        {"problem_id": "double", "candidates": ["print(2 * int(input()))"]},
        {"problem_id": "shout", "candidates": ["print(input().upper())"]},
        {"problem_id": "total", "candidates": ["print(99)"]},
    ]))

    # a mock rule lets reflection fix the failing problem on round 1
    mock_dir = work / "mock"
    mock_dir.mkdir()
    (mock_dir / "rules.jsonl").write_text(json.dumps({
        "tag": "reflect",
        "contains": "print their sum",
        "response": "```python\ninput()\nprint(sum(map(int, input().split())))\n```\n",
    }) + "\n")

    config = work / "config.json"
    config.write_text(json.dumps({
        "corpus": {"train": str(corpus), "test": str(corpus)},
        "provider": {"model_name": "demo-mock"},
        "limits": {"wall_time": 5.0},
        "ks": [1],
        "workers": 2,
        "outdir": str(work / "out"),
        "cache_dir": str(work / "cache"),
        "mock_provider": str(mock_dir),
    }, indent=2))

    flags = ["--config", str(config)]
    for step in (["stats", *flags],
                 ["transform", *flags],
                 ["evaluate", *flags, "--candidates", str(candidates)],
                 ["reflect", *flags],
                 ["analyze", *flags]):
        print(f"\n$ modeval {' '.join(step)}")
        rc = main(step)
        assert rc == 0, f"{step[0]} exited {rc}"

    print("\noutputs:")
    for path in sorted((work / "out").rglob("*")):
        if path.is_file():
            print(" ", path.relative_to(work))

    report = json.loads((work / "out" / "evaluate" / "report.json").read_text())
    print("\npass@1 before reflection:", report["pass_at_k"]["all"]["1"])
    comparison = (work / "out" / "reflect" / "comparison.csv").read_text().splitlines()
    print("reflection comparison table:")
    for line in comparison:
        print("  " + line)
