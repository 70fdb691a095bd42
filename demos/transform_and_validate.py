#!/usr/bin/env python3
"""Build a modularization prompt, parse the response, apply the four markers."""
from modeval import (
    MockProvider,
    Problem,
    ProviderConfig,
    TestCase,
    assess_functional,
    assess_structure,
    build_mot_prompt,
    complete,
)

problem = Problem(
    id="demo-1",
    statement="Read two integers on one line and print the larger one.",
    solutions=["a, b = map(int, input().split())\nprint(a if a > b else b)"],
    tests=[TestCase("3 9\n", "9\n"), TestCase("5 2\n", "5\n")],
)

prompt = build_mot_prompt(problem, problem.solutions[0])
print("prompt tag:", prompt.tag.value)
print("prompt length:", len(prompt.user), "chars; user text starts:")
print("  " + prompt.user[:120].replace("\n", "\n  ") + "...\n")

# the mock provider answers offline by re-emitting the embedded solution in
# the two-step format; a real run would point an HttpProvider at an endpoint
completion = complete(prompt, ProviderConfig(model_name="demo-mock"), provider=MockProvider())
print("mock response:")
print(completion.text)

structure, solution = assess_structure(completion.text)
print("outline:", [s.name for s in solution.outline])
print("structural check:", structure.verdict.value)

result, verdict = assess_functional(solution, problem)
print("functional check:", result.verdict.value,
      f"(all {len(verdict.per_test)} tests matched)" if verdict.passed else result.detail)

# --- what the rejection markers look like --------------------------------------
bad_responses = {
    "implementation before the outline":
        "```python\nprint('eager')\n```\n### STEP 1\n\ndef f():\n    \"\"\"D.\"\"\"\n"
        "\n### STEP 2\n\n```python\nprint(1)\n```\n",
    "no sub-modules outlined":
        "### STEP 1\n\n(nothing)\n\n### STEP 2\n\n```python\nprint(1)\n```\n",
    "two final code blocks":
        "### STEP 1\n\ndef f():\n    \"\"\"D.\"\"\"\n\n### STEP 2\n\n"
        "```python\na = 1\n```\n```python\nprint(a)\n```\n",
}
print()
for label, raw in bad_responses.items():
    outcome, _ = assess_structure(raw)
    print(f"{label:<36} -> {outcome.marker.value}")
