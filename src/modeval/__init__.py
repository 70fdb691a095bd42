"""modeval: modular-code transformation and evaluation toolkit.

Library surface re-exported here; see the README and demos/ for tours of
each capability.  The ``modeval`` console script drives the full pipeline.

The surface is lazy (PEP 562): ``import modeval`` loads no layer, and
``modeval.X`` or ``from modeval import X`` imports only the module that
defines ``X``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "codemetrics": ["CodeMetrics", "analyze", "maintainability_index", "tokenize"],
    "corpus": ["Corpus", "CorpusError", "Difficulty", "Problem", "Split", "TestCase",
               "corpus_stats", "dedup_against", "load_corpus"],
    "evaluate": ["CandidateRow", "EvalReport", "ReflectionTrace", "evaluate_corpus",
                 "function_accuracy_profile", "mi_profile", "pass_at_k", "resource_profile",
                 "self_reflect"],
    "llm_client": ["Completion", "HttpProvider", "MockProvider", "ProviderError",
                   "ResponseCache", "complete", "complete_batch"],
    "promptgen": ["ModularSolution", "ParseError", "Prompt", "PromptTag", "SubModule",
                  "build_clean_prompt", "build_direct_prompt", "build_mot_prompt",
                  "build_reflection_prompt", "parse_code_response", "parse_mot_response",
                  "render_modular_solution"],
    "sandbox": ["ExecStatus", "ExecutionReport", "Judge", "JudgeVerdict", "VerdictCache",
                "compare_output", "judge", "judge_batch", "run_once"],
    # re-exported by llm_client (ProviderConfig) and sandbox (the rest) as well
    "settings": ["ComparePolicy", "InfrastructureError", "ProviderConfig", "ResourceLimits"],
    "validator": ["AssessmentResult", "FilterRecord", "Marker", "assess_clean",
                  "assess_structure", "assess_verdict", "filter_pass_rate"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
