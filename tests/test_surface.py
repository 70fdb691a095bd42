"""The lazy ``modeval`` surface serves the names the package re-exports."""

import importlib

import pytest

import modeval

from conftest import loaded_modules

# each public name, and the module it was first re-exported from
SURFACE = {
    "codemetrics": ["CodeMetrics", "analyze", "maintainability_index", "tokenize"],
    "corpus": ["Corpus", "CorpusError", "Difficulty", "Problem", "Split", "TestCase",
               "corpus_stats", "dedup_against", "load_corpus"],
    "evaluate": ["CandidateRow", "EvalReport", "ReflectionTrace", "evaluate_corpus",
                 "function_accuracy_profile", "mi_profile", "pass_at_k", "resource_profile",
                 "self_reflect"],
    "llm_client": ["Completion", "HttpProvider", "MockProvider", "ProviderConfig",
                   "ProviderError", "ResponseCache", "complete", "complete_batch"],
    "promptgen": ["ModularSolution", "ParseError", "Prompt", "PromptTag", "SubModule",
                  "build_clean_prompt", "build_direct_prompt", "build_mot_prompt",
                  "build_reflection_prompt", "parse_code_response", "parse_mot_response",
                  "render_modular_solution"],
    "sandbox": ["ComparePolicy", "ExecStatus", "ExecutionReport", "InfrastructureError", "Judge",
                "JudgeVerdict", "ResourceLimits", "VerdictCache", "compare_output", "judge",
                "judge_batch", "run_once"],
    "validator": ["AssessmentResult", "FilterRecord", "Marker", "assess_clean",
                  "assess_structure", "assess_verdict", "filter_pass_rate"],
}
NAMES = [(module, name) for module, names in SURFACE.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_name_is_its_modules_object(module, name):
    exec_ns = {}
    exec(f"from modeval import {name}", exec_ns)
    assert exec_ns[name] is getattr(importlib.import_module(f"modeval.{module}"), name)


def test_dir_and_star_import_list_every_name():
    star = {}
    exec("from modeval import *", star)
    names = {name for _, name in NAMES}
    assert names <= set(dir(modeval))
    assert names <= set(star)
    assert set(modeval.__all__) == names


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        modeval.no_such_name  # noqa: B018


def test_settings_have_one_identity():
    from modeval import llm_client, sandbox, settings

    assert sandbox.ResourceLimits is modeval.ResourceLimits is settings.ResourceLimits
    assert sandbox.ComparePolicy is settings.ComparePolicy
    assert sandbox.InfrastructureError is settings.InfrastructureError
    assert llm_client.ProviderConfig is modeval.ProviderConfig is settings.ProviderConfig


def test_import_is_lazy_and_submodules_still_import():
    before = loaded_modules("import modeval")
    assert not {m for m in before if m.startswith("modeval.")}
    assert hasattr(modeval, "__version__")
    # an unknown name falls through to the import system, which finds the submodule
    after = loaded_modules("from modeval import cli\nassert cli.__name__ == 'modeval.cli'")
    assert "modeval.cli" in after and "modeval.sandbox" not in after
    # a name loads only the module that defines it, and what that module imports
    assert "modeval.sandbox" not in loaded_modules("from modeval import pass_at_k")


def test_structural_checks_load_no_sandbox():
    # m1-m4 load no sandbox: m4 reads a verdict that the caller judged
    assert "modeval.sandbox" not in loaded_modules(
        "from modeval import assess_structure, assess_verdict")
