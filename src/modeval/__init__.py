"""modeval: modular-code transformation and evaluation toolkit.

Library surface re-exported here; see the README and demos/ for tours of
each capability.  The ``modeval`` console script drives the full pipeline.
"""

from .codemetrics import (
    CodeMetrics,
    analyze,
    cyclomatic_complexity,
    function_count,
    halstead_volume,
    maintainability_index,
    sloc_and_comments,
    tokenize,
)
from .corpus import (
    Corpus,
    CorpusError,
    Difficulty,
    Problem,
    Split,
    TestCase,
    corpus_stats,
    dedup_against,
    load_corpus,
    save_corpus,
    select_solutions,
)
from .evaluate import (
    CandidateRow,
    EvalReport,
    ReflectionTrace,
    evaluate_corpus,
    function_accuracy_profile,
    mi_profile,
    pass_at_k,
    resource_profile,
    self_reflect,
)
from .llm_client import (
    Completion,
    HttpProvider,
    MockProvider,
    ProviderConfig,
    ProviderError,
    ResponseCache,
    complete,
    complete_batch,
)
from .promptgen import (
    ModularSolution,
    ParseError,
    Prompt,
    PromptTag,
    SubModule,
    build_clean_prompt,
    build_direct_prompt,
    build_mot_prompt,
    build_reflection_prompt,
    parse_code_response,
    parse_mot_response,
    render_modular_solution,
)
from .sandbox import (
    ComparePolicy,
    ExecStatus,
    ExecutionReport,
    InfrastructureError,
    Judge,
    JudgeVerdict,
    ResourceLimits,
    VerdictCache,
    compare_output,
    judge,
    judge_batch,
    run_once,
)
from .validator import (
    AssessmentResult,
    FilterRecord,
    Marker,
    Verdict,
    assess_clean,
    assess_functional,
    assess_structure,
    filter_pass_rate,
)

__version__ = "0.1.0"
