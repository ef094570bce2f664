"""specverify: a speculative-decoding verification lab.

Strict exact-match and margin-aware relaxed verification over deterministic
synthetic target/draft model pairs or replayed logit traces, with acceptance
length, relaxation, and cost-model speedup measurement.
"""

from .analysis import AnalysisReport, analyze_trace, write_report
from .engine import (
    CostModel,
    DecodeConfig,
    DecodeMetrics,
    agreement_rate,
    decode,
    greedy_decode,
    simulated_speedup,
)
from .experiment import ExperimentSpec, run_point, spec_from_file, sweep_rows
from .logits import TopTwo, adaptive_margin_check, logit_ratio, softmax, top_two
from .models import (
    AdversarialDraftModel,
    PerturbedDraftConfig,
    PerturbedDraftModel,
    ScoringModel,
    SyntheticTargetConfig,
    SyntheticTargetModel,
    build_draft_tree,
    draft_chain,
)
from .trace import (
    TraceFile,
    TraceFormatError,
    TraceHeader,
    TraceRecord,
    TraceRecorder,
    read_trace,
    replay_verify,
    write_trace,
)
from .verify import (
    DEFAULT_THETA,
    CycleResult,
    Decision,
    PositionDecision,
    TreeNode,
    VerificationPolicy,
    verify_chain,
    verify_tree,
)

__version__ = "0.1.0"

__all__ = [
    "AdversarialDraftModel",
    "AnalysisReport",
    "CostModel",
    "CycleResult",
    "Decision",
    "DecodeConfig",
    "DecodeMetrics",
    "DEFAULT_THETA",
    "ExperimentSpec",
    "PerturbedDraftConfig",
    "PerturbedDraftModel",
    "PositionDecision",
    "ScoringModel",
    "SyntheticTargetConfig",
    "SyntheticTargetModel",
    "TopTwo",
    "TraceFile",
    "TraceFormatError",
    "TraceHeader",
    "TraceRecord",
    "TraceRecorder",
    "TreeNode",
    "VerificationPolicy",
    "adaptive_margin_check",
    "agreement_rate",
    "analyze_trace",
    "build_draft_tree",
    "decode",
    "draft_chain",
    "greedy_decode",
    "logit_ratio",
    "read_trace",
    "replay_verify",
    "run_point",
    "simulated_speedup",
    "softmax",
    "spec_from_file",
    "sweep_rows",
    "top_two",
    "verify_chain",
    "verify_tree",
    "write_report",
    "write_trace",
]
