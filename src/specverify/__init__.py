"""specverify: a speculative-decoding verification lab.

Strict exact-match and margin-aware relaxed verification over deterministic
synthetic target/draft model pairs or replayed logit traces, with acceptance
length, relaxation, and cost-model speedup measurement.
"""

from .engine import DecodeConfig, decode
from .models import (
    PerturbedDraftConfig, PerturbedDraftModel, SyntheticTargetConfig, SyntheticTargetModel,
)
from .verify import VerificationPolicy

__version__ = "0.1.0"
