"""Verification policies for drafted tokens: strict exact-match and margin-aware.

A cycle verifies K drafted tokens against the target's per-position logits,
scanning left to right:

  * exact match  — the draft equals the target top-1: accept.
  * relaxed      — margin-aware only: the draft equals the target top-2 and
                   the logit ratio exceeds theta: accept the runner-up.
  * rejected     — anything else: emit the target top-1 as correction and
                   discard the rest of the draft.

If all K positions are accepted, a bonus token (argmax of a (K+1)-th target
vector supplied by the caller) is appended, so a cycle commits between 1 and
K+1 tokens. Margin-aware with theta = 1.0 is decision-identical to strict,
because the ratio never exceeds 1.

A simplified greedy-path tree verifier is also provided. It applies the same
decide_position rule to every child at each depth: the first exact child is
followed, else the first relaxed child, else the first child is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .logits import TopTwo, adaptive_margin_check, top_two
from .models import TreeNode, window_reader

DEFAULT_THETA = 0.9


class Decision(str, Enum):
    EXACT = "exact"
    RELAXED = "relaxed"
    REJECTED = "rejected"


@dataclass(frozen=True)
class VerificationPolicy:
    """Verification rule: kind "strict" or "margin", with relaxation threshold theta."""

    kind: str
    theta: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("strict", "margin"):
            raise ValueError(f"field 'policy': unknown value {self.kind!r}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"field 'theta': {self.theta} not in (0, 1]")

    @classmethod
    def strict(cls) -> "VerificationPolicy":
        return cls(kind="strict")

    @classmethod
    def margin_aware(cls, theta: float = DEFAULT_THETA) -> "VerificationPolicy":
        return cls(kind="margin", theta=theta)

    @classmethod
    def from_name(cls, kind: str, theta: float) -> "VerificationPolicy":
        """Policy by kind name; "strict" ignores theta."""
        return cls(kind) if kind == "strict" else cls(kind, theta)


@dataclass(frozen=True)
class PositionDecision:
    label: Decision
    draft_token: int
    emitted_token: int
    ratio: float | None


@dataclass(frozen=True)
class CycleResult:
    """Outcome of one draft-verify cycle: its decisions, left to right, ending at
    the first rejection, and the bonus token appended on full acceptance."""

    decisions: tuple[PositionDecision, ...]
    bonus_token: int | None

    @property
    def accepted_count(self) -> int:
        return sum(d.label is not Decision.REJECTED for d in self.decisions)

    @property
    def committed_tokens(self) -> tuple[int, ...]:
        """Accepted drafts, plus the correction (on rejection) or the bonus token."""
        emitted = tuple(d.emitted_token for d in self.decisions)
        return emitted if self.bonus_token is None else emitted + (self.bonus_token,)


def decide_position(top: TopTwo, draft_token: int, policy: VerificationPolicy) -> PositionDecision:
    """Apply the three-branch rule to a single position."""
    if draft_token == top.v1:
        return PositionDecision(Decision.EXACT, draft_token, draft_token, top.ratio)
    if (
        policy.kind == "margin"
        and draft_token == top.v2
        and adaptive_margin_check(top, policy.theta)
    ):
        return PositionDecision(Decision.RELAXED, draft_token, draft_token, top.ratio)
    return PositionDecision(Decision.REJECTED, draft_token, top.v1, top.ratio)


def verify_top_two_chain(
    draft: Sequence[int],
    top_twos: Sequence[TopTwo],
    policy: VerificationPolicy,
    bonus_top1: int | None = None,
) -> CycleResult:
    """Chain verification given precomputed per-position top-2 statistics.

    This is the decision core shared by live verification (full logit
    vectors) and trace replay (recorded top-k).
    """
    if len(draft) != len(top_twos):
        raise ValueError(
            f"draft length {len(draft)} != target positions {len(top_twos)}"
        )
    if len(draft) == 0:
        raise ValueError("cannot verify an empty draft")
    decisions: list[PositionDecision] = []
    for tok, top in zip(draft, top_twos):
        decisions.append(decide_position(top, int(tok), policy))
        if decisions[-1].label is Decision.REJECTED:
            return CycleResult(tuple(decisions), None)
    return CycleResult(tuple(decisions), None if bonus_top1 is None else int(bonus_top1))


def verify_chain(
    draft: Sequence[int],
    target_logits: Sequence[np.ndarray],
    policy: VerificationPolicy,
    bonus_logits: np.ndarray | None = None,
) -> CycleResult:
    """Verify a drafted chain against per-position target logit vectors.

    target_logits[i] must be the target's distribution conditioned on the
    context plus draft[0..i-1] (the caller's responsibility). bonus_logits,
    when given, is the (K+1)-th vector whose argmax becomes the bonus token
    on full acceptance.
    """
    tops = [top_two(z) for z in target_logits]
    bonus_top1 = top_two(bonus_logits).v1 if bonus_logits is not None else None
    return verify_top_two_chain(draft, tops, policy, bonus_top1)


def _validate_tree(nodes: Sequence[TreeNode], vocab_size: int) -> None:
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if not isinstance(node, TreeNode):
            raise ValueError(f"malformed tree node: {node!r}")
        if not 0 <= node.token < vocab_size:
            raise ValueError(
                f"tree token {node.token} out of vocabulary range [0, {vocab_size})"
            )
        stack.extend(node.children)


# tree walk preference among children's decisions; min() keeps the first of equals
_PREFERENCE = {Decision.EXACT: 0, Decision.RELAXED: 1, Decision.REJECTED: 2}


def verify_tree(
    roots: Sequence[TreeNode],
    target_scorer,
    context: Sequence[int],
    policy: VerificationPolicy,
) -> CycleResult:
    """Walk a token tree, greedily following the best qualifying child.

    At each depth every child is judged by decide_position; the first exact
    child is followed, else the first relaxed child. When no child qualifies
    the first child is rejected and the target top-1 is committed as
    correction; exhausting a path appends a bonus token. Result shape matches
    verify_chain. The whole context is checked once; after that each depth's
    window is read by id, so the walk is linear in depth.
    """
    if not roots:
        raise ValueError("cannot verify an empty tree")
    _validate_tree(roots, target_scorer.vocab_size)
    reader = window_reader(target_scorer)
    w = reader.window_id(context)
    children: Sequence[TreeNode] = roots
    decisions: list[PositionDecision] = []
    while children:
        top = reader.top_two_at(w)
        decision, chosen = min(
            ((decide_position(top, child.token, policy), child) for child in children),
            key=lambda pair: _PREFERENCE[pair[0].label],
        )
        decisions.append(decision)
        if decision.label is Decision.REJECTED:
            return CycleResult(tuple(decisions), None)
        w = reader.step(w, chosen.token)
        children = chosen.children
    return CycleResult(tuple(decisions), reader.top_two_at(w).v1)
