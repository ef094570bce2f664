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

decide_chain is the one loop that decides cycles, chain and tree alike: tree
mode (see engine.decode) walks only the path it verifies and hands the loop
that path's (token, top-2) pairs, as a chain cycle hands its drafts'.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .logits import TopTwo, adaptive_margin_check, check_theta, top_two

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
        check_theta(self.theta)
        if self.kind == "strict":  # a strict rule reads no theta, so every strict policy is one
            object.__setattr__(self, "theta", 1.0)

    @classmethod
    def strict(cls) -> "VerificationPolicy":
        return cls(kind="strict")

    @classmethod
    def margin_aware(cls, theta: float = DEFAULT_THETA) -> "VerificationPolicy":
        return cls(kind="margin", theta=theta)


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


def decide_chain(
    positions: Iterable[tuple[int, TopTwo]],
    policy: VerificationPolicy,
    bonus_top1: Callable[[], int | None],
) -> CycleResult:
    """The chain loop behind every chain verification: decide each (draft
    token, target top-2) pair left to right and stop at the first rejection,
    so a lazy `positions` is read no further than that. On full acceptance
    the bonus token is bonus_top1(), called only then."""
    decisions: list[PositionDecision] = []
    for tok, top in positions:
        decisions.append(decide_position(top, int(tok), policy))
        if decisions[-1].label is Decision.REJECTED:
            return CycleResult(tuple(decisions), None)
    return CycleResult(tuple(decisions), bonus_top1())


def verify_top_two_chain(
    draft: Sequence[int],
    top_twos: Sequence[TopTwo],
    policy: VerificationPolicy,
    bonus_top1: int | None = None,
) -> CycleResult:
    """Chain verification given precomputed per-position top-2 statistics.

    This is decide_chain for drafts and top-2s in hand, as trace replay
    (recorded top-k) and verify_chain (full logit vectors) have them.
    """
    if len(draft) != len(top_twos):
        raise ValueError(
            f"draft length {len(draft)} != target positions {len(top_twos)}"
        )
    if len(draft) == 0:
        raise ValueError("cannot verify an empty draft")
    return decide_chain(
        zip(draft, top_twos), policy, lambda: None if bonus_top1 is None else int(bonus_top1)
    )


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
