"""Draft-verify decode loop with cycle accounting and an analytic cost model.

Each cycle drafts K tokens (or a token tree), scores the target at the K+1
positions needed for verification plus the bonus token, verifies, and commits.
The K+1 target scorings of a cycle are billed as ONE target pass — the
parallel-verification abstraction — so vanilla decoding costs one pass per
token while speculative decoding costs one pass plus K draft steps per cycle.
Simulated speedup is committed / (cycles * (1 + K * c_draft)), with c_draft in
target passes, i.e. tau / (1 + K * c_draft); no wall-clock claims are made.

The rule discards the draft after its first rejection, so a chain cycle
drafts and verifies one position at a time and stops there: it drafts and
scores only the positions it reaches, and scores the bonus position only
after K acceptances. Its outputs and bill are those of drafting all K: a
sampled cycle still draws its K uniforms up front, and K draft steps are
billed. A recorded cycle drafts all K and scores all K+1 positions, because
the trace records them.

A tree cycle is billed for the full tree_top_k-ary draft tree of depth K, but
verification follows one path of it, so decode walks only that path: at each
depth it ranks the draft's tokens at the path's window, and follows the
target's v1 if it is a child, else its v2 if the rule relaxes it, else
rejects the first child. Both modes' (token, top-2) pairs are decided by the
one loop, verify.decide_chain.

Cycles are atomic: decode stops after the first cycle that reaches max_tokens
committed, so the output can exceed max_tokens by up to K tokens. This keeps
tau exact (e.g. the K+1 ceiling with a perfectly aligned drafter).

A cycle that draws no random numbers (greedy chain drafting, and tree mode) is
a function of its context tail alone, and a greedy decode falls into a
periodic orbit of few tails. So decode decides each distinct deterministic
cycle once: it keeps the cycle's result, and with a recorder the top-k list
id (from recorder.lists), chosen draft and packed draft of each of its K+1
records, keyed by the tail, and replays them when the tail comes back. The
memo is one decode's, and holds at most CYCLE_MEMO_TOKENS window tokens. A
recorder gets one call per cycle, with the context hash digests of its
records from the running hasher, and numbers the records itself.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from . import verify
from .models import (
    MAX_TREE_LEAVES, ScoringModel, check_tree_size, check_types, draft_walk, pack_tokens, window_reader,
)
from .models import draft_chain  # noqa: F401  (perfbench traces engine.draft_chain)
from .verify import CycleResult, Decision, VerificationPolicy, decide_position
from .verify import verify_chain  # noqa: F401  (perfbench traces engine.verify_chain)

DEFAULT_COST_RATIO = 0.05
# Window tokens the cycle memo of one decode holds before it is cleared: an
# entry counts its tail and its K+1 records as `window` tokens each. At the
# default order 2 and K 7 that is 3640 cycles; an entry that alone exceeds it
# turns the memo off.
CYCLE_MEMO_TOKENS = 2**16

# decode's recorder: recorder.lists(vectors) ranks a decided cycle's K+1 target
# vectors into top-k list ids, and recorder(lists, drafts, digests) records a
# cycle as the next K+1 steps (trace.TraceRecorder)
if TYPE_CHECKING:
    from .trace import TraceRecorder as Recorder


def context_hasher(tokens: Sequence[int]) -> hashlib.blake2b:
    """Running context hash: blake2b (digest size 8) over the packed tokens.
    update() with more packed tokens extends it; copy() forks it."""
    return hashlib.blake2b(pack_tokens(tokens), digest_size=8)


@dataclass(frozen=True)
class CostModel:
    """Declared cost of a draft-token forward step, c_draft, in units of one
    parallel verification pass of the target."""

    c_draft: float = DEFAULT_COST_RATIO

    def __post_init__(self) -> None:
        check_types(self)
        if not 0 <= self.c_draft < np.inf:
            raise ValueError(f"field 'c_draft': {self.c_draft} must be finite and >= 0")


@dataclass(frozen=True)
class DecodeConfig:
    policy: VerificationPolicy
    k: int = 7
    max_tokens: int = 256
    temperature: float = 1.0
    seed: int = 0
    draft_mode: str = "greedy"
    stop_token: int | None = None
    mode: str = "chain"
    tree_top_k: int = 2

    def __post_init__(self) -> None:
        check_types(self)
        if not 1 <= self.k < 2**63:
            raise ValueError(f"field 'k': {self.k} not in [1, 2^63)")
        if self.mode == "chain" and self.k > MAX_TREE_LEAVES:
            # the bound on a branching-1 tree, which is a chain
            raise ValueError(f"field 'k': {self.k} exceeds the {MAX_TREE_LEAVES}-token limit")
        if self.max_tokens < 1:
            raise ValueError(f"field 'max_tokens': {self.max_tokens} must be >= 1")
        if not 0 < self.temperature < np.inf:
            raise ValueError(f"field 'temperature': {self.temperature} must be finite and > 0")
        if not 0 <= self.seed < 2**63:
            raise ValueError(f"field 'seed': {self.seed} not in [0, 2^63)")
        if self.draft_mode not in ("greedy", "sample"):
            raise ValueError(f"field 'draft_mode': unknown value {self.draft_mode!r}")
        if self.mode not in ("chain", "tree"):
            raise ValueError(f"field 'mode': unknown value {self.mode!r}")
        if self.tree_top_k < 1:
            raise ValueError(f"field 'tree_top_k': {self.tree_top_k} must be >= 1")
        if self.mode == "tree":
            try:
                check_tree_size(self.tree_top_k, self.k)
            except ValueError as exc:
                raise ValueError(f"field 'tree_top_k': {exc}") from None


@dataclass(frozen=True)
class DecodeMetrics:
    cycles: int
    total_committed: int
    tau: float
    exact_count: int
    relaxed_count: int
    rejected_count: int
    bonus_count: int
    target_passes: int
    draft_steps: int
    simulated_speedup: float
    agreement_rate: float | None = None


def simulated_speedup(total_committed: int, cycles: int, cost: CostModel, k: int) -> float:
    """Vanilla autoregressive cost over speculative cost under the declared model."""
    if cycles < 1:
        raise ValueError("speedup is undefined before the first cycle completes")
    return total_committed / (cycles * (1 + k * cost.c_draft))


def agreement_rate(output_a: Sequence[int], output_b: Sequence[int]) -> float:
    """Positional token-match fraction over the shorter of the two sequences."""
    if len(output_a) == 0 or len(output_b) == 0:
        raise ValueError("agreement_rate needs non-empty sequences")
    n = min(len(output_a), len(output_b))
    hits = sum(1 for a, b in zip(output_a, output_b) if a == b)
    return hits / n


def check_prompt(prompt: Sequence[int], vocab_size: int) -> None:
    """Prompts are checked once, whole: scoring sees only the last tokens."""
    if len(prompt) == 0:
        raise ValueError("prompt must be non-empty")
    for tok in prompt:
        if not isinstance(tok, (int, np.integer)):
            raise ValueError(f"prompt token {tok!r} is not an integer")
        if not 0 <= tok < vocab_size:
            raise ValueError(f"prompt token {tok} out of vocabulary range")


def greedy_decode(target: ScoringModel, prompt: Sequence[int], n_tokens: int) -> list[int]:
    """Plain autoregressive argmax decode of the target alone."""
    reader = window_reader(target)  # a score-only adapter checks its vocab_size here
    check_prompt(prompt, reader.vocab_size)
    if n_tokens < 1:
        raise ValueError("n_tokens must be >= 1")
    w, out = reader.fold(prompt), []
    for _ in range(n_tokens):
        tok = int(reader.logits_at(w).argmax())
        out.append(tok)
        w = reader.step(w, tok)
    return out


def metrics_from_cycles(
    results: Sequence[CycleResult], total_committed: int, draft_steps: int, cost: CostModel, k: int
) -> DecodeMetrics:
    """Tally decision labels and bonus tokens over a run's cycles into its metrics."""
    labels = Counter(d.label for result in results for d in result.decisions)
    bonus_count = sum(result.bonus_token is not None for result in results)
    return metrics_from_counts(len(results), total_committed, labels, bonus_count, draft_steps, cost, k)


def metrics_from_counts(
    cycles: int, total_committed: int, labels: Mapping[Decision, int], bonus_count: int,
    draft_steps: int, cost: CostModel, k: int,
) -> DecodeMetrics:
    """A run's metrics from its cycle, committed-token, decision-label and bonus counts."""
    speedup = simulated_speedup(total_committed, cycles, cost, k)
    return DecodeMetrics(
        cycles=cycles,
        total_committed=total_committed,
        tau=total_committed / cycles,
        exact_count=labels[Decision.EXACT],
        relaxed_count=labels[Decision.RELAXED],
        rejected_count=labels[Decision.REJECTED],
        bonus_count=bonus_count,
        target_passes=cycles,
        draft_steps=draft_steps,
        simulated_speedup=speedup,
    )


def decode(
    target: ScoringModel,
    draft: ScoringModel,
    config: DecodeConfig,
    prompt: Sequence[int],
    cost: CostModel = CostModel(),
    recorder: Recorder | None = None,
    cycle_sink: list[CycleResult] | None = None,
) -> tuple[list[int], DecodeMetrics]:
    """Run the full draft-verify loop; returns (committed tokens, metrics).

    The returned sequence is the generated continuation (the prompt is not
    included). Fully deterministic given the models' seeds and config.seed.
    cycle_sink, when given, collects every cycle's CycleResult.

    The models read only their last `order` tokens, so drafting and scoring
    see only the last max(target.order, draft.order) context tokens, and the
    recorder gets a running hash of the context rather than the context:
    the cost per token does not grow with the context.
    """
    # one reader per model for every cycle; a score-only adapter checks vocab_size and order here
    reader, draft_reader = window_reader(target), window_reader(draft)
    check_prompt(prompt, reader.vocab_size)
    if reader.vocab_size != draft_reader.vocab_size:
        raise ValueError("target and draft must share a vocabulary")
    if config.stop_token is not None and not 0 <= config.stop_token < reader.vocab_size:
        raise ValueError(f"stop_token {config.stop_token} out of vocabulary range")
    if recorder is not None and config.mode != "chain":
        raise ValueError("field 'mode': trace recording requires chain mode")

    window = max(target.order, draft.order)
    step, top_two_at, logits_at = reader.step, reader.top_two_at, reader.logits_at
    k, policy = config.k, config.policy
    ctx = list(prompt)
    hasher = context_hasher(ctx) if recorder is not None else None
    gen = np.random.default_rng(config.seed)
    results: list[CycleResult] = []
    done = False
    if config.mode == "chain":
        steps_per_cycle = k
    else:
        # a node of the full tree has at most vocab_size children, and the bill counts them all
        width = min(config.tree_top_k, target.vocab_size)
        steps_per_cycle = sum(width**d for d in range(1, k + 1))
    # sampled drafting draws from gen, so only greedy chain and tree cycles are kept
    deterministic = config.mode == "tree" or config.draft_mode == "greedy"
    cap = CYCLE_MEMO_TOKENS // ((k + 2) * window)
    memo: dict[tuple[int, ...], tuple] | None = {} if deterministic and cap else None

    def tree_path(tail: list[int], ids: list[int]):
        """The (token, target top-2) pairs of the path verification follows
        through the full tree, whose children at a node are the draft's
        top-`width` tokens there, logit-descending and ties by smallest id."""
        d = draft_reader.window_id(tail)
        for _ in range(k):
            top = top_two_at(ids[-1])
            z = draft_reader.logits_at(d)
            children = np.lexsort((np.arange(z.size), -z))[:width].tolist()
            # the first of v1 and v2 that is a child the rule accepts, else the first child
            accepted = (v for v in (top.v1, top.v2) if v in children
                        and decide_position(top, v, policy).label is not Decision.REJECTED)
            tok = next(accepted, children[0])
            yield tok, top
            ids.append(step(ids[-1], tok))
            d = draft_reader.step(d, tok)

    def decide(tail: list[int]) -> tuple[CycleResult, list]:
        """A cycle's result, and with a recorder its K+1 records' top-k list
        ids, chosen drafts and packed drafts."""
        # the target's window ids at the positions reached: the tail, then each draft
        ids = [reader.fold(tail)]

        def chain_positions():
            for tok in drafts:
                yield tok, top_two_at(ids[-1])
                ids.append(step(ids[-1], tok))

        if config.mode == "tree":
            positions = tree_path(tail, ids)
        else:
            drafts = draft_walk(draft_reader, tail, k, config.temperature, config.draft_mode, gen)
            if recorder is not None:
                drafts = list(drafts)  # the trace records every draft
            positions = chain_positions()
        # through the module, so a wrapper on verify.decide_chain sees live cycles
        result = verify.decide_chain(positions, policy, lambda: top_two_at(ids[-1]).v1)
        rows = []
        if recorder is not None:
            for tok in drafts[len(ids) - 1 :]:  # the positions past a rejection
                ids.append(step(ids[-1], tok))
            rows = recorder.lists(map(logits_at, ids)), [*drafts, None], [pack_tokens((t,)) for t in drafts]
        return result, rows

    while not done and len(ctx) - len(prompt) < config.max_tokens:
        tail = ctx[-window:]
        cycle = None
        if memo is not None:
            cycle = memo.get(key := tuple(tail))
        if cycle is None:
            cycle = decide(tail)
            if memo is not None:
                if len(memo) >= cap:
                    memo.clear()
                memo[key] = cycle
        result, rows = cycle
        if recorder is not None:
            lists, chosen, packed = rows
            prefix = hasher.copy()
            digests = [prefix.digest()]
            for tok in packed:
                prefix.update(tok)
                digests.append(prefix.digest())
            recorder(lists, chosen, b"".join(digests))

        results.append(result)
        if cycle_sink is not None:
            cycle_sink.append(result)
        committed = list(result.committed_tokens)
        if config.stop_token is not None and config.stop_token in committed:
            committed = committed[: committed.index(config.stop_token) + 1]
            done = True
        ctx.extend(committed)
        if hasher is not None:
            hasher.update(pack_tokens(committed))

    out = ctx[len(prompt) :]
    draft_steps = steps_per_cycle * len(results)
    return out, metrics_from_cycles(results, len(out), draft_steps, cost, k)
