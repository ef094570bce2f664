"""Deterministic seeded synthetic scoring models.

The target is an order-m hash-table model: the last m context tokens plus the
seed select a PCG64 stream, and the per-token scores are Gumbel-shaped draws
scaled by `logit_spread` and shifted by `logit_offset`. The Gumbel shape gives
the top-2 gap enough dispersion that, at the default constants, roughly a
third of steps land in the r > 0.9 relaxation zone while the top-1 logit
stays positive, around 10.

The draft model adds seeded Gaussian noise of scale sigma to the target's
logits; sigma = 0 reproduces the target exactly and larger sigma degrades
alignment monotonically. Everything is a pure function of declared seeds.

Since a score depends only on the last m tokens, each model instance memoises
its logit vectors by window, up to MEMO_FLOATS floats; windows beyond that are
computed without being stored. An entry also keeps the window's top-2 and its
sampling CDF at the last temperature, each derived on first use. Returned
arrays are read-only, so a caller's in-place edit raises instead.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .logits import TopTwo, softmax, top_two
from .verify import TreeNode

DEFAULT_VOCAB_SIZE = 64
DEFAULT_ORDER = 2
DEFAULT_LOGIT_OFFSET = 0.5
DEFAULT_LOGIT_SPREAD = 2.0
DEFAULT_NOISE_SCALE = 0.5
MAX_TREE_LEAVES = 200_000
# Logit floats each model instance memoises (8 bytes each, about 1 MiB):
# 2048 windows at the default vocabulary of 64.
MEMO_FLOATS = 2**17

_TARGET_SALT = 0x54474554  # "TGET"
_DRAFT_SALT = 0x44524654  # "DRFT"


class ScoringModel(Protocol):
    """Anything that scores a context into a logit vector over a fixed vocabulary."""

    @property
    def vocab_size(self) -> int: ...

    @property
    def order(self) -> int: ...

    def score(self, context: Sequence[int]) -> np.ndarray: ...


def check_seed(name: str, seed: int) -> None:
    """Seeds are packed as signed 64-bit integers (see window_rng)."""
    if not -(2**63) <= seed < 2**63:
        raise ValueError(f"field '{name}': {seed} is outside the signed 64-bit range")


@dataclass(frozen=True)
class SyntheticTargetConfig:
    seed: int
    vocab_size: int = DEFAULT_VOCAB_SIZE
    order: int = DEFAULT_ORDER
    logit_offset: float = DEFAULT_LOGIT_OFFSET
    logit_spread: float = DEFAULT_LOGIT_SPREAD

    def __post_init__(self) -> None:
        check_seed("seed", self.seed)
        if self.vocab_size < 2:
            raise ValueError("field 'vocab_size': must be >= 2")
        if self.order < 1:
            raise ValueError("field 'order': must be >= 1")
        if not np.isfinite(self.logit_offset):
            raise ValueError(f"field 'logit_offset': {self.logit_offset} is not finite")
        if not 0 < self.logit_spread < np.inf:
            raise ValueError(f"field 'logit_spread': {self.logit_spread} must be finite and > 0")


@dataclass(frozen=True)
class PerturbedDraftConfig:
    noise_seed: int
    noise_scale: float = DEFAULT_NOISE_SCALE

    def __post_init__(self) -> None:
        check_seed("noise_seed", self.noise_seed)
        if not 0 <= self.noise_scale < np.inf:
            raise ValueError(f"field 'noise_scale': {self.noise_scale} must be finite and >= 0")


def pack_tokens(tokens: Sequence[int]) -> bytes:
    """Integers packed as little-endian int64: the one byte encoding behind
    window seeds and trace context hashes."""
    return struct.pack(f"<{len(tokens)}q", *tokens)


def check_tree_size(branching: int, depth: int) -> None:
    """Reject a branching^depth leaf tree over MAX_TREE_LEAVES without computing
    the power, which is unbounded for large depth. With branching >= 2 the
    loop ends within log2(MAX_TREE_LEAVES) steps. A branching-1 tree is a
    chain with one leaf, so its depth (its node count) is what is bounded."""
    if branching == 1:
        if depth > MAX_TREE_LEAVES:
            raise ValueError(
                f"a branching-1 tree of depth {depth} exceeds the {MAX_TREE_LEAVES}-node limit"
            )
        return
    leaves = 1
    for _ in range(depth):
        leaves *= branching
        if leaves > MAX_TREE_LEAVES:
            raise ValueError(
                f"a tree of {branching}^{depth} leaves exceeds the {MAX_TREE_LEAVES}-leaf limit"
            )


def window_rng(seed: int, window: Sequence[int], salt: int) -> np.random.Generator:
    """PCG64 stream keyed by (seed, salt, token window) via blake2b.

    Stable across platforms and processes; never uses Python's salted hash().
    """
    h = hashlib.blake2b(pack_tokens((seed, salt, *window)), digest_size=16)
    return np.random.Generator(np.random.PCG64(int.from_bytes(h.digest(), "little")))


def _check_context(context: Sequence[int], vocab_size: int) -> None:
    for tok in context:
        if not 0 <= tok < vocab_size:
            raise ValueError(f"context token {tok} out of vocabulary range [0, {vocab_size})")


def softmax_cdf(z: np.ndarray, temperature: float) -> np.ndarray:
    """The read-only CDF Generator.choice(p.size, p=p) draws from, p = softmax(z, temperature)."""
    cdf = softmax(z, temperature).cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


class _MemoisedModel:
    """The window memo of a model whose subclass keeps a `_memo` dict and computes
    `_window_logits(window)`. An entry is [logits, TopTwo or None, temperature, CDF or None]."""

    def _entry(self, window: tuple[int, ...]) -> list:
        entry = self._memo.get(window)
        if entry is None:
            z = self._window_logits(window)
            z.flags.writeable = False
            entry = [z, None, None, None]
            if (len(self._memo) + 1) * z.size <= MEMO_FLOATS:
                self._memo[window] = entry
        return entry

    def _context_entry(self, context: Sequence[int]) -> list:
        _check_context(context, self.vocab_size)
        return self._entry(tuple(context[-self.order :]))

    def score(self, context: Sequence[int]) -> np.ndarray:
        return self._context_entry(context)[0]

    def top_two(self, context: Sequence[int]) -> TopTwo:
        """top_two(self.score(context)), derived once per memoised window."""
        entry = self._context_entry(context)
        if entry[1] is None:
            entry[1] = top_two(entry[0])
        return entry[1]

    def sample_cdf(self, context: Sequence[int], temperature: float) -> np.ndarray:
        """softmax_cdf(self.score(context), temperature); a new temperature replaces it."""
        entry = self._context_entry(context)
        if entry[2] != temperature:
            entry[2:] = temperature, softmax_cdf(entry[0], temperature)
        return entry[3]


class SyntheticTargetModel(_MemoisedModel):
    """Order-m seeded table model emitting Gumbel-shaped logits."""

    def __init__(self, config: SyntheticTargetConfig):
        self.config = config
        self._memo: dict[tuple[int, ...], list] = {}

    @property
    def vocab_size(self) -> int:
        return self.config.vocab_size

    @property
    def order(self) -> int:
        return self.config.order

    def _window_logits(self, window: tuple[int, ...]) -> np.ndarray:
        cfg = self.config
        rng = window_rng(cfg.seed, window, _TARGET_SALT)
        u = np.maximum(rng.random(cfg.vocab_size), 1e-12)
        gumbel = -np.log(-np.log(u))
        return cfg.logit_offset + cfg.logit_spread * gumbel


class PerturbedDraftModel(_MemoisedModel):
    """Draft model: target logits plus seeded Gaussian noise of scale sigma."""

    def __init__(self, target: SyntheticTargetModel, config: PerturbedDraftConfig):
        self.target = target
        self.config = config
        self._memo: dict[tuple[int, ...], list] = {}

    @property
    def vocab_size(self) -> int:
        return self.target.vocab_size

    @property
    def order(self) -> int:
        return self.target.order

    def _window_logits(self, window: tuple[int, ...]) -> np.ndarray:
        z = self.target._entry(window)[0]
        if self.config.noise_scale == 0:
            return z
        rng = window_rng(self.config.noise_seed, window, _DRAFT_SALT)
        return z + self.config.noise_scale * rng.standard_normal(self.vocab_size)


class AdversarialDraftModel:
    """Drafter that always proposes the target's third-ranked token.

    Every proposal falls outside the target top-2, so every cycle is rejected
    at position 1 and tau pins to its floor of 1.0.
    """

    def __init__(self, target: SyntheticTargetModel):
        if target.vocab_size < 3:
            raise ValueError("adversarial drafter needs vocab_size >= 3")
        self.target = target

    @property
    def vocab_size(self) -> int:
        return self.target.vocab_size

    @property
    def order(self) -> int:
        return self.target.order

    def score(self, context: Sequence[int]) -> np.ndarray:
        z = self.target.score(context)
        order = np.lexsort((np.arange(z.size), -z))
        out = np.zeros_like(z)
        out[order[2]] = 1.0
        return out


def draft_chain(
    model: ScoringModel,
    context: Sequence[int],
    k: int,
    temperature: float = 1.0,
    mode: str = "greedy",
    rng: int | np.random.Generator | None = None,
) -> list[int]:
    """Autoregressively draft k tokens from the model.

    mode "greedy" takes the argmax at each step; mode "sample" draws from
    softmax(logits, temperature) using the given seed or generator, fully
    reproducibly. The whole context is scored once; after that only the
    model's last `order` tokens are kept, so a chain costs time linear in k.
    """
    if k < 1:
        raise ValueError(f"draft length k must be >= 1, got {k}")
    if mode not in ("greedy", "sample"):
        raise ValueError(f"unknown draft mode {mode!r}")
    if mode == "sample":
        gen = np.random.default_rng(rng)
        # a model that only scores gets the same CDF, derived from its score
        cdf = getattr(model, "sample_cdf", None) or (lambda c, t: softmax_cdf(model.score(c), t))
    ctx = list(context)
    out: list[int] = []
    for _ in range(k):
        if mode == "greedy":
            tok = int(model.score(ctx).argmax())
        else:
            # Generator.choice(p.size, p=p)'s own draw, without re-checking p
            tok = int(cdf(ctx, temperature).searchsorted(gen.random(), side="right"))
        out.append(tok)
        ctx.append(tok)
        del ctx[: -model.order]
    return out


def build_draft_tree(
    model: ScoringModel,
    context: Sequence[int],
    branching: int,
    depth: int,
) -> list[TreeNode]:
    """Draft a full branching^depth token tree of the model's top candidates.

    Children at each node are the top-`branching` tokens (logit-descending,
    ties by smallest id), so the first-child path is the greedy chain. The
    tree is built level by level without recursion, and below the root each
    scored context is only the model's last `order` tokens, so a deep
    branching-1 tree costs time linear in its depth.
    """
    if branching < 1:
        raise ValueError("branching must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    check_tree_size(branching, depth)
    # a node has one child per token, so there are at most vocab_size of them
    width = min(branching, model.vocab_size)

    def candidates(ctx: list[int]) -> list[int]:
        z = model.score(ctx)
        return [int(tok) for tok in np.lexsort((np.arange(z.size), -z))[:width]]

    # each level's (parent context, token) pairs, breadth-first in parent order
    root = list(context)
    levels = [[(root, tok) for tok in candidates(root)]]
    while len(levels) < depth:
        contexts = [(ctx + [tok])[-model.order :] for ctx, tok in levels[-1]]
        levels.append([(ctx, tok) for ctx in contexts for tok in candidates(ctx)])
    nodes = [TreeNode(tok) for _, tok in levels.pop()]
    for level in reversed(levels):
        nodes = [
            TreeNode(tok, tuple(nodes[i * width : (i + 1) * width]))
            for i, (_, tok) in enumerate(level)
        ]
    return nodes
