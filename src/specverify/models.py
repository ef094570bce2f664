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
its logit vectors by window. The memo is keyed by an integer window id, which
the decode loops carry from token to token (see _WindowIds), and holds at most
MEMO_FLOATS floats: an entry counts its logits and a sampling CDF, 2V floats.
When it is full, the oldest entry is evicted to make room. An entry also keeps
the window's top-2 and its sampling CDF at the last temperature, each derived
on first use. A miss rebuilds the token window from its id, so every logit is
the one the window's seed gives. Returned arrays are read-only, so a caller's
in-place edit raises instead.
"""

from __future__ import annotations

import hashlib
import operator
import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .logits import TopTwo, _softmax, _top_two, softmax, top_two

DEFAULT_VOCAB_SIZE = 64
DEFAULT_ORDER = 2
DEFAULT_LOGIT_OFFSET = 0.5
DEFAULT_LOGIT_SPREAD = 2.0
DEFAULT_NOISE_SCALE = 0.5
MAX_TREE_LEAVES = 200_000
# A window's id, its seed and the prompt grow with the order, and a run slows
# faster than linearly in it (50 tokens took about 0.5 s at order 1000 and 13 s
# at 10000 on a 2-core x86_64 machine); a huge order never returns from
# computing the id modulus.
MAX_ORDER = 1024
# Floats each model instance memoises, logits and CDFs (8 bytes each, 4 MiB):
# 4096 windows at the default vocabulary of 64, every full window at order 2.
MEMO_FLOATS = 2**19
# The largest vocabulary, 262144 tokens: the memo holds one window of it.
MAX_VOCAB = MEMO_FLOATS // 2
# The least and the greatest Gumbel draw behind a target logit: its uniform is
# clipped below at 1e-12 and is at most 1 - 2^-53 (see _window_logits).
_GUMBEL_RANGE = (-np.log(-np.log(np.array([1e-12, np.nextafter(1.0, 0.0)])))).tolist()
# numpy's ziggurat standard_normal stays below 12.23 in magnitude (a tail
# draw r + x, r = 3.654, needs x^2 < 2 * 53 ln 2); 16 leaves a margin.
_NORMAL_BOUND = 16.0

_TARGET_SALT = 0x54474554  # "TGET"
_DRAFT_SALT = 0x44524654  # "DRFT"


class ScoringModel(Protocol):
    """Anything that scores a context into a logit vector over a fixed vocabulary."""

    @property
    def vocab_size(self) -> int: ...

    @property
    def order(self) -> int: ...

    def score(self, context: Sequence[int]) -> np.ndarray: ...


@dataclass(frozen=True)
class TreeNode:
    """One drafted token and its child alternatives for the next position."""

    token: int
    children: tuple["TreeNode", ...] = field(default=())


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
        if self.vocab_size > MAX_VOCAB:
            raise ValueError(
                f"field 'vocab_size': {self.vocab_size} exceeds the {MAX_VOCAB}-token limit"
            )
        if self.order < 1:
            raise ValueError("field 'order': must be >= 1")
        if self.order > MAX_ORDER:
            raise ValueError(f"field 'order': {self.order} exceeds the {MAX_ORDER}-token limit")
        if not np.isfinite(self.logit_offset):
            raise ValueError(f"field 'logit_offset': {self.logit_offset} is not finite")
        if not 0 < self.logit_spread < np.inf:
            raise ValueError(f"field 'logit_spread': {self.logit_spread} must be finite and > 0")
        # checked once here, so that deriving a window never overflows; float
        # arithmetic gives the bits numpy's does, and inf rather than a warning
        if not np.isfinite(float(self.logit_spread) * _GUMBEL_RANGE[1]):
            raise ValueError(f"field 'logit_spread': {self.logit_spread} overflows the logits")
        if not np.isfinite(self.logit_range).all():
            raise ValueError(
                f"field 'logit_offset': {self.logit_offset} overflows the logits "
                f"at logit_spread {self.logit_spread}"
            )

    @property
    def logit_range(self) -> tuple[float, float]:
        """The least and the greatest logit the target can draw."""
        offset, spread = float(self.logit_offset), float(self.logit_spread)
        low, high = (offset + spread * g for g in _GUMBEL_RANGE)
        return low, high


@dataclass(frozen=True)
class PerturbedDraftConfig:
    noise_seed: int
    noise_scale: float = DEFAULT_NOISE_SCALE

    def __post_init__(self) -> None:
        check_seed("noise_seed", self.noise_seed)
        if not 0 <= self.noise_scale < np.inf:
            raise ValueError(f"field 'noise_scale': {self.noise_scale} must be finite and >= 0")


def check_noise_range(target: SyntheticTargetConfig, draft: PerturbedDraftConfig) -> None:
    """Refuse a noise_scale whose draft logits, a target logit plus
    noise_scale times a standard normal draw, could overflow."""
    largest = max(map(abs, target.logit_range))
    if not np.isfinite(largest + float(draft.noise_scale) * _NORMAL_BOUND):
        raise ValueError(
            f"field 'draft.noise_scale': {draft.noise_scale} overflows the draft logits "
            f"at target logits up to {largest:g}"
        )


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
    """PCG64 stream keyed by (seed, salt, token window) via blake2b, stable across
    platforms and processes; never Python's salted hash(). The key's four little-endian
    uint32 words seed the stream its 128-bit integer seeds (numpy makes it those words).
    """
    h = hashlib.blake2b(pack_tokens((seed, salt, *window)), digest_size=16)
    words = np.frombuffer(h.digest(), "<u4")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def _check_context(context: Sequence[int], vocab_size: int) -> None:
    for tok in context:
        if not 0 <= tok < vocab_size:
            raise ValueError(f"context token {tok} out of vocabulary range [0, {vocab_size})")


def softmax_cdf(z: np.ndarray, temperature: float) -> np.ndarray:
    """The read-only CDF Generator.choice(p.size, p=p) draws from, p = softmax(z, temperature)."""
    return _cdf(softmax(z, temperature))


def _cdf(p: np.ndarray) -> np.ndarray:
    cdf = p.cumsum(out=p)
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


class _WindowIds:
    """Integer ids of the windows of a model with `vocab_size` V and `order` m.

    The window (t_1, ..., t_n), n <= m, has the base-(V+1) digits t_1 + 1, ...,
    t_n + 1. Digits run from 1 to V, so a window shorter than m never shares an
    id with a longer one, and the empty window is 0. The loops that walk a
    context carry the id along with `step` instead of slicing token lists.
    """

    def _init_ids(self) -> None:
        self._base = self.vocab_size + 1
        self._modulus = self._base**self.order

    def step(self, w: int, tok: int) -> int:
        """The id of window w with tok appended; a window of m tokens drops its oldest."""
        return (w * self._base + tok + 1) % self._modulus

    def fold(self, tokens: Sequence[int]) -> int:
        """The id of the last `order` tokens, which must be in the vocabulary."""
        w = 0
        for tok in tokens[-self.order :]:
            w = w * self._base + operator.index(tok) + 1  # a float token raises
        return w

    def window_id(self, context: Sequence[int]) -> int:
        """The id of the context's window, after checking the whole context."""
        _check_context(context, self.vocab_size)
        return self.fold(context)

    def window(self, w: int) -> tuple[int, ...]:
        """The token window of an id."""
        tokens = []
        while w:
            w, digit = divmod(w, self._base)
            tokens.append(digit - 1)
        return tuple(reversed(tokens))


class _MemoisedModel(_WindowIds):
    """The window memo of a model whose subclass keeps a `_memo` and computes
    `_window_logits(w)`. An entry is [logits, TopTwo or None, temperature, CDF or None]."""

    def _miss(self, w: int) -> list:
        z = self._window_logits(w)
        z.flags.writeable = False
        entry = [z, None, None, None]
        memo = self._memo
        cap = MEMO_FLOATS // (2 * z.size)  # an entry's logits and CDF
        if cap:
            if len(memo) >= cap:
                # first in, first out, so a hit costs nothing; an OrderedDict drops
                # its oldest entry in O(1), where a dict would scan its deleted slots
                memo.popitem(last=False)
            memo[w] = entry
        return entry

    def logits_at(self, w: int) -> np.ndarray:
        return (self._memo.get(w) or self._miss(w))[0]

    def top_two_at(self, w: int) -> TopTwo:
        entry = self._memo.get(w) or self._miss(w)
        if entry[1] is None:
            entry[1] = _top_two(entry[0])  # the config checks keep memoised logits finite
        return entry[1]

    def cdf_at(self, w: int, temperature: float) -> np.ndarray:
        entry = self._memo.get(w) or self._miss(w)
        if entry[2] != temperature:
            entry[2:] = temperature, _cdf(_softmax(entry[0], temperature))
        return entry[3]

    def score(self, context: Sequence[int]) -> np.ndarray:
        return self.logits_at(self.window_id(context))

    def top_two(self, context: Sequence[int]) -> TopTwo:
        """top_two(self.score(context)), derived once per memoised window."""
        return self.top_two_at(self.window_id(context))

    def sample_cdf(self, context: Sequence[int], temperature: float) -> np.ndarray:
        """softmax_cdf(self.score(context), temperature); a new temperature replaces it."""
        return self.cdf_at(self.window_id(context), temperature)


class _ScoreOnly(_WindowIds):
    """Id-keyed reads of a model that only has `score`, uncached: each read scores
    the window rebuilt from its id. The first read after `window_id(context)`
    scores that whole context, so the model sees what it was given."""

    def __init__(self, model: ScoringModel):
        self.model, self.vocab_size, self.order = model, model.vocab_size, model.order
        self._init_ids()
        self._opened: tuple[int, Sequence[int]] | None = None

    def window_id(self, context: Sequence[int]) -> int:
        w = super().window_id(context)
        self._opened = (w, context)
        return w

    def logits_at(self, w: int) -> np.ndarray:
        opened, self._opened = self._opened, None
        if opened is not None and opened[0] == w:
            return self.model.score(list(opened[1]))
        return self.model.score(list(self.window(w)))

    def top_two_at(self, w: int) -> TopTwo:
        return top_two(self.logits_at(w))

    def cdf_at(self, w: int, temperature: float) -> np.ndarray:
        return softmax_cdf(self.logits_at(w), temperature)


def window_reader(model: ScoringModel) -> _WindowIds:
    """Id-keyed reads (`logits_at`, `top_two_at`, `cdf_at`) of any scoring model:
    a synthetic model's own memo, or an uncached adapter around `score`."""
    return model if isinstance(model, _MemoisedModel) else _ScoreOnly(model)


class SyntheticTargetModel(_MemoisedModel):
    """Order-m seeded table model emitting Gumbel-shaped logits."""

    def __init__(self, config: SyntheticTargetConfig):
        self.config = config
        self._memo: OrderedDict[int, list] = OrderedDict()
        self._init_ids()

    @property
    def vocab_size(self) -> int:
        return self.config.vocab_size

    @property
    def order(self) -> int:
        return self.config.order

    def _window_logits(self, w: int) -> np.ndarray:
        cfg = self.config
        rng = window_rng(cfg.seed, self.window(w), _TARGET_SALT)
        u = np.maximum(rng.random(cfg.vocab_size), 1e-12)
        # offset + spread * -log(-log(u)) in place, as -spread * x is exactly -(spread * x)
        np.log(np.negative(np.log(u, out=u), out=u), out=u)
        return np.add(np.multiply(u, -cfg.logit_spread, out=u), cfg.logit_offset, out=u)


class PerturbedDraftModel(_MemoisedModel):
    """Draft model: target logits plus seeded Gaussian noise of scale sigma."""

    def __init__(self, target: SyntheticTargetModel, config: PerturbedDraftConfig):
        check_noise_range(target.config, config)
        self.target = target
        self.config = config
        self._memo: OrderedDict[int, list] = OrderedDict()
        self._init_ids()

    @property
    def vocab_size(self) -> int:
        return self.target.vocab_size

    @property
    def order(self) -> int:
        return self.target.order

    def _window_logits(self, w: int) -> np.ndarray:
        z = self.target.logits_at(w)  # the draft shares the target's windows, so their ids
        if self.config.noise_scale == 0:
            return z
        rng = window_rng(self.config.noise_seed, self.window(w), _DRAFT_SALT)
        n = rng.standard_normal(self.vocab_size)  # z + noise_scale * n, into n: z is read-only
        return np.add(np.multiply(n, self.config.noise_scale, out=n), z, out=n)


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
    reproducibly. The whole context is checked once; after that each step
    reads its window by id, so a chain costs time linear in k.
    """
    if k < 1:
        raise ValueError(f"draft length k must be >= 1, got {k}")
    if mode not in ("greedy", "sample"):
        raise ValueError(f"unknown draft mode {mode!r}")
    reader = window_reader(model)
    w, step = reader.window_id(context), reader.step
    if mode == "greedy":
        logits_at = reader.logits_at

        def pick(w: int) -> int:
            return int(logits_at(w).argmax())

    else:
        cdf_at = reader.cdf_at
        # one call gives the doubles, and the generator state, of k scalar draws
        draws = iter(np.random.default_rng(rng).random(k).tolist())

        def pick(w: int) -> int:
            # Generator.choice(p.size, p=p)'s own draw, without re-checking p
            return int(cdf_at(w, temperature).searchsorted(next(draws), side="right"))

    out: list[int] = []
    for _ in range(k):
        tok = pick(w)
        out.append(tok)
        w = step(w, tok)
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
    node's window is read by id, so a deep branching-1 tree costs time linear
    in its depth.
    """
    if branching < 1:
        raise ValueError("branching must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    check_tree_size(branching, depth)
    # a node has one child per token, so there are at most vocab_size of them
    width = min(branching, model.vocab_size)
    reader = window_reader(model)

    def candidates(w: int) -> list[int]:
        z = reader.logits_at(w)
        return [int(tok) for tok in np.lexsort((np.arange(z.size), -z))[:width]]

    # each level's (parent window id, token) pairs, breadth-first in parent order
    root = reader.window_id(context)
    levels = [[(root, tok) for tok in candidates(root)]]
    while len(levels) < depth:
        ids = [reader.step(w, tok) for w, tok in levels[-1]]
        levels.append([(w, tok) for w in ids for tok in candidates(w)])
    nodes = [TreeNode(tok) for _, tok in levels.pop()]
    for level in reversed(levels):
        nodes = [
            TreeNode(tok, tuple(nodes[i * width : (i + 1) * width]))
            for i, (_, tok) in enumerate(level)
        ]
    return nodes
