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

import functools
import hashlib
import numbers
import operator
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence, get_args, get_origin, get_type_hints

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


def check_seed(name: str, seed: int) -> None:
    """Seeds are packed as signed 64-bit integers (see window_rng)."""
    if not -(2**63) <= seed < 2**63:
        raise ValueError(f"field '{name}': {seed} is outside the signed 64-bit range")


def check_types(config) -> None:
    """Check every field of a frozen config against its annotation, in field
    order, and store it as that type: an int field takes an integral number
    and a float field a real one (a bool is neither), `X | None` None or an X,
    a grid axis `tuple[X, ...]` one X or a list or tuple of them, and any
    other field an instance of its class."""
    for name, hint in _field_types(type(config)).items():
        try:
            object.__setattr__(config, name, _typed(hint, getattr(config, name), name))
        except RecursionError:  # the repr that a message quotes recurses once a level
            raise ValueError(f"field '{name}': nested too deeply") from None


_field_types = functools.cache(get_type_hints)  # of a config class, resolved once


def _typed(hint, value, name: str):
    args = get_args(hint)
    if get_origin(hint) is tuple:
        items = value if isinstance(value, (list, tuple)) else [value]
        return tuple(_typed(args[0], item, name) for item in items)
    if type(None) in args:
        return None if value is None else _typed(args[0], value, name)
    kind = {int: numbers.Integral, float: numbers.Real}.get(hint, hint)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"field '{name}': expected {hint.__name__}, got {value!r}")
    try:
        return hint(value) if hint in (int, float) else value
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"field '{name}': {value} is not finite") from None


@dataclass(frozen=True)
class SyntheticTargetConfig:
    seed: int
    vocab_size: int = DEFAULT_VOCAB_SIZE
    order: int = DEFAULT_ORDER
    logit_offset: float = DEFAULT_LOGIT_OFFSET
    logit_spread: float = DEFAULT_LOGIT_SPREAD

    def __post_init__(self) -> None:
        check_types(self)
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
        if not np.isfinite(self.logit_spread * _GUMBEL_RANGE[1]):
            raise ValueError(f"field 'logit_spread': {self.logit_spread} overflows the logits")
        if not np.isfinite(self.logit_range).all():
            raise ValueError(
                f"field 'logit_offset': {self.logit_offset} overflows the logits "
                f"at logit_spread {self.logit_spread}"
            )

    @property
    def logit_range(self) -> tuple[float, float]:
        """The least and the greatest logit the target can draw."""
        return tuple(self.logit_offset + self.logit_spread * g for g in _GUMBEL_RANGE)


@dataclass(frozen=True)
class PerturbedDraftConfig:
    noise_seed: int
    noise_scale: float = DEFAULT_NOISE_SCALE

    def __post_init__(self) -> None:
        check_types(self)
        check_seed("noise_seed", self.noise_seed)
        if not 0 <= self.noise_scale < np.inf:
            raise ValueError(f"field 'noise_scale': {self.noise_scale} must be finite and >= 0")


def check_noise_range(target: SyntheticTargetConfig, draft: PerturbedDraftConfig) -> None:
    """Refuse a noise_scale whose draft logits, a target logit plus
    noise_scale times a standard normal draw, could overflow."""
    largest = max(map(abs, target.logit_range))
    if not np.isfinite(largest + draft.noise_scale * _NORMAL_BOUND):
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
        if not isinstance(tok, (int, np.integer)):  # as engine.check_prompt refuses it
            raise ValueError(f"context token {tok!r} is not an integer")
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
            w = w * self._base + operator.index(tok) + 1  # a Python int, from a numpy one too
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
    `_window_logits(w, window)`. An entry is [logits, TopTwo or None, temperature, CDF or None]."""

    def _miss(self, w: int, window: tuple[int, ...] | None = None) -> list:
        z = self._window_logits(w, self.window(w) if window is None else window)
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
        for name, low, high in (("vocab_size", 2, np.inf), ("order", 1, MAX_ORDER)):
            value = getattr(self, name)
            if type(value) is bool or not (isinstance(value, numbers.Integral) and low <= value <= high):
                raise ValueError(
                    f"{type(model).__name__}.{name} {value!r} is not an int in [{low}, {high}]")
        self._init_ids()
        self._opened: tuple[int, Sequence[int]] | None = None

    def window_id(self, context: Sequence[int]) -> int:
        w = super().window_id(context)
        self._opened = (w, context)
        return w

    def logits_at(self, w: int) -> np.ndarray:
        opened, self._opened = self._opened, None
        window = opened[1] if opened is not None and opened[0] == w else self.window(w)
        z = self.model.score(list(window))
        if np.shape(z) != (self.vocab_size,):  # else a token past the vocabulary goes unchecked
            raise ValueError(f"score returned shape {np.shape(z)}, not ({self.vocab_size},)")
        if not np.isfinite(z).all():  # greedy drafting and tree ranking read it unchecked
            raise ValueError(f"{type(self.model).__name__}.score returned non-finite logits")
        return z

    def top_two_at(self, w: int) -> TopTwo:
        return top_two(self.logits_at(w))

    def cdf_at(self, w: int, temperature: float) -> np.ndarray:
        return softmax_cdf(self.logits_at(w), temperature)


def window_reader(model: ScoringModel) -> _WindowIds:
    """Id-keyed reads (`logits_at`, `top_two_at`, `cdf_at`) of any scoring model:
    a synthetic model's own memo, or an uncached adapter around `score` (its own reader)."""
    return model if isinstance(model, _WindowIds) else _ScoreOnly(model)


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

    def _window_logits(self, w: int, window: tuple[int, ...]) -> np.ndarray:
        cfg = self.config
        rng = window_rng(cfg.seed, window, _TARGET_SALT)
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

    def _window_logits(self, w: int, window: tuple[int, ...]) -> np.ndarray:
        # the draft shares the target's windows, so their ids; a target miss takes this window
        z = (self.target._memo.get(w) or self.target._miss(w, window))[0]
        if self.config.noise_scale == 0:
            return z
        rng = window_rng(self.config.noise_seed, window, _DRAFT_SALT)
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


def draft_walk(
    model: ScoringModel,
    context: Sequence[int],
    k: int,
    temperature: float = 1.0,
    mode: str = "greedy",
    rng: int | np.random.Generator | None = None,
) -> Iterator[int]:
    """Autoregressively draft up to k tokens from the model, one per next().

    mode "greedy" takes the argmax at each step; mode "sample" draws from
    softmax(logits, temperature) using the given seed or generator, fully
    reproducibly. The checks, the whole context's included, and a sampled
    walk's k uniforms are made when the walk is created, so a generator
    advances by k draws however far the walk is read. After that each step
    reads its window by id, so a walk costs time linear in the tokens read.
    """
    if k < 1:
        raise ValueError(f"draft length k must be >= 1, got {k}")
    if mode not in ("greedy", "sample"):
        raise ValueError(f"unknown draft mode {mode!r}")
    reader = window_reader(model)
    w, step = reader.window_id(context), reader.step
    if mode == "greedy":
        logits_at = reader.logits_at

        def walk(w: int) -> Iterator[int]:
            for _ in range(k):
                tok = int(logits_at(w).argmax())
                yield tok
                w = step(w, tok)

    else:
        cdf_at = reader.cdf_at
        # one call gives the doubles, and the generator state, of k scalar draws
        draws = np.random.default_rng(rng).random(k).tolist()

        def walk(w: int) -> Iterator[int]:
            for u in draws:
                # Generator.choice(p.size, p=p)'s own draw, without re-checking p
                tok = int(cdf_at(w, temperature).searchsorted(u, side="right"))
                yield tok
                w = step(w, tok)

    return walk(w)


def draft_chain(
    model: ScoringModel,
    context: Sequence[int],
    k: int,
    temperature: float = 1.0,
    mode: str = "greedy",
    rng: int | np.random.Generator | None = None,
) -> list[int]:
    """All k tokens of draft_walk(model, context, k, temperature, mode, rng)."""
    return list(draft_walk(model, context, k, temperature, mode, rng))
