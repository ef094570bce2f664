"""Record/replay of per-step top-k logit records.

File format (the external interface; see README for the full grammar):

    specverify-trace v1 vocab=<V> producer=<rest of line, verbatim>
    step=<int> ctx=<uint64|-> temp=<float> draft=<int|-> topk=<tok>:<logit>,<tok>:<logit>,...

One header line, then one record per line. Floats are written as decimal with
17 significant digits (%.17g), which round-trips IEEE-754 doubles bit-exactly.
`ctx` is an optional 64-bit context hash and `draft` the token the drafter
proposed at that step; both use `-` when absent. The top-k list is strictly
descending by logit with ties broken by ascending token id, length >= 2.

A recorded decode writes, per cycle, K draft-carrying records followed by one
draft-less record holding the (K+1)-th parallel vector; replay groups records
the same way, so replaying a recorded trace reproduces the live per-position
decisions exactly, including the bonus token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .engine import CostModel, DecodeMetrics, context_hasher, hash_value, metrics_from_cycles
from .logits import TopTwo, logit_ratio
from .verify import CycleResult, VerificationPolicy, verify_top_two_chain

FORMAT_VERSION = 1
DEFAULT_TOP_K = 10
_MAGIC = "specverify-trace"


class TraceFormatError(ValueError):
    """Malformed, mis-ordered, or unsupported trace content."""


@dataclass(frozen=True)
class TraceRecord:
    step: int
    top_k: tuple[tuple[int, float], ...]
    temperature: float
    chosen_draft: int | None = None
    context_hash: int | None = None


@dataclass(frozen=True)
class TraceHeader:
    vocab_size: int
    producer: str = ""
    version: int = FORMAT_VERSION


@dataclass
class TraceFile:
    header: TraceHeader
    records: list[TraceRecord] = field(default_factory=list)


def validate_record(rec: TraceRecord, vocab_size: int, where: str = "record") -> None:
    if rec.step < 0:
        raise TraceFormatError(f"{where}: step must be non-negative")
    if not 0 < rec.temperature < np.inf:
        raise TraceFormatError(f"{where}: temperature {rec.temperature} must be finite and > 0")
    if len(rec.top_k) < 2:
        raise TraceFormatError(f"{where}: top-k list needs at least 2 entries")
    seen = set()
    for tok, logit in rec.top_k:
        if not 0 <= tok < vocab_size:
            raise TraceFormatError(f"{where}: token {tok} out of range [0, {vocab_size})")
        if not np.isfinite(logit):
            raise TraceFormatError(f"{where}: non-finite logit for token {tok}")
        if tok in seen:
            raise TraceFormatError(f"{where}: duplicate token {tok} in top-k list")
        seen.add(tok)
    for (t_a, z_a), (t_b, z_b) in zip(rec.top_k, rec.top_k[1:]):
        if not (z_a > z_b or (z_a == z_b and t_a < t_b)):
            raise TraceFormatError(
                f"{where}: top-k ordering violated at tokens {t_a},{t_b} "
                "(must be logit-descending, ties by ascending token id)"
            )
    if rec.chosen_draft is not None and not 0 <= rec.chosen_draft < vocab_size:
        raise TraceFormatError(f"{where}: drafted token {rec.chosen_draft} out of range")


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def write_trace(trace: TraceFile, destination: str | Path) -> None:
    """Write a validated trace; round-trips bit-exactly through read_trace."""
    for i, rec in enumerate(trace.records):
        validate_record(rec, trace.header.vocab_size, where=f"record {i + 1}")
    if "\n" in trace.header.producer or "\r" in trace.header.producer:
        raise TraceFormatError("producer string must not contain newlines")
    lines = [
        f"{_MAGIC} v{trace.header.version} "
        f"vocab={trace.header.vocab_size} producer={trace.header.producer}"
    ]
    for rec in trace.records:
        ctx = "-" if rec.context_hash is None else str(rec.context_hash)
        draft = "-" if rec.chosen_draft is None else str(rec.chosen_draft)
        topk = ",".join(f"{tok}:{_f17(z)}" for tok, z in rec.top_k)
        lines.append(
            f"step={rec.step} ctx={ctx} temp={_f17(rec.temperature)} draft={draft} topk={topk}"
        )
    Path(destination).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _field(parts: list[str], idx: int, key: str, where: str) -> str:
    if idx >= len(parts) or not parts[idx].startswith(key + "="):
        raise TraceFormatError(f"{where}: expected field {key}=...")
    return parts[idx][len(key) + 1 :]


def _parse_record(line: str, where: str) -> TraceRecord:
    parts = line.split(" ")
    if len(parts) != 5:
        raise TraceFormatError(f"{where}: expected 5 fields, got {len(parts)}")
    try:
        step = int(_field(parts, 0, "step", where))
        ctx_s = _field(parts, 1, "ctx", where)
        ctx = None if ctx_s == "-" else int(ctx_s)
        temp = float(_field(parts, 2, "temp", where))
        draft_s = _field(parts, 3, "draft", where)
        draft = None if draft_s == "-" else int(draft_s)
        topk_s = _field(parts, 4, "topk", where)
        top_k = []
        for entry in topk_s.split(","):
            tok_s, _, z_s = entry.partition(":")
            if not _:
                raise ValueError(f"bad top-k entry {entry!r}")
            top_k.append((int(tok_s), float(z_s)))
    except ValueError as exc:
        raise TraceFormatError(f"{where}: {exc}") from exc
    return TraceRecord(
        step=step,
        top_k=tuple(top_k),
        temperature=temp,
        chosen_draft=draft,
        context_hash=ctx,
    )


def read_trace(source: str | Path) -> TraceFile:
    """Parse and validate a trace file; errors cite the offending record."""
    text = Path(source).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise TraceFormatError(f"{source}: empty file, missing header")
    head = lines[0].split(" ", 3)
    if len(head) < 3 or head[0] != _MAGIC or not head[1].startswith("v"):
        raise TraceFormatError(f"{source}: not a {_MAGIC} file")
    try:
        version = int(head[1][1:])
    except ValueError as exc:
        raise TraceFormatError(f"{source}: bad version field {head[1]!r}") from exc
    if version != FORMAT_VERSION:
        raise TraceFormatError(
            f"{source}: unsupported trace format version {version} "
            f"(this reader understands v{FORMAT_VERSION})"
        )
    if not head[2].startswith("vocab="):
        raise TraceFormatError(f"{source}: header missing vocab= field")
    try:
        vocab_size = int(head[2][len("vocab=") :])
    except ValueError as exc:
        raise TraceFormatError(f"{source}: bad vocab field") from exc
    if vocab_size < 2:
        raise TraceFormatError(f"{source}: vocab must be >= 2, got {vocab_size}")
    producer = ""
    if len(head) == 4:
        if not head[3].startswith("producer="):
            raise TraceFormatError(f"{source}: header missing producer= field")
        producer = head[3][len("producer=") :]

    records: list[TraceRecord] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        where = f"record {len(records) + 1} (line {lineno})"
        rec = _parse_record(line, where)
        validate_record(rec, vocab_size, where)
        records.append(rec)
    return TraceFile(TraceHeader(vocab_size=vocab_size, producer=producer, version=version), records)


def hash_context(context: Sequence[int]) -> int:
    """Stable 64-bit hash of a token sequence: the one-shot form of the running
    hash `decode` keeps (engine.context_hasher), i.e. the `ctx=` trace field."""
    return hash_value(context_hasher(context))


class TraceRecorder:
    """Engine recorder callback collecting TraceRecords during a decode."""

    def __init__(self, vocab_size: int, temperature: float, top_k: int = DEFAULT_TOP_K):
        if top_k < 2:
            raise ValueError("top_k must be >= 2")
        self.vocab_size = vocab_size
        self.temperature = temperature
        self.top_k = min(top_k, vocab_size)
        self.records: list[TraceRecord] = []

    def __call__(
        self,
        position: int,
        logits: np.ndarray,
        chosen_draft: int | None,
        context_hash: int,
    ) -> None:
        z = np.asarray(logits, dtype=np.float64)
        order = np.lexsort((np.arange(z.size), -z))[: self.top_k]
        entries = tuple((int(t), float(z[t])) for t in order)
        self.records.append(
            TraceRecord(
                step=position,
                top_k=entries,
                temperature=self.temperature,
                chosen_draft=chosen_draft,
                context_hash=context_hash,
            )
        )

    def to_trace(self, producer: str = "") -> TraceFile:
        return TraceFile(TraceHeader(vocab_size=self.vocab_size, producer=producer), self.records)


def _record_top_two(rec: TraceRecord) -> TopTwo:
    (v1, z1), (v2, z2) = rec.top_k[0], rec.top_k[1]
    return TopTwo(v1=v1, v2=v2, z1=z1, z2=z2, margin=z1 - z2, ratio=logit_ratio(z1, z2))


def iter_cycles(
    trace: TraceFile, k: int
) -> list[tuple[list[TraceRecord], TraceRecord | None]]:
    """Group draft-carrying records into cycles of k, attaching the draft-less
    record that immediately follows a complete group as its bonus source.

    A trace recorded with another k is an error: either a draft-less record
    splits a group, or complete groups are followed by a draft-less record in
    one place and by a drafted record in another (k divides the recorded K)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    cycles: list[tuple[list[TraceRecord], TraceRecord | None]] = []
    pending: list[TraceRecord] = []
    bonus_follows: bool | None = None  # what follows the complete groups so far
    i = 0
    records = trace.records
    while i < len(records):
        rec = records[i]
        if rec.chosen_draft is None and pending:
            raise TraceFormatError(
                f"record {i + 1}: draft-less record after {len(pending)} of {k} drafted records"
            )
        if rec.chosen_draft is not None:
            pending.append(rec)
            if len(pending) == k:
                bonus = None
                if i + 1 < len(records):
                    follows = records[i + 1].chosen_draft is None
                    if bonus_follows is not None and follows != bonus_follows:
                        raise TraceFormatError(
                            f"record {i + 2}: {'draft-less' if follows else 'drafted'} record "
                            f"after a complete group of {k}, unlike the groups before it"
                        )
                    bonus_follows = follows
                    if follows:
                        bonus = records[i + 1]
                        i += 1
                cycles.append((pending, bonus))
                pending = []
        i += 1
    return cycles


def replay_cycles(
    trace: TraceFile, policy: VerificationPolicy, k: int
) -> list[CycleResult]:
    """Per-cycle verification results of a replay (decision-level view)."""
    cycles = iter_cycles(trace, k)
    if not cycles:
        raise ValueError(f"trace holds no complete cycle of {k} drafted records")
    results = []
    for drafted, bonus_rec in cycles:
        tops = [_record_top_two(r) for r in drafted]
        drafts = [r.chosen_draft for r in drafted]
        bonus_top1 = bonus_rec.top_k[0][0] if bonus_rec is not None else None
        results.append(verify_top_two_chain(drafts, tops, policy, bonus_top1))
    return results


def replay_verify(
    trace: TraceFile,
    policy: VerificationPolicy,
    k: int,
    cost: CostModel = CostModel(),
) -> DecodeMetrics:
    """Re-run verification over a recorded trace using only the top-2 entries."""
    results = replay_cycles(trace, policy, k)
    total_committed = sum(len(result.committed_tokens) for result in results)
    return metrics_from_cycles(results, total_committed, k * len(results), cost, k)
