"""Record/replay of per-step top-k logit records.

File format (the external interface; see README for the full grammar):

    specverify-trace v1 vocab=<V> producer=<rest of line, verbatim>
    step=<digits> ctx=<uint64|-> temp=<float> draft=<digits|-> topk=<tok>:<logit>,<tok>:<logit>,...

One header line, then one record per line. Floats are written as decimal with
17 significant digits (%.17g), which round-trips IEEE-754 doubles bit-exactly.
`ctx` is an optional 64-bit context hash and `draft` the token the drafter
proposed at that step; both use `-` when absent. The top-k list is strictly
descending by logit with ties broken by ascending token id, length >= 2.

A trace is held as numpy columns (`TraceColumns`): each file is parsed, each
record checked and each trace formatted once, with array operations.
`TraceRecord` is the row view, built only when `TraceFile.records` is read.

A recorded decode writes, per cycle, K draft-carrying records followed by one
draft-less record holding the (K+1)-th parallel vector; replay groups records
the same way, so replaying a recorded trace reproduces the live per-position
decisions exactly, including the bonus token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .engine import CostModel, DecodeMetrics, context_hasher, hash_value, metrics_from_cycles
from .logits import TopTwo, logit_ratio
from .verify import CycleResult, VerificationPolicy, verify_top_two_chain

FORMAT_VERSION = 1
DEFAULT_TOP_K = 10
_MAGIC = "specverify-trace"
_FIELDS = ("step", "ctx", "temp", "draft", "topk")
_DIGITS = re.compile(r"[0-9]+")
_CHUNK = 1024  # record lines converted at a time
# one record line of the README grammar; a float is any field text, so a bad
# one fails in float() with float()'s own message
_RECORD = re.compile(
    r"step=([0-9]+) ctx=(-|[0-9]+) temp=([^ ]+) draft=(-|[0-9]+) "
    r"topk=([0-9]+:[^ ,:]+(?:,[0-9]+:[^ ,:]+)*)"
)


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


@dataclass(frozen=True)
class TraceColumns:
    """A trace's records as numpy columns, one row per record. Row i's top-k
    entries are tokens[offsets[i]:offsets[i + 1]] and the logits alike."""

    step: np.ndarray  # int64
    ctx: np.ndarray  # uint64, 0 where has_ctx is False
    has_ctx: np.ndarray  # bool
    temp: np.ndarray  # float64
    draft: np.ndarray  # int64, -1 where absent
    offsets: np.ndarray  # int64, one more than the rows
    tokens: np.ndarray  # int64
    logits: np.ndarray  # float64

    def __len__(self) -> int:
        return self.step.size

    def by_width(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(rows, tokens, logits) for each top-k width: the rows of that width
        in file order, and their entries as 2-D blocks of that width."""
        widths = np.diff(self.offsets)
        if widths.size and (widths == widths[0]).all():  # one width: views, no gather
            yield np.arange(widths.size), *(a.reshape(widths.size, -1) for a in (self.tokens, self.logits))
            return
        for width in np.unique(widths).tolist():
            rows = np.flatnonzero(widths == width)
            at = self.offsets[rows, None] + np.arange(width)
            yield rows, self.tokens[at], self.logits[at]

    def rows(self) -> list[TraceRecord]:
        tokens, logits, ends = self.tokens.tolist(), self.logits.tolist(), self.offsets.tolist()
        return [
            TraceRecord(
                step=step,
                top_k=tuple(zip(tokens[a:b], logits[a:b])),
                temperature=temp,
                chosen_draft=None if draft < 0 else draft,
                context_hash=ctx if has_ctx else None,
            )
            for step, ctx, has_ctx, temp, draft, a, b in zip(
                self.step.tolist(), self.ctx.tolist(), self.has_ctx.tolist(),
                self.temp.tolist(), self.draft.tolist(), ends, ends[1:],
            )
        ]

    def top_two(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(v1, v2, z1, z2): every row's first two top-k entries."""
        first = self.offsets[:-1]
        return self.tokens[first], self.tokens[first + 1], self.logits[first], self.logits[first + 1]


def _columns(
    step: np.ndarray,
    ctx: np.ndarray,
    has_ctx: np.ndarray,
    temp: np.ndarray,
    draft: np.ndarray,
    widths: np.ndarray,
    tokens: np.ndarray,
    logits: np.ndarray,
) -> TraceColumns:
    offsets = np.zeros(widths.size + 1, dtype=np.int64)
    np.cumsum(widths, out=offsets[1:])
    return TraceColumns(step, ctx, has_ctx, temp, draft, offsets, tokens, logits)


def validate_record(rec: TraceRecord, vocab_size: int, where: str = "record") -> None:
    """Raise TraceFormatError, naming `where`, for a record the trace grammar
    rejects; the array checks of the reader and the recorder defer to it for
    the message."""
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
    # the columns hold signed 64-bit integers and an unsigned 64-bit ctx
    if max(rec.step, rec.chosen_draft or 0, *(tok for tok, _ in rec.top_k)) >= 2**63:
        raise TraceFormatError(f"{where}: step, tokens and draft must be below 2^63")
    if rec.context_hash is not None and not 0 <= rec.context_hash < 2**64:
        raise TraceFormatError(f"{where}: ctx {rec.context_hash} is not an unsigned 64-bit integer")


def _bad_rows(columns: TraceColumns, vocab_size: int) -> np.ndarray:
    """A mask of the rows that validate_record rejects, by array operations.
    The columns hold no negative step or token and no draft below -1."""
    bad = ~((columns.temp > 0) & (columns.temp < np.inf))
    bad |= np.diff(columns.offsets) < 2
    bad |= columns.draft >= vocab_size
    for rows, tokens, logits in columns.by_width():
        t_a, t_b, z_a, z_b = tokens[:, :-1], tokens[:, 1:], logits[:, :-1], logits[:, 1:]
        in_order = (z_a > z_b) | ((z_a == z_b) & (t_a < t_b))
        ascending = np.sort(tokens, axis=1)
        duplicate = ascending[:, 1:] == ascending[:, :-1]
        bad[rows] |= (
            (tokens >= vocab_size).any(axis=1)
            | ~np.isfinite(logits).all(axis=1)
            | ~in_order.all(axis=1)
            | duplicate.any(axis=1)
        )
    return bad


class TraceFile:
    """A trace: its header and its records, held as `columns`.

    Records handed in as TraceRecords are validated here, as the reader and
    the recorder validate theirs. `records` is the row view, a list built on
    first read; editing that list does not change the trace.
    """

    def __init__(self, header: TraceHeader, records: Sequence[TraceRecord] = ()):
        for i, rec in enumerate(records):
            validate_record(rec, header.vocab_size, where=f"record {i + 1}")
        self.header = header
        ctx = [r.context_hash for r in records]
        self.columns = _columns(
            np.array([r.step for r in records], dtype=np.int64),
            np.array([c or 0 for c in ctx], dtype=np.uint64),
            np.array([c is not None for c in ctx], dtype=bool),
            np.array([r.temperature for r in records], dtype=np.float64),
            np.array([-1 if r.chosen_draft is None else r.chosen_draft for r in records], dtype=np.int64),
            np.array([len(r.top_k) for r in records], dtype=np.int64),
            np.array([tok for r in records for tok, _ in r.top_k], dtype=np.int64),
            np.array([z for r in records for _, z in r.top_k], dtype=np.float64),
        )

    @cached_property
    def records(self) -> list[TraceRecord]:
        return self.columns.rows()


def _trace_from_columns(header: TraceHeader, columns: TraceColumns) -> TraceFile:
    """A trace around columns already validated by read_trace or the recorder."""
    trace = TraceFile.__new__(TraceFile)
    trace.header, trace.columns = header, columns
    return trace


def write_trace(trace: TraceFile, destination: str | Path) -> None:
    """Write a trace; round-trips bit-exactly through read_trace. Its records
    were validated when they came into the TraceFile."""
    if len(f"{trace.header.producer}.".splitlines()) > 1:  # as read_trace splits lines
        raise TraceFormatError(f"producer {trace.header.producer!r} contains a line break")
    c = trace.columns
    templates = {w: ",".join(["%d:%.17g"] * w) for w in np.unique(np.diff(c.offsets)).tolist()}
    with open(destination, "w", encoding="utf-8") as fh:
        fh.write(
            f"{_MAGIC} v{trace.header.version} "
            f"vocab={trace.header.vocab_size} producer={trace.header.producer}\n"
        )
        # formatted a chunk at a time, which bounds the strings held at once
        for start in range(0, len(c), _CHUNK):
            rows = slice(start, start + _CHUNK)
            ends = (c.offsets[start : start + _CHUNK + 1] - c.offsets[start]).tolist()
            span = slice(c.offsets[start], c.offsets[start] + ends[-1])
            entries: list = [None] * (2 * ends[-1])
            entries[0::2], entries[1::2] = c.tokens[span].tolist(), c.logits[span].tolist()
            fh.write("".join(
                f"step={step} ctx={ctx if has_ctx else '-'} temp={temp:.17g} "
                f"draft={draft if draft >= 0 else '-'} "
                f"topk={templates[b - a] % tuple(entries[2 * a : 2 * b])}\n"
                for step, ctx, has_ctx, temp, draft, a, b in zip(
                    c.step[rows].tolist(), c.ctx[rows].tolist(), c.has_ctx[rows].tolist(),
                    c.temp[rows].tolist(), c.draft[rows].tolist(), ends, ends[1:],
                )
            ))


def _line_row(line: str, where: str) -> TraceRecord:
    """One record line parsed field by field in line order, raising the first
    bad field's message: the slow path that names a bad record."""
    parts = line.split(" ")
    if len(parts) != len(_FIELDS):
        raise TraceFormatError(f"{where}: expected {len(_FIELDS)} fields, got {len(parts)}")

    def field(i: int) -> str:
        key = _FIELDS[i]
        if not parts[i].startswith(key + "="):
            raise TraceFormatError(f"{where}: expected field {key}=...")
        return parts[i][len(key) + 1 :]

    def integer(name: str, text: str) -> int:
        if not _DIGITS.fullmatch(text):
            int(text)  # raises int's own error for text it rejects too
            raise TraceFormatError(f"{where}: {name} {text!r} is not a decimal integer")
        return int(text)

    try:
        step = integer("step", field(0))
        ctx = field(1)
        ctx = None if ctx == "-" else integer("ctx", ctx)
        temp = float(field(2))
        draft = field(3)
        draft = None if draft == "-" else integer("draft", draft)
        top_k = []
        for entry in field(4).split(","):
            tok, colon, logit = entry.partition(":")
            if not colon:
                raise TraceFormatError(f"{where}: bad top-k entry {entry!r}")
            top_k.append((integer("token", tok), float(logit)))
    except TraceFormatError:
        raise
    except ValueError as exc:
        raise TraceFormatError(f"{where}: {exc}") from exc
    return TraceRecord(step, tuple(top_k), temp, draft, ctx)


def _check_lines(body: list[str], indices: Iterable[int], vocab_size: int, where) -> None:
    """Raise the message of the first bad record among the given lines, in
    the given order."""
    for i in indices:
        validate_record(_line_row(body[i], where(i)), vocab_size, where(i))


def _convert(groups: list[tuple[str, ...]]) -> list[np.ndarray]:
    """Column arrays (widths in place of offsets) of the field texts of
    matching record lines. Raises ValueError for a float that does not
    parse and OverflowError for an integer that does not fit."""
    n = len(groups)
    step, ctx, temp, draft, topk = zip(*groups) if groups else [()] * len(_FIELDS)
    entries = ",".join(topk).replace(":", ",").split(",") if topk else []
    m = len(entries) // 2
    return [
        np.fromiter(map(int, step), np.int64, n),
        np.fromiter((0 if c == "-" else int(c) for c in ctx), np.uint64, n),
        np.fromiter((c != "-" for c in ctx), bool, n),
        np.fromiter(map(float, temp), np.float64, n),
        np.fromiter((-1 if d == "-" else int(d) for d in draft), np.int64, n),
        np.fromiter((s.count(",") + 1 for s in topk), np.int64, n),
        np.fromiter(map(int, entries[0::2]), np.int64, m),
        np.fromiter(map(float, entries[1::2]), np.float64, m),
    ]


def read_trace(source: str | Path) -> TraceFile:
    """Parse and validate a trace file; errors cite the offending record."""
    lines = Path(source).read_text(encoding="utf-8").splitlines()
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

    body = [line for line in lines[1:] if line]
    linenos = [n for n, line in enumerate(lines[1:], start=2) if line]

    def where(i: int) -> str:
        return f"record {i + 1} (line {linenos[i]})"

    # converted a chunk at a time, which bounds the field strings held at once
    parts, unmatched = [], None
    for start in range(0, len(body), _CHUNK):
        matches = list(map(_RECORD.fullmatch, body[start : start + _CHUNK]))
        if None in matches:
            unmatched = start + matches.index(None)
            matches = matches[: unmatched - start]
        try:
            parts.append(_convert([m.groups() for m in matches]))
        except (ValueError, OverflowError):
            _check_lines(body, range(start + len(matches)), vocab_size, where)
            raise
        if unmatched is not None:
            break
    columns = _columns(*(np.concatenate(arrays) for arrays in zip(*parts or [_convert([])])))
    _check_lines(body, np.flatnonzero(_bad_rows(columns, vocab_size)).tolist(), vocab_size, where)
    if unmatched is not None:
        _check_lines(body, [unmatched], vocab_size, where)
        raise TraceFormatError(f"{where(unmatched)}: does not match the record grammar")
    return _trace_from_columns(
        TraceHeader(vocab_size=vocab_size, producer=producer, version=version), columns
    )


def hash_context(context: Sequence[int]) -> int:
    """Stable 64-bit hash of a token sequence: the one-shot form of the running
    hash `decode` keeps (engine.context_hasher), i.e. the `ctx=` trace field."""
    return hash_value(context_hasher(context))


class TraceRecorder:
    """Engine recorder callback filling trace columns during a decode."""

    def __init__(self, vocab_size: int, temperature: float, top_k: int = DEFAULT_TOP_K):
        if top_k < 2:
            raise ValueError("top_k must be >= 2")
        self.vocab_size = vocab_size
        self.temperature = temperature
        self.top_k = min(top_k, vocab_size)
        self._steps: list[int] = []
        self._ctxs: list[int | None] = []
        self._drafts: list[int] = []
        self._tokens: list[np.ndarray] = []
        self._logits: list[np.ndarray] = []
        self._trace: TraceFile | None = None

    def __call__(
        self,
        position: int,
        logits: np.ndarray,
        chosen_draft: int | None,
        context_hash: int,
    ) -> None:
        z = np.asarray(logits, dtype=np.float64)
        # a copy, so the full-vocabulary sort result is not kept alive
        order = np.lexsort((np.arange(z.size), -z))[: self.top_k].copy()
        self._steps.append(position)
        self._ctxs.append(context_hash)
        self._drafts.append(-1 if chosen_draft is None else chosen_draft)
        self._tokens.append(order)
        self._logits.append(z[order])
        self._trace = None

    def _validated(self) -> TraceFile:
        if self._trace is None:
            n = len(self._steps)
            columns = _columns(
                np.array(self._steps, dtype=np.int64),
                np.array([c or 0 for c in self._ctxs], dtype=np.uint64),
                np.array([c is not None for c in self._ctxs], dtype=bool),
                np.full(n, self.temperature, dtype=np.float64),
                np.array(self._drafts, dtype=np.int64),
                np.full(n, self.top_k, dtype=np.int64),
                np.concatenate(self._tokens) if n else np.zeros(0, dtype=np.int64),
                np.concatenate(self._logits) if n else np.zeros(0),
            )
            trace = _trace_from_columns(TraceHeader(vocab_size=self.vocab_size), columns)
            for i in np.flatnonzero(_bad_rows(columns, self.vocab_size)).tolist():
                validate_record(trace.records[i], self.vocab_size, where=f"record {i + 1}")
            self._trace = trace
        return self._trace

    @property
    def records(self) -> list[TraceRecord]:
        """The row view of the records so far."""
        return self._validated().records

    def to_trace(self, producer: str = "") -> TraceFile:
        header = TraceHeader(vocab_size=self.vocab_size, producer=producer)
        return _trace_from_columns(header, self._validated().columns)


def iter_cycles(trace: TraceFile, k: int) -> list[tuple[int, int | None]]:
    """Group draft-carrying records into cycles of k, attaching the draft-less
    record that immediately follows a complete group as its bonus source.
    Each cycle is (index of its first drafted record, index of its bonus
    record or None); its drafted records are the k from the first on.

    A trace recorded with another k is an error: either a draft-less record
    splits a group, or complete groups are followed by a draft-less record in
    one place and by a drafted record in another (k divides the recorded K)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    drafted = trace.columns.draft >= 0
    n = drafted.size
    # runs of drafted records, [start, end)
    edges = np.flatnonzero(np.diff(drafted, prepend=False, append=False)).tolist()
    cycles: list[tuple[int, int | None]] = []
    bonus_follows: bool | None = None  # what follows the complete groups so far
    for start, end in zip(edges[0::2], edges[1::2]):
        for first in range(start, end - k + 1, k):
            after = first + k  # the record after the group
            if after == n:
                cycles.append((first, None))
                continue
            follows = after == end
            if bonus_follows is not None and follows != bonus_follows:
                raise TraceFormatError(
                    f"record {after + 1}: {'draft-less' if follows else 'drafted'} record "
                    f"after a complete group of {k}, unlike the groups before it"
                )
            bonus_follows = follows
            cycles.append((first, after if follows else None))
        partial = (end - start) % k
        if partial and end < n:
            raise TraceFormatError(
                f"record {end + 1}: draft-less record after {partial} of {k} drafted records"
            )
    return cycles


def replay_cycles(
    trace: TraceFile, policy: VerificationPolicy, k: int
) -> list[CycleResult]:
    """Per-cycle verification results of a replay (decision-level view)."""
    cycles = iter_cycles(trace, k)
    if not cycles:
        raise ValueError(f"trace holds no complete cycle of {k} drafted records")
    v1, v2, z1, z2 = (column.tolist() for column in trace.columns.top_two())
    drafts = trace.columns.draft.tolist()
    results = []
    for first, bonus in cycles:
        positions = range(first, first + k)
        tops = [
            TopTwo(v1=v1[i], v2=v2[i], z1=z1[i], z2=z2[i], margin=z1[i] - z2[i],
                   ratio=logit_ratio(z1[i], z2[i]))
            for i in positions
        ]
        bonus_top1 = None if bonus is None else v1[bonus]
        results.append(verify_top_two_chain(drafts[first : first + k], tops, policy, bonus_top1))
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
