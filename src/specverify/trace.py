"""Record/replay of per-step top-k logit records.

File format (the external interface; see README for the full grammar):

    specverify-trace v1 vocab=<V> producer=<rest of line, verbatim>
    step=<digits> ctx=<uint64|-> temp=<float> draft=<digits|-> topk=<tok>:<logit>,<tok>:<logit>,...

One header line, then one record per line. Floats are written as decimal with
17 significant digits (%.17g), which round-trips IEEE-754 doubles bit-exactly.
`ctx` is an optional 64-bit context hash and `draft` the token the drafter
proposed at that step; both use `-` when absent. The top-k list is strictly
descending by logit with ties broken by ascending token id, length >= 2.

A trace is held as numpy columns (`TraceColumns`): each record's fields and
the id of its top-k list, and the lists, which records may share. Each
producer finds the lists once, where the trace is made: `TraceRecorder` ranks
each distinct logit vector once, keyed by its bytes, and records a cycle at a
time by the list ids it returned, numbering the records; `read_trace` parses and
grammar-checks each distinct top-k text once, keyed by the text, and drops
the texts it holds once they reach `_BLOCK_FLOATS` top-k entries;
`TraceFile(header, records)` makes a list per distinct `top_k` object, keyed
by identity (the row view shares one object per list). `write_trace` formats
each list once within the same bound. One check, a mask per rule over all
records with the entry rules checked once a list, serves all three
producers and types their columns. `TraceRecord` is the row view, built only
when `TraceFile.records` is read.

A recorded decode writes, per cycle, K draft-carrying records followed by one
draft-less record holding the (K+1)-th parallel vector; replay groups records
the same way (`iter_cycles`, array operations on the draft column), so
replaying a recorded trace reproduces the live per-position decisions exactly,
including the bonus token.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .engine import CostModel, DecodeMetrics, context_hasher, metrics_from_counts
from .logits import logit_ratios
from .models import check_count
from .verify import Decision, VerificationPolicy
from .verify import verify_top_two_chain  # noqa: F401  (perfbench traces trace.verify_top_two_chain)

FORMAT_VERSION = 1
DEFAULT_TOP_K = 10
_MAGIC = "specverify-trace"
_FIELDS = ("step", "ctx", "temp", "draft", "topk")
_DIGITS = re.compile(r"[0-9]+")
_CHUNK = 1024  # record lines converted, or formatted, at a time
# logits a recorder holds unranked at once, and top-k entries whose texts
# read_trace and write_trace hold
_BLOCK_FLOATS = 2**17
# one record line of the README grammar, its top-k list any text, which
# _TopKRows checks once per distinct text; a float is any field text, so a
# bad one fails in float() with float()'s own message
_RECORD = re.compile(r"step=([0-9]+) ctx=(-|[0-9]+) temp=([^ ]+) draft=(-|[0-9]+) topk=([^ ]+)")
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b",:")  # what translate deletes


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

    def __post_init__(self) -> None:
        if not isinstance(self.vocab_size, (int, np.integer)):
            raise TraceFormatError(f"vocab {self.vocab_size!r} is not an integer")
        if self.vocab_size < 2:  # as read_trace refuses it; a file always carries FORMAT_VERSION
            raise TraceFormatError(f"vocab must be >= 2, got {self.vocab_size}")
        if not isinstance(self.producer, str):  # else it is written as its repr, read as a str
            raise TraceFormatError(f"producer {self.producer!r} is not a str")


@dataclass(frozen=True)
class TraceColumns:
    """A trace's records as numpy columns, one row per record, and the top-k
    lists they read, which records may share. Record i's list is topk[i];
    list j's entries are tokens[offsets[j]:offsets[j + 1]] and the logits
    alike."""

    step: np.ndarray  # int64
    ctx: np.ndarray  # uint64, 0 where has_ctx is False
    has_ctx: np.ndarray  # bool
    temp: np.ndarray  # float64
    draft: np.ndarray  # int64, -1 where absent
    topk: np.ndarray  # int64, each record's list
    offsets: np.ndarray  # int64, one more than the lists
    tokens: np.ndarray  # int64
    logits: np.ndarray  # float64

    def __len__(self) -> int:
        return self.step.size

    def by_width(self, lists) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(at, tokens, logits) for each top-k width among `lists`, list ids or
        slice(None) for all: the places in `lists` of the lists of that width,
        in order, and their entries as 2-D blocks of that width."""
        widths = np.diff(self.offsets)[lists]
        for width in np.unique(widths).tolist():
            at = np.flatnonzero(widths == width)
            entries = self.offsets[:-1][lists][at, None] + np.arange(width)
            yield at, self.tokens[entries], self.logits[entries]

    def rows(self) -> list[TraceRecord]:
        tokens, logits, ends = self.tokens.tolist(), self.logits.tolist(), self.offsets.tolist()
        lists = [tuple(zip(tokens[a:b], logits[a:b])) for a, b in zip(ends, ends[1:])]
        return [
            TraceRecord(step, lists[j], temp, None if draft < 0 else draft, ctx if has_ctx else None)
            for step, ctx, has_ctx, temp, draft, j in zip(
                self.step.tolist(), self.ctx.tolist(), self.has_ctx.tolist(),
                self.temp.tolist(), self.draft.tolist(), self.topk.tolist(),
            )
        ]

    def top_two(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(v1, v2, z1, z2): every record's first two top-k entries."""
        first = self.offsets[self.topk]
        return self.tokens[first], self.tokens[first + 1], self.logits[first], self.logits[first + 1]


def _columns(step, ctx, has_ctx, temp, draft, topk, widths: np.ndarray, tokens, logits) -> TraceColumns:
    offsets = np.zeros(widths.size + 1, dtype=np.int64)
    np.cumsum(widths, out=offsets[1:])
    return TraceColumns(step, ctx, has_ctx, temp, draft, topk, offsets, tokens, logits)


def _entry_faults(tokens: np.ndarray, logits: np.ndarray, vocab_size: int) -> list[np.ndarray]:
    """Per top-k entry of a row or block: token out of range, logit not finite."""
    return [(tokens < 0) | (tokens >= vocab_size), ~np.isfinite(logits)]


def _in_order(tokens: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Per adjacent pair of top-k entries of a row or block: logits descend, ties by token id."""
    t_a, t_b, z_a, z_b = tokens[..., :-1], tokens[..., 1:], logits[..., :-1], logits[..., 1:]
    return (z_a > z_b) | ((z_a == z_b) & (t_a < t_b))


def _not_of(values: np.ndarray, kind: type) -> np.ndarray:
    """Per value of a column of `int`s or `float`s: not of that kind, where a
    float may be an int that float64 holds (only an object array holds any)."""
    if values.dtype != object:
        return np.zeros(values.size, dtype=bool)
    if kind is int:
        fits = map(isinstance, values.tolist(), itertools.repeat((int, np.integer)))
    else:
        fits = map(_is_float64, values.tolist())
    return ~np.fromiter(fits, bool, values.size)


def _is_float64(value) -> bool:
    # an int as large as 2^1024 - 2^970 rounds past the largest float64
    return isinstance(value, (float, np.floating)) or (
        isinstance(value, (int, np.integer)) and -(2**1024 - 2**970) < value < 2**1024 - 2**970)


def _check(c: TraceColumns, vocab_size: int, where: Callable[[int], str]) -> TraceColumns:
    """Raise TraceFormatError for the first record the trace grammar rejects,
    named by where(i), citing the first rule below that it breaks; each rule
    is a mask over all records, and the entry rules are checked once a list
    and flag a record through its list. Columns may be object arrays of values
    a caller gave, which need not be numbers or fit 64 bits, with None for an
    absent draft. Returns the columns in the dtypes that TraceColumns names."""
    absent = c.draft == (None if c.draft.dtype == object else -1)
    # per column, in line order (a top-k token before a logit): its field's name and
    # kind, and its values that are not of that kind
    fields = {"step": ("step", int), "ctx": ("ctx", int), "temp": ("temperature", float),
              "draft": ("draft", int), "tokens": ("token", int), "logits": ("logit", float)}
    odd = {column: _not_of(getattr(c, column), kind) for column, (_, kind) in fields.items()}
    odd["draft"] &= ~absent
    odd_rows = odd["step"] | odd["ctx"] | odd["temp"] | odd["draft"]
    odd_entries = odd["tokens"] | odd["logits"]
    n_lists = c.offsets.size - 1
    if odd_entries.any():  # the records of their lists
        odd_lists = np.zeros(n_lists, dtype=bool)
        odd_lists[np.repeat(np.arange(n_lists), np.diff(c.offsets))[odd_entries]] = True
        odd_rows |= odd_lists[c.topk]
    given = c
    if odd_rows.any():  # 0 in the other rules' masks, so that their comparisons hold
        c = replace(c, **{k: np.where(mask, 0, getattr(c, k)) for k, mask in odd.items()})
    c = replace(c, logits=c.logits.astype(np.float64, copy=False))  # numbers now, for np.isfinite
    draft = np.where(absent, 0, c.draft)
    with np.errstate(invalid="ignore"):  # NaN in an object array warns as it compares false
        cold = ~((c.temp > 0) & (c.temp < np.inf))
    entries, big = np.zeros(n_lists, dtype=bool), np.zeros(n_lists, dtype=bool)  # per list
    for lists, tokens, logits in c.by_width(slice(None)):
        ascending = np.sort(tokens, axis=1)
        repeat = (ascending[:, 1:] == ascending[:, :-1]).any(axis=1)
        fault = np.logical_or(*_entry_faults(tokens, logits, vocab_size)).any(axis=1) | repeat
        entries[lists] = fault | ~_in_order(tokens, logits).all(axis=1)
        big[lists] = (ascending[:, -1:] >= 2**63).any(axis=1)  # the largest token

    def entries_of(i: int) -> slice:
        """Where record i's top-k entries are in the entry columns."""
        return slice(c.offsets[c.topk[i]], c.offsets[c.topk[i] + 1])

    def bad_entry(i: int) -> str:
        """Record i's first bad entry at its first fault, else its first pair out of order."""
        tokens, logits = c.tokens[entries_of(i)], c.logits[entries_of(i)]
        repeat = np.ones(tokens.size, dtype=bool)
        repeat[np.unique(tokens, return_index=True)[1]] = False  # all but each token's first entry
        faults = np.argwhere(np.array([*_entry_faults(tokens, logits, vocab_size), repeat]).T)
        if faults.size:  # (entry, rule) pairs, in entry order
            j, fault = faults[0]
            return (f"token {tokens[j]} out of range [0, {vocab_size})", f"non-finite logit for token "
                    f"{tokens[j]}", f"duplicate token {tokens[j]} in top-k list")[fault]
        j = int(_in_order(tokens, logits).argmin())
        return (f"top-k ordering violated at tokens {tokens[j]},{tokens[j + 1]} "
                "(must be logit-descending, ties by ascending token id)")

    def odd_value(i: int) -> str:
        """Record i's first value, in the order of fields, that is not of its field's kind."""
        for column, (name, kind) in fields.items():
            entry = column in ("tokens", "logits")
            at = entries_of(i) if entry else slice(i, i + 1)
            values, mask = getattr(given, column)[at], odd[column][at]
            if mask.any():
                return (f"{name} {values[mask.argmax()]!r} is not "
                        f"{'an integer' if kind is int else 'a float64 number'}")

    rules = [  # (mask, message of record i)
        (odd_rows, odd_value),
        (c.step < 0, lambda i: "step must be non-negative"),
        (cold, lambda i: f"temperature {c.temp[i]} must be finite and > 0"),
        (np.diff(c.offsets)[c.topk] < 2, lambda i: "top-k list needs at least 2 entries"),
        (entries[c.topk], bad_entry),  # each entry in turn (range, finite, repeat), then ordering
        (~absent & ((draft < 0) | (draft >= vocab_size)),
         lambda i: f"drafted token {c.draft[i]} out of range"),
        # the columns hold signed 64-bit integers and an unsigned 64-bit ctx
        (big[c.topk] | (c.step >= 2**63) | (draft >= 2**63),
         lambda i: "step, tokens and draft must be below 2^63"),
        (c.has_ctx & ((c.ctx < 0) | (c.ctx >= 2**64)),
         lambda i: f"ctx {c.ctx[i]} is not an unsigned 64-bit integer"),
    ]
    bad = np.logical_or.reduce([mask for mask, _ in rules])
    if bad.any():
        i = int(bad.argmax())
        raise TraceFormatError(f"{where(i)}: {next(text(i) for mask, text in rules if mask[i])}")
    dtypes = {"step": np.int64, "ctx": np.uint64, "temp": np.float64, "tokens": np.int64, "logits": np.float64}
    return replace(given, draft=np.where(absent, -1, given.draft).astype(np.int64), **{
        column: getattr(given, column).astype(dtype, copy=False) for column, dtype in dtypes.items()})


def _pairs(top_k) -> bool:
    """top_k is a sized collection of (token, logit) pairs, which the columns need."""
    try:
        return hasattr(top_k, "__len__") and all(len(entry) == 2 for entry in top_k)
    except TypeError:  # top_k or an entry is not a collection
        return False


def _record_columns(records: Sequence[TraceRecord], vocab_size: int, where) -> TraceColumns:
    """Columns of records a caller handed in, checked as object arrays before
    they have to fit 64 bits, so that a message shows the value given. Records
    that hold the same top_k object share its list; keyed by identity, never by
    value (-0.0 == 0.0), with each object held so that no id is reused."""
    lists: dict[int, tuple[int, Sequence]] = {}  # id(top_k) -> (list id, top_k)
    topk = [lists.setdefault(id(r.top_k), (len(lists), r.top_k))[0] for r in records]
    tops = [top_k for _, top_k in lists.values()]
    for j, top_k in enumerate(tops):
        if not _pairs(top_k):
            raise TraceFormatError(
                f"{where(topk.index(j))}: top-k {top_k!r} is not a list of (token, logit) pairs")
    has_ctx = np.array([r.context_hash is not None for r in records], dtype=bool)
    # element by element: np.array would make a value that is a sequence a dimension
    step, ctx, temp, draft, tokens, logits = (np.fromiter(x, object, len(x)) for x in (
        [r.step for r in records], [0 if r.context_hash is None else r.context_hash for r in records],
        [r.temperature for r in records], [r.chosen_draft for r in records],
        [tok for t in tops for tok, _ in t], [z for t in tops for _, z in t]))
    raw = _columns(step, ctx, has_ctx, temp, draft, np.array(topk, dtype=np.int64),
                   np.array([len(t) for t in tops], dtype=np.int64), tokens, logits)
    return _check(raw, vocab_size, where)


class TraceFile:
    """A trace: its header and its records, held as `columns`.

    Records handed in as TraceRecords go through the check that the reader
    and the recorder use. `records` is the row view, a list built on
    first read; editing that list does not change the trace.
    """

    def __init__(self, header: TraceHeader, records: Sequence[TraceRecord] = ()):
        self.header = header
        self.columns = _record_columns(records, header.vocab_size, lambda i: f"record {i + 1}")

    @cached_property
    def records(self) -> list[TraceRecord]:
        return self.columns.rows()


def _trace_from_columns(header, c: TraceColumns, where=lambda i: f"record {i + 1}") -> TraceFile:
    """A trace around columns that read_trace or the recorder made, once they pass _check."""
    trace = TraceFile.__new__(TraceFile)
    trace.header, trace.columns = header, _check(c, header.vocab_size, where)
    return trace


def write_trace(trace: TraceFile, destination: str | Path) -> None:
    """Write a trace; round-trips bit-exactly through read_trace. Its records
    were validated when they came into the TraceFile. Each top-k list is
    formatted once while the texts held are below `_BLOCK_FLOATS` top-k
    entries (then they are dropped), and each distinct temperature once a
    chunk."""
    if len(f"{trace.header.producer}.".splitlines()) > 1:  # as read_trace splits lines
        raise TraceFormatError(f"producer {trace.header.producer!r} contains a line break")
    c = trace.columns
    texts: dict[int, str] = {}  # each list's text, by its id
    held = 0  # top-k entries of the lists in texts
    with open(destination, "w", encoding="utf-8") as fh:
        fh.write(
            f"{_MAGIC} v{FORMAT_VERSION} "
            f"vocab={trace.header.vocab_size} producer={trace.header.producer}\n"
        )
        # formatted a chunk at a time, which bounds the strings held at once
        for start in range(0, len(c), _CHUNK):
            rows = slice(start, start + _CHUNK)
            topk = c.topk[rows].tolist()
            if held >= _BLOCK_FLOATS:
                texts, held = {}, 0
            fresh = np.array([j for j in dict.fromkeys(topk) if j not in texts], dtype=np.int64)
            for at, tokens, logits in c.by_width(fresh):
                pairs = np.empty((at.size, 2 * tokens.shape[1]), dtype=object)  # Python numbers
                pairs[:, 0::2], pairs[:, 1::2] = tokens, logits
                template = ",".join(["%d:%.17g"] * tokens.shape[1])
                texts.update(zip(fresh[at].tolist(), map(template.__mod__, map(tuple, pairs.tolist()))))
                held += tokens.size
            # a temperature is > 0 and finite, so equal values have equal bits
            temps = c.temp[rows].tolist()
            temp_texts = {temp: f"{temp:.17g}" for temp in set(temps)}
            fh.write("".join(
                f"step={step} ctx={ctx if has_ctx else '-'} temp={temp_texts[temp]} "
                f"draft={draft if draft >= 0 else '-'} topk={text}\n"
                for step, ctx, has_ctx, temp, draft, text in zip(
                    c.step[rows].tolist(), c.ctx[rows].tolist(), c.has_ctx[rows].tolist(),
                    temps, c.draft[rows].tolist(), map(texts.__getitem__, topk),
                )
            ))


def _line_row(line: str, where: str) -> TraceRecord:
    """One record line parsed field by field in line order, raising the first
    bad field's message: the path of a line that the regex or a conversion
    rejects."""
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


class _TopKRows:
    """The top-k lists of a file being read, each distinct top-k text parsed
    once: a map from text to list id, cleared once the texts it holds reach
    `_BLOCK_FLOATS` top-k entries (a text seen again after that is parsed
    again, as a new list). Keys are texts, never values: `-0` and `0` are two
    lists."""

    def __init__(self) -> None:
        self._id: dict[str, int] = {}  # each text's list
        self._held = 0  # top-k entries of the texts in _id
        # (widths, tokens, logits) of the lists, a block of new lists per ids() call
        self._parsed = [[np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)]]
        self._count = 0  # lists parsed

    def ids(self, texts: Sequence[str]) -> np.ndarray:
        """Each text's list, parsing the texts not seen before. Raises
        ValueError for a text that the grammar or float() rejects and
        OverflowError for a token that does not fit; no list is added then."""
        if self._held >= _BLOCK_FLOATS:
            self._id, self._held = {}, 0
        fresh = [text for text in dict.fromkeys(texts) if text not in self._id]
        if fresh:
            joined = ",".join(fresh)
            entries = joined.replace(":", ",").split(",")
            tokens, logits = entries[0::2], entries[1::2]
            digits = "".join(tokens)
            # the grammar, <digits>:<logit>,...: each entry holds one ':', so that the
            # separators alternate, and its token is ASCII digits (int() and float()
            # refuse an empty field); a fullmatch of the grammar's regex over `joined`
            # takes 2.5-3 times as long (17 against 7 ms for 107k entries on a
            # 2-core x86_64 machine)
            separators = joined.encode().translate(None, _NOT_SEPARATOR)
            alternate = separators == b":" + b",:" * joined.count(",")
            if not (alternate and digits.isascii() and digits.isdigit()):
                raise ValueError("top-k list does not match the record grammar")
            m = len(logits)
            tokens = np.fromiter(map(int, tokens), np.int64, m)
            logits = np.fromiter(map(float, logits), np.float64, m)
            widths = np.fromiter((text.count(",") + 1 for text in fresh), np.int64, len(fresh))
            self._parsed.append([widths, tokens, logits])
            self._id.update(zip(fresh, itertools.count(self._count)))
            self._count += len(fresh)
            self._held += m
        return np.fromiter(map(self._id.__getitem__, texts), np.int64, len(texts))

    def lists(self) -> list[np.ndarray]:
        """(widths, tokens, logits) of the lists parsed so far, by id."""
        return [np.concatenate(arrays) for arrays in zip(*self._parsed)]


def _convert(groups: list[tuple[str, ...]], rows: _TopKRows) -> list[np.ndarray]:
    """Column arrays (each record's top-k list id in place of offsets, tokens
    and logits) of the field texts of record lines that match `_RECORD`.
    Raises ValueError for a top-k list that the grammar rejects or a float
    that does not parse and OverflowError for an integer that does not fit."""
    n = len(groups)
    step, ctx, temp, draft, topk = zip(*groups) if groups else [()] * len(_FIELDS)
    temps = {text: float(text) for text in set(temp)}  # each distinct text once
    return [
        np.fromiter(map(int, step), np.int64, n),
        # an absent ctx or draft, "-", reads as 0 or -1; these maps run in C
        np.fromiter(map(int, map({"-": "0"}.get, ctx, ctx)), np.uint64, n),
        np.fromiter(map("-".__ne__, ctx), bool, n),
        np.fromiter(map(temps.__getitem__, temp), np.float64, n),
        np.fromiter(map(int, map({"-": "-1"}.get, draft, draft)), np.int64, n),
        rows.ids(topk),  # last, so that lists are added only for lines that convert
    ]


def _converted(matches: list, rows: _TopKRows) -> list[np.ndarray] | None:
    """_convert of the matched lines, or None if the regex or a conversion rejects one."""
    try:
        return None if None in matches else _convert([m.groups() for m in matches], rows)
    except (ValueError, OverflowError):
        return None


def _concatenated(parts: list[list[np.ndarray]], rows: _TopKRows) -> TraceColumns:
    fields = (np.concatenate(arrays) for arrays in zip(*parts or [_convert([], rows)]))
    return _columns(*fields, *rows.lists())


def read_trace(source: str | Path) -> TraceFile:
    """Parse and validate a trace file; errors cite the offending record."""
    try:
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:  # read_text decodes all of the file's bytes in one call
        at = len((exc.object[: exc.start].decode("utf-8") + ".").splitlines())  # lines as above
        raise TraceFormatError(
            f"{source}: line {at}: byte {exc.object[exc.start]:#04x} is not UTF-8") from exc
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

    parts: list[list[np.ndarray]] = []
    rows = _TopKRows()
    # converted a chunk at a time, which bounds the field strings held at once,
    # and a line at a time in a chunk with a line the regex or a conversion rejects
    for start in range(0, len(body), _CHUNK):
        matches = list(map(_RECORD.fullmatch, body[start : start + _CHUNK]))
        chunk = _converted(matches, rows)
        if chunk is not None:
            parts.append(chunk)
            continue
        for i, match in enumerate(matches, start):
            line = _converted([match], rows)
            if line is None:
                # an earlier record's fault comes first
                _check(_concatenated(parts, rows), vocab_size, where)
                _record_columns([_line_row(body[i], where(i))], vocab_size, lambda _: where(i))
                raise TraceFormatError(f"{where(i)}: does not match the record grammar")
            parts.append(line)
    return _trace_from_columns(TraceHeader(vocab_size, producer), _concatenated(parts, rows), where)


def hash_context(context: Sequence[int]) -> int:
    """Stable 64-bit hash of a token sequence: the one-shot form of the running
    hash `decode` keeps (engine.context_hasher), i.e. the `ctx=` trace field."""
    return int.from_bytes(context_hasher(context).digest(), "little")


class TraceRecorder:
    """Engine recorder filling trace columns a cycle at a time. lists()
    copies and ranks each distinct logit vector once, keyed by its bytes, a
    block of at most `_BLOCK_FLOATS` logits at a time, into a top-k list whose
    id stays valid after its block is ranked; to_trace ranks a partial block."""

    def __init__(self, vocab_size: int, temperature: float, top_k: int = DEFAULT_TOP_K):
        TraceHeader(vocab_size)  # refuses a vocab_size that a trace cannot hold
        check_count("top_k", top_k)
        if top_k < 2:
            raise ValueError("top_k must be >= 2")
        self.vocab_size = vocab_size
        self.temperature = temperature
        self.top_k = min(top_k, vocab_size)
        self._block = max(1, _BLOCK_FLOATS // vocab_size)
        self._draft, self._topk = [], []  # each record's, the draft as given
        self._ctx = bytearray()  # each record's context hash, 8 bytes little-endian
        self._seen: dict[bytes, int] = {}  # the pending block: each vector's list, by its bytes
        self._distinct = 0  # lists so far, ranked or pending
        self._tokens: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        self._logits: list[np.ndarray] = [np.zeros(0)]

    def _refuse(self, i: int, message: str) -> NoReturn:
        raise TraceFormatError(f"record {len(self._topk) + i + 1}: {message}")

    def lists(self, vectors: Iterable[np.ndarray]) -> list[int]:
        """The list id of each of the next records' logit vectors. A call that
        is refused adds no list."""
        keys = []  # each vector's bytes, a copy as it is read: a caller may refill one array
        for z in vectors:
            z = np.asarray(z, dtype=np.float64)
            if z.shape != (self.vocab_size,):
                self._refuse(len(keys), f"logit vector of shape {z.shape}, expected ({self.vocab_size},)")
            keys.append(z.tobytes())
        ids = []
        for key in keys:
            ids.append(self._seen.setdefault(key, self._distinct))
            if ids[-1] == self._distinct:  # a new list
                self._distinct += 1
                if len(self._seen) == self._block:
                    self._rank()
        return ids

    def __call__(self, lists: Sequence[int], drafts: Sequence[int | None], digests: bytes) -> None:
        """Record one record per id from lists(), its step the number of
        records before it, with its draft (None where absent), kept as given
        for to_trace to check, and 8 bytes of `digests`, its context hash."""
        m = len(lists)
        if len(drafts) != m or len(digests) != 8 * m:
            self._refuse(0, f"{len(drafts)} drafts and {len(digests)} context hash bytes for {m} records")
        for i, j in enumerate(lists):
            if not (isinstance(j, (int, np.integer)) and 0 <= j < self._distinct):
                self._refuse(i, f"top-k list {j!r} is not one this recorder returned")
        self._ctx += digests  # first: bytes of another type fail before a column grows
        self._draft.extend(drafts)
        self._topk.extend(lists)

    def _rank(self) -> None:
        """Move the pending vectors' top-k into the columns. A stable sort of
        the negated logits orders each list by descending logit, ties to the
        smaller token id, as the trace grammar does."""
        if self._seen:
            z = np.frombuffer(b"".join(self._seen), dtype=np.float64).reshape(len(self._seen), -1)
            # the columns copy the top-k, so the full-vocabulary sort is not kept alive
            order = np.argsort(-z, axis=1, kind="stable")[:, : self.top_k]
            self._tokens.append(order.flatten())
            self._logits.append(np.take_along_axis(z, order, axis=1).ravel())
            self._seen = {}

    def to_trace(self, producer: str = "") -> TraceFile:
        """The records so far as a trace, checked as read_trace checks its columns."""
        self._rank()
        n, exact = len(self._topk), isinstance(self.temperature, float)
        # a float is its own float64; anything else goes to the check as given
        temp = np.full(n, self.temperature, dtype=np.float64 if exact else object)
        columns = _columns(
            np.arange(n, dtype=np.int64), np.frombuffer(bytes(self._ctx), "<u8"),
            np.ones(n, dtype=bool), temp, np.fromiter(self._draft, object, n),
            np.array(self._topk, dtype=np.int64), np.full(self._distinct, self.top_k, dtype=np.int64),
            np.concatenate(self._tokens), np.concatenate(self._logits))
        return _trace_from_columns(TraceHeader(self.vocab_size, producer), columns)


def iter_cycles(trace: TraceFile, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Group draft-carrying records into cycles of k, attaching the draft-less
    record that immediately follows a complete group as its bonus source.
    Returns (first, bonus) arrays: per cycle, the index of its first drafted
    record (its drafted records are the k from the first on) and of its bonus
    record, -1 where it has none. A trace with no complete cycle is an error.

    So is a trace recorded with another k, naming the lowest record at fault:
    either a draft-less record splits a group, or complete groups are followed
    by a draft-less record in one place and by a drafted one in another (k
    divides the recorded K)."""
    check_count("k", k)
    if k < 1:
        raise ValueError("k must be >= 1")
    drafted = trace.columns.draft >= 0
    n = drafted.size
    # runs of drafted records, [start, end)
    start, end = np.flatnonzero(np.diff(drafted, prepend=False, append=False)).reshape(-1, 2).T
    size = min(k, n + 1)  # a k past the trace's length forms no group either; this fits int64
    groups = (end - start) // size
    run = np.repeat(np.arange(groups.size), groups)  # each group's run
    first = start[run] + size * (np.arange(run.size) - np.repeat(groups.cumsum() - groups, groups))
    after = first + size  # the record after each group
    inside = after < n
    follows = inside & (after == end[run])  # a draft-less record follows the group
    pattern = follows[inside]
    unlike = after[inside][pattern != pattern[:1]][:1]  # breaks the first complete group's pattern
    split = (end < n) & ((end - start) % size > 0)  # a draft-less record splits a group
    faults = [(i, f"{'drafted' if drafted[i] else 'draft-less'} record after a complete group "
                  f"of {k}, unlike the groups before it") for i in unlike]
    faults += [(i, f"draft-less record after {(i - s) % size} of {k} drafted records")
               for i, s in zip(end[split][:1], start[split][:1])]
    if faults:
        i, message = min(faults)
        raise TraceFormatError(f"record {i + 1}: {message}")
    if not first.size:
        raise ValueError(f"trace holds no complete cycle of {k} drafted records")
    return first, np.where(follows, after, -1)


def replay_verify(
    trace: TraceFile, policy: VerificationPolicy, k: int, cost: CostModel = CostModel()
) -> DecodeMetrics:
    """Re-run verification over a recorded trace using only the top-2 entries.

    One array pass over all cycles at once, deciding each position as
    decide_position does."""
    first, bonus = iter_cycles(trace, k)
    n, has_bonus = first.size, bonus >= 0
    (v1, v2, z1, z2), draft = trace.columns.top_two(), trace.columns.draft
    exact = accept = draft == v1  # per record
    if policy.kind == "margin":
        accept = exact | ((draft == v2) & (logit_ratios(z1, z2) > policy.theta))
    rows = first[:, None] + np.arange(k)  # (cycles, k) drafted records
    exact, accept = exact[rows], accept[rows]
    leading = np.logical_and.accumulate(accept, axis=1)  # the positions before a rejection
    accepted = leading.sum(axis=1)
    rejected = accepted < k
    exact_count, accepted_count = int((leading & exact).sum()), int(accepted.sum())
    rejected_count, bonus_count = int(rejected.sum()), int((has_bonus & ~rejected).sum())
    labels = {Decision.EXACT: exact_count, Decision.RELAXED: accepted_count - exact_count,
              Decision.REJECTED: rejected_count}
    # a cycle commits its accepted drafts plus a correction or a bonus token
    committed = accepted_count + rejected_count + bonus_count
    return metrics_from_counts(n, committed, labels, bonus_count, k * n, cost, k)
