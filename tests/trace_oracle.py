"""The per-record trace reader, cycle grouping, cycle replay and trace
analysis that the columnar ones in `specverify.trace` and
`specverify.analysis` replaced, kept as the reference for differential
tests. The reader parses and validates one record at a time with
`int`/`float` on split fields, the writer validates and formats one record
at a time, cycles are grouped by a loop over the runs of drafted records,
replay decides one cycle at a time, and analysis takes a 1-D softmax per
record.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import specverify.trace
from specverify.analysis import DEFAULT_BINS, AnalysisReport, Histogram, ScatterPoint, _histogram
from specverify.logits import TopTwo, logit_ratio
from specverify.trace import (
    FORMAT_VERSION,
    _MAGIC,
    TraceFile,
    TraceFormatError,
    TraceHeader,
    TraceRecord,
)
from specverify.verify import CycleResult, VerificationPolicy, verify_top_two_chain


def softmax(values, temperature: float) -> np.ndarray:
    z = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # overflow to -inf is the limit; exp gives 0
        e = np.exp((z - z.max()) / temperature)
    return e / e.sum()


def _is_float64_number(value) -> bool:
    """An int or float (numpy's too) that float() converts without overflow."""
    if not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def validate_record(rec: TraceRecord, vocab_size: int, where: str = "record") -> None:
    values = [("step", rec.step), ("ctx", rec.context_hash), ("temperature", rec.temperature),
              ("draft", rec.chosen_draft)]
    values += [("token", tok) for tok, _ in rec.top_k] + [("logit", z) for _, z in rec.top_k]
    for name, value in values:
        absent = value is None and name in ("ctx", "draft")
        if name in ("temperature", "logit"):
            if not _is_float64_number(value):
                raise TraceFormatError(f"{where}: {name} {value!r} is not a float64 number")
        elif not absent and not isinstance(value, (int, np.integer)):
            raise TraceFormatError(f"{where}: {name} {value!r} is not an integer")
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
        f"{_MAGIC} v{FORMAT_VERSION} "
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


def read_trace(source: str | Path) -> tuple[TraceHeader, list[TraceRecord]]:
    """Parse and validate a trace file record by record; errors cite the
    offending record."""
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
    return TraceHeader(vocab_size=vocab_size, producer=producer), records


def iter_cycles(trace: TraceFile, k: int) -> list[tuple[int, int | None]]:
    """Cycles of k drafted records as (index of the first, index of the
    draft-less record after the group or None), grouped run by run, with the
    errors of a trace recorded with another k or holding no complete cycle."""
    if k < 1:
        raise ValueError("k must be >= 1")
    drafted = np.array([rec.chosen_draft is not None for rec in trace.records], dtype=bool)
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
    if not cycles:
        raise ValueError(f"trace holds no complete cycle of {k} drafted records")
    return cycles


def replay_cycles(trace: TraceFile, policy: VerificationPolicy, k: int) -> list[CycleResult]:
    """Per-cycle verification results of a replay (decision-level view): the
    cycles of `specverify.trace.iter_cycles`, each decided position by
    position by verify_top_two_chain, as live decode decides them."""
    cycles = specverify.trace.iter_cycles(trace, k)
    v1, v2, z1, z2 = (column.tolist() for column in trace.columns.top_two())
    drafts = trace.columns.draft.tolist()
    results = []
    for first, bonus in zip(*(a.tolist() for a in cycles)):
        tops = [TopTwo(v1=v1[i], v2=v2[i], z1=z1[i], z2=z2[i], ratio=logit_ratio(z1[i], z2[i]))
                for i in range(first, first + k)]
        bonus_top1 = None if bonus < 0 else v1[bonus]
        results.append(verify_top_two_chain(drafts[first : first + k], tops, policy, bonus_top1))
    return results


def analyze_records(
    records: list[TraceRecord], theta: float, bins: int = DEFAULT_BINS
) -> AnalysisReport:
    """Build the report for one trace's records at relaxation threshold theta."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    if not records:
        raise ValueError("cannot analyze an empty trace")
    top1s: list[float] = []
    ratios: list[float] = []
    prob_ratios: list[float] = []
    scatter: list[ScatterPoint] = []
    in_zone = 0
    for rec in records:
        (_, z1), (_, z2) = rec.top_k[0], rec.top_k[1]
        r = logit_ratio(z1, z2)
        top1s.append(z1)
        if r is not None:
            ratios.append(r)
            if r > theta:
                in_zone += 1
        prob_ratios.append(math.exp((z2 - z1) / rec.temperature))
        probs = softmax([z for _, z in rec.top_k], rec.temperature)
        scatter.append(
            ScatterPoint(
                step=rec.step,
                z1=z1,
                z2=z2,
                p1=float(probs[0]),
                p2=float(probs[1]),
                ratio=r,
            )
        )
    n = len(records)
    return AnalysisReport(
        theta=theta,
        record_count=n,
        ratio_defined_count=len(ratios),
        relaxation_fraction=in_zone / n,
        top1_hist=_histogram(top1s, bins),
        ratio_hist=_histogram(ratios, bins) if ratios else Histogram((), ()),
        prob_ratio_hist=_histogram(prob_ratios, bins),
        scatter=tuple(scatter),
    )
