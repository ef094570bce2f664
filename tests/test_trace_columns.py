"""Differential tests of the columnar trace reader, writer and analysis
against the per-record ones they replaced (`trace_oracle`).

On valid traces (ragged top-k widths, logit ties, z1 <= 0, -0.0,
subnormals) and on single-line mutations of them, `read_trace` must return
the oracle's records bit for bit or raise the oracle's message. The one
deliberate difference is the strict integer grammar: a step, ctx, draft or
top-k token that `int()` accepts but that is not ASCII decimal digits, a
step of 2^63 or more, or a ctx of 2^64 or more, is rejected naming its
record and line.
"""

from __future__ import annotations

import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trace_oracle
from specverify import trace as trace_module
from specverify.analysis import analyze_trace
from specverify.trace import (
    TraceFile,
    TraceFormatError,
    TraceHeader,
    TraceRecord,
    read_trace,
    write_trace,
)

VOCAB = 16
SPECIAL_LOGITS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.0, -1.0,
                  1.5, 0.1, 10.0, 9.0, 1e300, -1e300]
SPECIAL_TEMPS = [1.0, 0.4, 0.7, 2.5, 5e-324, 1e300]


def record_line(rng: random.Random) -> str:
    width = rng.randint(2, 10)
    tokens = rng.sample(range(VOCAB), width)
    pick = rng.random()  # special values, small integers (ties) or spread floats
    logits = [
        rng.choice(SPECIAL_LOGITS) if pick < 0.3 else
        float(rng.randint(-3, 3)) if pick < 0.6 else rng.uniform(-60.0, 60.0)
        for _ in range(width)
    ]
    entries = sorted(zip(tokens, logits), key=lambda e: (-e[1], e[0]))
    step = rng.randint(0, 50) if rng.random() < 0.8 else rng.randint(0, 2**63 - 1)
    ctx = rng.randint(0, 2**64 - 1) if rng.random() < 0.5 else "-"
    draft = rng.randint(0, VOCAB - 1) if rng.random() < 0.7 else "-"
    temp = rng.choice(SPECIAL_TEMPS) if rng.random() < 0.3 else rng.uniform(1e-3, 10.0)
    return (
        f"step={step} ctx={ctx} temp={temp:.17g} draft={draft} topk="
        + ",".join(f"{tok}:{z:.17g}" for tok, z in entries)
    )


@st.composite
def traces(draw) -> list[str]:
    """A valid trace's lines: ragged top-k widths, logit ties, z1 <= 0, -0.0,
    subnormals, blank lines."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lines = [f"specverify-trace v1 vocab={VOCAB} producer=differential test"]
    for _ in range(draw(st.integers(1, 12))):
        if rng.random() < 0.1:
            lines.append("")
        lines.append(record_line(rng))
    return lines


# field values int() or float() may or may not accept; no line breaks
VALUES = ["", "-", "0", "7", "5:2,3:2", "1_0", "+3", "-5", "\t3", "3\t", "٣", "03",
          "9223372036854775808", "18446744073709551615", "18446744073709551616",
          "99999999999999999999999", "nan", "inf", "-inf", "1e400", "-0", "0x1", "abc", "1.5",
          "3:", ":3", "3:4:5", "3:1,3:0.5", "3:2,4:nan", "1:1,2:2", "15:1,16:0", "2:1",
          "1:1e-400,2:-1e-400", "٣:1,2:0", "+1:2,2:1", "1:2,", "1:2,,2:1", "1:inf,2:1"]
CHARS = "0123456789-+_.:,= eEnaifx\t٣"
FIELDS = ("step", "ctx", "temp", "draft", "topk")


@st.composite
def mutated(draw) -> tuple[list[str], int]:
    """A valid trace with one record line mutated, and that line's index."""
    lines = draw(traces())
    i = draw(st.integers(1, len(lines) - 1))  # a record line; the header reader is unchanged
    line = lines[i]
    kind = draw(st.sampled_from(["value"] * 4 + ["char"] * 2 + ["swap"] * 2 + ["drop", "extra"]))
    parts = line.split(" ")
    if kind == "value":
        j = draw(st.integers(0, len(parts) - 1))
        key = parts[j].partition("=")[0]
        parts[j] = f"{key}={draw(st.sampled_from(VALUES))}"
    elif kind == "swap" and line:
        entries = parts[-1].partition("=")[2].split(",")
        a, b = draw(st.integers(0, len(entries) - 1)), draw(st.integers(0, len(entries) - 1))
        entries[a], entries[b] = entries[b], entries[a]
        if draw(st.booleans()):
            entries.append(entries[a])
        parts[-1] = "topk=" + ",".join(entries)
    elif kind == "drop":
        del parts[draw(st.integers(0, len(parts) - 1))]
    elif kind == "extra":
        parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from(FIELDS)) + "=1")
    else:
        pos = draw(st.integers(0, len(line)))
        cut = draw(st.integers(0, 2))
        line = line[:pos] + draw(st.sampled_from(["", *CHARS])) + line[pos + cut :]
        parts = line.split(" ")
    lines[i] = " ".join(parts)
    return lines, i


def _int_only_by_python(text: str) -> bool:
    """int() accepts the text, but it is not ASCII decimal digits."""
    try:
        int(text)
    except ValueError:
        return False
    return not (text.isascii() and text.isdigit())


def rejected_on_purpose(line: str) -> bool:
    """The line breaks a rule of the strict integer grammar that the
    per-record reader did not have."""
    for part in line.split(" "):
        key, _, value = part.partition("=")
        if key == "step" or (key in ("ctx", "draft") and value != "-"):
            if _int_only_by_python(value):
                return True
            bound = {"step": 2**63, "ctx": 2**64}.get(key)
            if bound and value.isascii() and value.isdigit() and int(value) >= bound:
                return True
        if key == "topk":
            if any(_int_only_by_python(e.partition(":")[0]) for e in value.split(",")):
                return True
    return False


def outcome(read, path):
    """("ok", header, records as bit-exact tuples) or ("error", message)."""
    try:
        header, records = read(path)
    except TraceFormatError as exc:
        return ("error", str(exc))
    rows = [
        (r.step, r.context_hash, repr(float(r.temperature)), r.chosen_draft,
         tuple((tok, repr(float(z))) for tok, z in r.top_k))
        for r in records
    ]
    return ("ok", header, rows)


def read_columnar(path):
    trace = read_trace(path)
    return trace.header, trace.records


def oracle_outcome(path):
    result = outcome(trace_oracle.read_trace, path)
    if result[0] == "error":
        # the per-record reader named the record twice for a wrong field key:
        # its try block wrapped _field's TraceFormatError, a ValueError, again
        result = ("error", re.sub(r"^(record \d+ \(line \d+\): )\1", r"\1", result[1]))
    return result


def report(analyze) -> str:
    """The report's repr, which shows every float bit for bit (-0.0 too), or
    the ValueError that analysis raised."""
    try:
        return repr(analyze())
    except ValueError as exc:
        return f"ValueError: {exc}"


def write_lines(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "differential.trace"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@given(lines=traces())
@settings(max_examples=200, deadline=None)
def test_valid_traces_read_and_write_as_the_oracle_does(tmp_path_factory, lines):
    path = write_lines(tmp_path_factory, lines)
    new = outcome(read_columnar, path)
    assert new[0] == "ok"
    assert new == oracle_outcome(path)
    trace = read_trace(path)
    write_trace(trace, path.with_name("new.trace"))
    trace_oracle.write_trace(trace, path.with_name("old.trace"))
    assert path.with_name("new.trace").read_bytes() == path.with_name("old.trace").read_bytes()


def repeated_rows(rng: random.Random, distinct: int, records: int) -> list[TraceRecord]:
    """Records whose top-k rows repeat: each of `records` picks one of
    `distinct` rows of ragged widths, or the bit-twin of a row that differs
    only in the sign of a zero logit, which formats differently."""
    rows = []
    for _ in range(distinct):
        width = rng.randint(2, 6)
        logits = sorted((rng.choice([0.0, 1.5, -2.25, 1e300, 5e-324]) for _ in range(width)), reverse=True)
        rows.append(tuple(zip(sorted(rng.sample(range(VOCAB), width)), logits)))
        if 0.0 in logits:  # its twin is == to it, but not in bits
            rows.append(tuple((tok, -z if z == 0 else z) for tok, z in rows[-1]))
    return [
        TraceRecord(i, rng.choice(rows), rng.choice([0.4, 1.0]),
                    rng.choice([None, rng.randrange(VOCAB)]), rng.choice([None, i]))
        for i in range(records)
    ]


@given(seed=st.integers(0, 2**32 - 1), distinct=st.integers(1, 12), records=st.integers(0, 40),
       chunk=st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_repeated_rows_write_as_the_oracle_does(tmp_path_factory, seed, distinct, records, chunk):
    """Rows repeated verbatim and as zero-sign twins write the oracle's bytes,
    also with a `_CHUNK` so small that the held row texts are dropped and
    formatted again many times over."""
    trace = TraceFile(TraceHeader(VOCAB, "rows"), repeated_rows(random.Random(seed), distinct, records))
    path = tmp_path_factory.getbasetemp()
    with mock.patch.object(trace_module, "_CHUNK", chunk):
        write_trace(trace, path / "new.trace")
    trace_oracle.write_trace(trace, path / "old.trace")
    assert (path / "new.trace").read_bytes() == (path / "old.trace").read_bytes()


def test_more_distinct_rows_than_a_chunk_write_as_the_oracle_does(tmp_path):
    trace = TraceFile(TraceHeader(VOCAB), repeated_rows(random.Random(5), 1500, 5000))
    assert len({repr(r.top_k) for r in trace.records}) > trace_module._CHUNK  # repr shows -0.0
    write_trace(trace, tmp_path / "new.trace")
    trace_oracle.write_trace(trace, tmp_path / "old.trace")
    assert (tmp_path / "new.trace").read_bytes() == (tmp_path / "old.trace").read_bytes()


@given(case=mutated())
@settings(max_examples=1000, deadline=None)
def test_mutated_traces_fail_as_the_oracle_does(tmp_path_factory, case):
    lines, i = case
    path = write_lines(tmp_path_factory, lines)
    new = outcome(read_columnar, path)
    if rejected_on_purpose(lines[i]):
        record = sum(1 for line in lines[1 : i + 1] if line)
        assert new[0] == "error"
        assert new[1].startswith(f"record {record} (line {i + 1}): ")
    else:
        assert new == oracle_outcome(path)


@given(lines=traces(), theta=st.sampled_from([0.5, 0.9, 0.95, 1.0]))
@settings(max_examples=200, deadline=None)
def test_ragged_analysis_equals_the_per_record_analysis(tmp_path_factory, lines, theta):
    path = write_lines(tmp_path_factory, lines)
    _, records = trace_oracle.read_trace(path)
    assert report(lambda: analyze_trace(read_trace(path), theta)) == report(
        lambda: trace_oracle.analyze_records(records, theta)
    )


def test_records_handed_in_are_validated_with_the_oracles_message():
    rows = [(5, 2.0), (3, 2.0)]  # a tie must order by ascending token id
    record = TraceRecord(step=0, top_k=tuple(rows), temperature=1.0)
    with pytest.raises(TraceFormatError) as new:
        TraceFile(TraceHeader(64), [record])
    with pytest.raises(TraceFormatError) as old:
        trace_oracle.validate_record(record, 64, where="record 1")
    assert str(new.value) == str(old.value)


GOOD = "step=0 ctx=- temp=1 draft=- topk=3:2.5,1:1.25,7:0"
BAD_LINES = [
    "step=1 ctx=- temp=1 draft=- topk=5:2,3:2",
    "step=1 ctx=- temp=1 draft=- topk=3:2,1:1,5:1,4:1",
    "step=1 ctx=- temp=1 draft=- topk=1:inf,2:1",
    "step=1 ctx=- temp=1 draft=- topk=1:1,2:-inf",
    "step=1 ctx=- temp=1 draft=- topk=1:nan,2:1",
    "step=1 ctx=- temp=1 draft=- topk=3:1,3:0.5",
    "step=1 ctx=- temp=1 draft=- topk=3:2,1:1,3:0.5",
    "step=1 ctx=- temp=1 draft=- topk=64:1,2:0",
    "step=1 ctx=- temp=1 draft=64 topk=3:2.5,1:1.25",
    "step=1 ctx=- temp=0 draft=- topk=3:2.5,1:1.25",
    "step=1 ctx=- temp=-1 draft=- topk=3:2.5,1:1.25",
    "step=1 ctx=- temp=nan draft=- topk=3:2.5,1:1.25",
    "step=1 ctx=- temp=inf draft=- topk=3:2.5,1:1.25",
    "step=1 ctx=- temp=1 draft=- topk=3:1",
    "step=1 ctx=- temp=1 draft=- topk=3:1,2:2",
    "step=1 ctx=- temp=1 draft=- topk=3:2.5,1:1.25 x=1",
    "step=1 ctx=abc temp=1 draft=- topk=3:2.5,1:1.25",
    "step=1 ctx=- temp=abc draft=- topk=3:2.5,1:1.25",
    "step=1 ctx=- temp=1 draft=- topk=3:2.5,1",
    "step=1 ctx=- temp=1 draft=- topk=3:2.5:1,1:1",
    "stp=1 ctx=- temp=1 draft=- topk=3:2.5,1:1.25",
    "step=1 ctx=- temp=1 draft=99999999999999999999999 topk=3:2.5,1:1.25",
    "step=1 ctx=- temp=1 draft=- topk=99999999999999999999999:2.5,1:1.25",
    "step=1 ctx=- temp=1 draft=- topk=3:1e400,1:1.25",
]


def oracle_error(tmp_path_factory, lines):
    path = write_lines(tmp_path_factory, lines)
    new, old = outcome(read_columnar, path), oracle_outcome(path)
    assert old[0] == "error"
    return new, old


@pytest.mark.parametrize("bad", BAD_LINES)
def test_each_bad_record_kind_gets_the_oracles_message(tmp_path_factory, bad):
    header = "specverify-trace v1 vocab=64 producer=table"
    new, old = oracle_error(tmp_path_factory, [header, GOOD, "", bad, GOOD])
    assert new == old
    assert old[1].startswith("record 2 (line 4): ")


@pytest.mark.parametrize("late", [
    "step=1 ctx=- temp=abc draft=- topk=3:2.5,1:1.25",  # fails float() in bulk
    "step=1 ctx=- temp=1 draft=- topk=3:2.5,1",  # does not match the grammar
    "step=1 ctx=- temp=1 draft=- topk=3:2.5,1:2.5",  # fails an array check
])
def test_the_first_bad_record_wins_across_chunks(tmp_path_factory, late):
    # record 1300 is bad in one way and record 1500 in another: 1300 is named,
    # though it lies in a later chunk of lines than the first record
    lines = ["specverify-trace v1 vocab=64 producer=chunks"] + [GOOD] * 2000
    lines[1300] = "step=1 ctx=- temp=1 draft=- topk=5:2,3:2"
    lines[1500] = late
    new, old = oracle_error(tmp_path_factory, lines)
    assert new == old and old[1].startswith("record 1300 (line 1301): top-k ordering")
    lines[1300] = GOOD
    new, old = oracle_error(tmp_path_factory, lines)
    assert new == old and old[1].startswith("record 1500 (line 1501): ")
