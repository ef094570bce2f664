"""Differential tests of the columnar trace reader, writer and analysis
against the per-record ones they replaced (`trace_oracle`).

On valid traces (ragged top-k widths, logit ties, z1 <= 0, -0.0,
subnormals), on traces whose top-k rows repeat in one or several spellings,
and on single-line mutations of both, `read_trace` must return the
oracle's records bit for bit or raise the oracle's message. The one
deliberate difference is the strict integer grammar: a step, ctx, draft or
top-k token that `int()` accepts but that is not ASCII decimal digits, a
step of 2^63 or more, or a ctx of 2^64 or more, is rejected naming its
record and line.

`analyze_trace` must equal the oracle's per-record analysis in every report
field, bit for bit, and `write_report`'s scatter.csv, which formats each
distinct row once, must have the bytes of the oracle's one `csv.writer` row
per record.
"""

from __future__ import annotations

import random
import re
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import trace_oracle
from specverify import analysis
from specverify import trace as trace_module
from specverify.analysis import AnalysisReport, Histogram, Scatter, analyze_trace, write_report
from specverify.logits import softmax
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
def mutated(draw, valid=traces()) -> tuple[list[str], int]:
    """A valid trace with one record line mutated, and that line's index."""
    lines = draw(valid)
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


def report_bits(report: AnalysisReport) -> dict:
    """Every field of a report bit for bit, with its type: a float as its
    bytes (so -0.0 is not 0.0), a histogram with its edges as bytes, and the
    scatter as each column's dtype, shape and bytes."""

    def bits(value):
        if isinstance(value, Histogram):
            return np.array(value.edges, dtype=np.float64).tobytes(), value.counts, value.outside
        if isinstance(value, Scatter):
            return [(column.dtype.str, column.shape, column.tobytes()) for column in value]
        return np.float64(value).tobytes() if isinstance(value, float) else value

    return {f.name: (type(v := getattr(report, f.name)).__name__, bits(v)) for f in fields(report)}


def written_csvs(report: AnalysisReport, outdir: Path, points=None) -> list[bytes]:
    """The bytes of write_report's four CSVs; with the oracle's scatter points,
    its scatter.csv is the oracle's, one csv.writer row per point."""
    paths = write_report(report, outdir)
    if points is not None:
        trace_oracle.write_scatter(points, paths[3])
    return [path.read_bytes() for path in paths]


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
       chunk=st.integers(1, 8), entries=st.integers(1, 24))
@settings(max_examples=300, deadline=None)
def test_repeated_rows_write_as_the_oracle_does(tmp_path_factory, seed, distinct, records, chunk,
                                                entries):
    """Rows repeated verbatim and as zero-sign twins write the oracle's bytes,
    also with chunks of a few records and the held row texts dropped once
    they reach so few top-k entries that rows are formatted again many times
    over."""
    trace = TraceFile(TraceHeader(VOCAB, "rows"), repeated_rows(random.Random(seed), distinct, records))
    path = tmp_path_factory.getbasetemp()
    with mock.patch.multiple(trace_module, _CHUNK=chunk, _BLOCK_FLOATS=entries):
        write_trace(trace, path / "new.trace")
    trace_oracle.write_trace(trace, path / "old.trace")
    assert (path / "new.trace").read_bytes() == (path / "old.trace").read_bytes()


def test_more_distinct_rows_than_a_chunk_write_as_the_oracle_does(tmp_path):
    trace = TraceFile(TraceHeader(VOCAB), repeated_rows(random.Random(5), 1500, 5000))
    assert len({repr(r.top_k) for r in trace.records}) > trace_module._CHUNK  # repr shows -0.0
    write_trace(trace, tmp_path / "new.trace")
    trace_oracle.write_trace(trace, tmp_path / "old.trace")
    assert (tmp_path / "new.trace").read_bytes() == (tmp_path / "old.trace").read_bytes()


def test_distinct_rows_past_a_chunk_each_repeated_round_trip(tmp_path):
    """Each of 1500 distinct rows written twice, 1500 records apart: its text
    is still held when it comes back, since the texts hold far fewer than
    `_BLOCK_FLOATS` top-k entries. The bytes are the oracle's and read back
    bit for bit."""
    rng = random.Random(16)
    rows = [tuple(sorted(zip(rng.sample(range(VOCAB), 3), (rng.uniform(-9, 9) for _ in range(3))),
                         key=lambda e: (-e[1], e[0]))) for _ in range(1500)]
    assert len(set(rows)) == len(rows) > trace_module._CHUNK
    records = [TraceRecord(i, row, 0.7, None, i) for i, row in enumerate(rows + rows)]
    trace = TraceFile(TraceHeader(VOCAB, "repeats"), records)
    write_trace(trace, tmp_path / "new.trace")
    trace_oracle.write_trace(trace, tmp_path / "old.trace")
    assert (tmp_path / "new.trace").read_bytes() == (tmp_path / "old.trace").read_bytes()
    assert read_trace(tmp_path / "new.trace").records == records


def assert_fails_as_the_oracle_does(path, lines, i):
    new = outcome(read_columnar, path)
    if rejected_on_purpose(lines[i]):
        record = sum(1 for line in lines[1 : i + 1] if line)
        assert new[0] == "error"
        assert new[1].startswith(f"record {record} (line {i + 1}): ")
    else:
        assert new == oracle_outcome(path)


@given(case=mutated())
@settings(max_examples=1000, deadline=None)
def test_mutated_traces_fail_as_the_oracle_does(tmp_path_factory, case):
    lines, i = case
    assert_fails_as_the_oracle_does(write_lines(tmp_path_factory, lines), lines, i)


# spellings of one value: read_trace keys a top-k row by its text, so each
# spelling is a row of its own, which must parse to the same bits
SPELLINGS = [(1.5, ["1.5", "1.50", "15e-1"]), (0.0, ["0", "0.0", "0e9"]), (-0.0, ["-0", "-0.0"]),
             (-2.25, ["-2.25", "-225e-2"]), (2.0, ["2", "2.0", "20e-1"]),
             (1e300, ["1e300", "1E+300"]), (5e-324, ["5e-324", "4.9406564584124654e-324"])]


@st.composite
def repeated_traces(draw) -> list[str]:
    """A valid trace's lines whose records draw their top-k texts from a pool
    of 1 to 4 rows of ragged widths: the same rows repeated, and spelled
    differently (1.5, 1.50 and 15e-1; -0 beside 0)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pool = []
    for _ in range(rng.randint(1, 4)):
        width = rng.randint(2, 6)
        entries = sorted(zip(rng.sample(range(VOCAB), width), rng.choices(SPELLINGS, k=width)),
                         key=lambda e: (-e[1][0], e[0]))
        for _ in range(rng.randint(1, 3)):  # text twins of the row
            pool.append(",".join(f"{tok}:{rng.choice(texts)}" for tok, (_, texts) in entries))
    lines = [f"specverify-trace v1 vocab={VOCAB} producer=repeated rows"]
    for step in range(draw(st.integers(1, 30))):
        draft = rng.choice(["-", rng.randrange(VOCAB)])
        lines.append(f"step={step} ctx=- temp={rng.choice(['1', '0.5', '0.50'])} draft={draft} "
                     f"topk={rng.choice(pool)}")
    return lines


def small_bounds(chunk: int, entries: int):
    """read_trace with `_CHUNK` lines a chunk and the top-k texts it holds
    cleared once they reach `entries` entries, so rows are parsed again."""
    return mock.patch.multiple(trace_module, _CHUNK=chunk, _BLOCK_FLOATS=entries)


@given(lines=repeated_traces(), chunk=st.integers(1, 8), entries=st.integers(1, 24))
@settings(max_examples=300, deadline=None)
def test_repeated_rows_read_as_the_oracle_does(tmp_path_factory, lines, chunk, entries):
    path = write_lines(tmp_path_factory, lines)
    with small_bounds(chunk, entries):
        new = outcome(read_columnar, path)
    assert new[0] == "ok"
    assert new == oracle_outcome(path)
    assert outcome(read_columnar, path) == new  # at the real bounds


@given(lines=repeated_traces(), read=st.tuples(st.integers(1, 8), st.integers(1, 24)),
       write=st.tuples(st.integers(1, 8), st.integers(1, 24)))
@settings(max_examples=300, deadline=None)
def test_lists_parsed_and_formatted_again_round_trip_as_the_oracle_does(tmp_path_factory, lines,
                                                                         read, write):
    """A text seen again after read_trace clears its map of texts is parsed
    as a second list of the same bits, and a list seen again after
    write_trace clears its texts is formatted again: the bytes written are
    the oracle's, and read back as the records read."""
    path = write_lines(tmp_path_factory, lines)
    with small_bounds(*read):
        trace = read_trace(path)
    texts = [line.split("topk=")[1] for line in lines[1:]]
    lists = trace.columns.offsets.size - 1
    assert len(set(texts)) <= lists <= len(texts)
    if read == (1, 1):  # the texts are cleared before every line: a list per record
        assert lists == len(texts)
    event(f"a text parsed again: {lists > len(set(texts))}")
    with small_bounds(*write):
        write_trace(trace, path.with_name("new.trace"))
    trace_oracle.write_trace(trace, path.with_name("old.trace"))
    assert path.with_name("new.trace").read_bytes() == path.with_name("old.trace").read_bytes()
    assert outcome(read_columnar, path.with_name("new.trace")) == outcome(read_columnar, path)


@given(case=mutated(repeated_traces()), chunk=st.integers(1, 8), entries=st.integers(1, 24))
@settings(max_examples=500, deadline=None)
def test_mutated_repeats_fail_as_the_oracle_does(tmp_path_factory, case, chunk, entries):
    """A mutated line after repeats of valid rows, its own text among them
    when a field other than top-k is mutated, is named as the oracle names it."""
    lines, i = case
    path = write_lines(tmp_path_factory, lines)
    with small_bounds(chunk, entries):
        assert_fails_as_the_oracle_does(path, lines, i)
    assert_fails_as_the_oracle_does(path, lines, i)


# the top-k list of the README grammar, as one regex
TOPK_GRAMMAR = re.compile(r"[0-9]+:[^ ,:]+(?:,[0-9]+:[^ ,:]+)*")
# fields that the grammar and int() or float() accept, three times as often
# as those that one of them refuses
TOKENS = ["0", "7", "12"] * 3 + ["", "+3", "-3", "1_0", "٣", "²", "\t3", "99999999999999999999"]
LOGITS = ["1.5", "-0", "3", "2e3", "nan", "٣", "\t1", "1_0"] * 3 + ["", "é", ".", "-", "1e"]


@st.composite
def top_k_texts(draw) -> str:
    """A top-k text of such fields, then perhaps a ',' or ':' inserted, a
    character dropped, or a ':' moved, which keeps the count of each
    separator."""
    entries = draw(st.lists(st.tuples(st.sampled_from(TOKENS), st.sampled_from(LOGITS)),
                            min_size=1, max_size=4))
    text = ",".join(f"{tok}:{z}" for tok, z in entries)
    edit = draw(st.sampled_from(["", "", ",", ":", "drop", "move"]))
    if edit == "move":
        colon = draw(st.sampled_from([i for i, c in enumerate(text) if c == ":"]))
        text, edit = text[:colon] + text[colon + 1 :], ":"
    at = draw(st.integers(0, len(text)))
    text = text[:at] + text[at + 1 :] if edit == "drop" else text[:at] + edit + text[at:]
    return text or ":"


@given(texts=st.lists(top_k_texts(), min_size=1, max_size=2))
@example(texts=["1:2:3,4"])  # as many ':' as entries, but not one in each
@example(texts=["70,1:2:3"])
@example(texts=["1:2:3", "4"])
@settings(max_examples=500, deadline=None)
def test_top_k_texts_are_accepted_as_the_grammar_and_conversions_accept_them(texts):
    """The check on new top-k texts accepts a chunk of them exactly when the
    grammar's regex matches each and int() and float() convert every entry."""
    try:
        ok = all(map(TOPK_GRAMMAR.fullmatch, texts))
        if ok:
            entries = ",".join(texts).replace(":", ",").split(",")
            np.array([int(tok) for tok in entries[0::2]], dtype=np.int64)
            [float(z) for z in entries[1::2]]
    except (ValueError, OverflowError):
        ok = False
    try:
        trace_module._TopKRows().ids(texts)
        new = True
    except (ValueError, OverflowError):
        new = False
    event(f"accepted {ok}")
    assert new == ok


@given(lines=traces(), theta=st.sampled_from([0.5, 0.9, 0.95, 1.0]))
@settings(max_examples=200, deadline=None)
def test_ragged_analysis_equals_the_per_record_analysis(tmp_path_factory, lines, theta):
    path = write_lines(tmp_path_factory, lines)
    _, records = trace_oracle.read_trace(path)
    new = analyze_trace(read_trace(path), theta)
    old, points = trace_oracle.analyze_records(records, theta)
    assert report_bits(new) == report_bits(old)
    assert written_csvs(new, path.with_name("new")) == written_csvs(old, path.with_name("old"), points)


# top-1/top-2 logits for scatter rows: subnormals, both zeros, z1 <= 0, and a
# z2/z1 that overflows to -inf (-1e300 under a subnormal z1)
SCATTER_LOGITS = [1e300, 3.0, 1.0, 0.1, 2.2250738585072014e-308, 5e-324, 0.0, -0.0, -5e-324,
                  -1.0, -1e300]
SCATTER_TEMPS = [1.0, 0.4, 2.5, 5e-324]


def scatter_lines(rows: list[list[float]], picks: list[tuple[int, float]]) -> list[str]:
    """A trace of rows[i] at temperature t for each pick (i, t), one step each;
    the tokens of a row are 0, 1, ... in its (descending) logit order."""
    return [f"specverify-trace v1 vocab={VOCAB} producer=scatter test"] + [
        f"step={step} ctx=- temp={temp:.17g} draft=- topk="
        + ",".join(f"{tok}:{z:.17g}" for tok, z in enumerate(rows[row]))
        for step, (row, temp) in enumerate(picks)
    ]


@st.composite
def scatter_traces(draw) -> list[str]:
    """A trace of ragged top-k rows, each repeated at other steps and
    temperatures, and each also with the sign of its zero z1 or z2 flipped."""
    rows = draw(st.lists(st.lists(st.sampled_from(SCATTER_LOGITS), min_size=2, max_size=5)
                         .map(lambda row: sorted(row, reverse=True)), min_size=1, max_size=4))
    rows += [[-z if i < 2 and z == 0 else z for i, z in enumerate(row)] for row in rows]
    picks = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.sampled_from(SCATTER_TEMPS)),
                          min_size=1, max_size=40))
    return scatter_lines(rows, picks)


@given(lines=scatter_traces(), chunk=st.sampled_from([1, 3, 1024]), held=st.sampled_from([4, 12, 2**17]))
@example(  # each case once: -0 against 0 in z1 and in z2, an empty ratio, a -inf ratio, subnormals
    lines=scatter_lines(
        [[0.0, -1.0], [-0.0, -1.0], [1.0, 0.0, -1.0], [1.0, -0.0], [5e-324, -1e300],
         [2.2250738585072014e-308, 5e-324, 0.0]],
        [(0, 1.0), (1, 1.0), (2, 0.4), (3, 0.4), (2, 0.4), (2, 2.5), (4, 1.0), (5, 5e-324), (0, 1.0)],
    ),
    chunk=2, held=8,
)
@settings(max_examples=300, deadline=None)
def test_scatter_csv_is_the_per_record_csv_writer_output(tmp_path_factory, lines, chunk, held):
    """write_report's scatter.csv, in chunks of `chunk` records and holding
    the tails of at most `held` floats, has the oracle's csv.writer bytes."""
    path = write_lines(tmp_path_factory, lines)
    _, points = trace_oracle.analyze_records(trace_oracle.read_trace(path)[1], 0.9)
    with mock.patch.object(analysis, "_CHUNK", chunk), mock.patch.object(analysis, "_BLOCK_FLOATS", held):
        new = write_report(analyze_trace(read_trace(path), 0.9), path.with_name("new"))[3]
    old = path.with_name("old.csv")
    trace_oracle.write_scatter(points, old)
    assert new.read_bytes() == old.read_bytes()


def test_records_sharing_a_list_at_other_temperatures_get_the_per_record_softmax(tmp_path):
    """Six records read two top-k lists, each at three temperatures: p1 and
    p2 are the softmax of a record's list at its own temperature."""
    lines = scatter_lines([[10.0, 9.0, 7.5], [1.0, 0.0]],
                          [(0, 1.0), (1, 0.4), (0, 0.4), (0, 2.5), (1, 5e-324), (1, 1.0)])
    path = tmp_path / "shared.trace"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    trace = read_trace(path)
    assert (len(trace.columns), trace.columns.offsets.size - 1) == (6, 2)
    scatter = analyze_trace(trace, 0.9).scatter
    for i, record in enumerate(trace.records):
        probs = softmax(np.array([z for _, z in record.top_k]), record.temperature)
        assert (scatter.p1[i].tobytes(), scatter.p2[i].tobytes()) == (probs[0].tobytes(), probs[1].tobytes())


@given(lines=scatter_traces(), theta=st.sampled_from([0.5, 0.9, 1.0]))
@settings(max_examples=200, deadline=None)
def test_shared_lists_analyze_as_the_per_record_analysis(tmp_path_factory, lines, theta):
    """Rows repeated at other steps and temperatures share a list, and every
    report field is the per-record analysis's, bit for bit."""
    path = write_lines(tmp_path_factory, lines)
    trace = read_trace(path)
    event(f"records share a list: {trace.columns.offsets.size - 1 < len(trace.columns)}")
    old, _ = trace_oracle.analyze_records(trace_oracle.read_trace(path)[1], theta)
    assert report_bits(analyze_trace(trace, theta)) == report_bits(old)


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
