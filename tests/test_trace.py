import dataclasses
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specverify import cli
from specverify import trace as trace_module
from specverify.engine import CostModel, DecodeConfig, decode, metrics_from_cycles
from specverify.trace import (
    TraceFile,
    TraceFormatError,
    TraceHeader,
    TraceRecord,
    TraceRecorder,
    hash_context,
    iter_cycles,
    read_trace,
    replay_verify,
    write_trace,
)
from specverify.logits import TopTwo, logit_ratio
from specverify.verify import Decision, VerificationPolicy, decide_position

import trace_oracle
from conftest import make_pair
from trace_oracle import ranked, replay_cycles

MARGIN_09 = VerificationPolicy.margin_aware(0.9)
STRICT = VerificationPolicy.strict()


def make_record(step=0, top_k=((3, 2.5), (1, 1.25)), draft=None, ctx=None, temp=1.0):
    return TraceRecord(step=step, top_k=top_k, temperature=temp, chosen_draft=draft, context_hash=ctx)


def fuzz_records(rng, n, vocab=64, weird_floats=False):
    records = []
    for i in range(n):
        width = int(rng.integers(2, min(11, vocab)))
        tokens = rng.choice(vocab, size=width, replace=False)
        if weird_floats:
            mags = rng.choice([1e-300, 1e-12, 1.0, 1e3, 1e12, 1e300], size=width)
            logits = rng.uniform(-1.0, 1.0, width) * mags
        else:
            logits = rng.normal(0.0, 5.0, width)
        entries = sorted(
            zip((int(t) for t in tokens), (float(z) for z in logits)),
            key=lambda e: (-e[1], e[0]),
        )
        draft = int(rng.integers(0, vocab)) if rng.random() < 0.8 else None
        ctx = int(rng.integers(0, 2**63)) if rng.random() < 0.5 else None
        records.append(
            TraceRecord(
                step=i,
                top_k=tuple(entries),
                temperature=float(rng.uniform(0.1, 2.0)),
                chosen_draft=draft,
                context_hash=ctx,
            )
        )
    return records


def assert_records_bit_equal(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.step == rb.step
        assert ra.chosen_draft == rb.chosen_draft
        assert ra.context_hash == rb.context_hash
        assert repr(ra.temperature) == repr(rb.temperature)
        assert len(ra.top_k) == len(rb.top_k)
        for (ta, za), (tb, zb) in zip(ra.top_k, rb.top_k):
            assert ta == tb
            assert repr(za) == repr(zb)  # repr equality = bit equality for finite floats


class TestRoundTrip:
    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.trace"
        write_trace(TraceFile(TraceHeader(vocab_size=64, producer="unit test")), path)
        back = read_trace(path)
        assert back.records == []
        assert back.header == TraceHeader(vocab_size=64, producer="unit test")

    def test_three_records(self, tmp_path):
        records = [
            make_record(step=0, draft=3),
            make_record(step=1, top_k=((0, 1.5), (2, 1.5), (5, -0.25)), draft=None, ctx=12345),
            make_record(step=2, top_k=((9, 100.0), (4, -100.0)), draft=9, temp=0.4),
        ]
        path = tmp_path / "three.trace"
        write_trace(TraceFile(TraceHeader(64, "x"), records), path)
        back = read_trace(path)
        assert back.records == records

    def test_fuzzed_round_trip(self, tmp_path):
        records = fuzz_records(np.random.default_rng(8), 500, weird_floats=True)
        path = tmp_path / "fuzz.trace"
        write_trace(TraceFile(TraceHeader(64, "fuzz"), records), path)
        assert_records_bit_equal(read_trace(path).records, records)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, seed):
        records = fuzz_records(np.random.default_rng(seed), 20, weird_floats=True)
        path = tmp_path_factory.mktemp("rt") / "t.trace"
        write_trace(TraceFile(TraceHeader(64, "prop"), records), path)
        assert_records_bit_equal(read_trace(path).records, records)

    def test_producer_survives_spaces_and_equals(self, tmp_path):
        producer = "model=demo run at 2024-01-01 12:00 (v=64)"
        path = tmp_path / "p.trace"
        write_trace(TraceFile(TraceHeader(64, producer)), path)
        assert read_trace(path).header.producer == producer

    @pytest.mark.parametrize(
        "char",
        [chr(c) for c in [*range(0x21), *range(0x7F, 0xA1), 0x1680, 0x2028, 0x2029, 0x3000]],
        ids=lambda char: f"U+{ord(char):04X}",
    )
    def test_producer_is_read_back_or_refused(self, char, tmp_path):
        """read_trace splits lines with str.splitlines(), so write_trace refuses
        every character that breaks a line there and round-trips the others."""
        producer = f"a{char}b"
        path = tmp_path / "p.trace"
        trace = TraceFile(TraceHeader(16, producer), [make_record()])
        if len(producer.splitlines()) > 1:
            with pytest.raises(TraceFormatError, match=re.escape(f"producer {producer!r}")):
                write_trace(trace, path)
            assert not path.exists()
        else:
            write_trace(trace, path)
            back = read_trace(path)
            assert back.header.producer == producer
            assert_records_bit_equal(back.records, trace.records)


class TestValidation:
    def test_ordering_violation_cites_record(self, tmp_path):
        records = [make_record(step=i) for i in range(4)]
        records.append(make_record(step=4, top_k=((1, 1.0), (2, 3.0))))
        path = tmp_path / "bad.trace"
        write_trace(TraceFile(TraceHeader(64, ""), [make_record(step=i) for i in range(5)]), path)
        text = path.read_text()
        lines = text.splitlines()
        lines[5] = "step=4 ctx=- temp=1 draft=- topk=1:1,2:3"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="record 5"):
            read_trace(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("step", -3, None),
            ("step", 2**63, "step, tokens and draft must be below 2^63"),
            ("chosen_draft", -1, None),  # not read as the -1 that marks an absent draft
            ("chosen_draft", -5, None),
            ("chosen_draft", 2**63, None),
            ("top_k", ((64, 2.5), (1, 1.25)), None),
            ("top_k", ((3, 2.5), (-1, 1.25)), None),
            ("top_k", ((2**63, 2.5), (1, 1.25)), None),
            ("top_k", ((3, 2.5), (-(2**63) - 1, 1.25)), None),
            ("top_k", ((3, math.nan), (1, 1.25)), None),
            ("top_k", ((3, 2.5), (1, math.inf)), None),
            ("top_k", ((3, 2.5), (3, 1.25)), None),
            ("top_k", ((1, 1.25), (3, 2.5)), None),
            ("temperature", 0, None),
            ("temperature", math.nan, None),
            ("temperature", math.inf, None),
            ("context_hash", -1, "ctx -1 is not an unsigned 64-bit integer"),
            ("context_hash", 2**64, f"ctx {2**64} is not an unsigned 64-bit integer"),
            # values that are not integers, which a 64-bit column would truncate or refuse
            ("step", 1.5, None),
            ("step", np.float64(2.5), None),
            ("step", None, None),
            ("step", "3", None),
            ("chosen_draft", 2.9, None),
            ("chosen_draft", "3", None),
            ("context_hash", 1.0, None),
            ("context_hash", 0.0, None),
            ("context_hash", math.nan, None),
            ("context_hash", "3", None),
            ("top_k", ((3, 2.5), (1.0, 1.25)), None),
            ("top_k", ((None, 2.5), (1, 1.25)), None),
            ("top_k", (("3", 2.5), (1, 1.25)), None),
            # values that are not numbers, which a float64 column would convert or refuse
            ("temperature", "1", None),
            ("temperature", None, None),
            pytest.param("temperature", 10**400, None, id="temperature-10**400"),
            # the smallest int that rounds past float64's range
            pytest.param("temperature", 2**1024 - 2**970, None, id="temperature-2**1024-2**970"),
            ("top_k", ((3, "2.5"), (1, 1.25)), None),
            ("top_k", ((3, 2.5), (1, None)), None),
            ("top_k", ((3, 10**400), (1, 1.25)), None),
            ("top_k", ((3, 2.5), (1, 1 + 0j)), None),
            # values that are sequences, which np.array would take for a dimension
            ("step", (1,), None),
            ("context_hash", (5,), None),
            ("temperature", (1.0,), None),
            ("chosen_draft", [2], None),
            ("top_k", (((3,), 2.5), ((1,), 1.25)), None),
            ("top_k", ((3, (2.5,)), (1, (1.25,))), None),
        ],
    )
    def test_each_bad_field_handed_in_gets_its_message(self, field, value, message):
        """A record handed to TraceFile gets the per-record oracle's message,
        or, for what only the 64-bit columns refuse, the documented one."""
        rec = dataclasses.replace(make_record(draft=3, ctx=7), **{field: value})
        if message is None:
            with pytest.raises(TraceFormatError) as oracle:
                trace_oracle.validate_record(rec, 64, where="record 1")
            message = str(oracle.value)
        else:
            trace_oracle.validate_record(rec, 64, where="record 1")  # the oracle accepts it
            message = f"record 1: {message}"
        with pytest.raises(TraceFormatError) as new:
            TraceFile(TraceHeader(64), [rec])
        assert str(new.value) == message

    def test_steps_that_are_all_one_tuples_name_the_first(self):
        """Equal-length sequences in every record are values, not a second dimension."""
        with pytest.raises(TraceFormatError, match=re.escape("record 1: step (1,) is not an integer")):
            TraceFile(TraceHeader(64), [make_record(step=(1,)), make_record(step=(2,))])

    @pytest.mark.parametrize("top_k", [((1,), (2,)), ((3, 2.5, 0), (1, 1.25)), 5, (1, 2)],
                             ids=["one-tuples", "a-3-tuple", "an-int", "ints"])
    def test_top_k_that_is_not_pairs_names_its_record(self, top_k):
        records = [make_record(), make_record(top_k=top_k)]
        message = f"record 2: top-k {top_k!r} is not a list of (token, logit) pairs"
        with pytest.raises(TraceFormatError, match=re.escape(message)):
            TraceFile(TraceHeader(64), records)

    def test_value_that_is_not_an_integer_is_named_in_file_order(self):
        """The first bad record wins, whichever rule it breaks, and a record
        with several such values names the first in line order."""
        records = [make_record(), make_record(temp=0.0), make_record(step=1.5)]
        with pytest.raises(TraceFormatError, match=re.escape("record 2: temperature 0.0 must")):
            TraceFile(TraceHeader(64), records)
        records[1] = make_record(top_k=((3, 2.5), (1.0, 1.25)), draft=2.0, ctx=7)
        with pytest.raises(TraceFormatError, match=re.escape("record 2: draft 2.0 is not an integer")):
            TraceFile(TraceHeader(64), records)

    def test_value_that_is_not_a_number_is_named_in_file_order(self):
        """A temperature or logit must be an int or float that float64 holds;
        in a record, a top-k token is named before a logit."""
        records = [make_record(), make_record(step=1.5), make_record(temp="1")]
        with pytest.raises(TraceFormatError, match=re.escape("record 2: step 1.5 is not an integer")):
            TraceFile(TraceHeader(64), records)
        records[1] = make_record(top_k=((3, "2.5"), (1.0, 1.25)))
        with pytest.raises(TraceFormatError, match=re.escape("record 2: token 1.0 is not an integer")):
            TraceFile(TraceHeader(64), records)
        records[1] = make_record(top_k=((3, "2.5"), (1, 1.25)))
        with pytest.raises(TraceFormatError,
                           match=re.escape("record 2: logit '2.5' is not a float64 number")):
            TraceFile(TraceHeader(64), records)
        records[1] = make_record()
        with pytest.raises(TraceFormatError,
                           match=re.escape("record 3: temperature '1' is not a float64 number")):
            TraceFile(TraceHeader(64), records)
        # ints and numpy floats are numbers, held as float64
        big = 2**1024 - 2**970 - 1
        rec = make_record(top_k=((3, big), (1, np.float32(1.25))), temp=2)
        (row,) = TraceFile(TraceHeader(64), [rec]).records
        assert row.top_k == ((3, float(big)), (1, 1.25)) and row.temperature == 2.0

    def test_header_is_one_that_read_trace_reads(self, tmp_path):
        with pytest.raises(TraceFormatError, match=re.escape("vocab must be >= 2, got 1")):
            TraceHeader(1)
        for vocab in (8.0, "8", None, np.float64(8)):
            with pytest.raises(TraceFormatError, match=re.escape(f"vocab {vocab!r} is not an integer")):
                TraceHeader(vocab)
        with pytest.raises(TypeError):
            TraceHeader(8, version=2)
        path = tmp_path / "two.trace"
        for vocab in (2, np.int64(2)):
            write_trace(TraceFile(TraceHeader(vocab, "x"), [make_record(top_k=((1, 2.5), (0, 1.25)))]), path)
            assert path.read_text().startswith("specverify-trace v1 vocab=2 producer=x\n")
            assert read_trace(path).header == TraceHeader(2, "x")

    def test_a_bad_list_shared_by_records_2_and_5_names_record_2(self, tmp_path):
        """The entry rules are checked once a list, and the first record that
        reads a bad list is named."""
        good, bad = "topk=3:2.5,1:1.25", "topk=1:1.25,3:2.5"
        lines = [f"step={i} ctx=- temp=1 draft=- {bad if i in (1, 4) else good}" for i in range(6)]
        path = tmp_path / "shared.trace"
        path.write_text("specverify-trace v1 vocab=8 producer=\n" + "\n".join(lines) + "\n")
        message = "record 2 (line 3): top-k ordering violated at tokens 1,3"
        with pytest.raises(TraceFormatError, match=f"^{re.escape(message)} "):
            read_trace(path)

    def test_tie_break_ordering_enforced(self):
        rec = make_record(top_k=((5, 2.0), (3, 2.0)))  # tie must order by id
        with pytest.raises(TraceFormatError, match="ordering"):
            write_trace(TraceFile(TraceHeader(64, ""), [rec]), "/dev/null")

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "v9.trace"
        path.write_text("specverify-trace v9 vocab=64 producer=\n")
        with pytest.raises(TraceFormatError, match="version 9"):
            read_trace(path)

    @pytest.mark.parametrize("text, message", [
        ("", "empty file, missing header"),
        ("specverify-trace vX vocab=8 producer=\n", "bad version field 'vX'"),
        ("specverify-trace v1 vocab8 producer=\n", "header missing vocab= field"),
        ("specverify-trace v1 vocab=x producer=\n", "bad vocab field"),
        ("specverify-trace v1 vocab=1 producer=\n", "vocab must be >= 2, got 1"),
        ("specverify-trace v1 vocab=8 producer\n", "header missing producer= field"),
    ], ids=["empty", "version", "no_vocab", "vocab", "vocab_1", "no_producer"])
    def test_a_bad_header_gets_its_message(self, text, message, tmp_path):
        path = tmp_path / "h.trace"
        path.write_text(text)
        with pytest.raises(TraceFormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_trace(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "nope.trace"
        path.write_text("something-else v1 vocab=64\n")
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_malformed_line_cites_line_number(self, tmp_path):
        path = tmp_path / "m.trace"
        path.write_text(
            "specverify-trace v1 vocab=64 producer=\n"
            "step=0 ctx=- temp=1 draft=- topk=3:2.5,1:1.25\n"
            "step=1 ctx=- temp=1 draft=-\n"
        )
        with pytest.raises(TraceFormatError, match="line 3"):
            read_trace(path)

    def test_short_topk_rejected(self):
        with pytest.raises(TraceFormatError, match="at least 2"):
            write_trace(
                TraceFile(TraceHeader(64, ""), [make_record(top_k=((1, 1.0),))]), "/dev/null"
            )

    def test_out_of_vocab_token_rejected(self):
        with pytest.raises(TraceFormatError, match="out of range"):
            write_trace(
                TraceFile(TraceHeader(4, ""), [make_record(top_k=((9, 1.0), (1, 0.5)))]),
                "/dev/null",
            )

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(TraceFormatError, match="temperature"):
            write_trace(TraceFile(TraceHeader(64, ""), [make_record(temp=0.0)]), "/dev/null")

    @pytest.mark.parametrize("temp", ["nan", "inf", "-inf", "0"])
    def test_temperature_must_be_finite_and_positive(self, temp, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text(
            "specverify-trace v1 vocab=64 producer=\n"
            "step=0 ctx=- temp=1 draft=- topk=3:2.5,1:1.25\n"
            f"step=1 ctx=- temp={temp} draft=- topk=3:2.5,1:1.25\n"
        )
        with pytest.raises(TraceFormatError, match=r"record 2 \(line 3\): temperature"):
            read_trace(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            read_trace(tmp_path / "does-not-exist.trace")


def record(rec, logits, draft, ctx):
    """One record handed to a recorder as a cycle of one."""
    rec(rec.lists([logits]), [draft], ctx.to_bytes(8, "little"))


def hand_cycle(rec, vectors, start, buffer=None):
    """Vectors handed to a recorder that holds `start` records, as one cycle:
    record i drafts i % 3 or None and has context hash 7 * i, as
    lexsort_outcome's records do. With a buffer, each vector is copied into
    it as the recorder reads it, so that the recorder sees one array mutated
    in place."""

    def given():
        for z in vectors:
            if buffer is None:
                yield np.array(z)
            else:
                buffer[:] = z
                yield buffer

    steps = range(start, start + len(vectors))
    rec(rec.lists(given()), [i % 3 or None for i in steps],
        b"".join((7 * i).to_bytes(8, "little") for i in steps))


class TestRecorder:
    def test_records_sorted_topk(self):
        rec = TraceRecorder(vocab_size=8, temperature=1.0, top_k=4)
        record(rec, np.array([0.0, 5.0, 5.0, 1.0, -2.0, 3.0, 0.5, 0.25]), 2, hash_context([1, 2]))
        records = rec.to_trace().records
        (entries,) = [r.top_k for r in records]
        assert [t for t, _ in entries] == [1, 2, 5, 3]  # tie 5.0/5.0 broken by id
        assert records[0].chosen_draft == 2
        assert records[0].context_hash == hash_context([1, 2])

    def test_topk_capped_at_vocab(self):
        rec = TraceRecorder(vocab_size=3, temperature=1.0, top_k=10)
        record(rec, np.array([1.0, 2.0, 3.0]), None, hash_context([0]))
        assert len(rec.to_trace().records[0].top_k) == 3

    @pytest.mark.parametrize("size", [3, 63, 65])
    def test_wrong_length_vector_names_the_record(self, size):
        rec = TraceRecorder(vocab_size=64, temperature=1.0)
        record(rec, np.zeros(64), 1, 0)
        with pytest.raises(TraceFormatError, match=re.escape(f"record 2: logit vector of shape ({size},)")):
            rec.lists([np.zeros(size)])
        with pytest.raises(TraceFormatError, match=re.escape(f"record 3: logit vector of shape ({size},)")):
            rec.lists([np.ones(64), np.zeros(size)])
        assert len(rec.to_trace().records) == 1  # no vector of a refused call is recorded

    def test_steps_are_record_numbers(self):
        """The recorder numbers its records 0, 1, ... across its calls."""
        rec = TraceRecorder(vocab_size=8, temperature=1.0)
        hand_cycle(rec, [np.arange(8.0)] * 3, 0)
        hand_cycle(rec, [np.ones(8)] * 2, 3)
        assert rec.to_trace().columns.step.tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("drafts, message", [
        ([-5], "record 2: drafted token -5 out of range"),
        ([-1], "record 2: drafted token -1 out of range"),  # not an absent draft
        ([1, 2**63], "record 3: drafted token 9223372036854775808 out of range"),
        ([1, 2, 8], "record 4: drafted token 8 out of range"),
        ([np.int64(1), 2.0], "record 3: draft 2.0 is not an integer"),
        ([np.int64(1), "2"], "record 3: draft '2' is not an integer"),
        ([np.int64(1), (2,)], "record 3: draft (2,) is not an integer"),
        ([(2,), (3,)], "record 2: draft (2,) is not an integer"),  # not a 2-D column
    ])
    def test_a_draft_the_trace_cannot_hold_is_named_by_to_trace(self, drafts, message):
        """A draft is kept as given, and to_trace names the first bad one in
        the words of the trace check."""
        rec = TraceRecorder(vocab_size=8, temperature=1.0)
        record(rec, np.zeros(8), 1, 0)
        rec(rec.lists([np.arange(8.0)] * len(drafts)), drafts, bytes(8 * len(drafts)))
        with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}$"):
            rec.to_trace()

    def test_the_first_bad_record_wins_over_a_later_bad_draft(self):
        rec = TraceRecorder(vocab_size=3, temperature=0.5, top_k=3)
        rec(rec.lists([np.array([np.nan, 1.0, 0.0]), np.arange(3.0)]), [None, "2"], bytes(16))
        with pytest.raises(TraceFormatError, match=r"^record 1: non-finite logit for token 0$"):
            rec.to_trace()

    def test_a_refused_lists_call_adds_no_list(self):
        """A wrong-length vector refuses the whole call, and the vectors read
        before it get no list that a record could name."""
        rec = TraceRecorder(vocab_size=64, temperature=1.0)
        with pytest.raises(TraceFormatError, match=re.escape("record 2: logit vector of shape (3,)")):
            rec.lists([np.ones(64), np.zeros(3)])
        assert rec.to_trace().columns.offsets.size - 1 == 0
        with pytest.raises(TraceFormatError, match="^record 1: top-k list 0 is not one this recorder returned$"):
            rec([0], [None], bytes(8))

    @pytest.mark.parametrize("drafts, digests, message", [
        ([1, None], bytes(15), "record 2: 2 drafts and 15 context hash bytes for 2 records"),
        ([1, None], bytes(24), "record 2: 2 drafts and 24 context hash bytes for 2 records"),
        ([1], bytes(8), "record 2: 1 drafts and 8 context hash bytes for 2 records"),
    ])
    def test_a_digest_block_of_the_wrong_length_is_refused(self, drafts, digests, message):
        """Each record takes 8 bytes of the block, and one draft."""
        rec = TraceRecorder(vocab_size=8, temperature=1.0)
        record(rec, np.zeros(8), 1, 0)
        ids = rec.lists([np.arange(8.0), np.ones(8)])
        with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}$"):
            rec(ids, drafts, digests)
        assert len(rec.to_trace().records) == 1

    @pytest.mark.parametrize("bad, message", [
        (3, "top-k list 3 is not one this recorder returned"),
        (-1, "top-k list -1 is not one this recorder returned"),
        (1.0, "top-k list 1.0 is not one this recorder returned"),
        (None, "top-k list None is not one this recorder returned"),
    ])
    def test_a_list_id_the_recorder_never_returned_is_refused(self, bad, message):
        rec = TraceRecorder(vocab_size=8, temperature=1.0)
        record(rec, np.zeros(8), 1, 0)
        ids = rec.lists([np.arange(8.0), np.ones(8)])  # lists 1 and 2
        with pytest.raises(TraceFormatError, match=f"^record 3: {re.escape(message)}$"):
            rec([ids[0], bad], [1, None], bytes(16))
        assert len(rec.to_trace().records) == 1

    def test_a_list_id_stays_valid_after_its_block_is_ranked(self):
        """A cycle replayed from decode's memo hands over ids of lists that
        were ranked, and the map of vectors seen cleared, since: each record
        still reads its own vector's list."""
        with mock.patch.object(trace_module, "_BLOCK_FLOATS", 3):
            rec = TraceRecorder(vocab_size=3, temperature=0.5, top_k=3)
        vectors = [[1.0, 2.0, 0.5], [3.0, 0.0, -1.0]]
        first = rec.lists([np.array(vectors[0])])  # a block of one: ranked at once
        rec(first, [1], bytes(8))
        rec(rec.lists([np.array(vectors[1])]), [2], bytes(8))
        rec(first, [None], bytes(8))
        assert [r.top_k for r in rec.to_trace().records] == [
            ranked(np.array(vectors[i]), 3) for i in (0, 1, 0)]

    @pytest.mark.parametrize(
        "temperature", ["1", None, 10**400, 0.0, -1, math.nan, 1, np.float32(0.5)],
        ids=["str", "None", "10**400", "0.0", "-1", "nan", "1", "float32"],
    )
    def test_temperature_is_checked_as_trace_file_checks_it(self, temperature):
        """Refused with the message TraceFile gives for the same record, or
        recorded as the column TraceFile holds."""
        rec = TraceRecorder(vocab_size=8, temperature=temperature, top_k=2)
        record(rec, np.arange(8.0), 1, 5)
        given = [TraceRecord(0, ((7, 7.0), (6, 6.0)), temperature, 1, 5)]
        try:
            expected = TraceFile(TraceHeader(8), given).columns.temp
        except TraceFormatError as exc:
            with pytest.raises(TraceFormatError, match=re.escape(str(exc))):
                rec.to_trace()
        else:
            assert rec.to_trace().columns.temp.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kwargs, message", [
        ({"top_k": 2.5}, "top_k 2.5 is not an integer"),
        ({"top_k": "3"}, "top_k '3' is not an integer"),
        ({"vocab_size": 4.0}, "vocab 4.0 is not an integer"),
        ({"vocab_size": 1}, "vocab must be >= 2, got 1"),
        ({"top_k": 1}, "top_k must be >= 2"),
    ])
    def test_a_bad_top_k_or_vocabulary_is_refused_when_built(self, kwargs, message):
        """Refused by name, vocab_size as a trace header refuses it, before a
        vector is ranked with them."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TraceRecorder(**{"vocab_size": 4, "temperature": 1.0, **kwargs})

    def test_a_string_temperature_is_named(self):
        rec = TraceRecorder(vocab_size=8, temperature="1")
        record(rec, np.arange(8.0), None, 0)
        message = "record 1: temperature '1' is not a float64 number"
        with pytest.raises(TraceFormatError, match=re.escape(message)):
            rec.to_trace()

    @given(
        vocab=st.integers(2, 9),
        top_k=st.integers(2, 10),
        block=st.integers(1, 4),
        size=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_block_columns_equal_per_record_lexsort(self, vocab, top_k, block, size, data):
        """Ranking a block at a time gives the columns (or the first bad
        record's message) of one lexsort per record, with cycles of 1 to 3
        records, records read between cycles and blocks of 1 to 4 records."""
        vectors = data.draw(st.lists(
            st.lists(st.sampled_from(RECORDER_LOGITS), min_size=vocab, max_size=vocab),
            max_size=12,
        ))
        starts = range(0, len(vectors), size)
        reads = set(data.draw(st.lists(st.sampled_from([*starts, len(vectors)]), max_size=3)))
        with mock.patch.object(trace_module, "_BLOCK_FLOATS", block * vocab):
            rec = TraceRecorder(vocab_size=vocab, temperature=0.5, top_k=top_k)
        for start in [*starts, len(vectors)]:
            if start in reads or start == len(vectors):
                assert recorder_outcome(rec) == lexsort_outcome(vectors[:start], vocab, top_k)
            if start < len(vectors):
                hand_cycle(rec, vectors[start : start + size], start)

    @given(
        vocab=st.integers(2, 6),
        block=st.integers(1, 3),
        size=st.integers(1, 3),
        reuse=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_repeated_vectors_equal_per_record_lexsort(self, vocab, block, size, reuse, data):
        """Vectors drawn from a small pool, so that records repeat one another,
        before and after the map of vectors seen is cleared with a block, in
        cycles of 1 to 3 records, and with reuse one array mutated in place
        as the recorder reads it: the columns (or the first bad record's
        message) of one lexsort per record."""
        pool = data.draw(st.lists(
            st.lists(st.sampled_from(RECORDER_LOGITS), min_size=vocab, max_size=vocab),
            min_size=1, max_size=4,
        ))
        vectors = [pool[i] for i in data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=14))]
        with mock.patch.object(trace_module, "_BLOCK_FLOATS", block * vocab):
            rec = TraceRecorder(vocab_size=vocab, temperature=0.5, top_k=vocab)
        buffer = np.zeros(vocab) if reuse else None
        for start in range(0, len(vectors), size):
            hand_cycle(rec, vectors[start : start + size], start, buffer)
        assert recorder_outcome(rec) == lexsort_outcome(vectors, vocab, vocab)

    def test_vectors_equal_but_for_zero_signs_are_distinct_rows(self):
        """0.0 == -0.0, but a record keeps the bits it was handed."""
        rec = TraceRecorder(vocab_size=3, temperature=0.5, top_k=3)
        vectors = [[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [0.0, -0.0, 1.0], [-0.0, -0.0, 1.0]]
        hand_cycle(rec, vectors, 0)
        columns = rec.to_trace().columns
        logits = columns.logits.reshape(-1, 3)[columns.topk]  # each record's list
        assert [np.signbit(row).tolist() for row in logits] == [
            [False, False, True], [False, True, False], [False, False, True], [False, True, True]]
        assert recorder_outcome(rec) == lexsort_outcome(vectors, 3, 3)

    def test_a_greedy_decode_holds_each_distinct_vector_once(self):
        """A greedy decode falls into a periodic orbit of few target windows:
        its trace holds one top-k list per distinct vector the recorder was
        handed, and each record reads its own vector's list through its id."""
        target, draft = make_pair()
        cycles = trace_oracle.CycleRecorder(64)
        decode(target, draft, DecodeConfig(policy=MARGIN_09, k=7, max_tokens=400), [5, 6], recorder=cycles)
        columns = cycles.recorder.to_trace().columns
        assert columns.offsets.size - 1 == len(set(cycles.vectors.values())) < len(columns) // 4
        assert columns.tokens.size == trace_module.DEFAULT_TOP_K * (columns.offsets.size - 1)
        handed = [np.frombuffer(z) for _, z, _, _ in cycles.records]  # each record's vector
        assert columns.top_two()[0].tolist() == [int(z.argmax()) for z in handed]

    def test_the_fixture_record_holds_its_80_lists(self, tmp_path):
        """The 10,520 records of the decoupling fixture read 80 distinct
        vectors: the recorder hands over 80 lists of 10 entries, and reading
        the written file finds the same 80 texts."""
        spec = Path(__file__).resolve().parent.parent / "scripts" / "decoupling_spec.json"
        with mock.patch.object(cli, "write_trace", side_effect=cli.write_trace) as written:
            assert cli.main(["record", "--spec", str(spec), "--out", str(tmp_path / "f.trace")]) == 0
        for columns in (written.call_args.args[0].columns, read_trace(tmp_path / "f.trace").columns):
            assert (len(columns), columns.offsets.size - 1, columns.tokens.size) == (10_520, 80, 800)

    def test_a_trace_rebuilt_from_its_rows_keeps_its_80_lists(self, tmp_path):
        """The row view shares one top_k object per list, so TraceFile(header,
        records) of the fixture's read trace holds its 80 lists, and writes
        the same bytes."""
        spec = Path(__file__).resolve().parent.parent / "scripts" / "decoupling_spec.json"
        assert cli.main(["record", "--spec", str(spec), "--out", str(tmp_path / "f.trace")]) == 0
        read = read_trace(tmp_path / "f.trace")
        rebuilt = TraceFile(read.header, read.records)
        assert (len(rebuilt.columns), rebuilt.columns.offsets.size - 1) == (10_520, 80)
        write_trace(rebuilt, tmp_path / "g.trace")
        assert (tmp_path / "g.trace").read_bytes() == (tmp_path / "f.trace").read_bytes()

    def test_equal_top_k_objects_are_lists_of_their_own(self, tmp_path):
        """Lists are keyed by object, never by value: -0.0 == 0.0, yet each
        record writes its own bits; a bad shared list names its first record."""
        shared = ((1, 0.0), (2, -1.0))
        records = [make_record(0, shared), make_record(1, ((1, -0.0), (2, -1.0))), make_record(2, shared)]
        trace = TraceFile(TraceHeader(4), records)
        assert trace.columns.topk.tolist() == [0, 1, 0]
        write_trace(trace, tmp_path / "t.trace")
        assert [line.split(" topk=")[1] for line in (tmp_path / "t.trace").read_text().splitlines()[1:]] == [
            "1:0,2:-1", "1:-0,2:-1", "1:0,2:-1"]
        bad = [make_record(0), make_record(1, [(1, 2.0, 3)]), make_record(2)]
        bad[2] = dataclasses.replace(bad[2], top_k=bad[1].top_k)
        with pytest.raises(TraceFormatError, match=r"^record 2: top-k .* is not a list of \(token, logit\) pairs$"):
            TraceFile(TraceHeader(4), bad)

    def test_a_bad_vector_handed_at_records_2_and_5_names_record_2(self):
        rec = TraceRecorder(vocab_size=3, temperature=0.5, top_k=3)
        hand_cycle(rec, [[1.0, 2.0, 0.5], [np.nan, 1.0, 0.0], [3.0, 0.0, -1.0]], 0)
        hand_cycle(rec, [[1.0, 2.0, 0.5], [np.nan, 1.0, 0.0]], 3)
        with pytest.raises(TraceFormatError, match=r"^record 2: non-finite logit for token 0$"):
            rec.to_trace()

    def test_repeat_after_the_block_is_ranked(self):
        """Repeats that arrive after their vector's block was ranked, and the
        map of vectors seen cleared, still read their own top-k; a NaN
        vector's message names its first record, and a wrong-length vector's
        counts the repeats before it."""
        vectors = [[1.0, 2.0, 0.5], [3.0, 0.0, -1.0], [1.0, 2.0, 0.5], [3.0, 0.0, -1.0],
                   [1.0, 2.0, 0.5]]
        with mock.patch.object(trace_module, "_BLOCK_FLOATS", 2 * 3):
            rec = TraceRecorder(vocab_size=3, temperature=0.5, top_k=3)
        buffer = np.zeros(3)
        for i, z in enumerate(vectors):
            hand_cycle(rec, [z], i, buffer)
        assert recorder_outcome(rec) == lexsort_outcome(vectors, 3, 3)
        more = [[np.nan, 1.0, 0.0], [1.0, 2.0, 0.5], [np.nan, 1.0, 0.0]]
        hand_cycle(rec, more, len(vectors))
        vectors += more
        assert recorder_outcome(rec) == lexsort_outcome(vectors, 3, 3) == (
            "record 6: non-finite logit for token 0")
        with pytest.raises(TraceFormatError, match=re.escape("record 9: logit vector of shape (2,)")):
            rec.lists([np.zeros(2)])


# logits with ties, both zeros and every non-finite value
RECORDER_LOGITS = [0.0, -0.0, 1.5, 1.5, -2.0, 1e300, 5e-324, np.inf, -np.inf, np.nan]


def column_bits(columns):
    """Each record column's bits, and each record's own top-k tokens and
    logits, bit for bit: a list that records share is expanded per record."""
    names = ("step", "ctx", "has_ctx", "temp", "draft")
    ends = columns.offsets.tolist()
    lists = [(columns.tokens[a:b].tobytes(), columns.logits[a:b].tobytes())
             for a, b in zip(ends, ends[1:])]
    return [getattr(columns, name).tobytes() for name in names] + [
        lists[j] for j in columns.topk.tolist()]


def recorder_outcome(rec):
    try:
        return column_bits(rec.to_trace().columns)
    except TraceFormatError as exc:
        return str(exc)


def lexsort_outcome(vectors, vocab, top_k):
    """The columns of one lexsort per vector, or the first bad record's message."""
    records = [
        TraceRecord(i, ranked(np.array(z, dtype=np.float64), min(top_k, vocab)), 0.5, i % 3 or None, 7 * i)
        for i, z in enumerate(vectors)
    ]
    try:
        return column_bits(TraceFile(TraceHeader(vocab), records).columns)
    except TraceFormatError as exc:
        return str(exc)


class TestReplay:
    def test_cycle_grouping(self):
        records = []
        for cyc in range(3):
            for i in range(2):
                records.append(make_record(step=cyc * 3 + i, draft=1))
            records.append(make_record(step=cyc * 3 + 2, draft=None))
        trace = TraceFile(TraceHeader(64, ""), records)
        first, bonus = iter_cycles(trace, 2)
        assert len(first) == 3
        assert (bonus >= 0).all()

    def test_trailing_partial_cycle_ignored(self):
        records = [make_record(step=i, draft=1) for i in range(5)]
        trace = TraceFile(TraceHeader(64, ""), records)
        assert len(iter_cycles(trace, 2)[0]) == 2

    def test_draftless_record_inside_a_cycle_rejected(self):
        # a K=3 recording replayed with k=2: record 4 is the K=3 continuation
        records = [make_record(step=i, draft=None if i % 4 == 3 else 1) for i in range(8)]
        trace = TraceFile(TraceHeader(64, ""), records)
        assert len(iter_cycles(trace, 3)[0]) == 2
        with pytest.raises(TraceFormatError, match="record 4"):
            iter_cycles(trace, 2)

    def test_group_size_dividing_the_recorded_k_rejected(self):
        # a K=4 recording replayed with k=2: the first group runs straight on
        # into drafted records, the second into the draft-less one
        records = [make_record(step=i, draft=None if i % 5 == 4 else 1) for i in range(10)]
        trace = TraceFile(TraceHeader(64, ""), records)
        assert len(iter_cycles(trace, 4)[0]) == 2
        with pytest.raises(TraceFormatError, match="record 5: draft-less"):
            iter_cycles(trace, 2)
        with pytest.raises(TraceFormatError, match="record 5: draft-less"):
            iter_cycles(trace, 1)

    def test_k_below_1_is_refused(self):
        trace = TraceFile(TraceHeader(64, ""), [make_record(draft=1), make_record(step=1)])
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            iter_cycles(trace, 0)

    def test_drafted_record_after_a_bonus_shaped_group_rejected(self):
        drafts = [1, 1, None, 1, 1, 1, 1, None]
        records = [make_record(step=i, draft=d) for i, d in enumerate(drafts)]
        trace = TraceFile(TraceHeader(64, ""), records)
        with pytest.raises(TraceFormatError, match="record 6: drafted"):
            iter_cycles(trace, 2)

    @given(drafted=st.lists(st.booleans(), max_size=60), k=st.integers(1, 6))
    @settings(max_examples=500, deadline=None)
    def test_cycles_equal_the_per_run_loop(self, drafted, k):
        """The array grouping gives the per-run loop's cycles, or raises its
        error with its message."""
        records = [make_record(step=i, draft=1 if d else None) for i, d in enumerate(drafted)]
        trace = TraceFile(TraceHeader(64, ""), records)
        try:
            first, bonus = iter_cycles(trace, k)
            new = list(zip(first.tolist(), [None if b < 0 else b for b in bonus.tolist()]))
        except ValueError as exc:  # TraceFormatError included
            new = type(exc), str(exc)
        try:
            old = trace_oracle.iter_cycles(trace, k)
        except ValueError as exc:
            old = type(exc), str(exc)
        assert new == old

    def test_trace_shorter_than_one_cycle(self):
        trace = TraceFile(TraceHeader(64, ""), [make_record(draft=1)])
        with pytest.raises(ValueError, match="cycle"):
            replay_verify(trace, STRICT, 2)

    def test_aligned_strict_replay_hits_ceiling(self):
        target, _ = make_pair()
        aligned_target, aligned = make_pair(noise_scale=0.0)
        recorder = TraceRecorder(64, temperature=1.0)
        cfg = DecodeConfig(policy=STRICT, k=7, max_tokens=64)
        decode(aligned_target, aligned, cfg, [1, 2], recorder=recorder)
        metrics = replay_verify(recorder.to_trace(), STRICT, 7)
        assert metrics.tau == 8.0

    def test_replay_is_deterministic(self, tmp_path):
        target, draft = make_pair()
        recorder = TraceRecorder(64, temperature=1.0)
        cfg = DecodeConfig(policy=MARGIN_09, k=7, max_tokens=120)
        decode(target, draft, cfg, [3, 4], recorder=recorder)
        path = tmp_path / "d.trace"
        write_trace(recorder.to_trace(), path)
        m1 = replay_verify(read_trace(path), MARGIN_09, 7)
        m2 = replay_verify(read_trace(path), MARGIN_09, 7)
        assert m1 == m2

    def test_live_and_replay_decisions_identical(self, tmp_path):
        target, draft = make_pair()
        recorder = TraceRecorder(64, temperature=1.0)
        live_cycles = []
        cfg = DecodeConfig(policy=MARGIN_09, k=7, max_tokens=200, seed=9)
        out, live_metrics = decode(
            target, draft, cfg, [5, 6], recorder=recorder, cycle_sink=live_cycles
        )
        path = tmp_path / "live.trace"
        write_trace(recorder.to_trace("live/replay test"), path)
        replayed = replay_cycles(read_trace(path), MARGIN_09, 7)
        assert len(replayed) == len(live_cycles)
        for live, rep in zip(live_cycles, replayed):
            assert live == rep
        replay_metrics = replay_verify(read_trace(path), MARGIN_09, 7)
        assert replay_metrics.tau == live_metrics.tau
        assert replay_metrics.total_committed == live_metrics.total_committed

    def test_replay_under_different_theta_is_counterfactual(self, tmp_path):
        target, draft = make_pair()
        recorder = TraceRecorder(64, temperature=1.0)
        cfg = DecodeConfig(policy=MARGIN_09, k=7, max_tokens=200, seed=9)
        decode(target, draft, cfg, [5, 6], recorder=recorder)
        trace = recorder.to_trace()
        loose = replay_verify(trace, VerificationPolicy.margin_aware(0.84), 7)
        tight = replay_verify(trace, VerificationPolicy.margin_aware(0.96), 7)
        strict = replay_verify(trace, STRICT, 7)
        accepted = lambda m: m.exact_count + m.relaxed_count
        assert accepted(loose) >= accepted(tight) >= accepted(strict)
        assert strict.relaxed_count == 0


# top-k logits: ratios 0.9 and 0.75, z1 of 0, -0 and below 0, ties, and
# 5e-324 over -1e300, whose ratio overflows to -inf
REPLAY_LOGITS = [10.0, 9.0, 7.5, 1.0, 0.9, 0.0, -0.0, 5e-324, -1.0, -1e300]
NON_POSITIVE = [0.0, -0.0, -1.0, -1e300]  # z1 <= 0, where z2/z1 may still exceed theta
REPLAY_VOCAB = 6


@st.composite
def replay_traces(draw):
    """(records, k): complete cycles of k drafted records, each followed by a
    bonus record or, in another trace, by none, then a partial cycle; or, in
    a third, drafts and draft-less records in any order. Drafts hit the
    top-1, the top-2 or neither."""
    k = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["bonus", "no bonus", "any"]))
    cycles = draw(st.integers(0, 5))
    if shape == "any":
        drafted = draw(st.lists(st.booleans(), max_size=4 * (k + 1)))
    else:
        drafted = ([True] * k + [False] * (shape == "bonus")) * cycles
        drafted += [True] * draw(st.integers(0, k))
    records = []
    for step, has_draft in enumerate(drafted):
        width = draw(st.integers(2, REPLAY_VOCAB))
        tokens = draw(st.permutations(range(REPLAY_VOCAB)))[:width]
        pool = draw(st.sampled_from([REPLAY_LOGITS, NON_POSITIVE]))
        logits = draw(st.lists(st.sampled_from(pool), min_size=width, max_size=width))
        top_k = tuple(sorted(zip(tokens, logits), key=lambda e: (-e[1], e[0])))
        draft = None
        if has_draft:
            pick = draw(st.integers(0, REPLAY_VOCAB + 1))
            draft = top_k[pick][0] if pick < 2 else pick - 2
        records.append(make_record(step=step, top_k=top_k, draft=draft))
    return records, k


def replay_outcome(replay):
    try:
        return replay()
    except ValueError as exc:  # TraceFormatError included
        return type(exc), str(exc)


@pytest.mark.filterwarnings("error")
@given(
    case=replay_traces(),
    policy=st.sampled_from(["strict", "margin"]),
    theta=st.one_of(st.sampled_from([0.5, 0.75, 0.9, 1.0, 5e-324]), st.floats(0.01, 1.0)),
    cost_ratio=st.sampled_from([0.0, 0.05, 0.5]),
)
@settings(max_examples=400, deadline=None)
def test_array_replay_equals_the_per_cycle_tally(case, policy, theta, cost_ratio):
    """replay_verify's array pass returns the metrics that tallying
    replay_cycles' per-cycle decisions does, or raises the same error."""
    records, k = case
    trace = TraceFile(TraceHeader(REPLAY_VOCAB, ""), records)
    rule, cost = VerificationPolicy.from_name(policy, theta), CostModel(c_draft=cost_ratio)

    def per_cycle():
        results = replay_cycles(trace, rule, k)
        committed = sum(len(result.committed_tokens) for result in results)
        return metrics_from_cycles(results, committed, k * len(results), cost, k)

    array, expected = replay_outcome(lambda: replay_verify(trace, rule, k, cost)), replay_outcome(per_cycle)
    assert array == expected
    if not isinstance(array, tuple):  # the same Python types, so the CSV bytes match too
        assert list(map(type, dataclasses.astuple(array))) == list(map(type, dataclasses.astuple(expected)))


@given(case=replay_traces(), policy=st.sampled_from(["strict", "margin"]),
       theta=st.sampled_from([math.nextafter(0.0, 1.0), 0.9, 1.0]))
@settings(max_examples=300, deadline=None)
def test_replay_masks_are_decide_position_per_position(case, policy, theta):
    """Each drafted record replayed alone, as a cycle of k = 1, is counted exact,
    relaxed or rejected as decide_position decides its draft."""
    rule = VerificationPolicy.from_name(policy, theta)
    for record in case[0]:
        if record.chosen_draft is None:
            continue
        (v1, z1), (v2, z2) = record.top_k[:2]
        label = decide_position(TopTwo(v1, v2, z1, z2, logit_ratio(z1, z2)), record.chosen_draft, rule).label
        m = replay_verify(TraceFile(TraceHeader(REPLAY_VOCAB, ""), [record]), rule, 1)
        assert (m.exact_count, m.relaxed_count, m.rejected_count) == (
            label is Decision.EXACT, label is Decision.RELAXED, label is Decision.REJECTED)


class TestStreamedContextHash:
    """decode hashes the context incrementally; every record's ctx= must equal
    the one-shot hash of prompt + committed-so-far + drafted-prefix."""

    @staticmethod
    def check_hashes(config, prompt):
        target, draft = make_pair()
        recorder = TraceRecorder(64, temperature=config.temperature)
        cycles = []
        out, _ = decode(target, draft, config, prompt, recorder=recorder, cycle_sink=cycles)
        k = config.k
        records = recorder.to_trace().records
        assert len(records) == (k + 1) * len(cycles)
        done = 0
        for c, cycle in enumerate(cycles):
            group = records[c * (k + 1) : (c + 1) * (k + 1)]
            drafted = [r.chosen_draft for r in group[:k]]
            for i, rec in enumerate(group):
                assert rec.context_hash == hash_context(list(prompt) + out[:done] + drafted[:i])
            done += len(cycle.committed_tokens)
        assert done >= len(out)
        return out

    def test_greedy_drafts(self):
        config = DecodeConfig(policy=MARGIN_09, k=7, max_tokens=2000)
        assert len(self.check_hashes(config, [1, 2])) >= 2000

    def test_sampled_drafts(self):
        config = DecodeConfig(
            policy=MARGIN_09, k=5, max_tokens=2000, draft_mode="sample", temperature=0.7, seed=11
        )
        assert len(self.check_hashes(config, [9, 8, 7])) >= 2000

    def test_stop_token_exit(self):
        target, draft = make_pair()
        probe, _ = decode(target, draft, DecodeConfig(policy=STRICT, max_tokens=2000), [3, 4])
        first_seen = {}
        for i, tok in enumerate(probe):
            first_seen.setdefault(tok, i)
        stop = max(first_seen, key=first_seen.get)
        config = DecodeConfig(policy=STRICT, max_tokens=2000, stop_token=stop)
        out = self.check_hashes(config, [3, 4])
        assert out[-1] == stop and len(out) == first_seen[stop] + 1
