import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import specverify
from specverify.cli import main
from specverify.engine import DecodeConfig, decode
from specverify.logits import logit_ratio
from specverify.trace import TraceFile, TraceHeader, TraceRecord, TraceRecorder, read_trace, write_trace
from specverify.verify import VerificationPolicy

from conftest import make_pair


ABLATION_SPEC = Path(__file__).resolve().parents[1] / "scripts" / "ablation_spec.json"


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def make_trace(path, entries_list, temp=1.0):
    records = [
        TraceRecord(step=i, top_k=entries, temperature=temp, chosen_draft=None)
        for i, entries in enumerate(entries_list)
    ]
    write_trace(TraceFile(TraceHeader(64, "test fixture"), records), path)


class TestRun:
    def test_default_demo_point(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(["run", "--max-tokens", "64", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 1
        k = int(rows[0]["k"])
        assert 1.0 <= float(rows[0]["tau"]) <= k + 1
        assert "wrote 1 row" in capsys.readouterr().out

    def test_stdout_csv_when_no_out(self, capsys):
        assert main(["run", "--max-tokens", "32"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("policy,theta,k,")
        assert "mean tau" in captured.err

    def test_theta_one_matches_strict(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["--max-tokens", "96", "--seed", "77", "--k", "7"]
        assert main(["run", *base, "--policy", "margin", "--theta", "1.0", "--out", str(a)]) == 0
        assert main(["run", *base, "--policy", "strict", "--theta", "1.0", "--out", str(b)]) == 0
        ra, rb = read_rows(a)[0], read_rows(b)[0]
        assert ra["tau"] == rb["tau"]
        assert float(ra["agreement_rate"]) == 1.0
        assert float(rb["agreement_rate"]) == 1.0

    def test_repetitions_and_mean_recompute(self, tmp_path, capsys):
        spec = {"repetitions": 5, "max_tokens": 48, "seed": 5}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "r.csv"
        assert main(["run", "--spec", str(spec_path), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 5
        assert len({r["row_seed"] for r in rows}) == 5  # distinct per-rep seeds
        mean_tau = sum(float(r["tau"]) for r in rows) / 5
        assert f"mean tau            : {mean_tau:.4f}" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    def test_tiny_temperature_samples_the_draft_argmax(self, tmp_path):
        """At temperature 1e-310 the draft's softmax overflows to its limit, one-hot
        on the argmax, so sampled drafting decodes as greedy drafting does."""
        rows = {}
        for mode in ("sample", "greedy"):
            spec, out = tmp_path / f"{mode}.json", tmp_path / f"{mode}.csv"
            spec.write_text(json.dumps({**json.loads(ABLATION_SPEC.read_text()), "draft_mode": mode}))
            argv = ["run", "--spec", str(spec), "--temperature", "1e-310", "--max-tokens", "200"]
            assert main([*argv, "--out", str(out)]) == 0
            (rows[mode],) = read_rows(out)
        assert {**rows["sample"], "draft_mode": "greedy"} == rows["greedy"]

    def test_tiny_temperature_exits_0_with_warnings_as_errors(self):
        """`python -W error -m specverify.cli run` at temperature 1e-310: no
        numpy warning from the sampling CDFs escapes as an error."""
        src = str(Path(specverify.__file__).resolve().parents[1])
        argv = ["run", "--spec", str(ABLATION_SPEC), "--temperature", "1e-310"]
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "specverify.cli", *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr

    def test_grid_in_run_is_validation_error(self, capsys):
        assert main(["run", "--theta", "0.8,0.9"]) == 2
        assert "theta" in capsys.readouterr().err


class TestSweep:
    def test_one_point_grid_equals_run(self, tmp_path):
        a, b = tmp_path / "run.csv", tmp_path / "sweep.csv"
        args = ["--max-tokens", "64", "--seed", "3", "--theta", "0.9"]
        assert main(["run", *args, "--out", str(a)]) == 0
        assert main(["sweep", *args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = ["sweep", "--theta", "0.88,0.92", "--k", "4,7", "--max-tokens", "48"]
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_lexicographic_row_order(self, tmp_path):
        out = tmp_path / "g.csv"
        spec = {
            "theta": [0.9, 0.84],
            "k": [3, 5],
            "temperature": [1.0],
            "repetitions": 2,
            "max_tokens": 32,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 0
        rows = read_rows(out)
        key = [(r["theta"], r["k"], r["temperature"], r["repetition"]) for r in rows]
        # grid axes iterate in declared order: theta outermost, then k, then rep
        assert key == [
            ("0.9", "3", "1.0", "0"),
            ("0.9", "3", "1.0", "1"),
            ("0.9", "5", "1.0", "0"),
            ("0.9", "5", "1.0", "1"),
            ("0.84", "3", "1.0", "0"),
            ("0.84", "3", "1.0", "1"),
            ("0.84", "5", "1.0", "0"),
            ("0.84", "5", "1.0", "1"),
        ]

    def test_live_theta_sweep_direction(self, tmp_path):
        # live runs diverge after the first differing relaxation, so pointwise
        # monotonicity only holds on replayed traces (see acceptance suite);
        # the repetition-averaged direction still shows on a coarse grid
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "draft_mode": "sample",
                    "temperature": 0.7,
                    "theta": [0.84, 0.9, 0.96],
                    "repetitions": 3,
                    "max_tokens": 1000,
                    "seed": 7,
                }
            )
        )
        out = tmp_path / "t.csv"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 0
        rows = read_rows(out)
        means = {}
        for r in rows:
            means.setdefault(r["theta"], []).append(float(r["simulated_speedup"]))
        ordered = [sum(means[t]) / len(means[t]) for t in ("0.84", "0.9", "0.96")]
        assert ordered[0] >= ordered[1] >= ordered[2]

    def test_flags_override_spec_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"theta": [0.5], "max_tokens": 32}))
        out = tmp_path / "o.csv"
        assert main(["sweep", "--spec", str(spec_path), "--theta", "0.95", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [r["theta"] for r in rows] == ["0.95"]


class TestRecordReplay:
    def test_record_then_replay(self, tmp_path, capsys):
        trace_path = tmp_path / "demo.trace"
        assert main(["record", "--max-tokens", "80", "--out", str(trace_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "replay.csv"
        assert main(["replay", str(trace_path), "--theta", "0.9", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 1
        assert 1.0 <= float(rows[0]["tau"]) <= 8.0
        assert rows[0]["policy"] == "margin"

    def test_replay_with_another_k_is_2(self, tmp_path, capsys):
        trace_path = tmp_path / "k7.trace"
        assert main(["record", "--max-tokens", "40", "--out", str(trace_path)]) == 0
        assert main(["replay", str(trace_path), "--k", "5"]) == 2
        assert "record 8" in capsys.readouterr().err

    def test_replay_with_a_k_dividing_the_recorded_k_is_2(self, tmp_path, capsys):
        trace_path = tmp_path / "k7.trace"
        argv = ["record", "--max-tokens", "300", "--seed", "5", "--out", str(trace_path)]
        assert main(argv) == 0
        assert main(["replay", str(trace_path), "--k", "1"]) == 2
        err = capsys.readouterr().err
        assert "record 8: draft-less" in err
        assert "Traceback" not in err

    def test_replay_theta_grid_rows_equal_single_theta_rows(self, tmp_path, capsys):
        trace_path = tmp_path / "demo.trace"
        assert main(["record", "--max-tokens", "300", "--seed", "5", "--out", str(trace_path)]) == 0
        thetas = ["0.96", "0.84", "0.9"]  # rows come in grid order, not sorted
        singles = []
        for theta in thetas:
            out = tmp_path / f"{theta}.csv"
            assert main(["replay", str(trace_path), "--theta", theta, "--out", str(out)]) == 0
            singles.append(out.read_text().splitlines())
        capsys.readouterr()
        assert main(["replay", str(trace_path), "--theta", ",".join(thetas)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [singles[0][0], *(lines[1] for lines in singles)]
        rows = [read_rows(tmp_path / f"{theta}.csv")[0] for theta in thetas]
        taus = ",".join(f"{float(row['tau']):.4f}" for row in rows)
        assert captured.err == f"tau={taus} over {rows[0]['cycles']} cycles\n"

    def test_replay_duplicate_theta_is_2(self, tmp_path, capsys):
        trace_path = tmp_path / "demo.trace"
        assert main(["record", "--max-tokens", "40", "--out", str(trace_path)]) == 0
        out = tmp_path / "out.csv"
        assert main(["replay", str(trace_path), "--theta", "0.9,0.8,0.9", "--out", str(out)]) == 2
        assert "field 'theta': duplicate value 0.9" in capsys.readouterr().err
        assert not out.exists()

    def test_recorded_trace_is_valid_and_cycle_shaped(self, tmp_path):
        trace_path = tmp_path / "demo.trace"
        assert main(["record", "--max-tokens", "40", "--k", "5", "--out", str(trace_path)]) == 0
        trace = read_trace(trace_path)
        drafted = [r for r in trace.records if r.chosen_draft is not None]
        bonus = [r for r in trace.records if r.chosen_draft is None]
        assert len(drafted) == 5 * len(bonus)  # K drafted + 1 continuation per cycle
        assert all(len(r.top_k) == 10 for r in trace.records)


class TestAnalyze:
    def test_all_ties_trace_fraction_one(self, tmp_path, capsys):
        trace_path = tmp_path / "ties.trace"
        make_trace(trace_path, [((0, 5.0), (1, 5.0))] * 20)
        for theta in ("0.9", "0.5", "0.99"):
            assert main(["analyze", str(trace_path), "--theta", theta, "--out", str(tmp_path / "a")]) == 0
            assert "1.0000 of records" in capsys.readouterr().out

    @pytest.mark.parametrize("theta", ["1.5", "0", "-0", "nan"])
    def test_theta_outside_its_domain_is_2(self, theta, tmp_path, capsys):
        trace_path = tmp_path / "t.trace"
        make_trace(trace_path, [((0, 8.0), (1, 2.0))])
        assert main(["analyze", str(trace_path), "--theta", theta, "--out", str(tmp_path / "a")]) == 2
        assert f"field 'theta': {float(theta)} not in (0, 1]" in capsys.readouterr().err

    def test_low_ratio_trace_fraction_zero(self, tmp_path, capsys):
        trace_path = tmp_path / "low.trace"
        make_trace(trace_path, [((0, 8.0), (1, 2.0)), ((3, 4.0), (2, 1.0))] * 10)
        assert main(["analyze", str(trace_path), "--theta", "0.9", "--out", str(tmp_path / "a")]) == 0
        assert "0.0000 of records" in capsys.readouterr().out

    def test_zone_fraction_matches_counting_oracle(self, tmp_path, capsys):
        target, draft = make_pair()
        recorder = TraceRecorder(64, temperature=1.0)
        cfg = DecodeConfig(policy=VerificationPolicy.margin_aware(0.9), k=7, max_tokens=400)
        decode(target, draft, cfg, [1, 2], recorder=recorder)
        trace_path = tmp_path / "model.trace"
        write_trace(recorder.to_trace(), trace_path)
        trace = read_trace(trace_path)
        hits = 0
        for rec in trace.records:
            r = logit_ratio(rec.top_k[0][1], rec.top_k[1][1])
            hits += r is not None and r > 0.9
        expected = hits / len(trace.records)
        assert main(["analyze", str(trace_path), "--theta", "0.9", "--out", str(tmp_path / "a")]) == 0
        assert f"{expected:.4f} of records" in capsys.readouterr().out

    def test_writes_csv_set_with_consistent_counts(self, tmp_path):
        target, draft = make_pair()
        recorder = TraceRecorder(64, temperature=0.7)
        cfg = DecodeConfig(policy=VerificationPolicy.strict(), k=7, max_tokens=200)
        decode(target, draft, cfg, [9, 9], recorder=recorder)
        trace_path = tmp_path / "t.trace"
        write_trace(recorder.to_trace(), trace_path)
        outdir = tmp_path / "report"
        assert main(["analyze", str(trace_path), "--out", str(outdir)]) == 0
        n_records = len(read_trace(trace_path).records)
        for name in ("top1_hist.csv", "ratio_hist.csv", "prob_ratio_hist.csv"):
            rows = read_rows(outdir / name)
            assert sum(int(r["count"]) for r in rows) == n_records
        scatter = read_rows(outdir / "scatter.csv")
        assert len(scatter) == n_records
        # scatter probabilities are consistent with the exact ratio form
        for row in scatter[:50]:
            p1, p2 = float(row["p1"]), float(row["p2"])
            z1, z2 = float(row["z1"]), float(row["z2"])
            assert p2 / p1 == pytest.approx(np.exp((z2 - z1) / 0.7), rel=1e-9)


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["run", "--no-such-flag"]) == 1
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_validation_error_is_2(self, capsys):
        assert main(["run", "--theta", "1.5"]) == 2
        assert "theta" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", [5000, *range(960, 1000, 3)])
    @pytest.mark.parametrize("shape", ["array", "object"])
    def test_a_deeply_nested_spec_is_2_and_names_its_file(self, shape, depth, tmp_path, capsys):
        """Nested too deeply for the parser, or for the message that quotes the value."""
        spec = tmp_path / "deep.json"
        value = "[" * depth + "0.9" + "]" * depth if shape == "array" else '{"a": ' * depth + "1" + "}" * depth
        spec.write_text(f'{{"{"theta" if shape == "array" else "target"}": {value}}}')
        assert main(["run", "--spec", str(spec), "--max-tokens", "5"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if depth == 5000:
            assert f"spec file {spec}: nested too deeply" in err

    def test_missing_trace_is_3(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "missing.trace")]) == 3
        capsys.readouterr()

    def test_bad_spec_json_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--spec", str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_spec_field_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"thetas": [0.9]}))
        assert main(["run", "--spec", str(bad)]) == 2
        assert "field 'thetas'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep", "record"])
    def test_tree_top_k_zero_named(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"tree_top_k": 0}))
        argv = [command, "--spec", str(bad), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "field 'tree_top_k'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, doc, name",
        [
            (["run"], {"target": {"seed": "x"}}, "target.seed"),
            (["run"], {"target": {"vocab_size": 2.5}}, "target.vocab_size"),
            (["run"], {"target": [1]}, "target"),
            (["run"], {"draft": {"noise_scale": "nan"}}, "draft.noise_scale"),
            (["run"], {"k": 7.9}, "k"),
            (["run"], {"k": True}, "k"),
            (["run"], {"theta": "abc"}, "theta"),
            (["run"], {"draft_mode": "bogus"}, "draft_mode"),
            (["run"], {"mode": "dag"}, "mode"),
            (["run"], {"stop_token": 99}, "stop_token"),
            (["run"], {"stop_token": -3}, "stop_token"),
            (["run"], {"target": {"seed": 2**63}}, "target.seed"),
            (["run"], {"target": {"logit_offset": float("inf")}}, "target.logit_offset"),
            (["run", "--seed", str(2**63)], None, "seed"),
            (["run", "--cost-ratio", "nan"], None, "cost_ratio"),
            (["run", "--temperature", "nan"], None, "temperature"),
            (["replay", "TRACE", "--cost-ratio", "nan"], None, "cost_ratio"),
            (["run"], {"mode": "tree", "tree_top_k": 1000}, "tree_top_k"),
            (["run"], {"mode": "tree", "tree_top_k": 2, "k": 40}, "tree_top_k"),
            (["run"], {"repetitions": 2**63}, "repetitions"),
            (["run"], {"target": {"order": 1025}}, "target.order"),
            (["record"], {"target": {"order": 2**63}}, "target.order"),
            (["run"], {"target": {"vocab_size": 2**18 + 1}}, "target.vocab_size"),
            (["record"], {"target": {"vocab_size": 2**63}}, "target.vocab_size"),
            # finite values whose logits overflow the float range
            (["run"], {"target": {"logit_spread": 1e308}}, "target.logit_spread"),
            (["run"], {"target": {"logit_offset": 1.7e308, "logit_spread": 1e306}}, "target.logit_offset"),
            (["run"], {"draft": {"noise_scale": 1e308}}, "draft.noise_scale"),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_field_is_2_and_named(self, argv, doc, name, tmp_path, capsys):
        if doc is not None:
            (tmp_path / "bad.json").write_text(json.dumps(doc))
            argv = [*argv, "--spec", str(tmp_path / "bad.json")]
        if "TRACE" in argv:
            trace = tmp_path / "t.trace"
            assert main(["record", "--max-tokens", "16", "--out", str(trace)]) == 0
            argv = [str(trace) if a == "TRACE" else a for a in argv]
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert f"field '{name}'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            (["sweep", "--theta", "0.9,0.9"], None, "field 'theta': duplicate value 0.9"),
            (["sweep", "--k", "5,7,5"], None, "field 'k': duplicate value 5"),
            (["sweep"], {"temperature": [1, 0.5, 1.0]}, "field 'temperature': duplicate value 1.0"),
        ],
        ids=["theta", "k", "temperature"],
    )
    def test_duplicate_grid_value_is_2(self, argv, doc, message, tmp_path, capsys):
        if doc is not None:
            (tmp_path / "dup.json").write_text(json.dumps(doc))
            argv = [*argv, "--spec", str(tmp_path / "dup.json")]
        assert main([*argv, "--max-tokens", "16", "--out", str(tmp_path / "out.csv")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["run", "record"])
    @pytest.mark.parametrize(
        "text, name",
        [
            ('{"max_tokens": 16, "k": 3, "max_tokens": 20}', "max_tokens"),
            ('{"target": {"seed": 1, "seed": 2}}', "target.seed"),
            ('{"draft": {}, "target": {"order": 2, "seed": 5, "order": 2}}', "target.order"),
            ('{"theta": [{"a": 1, "a": 2}]}', "theta.a"),
        ],
        ids=["top", "nested", "nested_equal_values", "in_a_list"],
    )
    def test_duplicate_spec_key_is_2_and_named(self, command, text, name, tmp_path, capsys):
        (tmp_path / "dup.json").write_text(text)
        argv = [command, "--spec", str(tmp_path / "dup.json"), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"field '{name}': duplicate key" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "replay"])
    def test_negative_zero_cost_ratio_writes_the_csv_of_zero(self, command, tmp_path, capsys):
        argv = [command, "--max-tokens", "20"]
        if command == "replay":
            trace = tmp_path / "t.trace"
            assert main(["record", "--max-tokens", "16", "--out", str(trace)]) == 0
            argv = [command, str(trace)]
        for name, value in (("zero.csv", "0"), ("negative_zero.csv", "-0")):
            assert main([*argv, "--cost-ratio", value, "--out", str(tmp_path / name)]) == 0
        spec = tmp_path / "spec.json"
        spec.write_text('{"cost_ratio": -0.0, "max_tokens": 20}')
        if command == "run":
            assert main([*argv, "--spec", str(spec), "--out", str(tmp_path / "spec.csv")]) == 0
        capsys.readouterr()
        zero = (tmp_path / "zero.csv").read_bytes()
        assert b"-0.0" not in zero
        assert (tmp_path / "negative_zero.csv").read_bytes() == zero
        if command == "run":
            assert (tmp_path / "spec.csv").read_bytes() == zero

    def test_deep_branching_one_tree_runs(self, tmp_path, capsys):
        spec = tmp_path / "deep.json"
        spec.write_text(json.dumps({"mode": "tree", "tree_top_k": 1, "k": 5000, "max_tokens": 20}))
        assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "out.csv")]) == 0
        row = read_rows(tmp_path / "out.csv")[0]
        assert int(row["cycles"]) >= 1
        assert int(row["draft_steps"]) == 5000 * int(row["cycles"])
        capsys.readouterr()

    def test_too_deep_branching_one_tree_is_2(self, tmp_path, capsys):
        spec = tmp_path / "deep.json"
        spec.write_text(json.dumps({"mode": "tree", "tree_top_k": 1, "k": 200_001}))
        assert main(["run", "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "field 'tree_top_k'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, doc", [
        (["--k", "200001"], {}),
        ([], {"draft_mode": "sample", "k": 10**12, "max_tokens": 50}),
    ])
    def test_chain_k_above_the_leaf_limit_is_2_and_named(self, argv, doc, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main(["run", "--spec", str(spec), *argv, "--max-tokens", "50"]) == 2
        err = capsys.readouterr().err
        assert "field 'k'" in err and "200000" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["analyze", "replay"])
    @pytest.mark.parametrize("temp", ["nan", "inf"])
    def test_non_finite_trace_temperature_is_2(self, command, temp, tmp_path, capsys):
        path = tmp_path / "t.trace"
        assert main(["record", "--max-tokens", "16", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace("temp=1 ", f"temp={temp} ")
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
        assert "record 3 (line 4): temperature" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # integer fields are ASCII decimal digits, and ctx is an unsigned 64-bit value
    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("step", "1_0", "step '1_0'"),
            ("step", "+3", "step '+3'"),
            ("ctx", "-5", "ctx '-5'"),
            ("ctx", "18446744073709551616", "ctx 18446744073709551616"),
            ("draft", "\u0663", "draft '\u0663'"),
            ("topk", "+3:2.5,1:1.25", "token '+3'"),
        ],
    )
    def test_non_decimal_trace_integer_is_2(self, field, value, named, tmp_path, capsys):
        fields = {"step": "1", "ctx": "-", "temp": "1", "draft": "-", "topk": "3:2.5,1:1.25"}
        fields[field] = value
        path = tmp_path / "t.trace"
        path.write_text(
            "specverify-trace v1 vocab=64 producer=\n"
            "step=0 ctx=- temp=1 draft=- topk=3:2.5,1:1.25\n"
            + " ".join(f"{key}={text}" for key, text in fields.items()) + "\n",
            encoding="utf-8",
        )
        assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"record 2 (line 3): {named}" in capsys.readouterr().err

    # lines end as str.splitlines() ends them: \r\n is one break, \x0b another; the
    # long producer puts the bad byte past the first 8 KiB of the file
    @pytest.mark.parametrize("command", ["analyze", "replay"])
    def test_non_utf8_trace_is_2_and_names_the_line(self, command, tmp_path, capsys):
        path = tmp_path / "t.trace"
        path.write_bytes(
            b"specverify-trace v1 vocab=64 producer=" + b"x" * 10_000 + b"\r\n"
            b"step=0 ctx=- temp=1 draft=- topk=3:2.5,1:1.25\x0b"
            b"step=1 ctx=- temp=1 draft=- topk=3:2.5,1:1.\xff25\n"
        )
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: line 3: byte 0xff is not UTF-8" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    # valid records whose values numpy cannot bin by itself
    @pytest.mark.parametrize(
        "topks, binned_ratios, outside",
        [
            (["1:1e300,0:0"], 1, 0),  # a range too narrow for 40 finite-width bins
            (["1:5e-324,0:-1e300"], 0, 1),  # z2/z1 overflows to -inf
            (["1:1e308,0:0", "1:-1e308,0:-1.5e308"], 1, 0),  # a range past the largest float
            # logits spanning twice the largest float: softmax overflows to its limit
            (["1:1.7976931348623157e308,0:-1.7976931348623157e308"], 1, 0),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_extreme_valid_trace_analyzes(self, topks, binned_ratios, outside, tmp_path, capsys):
        path = tmp_path / "t.trace"
        path.write_text(
            "specverify-trace v1 vocab=64 producer=\n"
            + "".join(f"step={i} ctx=- temp=1 draft=- topk={t}\n" for i, t in enumerate(topks))
        )
        assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert ("ratios off the histogram (-inf): 1" in out) == bool(outside)
        top1 = read_rows(tmp_path / "out" / "top1_hist.csv")
        assert len(top1) == 40 and sum(int(row["count"]) for row in top1) == len(topks)
        edges = [float(row["bin_left"]) for row in top1] + [float(top1[-1]["bin_right"])]
        assert all(a < b for a, b in zip(edges, edges[1:])) and np.isfinite(edges).all()
        ratio = read_rows(tmp_path / "out" / "ratio_hist.csv")
        assert sum(int(row["count"]) for row in ratio) == binned_ratios

    @pytest.mark.filterwarnings("error")
    def test_tiny_trace_temperature_analyzes(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        make_trace(path, [((3, 2.5), (1, 1.25))], temp=1e-310)
        assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 0
        (row,) = read_rows(tmp_path / "out" / "scatter.csv")
        assert (row["p1"], row["p2"]) == ("1.0", "0.0")
        capsys.readouterr()

    def test_invalid_trace_is_2(self, tmp_path, capsys):
        path = tmp_path / "corrupt.trace"
        path.write_text("specverify-trace v1 vocab=64 producer=\nstep=0 bogus\n")
        assert main(["replay", str(path)]) == 2
        capsys.readouterr()

    def test_help_is_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


# byte strings spliced into a valid trace: field syntax, numbers at and past the
# float and integer limits, and the separators str.splitlines() also breaks at
FUZZ_PIECES = [
    b"-", b"0", b"7", b"-1", b".", b"e", b"e308", b"e-310", b"nan", b"inf", b"1e400",
    b"18446744073709551616", b":", b",", b"=", b" ", b"\t", b"\n", b"\r", b"\x0b",
    b"\xe2\x80\xa8", b"\xff", b"\x00", b"\xd9\xa3", b"step=", b"ctx=", b"temp=",
    b"draft=", b"topk=", b"vocab=",
]
SPLICE = st.tuples(
    st.integers(0, 10**6), st.integers(0, 12), st.lists(st.sampled_from(FUZZ_PIECES), max_size=3)
)
LINE_EDIT = st.tuples(st.integers(0, 10**6), st.sampled_from(["drop", "repeat", "swap"]))


def mutate(data: bytes, edits) -> bytes:
    for edit in edits:
        if isinstance(edit[1], int):
            at, cut, pieces = edit
            at %= len(data) + 1
            data = data[:at] + b"".join(pieces) + data[at + cut :]
            continue
        lines = data.splitlines(keepends=True) or [b""]
        i = edit[0] % len(lines)
        if edit[1] == "drop":
            del lines[i]
        elif edit[1] == "repeat":
            lines.insert(i, lines[i])
        else:
            j = (i + 1) % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        data = b"".join(lines)
    return data


@pytest.fixture(scope="module")
def recorded_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "base.trace"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["record", "--max-tokens", "12", "--k", "3", "--out", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.filterwarnings("error")
@given(
    command=st.sampled_from(["replay", "analyze"]),
    edits=st.lists(st.one_of(SPLICE, LINE_EDIT), min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_mutated_traces_exit_0_or_2(recorded_trace, command, edits):
    """Every mutated trace is analyzed or replayed, or refused with exit 2; none
    escapes as an exception or a warning. An accepted trace is a fixpoint of
    reading and writing it back."""
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "t.trace", Path(tmp) / "again.trace"
        path.write_bytes(mutate(recorded_trace, edits))
        flags = ["--k", "3"] if command == "replay" else []  # the recorded K
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, str(path), *flags, "--out", str(Path(tmp) / "out")])
        assert code in (0, 2)
        event(f"{command} exit {code}")
        if code == 0:
            first = read_trace(path)
            write_trace(first, again)
            written = again.read_bytes()
            second = read_trace(again)
            assert second.header == first.header and second.records == first.records
            write_trace(second, again)
            assert again.read_bytes() == written


# each flag's values: edge literals (nan, inf, -0, a subnormal, 2^63, a
# duplicate grid, empty, negative) and a few ordinary ones, so that many
# argv parse and reach the field checks
BIG = str(2**63)
EDGE_VALUES = {
    "--theta": ["nan", "inf", "-0", "1e-320", BIG, "1,1", "", "-1", "1", "0.9", "0.5,1"],
    "--k": ["nan", "-0", "0", BIG, "1000000000000", "1,1", "", "-1", "1", "3", "7", "3,1"],
    "--temperature": ["nan", "inf", "-0", "1e-320", BIG, "1,1", "", "-1", "1", "0.5,1"],
    "--seed": ["nan", "-0", BIG, str(2**63 - 1), "1,1", "", "-1", "7"],
    "--policy": ["nan", "strict", "margin"],
    "--cost-ratio": ["nan", "inf", "-0", "1e-320", BIG, "1,1", "", "-1", "0.5"],
    # always given, and 50 or below, so every run is short
    "--max-tokens": ["nan", "-0", "0", "1,1", "-1", "1", "20", "50"],
}
GRID_FLAGS = ["--theta", "--k", "--temperature", "--seed", "--policy", "--cost-ratio"]
ARGV_FLAGS = {
    "run": GRID_FLAGS,
    "sweep": GRID_FLAGS,
    "record": GRID_FLAGS,
    "replay": ["--policy", "--theta", "--k", "--cost-ratio"],
    "analyze": ["--theta"],
}


@pytest.mark.filterwarnings("error")
@given(command=st.sampled_from(sorted(ARGV_FLAGS)), data=st.data())
@settings(max_examples=300, deadline=None)
def test_argv_edge_values_exit_with_a_documented_code(recorded_trace, command, data):
    """Every subcommand, given edge values for its flags, exits 0, 1, 2 or 3;
    no exception or warning escapes."""
    flags = ARGV_FLAGS[command]
    names = data.draw(st.sets(st.sampled_from(flags), max_size=min(3, len(flags))))
    argv = [command]
    with tempfile.TemporaryDirectory() as tmp:
        if command in ("replay", "analyze"):
            (Path(tmp) / "t.trace").write_bytes(recorded_trace)
            argv.append(str(Path(tmp) / "t.trace"))
        else:
            names.add("--max-tokens")
        for name in sorted(names):
            argv += [name, data.draw(st.sampled_from(EDGE_VALUES[name]), label=name)]
        argv += ["--out", str(Path(tmp) / "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    event(f"{command} exit {code}")


# spec document values as JSON text: edge numbers (Python's json reads NaN,
# Infinity and 1e999, which is inf), wrong JSON types and a few ordinary ones
SPEC_EDGES = ["NaN", "Infinity", "-Infinity", "1e999", "-0.0", "5e-324", str(2**63), str(2**1000),
              "-1", "0", "1.5", "true", "null", '"7"', '"x"', "[]", "{}", "[0.9, 0.9]"]
# each key's values, drawn three times as often as the edges: most of them valid
SPEC_KEYS = {
    "": {"policy": ['"margin"', '"strict"'], "theta": ["0.9", "1", "[0.5, 1]", "5e-324"],
         "k": ["1", "3", "[1, 3]", "1000000000000"], "temperature": ["0.5", "1", "[0.5, 1]", "5e-324"],
         "draft_mode": ['"greedy"', '"sample"'], "mode": ['"chain"', '"tree"'],
         "tree_top_k": ["1", "2", "3"], "stop_token": ["null", "0", "5"],
         "cost_ratio": ["0", "0.5"], "repetitions": ["1", "2"], "seed": ["0", str(2**63 - 1)],
         "target": [], "draft": [], "θ": []},
    "target": {"seed": ["1", str(-(2**63))], "vocab_size": ["2", "3", "64"],
               "order": ["1", "2", "3"], "logit_offset": ["0.5", "-3"], "logit_spread": ["0.5", "2"],
               "vöcab_size": []},
    "draft": {"noise_seed": ["7"], "noise_scale": ["0", "0.5"], "nöise_scale": []},
}
# always given, so that every run is short: 50 or below, or an edge that is refused
SPEC_MAX_TOKENS = ["1", "20", "50"]
ONE_IN_FOUR = st.sampled_from([False, False, False, True])


@st.composite
def spec_objects(draw, prefix: str = "") -> str:
    """A JSON object of the spec's keys at `prefix` (unknown non-ASCII keys
    among them), sometimes with a key repeated, each key written as ASCII or
    not; `target` and `draft` hold objects or a wrong type."""
    keys = draw(st.lists(st.sampled_from(sorted(SPEC_KEYS[prefix])), max_size=4, unique=True))
    if keys and draw(ONE_IN_FOUR):
        keys.append(draw(st.sampled_from(keys)))
    pairs = []
    for key in keys:
        edge = draw(ONE_IN_FOUR)
        if key in SPEC_KEYS and not edge:
            value = draw(spec_objects(key))
        elif SPEC_KEYS[prefix][key] and not edge:
            value = draw(st.sampled_from(SPEC_KEYS[prefix][key]))
        else:
            value = draw(st.sampled_from(SPEC_EDGES))
        pairs.append(f"{json.dumps(key, ensure_ascii=draw(st.booleans()))}: {value}")
    if not prefix:
        refused = sorted(set(SPEC_EDGES) - {str(2**63), str(2**1000)})  # as max_tokens
        value = draw(st.sampled_from(refused if draw(ONE_IN_FOUR) else SPEC_MAX_TOKENS))
        pairs.insert(draw(st.integers(0, len(pairs))), f'"max_tokens": {value}')
    return "{" + ", ".join(pairs) + "}"


@pytest.mark.filterwarnings("error")
@given(command=st.sampled_from(["run", "record"]), text=spec_objects())
@settings(max_examples=500, deadline=None)
def test_spec_documents_exit_0_or_2(command, text):
    """Every spec document runs or is refused with exit 2; no exception or
    warning escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--spec", str(spec), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    event(f"{command} exit {code}")
