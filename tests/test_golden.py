"""Golden SHA-256 digests of CLI output bytes.

Each case runs `main(argv)` in-process inside a fresh working directory and
hashes everything the command produced: its exit code, stdout, stderr and
every file it wrote, in name order. Paths are relative, so the bytes do not
depend on where the test runs. A refactor that changes any CSV, trace,
report or printed summary byte changes a digest here.

Print the current digests (to refresh them after a deliberate output change):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from specverify.cli import main

SPECS = {
    "temps.json": {"draft_mode": "sample", "temperature": [0.5, 1.0, 2.0], "max_tokens": 150},
    "tree.json": {"mode": "tree", "tree_top_k": 2, "k": 3, "max_tokens": 150,
                  "draft": {"noise_scale": 4.0}},
    "stop.json": {"draft_mode": "sample", "temperature": 1.5, "stop_token": 5, "max_tokens": 400},
    # every target and draft field off its default, repetitions, a theta x k grid
    "nested.json": {"target": {"seed": 17, "vocab_size": 48, "order": 3, "logit_offset": 0.25,
                               "logit_spread": 1.5},
                    "draft": {"noise_seed": 11, "noise_scale": 0.8},
                    "theta": [0.85, 0.95], "k": [3, 6], "repetitions": 2, "cost_ratio": 0.1,
                    "max_tokens": 120, "seed": 21},
    # tree_top_k above the vocabulary: nodes have vocab_size children, and
    # draft_steps counts those, as at tree_top_k 64
    "wide_tree.json": {"mode": "tree", "tree_top_k": 65, "k": 2, "max_tokens": 300},
}

# a hand-built K=3 trace: top-k widths 2 to 10, ties, -0, subnormals, a z1 < 0
# and a z1 == 0 record, a ratio equal to theta 0.9, a draft-less record
# between cycles and a trailing partial cycle
TRACES = {
    "ragged.trace": """specverify-trace v1 vocab=16 producer=hand-built ragged trace
step=0 ctx=17 temp=1 draft=5 topk=5:3.5,9:3.25,1:0.5
step=1 ctx=- temp=0.40000000000000002 draft=9 topk=5:2,9:1.8999999999999999,3:1.5,7:1.5,0:-0.25
step=2 ctx=18446744073709551615 temp=1 draft=4 topk=4:-0.5,2:-1.25
step=3 ctx=- temp=1 draft=- topk=6:8.75,1:8.5,2:1,3:0.5,4:0.25,5:0,7:-0,8:-1,9:-2,10:-3
step=4 ctx=5 temp=2.5 draft=2 topk=1:0,2:-0.5,3:-0.5
step=5 ctx=- temp=1 draft=1 topk=1:7,2:6.5,3:6,4:5.5
step=6 ctx=- temp=1 draft=11 topk=11:2.2250738585072014e-308,0:5e-324,15:0,14:-1e-300,13:-1,12:-2
step=7 ctx=- temp=1 draft=- topk=0:1,1:0.5,2:0.25,3:0.125,4:0.0625,5:0.03125,6:0.015625
step=8 ctx=- temp=0.69999999999999996 draft=- topk=8:3,9:3
step=9 ctx=12 temp=1 draft=3 topk=3:5e-324,8:0
step=10 ctx=- temp=1 draft=12 topk=1:4,12:3.7999999999999998,2:3,5:2,6:1,7:0.5,8:0.25,9:0.125
step=11 ctx=- temp=1.5 draft=0 topk=0:9,1:9,2:8.9000000000000004,3:1,4:1,5:1,6:0,7:-1,8:-2
step=12 ctx=- temp=1 draft=- topk=14:1,15:0.98999999999999999
step=13 ctx=- temp=1 draft=4 topk=2:10,4:9,7:1
step=14 ctx=- temp=1 draft=2 topk=2:1,3:1
step=15 ctx=- temp=1 draft=3 topk=3:10,4:9,5:8,6:7
step=16 ctx=- temp=1 draft=- topk=0:2,1:1
step=17 ctx=99 temp=1 draft=4 topk=4:2,5:1.9500000000000002,6:1
step=18 ctx=- temp=1 draft=5 topk=4:2,5:1.9500000000000002
""",
}

RECORD = ["record", "--max-tokens", "300", "--seed", "5", "--out", "rec.trace"]

# name -> list of argv, run in order in one directory
CASES = {
    "run_margin": [["run", "--max-tokens", "200", "--seed", "11", "--out", "run.csv"]],
    "run_strict_stdout": [["run", "--policy", "strict", "--max-tokens", "200", "--seed", "11"]],
    "sweep_theta_k": [["sweep", "--theta", "0.8,0.9,1.0", "--k", "3,5", "--max-tokens", "120",
                       "--out", "sweep.csv"]],
    "sweep_temperature_sample": [["sweep", "--spec", "temps.json", "--out", "temps.csv"]],
    "tree_margin": [["run", "--spec", "tree.json", "--out", "tree.csv"]],
    "tree_strict": [["run", "--spec", "tree.json", "--policy", "strict", "--out", "tree.csv"]],
    "stop_token_sample": [["run", "--spec", "stop.json", "--seed", "3", "--out", "stop.csv"]],
    "record": [RECORD],
    "replay_strict": [RECORD, ["replay", "rec.trace", "--policy", "strict", "--out", "rep.csv"]],
    "replay_margin": [RECORD, ["replay", "rec.trace", "--theta", "0.85"]],
    "analyze": [RECORD, ["analyze", "rec.trace", "--out", "an"]],
    "nested_run": [["run", "--spec", "nested.json", "--theta", "0.85", "--k", "6", "--out", "n.csv"]],
    "nested_sweep": [["sweep", "--spec", "nested.json", "--out", "n.csv"]],
    "nested_record": [["record", "--spec", "nested.json", "--theta", "0.95", "--k", "3",
                       "--out", "n.trace"]],
    "tree_top_k_above_vocab": [["run", "--spec", "wide_tree.json", "--out", "wide.csv"]],
    "ragged_replay_margin": [["replay", "ragged.trace", "--theta", "0.9", "--k", "3",
                              "--out", "r.csv"]],
    "ragged_replay_strict": [["replay", "ragged.trace", "--policy", "strict", "--k", "3"]],
    "ragged_analyze": [["analyze", "ragged.trace", "--theta", "0.9", "--out", "an"]],
}

GOLDEN = {
    "analyze": "8e9200624c7ff59a36e8930a077359b8a8a426fa9f44c5ccbf3d8943dfb32b2c",
    "nested_record": "4b37ab9e05560179fa1f11e5665a3f3c0ce3b03b0fbcbeaf42bdda8bf6ad5c6d",
    "nested_run": "f2578d9aff53f10cbc63e6862a28789143a04a0162b0a749e924aa72bbd1c85e",
    "nested_sweep": "cab1c211b9961e82b4386c5a1ba60609c561c1349e264a18ebff0aa99cf1e580",
    "ragged_analyze": "0d76b561eb42215355f9082b269e78269a9770edc276691b6b4c8c7ec62b7611",
    "ragged_replay_margin": "7865ce2582f3b1367fa421a466f3477487f33f767c9dcac1e9d4cfffd001de03",
    "ragged_replay_strict": "968865a5c10076b5b08936c68b5f5f901544c534ecccb614f90bccd30348424c",
    "record": "beef3798ccd2afd60be6354338ef4524a903a2cd2a52bbd9507bf4ce47b2a3d5",
    "replay_margin": "8ff44ec04e46763435c15e7c8e2dc818d1cd71d2e7e89d24fd2724f02a514849",
    "replay_strict": "5d4eee4506d70190a5e5937f29cd05e4d4a623a4134379ef4a23a4e955162d53",
    "run_margin": "f80b74d225f46e54ecee008b2d71daad563bcfb6da2baf0cffeb5caa3fb58aca",
    "run_strict_stdout": "37b04d1d52d2c90688cdc629503a16b2fc1cdadbf90781cc72f4ca38edc0a163",
    "stop_token_sample": "63283d7965ca50c2a593e83cf15588b0f0ca6cb9563fa6b5b59f0685b696133e",
    "sweep_temperature_sample": "9ff4aa580be23a9580d452b499c28169d61eb488287f6db1eeb13fd767f1745a",
    "sweep_theta_k": "459cab8e14830ed79cbe8defd1a9d9aee239093d51421be73a64705eebe24b34",
    "tree_top_k_above_vocab": "e604b08e20e8f279f495b5f8586af59769104213f158c7c2fbc0c8fee400165a",
    "tree_margin": "770b071c9e4996f267f2487c44099442922c828dd7f827b6d6016ea3bd74586c",
    "tree_strict": "4e837567b6145c7748e9dc9550b0018172ab9716100a09626f613ebf4e4f7589",
}


def case_digest(name: str, workdir: Path) -> str:
    """Run one case inside workdir and hash every byte it produced."""
    for fname, doc in SPECS.items():
        (workdir / fname).write_text(json.dumps(doc), encoding="utf-8")
    for fname, text in TRACES.items():
        (workdir / fname).write_text(text, encoding="utf-8")
    h = hashlib.sha256()
    old = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in CASES[name]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            for part in (str(code), out.getvalue(), err.getvalue()):
                h.update(part.encode("utf-8") + b"\0")
    finally:
        os.chdir(old)
    for path in sorted(p for p in workdir.rglob("*") if p.is_file() and p.name not in {**SPECS, **TRACES}):
        h.update(path.relative_to(workdir).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_digest(name, tmp_path):
    assert case_digest(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as d:
            print(f'    "{case}": "{case_digest(case, Path(d))}",', file=sys.stdout)
