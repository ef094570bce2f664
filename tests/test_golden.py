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
}

GOLDEN = {
    "analyze": "8e9200624c7ff59a36e8930a077359b8a8a426fa9f44c5ccbf3d8943dfb32b2c",
    "nested_record": "4b37ab9e05560179fa1f11e5665a3f3c0ce3b03b0fbcbeaf42bdda8bf6ad5c6d",
    "nested_run": "f2578d9aff53f10cbc63e6862a28789143a04a0162b0a749e924aa72bbd1c85e",
    "nested_sweep": "cab1c211b9961e82b4386c5a1ba60609c561c1349e264a18ebff0aa99cf1e580",
    "record": "beef3798ccd2afd60be6354338ef4524a903a2cd2a52bbd9507bf4ce47b2a3d5",
    "replay_margin": "8ff44ec04e46763435c15e7c8e2dc818d1cd71d2e7e89d24fd2724f02a514849",
    "replay_strict": "5d4eee4506d70190a5e5937f29cd05e4d4a623a4134379ef4a23a4e955162d53",
    "run_margin": "f80b74d225f46e54ecee008b2d71daad563bcfb6da2baf0cffeb5caa3fb58aca",
    "run_strict_stdout": "37b04d1d52d2c90688cdc629503a16b2fc1cdadbf90781cc72f4ca38edc0a163",
    "stop_token_sample": "63283d7965ca50c2a593e83cf15588b0f0ca6cb9563fa6b5b59f0685b696133e",
    "sweep_temperature_sample": "9ff4aa580be23a9580d452b499c28169d61eb488287f6db1eeb13fd767f1745a",
    "sweep_theta_k": "459cab8e14830ed79cbe8defd1a9d9aee239093d51421be73a64705eebe24b34",
    "tree_margin": "770b071c9e4996f267f2487c44099442922c828dd7f827b6d6016ea3bd74586c",
    "tree_strict": "4e837567b6145c7748e9dc9550b0018172ab9716100a09626f613ebf4e4f7589",
}


def case_digest(name: str, workdir: Path) -> str:
    """Run one case inside workdir and hash every byte it produced."""
    for fname, doc in SPECS.items():
        (workdir / fname).write_text(json.dumps(doc), encoding="utf-8")
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
    for path in sorted(p for p in workdir.rglob("*") if p.is_file() and p.name not in SPECS):
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
