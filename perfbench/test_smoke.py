"""Smoke test of the benchmark itself, at tenth size (about a minute).

    python3 perfbench/test_smoke.py          # or: python3 -m pytest perfbench/test_smoke.py

Checks that every workload reports every metric named in BENCHMARK.json with
its unit, in both modes, with all outputs correct; that tracing restores every
function it wrapped; and that the benchmark refuses to run, without printing
a result, where there is no specverify source tree.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_tiny(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace), "--tiny"])
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert code == 0, result
    return result


def test_every_declared_metric_is_reported_with_its_unit():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in DECLARED[key]}
        for workload in run.WORKLOADS:
            result = _run_tiny(workload, trace)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == declared, (workload, trace, set(got) ^ set(declared))
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), (workload, result)


def test_tracing_wraps_and_restores_every_hook():
    # a traced run also checks restoration after every traced iteration, as an operation
    run._import_specverify()
    tracer = tracing.Tracer()
    originals = tracer.originals()
    assert len(originals) == len(tracing.HOOKS)
    tracer.install()
    try:
        assert not tracer.missing
        assert not any(getattr(owner, attr) is fn for owner, attr, fn in originals)
    finally:
        tracer.uninstall()
    assert tracing.restored(originals)


def test_refuses_a_directory_without_the_program():
    bare = run.ROOT / ".perfbench_out" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, *DECLARED["command"][1:], "--workload", "live_sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
