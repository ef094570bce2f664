#!/usr/bin/env python3
"""Run the benchmark over several seeds, one fresh process per run, and report
each metric's median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10 --seconds 25            # all workloads
    python3 perfbench/spread.py --workloads live_sweep --seeds 1-5 --trace 1
    python3 perfbench/spread.py --compare before.json after.json      # medians vs bounds

Spread is (q3 - q1) / median over the runs, with the quartiles of
statistics.quantiles(values, n=4). Runs are sequential. Raw results go to
--out (default .perfbench_out/spread-<time>.json), which --compare reads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("record_fixture", "live_sweep", "replay_grid")


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def _bounds() -> dict[str, dict]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in doc["end_to_end"] + doc["per_layer"]}


def run_all(workloads: list[str], seeds: list[int], seconds: float, trace: int) -> dict:
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for w in workloads:
        for seed in seeds:
            argv = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            took = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            if result is None or not result["correct"]:
                sys.stderr.write(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}\n")
            results[w].append({"seed": seed, "exit": proc.returncode, "run_s": took, "result": result})
            print(f"{w:15s} seed {seed:6d} exit {proc.returncode} in {took:6.1f} s", flush=True)
    return results


def summarize(results: dict) -> dict[str, dict[str, tuple[float, float]]]:
    """Per workload and metric: (median, spread), and print the table."""
    bounds = _bounds()
    table: dict[str, dict[str, tuple[float, float]]] = {}
    for w, runs in results.items():
        ok = [r["result"] for r in runs if r["result"] is not None]
        failed = sum(r["result"]["failed"] for r in runs if r["result"] is not None)
        print(f"\n{w}: {len(ok)}/{len(runs)} runs reported, {failed} failed operations, "
              f"max run {max(r['run_s'] for r in runs):.1f} s")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}  unit")
        table[w] = {}
        for name in ok[0]["metrics"] if ok else []:
            values = [r["metrics"][name]["value"] for r in ok]
            unit = ok[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name, {}).get("bound")
            flag = "  <-- over a third of its bound" if bound and name != "setup_s" and spread > bound / 3 else ""
            print(f"  {name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
                  f"{bound if bound is not None else '':>6}  {unit}{flag}")
            table[w][name] = (med, spread)
    return table


def compare(before: dict, after: dict) -> int:
    """Print each metric's median change in its 'worse' direction against its bound."""
    bounds = _bounds()
    old, new = summarize(before), summarize(after)
    worse_than_bound = 0
    print("\nmedian change, positive = worse:")
    for w in new:
        for name, (med, _) in new[w].items():
            if name not in old.get(w, {}) or name not in bounds or "bound" not in bounds[name]:
                continue
            base = old[w][name][0]
            change = (med - base) / abs(base) if base else 0.0
            if bounds[name]["better"] == "higher":
                change = -change
            over = change > bounds[name]["bound"]
            worse_than_bound += over
            print(f"  {w:15s} {name:28s} {change:+8.3f}  bound {bounds[name]['bound']}"
                  f"{'  <-- worse than its bound' if over else ''}")
    return 1 if worse_than_bound else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.compare:
        before, after = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        return compare(before, after)
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    results = run_all(args.workloads.split(","), args.seeds, seconds, args.trace)
    out = args.out or ROOT / ".perfbench_out" / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    summarize(results)
    print(f"\nraw results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
