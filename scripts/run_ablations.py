#!/usr/bin/env python3
"""Reproduce the ablation structure: a theta-grid replay over one recorded
trace, plus live K and temperature sweeps. Writes CSVs into --outdir.

The theta sweep replays a single recorded trace, so the per-cycle inputs are
identical across thresholds and the acceptance/speedup orderings are exact.
The K and temperature sweeps decode live with sampled drafting (see
ablation_spec.json).
"""

import argparse
import sys
from pathlib import Path

from specverify.cli import main as cli

SPEC = Path(__file__).resolve().parent / "ablation_spec.json"
THETAS = "0.84,0.86,0.88,0.9,0.92,0.94,0.96"
KS = "6,9,12,15"
TEMPERATURES = "0.2,0.4,0.6,0.8,1.0"


def run(argv) -> None:
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", type=Path, default=Path("results"))
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--max-tokens", type=int, default=2000)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    base = ["--spec", str(SPEC), "--seed", str(args.seed), "--max-tokens", str(args.max_tokens)]

    trace = args.outdir / "ablation.trace"
    run(["record", *base, "--out", str(trace)])

    merged = args.outdir / "theta_sweep.csv"
    run(["replay", str(trace), "--policy", "margin", "--theta", THETAS,
         "--k", "7", "--out", str(merged)])

    run(["sweep", *base, "--k", KS, "--theta", "0.9",
         "--out", str(args.outdir / "k_sweep.csv")])
    run(["sweep", *base, "--temperature", TEMPERATURES, "--theta", "0.9",
         "--out", str(args.outdir / "temperature_sweep.csv")])

    print(f"wrote {merged}, {args.outdir / 'k_sweep.csv'}, {args.outdir / 'temperature_sweep.csv'}")


if __name__ == "__main__":
    main()
