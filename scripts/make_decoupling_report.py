#!/usr/bin/env python3
"""Record the shipped decoupling fixture trace (10k+ steps of the default
model at temperature 0.4) and report how widely p2/p1 spans inside the
relaxation zone r > 0.9. High logit ratios do not imply high probability
ratios; this prints the witness numbers and writes the analysis CSV set.
"""

import argparse
from pathlib import Path

from specverify.analysis import analyze_trace, write_report
from specverify.cli import main as cli
from specverify.logits import logit_ratios
from specverify.trace import read_trace

FIXTURE_SPEC = Path(__file__).resolve().parent / "decoupling_spec.json"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", type=Path, default=Path("results/decoupling"))
    ap.add_argument("--theta", type=float, default=0.9)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    trace_path = args.outdir / "decoupling.trace"
    code = cli(["record", "--spec", str(FIXTURE_SPEC), "--out", str(trace_path)])
    if code != 0:
        raise SystemExit(code)

    trace = read_trace(trace_path)
    report = analyze_trace(trace, args.theta)
    write_report(report, args.outdir)

    s = report.scatter
    zone = (s.p2 / s.p1)[logit_ratios(s.z1, s.z2) > args.theta]
    low, high = zone.min().item(), zone.max().item()
    print(f"records               : {report.record_count}")
    print(f"relaxation zone r>{args.theta:g} : {report.relaxation_fraction:.4f}")
    print(f"zone p2/p1 range      : [{low:.4g}, {high:.4g}]  span {high / low:.1f}x")
    print(f"analysis CSVs in      : {args.outdir}")


if __name__ == "__main__":
    main()
