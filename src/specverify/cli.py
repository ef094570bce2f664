"""Command-line surface: run, sweep, analyze, record, replay.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 I/O error.
When --out is given, CSV goes to the file and the human summary to stdout;
without --out the CSV itself is printed to stdout (summary moves to stderr),
so stdout stays machine-readable either way.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .analysis import analyze_trace, summarize, write_report
from .engine import CostModel, decode
from .experiment import (
    GRID_AXES,
    ExperimentSpec,
    build_point,
    replay_row,
    rows_to_csv,
    spec_from_dict,
    spec_from_file,
    summarize_rows,
    sweep_rows,
    write_rows,
)
from .trace import TraceRecorder, read_trace, replay_verify, write_trace
from .verify import DEFAULT_THETA, VerificationPolicy

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; argparse's default of 2 is reserved for validation
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", type=Path, help="experiment spec file (JSON; flags override it)")
    p.add_argument("--theta", type=_floats, help="relaxation threshold(s), comma-separated")
    p.add_argument("--k", type=_ints, help="draft length(s), comma-separated")
    p.add_argument("--temperature", type=_floats, help="temperature(s), comma-separated")
    p.add_argument("--max-tokens", type=int, help="tokens to commit per run")
    p.add_argument("--seed", type=int, help="root seed for per-row seed derivation")
    p.add_argument("--policy", choices=["strict", "margin"], help="verification policy")
    p.add_argument("--cost-ratio", type=float, help="cost of a draft step, in target passes (c_draft)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="specverify", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[], help="run a single experiment point")
    _add_experiment_flags(p_run)
    p_run.add_argument("--out", help="metrics CSV destination")
    p_run.set_defaults(func=_cmd_grid)

    p_sweep = sub.add_parser("sweep", help="run a theta/K/temperature grid")
    _add_experiment_flags(p_sweep)
    p_sweep.add_argument("--out", help="metrics CSV destination")
    p_sweep.set_defaults(func=_cmd_grid)

    p_rec = sub.add_parser("record", help="decode while writing a logit trace")
    _add_experiment_flags(p_rec)
    p_rec.add_argument("--out", default="decode.trace", help="trace destination")
    p_rec.set_defaults(func=_cmd_record)

    p_rep = sub.add_parser("replay", help="re-verify a recorded trace under a policy")
    p_rep.add_argument("trace", type=Path, help="trace file to replay")
    p_rep.add_argument("--policy", choices=["strict", "margin"])
    p_rep.add_argument("--theta", type=_floats, help="relaxation threshold(s), comma-separated")
    p_rep.add_argument("--k", type=int)
    p_rep.add_argument("--cost-ratio", type=float)
    p_rep.add_argument("--out", help="metrics CSV destination")
    p_rep.set_defaults(func=_cmd_replay)

    p_an = sub.add_parser("analyze", help="distributional statistics of a trace")
    p_an.add_argument("trace", type=Path, help="trace file to analyze")
    p_an.add_argument("--theta", type=float, default=DEFAULT_THETA)
    p_an.add_argument("--out", type=Path, default=Path("analysis"), help="CSV output directory")
    p_an.set_defaults(func=_cmd_analyze)

    return parser


def _load_spec(args: argparse.Namespace) -> ExperimentSpec:
    """The --spec file (or the defaults) with every given flag named after a field."""
    spec = spec_from_file(args.spec) if getattr(args, "spec", None) else None
    names = {f.name for f in dataclasses.fields(ExperimentSpec)}
    flags = {key: value for key, value in vars(args).items() if key in names and value is not None}
    return spec_from_dict(flags, spec)


def _require_single_point(spec: ExperimentSpec, command: str) -> None:
    for name in GRID_AXES:
        grid = getattr(spec, name)
        if len(grid) > 1:
            raise ValueError(
                f"field '{name}': {command} takes a single value, got {len(grid)} (use sweep)"
            )


def _cmd_grid(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    if args.command == "run":
        _require_single_point(spec, "run")
    rows = sweep_rows(spec)
    if spec.out is not None:
        write_rows(rows, spec.out)
        print(summarize_rows(rows))
        print(f"wrote {len(rows)} row(s) to {spec.out}")
    else:
        sys.stdout.write(rows_to_csv(rows))
        print(summarize_rows(rows), file=sys.stderr)
    return EXIT_OK


def _cmd_record(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    _require_single_point(spec, "record")
    theta, k = spec.theta[0], spec.k[0]
    target, draft, config, cost, prompt = build_point(spec, theta, k, spec.temperature[0], 0)
    recorder = TraceRecorder(spec.target.vocab_size, config.temperature)
    _, metrics = decode(target, draft, config, prompt, cost=cost, recorder=recorder)
    producer = (
        f"specverify synthetic target_seed={spec.target.seed} noise_seed={spec.draft.noise_seed} "
        f"noise_scale={spec.draft.noise_scale:g} policy={spec.policy} theta={theta:g} k={k}"
    )
    trace = recorder.to_trace(producer)
    write_trace(trace, args.out)
    print(f"recorded {len(trace.columns)} records over {metrics.cycles} cycles to {args.out}")
    print(f"tau={metrics.tau:.4f} committed={metrics.total_committed}")
    return EXIT_OK


def _cmd_replay(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    spec = _load_spec(args)
    k, cost = spec.k[0], CostModel(c_draft=spec.cost_ratio)
    rows = []
    for theta in spec.theta:
        metrics = replay_verify(trace, VerificationPolicy.from_name(spec.policy, theta), k, cost)
        rows.append(replay_row(spec, theta, k, metrics))
    taus = ",".join(f"{row['tau']:.4f}" for row in rows)  # in grid order
    summary = f"tau={taus} over {metrics.cycles} cycles"
    if spec.out is not None:
        write_rows(rows, spec.out)
        print(f"{summary}; wrote {spec.out}")
    else:
        sys.stdout.write(rows_to_csv(rows))
        print(summary, file=sys.stderr)
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    report = analyze_trace(trace, args.theta)
    paths = write_report(report, args.out)
    print(summarize(report))
    print("wrote " + ", ".join(str(p) for p in paths))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
