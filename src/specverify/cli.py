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
from .engine import DEFAULT_COST_RATIO, CostModel, decode
from .experiment import (
    ExperimentSpec,
    build_point,
    rows_to_csv,
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
    p.add_argument("--cost-ratio", type=float, help="c_draft / c_target for simulated speedup")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="specverify", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[], help="run a single experiment point")
    _add_experiment_flags(p_run)
    p_run.add_argument("--out", type=Path, help="metrics CSV destination")
    p_run.set_defaults(func=_cmd_grid)

    p_sweep = sub.add_parser("sweep", help="run a theta/K/temperature grid")
    _add_experiment_flags(p_sweep)
    p_sweep.add_argument("--out", type=Path, help="metrics CSV destination")
    p_sweep.set_defaults(func=_cmd_grid)

    p_rec = sub.add_parser("record", help="decode while writing a logit trace")
    _add_experiment_flags(p_rec)
    p_rec.add_argument("--out", type=Path, default=Path("decode.trace"), help="trace destination")
    p_rec.set_defaults(func=_cmd_record)

    p_rep = sub.add_parser("replay", help="re-verify a recorded trace under a policy")
    p_rep.add_argument("trace", type=Path, help="trace file to replay")
    p_rep.add_argument("--policy", choices=["strict", "margin"], default="margin")
    p_rep.add_argument("--theta", type=float, default=DEFAULT_THETA)
    p_rep.add_argument("--k", type=int, default=7)
    p_rep.add_argument("--cost-ratio", type=float, default=DEFAULT_COST_RATIO)
    p_rep.add_argument("--out", type=Path, help="metrics CSV destination")
    p_rep.set_defaults(func=_cmd_replay)

    p_an = sub.add_parser("analyze", help="distributional statistics of a trace")
    p_an.add_argument("trace", type=Path, help="trace file to analyze")
    p_an.add_argument("--theta", type=float, default=DEFAULT_THETA)
    p_an.add_argument("--out", type=Path, default=Path("analysis"), help="CSV output directory")
    p_an.set_defaults(func=_cmd_analyze)

    return parser


def _load_spec(args: argparse.Namespace) -> ExperimentSpec:
    spec = spec_from_file(args.spec) if args.spec else ExperimentSpec()
    changes: dict = {}
    if args.theta is not None:
        changes["thetas"] = args.theta
    if args.k is not None:
        changes["ks"] = args.k
    if args.temperature is not None:
        changes["temperatures"] = args.temperature
    if args.max_tokens is not None:
        changes["max_tokens"] = args.max_tokens
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.policy is not None:
        changes["policy"] = args.policy
    if args.cost_ratio is not None:
        changes["cost_ratio"] = args.cost_ratio
    if getattr(args, "out", None) is not None and args.command in ("run", "sweep"):
        changes["out"] = str(args.out)
    return dataclasses.replace(spec, **changes) if changes else spec


def _require_single_point(spec: ExperimentSpec, command: str) -> None:
    for name, grid in (("theta", spec.thetas), ("k", spec.ks), ("temperature", spec.temperatures)):
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
    if spec.mode != "chain":
        raise ValueError("field 'mode': recording requires chain mode")
    theta, k = spec.thetas[0], spec.ks[0]
    target, draft, config, cost, prompt = build_point(spec, theta, k, spec.temperatures[0], 0)
    recorder = TraceRecorder(spec.target.vocab_size, config.temperature)
    _, metrics = decode(target, draft, config, prompt, cost=cost, recorder=recorder)
    producer = (
        f"specverify synthetic target_seed={spec.target.seed} noise_seed={spec.draft.noise_seed} "
        f"noise_scale={spec.draft.noise_scale:g} policy={spec.policy} theta={theta:g} k={k}"
    )
    write_trace(recorder.to_trace(producer), args.out)
    print(f"recorded {len(recorder.records)} records over {metrics.cycles} cycles to {args.out}")
    print(f"tau={metrics.tau:.4f} committed={metrics.total_committed}")
    return EXIT_OK


def _cmd_replay(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    policy = VerificationPolicy.from_name(args.policy, args.theta)
    metrics = replay_verify(trace, policy, args.k, CostModel(c_draft=args.cost_ratio))
    row = {
        "policy": args.policy,
        "theta": args.theta,
        "k": args.k,
        "cost_ratio": args.cost_ratio,
        **dataclasses.asdict(metrics),
    }
    if args.out is not None:
        write_rows([row], args.out)
        print(f"tau={metrics.tau:.4f} over {metrics.cycles} cycles; wrote {args.out}")
    else:
        sys.stdout.write(rows_to_csv([row]))
        print(f"tau={metrics.tau:.4f} over {metrics.cycles} cycles", file=sys.stderr)
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
