#!/usr/bin/env python3
"""Benchmark for specverify: three closed-loop CLI workloads, timed end to end,
with a separate traced mode that splits the time by module.

Run from the root of a specverify checkout:

    python3 perfbench/run.py --workload record_fixture --seed 9 --seconds 25 --trace 0

One process runs one workload: no threads, no subprocesses. Every operation
calls `specverify.cli.main(argv)` in-process (the trace round trip calls
`read_trace`/`write_trace`), one at a time, each issued after the previous
one returns. Inputs come from `--seed`; the same seed gives the same bytes.

Workloads (an iteration is the list of operations repeated until `--seconds`
have passed):

  record_fixture  `record` of scripts/decoupling_spec.json (10.5k tokens, K=7,
                  greedy drafting) with the spec seed set to --seed, plus three
                  1.05k-token records of the same spec. Long contexts and a
                  periodic greedy orbit (few distinct windows): context
                  validation, `hash_context`, trace writing.
  live_sweep      `sweep` of scripts/ablation_spec.json over K=6,9,12,15 at
                  theta 0.9 (sampled drafting, 2000 tokens a row), plus three
                  200-token sweeps. Short contexts, many windows, no trace
                  layer; the only workload that runs `greedy_decode`.
  replay_grid     set-up records a sampled-draft trace of the ablation spec and
                  keeps its first 10,000 records (and a 1,000-record one); an
                  iteration runs 7 `replay` calls (theta 0.84..0.96, K=7), one
                  `analyze`, one read_trace->write_trace round trip and five
                  replays of the small trace. No model is called.

Each workload's small operations are its scaling probe: the same work at a
tenth of the size, so `us_per_record_10x_over_1x` reads 1.0 when the cost
per trace record (a scored position: K+1 per cycle) does not grow with size.

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` untraced and traced iterations alternate and it reports the
per-layer metrics (see tracing.py) plus the tracing overhead. Every timing
is scaled to a reference machine speed measured alongside it (see Clock),
then taken as a median over iterations; `setup_s` is the median of several
set-ups, each a fresh import of specverify plus input generation. Outputs are checked on every operation: a
non-zero exit, or output bytes that differ across iterations, between traced
and untraced iterations, or (at a workload's default seed) from
perfbench/golden.json, fail it.
Full results, with a stamp of versions, commit, seed and iteration counts,
are written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import struct
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402

WORKLOADS = ("record_fixture", "live_sweep", "replay_grid")
DEFAULT_SEEDS = {"record_fixture": 9, "live_sweep": 2024, "replay_grid": 2024}
# replay_grid's set-up records two traces (seconds); the others only import
SETUP_REPEATS = {"record_fixture": 5, "live_sweep": 5, "replay_grid": 3}
PROBE_REPEATS = 3
REPLAY_THETAS = ("0.84", "0.86", "0.88", "0.9", "0.92", "0.94", "0.96")
PROBE_THETAS = ("0.84", "0.88", "0.9", "0.92", "0.96")
REPLAY_K = 7

# max_tokens of the full-size and tenth-size operations (None keeps the spec's);
# for replay_grid, (max_tokens, records kept) of each trace: cutting every
# seed's trace to the same record count keeps the work per iteration fixed
SIZES = {
    False: {"fixture": (None, 1050), "sweep": (None, 200), "grid": ((7000, 10_000), (700, 1_000))},
    True: {"fixture": (1050, 105), "sweep": (200, 20), "grid": ((700, 1_000), (90, 100))},
}

END_TO_END = {
    "setup_s": "s",
    "tokens_per_s": "tokens/s",
    "records_per_s": "records/s",
    "command_s_p50": "s",
    "command_s_max": "s",
    "cpu_s_per_iter": "s",
    "us_per_record_10x_over_1x": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{name}.calls": "count" for name in tracing.CALL_METRICS},
    **{f"{name}.self_s": "s" for name in tracing.SELF_METRICS},
    "models.score_ctx_len_mean": "tokens",
    "models.distinct_windows": "count",
    "models.window_reuse_ratio": "ratio",
    "verify.positions_decided": "count",
    "verify.accepted_share": "ratio",
    "verify.relaxed_share": "ratio",
    "engine.cycles": "count",
    "engine.target_scores_per_token": "1/token",
    "trace.hash_context.bytes": "B",
    "trace.read_trace.records": "count",
    "trace.write_trace.bytes": "B",
    "analysis.write_report.bytes": "B",
    "bench.trace_overhead_s": "s",
    "bench.self_time_share": "ratio",
}

# Other work on a shared machine slows this process by up to half for seconds
# at a time, and CPU time grows with wall time, so the core itself runs slower.
# A fixed pure-Python kernel tracks that speed: it runs just before and just
# after every operation and, from a timer signal, every SAMPLE_EVERY_S seconds
# inside it. Each timing, less the kernel's own time, is multiplied by
# REFERENCE_S over the kernel's mean time, which reports it in seconds of a
# machine on which the kernel takes REFERENCE_S (2-core x86_64, Python 3.11.7,
# otherwise idle). Raw timings and the kernel's times are kept in the results.
REFERENCE_S = 0.0025
SAMPLE_EVERY_S = 0.2


def reference_kernel_s(runs: int = 3) -> float:
    """Fastest of `runs` runs of a fixed stdlib-only kernel (about 2.5 ms each)."""
    best = math.inf
    for _ in range(runs):
        t0 = time.perf_counter()
        acc = 0
        for i in range(2500):
            h = hashlib.blake2b(struct.pack("<qq", i, acc & 0xFFFF), digest_size=8)
            acc ^= int.from_bytes(h.digest(), "little")
            acc += sum(divmod(i * 2654435761, 97)) + len(str(i))
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Times calls and scales them to reference machine speed."""

    def __init__(self) -> None:
        self.kernel_s = [reference_kernel_s()]
        self._inside: list[float] = []
        self._spent = [0.0, 0.0]  # wall and CPU seconds the in-call kernel took

    def _sample(self, signum, frame) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        self._inside.append(reference_kernel_s(runs=1))
        self._spent[0] += time.perf_counter() - t0
        self._spent[1] += time.process_time() - c0

    def time(self, fn: Callable[[], object], sample: bool = True) -> tuple[object, float, float, float]:
        """(result, wall seconds, CPU seconds, scale to reference speed). With
        sample=False the kernel runs only around the call, not inside it."""
        before, self._inside, self._spent = self.kernel_s[-1], [], [0.0, 0.0]
        if sample:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = fn()
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            after = reference_kernel_s()
        self.kernel_s += [*self._inside, after]
        scale = REFERENCE_S / statistics.fmean([before, after, *self._inside])
        return result, wall - self._spent[0], cpu - self._spent[1], scale


_RECORD_SUMMARY = re.compile(r"recorded (\d+) records over (\d+) cycles.*\ntau=([0-9.]+) committed=(\d+)", re.S)
_COUNT_COLUMNS = ("cycles", "total_committed", "tau", "exact_count", "relaxed_count",
                  "rejected_count", "bonus_count")


@dataclass
class Op:
    """One operation: a CLI argv, or a library call, and the files it writes."""

    name: str
    argv: list[str] | None
    output: Path
    call: Callable[[], object] | None = None
    source: str | None = None  # the trace file a replay/analyze/round trip consumes
    expect_digest: str | None = None  # a round trip must reproduce its input
    probe: str | None = None  # "full" or "small": its side of the scaling probe


@dataclass
class Done:
    op: Op
    wall_s: float  # as measured
    cpu_s: float
    scale: float  # to reference machine speed (see Clock)
    rc: int | None
    stdout: str
    digest: str | None = None
    tokens: int = 0
    records: int = 0

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.scale


@dataclass
class Ledger:
    """Counts operations and failures; remembers each op name's first digest."""

    golden: dict[str, str]
    seen: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def judge(self, done: Done, problem: str = "") -> None:
        self.attempted += 1
        name = done.op.name
        if not problem:
            if done.rc != 0:
                problem = f"exit code {done.rc}"
            elif done.op.expect_digest not in (None, done.digest):
                problem = "output bytes differ from its input"
            elif self.seen.get(name, done.digest) != done.digest:
                problem = "output bytes differ from an earlier run of the same operation"
            elif self.golden.get(name, done.digest) != done.digest:
                problem = "output bytes differ from the golden digest"
        if done.digest is not None:
            self.seen.setdefault(name, done.digest)
        if problem:
            self.failures.append(f"{name}: {problem}")

    def check(self, name: str, ok: bool, detail: str) -> None:
        """A correctness check on outputs already written counts as one operation."""
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def _digest(path: Path) -> str:
    """SHA-256 of a file's bytes; of a directory, over its files' names and digests."""
    if not path.is_dir():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0" + bytes.fromhex(_digest(f)))
    return h.hexdigest()


def _csv_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _record_facts(stdout: str) -> dict[str, object]:
    m = _RECORD_SUMMARY.search(stdout)
    if m is None:
        raise ValueError("record printed no 'recorded ... tau=... committed=...' summary")
    return {"records": int(m[1]), "cycles": int(m[2]), "tau": m[3], "committed": int(m[4])}


def _keep_records(source: Path, dest: Path, keep: int) -> int:
    """Copy the header and first `keep` records of a trace; return the source's line count."""
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    dest.write_text("".join(lines[: keep + 1]), encoding="utf-8")
    return len(lines)


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    """One workload at one seed: set-up, the timed loop, checks and metrics."""

    def __init__(self, args: argparse.Namespace, clock: Clock) -> None:
        self.args = args
        self.sv = None  # the specverify package, imported from the checkout by set_up
        self.clock = clock
        self.import_s: list[float] = []
        self.seed = args.seed
        self.sizes = SIZES[args.tiny]
        self.work = ROOT / ".perfbench_out" / f"work-{args.workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        golden = {} if args.tiny else _load_json(BENCH_DIR / "golden.json").get(args.workload, {})
        self.golden_checked = golden.get("seed") == self.seed
        self.ledger = Ledger(golden.get("digests", {}) if self.golden_checked else {})
        self.trace_records: dict[str, int] = {}
        self.setup_stdout: dict[str, str] = {}
        self.trace_digests: dict[str, str] = {}

    # -- operations -----------------------------------------------------------

    def run(self, op: Op, sample: bool = True) -> Done:
        buf = io.StringIO()

        def call() -> int | None:
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                    if op.call is None:
                        return self.sv.cli.main(op.argv)
                    op.call()
                    return 0
            except Exception:  # an escaped exception fails this operation, not the run
                buf.write(traceback.format_exc())
                return None

        rc, wall, cpu, scale = self.clock.time(call, sample)
        done = Done(op, wall, cpu, scale, rc, buf.getvalue())
        problem = ""
        if rc == 0:
            try:
                done.digest = _digest(op.output)
                done.tokens, done.records = self.measure(done)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problem = f"unreadable output ({exc})"
        else:
            sys.stderr.write(f"perfbench: {op.name} exited with {rc}:\n{done.stdout}\n")
        self.ledger.judge(done, problem)
        return done

    def measure(self, done: Done) -> tuple[int, int]:
        """(committed tokens, trace records) that an operation produced or consumed."""
        command = done.op.argv[0] if done.op.argv else None
        if command == "record":
            facts = _record_facts(done.stdout)
            return facts["committed"], facts["records"]
        if command in ("run", "sweep"):
            rows = _csv_rows(done.op.output)
            return (sum(int(r["total_committed"]) for r in rows),
                    sum(int(r["cycles"]) * (int(r["k"]) + 1) for r in rows))
        records = self.trace_records[done.op.source]
        if command == "replay":
            return int(_csv_rows(done.op.output)[0]["total_committed"]), records
        return 0, records  # analyze and the round trip commit no tokens

    def spec(self, name: str) -> str:
        return str(ROOT / "scripts" / name)

    def record_op(self, name: str, spec: str, max_tokens: int | None, out: str) -> Op:
        path = self.work / out
        argv = ["record", "--spec", self.spec(spec), "--seed", str(self.seed), "--out", str(path)]
        if max_tokens is not None:
            argv += ["--max-tokens", str(max_tokens)]
        return Op(name, argv, path)

    def sweep_op(self, name: str, max_tokens: int | None) -> Op:
        path = self.work / f"{name}.csv"
        argv = ["sweep", "--spec", self.spec("ablation_spec.json"), "--k", "6,9,12,15",
                "--theta", "0.9", "--seed", str(self.seed), "--out", str(path)]
        if max_tokens is not None:
            argv += ["--max-tokens", str(max_tokens)]
        return Op(name, argv, path)

    def replay_op(self, name: str, trace: str, theta: str) -> Op:
        src, path = str(self.work / trace), self.work / f"{name}.csv"
        argv = ["replay", src, "--theta", theta, "--k", str(REPLAY_K), "--out", str(path)]
        return Op(name, argv, path, source=src)

    # -- workloads ------------------------------------------------------------

    def set_up(self) -> float:
        """A fresh import of specverify, then input generation: spec loading, or
        recording replay_grid's two traces. Returns its time at reference speed.

        Only the first set-up of a process also imports numpy and the standard
        modules specverify needs, so the median over SETUP_REPEATS leaves that
        one-time cost out (it is in the stamp as the first of `import_s`)."""
        self.sv, wall, _, scale = self.clock.time(_import_specverify)
        self.import_s.append(wall * scale)
        total = self.import_s[-1]
        workload = self.args.workload
        if workload != "replay_grid":
            spec = "decoupling_spec.json" if workload == "record_fixture" else "ablation_spec.json"
            _, wall, _, scale = self.clock.time(lambda: self.sv.experiment.spec_from_file(self.spec(spec)))
            return total + wall * scale
        for name, (tokens, keep) in zip(("grid_full", "grid_small"), self.sizes["grid"]):
            recorded, kept = self.work / f"{name}.recorded.trace", self.work / f"{name}.trace"
            done = self.run(self.record_op(f"setup_{name}", "ablation_spec.json", tokens, recorded.name))
            total += done.ref_wall_s
            if done.rc != 0:
                continue
            lines, wall, _, scale = self.clock.time(lambda: _keep_records(recorded, kept, keep))
            total += wall * scale
            self.ledger.check(f"setup_{name}_size", lines > keep,
                              f"recorded {lines - 1} records, fewer than the {keep} kept")
            self.trace_records[str(recorded)] = done.records
            self.trace_records[str(kept)] = min(lines - 1, keep)
            self.trace_digests[name] = _digest(kept)
            self.setup_stdout[name] = done.stdout
        return total

    def warm_up_op(self) -> Op:
        """The workload's cheapest operation, run once untimed so lazy set-up is done."""
        return next(op for op in self.iteration_ops() if op.probe == "small")

    def iteration_ops(self) -> list[Op]:
        workload = self.args.workload
        if workload == "record_fixture":
            full, small = self.sizes["fixture"]
            ops = [self.record_op("record_full", "decoupling_spec.json", full, "fixture_full.trace")]
            ops += [self.record_op("record_small", "decoupling_spec.json", small, "fixture_small.trace")
                    for _ in range(PROBE_REPEATS)]
            for op in ops:
                op.probe = "small" if op.name == "record_small" else "full"
            return ops
        if workload == "live_sweep":
            full, small = self.sizes["sweep"]
            ops = [self.sweep_op("sweep_full", full)]
            ops += [self.sweep_op("sweep_small", small) for _ in range(PROBE_REPEATS)]
            for op in ops:
                op.probe = "small" if op.name == "sweep_small" else "full"
            return ops
        ops = [self.replay_op(f"replay_{t}", "grid_full.trace", t) for t in REPLAY_THETAS]
        for op in ops:
            op.probe = "full"
        src, analysis, copy = str(self.work / "grid_full.trace"), self.work / "analysis", self.work / "roundtrip.trace"
        ops.append(Op("analyze", ["analyze", src, "--theta", "0.9", "--out", str(analysis)], analysis, source=src))
        trace = self.sv.trace  # looked up per call, so a traced run sees the hooks
        ops.append(Op("roundtrip", None, copy, call=lambda: trace.write_trace(trace.read_trace(src), copy),
                      source=src, expect_digest=self.trace_digests.get("grid_full")))
        for t in PROBE_THETAS:
            ops.append(self.replay_op(f"replay_small_{t}", "grid_small.trace", t))
            ops[-1].probe = "small"
        return ops

    def check_outputs(self, last: dict[str, Done]) -> None:
        """Workload-specific correctness checks on the last iteration's outputs."""
        ledger = self.ledger
        workload = self.args.workload
        if workload == "record_fixture":
            # live/replay identity: replaying the recorded trace at the recorded
            # policy reproduces the live decode. The 10.5k trace is checked on
            # tau, committed tokens and cycles (record's summary); the 1.05k one
            # on every decision count, against a live `run` of the same point.
            full, small = self.sizes["fixture"]
            for label, size in (("full", full), ("small", small)):
                facts = _record_facts(last[f"record_{label}"].stdout)
                ledger.check(f"fixture_{label}_shape", facts["records"] == facts["cycles"] * (REPLAY_K + 1),
                             f"{facts['records']} records over {facts['cycles']} cycles is not K+1 per cycle")
                trace = f"fixture_{label}.trace"
                self.trace_records[str(self.work / trace)] = facts["records"]
                replay = self.run(self.replay_op(f"check_replay_{label}", trace, "0.9"))
                if replay.rc != 0:
                    continue
                row = _csv_rows(replay.op.output)[0]
                live = (facts["tau"], facts["committed"], facts["cycles"])
                again = (f"{float(row['tau']):.4f}", int(row["total_committed"]), int(row["cycles"]))
                ledger.check(f"fixture_{label}_live_replay", live == again,
                             f"record gave (tau, committed, cycles) {live}, replay {again}")
                if label == "small":
                    path = self.work / "run_small.csv"
                    argv = ["run", "--spec", self.spec("decoupling_spec.json"), "--seed", str(self.seed),
                            "--max-tokens", str(size), "--out", str(path)]
                    run = self.run(Op("check_run_small", argv, path))
                    if run.rc == 0:
                        live_row = _csv_rows(path)[0]
                        diff = [c for c in _COUNT_COLUMNS if live_row[c] != row[c]]
                        ledger.check("fixture_small_decision_counts", not diff,
                                     f"live run and replay differ in {diff}")
        elif workload == "live_sweep":
            full_tokens = self.sizes["sweep"][0] or self.sv.experiment.spec_from_file(
                self.spec("ablation_spec.json")).max_tokens
            rows = _csv_rows(last["sweep_full"].op.output)
            ks = [int(r["k"]) for r in rows]
            ledger.check("sweep_grid", ks == [6, 9, 12, 15], f"rows have k {ks}")
            for r in rows:
                k, tau = int(r["k"]), float(r["tau"])
                committed, cycles = int(r["total_committed"]), int(r["cycles"])
                ledger.check(f"sweep_k{k}_row", 1 <= tau <= k + 1 and committed >= full_tokens
                             and tau == committed / cycles,
                             f"tau {tau}, committed {committed}, cycles {cycles}")
        else:
            taus = [float(_csv_rows(last[f"replay_{t}"].op.output)[0]["tau"]) for t in REPLAY_THETAS]
            ledger.check("replay_theta_monotone", taus == sorted(taus, reverse=True),
                         f"tau does not fall as theta rises: {taus}")
            facts = _record_facts(self.setup_stdout["grid_full"])
            replay = self.run(self.replay_op("check_replay_recorded", "grid_full.recorded.trace", "0.9"))
            if replay.rc == 0:
                row = _csv_rows(replay.op.output)[0]
                live = (facts["tau"], facts["committed"], facts["cycles"])
                again = (f"{float(row['tau']):.4f}", int(row["total_committed"]), int(row["cycles"]))
                ledger.check("grid_live_replay", live == again,
                             f"record gave (tau, committed, cycles) {live}, replay {again}")

    # -- the timed loop -------------------------------------------------------

    def loop(self, tracer: tracing.Tracer | None) -> list[tuple[bool, list[Done]]]:
        """Run iterations until --seconds have passed. With a tracer, untraced and
        traced iterations alternate (at least one of each); hooks are installed
        only for the traced ones and must be restored after each."""
        originals = tracer.originals() if tracer else []
        iterations: list[tuple[bool, list[Done]]] = []
        start = time.perf_counter()
        while len(iterations) < (2 if tracer else 1) or time.perf_counter() - start < self.args.seconds:
            traced = tracer is not None and len(iterations) % 2 == 1
            ops = self.iteration_ops()
            if traced:
                tracer.iteration = len(iterations)
                tracer.install()
            try:
                # no kernel samples inside traced operations: they would land in spans
                iterations.append((traced, [self.run(op, sample=not traced) for op in ops]))
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                self.ledger.check("hooks_restored", tracing.restored(originals),
                                  "a traced function was not restored after tracing")
        return iterations

    def end_to_end(self, iterations: list[list[Done]], setup_s: list[float]) -> dict:
        """End-to-end metrics, every timing at reference speed (see Clock).

        Each operation's time is its median over iterations; an iteration's
        time is the sum of those, so throughput is an iteration's tokens or
        records over it.
        """
        samples = list(zip(*iterations))  # per operation of the iteration, its samples
        med_wall = [_median([d.ref_wall_s for d in ds]) for ds in samples]
        first = iterations[0]
        tokens, records = sum(d.tokens for d in first), sum(d.records for d in first)
        per_record = {side: _median([d.ref_wall_s * 1e6 / d.records for ds in samples for d in ds
                                     if d.op.probe == side and d.records])
                      for side in ("full", "small")}
        return {
            "setup_s": _median(setup_s),
            "tokens_per_s": tokens / sum(med_wall),
            "records_per_s": records / sum(med_wall),
            "command_s_p50": _median([d.ref_wall_s for it in iterations for d in it if d.op.argv]),
            # the slowest command of an iteration, by its median
            "command_s_max": max(w for w, d in zip(med_wall, first) if d.op.argv),
            "cpu_s_per_iter": _median([sum(d.ref_cpu_s for d in it) for it in iterations]),
            "us_per_record_10x_over_1x": per_record["full"] / per_record["small"] if per_record["small"] else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self, tracer: tracing.Tracer, iterations: list[tuple[bool, list[Done]]]) -> dict:
        traced = [i for i, (t, _) in enumerate(iterations) if t]
        walls = {i: sum(d.wall_s for d in it) for i, (_, it) in enumerate(iterations)}
        self_total = dict.fromkeys(traced, 0)
        for span, own in zip(tracer.spans, tracer.self_ns()):
            self_total[span[4]] += own
        shares = [self_total[i] / 1e9 / walls[i] for i in traced]
        # self times partition the root spans, which lie inside the timed operations
        self.ledger.check("self_time_within_wall", all(s <= 1 + 1e-9 for s in shares),
                          f"span self times exceed the iteration's wall time: shares {shares}")
        scales = {i: _median([d.scale for d in it]) for i, (_, it) in enumerate(iterations)}
        metrics = tracer.layer_metrics(traced, scales)
        ref_walls = {i: sum(d.ref_wall_s for d in it) for i, (_, it) in enumerate(iterations)}
        metrics["bench.trace_overhead_s"] = (
            _median([ref_walls[i] for i in traced]) - _median([w for i, w in ref_walls.items() if i not in traced])
        )
        metrics["bench.self_time_share"] = _median(shares)
        return metrics

    def main(self) -> int:
        args = self.args
        setup_s = [self.set_up() for _ in range(SETUP_REPEATS[args.workload])]
        self.run(self.warm_up_op())
        tracer = tracing.Tracer() if args.trace else None
        iterations = self.loop(tracer)
        last = {d.op.name: d for _, it in iterations for d in it}
        try:
            self.check_outputs(last)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.ledger.check("output_checks", False, f"outputs could not be checked ({exc})")
        untraced = [it for t, it in iterations if not t]
        e2e = self.end_to_end(untraced, setup_s)
        layers = self.per_layer(tracer, iterations) if tracer else {}
        reported = layers if tracer else e2e
        units = PER_LAYER if tracer else END_TO_END
        ledger = self.ledger
        correct = not ledger.failures
        stamp = {
            "workload": args.workload,
            "seed": self.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "tiny": args.tiny,
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "specverify": self.sv.__version__,
            "commit": _git_commit(ROOT),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "iterations": len(untraced),
            "traced_iterations": len(iterations) - len(untraced),
            "command_samples": sum(1 for it in untraced for d in it if d.op.argv),
            "setup_repeats": SETUP_REPEATS[args.workload],
            "probe_repeats": PROBE_REPEATS,
            "golden_checked": self.golden_checked,
            "import_s": self.import_s,
            "reference_s": REFERENCE_S,
            "kernel_ms_median": 1e3 * statistics.median(self.clock.kernel_s),
            "kernel_ms_min": 1e3 * min(self.clock.kernel_s),
            "kernel_ms_max": 1e3 * max(self.clock.kernel_s),
            "failed_ops_ratio": len(ledger.failures) / ledger.attempted,
            "hooks_missing": tracer.missing if tracer else [],
            "baseline": _load_json(BENCH_DIR / "baseline.json").get(args.workload),
        }
        out_dir = ROOT / ".perfbench_out" / "results"
        out_dir.mkdir(parents=True, exist_ok=True)
        tag = f"{args.workload}-seed{self.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
        if tracer:
            tracer.write(out_dir / f"{tag}-spans.tsv.gz")
        ops = {}
        for _, it in iterations:
            for d in it:
                entry = ops.setdefault(d.op.name, {"digest": d.digest, "tokens": d.tokens, "records": d.records,
                                                    "wall_s": [], "cpu_s": [], "scale": []})
                entry["wall_s"].append(d.wall_s)
                entry["cpu_s"].append(d.cpu_s)
                entry["scale"].append(d.scale)
        for name, digest in ledger.seen.items():
            ops.setdefault(name, {"digest": digest})
        (out_dir / f"{tag}.json").write_text(json.dumps({
            "stamp": stamp, "end_to_end": e2e, "per_layer": layers, "failures": ledger.failures,
            "attempted": ledger.attempted, "ops": ops,
        }, indent=1) + "\n", encoding="utf-8")

        for name, value in reported.items():
            print(f"{name:34s} {value:14.6g} {units[name]}")
        for failure in ledger.failures:
            print(f"perfbench: FAILED {failure}", file=sys.stderr)
        print("stamp " + json.dumps(stamp, sort_keys=True))
        print(json.dumps({
            "correct": correct,
            "attempted": ledger.attempted,
            "failed": len(ledger.failures),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
        }))
        return 0 if correct else 1


REQUIRED = ("src/specverify/__init__.py", "src/specverify/cli.py",
            "scripts/decoupling_spec.json", "scripts/ablation_spec.json")


def _import_specverify():
    """Import specverify afresh from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "specverify" or m.startswith("specverify.")]:
        del sys.modules[name]
    sv = importlib.import_module("specverify")
    for module in ("cli", "experiment", "trace"):
        importlib.import_module(f"specverify.{module}")
    if not Path(sv.__file__).resolve().is_relative_to(src):
        raise ImportError(f"specverify was imported from {sv.__file__}, not from {src}")
    return sv


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own, which has golden digests)")
    parser.add_argument("--seconds", type=float, default=25.0, help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate traced and untraced iterations and report per-layer metrics")
    parser.add_argument("--tiny", action="store_true", help="tenth-size inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a specverify checkout, missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2
    bench = Bench(args, Clock())
    try:
        return bench.main()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
