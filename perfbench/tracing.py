"""In-memory span tracer that wraps specverify's public functions from outside.

Each hook replaces one attribute where callers look it up (for example
`specverify.engine.verify_chain`, which is what `decode` calls) with a wrapper
that records a span: name, start, end, parent span and iteration id. A span's
self time is its duration minus the time covered by its direct children.
Observers attached to a hook read the call's arguments or result to count work
(context lengths, distinct windows, bytes written) at the boundary where the
work happens. `uninstall` puts every original back; `restored` checks it.

Importing this module imports nothing from specverify, so the benchmark can
time the package import itself.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns


# observers: fn(tracer, args, kwargs, result) -> None, run after the span ends


def _observe_target_score(tracer, args, kwargs, result):
    model, context = args[0], args[1]
    tracer.add("models.ctx_len_sum", len(context))
    tracer.window(model.config, tuple(context[-model.config.order :]))


def _observe_decode(tracer, args, kwargs, result):
    out, metrics = result
    tracer.add("engine.cycles", metrics.cycles)
    tracer.add("engine.tokens", len(out))


def _observe_verify_top_two_chain(tracer, args, kwargs, result):
    tracer.add("verify.drafted", len(args[0]))
    tracer.add("verify.positions_decided", len(result.decisions))
    tracer.add("verify.accepted", sum(1 for d in result.decisions if d.label != "rejected"))
    tracer.add("verify.relaxed", sum(1 for d in result.decisions if d.label == "relaxed"))


def _observe_hash_context(tracer, args, kwargs, result):
    tracer.add("trace.hash_context.bytes", 8 * len(args[0]))


def _observe_read_trace(tracer, args, kwargs, result):
    tracer.add("trace.read_trace.records", len(result.records))


def _observe_write_trace(tracer, args, kwargs, result):
    tracer.add("trace.write_trace.bytes", os.path.getsize(args[1]))


def _observe_write_report(tracer, args, kwargs, result):
    tracer.add("analysis.write_report.bytes", sum(os.path.getsize(p) for p in result))


# (owner, attribute, span name, observer). The owner is a module, or a
# module plus a class name after ':'. A function imported into several
# modules is hooked in each module whose code calls it.
HOOKS = [
    ("specverify.cli", "main", "cli.main", None),
    ("specverify.cli", "decode", "engine.decode", _observe_decode),
    ("specverify.experiment", "decode", "engine.decode", _observe_decode),
    ("specverify.experiment", "greedy_decode", "engine.greedy_decode", None),
    ("specverify.experiment", "run_point", "experiment.run_point", None),
    ("specverify.experiment", "rows_to_csv", "experiment.rows_to_csv", None),
    ("specverify.cli", "rows_to_csv", "experiment.rows_to_csv", None),
    ("specverify.models:SyntheticTargetModel", "score", "models.target_score", _observe_target_score),
    ("specverify.models:PerturbedDraftModel", "score", "models.draft_score", None),
    ("specverify.engine", "draft_chain", "models.draft_chain", None),
    ("specverify.verify", "top_two", "logits.top_two", None),
    ("specverify.models", "softmax", "logits.softmax", None),
    ("specverify.analysis", "softmax", "logits.softmax", None),
    ("specverify.engine", "verify_chain", "verify.verify_chain", None),
    ("specverify.verify", "verify_top_two_chain", "verify.verify_top_two_chain", _observe_verify_top_two_chain),
    ("specverify.trace", "verify_top_two_chain", "verify.verify_top_two_chain", _observe_verify_top_two_chain),
    ("specverify.trace:TraceRecorder", "__call__", "trace.recorder", None),
    ("specverify.trace", "hash_context", "trace.hash_context", _observe_hash_context),
    ("specverify.cli", "read_trace", "trace.read_trace", _observe_read_trace),
    ("specverify.trace", "read_trace", "trace.read_trace", _observe_read_trace),
    ("specverify.cli", "write_trace", "trace.write_trace", _observe_write_trace),
    ("specverify.trace", "write_trace", "trace.write_trace", _observe_write_trace),
    ("specverify.cli", "replay_verify", "trace.replay_verify", None),
    ("specverify.trace", "iter_cycles", "trace.iter_cycles", None),
    ("specverify.cli", "analyze_trace", "analysis.analyze_trace", None),
    ("specverify.cli", "write_report", "analysis.write_report", _observe_write_report),
]


# spans whose call count, and whose self time, are reported as per-layer metrics
CALL_METRICS = [
    "models.target_score", "models.draft_score", "logits.top_two", "logits.softmax",
    "verify.verify_chain", "verify.verify_top_two_chain", "engine.greedy_decode",
    "trace.recorder", "trace.hash_context", "trace.read_trace", "experiment.run_point",
]
SELF_METRICS = CALL_METRICS + [
    "models.draft_chain", "engine.decode", "trace.write_trace", "trace.replay_verify",
    "trace.iter_cycles", "experiment.rows_to_csv", "analysis.analyze_trace",
    "analysis.write_report", "cli.main",
]


def _owner(spec: str):
    """The module or class named by a hook's owner spec, or None if it is gone."""
    module_name, _, class_name = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
        return getattr(owner, class_name) if class_name else owner
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Span store plus per-iteration counters; install/uninstall swap the hooks."""

    def __init__(self) -> None:
        # span: [name, start_ns, end_ns, parent index or -1, iteration]
        self.spans: list[list] = []
        self.iteration = 0
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.windows: dict[int, set] = defaultdict(set)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object, bool]] = []

    def add(self, key: str, value: float) -> None:
        self.counters[self.iteration][key] += value

    def window(self, model_config, window: tuple) -> None:
        self.windows[self.iteration].add((model_config, window))

    def _wrap(self, name: str, fn, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, self.iteration]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer hooks are already installed")
        self.missing = []
        for owner_spec, attr, name, observe in HOOKS:
            owner = _owner(owner_spec)
            if owner is None or not hasattr(owner, attr):
                self.missing.append(f"{owner_spec}.{attr}")
                continue
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            self._saved.append((owner, attr, original, own))
            setattr(owner, attr, self._wrap(name, original, observe))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved = []

    def originals(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) for every hook point that exists now."""
        found = []
        for owner_spec, attr, _, _ in HOOKS:
            owner = _owner(owner_spec)
            if owner is not None and hasattr(owner, attr):
                found.append((owner, attr, getattr(owner, attr)))
        return found

    def self_ns(self) -> list[int]:
        """Self time of every span: its duration minus its direct children's."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def layer_metrics(self, iterations: list[int], scales: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics, each a mean over the given traced iterations; self
        times are multiplied by their iteration's scale to reference speed."""
        its = set(iterations)
        n = len(its)
        calls: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        direct_scores = 0
        for span, own in zip(self.spans, self.self_ns()):
            if span[4] in its:
                calls[span[0]] += 1 / n
                self_s[span[0]] += own / 1e9 * scales[span[4]] / n
                parent = span[3]
                if span[0] == "models.target_score" and parent >= 0 and self.spans[parent][0] == "engine.decode":
                    direct_scores += 1
        count: dict[str, float] = defaultdict(float)
        for it in its:
            for key, value in self.counters[it].items():
                count[key] += value / n
        distinct = sum(len(self.windows[it]) for it in its) / n
        scores = calls["models.target_score"]
        drafted = count["verify.drafted"]
        out = {f"{name}.calls": calls[name] for name in CALL_METRICS}
        out.update({f"{name}.self_s": self_s[name] for name in SELF_METRICS})
        out.update({
            "models.score_ctx_len_mean": count["models.ctx_len_sum"] / scores if scores else 0.0,
            "models.distinct_windows": distinct,
            "models.window_reuse_ratio": 1 - distinct / scores if scores else 0.0,
            "verify.positions_decided": count["verify.positions_decided"],
            "verify.accepted_share": count["verify.accepted"] / drafted if drafted else 0.0,
            "verify.relaxed_share": count["verify.relaxed"] / drafted if drafted else 0.0,
            "engine.cycles": count["engine.cycles"],
            "engine.target_scores_per_token": (
                direct_scores / n / count["engine.tokens"] if count["engine.tokens"] else 0.0
            ),
            "trace.hash_context.bytes": count["trace.hash_context.bytes"],
            "trace.read_trace.records": count["trace.read_trace.records"],
            "trace.write_trace.bytes": count["trace.write_trace.bytes"],
            "analysis.write_report.bytes": count["analysis.write_report.bytes"],
        })
        return out

    def write(self, path: Path) -> None:
        """Write the spans as gzip'd TSV: name, start_ns, end_ns, parent, iteration, self_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\titeration\tself_ns\n")
            for span, own in zip(self.spans, self.self_ns()):
                fh.write("\t".join(str(v) for v in span) + f"\t{own}\n")


def restored(originals: list[tuple[object, str, object]]) -> bool:
    """True when every hook point holds the object it held before tracing."""
    return all(getattr(owner, attr) is original for owner, attr, original in originals)
