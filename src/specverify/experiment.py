"""Experiment specs, grid execution, and CSV emission.

A spec is a declarative JSON document (grammar in the README) holding model
configs, the theta/K/temperature grid, the cost model, and repetitions. Rows
are emitted in lexicographic grid order (theta, then k, then temperature,
then repetition) and every row's seed is derived from the root seed and the
grid point alone, so execution order cannot change results.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import struct
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .engine import (
    DEFAULT_COST_RATIO,
    CostModel,
    DecodeConfig,
    DecodeMetrics,
    agreement_rate,
    decode,
    greedy_decode,
)
from .models import (
    PerturbedDraftConfig,
    PerturbedDraftModel,
    SyntheticTargetConfig,
    SyntheticTargetModel,
)
from .verify import DEFAULT_THETA, VerificationPolicy

CSV_COLUMNS = [
    "policy",
    "theta",
    "k",
    "temperature",
    "max_tokens",
    "draft_mode",
    "mode",
    "repetition",
    "row_seed",
    "target_seed",
    "vocab_size",
    "order",
    "logit_offset",
    "logit_spread",
    "noise_seed",
    "noise_scale",
    "cost_ratio",
    *(f.name for f in fields(DecodeMetrics)),
]


@dataclass(frozen=True)
class ExperimentSpec:
    target: SyntheticTargetConfig = field(
        default_factory=lambda: SyntheticTargetConfig(seed=42)
    )
    draft: PerturbedDraftConfig = field(
        default_factory=lambda: PerturbedDraftConfig(noise_seed=7)
    )
    policy: str = "margin"
    thetas: tuple[float, ...] = (DEFAULT_THETA,)
    ks: tuple[int, ...] = (7,)
    temperatures: tuple[float, ...] = (1.0,)
    draft_mode: str = "greedy"
    mode: str = "chain"
    tree_top_k: int = 2
    max_tokens: int = 256
    stop_token: int | None = None
    cost_ratio: float = DEFAULT_COST_RATIO
    repetitions: int = 1
    seed: int = 1234
    out: str | None = None

    def __post_init__(self) -> None:
        if self.policy not in ("strict", "margin"):
            raise ValueError(f"field 'policy': unknown value {self.policy!r}")
        for name, grid in (("theta", self.thetas), ("k", self.ks), ("temperature", self.temperatures)):
            if len(grid) == 0:
                raise ValueError(f"field '{name}': grid must be non-empty")
        for t in self.thetas:
            if not 0.0 < t <= 1.0:
                raise ValueError(f"field 'theta': {t} not in (0, 1]")
        for k in self.ks:
            if k < 1:
                raise ValueError(f"field 'k': {k} must be >= 1")
        for t in self.temperatures:
            if t <= 0:
                raise ValueError(f"field 'temperature': {t} must be > 0")
        if self.repetitions < 1:
            raise ValueError("field 'repetitions': must be >= 1")
        if self.max_tokens < 1:
            raise ValueError("field 'max_tokens': must be >= 1")
        if self.cost_ratio < 0:
            raise ValueError("field 'cost_ratio': must be >= 0")
        if self.tree_top_k < 1:
            raise ValueError("field 'tree_top_k': must be >= 1")


def _as_tuple(value, cast) -> tuple:
    if isinstance(value, (list, tuple)):
        return tuple(cast(v) for v in value)
    return (cast(value),)


_SPEC_KEYS = {
    "target",
    "draft",
    "policy",
    "theta",
    "k",
    "temperature",
    "draft_mode",
    "mode",
    "tree_top_k",
    "max_tokens",
    "stop_token",
    "cost_ratio",
    "repetitions",
    "seed",
    "out",
}
_TARGET_KEYS = {"seed", "vocab_size", "order", "logit_offset", "logit_spread"}
_DRAFT_KEYS = {"noise_seed", "noise_scale"}


def spec_from_dict(doc: dict) -> ExperimentSpec:
    unknown = set(doc) - _SPEC_KEYS
    if unknown:
        raise ValueError(f"field '{sorted(unknown)[0]}': not a recognized spec field")
    target_doc = dict(doc.get("target", {}))
    bad = set(target_doc) - _TARGET_KEYS
    if bad:
        raise ValueError(f"field 'target.{sorted(bad)[0]}': not recognized")
    draft_doc = dict(doc.get("draft", {}))
    bad = set(draft_doc) - _DRAFT_KEYS
    if bad:
        raise ValueError(f"field 'draft.{sorted(bad)[0]}': not recognized")
    target_doc.setdefault("seed", 42)
    draft_doc.setdefault("noise_seed", 7)
    kwargs: dict = {
        "target": SyntheticTargetConfig(**target_doc),
        "draft": PerturbedDraftConfig(**draft_doc),
    }
    if "theta" in doc:
        kwargs["thetas"] = _as_tuple(doc["theta"], float)
    if "k" in doc:
        kwargs["ks"] = _as_tuple(doc["k"], int)
    if "temperature" in doc:
        kwargs["temperatures"] = _as_tuple(doc["temperature"], float)
    for key in ("policy", "draft_mode", "mode", "out"):
        if key in doc:
            kwargs[key] = doc[key]
    for key in ("tree_top_k", "max_tokens", "repetitions", "seed"):
        if key in doc:
            kwargs[key] = int(doc[key])
    if "stop_token" in doc and doc["stop_token"] is not None:
        kwargs["stop_token"] = int(doc["stop_token"])
    if "cost_ratio" in doc:
        kwargs["cost_ratio"] = float(doc["cost_ratio"])
    return ExperimentSpec(**kwargs)


def spec_from_file(path: str | Path) -> ExperimentSpec:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec file {path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"spec file {path}: top level must be a JSON object")
    return spec_from_dict(doc)


def row_seed(root_seed: int, theta: float, k: int, temperature: float, rep: int) -> int:
    """Stable per-row seed from the root seed and grid coordinates only."""
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<qdqdq", root_seed, theta, k, temperature, rep))
    return int.from_bytes(h.digest(), "little") >> 1


def default_prompt(seed: int, vocab_size: int, length: int) -> list[int]:
    rng = np.random.default_rng([seed, 0xA11CE])
    return [int(t) for t in rng.integers(0, vocab_size, size=max(length, 1))]


def build_point(
    spec: ExperimentSpec, theta: float, k: int, temperature: float, rep: int
) -> tuple[SyntheticTargetModel, PerturbedDraftModel, DecodeConfig, CostModel, list[int]]:
    """The target, draft, decode config, cost model and prompt of one grid point."""
    seed = row_seed(spec.seed, theta, k, temperature, rep)
    target = SyntheticTargetModel(spec.target)
    draft = PerturbedDraftModel(target, spec.draft)
    config = DecodeConfig(
        policy=VerificationPolicy.from_name(spec.policy, theta),
        k=k,
        max_tokens=spec.max_tokens,
        temperature=temperature,
        seed=seed,
        draft_mode=spec.draft_mode,
        stop_token=spec.stop_token,
        mode=spec.mode,
        tree_top_k=spec.tree_top_k,
    )
    cost = CostModel(c_draft=spec.cost_ratio)
    prompt = default_prompt(seed, spec.target.vocab_size, spec.target.order)
    return target, draft, config, cost, prompt


def run_point(
    spec: ExperimentSpec, theta: float, k: int, temperature: float, rep: int
) -> dict:
    """Execute one grid point and return its CSV row."""
    target, draft, config, cost, prompt = build_point(spec, theta, k, temperature, rep)
    out, metrics = decode(target, draft, config, prompt, cost=cost)
    vanilla = greedy_decode(target, prompt, len(out))
    metrics = replace(metrics, agreement_rate=agreement_rate(out, vanilla))
    target_fields = asdict(spec.target)
    return {
        "policy": spec.policy,
        "theta": theta,
        "k": k,
        "temperature": temperature,
        "max_tokens": spec.max_tokens,
        "draft_mode": spec.draft_mode,
        "mode": spec.mode,
        "repetition": rep,
        "row_seed": config.seed,
        "target_seed": target_fields.pop("seed"),
        **target_fields,
        **asdict(spec.draft),
        "cost_ratio": spec.cost_ratio,
        **asdict(metrics),
    }


def sweep_rows(spec: ExperimentSpec) -> list[dict]:
    """All grid rows in lexicographic (theta, k, temperature, repetition) order."""
    rows = []
    for theta in spec.thetas:
        for k in spec.ks:
            for temperature in spec.temperatures:
                for rep in range(spec.repetitions):
                    rows.append(run_point(spec, theta, k, temperature, rep))
    return rows


def rows_to_csv(rows: Sequence[dict]) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    w.writeheader()
    for row in rows:
        w.writerow({key: ("" if row.get(key) is None else row.get(key, "")) for key in CSV_COLUMNS})
    return buf.getvalue()


def write_rows(rows: Sequence[dict], destination: str | Path) -> None:
    Path(destination).write_text(rows_to_csv(rows), encoding="utf-8")


def summarize_rows(rows: Sequence[dict]) -> str:
    taus = [row["tau"] for row in rows]
    speedups = [row["simulated_speedup"] for row in rows]
    lines = [
        f"rows                : {len(rows)}",
        f"mean tau            : {sum(taus) / len(taus):.4f}",
        f"mean sim. speedup   : {sum(speedups) / len(speedups):.4f}",
    ]
    rates = [row["agreement_rate"] for row in rows if row.get("agreement_rate") is not None]
    if rates:
        lines.append(f"mean agreement rate : {sum(rates) / len(rates):.4f}")
    return "\n".join(lines)
