"""Experiment specs, grid execution, and CSV emission.

A spec is a declarative JSON document (grammar in the README) holding model
configs, the theta/K/temperature grid, the cost model, and repetitions. The
fields of `ExperimentSpec` are the schema: their names are the spec keys
(nested under `target` and `draft` for the model configs) and the CLI flags,
and their types convert the values. Rows are emitted in lexicographic grid
order (theta, then k, then temperature, then repetition) and every row's seed
is derived from the root seed and the grid point alone, so execution order
cannot change results.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import struct
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from itertools import product
from pathlib import Path
from typing import Sequence, get_args, get_origin, get_type_hints

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
    check_noise_range,
    check_seed,
)
from .verify import DEFAULT_THETA, VerificationPolicy

# The configuration part of a metrics row, in CSV order (the CSV contract).
CONFIG_COLUMNS = (
    "policy", "theta", "k", "temperature", "max_tokens", "draft_mode", "mode", "repetition",
    "row_seed", "target_seed", "vocab_size", "order", "logit_offset", "logit_spread",
    "noise_seed", "noise_scale", "cost_ratio",
)
CSV_COLUMNS = [*CONFIG_COLUMNS, *(f.name for f in fields(DecodeMetrics))]
GRID_AXES = ("theta", "k", "temperature")


@dataclass(frozen=True)
class ExperimentSpec:
    """Field names are the spec keys and CLI flags; a grid point is checked by
    the `DecodeConfig` that `decode_config` builds for it."""

    target: SyntheticTargetConfig = field(default_factory=lambda: SyntheticTargetConfig(seed=42))
    draft: PerturbedDraftConfig = field(default_factory=lambda: PerturbedDraftConfig(noise_seed=7))
    policy: str = "margin"
    theta: tuple[float, ...] = (DEFAULT_THETA,)
    k: tuple[int, ...] = (7,)
    temperature: tuple[float, ...] = (1.0,)
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
        for name in GRID_AXES:
            grid = getattr(self, name)
            if len(grid) == 0:
                raise ValueError(f"field '{name}': grid must be non-empty")
            for i, value in enumerate(grid):
                if value in grid[:i]:  # a row is keyed by its grid coordinates
                    raise ValueError(f"field '{name}': duplicate value {value}")
        if self.repetitions < 1:
            raise ValueError("field 'repetitions': must be >= 1")
        if self.repetitions >= 2**63:  # a row's repetition is a signed 64-bit integer
            raise ValueError(f"field 'repetitions': {self.repetitions} must be below 2^63")
        if not 0 <= self.cost_ratio < np.inf:
            raise ValueError(f"field 'cost_ratio': {self.cost_ratio} must be finite and >= 0")
        # -0.0 passes the check; written as 0.0, its CSV is the one 0 gives
        object.__setattr__(self, "cost_ratio", abs(self.cost_ratio))
        vocab = self.target.vocab_size
        if self.stop_token is not None and not 0 <= self.stop_token < vocab:
            raise ValueError(f"field 'stop_token': {self.stop_token} not in [0, {vocab})")
        check_seed("seed", self.seed)
        check_noise_range(self.target, self.draft)
        for theta, k, temperature in product(self.theta, self.k, self.temperature):
            self.decode_config(theta, k, temperature, seed=0)  # row seeds are always in range

    def decode_config(self, theta: float, k: int, temperature: float, seed: int) -> DecodeConfig:
        """The decode config of one grid point."""
        return DecodeConfig(
            policy=VerificationPolicy.from_name(self.policy, theta),
            k=k,
            max_tokens=self.max_tokens,
            temperature=temperature,
            seed=seed,
            draft_mode=self.draft_mode,
            stop_token=self.stop_token,
            mode=self.mode,
            tree_top_k=self.tree_top_k,
        )


def _convert(hint, value, current, name: str):
    """`value` as a value of type `hint`, or a ValueError naming the field."""
    if is_dataclass(hint):
        return _replace_from_dict(current, value, name + ".")
    args = get_args(hint)
    if get_origin(hint) is tuple:  # a grid axis: one value or a list
        items = value if isinstance(value, (list, tuple)) else [value]
        return tuple(_convert(args[0], item, None, name) for item in items)
    if type(None) in args:
        return None if value is None else _convert(args[0], value, current, name)
    if hint is float and type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"field '{name}': {value} is not finite") from None
    if type(value) is hint:
        return value
    raise ValueError(f"field '{name}': expected {hint.__name__}, got {value!r}")


def _replace_from_dict(base, doc, prefix: str):
    if not isinstance(doc, dict):
        raise ValueError(f"field '{prefix[:-1]}': expected an object, got {doc!r}")
    hints = get_type_hints(type(base))
    changes = {}
    for key, value in doc.items():
        if key not in hints:
            raise ValueError(f"field '{prefix}{key}': not a recognized spec field")
        changes[key] = _convert(hints[key], value, getattr(base, key), prefix + key)
    try:
        return replace(base, **changes)
    except ValueError as exc:  # a nested config names its own field: add the prefix
        raise ValueError(str(exc).replace("field '", "field '" + prefix, 1)) from None


def spec_from_dict(doc: dict, base: ExperimentSpec | None = None) -> ExperimentSpec:
    """`base` (default `ExperimentSpec()`) with the fields named in `doc`, nested
    for `target` and `draft`, replaced; each value is converted by its field's type."""
    return _replace_from_dict(base or ExperimentSpec(), doc, "")


class _RepeatedKeys(dict):
    """A JSON object that names `key` more than once (the last value is kept)."""

    key: str


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    doc = dict(pairs)
    if len(doc) == len(pairs):
        return doc
    seen: set[str] = set()
    for key, _ in pairs:
        if key in seen:
            break
        seen.add(key)
    doc = _RepeatedKeys(doc)
    doc.key = key
    return doc


def _check_unique_keys(doc: dict) -> None:
    """Raise for the first object, at any depth, that repeats a key, naming its path."""
    stack: list[tuple[str, object]] = [("", doc)]
    while stack:
        prefix, value = stack.pop()
        if isinstance(value, _RepeatedKeys):
            raise ValueError(f"field '{prefix}{value.key}': duplicate key")
        if isinstance(value, dict):
            stack += [(f"{prefix}{key}.", item) for key, item in reversed(value.items())]
        elif isinstance(value, list):
            stack += [(prefix, item) for item in reversed(value)]


def spec_from_file(path: str | Path) -> ExperimentSpec:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec file {path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"spec file {path}: top level must be a JSON object")
    _check_unique_keys(doc)
    return spec_from_dict(doc)


def row_seed(root_seed: int, theta: float, k: int, temperature: float, rep: int) -> int:
    """Stable per-row seed from the root seed and grid coordinates only."""
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<qdqdq", root_seed, theta, k, temperature, rep))
    return int.from_bytes(h.digest(), "little") >> 1


def default_prompt(seed: int, vocab_size: int, length: int) -> list[int]:
    rng = np.random.default_rng([seed, 0xA11CE])
    return [int(t) for t in rng.integers(0, vocab_size, size=max(length, 1))]


def spec_models(spec: ExperimentSpec) -> tuple[SyntheticTargetModel, PerturbedDraftModel]:
    """The target and draft of a spec, which all its grid points can share."""
    target = SyntheticTargetModel(spec.target)
    return target, PerturbedDraftModel(target, spec.draft)


def build_point(
    spec: ExperimentSpec, theta: float, k: int, temperature: float, rep: int, models=None
) -> tuple[SyntheticTargetModel, PerturbedDraftModel, DecodeConfig, CostModel, list[int]]:
    """The target, draft, decode config, cost model and prompt of one grid point;
    `models`, the spec's pair from `spec_models`, is built fresh when not given."""
    seed = row_seed(spec.seed, theta, k, temperature, rep)
    target, draft = models or spec_models(spec)
    config = spec.decode_config(theta, k, temperature, seed)
    cost = CostModel(c_draft=spec.cost_ratio)
    prompt = default_prompt(seed, spec.target.vocab_size, spec.target.order)
    return target, draft, config, cost, prompt


def run_point(
    spec: ExperimentSpec, theta: float, k: int, temperature: float, rep: int, models=None
) -> dict:
    """Execute one grid point and return its CSV row."""
    target, draft, config, cost, prompt = build_point(spec, theta, k, temperature, rep, models)
    out, metrics = decode(target, draft, config, prompt, cost=cost)
    vanilla = greedy_decode(target, prompt, len(out))
    metrics = replace(metrics, agreement_rate=agreement_rate(out, vanilla))
    values = {
        **vars(spec),
        **vars(spec.target),
        **vars(spec.draft),
        "theta": theta,
        "k": k,
        "temperature": temperature,
        "repetition": rep,
        "row_seed": config.seed,
        "target_seed": spec.target.seed,
        **asdict(metrics),
    }
    return {column: values[column] for column in CSV_COLUMNS}


def replay_row(spec: ExperimentSpec, theta: float, k: int, metrics: DecodeMetrics) -> dict:
    """The CSV row of a trace replayed at theta and k; a trace records no model or decode config."""
    values = {"policy": spec.policy, "theta": theta, "k": k, "cost_ratio": spec.cost_ratio}
    return {column: values.get(column) for column in CONFIG_COLUMNS} | asdict(metrics)


def sweep_rows(spec: ExperimentSpec) -> list[dict]:
    """All grid rows in lexicographic (theta, k, temperature, repetition) order;
    the points share one model pair, so a window is scored once per sweep while
    the memo holds it."""
    grid = product(spec.theta, spec.k, spec.temperature, range(spec.repetitions))
    models = spec_models(spec)
    return [run_point(spec, *point, models) for point in grid]


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
