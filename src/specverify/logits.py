"""Pure numeric core: top-2 statistics, logit ratio, adaptive margin test, softmax.

All math is 64-bit. The relaxation decision is made on the raw-logit ratio
r = z2/z1, which is scale-invariant and bounded in (0, 1] whenever both top
logits are positive; the equivalent margin form delta < (1-theta)*z1 is kept
as a test-time cross-check only. When z1 <= 0 the ratio is undefined and the
caller must fall back to strict verification. A negative z2 under positive z1
yields a ratio <= 0, which the strict `> theta` test rejects naturally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TopTwo:
    """Top-1/top-2 tokens of one decoding step, with their logit ratio.

    Invariants: z1 >= z2, v1 != v2, and ratio == z2/z1
    when z1 > 0 (None otherwise). Ties are broken toward the smaller token id.
    """

    v1: int
    v2: int
    z1: float
    z2: float
    ratio: float | None


def _as_logit_array(values, rows: bool = False) -> np.ndarray:
    """A finite 1-D logit vector, or with `rows` also a 2-D block of them."""
    z = np.asarray(values, dtype=np.float64)
    if z.ndim != 1 and not (rows and z.ndim == 2):
        raise ValueError(f"logit vector must be 1-D, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("logit vector contains non-finite entries")
    return z


def logit_ratio(z1: float, z2: float) -> float | None:
    """Ratio z2/z1 of the top-2 logits; None when z1 <= 0 (undefined)."""
    if z1 <= 0.0:
        return None
    return z2 / z1


def top_two(values) -> TopTwo:
    """Extract the top-2 tokens of a logit vector.

    Ties are broken by the smallest token id, deterministically. Requires a finite
    vector of at least 2 logits, which the core _top_two takes unchecked.
    """
    z = _as_logit_array(values)
    if z.size < 2:
        raise ValueError("top_two needs a vocabulary of at least 2 tokens")
    return _top_two(z)


def _top_two(z: np.ndarray) -> TopTwo:
    v1 = int(z.argmax())  # first occurrence of the max = smallest id
    masked = z.copy()
    masked[v1] = -np.inf
    v2 = int(masked.argmax())
    z1 = float(z[v1])
    z2 = float(z[v2])
    return TopTwo(v1=v1, v2=v2, z1=z1, z2=z2, ratio=logit_ratio(z1, z2))


def adaptive_margin_check(top: TopTwo, theta: float) -> bool:
    """True when the step is in the relaxation zone: ratio defined and > theta.

    Equivalent to the margin condition z1 - z2 < (1 - theta) * z1 for z1 > 0;
    the ratio form is authoritative. Returns False when the ratio is undefined
    (z1 <= 0), which disables relaxation for the step.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    if top.ratio is None:
        return False
    return top.ratio > theta


def softmax(values, temperature: float | np.ndarray = 1.0) -> np.ndarray:
    """Temperature-scaled softmax with max-subtraction for stability.

    Output sums to 1 within float error and preserves the input argmax for every
    positive temperature. A 2-D block is taken row by row, with `temperature` a scalar
    or a column of per-row temperatures; each row equals the softmax of that row alone,
    bit for bit. The core _softmax checks only the temperatures.
    """
    z = _as_logit_array(values, rows=True)
    if z.size == 0:
        raise ValueError("softmax of an empty vector is undefined")
    return _softmax(z, temperature)


def _softmax(z: np.ndarray, temperature: float | np.ndarray) -> np.ndarray:
    # a float skips numpy here: a model derives a CDF once per new window and temperature
    if isinstance(temperature, float):
        positive = temperature > 0.0
    else:
        positive = np.all(np.asarray(temperature) > 0.0)
    if not positive:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    # a span past the float range or a tiny temperature overflows to -inf: the limit
    with np.errstate(over="ignore"):
        e = np.exp((z - z.max(axis=-1, keepdims=True)) / temperature)
    return e / e.sum(axis=-1, keepdims=True)
