"""Distributional statistics of a trace: top-1 logits, logit ratios, probability ratios.

Probabilities are softmax values at each record's stored temperature,
normalized over the record's stored top-k candidates (the full vocabulary is
not recorded). The probability RATIO p2/p1 = exp((z2 - z1)/T) is exact and
independent of that normalization; it is what the decoupling statistics use.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .logits import softmax
from .trace import TraceFile

DEFAULT_BINS = 40


@dataclass(frozen=True)
class Histogram:
    edges: tuple[float, ...]
    counts: tuple[int, ...]
    outside: int = 0  # the non-finite values, which no bin counts

    @property
    def total(self) -> int:
        return int(sum(self.counts))


@dataclass(frozen=True)
class ScatterPoint:
    step: int
    z1: float
    z2: float
    p1: float
    p2: float
    ratio: float | None


@dataclass(frozen=True)
class AnalysisReport:
    theta: float
    record_count: int
    ratio_defined_count: int
    relaxation_fraction: float
    top1_hist: Histogram
    ratio_hist: Histogram
    prob_ratio_hist: Histogram
    scatter: tuple[ScatterPoint, ...]


def _histogram(values, bins: int) -> Histogram:
    """The finite values in `bins` equal bins over their range, drawn as
    numpy.histogram draws them; where that range has no `bins` finite-width
    bins (a huge value, or a width past the largest float), its ends are
    padded by a few ulps and the edges stepped in from both ends."""
    v = np.asarray(values, dtype=np.float64)
    finite = v[np.isfinite(v)]
    lo, hi = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 1.0)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        edges = np.linspace(lo, hi, bins + 1)
    if not (edges[1:] > edges[:-1]).all():
        pad, top = 4 * bins * math.ulp(max(-lo, hi)), sys.float_info.max  # 2+ ulps a bin
        t = np.linspace(0.0, 1.0, bins + 1)
        edges = max(lo - pad, -top) * (1 - t) + min(hi + pad, top) * t
    counts, edges = np.histogram(finite, bins=edges)
    return Histogram(tuple(edges.tolist()), tuple(counts.tolist()), v.size - finite.size)


def analyze_trace(trace: TraceFile, theta: float, bins: int = DEFAULT_BINS) -> AnalysisReport:
    """Build the report for one trace at relaxation threshold theta."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    columns = trace.columns
    n = len(columns)
    if not n:
        raise ValueError("cannot analyze an empty trace")
    _, _, z1, z2 = columns.top_two()
    defined = z1 > 0
    with np.errstate(over="ignore"):  # overflow gives +-inf, as with Python floats
        ratios = z2[defined] / z1[defined]
        # math.exp, not np.exp: the two differ in the last bit on some inputs
        prob_ratios = list(map(math.exp, ((z2 - z1) / columns.temp).tolist()))
    p1, p2 = np.empty(n), np.empty(n)
    for rows, _, logits in columns.by_width():
        # rows of one width, so each row's softmax is the per-record one
        probs = softmax(logits, columns.temp[rows, None])
        p1[rows], p2[rows] = probs[:, 0], probs[:, 1]
    ratio = iter(ratios.tolist())
    scatter = tuple(
        ScatterPoint(step=step, z1=a, z2=b, p1=q1, p2=q2, ratio=next(ratio) if d else None)
        for step, a, b, q1, q2, d in zip(
            columns.step.tolist(), z1.tolist(), z2.tolist(), p1.tolist(), p2.tolist(),
            defined.tolist(),
        )
    )
    return AnalysisReport(
        theta=theta,
        record_count=n,
        ratio_defined_count=ratios.size,
        relaxation_fraction=int(np.count_nonzero(ratios > theta)) / n,
        top1_hist=_histogram(z1, bins),
        ratio_hist=_histogram(ratios, bins) if ratios.size else Histogram((), ()),
        prob_ratio_hist=_histogram(prob_ratios, bins),
        scatter=scatter,
    )


def _write_hist(hist: Histogram, path: Path) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["bin_left", "bin_right", "count"])
        for left, right, count in zip(hist.edges, hist.edges[1:], hist.counts):
            w.writerow([left, right, count])


def write_report(report: AnalysisReport, outdir: str | Path) -> list[Path]:
    """Write the CSV set (three histograms + scatter) into outdir."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [
        out / "top1_hist.csv",
        out / "ratio_hist.csv",
        out / "prob_ratio_hist.csv",
        out / "scatter.csv",
    ]
    _write_hist(report.top1_hist, paths[0])
    _write_hist(report.ratio_hist, paths[1])
    _write_hist(report.prob_ratio_hist, paths[2])
    with paths[3].open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["step", "z1", "z2", "p1", "p2", "ratio"])
        for p in report.scatter:
            w.writerow([p.step, p.z1, p.z2, p.p1, p.p2, "" if p.ratio is None else p.ratio])
    return paths


def summarize(report: AnalysisReport) -> str:
    lines = [
        f"records analyzed       : {report.record_count}",
        f"ratio defined (z1 > 0) : {report.ratio_defined_count}",
        f"relaxation zone r > {report.theta:g}: "
        f"{report.relaxation_fraction:.4f} of records",
    ]
    if report.ratio_hist.outside:  # z2/z1 is the only value that can overflow
        lines.append(f"ratios off the histogram (-inf): {report.ratio_hist.outside}")
    return "\n".join(lines)
