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
from typing import NamedTuple

import numpy as np

from .logits import check_theta, logit_ratio, logit_ratios, softmax
from .trace import _BLOCK_FLOATS, _CHUNK, TraceFile

DEFAULT_BINS = 40


@dataclass(frozen=True)
class Histogram:
    edges: tuple[float, ...]
    counts: tuple[int, ...]
    outside: int = 0  # the non-finite values, which no bin counts


class Scatter(NamedTuple):
    """Read-only columns, one row per record; a record's ratio is z2/z1 where z1 > 0."""

    step: np.ndarray  # int64
    z1: np.ndarray  # float64 top-two logits and their probabilities
    z2: np.ndarray
    p1: np.ndarray
    p2: np.ndarray


@dataclass(frozen=True)
class AnalysisReport:
    theta: float
    record_count: int
    ratio_defined_count: int
    relaxation_fraction: float
    top1_hist: Histogram
    ratio_hist: Histogram
    prob_ratio_hist: Histogram
    scatter: Scatter


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
    check_theta(theta)
    columns = trace.columns
    n = len(columns)
    if not n:
        raise ValueError("cannot analyze an empty trace")
    _, _, z1, z2 = columns.top_two()
    ratios = logit_ratios(z1, z2)
    defined = ratios[~np.isnan(ratios)]
    with np.errstate(over="ignore"):  # overflow gives -inf, as with Python floats
        exponents, at = np.unique((z2 - z1) / columns.temp, return_inverse=True)
    # math.exp, not np.exp (the two differ in the last bit on some inputs), once a distinct value
    prob_ratios = np.fromiter(map(math.exp, exponents.tolist()), float, exponents.size)[at]
    p1, p2 = np.empty(n), np.empty(n)
    for rows, _, logits in columns.by_width(columns.topk):
        # each record's list, in rows of one width: each row's softmax is the per-record one
        probs = softmax(logits, columns.temp[rows, None])
        p1[rows], p2[rows] = probs[:, 0], probs[:, 1]
    scatter = Scatter(columns.step.view(), z1, z2, p1, p2)
    for column in scatter:
        column.flags.writeable = False  # a view, so the trace's own step column stays writeable
    return AnalysisReport(
        theta=theta,
        record_count=n,
        ratio_defined_count=defined.size,
        relaxation_fraction=int(np.count_nonzero(ratios > theta)) / n,
        top1_hist=_histogram(z1, bins),
        ratio_hist=_histogram(defined, bins) if defined.size else Histogram((), ()),
        prob_ratio_hist=_histogram(prob_ratios, bins),
        scatter=scatter,
    )


def write_report(report: AnalysisReport, outdir: str | Path) -> list[Path]:
    """Write the CSV set (three histograms + scatter) into outdir."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / f"{name}.csv" for name in ("top1_hist", "ratio_hist", "prob_ratio_hist", "scatter")]
    for hist, path in zip((report.top1_hist, report.ratio_hist, report.prob_ratio_hist), paths):
        with path.open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["bin_left", "bin_right", "count"])
            w.writerows(zip(hist.edges, hist.edges[1:], hist.counts))
    _write_scatter(report.scatter, paths[3])
    return paths


def _write_scatter(scatter: Scatter, path: Path) -> None:
    """The rows csv.writer would write (a float's text is its repr), a chunk of
    records at a time. The `z1,z2,p1,p2,ratio` tail of each distinct row,
    keyed by its bits (so -0.0 is not 0.0), is formatted once while the tails
    held are below `_BLOCK_FLOATS` floats (then they are dropped)."""
    tails: dict[bytes, str] = {}
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("step,z1,z2,p1,p2,ratio\n")
        for start in range(0, scatter.step.size, _CHUNK):
            block = np.stack([column[start : start + _CHUNK] for column in scatter[1:]], axis=1)
            keys = block.view(np.dtype((np.void, block.itemsize * 4))).ravel().tolist()
            if 4 * len(tails) >= _BLOCK_FLOATS:
                tails = {}
            for key, (z1, z2, p1, p2) in zip(keys, block.tolist()):
                if key not in tails:
                    r = logit_ratio(z1, z2)
                    tails[key] = f"{z1!r},{z2!r},{p1!r},{p2!r}," + ("" if r is None else repr(r))
            steps = scatter.step[start : start + _CHUNK].tolist()
            fh.write("".join(map("%d,%s\n".__mod__, zip(steps, map(tails.__getitem__, keys)))))


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
