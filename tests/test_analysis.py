import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specverify.analysis import _histogram, analyze_trace
from specverify.trace import TraceFile, TraceHeader, TraceRecord


@given(
    values=st.lists(st.floats(), min_size=1, max_size=6)
    | st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=60),
    bins=st.integers(1, 60),
)
@settings(max_examples=400, deadline=None)
def test_histogram_bins_every_finite_value(values, bins):
    """Finite, strictly increasing edges that hold every finite value, with the
    non-finite ones counted as outside; numpy.histogram's own bins wherever
    numpy bins the values without error."""
    hist = _histogram(values, bins)
    v = np.array(values)
    finite = v[np.isfinite(v)]
    edges = np.array(hist.edges)
    assert edges.size == bins + 1 and np.isfinite(edges).all()
    assert (edges[1:] > edges[:-1]).all()
    assert sum(hist.counts) == finite.size and hist.outside == v.size - finite.size
    if finite.size:
        assert edges[0] <= finite.min() and finite.max() <= edges[-1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            counts, numpy_edges = np.histogram(finite, bins=bins)
        except (ValueError, IndexError):  # numpy's failures on extreme ranges
            return
    assert hist.edges == tuple(numpy_edges.tolist())
    assert hist.counts == tuple(counts.tolist())


def test_scatter_is_read_only_columns_of_the_trace():
    """One row per record; the columns refuse writes, and the trace's own step
    column stays writeable."""
    records = [TraceRecord(7, ((1, 2.0), (0, 1.0)), 1.0), TraceRecord(3, ((0, -0.0), (1, -1.0)), 0.5)]
    trace = TraceFile(TraceHeader(4), records)
    scatter = analyze_trace(trace, 0.9).scatter
    assert scatter.step.tolist() == [7, 3] and scatter.z1.tolist() == [2.0, -0.0]
    assert scatter.z2.tolist() == [1.0, -1.0] and scatter.p1[0] + scatter.p2[0] == pytest.approx(1.0)
    for column in scatter:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    assert trace.columns.step.flags.writeable


def test_an_empty_trace_is_refused():
    with pytest.raises(ValueError, match="^cannot analyze an empty trace$"):
        analyze_trace(TraceFile(TraceHeader(8)), 0.9)
