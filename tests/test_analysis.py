import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from specverify.analysis import _histogram


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
