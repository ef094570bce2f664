import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specverify.analysis import analyze_trace
from specverify.logits import (
    TopTwo,
    _softmax,
    adaptive_margin_check,
    check_theta,
    logit_ratio,
    logit_ratios,
    softmax,
    top_two,
)
from specverify.models import _cdf
from specverify.trace import TraceFile, TraceHeader, TraceRecord
from specverify.verify import VerificationPolicy

# logits drawn on a 0.01 grid: exact ties are possible, near-ties below float
# resolution are not, so argmax comparisons stay meaningful
grid_logits = st.lists(
    st.integers(min_value=-2000, max_value=2000).map(lambda n: n / 100.0),
    min_size=2,
    max_size=48,
)


def sort_oracle_top_two(values):
    """Independent full sort by (-logit, token id)."""
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    return order[0], order[1]


class TestTopTwo:
    def test_basic(self):
        t = top_two([1.0, 3.0, 2.0])
        assert (t.v1, t.z1, t.v2, t.z2) == (1, 3.0, 2, 2.0)

    def test_tie_breaks_to_smallest_id(self):
        t = top_two([5.0, 5.0, 1.0])
        assert (t.v1, t.v2) == (0, 1)
        assert t.ratio == 1.0

    def test_vocab_too_small(self):
        with pytest.raises(ValueError):
            top_two([1.0])

    def test_a_block_is_refused(self):
        """Only softmax takes a 2-D block; nothing takes more dimensions."""
        with pytest.raises(ValueError, match=re.escape("logit vector must be 1-D, got shape (2, 3)")):
            top_two(np.zeros((2, 3)))
        with pytest.raises(ValueError, match=re.escape("logit vector must be 1-D, got shape (1, 1, 2)")):
            softmax(np.zeros((1, 1, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            top_two([1.0, float("nan")])
        with pytest.raises(ValueError):
            top_two([1.0, float("inf")])

    @given(grid_logits)
    def test_matches_full_sort_oracle(self, values):
        t = top_two(values)
        v1, v2 = sort_oracle_top_two(values)
        assert (t.v1, t.v2) == (v1, v2)
        assert (t.z1, t.z2) == (values[v1], values[v2])

    def test_matches_oracle_on_synthetic_model(self, target):
        rng = np.random.default_rng(5)
        for _ in range(200):
            ctx = [int(x) for x in rng.integers(0, 64, 2)]
            z = target.score(ctx)
            t = top_two(z)
            v1, v2 = sort_oracle_top_two(list(z))
            assert (t.v1, t.v2) == (v1, v2)
            assert (t.z1, t.z2) == (z[v1], z[v2])


class TestLogitRatio:
    def test_workflow_accept_side_value(self):
        # raw logits constructed to realize the 0.911 accept-side ratio
        assert logit_ratio(10.0, 9.11) == pytest.approx(0.911, abs=1e-12)

    def test_equal_logits(self):
        assert logit_ratio(5.0, 5.0) == 1.0

    def test_plain_arithmetic(self):
        assert logit_ratio(8.0, 2.0) == 0.25

    def test_undefined_for_nonpositive_top(self):
        assert logit_ratio(0.0, -1.0) is None
        assert logit_ratio(-3.0, -4.0) is None

    def test_negative_runner_up_gives_nonpositive_ratio(self):
        # z2 <= 0 < z1 keeps a raw ratio <= 0; any theta in (0,1] rejects it
        assert logit_ratio(4.0, -2.0) == -0.5

    @given(
        st.floats(min_value=1e-3, max_value=1e6),
        st.floats(min_value=1e-9, max_value=1e6),
    )
    def test_ratio_margin_identity_positive_pairs(self, z1, z2):
        # the 1e-12 absolute bound is stated on the positive domain, r in (0, 1]
        z2 = min(z1, z2)
        r = logit_ratio(z1, z2)
        assert 0.0 < r <= 1.0
        assert abs(r - (1.0 - (z1 - z2) / z1)) <= 1e-12

    @given(
        st.floats(min_value=1e-3, max_value=1e6),
        st.floats(min_value=-1e6, max_value=1e6),
    )
    def test_ratio_margin_identity_wide_domain(self, z1, z2):
        # outside the positive domain |r| can be huge; identity holds relatively
        z2 = min(z1, z2)
        r = logit_ratio(z1, z2)
        assert r == pytest.approx(1.0 - (z1 - z2) / z1, rel=1e-9, abs=1e-12)

    @given(
        st.floats(min_value=1e-3, max_value=1e5),
        st.floats(min_value=-1e5, max_value=1e5),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_covariance(self, z1, z2, c):
        z2 = min(z1, z2)
        assert logit_ratio(c * z1, c * z2) == pytest.approx(
            logit_ratio(z1, z2), rel=1e-12, abs=1e-12
        )


# z1 of 0, -0, negative, subnormal and huge; over a subnormal z1, a huge negative
# z2 overflows z2/z1 to -inf
RATIO_EDGES = [0.0, -0.0, -1.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.5, 1.0, 10.0,
               1e300, 1.7976931348623157e308, -1e300, -1.7976931348623157e308]
ratio_floats = st.one_of(st.sampled_from(RATIO_EDGES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def top_two_logits(draw):
    """(z1, z2) with z2 <= z1, ties included."""
    a, b = draw(ratio_floats), draw(st.one_of(ratio_floats, st.just(None)))
    return (a, a) if b is None else (max(a, b), min(a, b))


@given(st.lists(top_two_logits(), max_size=30))
@settings(max_examples=400)
def test_logit_ratios_is_logit_ratio_bit_for_bit(pairs):
    """The column form gives each pair's logit_ratio bits, NaN where it is None,
    without a warning (the suite runs with warnings as errors)."""
    z1, z2 = (np.array([pair[i] for pair in pairs], dtype=np.float64) for i in (0, 1))
    column = logit_ratios(z1, z2)
    assert column.shape == z1.shape and column.dtype == np.float64
    for (a, b), got in zip(pairs, column.tolist()):
        want = logit_ratio(a, b)
        if want is None:
            assert math.isnan(got)
        else:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_logit_ratios_edge_columns():
    z1 = np.array([0.0, -0.0, -1.0, 5e-324, 5e-324, 1e300, 2.0])
    z2 = np.array([-1.0, -1.0, -2.0, -1e300, 5e-324, -1e300, 2.0])
    assert logit_ratios(z1, z2).tolist()[3:] == [-np.inf, 1.0, -1.0, 1.0]
    assert np.isnan(logit_ratios(z1, z2)[:3]).all()


BAD_THETAS = [("0.9", "expected float, got '0.9'"), (None, "expected float, got None"),
              (True, "expected float, got True"), (math.nan, "nan not in (0, 1]"),
              (0, "0 not in (0, 1]"), (-0.0, "-0.0 not in (0, 1]"), (1.5, "1.5 not in (0, 1]")]
ONE_RECORD = TraceFile(TraceHeader(4, ""), [TraceRecord(0, ((0, 2.0), (1, 1.0)), 1.0)])


@pytest.mark.parametrize(
    "refuse",
    [
        check_theta,
        lambda theta: VerificationPolicy(kind="margin", theta=theta),
        VerificationPolicy.margin_aware,
        lambda theta: VerificationPolicy.from_name("strict", theta),
        lambda theta: VerificationPolicy.from_name("margin", theta),
        lambda theta: adaptive_margin_check(top_two([10.0, 9.5]), theta),
        lambda theta: analyze_trace(ONE_RECORD, theta),
    ],
    ids=["check_theta", "policy", "margin_aware", "strict_by_name", "margin_by_name",
         "adaptive_margin_check", "analyze_trace"],
)
@pytest.mark.parametrize("theta, message", BAD_THETAS, ids=[repr(t) for t, _ in BAD_THETAS])
def test_theta_outside_its_domain_is_refused_by_name(refuse, theta, message):
    with pytest.raises(ValueError, match=re.escape(f"field 'theta': {message}")):
        refuse(theta)


def test_from_name_checks_the_kind_before_theta():
    with pytest.raises(ValueError, match=r"^field 'policy': unknown value 'bogus'$"):
        VerificationPolicy.from_name("bogus", 1.5)
    assert VerificationPolicy.from_name("strict", 0.5) == VerificationPolicy.strict()


@pytest.mark.parametrize("theta", [5e-324, 0.9, 1, 1.0, np.float64(0.5), np.float32(0.25)])
def test_check_theta_takes_any_real_in_its_domain(theta):
    check_theta(theta)
    assert VerificationPolicy.margin_aware(theta).theta == theta


class TestAdaptiveMarginCheck:
    def test_inside_zone(self):
        # z1=10, margin 0.5 < (1-0.9)*10 = 1.0
        t = top_two([10.0, 9.5])
        assert adaptive_margin_check(t, 0.9) is True

    def test_boundary_is_rejected(self):
        # margin exactly (1-theta)*z1: ratio == theta, strict inequality fails
        t = top_two([10.0, 9.0])
        assert adaptive_margin_check(t, 0.9) is False

    def test_disabled_when_top_logit_nonpositive(self):
        t = TopTwo(v1=0, v2=1, z1=-1.0, z2=-2.0, ratio=None)
        assert adaptive_margin_check(t, 0.9) is False

    def test_theta_validated(self):
        t = top_two([10.0, 9.5])
        with pytest.raises(ValueError):
            adaptive_margin_check(t, 0.0)
        with pytest.raises(ValueError):
            adaptive_margin_check(t, 1.5)

    def test_agrees_with_margin_form_on_10k_pairs(self):
        rng = np.random.default_rng(99)
        z1s = rng.uniform(0.01, 30.0, 10_000)
        z2s = z1s - rng.uniform(0.0, 10.0, 10_000)
        thetas = rng.choice([0.84, 0.88, 0.9, 0.92, 0.96], size=10_000)
        for z1, z2, theta in zip(z1s, z2s, thetas):
            t = TopTwo(0, 1, z1, z2, logit_ratio(z1, z2))
            ratio_form = z2 / z1 > theta
            margin_form = (z1 - z2) < (1.0 - theta) * z1
            assert adaptive_margin_check(t, theta) == ratio_form == margin_form


# input vector: np.random.default_rng(321).uniform(-8, 8, 32)
# expected: 60-digit mpmath summation oracle exp(z/T)/sum exp(z/T), T=0.7
SOFTMAX_EXPECTED_T07 = [
    0.00018286014377445298, 0.05485952188529139, 3.3241569422068647e-06, 0.00083882403593891369,
    1.7400322576937481e-05, 0.04597137141892265, 0.00031804142720041011, 3.8758547453819014e-09,
    2.3426967589101127e-07, 0.1869769769535396, 0.17205188077544392, 3.4746038199064571e-07,
    0.0025990786200688963, 5.8135052524076853e-07, 0.03783163784937052, 0.046568029991608313,
    2.1286381351620338e-09, 0.076951696957357721, 0.0019969871302267031, 6.0480520372779521e-07,
    1.2558611317886965e-07, 7.70560960485369e-09, 0.01532745268471806, 0.0029662215781292261,
    0.3520957326898676, 1.6344700832808533e-08, 3.1779772193257633e-07, 0.00014008392917637917,
    2.5452122821418852e-10, 0.0022617760817458849, 3.8365076352417203e-05, 4.9471280131740332e-07,
]


class TestSoftmax:
    def test_symmetric_pair(self):
        assert np.array_equal(softmax([0.0, 0.0], 1.0), [0.5, 0.5])

    def test_large_logits_stay_finite(self):
        p = softmax([1000.0, 999.0], 1.0)
        assert np.all(np.isfinite(p))
        assert p[1] / p[0] == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_matches_extended_precision_oracle(self):
        values = np.random.default_rng(321).uniform(-8.0, 8.0, 32)
        p = softmax(values, 0.7)
        assert np.abs(p - np.asarray(SOFTMAX_EXPECTED_T07)).max() <= 1e-12

    def test_empty_vector_is_refused(self):
        with pytest.raises(ValueError, match="^softmax of an empty vector is undefined$"):
            softmax([])

    def test_temperature_validated(self):
        with pytest.raises(ValueError):
            softmax([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            softmax([1.0, 2.0], -1.0)
        with pytest.raises(ValueError):
            softmax([1.0, 2.0], float("nan"))
        with pytest.raises(ValueError):
            softmax([1.0, 2.0], 0)

    @pytest.mark.parametrize("width", range(2, 13))
    def test_row_block_equals_each_row_bit_for_bit(self, width):
        rng = np.random.default_rng(width)
        block, temps = rng.normal(0.0, 5.0, (40, width)), rng.uniform(0.1, 2.0, (40, 1))
        rows = softmax(block, temps)
        for i in range(40):
            assert rows[i].tobytes() == softmax(block[i], temps[i, 0]).tobytes()
        with pytest.raises(ValueError):
            softmax(block, np.zeros((40, 1)))
        with pytest.raises(ValueError):
            softmax(np.full((2, width), np.nan), 1.0)

    def test_unchecked_core_overflows_to_its_limit_without_a_warning(self):
        """The memo derives CDFs through the unchecked core: at temperature
        1e-310, or over a span past the float range, it is one-hot on the
        argmax and raises no RuntimeWarning."""
        z = np.random.default_rng(7).normal(0.0, 2.0, 64)
        wide = np.array([-1.7976931348623157e308, 1.7976931348623157e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for values, temperature in ((z, 1e-310), (wide, 1.0)):
                p = _softmax(values, temperature)
                assert p.tolist() == np.eye(values.size)[values.argmax()].tolist()
                cdf = _cdf(_softmax(values, temperature))
                assert cdf.tobytes() == np.cumsum(p).tobytes()

    @given(grid_logits, st.floats(min_value=0.05, max_value=10.0))
    @settings(max_examples=200)
    def test_argmax_invariance(self, values, temperature):
        p = softmax(values, temperature)
        assert int(np.argmax(p)) == int(np.argmax(values))

    @given(grid_logits, st.floats(min_value=0.05, max_value=10.0))
    @settings(max_examples=200)
    def test_probability_vector_invariants(self, values, temperature):
        p = softmax(values, temperature)
        assert abs(p.sum() - 1.0) <= 1e-9
        assert np.all(p >= 0.0) and np.all(p <= 1.0)


def test_decoupling_witness_pairs():
    # equal logit ratio, wildly different probability ratio
    assert logit_ratio(2.0, 1.8) == pytest.approx(0.9, abs=1e-12)
    assert logit_ratio(20.0, 18.0) == pytest.approx(0.9, abs=1e-12)
    p_small = softmax([2.0, 1.8], 1.0)
    p_large = softmax([20.0, 18.0], 1.0)
    assert p_small[1] / p_small[0] == pytest.approx(math.exp(-0.2), abs=1e-12)
    assert p_large[1] / p_large[0] == pytest.approx(math.exp(-2.0), abs=1e-12)
