"""Five-number quantile models: summaries and inverse-CDF sampling."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tandemgrip.errors import ParseError
from tandemgrip.quantiles import QuantileModel, summarize, summarize_csv_text


class TestSummarize:
    def test_five_point_exact(self):
        q = summarize([7, 11, 15, 28, 38])
        assert q.as_tuple() == (7.0, 11.0, 15.0, 28.0, 38.0)

    def test_single_value(self):
        q = summarize([4.2])
        assert q.as_tuple() == (4.2, 4.2, 4.2, 4.2, 4.2)

    def test_order_insensitive(self):
        assert summarize([38, 7, 15, 11, 28]) == summarize([7, 11, 15, 28, 38])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_overflowing_spread_rejected(self):
        # the median of +-1.7e308 interpolates across 3.4e308, past the float range
        with pytest.raises(ValueError, match="float range"):
            summarize([-1.7e308, 1.7e308])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_rejected(self, cell):
        with pytest.raises(ParseError, match="non-finite value"):
            summarize_csv_text(f"a,b\n1,2\n3,{cell}\n")


class TestSampling:
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_sample_within_bounds(self, u):
        q = QuantileModel(1, 5, 10, 16, 30)
        v = float(q.sample(u))
        assert 1.0 <= v <= 30.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="q3 must be finite"):
            QuantileModel(1.0, 2.0, 3.0, value, 5.0)

    @pytest.mark.parametrize("vals", [(0, 0, 0, 0, 1e308), (-1e308, -1e308, 0, 0, 0),
                                      (-1e308, 0, 1e308, 1e308, 1e308)])
    def test_span_past_float_range_rejected(self, vals):
        # a quarter-wide step of 1e308 has slope 4e308: sample() would give inf
        with pytest.raises(ValueError, match="float range"):
            QuantileModel(*vals)

    def test_quantile_anchors(self):
        q = QuantileModel(7, 11, 15, 28, 38)
        assert [float(q.sample(p)) for p in (0, 0.25, 0.5, 0.75, 1)] == [7, 11, 15, 28, 38]

    def test_round_trip_large_sample(self):
        q = QuantileModel(7, 11, 15, 28, 38)
        rng = np.random.default_rng(123)
        vals = q.sample(rng.random(100_000))
        back = summarize(vals)
        for a, b in zip(back.as_tuple(), q.as_tuple()):
            assert a == pytest.approx(b, rel=0.02)

    def test_nondecreasing_enforced(self):
        with pytest.raises(ValueError):
            QuantileModel(5, 4, 10, 16, 30)


class TestCsvSummary:
    def test_columns(self):
        text = "a,b\n1,10\n2,20\n3,30\n"
        out = summarize_csv_text(text)
        assert out["a"].median == 2.0
        assert out["b"].q_max == 30.0

    def test_parse_error_location(self):
        with pytest.raises(ParseError) as err:
            summarize_csv_text("a\n1\nbogus\n")
        assert "row 3" in str(err.value)

    def test_no_numeric_columns(self):
        with pytest.raises(ParseError):
            summarize_csv_text("a\nfoo\nbar\n")
