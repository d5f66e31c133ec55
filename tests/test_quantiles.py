"""Five-number quantile models: summaries and inverse-CDF sampling."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from tandemgrip.errors import ParseError
from tandemgrip.picksim import DEFAULT_FIELD_STATS
from tandemgrip.quantiles import QuantileModel, summarize, summarize_csv_text

PROBS = [0, 0.25, 0.5, 0.75, 1]

# finite floats up to 1e307 in magnitude, small integers and subnormals;
# adding 0.0 turns -0.0 into 0.0, whose sign numpy's partition may not keep
VALUE = st.one_of(
    st.floats(min_value=-1e307, max_value=1e307),
    st.integers(-5, 5).map(float),
    st.floats(min_value=-1e-300, max_value=1e-300),
).map(lambda x: x + 0.0)
# a pool of a few values drawn with replacement gives repeats and ties
SAMPLE = st.one_of(
    st.lists(VALUE, min_size=1, max_size=300),
    st.lists(VALUE, min_size=1, max_size=8).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=300)),
)


def numpy_quantiles(xs) -> list[float]:
    return [float(v) for v in np.quantile(np.asarray(xs, dtype=float), PROBS, method="linear")]


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

    @pytest.mark.parametrize("values", [[1.0, float("nan")], [float("inf")], [2.0, -float("inf")]])
    def test_non_finite_value_rejected(self, values):
        with pytest.raises(ValueError, match="non-finite"):
            summarize(values)

    # -0.0 without 0.0 sorts one way only; a lone -0.0 stays -0.0 because
    # the top quantile's weight is numpy's idx + 1
    @example([-0.0])
    @example([-1.0, -0.0])
    @example([-0.0, 1.0, 2.0])
    @given(SAMPLE)
    def test_bits_match_numpy(self, xs):
        # within +-1e307 no interpolation leaves the float range
        got = summarize(xs).as_tuple()
        assert [v.hex() for v in got] == [v.hex() for v in numpy_quantiles(xs)]

    def test_mixed_zeros_match_numpy_in_value(self):
        # numpy's partition may put either zero first: only the values agree
        xs = [0.0, -0.0, 1.0, -0.0, 0.0, -2.0, 0.0, -0.0]
        assert list(summarize(xs).as_tuple()) == numpy_quantiles(xs)

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

    @pytest.mark.parametrize("u,shown", [
        (1.5, 1.5), (-0.2, -0.2), (np.nan, np.nan), (1.0000000000000002, 1.0000000000000002),
        (-5e-324, -5e-324), (np.array([0.0, 0.5, 1.5, -1.0]), 1.5),
        (np.array([[np.nan]]), np.nan),
    ])
    def test_variate_outside_unit_interval_rejected(self, u, shown):
        # np.interp clamped these to an end quantile, and gave NaN for NaN
        with pytest.raises(ValueError, match=r"u must be in \[0, 1\], got ") as raised:
            QuantileModel(1, 5, 10, 16, 30).sample(u)
        assert str(raised.value).endswith(repr(float(shown)))

    @pytest.mark.parametrize("u", [True, False, np.bool_(True), [True, False], "0.5",
                                   None, 0.5 + 0j, np.array([0.5], dtype=object)],
                             ids=repr)
    def test_variate_that_is_no_real_number_rejected(self, u):
        # a bool read as 0 or 1 gave an end quantile; a string or None escaped
        # as numpy's UFuncTypeError or a TypeError
        with pytest.raises(ValueError, match="^u must be a real number"):
            QuantileModel(1, 5, 10, 16, 30).sample(u)

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

    @pytest.mark.parametrize("field", list(vars(DEFAULT_FIELD_STATS)))
    def test_sample_keeps_numpy_interp_values(self, field):
        # the default field statistics hold ints; sample() interpolates them as floats
        q = getattr(DEFAULT_FIELD_STATS, field)
        xp, fp = np.array(PROBS, dtype=float), np.array(q.as_tuple())
        u = np.random.default_rng(7).random(1000)
        got = q.sample(u)
        assert isinstance(got, np.ndarray)
        assert got.tobytes() == np.interp(u, xp, fp).tobytes()
        one = q.sample(0.3)
        assert isinstance(one, np.float64)
        assert one == np.interp(0.3, xp, fp)

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

    def test_parse_error_counts_blank_lines(self):
        # the row is the physical line: the blank line 2 is skipped but counts
        with pytest.raises(ParseError, match="non-numeric value 'bogus' row 4 column 'a'"):
            summarize_csv_text("a\n\n1\nbogus\n")

    def test_no_numeric_columns(self):
        with pytest.raises(ParseError):
            summarize_csv_text("a\nfoo\nbar\n")

    def test_duplicate_column_rejected(self):
        with pytest.raises(ParseError, match="duplicate column name 'a'"):
            summarize_csv_text("a,a\n1,2\n3,4\n")

    def test_extra_cell_rejected(self):
        with pytest.raises(ParseError, match="more cells than the 2 header columns row 2"):
            summarize_csv_text("a,b\n1,2,3\n4\n")

    @pytest.mark.parametrize("text", ["", "\na\n1\n"])
    def test_no_header_row(self, text):
        with pytest.raises(ParseError, match="CSV has no header row"):
            summarize_csv_text(text)

    def test_blank_extra_cells_and_short_rows_skip(self):
        out = summarize_csv_text("a,b\n1,2,, \n4\n")
        assert out["a"].as_tuple() == (1.0, 1.75, 2.5, 3.25, 4.0)
        assert out["b"].as_tuple() == (2.0,) * 5
