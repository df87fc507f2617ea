import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bincp.core import (
    Dataset,
    Label,
    PredictionRegion,
    Sample,
    ScorePair,
    SignificanceLevel,
)


class TestPredictionRegion:
    def test_both_contains_either_label(self):
        assert PredictionRegion.BOTH.contains(Label.POSITIVE)
        assert PredictionRegion.BOTH.contains(Label.NEGATIVE)

    def test_empty_contains_nothing(self):
        assert not PredictionRegion.EMPTY.contains(Label.POSITIVE)
        assert not PredictionRegion.EMPTY.contains(Label.NEGATIVE)

    @pytest.mark.parametrize(
        "region,label,expected",
        [
            (PredictionRegion.SINGLE_POSITIVE, Label.POSITIVE, True),
            (PredictionRegion.SINGLE_POSITIVE, Label.NEGATIVE, False),
            (PredictionRegion.SINGLE_NEGATIVE, Label.NEGATIVE, True),
            (PredictionRegion.SINGLE_NEGATIVE, Label.POSITIVE, False),
        ],
    )
    def test_singleton_contains_only_its_label(self, region, label, expected):
        assert region.contains(label) is expected

    def test_from_membership_covers_all_four_kinds(self):
        assert PredictionRegion.from_membership(True, True) is PredictionRegion.BOTH
        assert (
            PredictionRegion.from_membership(True, False)
            is PredictionRegion.SINGLE_POSITIVE
        )
        assert (
            PredictionRegion.from_membership(False, True)
            is PredictionRegion.SINGLE_NEGATIVE
        )
        assert PredictionRegion.from_membership(False, False) is PredictionRegion.EMPTY

    def test_size_and_singleton_flags(self):
        assert PredictionRegion.BOTH.size == 2
        assert PredictionRegion.EMPTY.size == 0
        assert PredictionRegion.SINGLE_POSITIVE.size == 1
        assert PredictionRegion.SINGLE_NEGATIVE.is_singleton
        assert not PredictionRegion.BOTH.is_singleton
        assert not PredictionRegion.EMPTY.is_singleton


class TestSignificanceLevel:
    def test_confidence_95_becomes_epsilon_005(self):
        assert SignificanceLevel.from_confidence(95.0).epsilon == 0.05

    def test_confidence_86_becomes_epsilon_014(self):
        assert SignificanceLevel.from_confidence(86.0).epsilon == 0.14

    def test_confidence_100_becomes_zero(self):
        assert SignificanceLevel.from_confidence(100.0).epsilon == 0.0

    @pytest.mark.parametrize("bad", [-1.0, 100.5, math.nan, math.inf])
    def test_confidence_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            SignificanceLevel.from_confidence(bad)

    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan])
    def test_epsilon_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            SignificanceLevel(bad)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_round_trip_is_exact_for_four_decimal_epsilons(self, ten_thousandths):
        eps = SignificanceLevel(ten_thousandths / 10_000)
        again = SignificanceLevel.from_confidence(eps.confidence_percent)
        assert again.epsilon == eps.epsilon


class TestScorePair:
    def test_probability_pair_accepts_complement(self):
        pair = ScorePair(0.48, 0.52, probability=True)
        assert pair.for_label(Label.POSITIVE) == 0.48
        assert pair.for_label(Label.NEGATIVE) == 0.52

    def test_probability_pair_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ScorePair(0.3, 0.8, probability=True)

    def test_probability_pair_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ScorePair(1.5, -0.5, probability=True)

    def test_probability_pair_rejects_infinity(self):
        with pytest.raises(ValueError):
            ScorePair(math.inf, -math.inf, probability=True)

    def test_nan_always_rejected(self):
        with pytest.raises(ValueError):
            ScorePair(math.nan, 0.5)

    def test_generic_pair_may_be_infinite(self):
        pair = ScorePair(-math.inf, -0.5)
        assert pair.s_pos == -math.inf

    def test_swapped_exchanges_scores(self):
        pair = ScorePair(0.2, 0.8, probability=True)
        assert pair.swapped() == ScorePair(0.8, 0.2, probability=True)


class TestSample:
    def test_needs_features_or_scores(self):
        with pytest.raises(ValueError):
            Sample(id="x")

    def test_rejects_non_finite_features(self):
        with pytest.raises(ValueError):
            Sample(id="x", features=(1.0, math.inf))

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            Sample(id="", features=(1.0,))

    def test_features_coerced_to_floats(self):
        sample = Sample(id="x", features=(1, 2))
        assert sample.features == (1.0, 2.0)


class TestDataset:
    def test_rejects_duplicate_ids(self):
        a = Sample(id="x", features=(0.0,))
        with pytest.raises(ValueError):
            Dataset((a, a))

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            Dataset(
                (
                    Sample(id="a", features=(0.0,)),
                    Sample(id="b", features=(0.0, 1.0)),
                )
            )

    def test_feature_dim_inferred(self):
        data = Dataset((Sample(id="a", features=(0.0, 1.0)),))
        assert data.feature_dim == 2

    def test_counts_and_labelling(self):
        data = Dataset(
            (
                Sample(id="a", features=(0.0,), true_label=Label.POSITIVE),
                Sample(id="b", features=(1.0,), true_label=Label.NEGATIVE),
                Sample(id="c", features=(2.0,)),
            )
        )
        assert len(data) == 3
        assert data.count(Label.POSITIVE) == 1
        assert not data.fully_labelled()
