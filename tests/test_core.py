import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import numpy as np

from bincp.core import (
    NEGATIVE,
    POSITIVE,
    REGIONS,
    UNKNOWN,
    Dataset,
    Label,
    PredictionRegion,
    RowError,
    Sample,
    SignificanceLevel,
    _feature_limit,
    label_names,
    region_codes,
)
from bincp.nonconformity import TrainingBag
from bincp.online import _OnlineSession
from oracles import REGION_KEEPING


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

    def test_region_codes_match_membership_row_by_row(self):
        keep_pos = np.array([True, True, False, False])
        keep_neg = np.array([True, False, True, False])
        codes = region_codes(keep_pos, keep_neg)
        assert [REGIONS[c] for c in codes] == [
            REGION_KEEPING[p, n] for p, n in zip(keep_pos, keep_neg)
        ]
        assert {REGIONS[c] for c in codes} == set(PredictionRegion)

    def test_singleton_flags(self):
        assert PredictionRegion.SINGLE_POSITIVE.is_singleton
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


class TestSample:
    """A `Sample` is checked once, by the `Dataset` of its rows."""

    def test_needs_features_or_scores(self):
        with pytest.raises(ValueError, match="features or scores"):
            Dataset((Sample(id="x"),))

    def test_rejects_non_finite_features(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset((Sample(id="x", features=(1.0, math.inf)),))

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError, match="nonempty"):
            Dataset((Sample(id="", features=(1.0,)),))

    def test_features_coerced_to_floats(self):
        (sample,) = Dataset((Sample(id="x", features=(1, 2)),)).samples
        assert sample.features == (1.0, 2.0)
        assert all(type(v) is float for v in sample.features)

    def test_label_text_is_rejected_by_name(self):
        with pytest.raises(ValueError, match="label must be a Label member, got 'positive'"):
            Dataset((Sample("x", (1.0,), "positive"),))


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
        assert data.positive.sum() == 1
        assert not data.fully_labelled()
        assert data.labels.tolist() == [POSITIVE, NEGATIVE, UNKNOWN]

    def test_samples_round_trip(self):
        rows = (
            Sample(id="a", features=(0.5, 1.0), true_label=Label.NEGATIVE),
            Sample(id="b", features=(1.5, -2.0)),
        )
        data = Dataset(rows, 2)
        assert data.samples == rows
        assert data.scores is None and not data.probability
        assert data.features.tolist() == [[0.5, 1.0], [1.5, -2.0]]


class TestDatasetColumns:
    def test_columns_are_read_only(self):
        data = Dataset.from_columns(["a", "b"], [POSITIVE, UNKNOWN], [(0.0,), (1.0,)])
        for column in (data.ids, data.labels, data.features):
            assert not column.flags.writeable
        assert data.labels.dtype == np.int8
        assert data.feature_dim == 1
        assert data.scores is None

    def test_take_and_with_scores(self):
        data = Dataset.from_columns(["a", "b", "c"], [1, 0, 1], [(0.0,), (1.0,), (2.0,)])
        part = data.take(np.array([False, True, True]))
        assert part.ids.tolist() == ["b", "c"]
        assert part.features.tolist() == [[1.0], [2.0]]
        scored = part.with_scores(np.array([[0.1, 0.9], [0.6, 0.4]]), True)
        assert scored.probability and scored.ids.tolist() == ["b", "c"]
        scored.require("scores", why="need scores")
        with pytest.raises(ValueError, match=r"^need scores, missing for \['b', 'c'\]$"):
            part.require("scores", why="need scores")

    @pytest.mark.parametrize(
        "columns, message",
        [
            (dict(labels=[1]), "one length"),
            (dict(labels=[1, 2]), "label codes"),
            (dict(features=[(0.0,)]), r"\(2, m\)"),
            (dict(features=None, scores=[0.5, 0.5]), r"\(2, 2\)"),
            (dict(features=None), "features or scores"),
        ],
    )
    def test_malformed_columns_are_rejected(self, columns, message):
        given = dict(ids=["a", "b"], labels=[1, 0], features=[(0.0,), (1.0,)])
        given.update(columns)
        with pytest.raises(ValueError, match=message):
            Dataset.from_columns(**given)

    @pytest.mark.parametrize(
        "row, probability, message",
        [
            ((0.48, 0.52), True, None),
            ((0.3, 0.8), True, "sum to 1"),
            ((1.5, -0.5), True, r"in \[0, 1\]"),
            ((math.inf, -math.inf), True, "finite"),
            ((math.nan, 0.5), False, "NaN"),
            ((-math.inf, -0.5), False, None),
        ],
        ids=[
            "complement-accepted",
            "bad-sum",
            "out-of-range",
            "infinite-probability",
            "nan",
            "generic-infinity-accepted",
        ],
    )
    def test_score_rows_are_checked(self, row, probability, message):
        def build():
            return Dataset.from_columns(["a"], [1], scores=[row], probability=probability)

        if message is None:
            assert build().scores.tolist() == [list(row)]
        else:
            with pytest.raises(RowError, match=message):
                build()

    def test_the_first_failing_row_is_named(self):
        scores = [(0.5, 0.5), (0.2, 0.2), (1.5, -0.5)]
        with pytest.raises(RowError, match="sum to 1") as caught:
            Dataset.from_columns(["a", "b", "c"], [1] * 3, scores=scores, probability=True)
        assert caught.value.row == 1
        with pytest.raises(RowError) as caught:
            Dataset.from_columns(["a", "b", "a", "b"], [1] * 4, [(0.0,)] * 4)
        assert (str(caught.value), caught.value.row, caught.value.first) == (
            "duplicate sample id 'a'", 2, 0
        )

    @pytest.mark.parametrize("code, name", [(-1, ""), (0, "negative"), (1, "positive")])
    def test_label_names_give_the_file_text_of_each_code(self, code, name):
        assert label_names(np.array([code, code], dtype=np.int8)) == [name, name]


# The feature bound is one rule that the dataset, the training bag and the
# on-line candidate each reach, so the same bad point gets the same message
# after the caller's name for its row.
_LIMIT = _feature_limit(2)


def _dataset_with(point):
    Dataset.from_columns(["a", "b"], [POSITIVE, NEGATIVE], [(0.0, 0.0), point])


def _bag_with(point):
    TrainingBag([(0.0, 0.0), point], [True, False])


def _step_with(point):
    _OnlineSession(TrainingBag([(0.0, 0.0), (1.0, 1.0)], [True, False]), 1).step(
        point, Label.NEGATIVE
    )


_CALLERS = {"sample 'b'": _dataset_with, "bag point 1": _bag_with, "candidate": _step_with}


@pytest.mark.parametrize("subject", list(_CALLERS))
@pytest.mark.parametrize(
    "value, tail",
    [
        (math.nan, "has non-finite features"),
        (math.inf, "has non-finite features"),
        (
            np.nextafter(_LIMIT, math.inf),
            f"has features beyond ±{_LIMIT:.4g}, whose squared distances overflow",
        ),
    ],
    ids=["nan", "inf", "one-ulp-beyond"],
)
def test_one_feature_bound_names_the_row_of_each_caller(subject, value, tail):
    with pytest.raises(RowError) as caught:
        _CALLERS[subject]((1.0, value))
    assert str(caught.value) == f"{subject} {tail}"


@pytest.mark.parametrize("subject", list(_CALLERS))
def test_the_feature_bound_itself_is_accepted_by_each_caller(subject):
    _CALLERS[subject]((_LIMIT, -_LIMIT))
