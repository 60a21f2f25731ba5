"""Tests for the seven real-world dataset emulators."""

import numpy as np
import pytest

from repro.datasets import (
    REAL_WORLD_SPECS,
    dataset_statistics,
    generate_real_world,
)
from repro.datasets.realworld import DATASET_ORDER
from repro.relational import audit_star_schema

ALL_NAMES = sorted(REAL_WORLD_SPECS)


class TestRegistry:
    def test_seven_datasets(self):
        assert len(REAL_WORLD_SPECS) == 7
        assert set(DATASET_ORDER) == set(REAL_WORLD_SPECS)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="available"):
            generate_real_world("netflix")

    @pytest.mark.parametrize("n_fact", [0, 5, -3])
    def test_too_few_rows_raise_instead_of_the_default_size(self, n_fact):
        """Only ``None`` means the spec's size; 0 is a size, and too small."""
        message = f"n_fact must be >= 8, got {n_fact}"
        with pytest.raises(ValueError, match=message):
            generate_real_world("yelp", n_fact=n_fact)

    def test_none_builds_the_spec_size(self):
        ds = generate_real_world("yelp", n_fact=None)
        assert ds.schema.fact.n_rows == REAL_WORLD_SPECS["yelp"].n_fact

    def test_flights_has_three_dimensions(self):
        assert len(REAL_WORLD_SPECS["flights"].dimensions) == 3

    def test_expedia_has_open_fk(self):
        assert any(d.open_fk for d in REAL_WORLD_SPECS["expedia"].dimensions)

    def test_home_feature_counts_match_table1(self):
        expected = {
            "expedia": 1,
            "movies": 0,
            "yelp": 0,
            "walmart": 1,
            "lastfm": 0,
            "books": 0,
            "flights": 20,
        }
        for name, d_s in expected.items():
            assert REAL_WORLD_SPECS[name].d_s == d_s

    def test_foreign_feature_counts_match_table1(self):
        expected = {
            "expedia": (8, 14),
            "movies": (4, 21),
            "yelp": (32, 6),
            "walmart": (9, 2),
            "lastfm": (7, 4),
            "books": (2, 4),
            "flights": (5, 6, 6),
        }
        for name, counts in expected.items():
            spec = REAL_WORLD_SPECS[name]
            assert tuple(d.n_features for d in spec.dimensions) == counts


@pytest.mark.parametrize("name", ALL_NAMES)
class TestGeneration:
    def test_schema_valid_with_fds(self, name):
        ds = generate_real_world(name, n_fact=400, seed=0)
        assert audit_star_schema(ds.schema).all_fds_hold

    def test_split_is_50_25_25(self, name):
        ds = generate_real_world(name, n_fact=400, seed=0)
        assert ds.train.size == 200
        assert ds.validation.size == 100
        assert ds.test.size == 100

    def test_reproducible(self, name):
        a = generate_real_world(name, n_fact=400, seed=5)
        b = generate_real_world(name, n_fact=400, seed=5)
        assert np.array_equal(a.y, b.y)

    def test_binary_target(self, name):
        ds = generate_real_world(name, n_fact=400, seed=0)
        assert set(np.unique(ds.y)) <= {0, 1}

    def test_target_not_degenerate(self, name):
        ds = generate_real_world(name, n_fact=1000, seed=0)
        rate = float(np.mean(ds.y))
        assert 0.05 < rate < 0.95

    def test_y_optimal_tracks_signal(self, name):
        """The planted distribution must be learnable: observed labels
        agree with Bayes-optimal ones well above chance."""
        ds = generate_real_world(name, n_fact=1000, seed=0)
        assert np.mean(ds.y == ds.y_optimal) > 0.6


class TestTupleRatios:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("yelp", {"users": 9.4, "businesses": 2.5}),
            ("lastfm", {"users": 42.0, "artists": 3.5}),
            ("books", {"readers": 4.6, "books": 2.6}),
            ("movies", {"users": 82.8, "movies": 135.0}),
        ],
    )
    def test_ratios_preserved(self, name, expected):
        ds = generate_real_world(name, n_fact=2000, seed=0)
        for dim, ratio in expected.items():
            n_r = ds.schema.dimension(dim).n_rows
            got = ds.train.size / n_r
            assert got == pytest.approx(ratio, rel=0.15)

    def test_walmart_tiny_dimension_clamped(self):
        ds = generate_real_world("walmart", n_fact=400, seed=0)
        assert ds.schema.dimension("indicators").n_rows >= 2


class TestStatistics:
    def test_statistics_row_structure(self):
        ds = generate_real_world("yelp", n_fact=400, seed=0)
        stats = dataset_statistics(ds)
        assert stats.dataset == "yelp"
        assert stats.q == 2
        assert stats.d_s == 0
        assert len(stats.dimensions) == 2

    def test_open_fk_reports_na(self):
        ds = generate_real_world("expedia", n_fact=400, seed=0)
        stats = dataset_statistics(ds)
        ratios = {name: ratio for name, _, _, ratio in stats.dimensions}
        assert ratios["searches"] is None
        assert ratios["hotels"] is not None

    def test_str_rendering(self):
        ds = generate_real_world("flights", n_fact=400, seed=0)
        text = str(dataset_statistics(ds))
        assert "flights" in text
        assert "N/A" not in text  # flights has no open FK
