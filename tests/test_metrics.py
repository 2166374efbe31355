"""Forecast error metrics."""

import numpy as np
import pytest

from skewgp.errors import DataError
from skewgp.metrics import metric_mae, metric_mse, metric_nlpd, metric_smse


class TestMseMae:
    def test_identical_vectors(self):
        y = np.array([1.0, 2.0, 3.0])
        assert metric_mse(y, y) == 0.0
        assert metric_mae(y, y) == 0.0

    def test_unit_errors(self):
        y = np.zeros(2)
        pred = np.array([1.0, -1.0])
        assert metric_mse(y, pred) == 1.0
        assert metric_mae(y, pred) == 1.0

    def test_against_arithmetic_oracle(self, rng):
        y = rng.standard_normal(100)
        pred = rng.standard_normal(100)
        mse = sum((a - b) ** 2 for a, b in zip(y, pred)) / 100
        mae = sum(abs(a - b) for a, b in zip(y, pred)) / 100
        assert abs(metric_mse(y, pred) - mse) < 1e-12
        assert abs(metric_mae(y, pred) - mae) < 1e-12

    def test_mae_squared_bounded_by_mse(self, rng):
        for _ in range(20):
            y = rng.standard_normal(30)
            pred = rng.standard_normal(30)
            assert metric_mae(y, pred) ** 2 <= metric_mse(y, pred) + 1e-15

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            metric_mse(np.zeros(3), np.zeros(4))


class TestSmse:
    def test_perfect_predictions(self):
        y = np.array([1.0, 2.0, 5.0])
        assert metric_smse(y, y) == 0.0

    def test_mean_prediction_scores_one(self, rng):
        y = rng.standard_normal(50)
        pred = np.full(50, np.mean(y))
        assert metric_smse(y, pred) == pytest.approx(1.0, abs=1e-12)

    def test_against_arithmetic_oracle(self, rng):
        y = rng.standard_normal(40)
        pred = rng.standard_normal(40)
        var = sum((v - np.mean(y)) ** 2 for v in y) / 40    # population variance
        expected = sum((a - b) ** 2 for a, b in zip(y, pred)) / (40 * var)
        assert abs(metric_smse(y, pred) - expected) < 1e-12

    def test_zero_variance_rejected(self):
        with pytest.raises(DataError):
            metric_smse(np.ones(5), np.zeros(5))

    def test_needs_two_points(self):
        with pytest.raises(DataError):
            metric_smse(np.array([1.0]), np.array([1.0]))


class TestNlpd:
    def test_against_arithmetic_oracle(self, rng):
        y, mean = rng.standard_normal(30), rng.standard_normal(30)
        var = rng.uniform(0.1, 2.0, 30)
        expected = sum(0.5 * np.log(2.0 * np.pi * v) + 0.5 * (a - m) ** 2 / v
                       for a, m, v in zip(y, mean, var)) / 30
        assert abs(metric_nlpd(y, mean, var) - expected) < 1e-12

    def test_zero_variance_is_undefined(self):
        assert metric_nlpd(np.zeros(3), np.zeros(3), np.array([1.0, 0.0, 1.0])) is None

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            metric_nlpd(np.zeros(3), np.zeros(4), np.ones(4))
