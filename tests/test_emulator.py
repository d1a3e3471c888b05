"""Unit tests for the GP emulator and the offline Algorithm 2."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.emulator import GPEmulator, emulate_output, offline_gp_output
from repro.core.metrics import ks_distance
from repro.distributions.continuous import Gaussian
from repro.distributions.multivariate import IndependentJoint
from repro.exceptions import GPError, UDFError
from repro.udf.base import UDF
from repro.workloads.generators import true_output_distribution


class TestGPEmulator:
    def test_train_initial_counts_udf_calls(self, f1_udf):
        udf = f1_udf.with_simulated_eval_time(0.0)
        emulator = GPEmulator(udf)
        emulator.train_initial(30, random_state=0)
        assert emulator.n_training == 30
        assert udf.call_count == 30
        assert emulator.gp.X_train.shape == (30, udf.dimension)

    def test_designs(self, f1_udf):
        for design in ("random", "grid", "halton"):
            emulator = GPEmulator(f1_udf.with_simulated_eval_time(0.0))
            emulator.train_initial(16, design=design, random_state=0)
            assert emulator.n_training >= 16

    def test_invalid_design_rejected(self, f1_udf):
        emulator = GPEmulator(f1_udf.with_simulated_eval_time(0.0))
        with pytest.raises(GPError):
            emulator.train_initial(10, design="sobol")

    def test_requires_positive_points(self, f1_udf):
        emulator = GPEmulator(f1_udf)
        with pytest.raises(GPError):
            emulator.train_initial(0)

    def test_domain_required(self):
        udf = UDF(lambda x: 1.0, dimension=1)  # no declared domain
        emulator = GPEmulator(udf)
        with pytest.raises(GPError):
            emulator.train_initial(5)
        emulator.train_initial(5, domain=(np.array([0.0]), np.array([1.0])), random_state=0)
        assert emulator.n_training == 5

    def test_add_training_point(self, quadratic_udf):
        emulator = GPEmulator(quadratic_udf.with_simulated_eval_time(0.0))
        emulator.train_initial(6, random_state=0)
        X_before = emulator.gp.X_train.copy()
        value = emulator.add_training_point(np.array([1.5]))
        assert value == pytest.approx(1.5**2 + 1.0)
        assert emulator.n_training == 7
        np.testing.assert_array_equal(emulator.gp.X_train[:6], X_before)
        np.testing.assert_array_equal(emulator.gp.X_train[6], [1.5])

    def test_add_training_point_shape_check(self, quadratic_udf):
        emulator = GPEmulator(quadratic_udf.with_simulated_eval_time(0.0))
        emulator.train_initial(4, random_state=0)
        with pytest.raises(UDFError):
            emulator.add_training_point(np.array([1.0, 2.0]))

    def test_prediction_quality_on_smooth_function(self, quadratic_udf):
        emulator = GPEmulator(quadratic_udf.with_simulated_eval_time(0.0))
        emulator.train_initial(25, design="grid", random_state=0)
        X_test = np.linspace(-2.5, 2.5, 20).reshape(-1, 1)
        means, stds = emulator.predict(X_test)
        truth = X_test.ravel() ** 2 + 1.0
        assert np.max(np.abs(means - truth)) < 0.1
        assert np.all(stds >= 0)

    def test_retrain_requires_data(self, f1_udf):
        with pytest.raises(GPError):
            GPEmulator(f1_udf).retrain()


class TestEmulateOutput:
    def test_output_distribution_close_to_truth(self, trained_f1_emulator, gaussian_2d_input):
        result = emulate_output(
            trained_f1_emulator, gaussian_2d_input, n_samples=800, random_state=0
        )
        truth = true_output_distribution(
            trained_f1_emulator.udf, gaussian_2d_input, 15000, random_state=1
        )
        assert ks_distance(result.distribution, truth) < 0.1
        assert result.n_samples == 800
        assert result.envelope.n_samples == 800

    def test_no_udf_calls_during_inference(self, trained_f1_emulator, gaussian_2d_input):
        calls_before = trained_f1_emulator.udf.call_count
        emulate_output(trained_f1_emulator, gaussian_2d_input, n_samples=300, random_state=0)
        assert trained_f1_emulator.udf.call_count == calls_before

    def test_invalid_sample_count(self, trained_f1_emulator, gaussian_2d_input):
        with pytest.raises(GPError):
            emulate_output(trained_f1_emulator, gaussian_2d_input, n_samples=0)

    def test_envelope_bracketing(self, trained_f1_emulator, gaussian_2d_input):
        result = emulate_output(
            trained_f1_emulator, gaussian_2d_input, n_samples=500, random_state=2
        )
        grid = np.linspace(*result.distribution.support, 50)
        env = result.envelope
        assert np.all(env.y_lower.cdf(grid) >= env.y_upper.cdf(grid) - 1e-12)


class TestOfflineAlgorithm:
    def test_end_to_end(self, quadratic_udf):
        udf = quadratic_udf.with_simulated_eval_time(0.0)
        input_dist = Gaussian(1.0, 0.2)
        result = offline_gp_output(
            udf, input_dist, n_training=25, n_samples=600, random_state=0
        )
        truth = true_output_distribution(udf, input_dist, 20000, random_state=1)
        assert ks_distance(result.distribution, truth) < 0.08
        # Training used exactly n_training UDF calls; inference used none.
        assert result.udf_calls == 25

    def test_2d_input(self, f1_udf):
        udf = f1_udf.with_simulated_eval_time(0.0)
        input_dist = IndependentJoint([Gaussian(3.0, 0.5), Gaussian(5.0, 0.5)])
        result = offline_gp_output(udf, input_dist, n_training=40, n_samples=400, random_state=3)
        assert result.distribution.size == 400
        assert result.n_training == 40
