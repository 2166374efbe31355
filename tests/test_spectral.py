"""Periodogram, weighted EM mixtures, and spectral initialization."""

import math

import numpy as np
import pytest

import skewgp.spectral as sp
from skewgp.errors import DataError
from skewgp.gp import Dataset, fit, nlml, sample_prior
from skewgp.kernels import SlsmComponent, SlsmParams
from skewgp.optimize import OptConfig


class TestPeriodogram:
    def test_pure_tone_peak(self):
        t = np.arange(256.0)
        y = np.cos(2.0 * math.pi * 0.1 * t)
        spec = sp.periodogram(y, 1.0)
        peak = spec.freqs[np.argmax(spec.powers)]
        assert peak == pytest.approx(2.0 * math.pi * 0.1, abs=spec.freqs[0])

    def test_constant_series_is_flat_zero(self):
        spec = sp.periodogram(np.full(64, 3.7), 1.0)
        assert np.max(spec.powers) < 1e-20

    def test_parseval(self, rng):
        y = rng.standard_normal(1024)
        spec = sp.periodogram(y, 1.0)
        d_omega = spec.freqs[1] - spec.freqs[0]
        total = float(np.sum(spec.powers) * d_omega)
        var = float(np.var(y))
        assert abs(total - var) < 0.05 * var

    def test_dc_excluded_and_increasing(self, rng):
        spec = sp.periodogram(rng.standard_normal(100), 0.5)
        assert spec.freqs[0] > 0.0
        assert np.all(np.diff(spec.freqs) > 0)
        assert spec.freqs[-1] <= math.pi / 0.5 + 1e-12

    def test_too_short_series_rejected(self):
        with pytest.raises(DataError):
            sp.periodogram(np.ones(3), 1.0)


class TestEmMixture:
    def _two_tone_spec(self):
        t = np.arange(512.0)
        y = np.cos(0.5 * t) + np.cos(2.0 * t)
        return sp.periodogram(y, 1.0)

    def test_recovers_two_tones(self):
        spec = self._two_tone_spec()
        bin_width = float(spec.freqs[1] - spec.freqs[0])
        fit_mix = sp.em_mixture(spec, 2, kind="laplace", seed=0)
        assert abs(fit_mix.locations[0] - 0.5) <= bin_width
        assert abs(fit_mix.locations[1] - 2.0) <= bin_width

    def test_gaussian_q1_is_weighted_mean(self, rng):
        spec = sp.periodogram(rng.standard_normal(128), 1.0)
        fit_mix = sp.em_mixture(spec, 1, kind="gaussian", seed=0)
        expected = float(np.sum(spec.freqs * spec.powers) / np.sum(spec.powers))
        assert fit_mix.locations[0] == pytest.approx(expected, rel=1e-12)

    def test_loglik_monotone(self, rng):
        for kind in ("laplace", "gaussian"):
            spec = sp.periodogram(np.cos(0.7 * np.arange(200.0))
                                  + 0.5 * rng.standard_normal(200), 1.0)
            fit_mix = sp.em_mixture(spec, 4, kind=kind, seed=1)
            trace = fit_mix.loglik_trace
            assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_weights_sum_to_one(self, rng):
        spec = sp.periodogram(rng.standard_normal(256), 1.0)
        fit_mix = sp.em_mixture(spec, 5, kind="laplace", seed=2)
        assert sum(fit_mix.weights) == pytest.approx(1.0, abs=1e-12)

    def test_zero_power_rejected(self):
        spec = sp.SpectrumEstimate(np.array([1.0, 2.0]), np.zeros(2))
        with pytest.raises(DataError):
            sp.em_mixture(spec, 2)


class TestInitParams:
    def _fit(self, rng):
        spec = sp.periodogram(np.cos(0.9 * np.arange(128.0))
                              + 0.3 * rng.standard_normal(128), 1.0)
        return sp.em_mixture(spec, 3, kind="laplace", seed=0)

    def test_unit_variance_weights_sum_to_one(self, rng):
        init = sp.init_params(self._fit(rng), "slsm", y_var=1.0, seed=0)
        assert sum(c.w for c in init.components) == pytest.approx(1.0, abs=1e-12)
        assert init.noise_var == pytest.approx(0.1)

    def test_gamma_draws_reproducible(self, rng):
        mix = self._fit(rng)
        a = sp.init_params(mix, "slsm", y_var=2.0, seed=9)
        b = sp.init_params(mix, "slsm", y_var=2.0, seed=9)
        assert [c.gamma for c in a.components] == [c.gamma for c in b.components]
        assert all(-1.0 <= c.gamma[0] <= 1.0 for c in a.components)
        c = sp.init_params(mix, "slsm", y_var=2.0, seed=10)
        assert [x.gamma for x in a.components] != [x.gamma for x in c.components]

    def test_non_skew_kernels_get_zero_gamma(self, rng):
        init = sp.init_params(self._fit(rng), "sm", y_var=1.0, seed=0)
        assert all(c.gamma[0] == 0.0 for c in init.components)

    def test_scale_equivariance(self, rng):
        y = np.cos(0.8 * np.arange(256.0)) + 0.2 * rng.standard_normal(256)
        c = 4.0
        # compressing the time axis by c scales all frequencies by c
        mix1 = sp.em_mixture(sp.periodogram(y, 1.0), 3, seed=5)
        mix2 = sp.em_mixture(sp.periodogram(y, 1.0 / c), 3, seed=5)
        np.testing.assert_allclose(np.array(mix2.locations),
                                   c * np.array(mix1.locations), rtol=1e-9)
        np.testing.assert_allclose(np.array(mix2.scales),
                                   c * np.array(mix1.scales), rtol=1e-9)

    def test_self_consistency_basin(self):
        # data sampled from a known 2-component prior: spectral init must land
        # close enough that training recovers the generating NLML within 1%
        gen = SlsmParams(
            (SlsmComponent(1.0, 0.6, 0.05, 0.0), SlsmComponent(0.8, 1.8, 0.08, 0.0)),
            noise_var=0.05,
        )
        X = np.arange(300.0)
        y = sample_prior("slsm", gen, X, 1, seed=21)[0]
        y = y + 0.05**0.5 * np.random.default_rng(22).standard_normal(300)
        data = Dataset(X, y)
        gen_nlml = nlml(data, gen, "slsm")
        spec = sp.periodogram(y, 1.0)
        init = sp.init_params(sp.em_mixture(spec, 2, seed=0), "slsm",
                              float(np.var(y)), seed=0)
        model = fit(data, init, "slsm", OptConfig(max_iters=150), normalize=False)
        assert model.nlml_internal <= gen_nlml + 0.01 * abs(gen_nlml)


class TestRandomFallback:
    def test_univariate_ranges(self):
        init = sp.random_init(4, "slsm", y_var=2.0, freq_max=math.pi, seed=3)
        assert isinstance(init, SlsmParams)
        assert all(0.0 <= c.mu[0] <= math.pi for c in init.components)
        assert all(c.w == pytest.approx(0.5) for c in init.components)
        assert init.noise_var == pytest.approx(0.2)

    def test_multivariate_fallback(self):
        init = sp.random_init(3, "slsm", y_var=1.0, freq_max=2.0, seed=0, p=4)
        assert isinstance(init, SlsmParams)
        assert init.p == 4 and init.q == 3

    def test_deterministic(self):
        a = sp.random_init(3, "slsm", 1.0, 2.0, seed=8)
        b = sp.random_init(3, "slsm", 1.0, 2.0, seed=8)
        assert [(c.w, c.mu, c.sigma, c.gamma) for c in a.components] == \
               [(c.w, c.mu, c.sigma, c.gamma) for c in b.components]

    def test_median_distance_bound(self, rng):
        X = rng.uniform(0, 10, (50, 3))
        fm = sp.median_distance_freq_max(X)
        assert fm > 0.0
        # the median over the pairs of the (n, n, P) difference array, bit for bit
        d = np.sqrt(np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=-1))
        assert fm == math.pi / np.median(d[np.triu_indices(50, 1)])
        assert sp.nyquist_freq_max(0.5) == pytest.approx(2.0 * math.pi / 1.0)

    def test_median_distance_of_one_point_is_pi(self):
        # no pairs counts as distance 1, like a zero median
        assert sp.median_distance_freq_max(np.array([[0.3, 0.7]])) == math.pi
        assert sp.median_distance_freq_max(np.zeros((4, 2))) == math.pi
