"""Kernel closed forms, spectral densities, Gram matrices, and gradients."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import skewgp.kernels as kn
from skewgp.errors import DataError, DimensionMismatchError
from skewgp.kernels import BaselineKernelParams, SlsmComponent, SlsmParams

from conftest import quad_kernel_oracle, quad_sm_oracle, random_component, random_params


# ---------------------------------------------------------------------------
# skewed-Laplace component
# ---------------------------------------------------------------------------


class TestSlsmComponent:
    def test_unit_at_zero_lag(self, rng):
        for _ in range(10):
            c = random_component(rng)
            assert kn.slsm_component(0.0, c) == 1.0

    def test_zero_skew_closed_form(self):
        c = SlsmComponent(w=1.0, mu=0.7, sigma=1.3, gamma=0.0)
        for tau in np.linspace(-5, 5, 41):
            expected = math.cos(c.mu[0] * tau) / (1.0 + 0.5 * c.sigma[0]**2 * tau**2)
            assert kn.slsm_component(tau, c) == pytest.approx(expected, abs=1e-15)

    def test_zero_skew_zero_freq_is_rq_alpha_one(self):
        # with mu = 0, gamma = 0 the component is an RQ kernel with alpha = 1,
        # theta_f = 1 and 1/ell^2 = sigma^2
        sigma = 0.8
        c = SlsmComponent(w=1.0, mu=0.0, sigma=sigma, gamma=0.0)
        b = BaselineKernelParams("rq", theta_f=1.0, ell=1.0 / sigma, rq_alpha=1.0)
        for tau in np.linspace(0, 10, 101):
            assert kn.slsm_component(tau, c) == pytest.approx(
                kn.baseline_kernel(tau, b), abs=1e-14)

    def test_matches_quadrature_oracle(self):
        c = SlsmComponent(w=1.0, mu=0.5, sigma=1.0, gamma=0.3)
        assert kn.slsm_component(1.0, c) == pytest.approx(
            quad_kernel_oracle(1.0, c), abs=1e-6)

    def test_even_in_tau(self, rng):
        c = random_component(rng)
        taus = rng.uniform(0, 20, 50)
        np.testing.assert_array_equal(
            kn.slsm_component(taus, c), kn.slsm_component(-taus, c))

    def test_bounded_by_one(self, rng):
        grid = np.linspace(-100, 100, 20001)
        for _ in range(10):
            c = random_component(rng)
            assert np.max(np.abs(kn.slsm_component(grid, c))) <= 1.0 + 1e-12

    def test_large_tau_stable(self):
        c = SlsmComponent(w=1.0, mu=2.0, sigma=1.5, gamma=0.9)
        vals = kn.slsm_component(np.array([1e4, 1e6, 1e8, 1e12, 1e50, 1e70]), c)
        assert np.all(np.isfinite(vals))
        assert np.all(np.abs(vals) < 1e-7)

    def test_kappa_positive_for_any_gamma(self):
        for gamma in (-100.0, -1.0, 0.0, 1.0, 100.0):
            c = SlsmComponent(w=1.0, mu=0.0, sigma=0.5, gamma=gamma)
            assert c.kappa > 0.0
        assert SlsmComponent(1.0, 0.0, 1.0, 0.0).kappa == pytest.approx(1.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(DataError):
            SlsmComponent(w=-1.0, mu=0.0, sigma=1.0)
        with pytest.raises(DataError):
            SlsmComponent(w=1.0, mu=-0.1, sigma=1.0)
        with pytest.raises(DataError):
            SlsmComponent(w=1.0, mu=0.0, sigma=0.0)
        with pytest.raises(DataError):
            SlsmComponent(w=1.0, mu=0.0, sigma=1.0, gamma=float("nan"))


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------


class TestSlsmKernel:
    def test_weight_sum_at_zero_lag(self):
        comps = tuple(SlsmComponent(w, 0.5 * w, 1.0, 0.1) for w in (1.0, 2.0, 3.0))
        p = SlsmParams(comps)
        assert kn.kernel_value(0.0, "slsm", p) == 6.0

    def test_cauchy_special_case(self):
        p = SlsmParams((SlsmComponent(1.0, 0.0, math.sqrt(2.0), 0.0),))
        for tau in np.linspace(0, 8, 33):
            assert kn.kernel_value(tau, "slsm", p) == pytest.approx(1.0 / (1.0 + tau**2),
                                                                    abs=1e-14)

    def test_additivity(self, rng):
        c1, c2 = random_component(rng), random_component(rng)
        p = SlsmParams((c1, c2))
        tau = 2.0
        total = c1.w * kn.slsm_component(tau, c1) + c2.w * kn.slsm_component(tau, c2)
        assert kn.kernel_value(tau, "slsm", p) == pytest.approx(total, rel=1e-15)

    def test_needs_at_least_one_component(self):
        with pytest.raises(DataError):
            SlsmParams(())


class TestMultivariate:
    def test_unit_at_zero_lag(self):
        c = SlsmComponent(1.0, (0.3, 0.4), (1.0, math.sqrt(2.0)), (0.1, -0.2))
        assert kn.slsm_component(np.zeros(2), c) == 1.0

    def test_p1_matches_univariate(self, rng):
        # the per-point body at P = 1, the lag as a point against the
        # origin, against the scalar body
        c = random_component(rng)
        unit = SlsmParams((replace(c, w=1.0),))
        for tau in np.linspace(-4, 4, 17):
            value = kn.multi_gram(np.array([[tau]]), np.zeros((1, 1)), "slsm",
                                  unit.rows("slsm"))[0, 0]
            assert value == pytest.approx(kn.slsm_component(tau, c), abs=1e-15)

    def test_cancelling_skew_recomputation(self):
        # tau . gamma = 0, so the skew terms drop out of the closed form
        c = SlsmComponent(1.0, (0.3, 0.4), (1.0, 1.0), (0.1, -0.1))
        tau = np.array([1.0, 1.0])
        phase = 0.3 + 0.4
        cmat = 1.0 + 0.5 * (1.0 + 1.0)
        expected = cmat * math.cos(phase) / cmat**2
        assert kn.slsm_component(tau, c) == pytest.approx(expected, abs=1e-15)
        assert kn.slsm_component(tau, c) == pytest.approx(
            math.cos(phase) / cmat, abs=1e-15)

    def test_dimension_mismatch(self):
        c = SlsmComponent(1.0, (0.3, 0.4), (1.0, 1.0), (0.0, 0.0))
        with pytest.raises(DimensionMismatchError):
            kn.slsm_component(np.zeros(3), c)

    def test_per_dimension_fields_checked(self):
        c = SlsmComponent(1.0, (0.3, 0.4), (1.0, 2.0))
        assert c.p == 2 and c.gamma == (0.0, 0.0)    # a scalar skew fills every P
        with pytest.raises(DimensionMismatchError):
            SlsmComponent(1.0, (0.3, 0.4), 1.0)
        with pytest.raises(DataError):
            SlsmComponent(1.0, (0.3, -0.4), (1.0, 1.0))
        with pytest.raises(DataError):
            SlsmComponent(1.0, (0.3, 0.4), (1.0, 0.0))
        with pytest.raises(DimensionMismatchError):
            SlsmParams((SlsmComponent(1.0, 0.3, 1.0), c))
        with pytest.raises(DimensionMismatchError):
            c.kappa    # the spectral density is univariate

    def test_mixture_weighting(self):
        c = SlsmComponent(2.5, (0.3, 0.4), (1.0, 1.0), (0.1, -0.1))
        p = SlsmParams((c,))
        tau = np.array([0.5, -0.5])
        assert kn.kernel_value(tau, "slsm", p) == pytest.approx(
            2.5 * kn.slsm_component(tau, c), rel=1e-15)


class TestSmKernel:
    def test_weight_sum_at_zero_lag(self):
        p = SlsmParams((SlsmComponent(1.5, 1.0, 1.0), SlsmComponent(2.5, 2.0, 0.5)))
        assert kn.kernel_value(0.0, "sm", p) == 4.0

    def test_zero_freq_is_se_envelope(self):
        p = SlsmParams((SlsmComponent(2.0, 0.0, 0.7),))
        for tau in np.linspace(0, 6, 25):
            assert kn.kernel_value(tau, "sm", p) == pytest.approx(
                2.0 * math.exp(-0.5 * 0.7**2 * tau**2), abs=1e-14)

    def test_matches_quadrature_oracle(self):
        mu, sigma = 2.0 * math.pi * 0.1, 0.5
        p = SlsmParams((SlsmComponent(1.0, mu, sigma),))
        assert kn.kernel_value(1.0, "sm", p) == pytest.approx(
            quad_sm_oracle(1.0, mu, sigma), abs=1e-6)


class TestLkpKernel:
    def test_delegates_to_zero_skew_slsm(self, rng):
        p = random_params(rng, q=3)
        zero = p.with_components(
            SlsmComponent(c.w, c.mu, c.sigma, 0.0) for c in p.components)
        taus = np.linspace(-10, 10, 101)
        np.testing.assert_array_equal(kn.kernel_value(taus, "lkp", p),
                                      kn.kernel_value(taus, "slsm", zero))

    def test_weight_sum_at_zero_lag(self):
        p = SlsmParams((SlsmComponent(1.0, 1.0, 1.0), SlsmComponent(2.0, 2.0, 1.0)))
        assert kn.kernel_value(0.0, "lkp", p) == 3.0

    def test_unit_component_value(self):
        p = SlsmParams((SlsmComponent(1.0, 1.0, 1.0),))
        expected = math.cos(1.0) / 1.5
        assert kn.kernel_value(1.0, "lkp", p) == pytest.approx(expected, abs=1e-14)
        assert kn.kernel_value(1.0, "lkp", p) == pytest.approx(
            quad_kernel_oracle(1.0, SlsmComponent(1.0, 1.0, 1.0, 0.0)), abs=1e-6)


class TestBaselines:
    def test_rq_amplitude_at_zero_lag(self):
        b = BaselineKernelParams("rq", theta_f=2.7, ell=1.2, rq_alpha=0.5)
        assert kn.baseline_kernel(0.0, b) == 2.7

    def test_rq_alpha_one_equals_zero_freq_slsm(self):
        sigma = 1.4
        b = BaselineKernelParams("rq", theta_f=1.0, ell=1.0 / sigma, rq_alpha=1.0)
        c = SlsmComponent(1.0, 0.0, sigma, 0.0)
        for tau in np.linspace(0, 10, 101):
            assert kn.baseline_kernel(tau, b) == pytest.approx(
                kn.slsm_component(tau, c), abs=1e-14)

    def test_rq_limits_to_se(self):
        se = BaselineKernelParams("se", theta_f=1.0, ell=0.9)
        rq = BaselineKernelParams("rq", theta_f=1.0, ell=0.9, rq_alpha=1e6)
        taus = np.linspace(0, 5, 101)
        assert np.max(np.abs(kn.baseline_kernel(taus, rq)
                             - kn.baseline_kernel(taus, se))) < 1e-4

    def test_unknown_variant_rejected(self):
        with pytest.raises(DataError):
            BaselineKernelParams("matern", theta_f=1.0, ell=1.0)


# ---------------------------------------------------------------------------
# spectral densities
# ---------------------------------------------------------------------------


class TestSpectralDensity:
    def test_kappa_is_one_without_skew(self):
        c = SlsmComponent(1.0, 1.0, 0.8, 0.0)
        assert c.kappa == pytest.approx(1.0, abs=1e-15)

    def test_standard_laplace_peak(self):
        c = SlsmComponent(1.0, 0.0, math.sqrt(2.0), 0.0)
        assert kn.spectral_density(0.0, c) == pytest.approx(0.5, abs=1e-12)

    def test_unit_normalization(self, rng):
        for _ in range(5):
            c = random_component(rng)
            mu, sigma, gamma = c.scalars()
            hi = abs(mu) + 40.0 * max(sigma, abs(gamma), 1.0)
            total, _ = quad(lambda s: kn.spectral_density(s, c), -hi, hi,
                            points=[-mu, mu], limit=400, epsabs=1e-10)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_even_and_nonnegative(self, rng):
        c = random_component(rng)
        s = np.linspace(-20, 20, 2001)
        d = kn.spectral_density(s, c)
        assert np.all(d >= 0.0)
        np.testing.assert_allclose(d, d[::-1], atol=1e-15)


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


class TestGram:
    def test_single_point(self, rng):
        p = random_params(rng, q=2)
        G = kn.gram(np.array([3.0]), np.array([3.0]), "slsm", p)
        assert G.shape == (1, 1)
        assert G[0, 0] == pytest.approx(sum(c.w for c in p.components))

    def test_symmetry_exact(self, rng):
        X = rng.uniform(0, 10, 40)
        p = random_params(rng, q=3)
        G = kn.gram(X, X, "slsm", p)
        np.testing.assert_array_equal(G, G.T)

    def test_psd_random_draws(self, rng):
        X = rng.uniform(0, 50, 200)
        for kind in ("slsm", "sm"):
            p = random_params(rng, q=3)
            G = kn.gram(X, X, kind, p)
            lam = np.linalg.eigvalsh(G)
            assert lam.min() >= -1e-8 * np.trace(G) / 200

    def test_non_finite_input_rejected(self, rng):
        p = random_params(rng, q=1)
        with pytest.raises(DataError):
            kn.gram(np.array([0.0, np.inf]), np.array([0.0]), "slsm", p)

    def test_params_must_match_point_width(self, rng):
        X = rng.uniform(0, 3, (5, 2))
        with pytest.raises(DimensionMismatchError):
            kn.gram(X, X, "slsm", random_params(rng, q=2))
        p2 = SlsmParams((SlsmComponent(1.0, (0.3, 0.4), (1.0, 1.0), (0.1, -0.1)),))
        with pytest.raises(DimensionMismatchError):
            kn.gram(X[:, 0], X[:, 0], "sm", p2)

    def test_multivariate_gram_matches_pointwise(self, rng):
        X = rng.uniform(0, 3, (6, 2))
        c = SlsmComponent(1.3, (0.3, 0.9), (1.0, math.sqrt(0.5)), (0.2, -0.4))
        p = SlsmParams((c,))
        G = kn.gram(X, X, "slsm", p)
        for i in range(6):
            for j in range(6):
                assert G[i, j] == pytest.approx(
                    kn.kernel_value(X[i] - X[j], "slsm", p), abs=1e-14)


# ---------------------------------------------------------------------------
# analytic gradients
# ---------------------------------------------------------------------------


def _fd_kernel_grad(tau, p: SlsmParams, kind: str):
    """Central finite differences over the natural parameters."""
    from dataclasses import replace

    out = []
    for i, c in enumerate(p.components):
        for name in ("w", "mu", "sigma", "gamma"):
            if name == "gamma" and kind != "slsm":
                continue
            theta = c.w if name == "w" else getattr(c, name)[0]
            h = 1e-6 * max(1.0, abs(theta))
            lo, hi_v = theta - h, theta + h
            if name in ("mu", "sigma") and lo <= 0:
                lo = theta  # fall back to forward difference at the boundary
                h_eff = h
                kp = p.with_components(
                    replace(cc, **{name: hi_v}) if j == i else cc
                    for j, cc in enumerate(p.components))
                out.append((kn.kernel_value(tau, kind, kp)
                            - kn.kernel_value(tau, kind, p)) / h_eff)
                continue
            kp = p.with_components(
                replace(cc, **{name: hi_v}) if j == i else cc
                for j, cc in enumerate(p.components))
            km = p.with_components(
                replace(cc, **{name: lo}) if j == i else cc
                for j, cc in enumerate(p.components))
            out.append((kn.kernel_value(tau, kind, kp)
                        - kn.kernel_value(tau, kind, km)) / (2.0 * h))
    return np.array(out)


def _natural_grad(tau, p: SlsmParams, kind: str):
    """The array pass's partials at one scalar lag, as a flat vector."""
    return kn.value_and_partials(np.array([tau]), kind, p.rows(kind))[1][:, 0]


class TestKernelGrad:
    def test_weight_partial_at_zero_lag(self, rng):
        p = random_params(rng, q=2)
        g = _natural_grad(0.0, p, "slsm")
        assert g[0] == 1.0    # dk/dw_1 equals the component value, 1 at tau=0
        assert g[4] == 1.0

    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            tau = float(rng.uniform(0.05, 8.0))
            kind = ("slsm", "sm", "lkp")[int(rng.integers(3))]
            p = random_params(rng, q=2)
            g = _natural_grad(tau, p, kind)
            fd = _fd_kernel_grad(tau, p, kind)
            assert np.all(np.abs(g - fd) <= 1e-5 * np.maximum(1.0, np.abs(fd)))

    def test_skew_partial_vanishes_at_origin(self):
        p = SlsmParams((SlsmComponent(1.0, 0.5, 1.0, 0.0),))
        g = _natural_grad(0.0, p, "slsm")
        assert g[3] == 0.0
