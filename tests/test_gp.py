"""Marginal likelihood, gradients, prediction, sampling, serialization."""

import json
import math

import numpy as np
import pytest
from scipy.linalg import cholesky

import skewgp.gp as gp
import skewgp.kernels as kn
import skewgp.rbcm as rbcm
import skewgp.toeplitz as tz
from skewgp.errors import DataError, DimensionMismatchError, NumericalError
from skewgp.gp import Dataset, Normalization, fit, nlml, nlml_grad, sample_prior
from skewgp.kernels import SlsmComponent, SlsmParams
from skewgp.optimize import OptConfig, transform
from skewgp.spectral import random_init

from conftest import dense_nlml, dense_predict, identity_normalization, random_params


UNIT = SlsmParams((SlsmComponent(1.0, 0.0, 1.0, 0.0),), noise_var=0.0)


def _fd_nlml_grad(data, x, layout):
    """Central differences of the NLML over the transformed vector ``x``."""
    grid = kn.Grid.of(data.X)
    fd = np.empty_like(x)
    for j in range(x.size):
        h = 1e-6 * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        fp, _ = gp.nlml_value_and_grad([data], xp, layout, grid)
        fm, _ = gp.nlml_value_and_grad([data], xm, layout, grid)
        fd[j] = (fp - fm) / (2.0 * h)
    return fd


def _field_2d(rng, n):
    """``n`` scattered 2-D points and a smooth noisy target on them."""
    X = rng.uniform(0.0, 3.0, (n, 2))
    y = 5.0 + np.cos(1.3 * X[:, 0]) * np.sin(0.8 * X[:, 1]) + 0.2 * rng.standard_normal(n)
    return Dataset(X, y)


def _rel_diff(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestDataset:
    def test_shape_checks(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 1)), np.zeros(2))
        with pytest.raises(DataError):
            Dataset(np.array([[np.nan]]), np.array([0.0]))

    def test_fingerprint_tracks_content(self):
        a = Dataset(np.arange(4.0), np.arange(4.0))
        b = Dataset(np.arange(4.0), np.arange(4.0))
        c = Dataset(np.arange(4.0), np.arange(4.0) + 1)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


def _read_points(reader, points):
    """Hand ``points`` to one reader of input points: a ``Dataset``,
    ``gram`` or a model's ``predict``."""
    n = points.size
    if reader == "Dataset":
        return Dataset(points, np.zeros(n))
    if reader == "gram":
        return kn.gram(points, points, "slsm", UNIT)
    data = Dataset(np.arange(8.0), np.sin(np.arange(8.0)))
    params = SlsmParams((SlsmComponent(1.0, 0.5, 1.0, 0.2),), noise_var=0.1)
    model = gp._model_from_params("slsm", params, data, Normalization.from_data(data),
                                  data.fingerprint())
    return model.predict(points)


@pytest.mark.parametrize("points", [np.array(5.0), np.arange(40.0).reshape(40, 1, 1)],
                         ids=["0-d", "n-1-1"])
@pytest.mark.parametrize("reader", ["Dataset", "gram", "predict"])
def test_points_neither_1d_nor_2d_are_a_data_error(reader, points):
    """A point array that is neither 1-D nor 2-D is a ``DataError`` at every
    reader, not an ``IndexError``, ``TypeError`` or broadcast error."""
    with pytest.raises(DataError, match="1-D or 2-D"):
        _read_points(reader, points)


class TestNlml:
    def test_single_zero_observation(self):
        data = Dataset(np.array([0.0]), np.array([0.0]))
        assert nlml(data, UNIT, "slsm") == pytest.approx(0.5 * math.log(2 * math.pi),
                                                         abs=1e-12)

    def test_single_unit_observation(self):
        data = Dataset(np.array([0.0]), np.array([1.0]))
        assert nlml(data, UNIT, "slsm") == pytest.approx(
            0.5 + 0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_matches_dense_oracle(self, rng):
        X = np.sort(rng.uniform(0, 20, 50))
        y = rng.standard_normal(50)
        data = Dataset(X, y)
        for kind in ("slsm", "sm", "lkp"):
            p = random_params(rng, q=3, noise=0.3)
            assert nlml(data, p, kind) == pytest.approx(dense_nlml(data, p, kind),
                                                        abs=1e-8)

    def test_terms_sum_to_total(self, rng):
        data = Dataset(np.arange(20.0), rng.standard_normal(20))
        p = random_params(rng, q=2, noise=0.2)
        L, _, alpha = gp.factorize(data, "slsm", p)
        fit_t = 0.5 * float(data.y @ alpha)
        complexity = float(np.sum(np.log(np.diag(L))))
        # zero targets and a unit factor leave only the constant term
        const = gp.nlml_from_factor(np.eye(20), np.zeros(20), np.zeros(20))
        assert fit_t + complexity + const == nlml(data, p, "slsm")
        assert const == pytest.approx(10.0 * math.log(2 * math.pi))


class TestCholWithJitter:
    def test_overflowing_trace_raises_numerical_error(self):
        # entries are finite but their trace is not, so no jitter scale exists
        with pytest.raises(NumericalError):
            gp.chol_with_jitter(np.diag([1e308, 1e308]), 0.0)

    def test_infinite_entry_raises_numerical_error(self):
        K = np.eye(3)
        K[2, 0] = np.inf
        with pytest.raises(NumericalError, match="non-finite"):
            gp.chol_with_jitter(K, 0.1)

    @pytest.mark.parametrize("escalated", [False, True])
    def test_factor_of_k_plus_noise_and_jitter_leaves_k_unchanged(self, rng, escalated):
        """L is bit for bit the factor of K + (noise + jitter) I, at rung 0
        and at an escalated rung (a rank-one K with no noise takes the
        first nonzero rung, 1e-10 of its unit trace scale); K is not
        written."""
        n = 50
        A = rng.standard_normal((n, n))
        K, noise = (np.ones((n, n)), 0.0) if escalated else (A @ A.T / n, 0.1)
        before = K.copy()
        L, jitter = gp.chol_with_jitter(K, noise)
        assert np.array_equal(K, before)
        assert jitter == (gp.JITTER_LADDER[1] if escalated else 0.0)
        assert np.array_equal(L, cholesky(K + (noise + jitter) * np.eye(n), lower=True))


class TestNlmlGrad:
    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            X = np.sort(rng.uniform(0, 15, 30))
            p = random_params(rng, q=3, noise=0.3)
            y = np.sin(0.7 * X) + 0.3 * rng.standard_normal(30)
            data = Dataset(X, y)
            kind = ("slsm", "sm", "lkp")[int(rng.integers(3))]
            g = nlml_grad(data, p, kind)
            fd = _fd_nlml_grad(data, *transform(p, kind))
            assert np.all(np.abs(g - fd) <= 1e-5 * np.maximum(1.0, np.abs(fd)))

    @pytest.mark.parametrize("kind", ["slsm", "sm", "lkp"])
    def test_multivariate_matches_finite_differences(self, rng, kind):
        data = _field_2d(rng, 25)
        for seed in range(3):
            p = random_init(2, kind, y_var=1.0, freq_max=2.0, seed=seed, p=2)
            g = nlml_grad(data, p, kind)
            fd = _fd_nlml_grad(data, *transform(p, kind))
            assert g.size == 2 * (1 + 2 * (3 if kind == "slsm" else 2)) + 1
            assert np.all(np.abs(g - fd) <= 1e-5 * np.maximum(1.0, np.abs(fd)))

    def test_noise_gradient_small_at_optimum(self, rng):
        y = rng.standard_normal(60)
        data = Dataset(np.arange(60.0), y)
        init = SlsmParams((SlsmComponent(0.1, 1.0, 1.0, 0.0),), noise_var=1.0)
        model = fit(data, init, "slsm", OptConfig(max_iters=200))
        g = nlml_grad(model.data, model.params, "slsm")
        assert abs(g[-1]) < 1e-3    # noise slot is last

    def test_duplicate_components_get_identical_blocks(self, rng):
        c = SlsmComponent(1.2, 0.8, 0.6, 0.4)
        p = SlsmParams((c, c), noise_var=0.1)
        data = Dataset(np.arange(25.0), np.sin(0.8 * np.arange(25.0)))
        g = nlml_grad(data, p, "slsm")
        np.testing.assert_allclose(g[:4], g[4:8], rtol=1e-12)


class TestPredict:
    def _model(self, data, params, kind="slsm"):
        return gp._model_from_params(kind, params, data,
                                     identity_normalization(data.p),
                                     data.fingerprint())

    def test_interpolates_noise_free_data(self, rng):
        X = np.arange(10.0)
        p = SlsmParams((SlsmComponent(1.0, 0.5, 0.4, 0.2),), noise_var=0.0)
        y = sample_prior("slsm", p, X, 1, seed=3)[0]
        model = self._model(Dataset(X, y), p)
        assert model.jitter_used <= 1e-8
        pred = model.predict(X)
        np.testing.assert_allclose(pred.mean, y, atol=1e-6)
        assert np.all(pred.var <= 1e-6)

    def test_reverts_to_prior_far_away(self, rng):
        p = SlsmParams((SlsmComponent(2.0, 0.5, 0.6, 0.1),), noise_var=0.01)
        X = np.arange(20.0)
        model = self._model(Dataset(X, np.sin(X)), p)
        pred = model.predict(np.array([1e5]))
        assert pred.var[0] == pytest.approx(2.0, abs=1e-3)
        assert pred.mean[0] == pytest.approx(0.0, abs=1e-3)

    def test_matches_dense_oracle(self, rng):
        X = np.sort(rng.uniform(0, 15, 40))
        y = rng.standard_normal(40)
        data = Dataset(X, y)
        p = random_params(rng, q=2, noise=0.4)
        model = self._model(data, p)
        Xs = rng.uniform(0, 15, 7)
        pred = model.predict(Xs)
        mean_o, var_o = dense_predict(data, p, "slsm", Xs)
        np.testing.assert_allclose(pred.mean, mean_o, atol=1e-8)
        np.testing.assert_allclose(pred.var, var_o, atol=1e-8)

    def test_observation_noise_flag_adds_noise(self, rng):
        data = Dataset(np.arange(10.0), rng.standard_normal(10))
        p = random_params(rng, q=2, noise=0.25)
        model = self._model(data, p)
        latent = model.predict(np.array([3.5]))
        noisy = model.predict(np.array([3.5]), observation_noise=True)
        assert noisy.var[0] == pytest.approx(latent.var[0] + 0.25, abs=1e-12)

    def test_variance_bounded_by_prior(self, rng):
        data = Dataset(np.arange(30.0), rng.standard_normal(30))
        p = random_params(rng, q=3, noise=0.1)
        model = self._model(data, p)
        pred = model.predict(rng.uniform(-50, 80, 100))
        prior = kn.prior_variance(p)
        assert np.all(pred.var <= prior + 1e-8)

    def test_dimension_mismatch(self, rng):
        data = Dataset(np.arange(10.0), rng.standard_normal(10))
        model = self._model(data, random_params(rng, q=1))
        with pytest.raises(DimensionMismatchError):
            model.predict(np.zeros((3, 2)))

    def test_non_finite_queries_rejected(self, rng):
        data = Dataset(np.arange(10.0), rng.standard_normal(10))
        model = self._model(data, random_params(rng, q=1))
        with pytest.raises(DataError):
            model.predict(np.array([1.0, np.inf]))


class TestFit:
    def test_params_width_must_match_data(self, rng):
        data = _field_2d(rng, 12)
        with pytest.raises(DimensionMismatchError):
            fit(data, random_params(rng, q=2), "slsm", OptConfig(max_iters=2))
        univariate = Dataset(data.X[:, 0], data.y)
        init = random_init(2, "slsm", y_var=1.0, freq_max=2.0, seed=0, p=2)
        with pytest.raises(DimensionMismatchError):
            fit(univariate, init, "slsm", OptConfig(max_iters=2))

    @pytest.mark.parametrize("entry", ["fit", "factorize", "nlml_grad", "rbcm_fit"])
    def test_width_mismatch_raises_at_every_params_entry(self, rng, entry):
        """Every entry that takes a parameters object checks its P against
        the points': P = 2 parameters on grids either side of the Toeplitz
        crossover, evaluated at lags, and P = 1 parameters on P = 2 points."""
        call = {"fit": lambda d, p: fit(d, p, "slsm", OptConfig(max_iters=2)),
                "factorize": lambda d, p: gp.factorize(d, "slsm", p),
                "nlml_grad": lambda d, p: nlml_grad(d, p, "slsm"),
                "rbcm_fit": lambda d, p: rbcm.rbcm_fit(d, 2, "slsm", p,
                                                       OptConfig(max_iters=2))}[entry]
        p2 = random_init(2, "slsm", y_var=1.0, freq_max=2.0, seed=0, p=2)
        for n in (40, 2 * tz.MIN_N):
            X = np.arange(float(n))
            with pytest.raises(DimensionMismatchError):
                call(Dataset(X, np.sin(0.3 * X)), p2)
        with pytest.raises(DimensionMismatchError):
            call(_field_2d(rng, 40), random_params(rng, q=2))

    def test_reduces_nlml_and_records_jitter(self, rng):
        X = np.arange(40.0)
        y = np.sin(0.6 * X) + 0.1 * rng.standard_normal(40)
        data = Dataset(X, y)
        init = SlsmParams((SlsmComponent(1.0, 0.5, 0.3, 0.1),), noise_var=0.5)
        model = fit(data, init, "slsm", OptConfig(max_iters=50))
        s2 = model.normalization.y_std**2
        x0, layout = transform(gp.scale_variances(init, lambda v: v / s2), "slsm")
        f0, _ = gp.nlml_value_and_grad([model.data], x0, layout, kn.Grid.of(model.data.X))
        assert model.nlml_internal <= f0
        assert model.jitter_used >= 0.0

    def test_failed_evaluation_backs_off(self, rng, monkeypatch):
        """A Cholesky that fails at the first trial step makes that
        evaluation inf: the line search backs off and the fit still ends
        at a finite f below its start."""
        X = np.arange(40.0)
        data = Dataset(X, np.sin(0.6 * X) + 0.1 * rng.standard_normal(40))
        init = SlsmParams((SlsmComponent(1.0, 0.5, 0.3, 0.1),), noise_var=0.5)
        factor, calls = gp.chol_with_jitter, []

        def failing_second(K, noise_var):
            calls.append(None)
            if len(calls) == 2:
                raise NumericalError("injected")
            return factor(K, noise_var)

        monkeypatch.setattr(gp, "chol_with_jitter", failing_second)
        model = fit(data, init, "slsm", OptConfig(max_iters=10))
        res = model.opt_result
        assert len(calls) > 2 and res.n_evals > 2
        assert np.isfinite(res.f) and res.f < res.trace[0].f

    def test_cholesky_consistency_invariants(self, rng):
        X = np.arange(30.0)
        data = Dataset(X, rng.standard_normal(30))
        p = random_params(rng, q=2, noise=0.2)
        model = gp._model_from_params("slsm", p, data, identity_normalization(1),
                                      data.fingerprint())
        kt = (kn.gram(X, X, "slsm", p) + (p.noise_var + model.jitter_used) * np.eye(30))
        recon = model.chol_L @ model.chol_L.T
        assert np.max(np.abs(recon - kt)) <= 1e-8 * np.trace(kt)
        resid = kt @ model.alpha - data.y
        assert np.linalg.norm(resid) <= 1e-6 * np.linalg.norm(data.y)

    def test_normalization_round_trip(self, rng):
        X = np.arange(25.0)
        y = 100.0 + 13.0 * np.sin(0.5 * X)
        data = Dataset(X, y)
        norm = Normalization.from_data(data)
        p_norm = random_params(rng, q=2, noise=0.1)
        model_n = gp._model_from_params("slsm", p_norm, norm.apply(data), norm,
                                        data.fingerprint())
        # equivalent raw-scale model: weights and noise scaled by y_std^2
        s2 = norm.y_std**2
        p_raw = p_norm.with_components(
            SlsmComponent(c.w * s2, c.mu, c.sigma, c.gamma) for c in p_norm.components)
        p_raw = SlsmParams(p_raw.components, noise_var=p_norm.noise_var * s2)
        shifted = Dataset(X, y - norm.y_mean)
        model_r = gp._model_from_params("slsm", p_raw, shifted,
                                        identity_normalization(1),
                                        shifted.fingerprint())
        Xs = rng.uniform(0, 25, 11)
        np.testing.assert_allclose(model_n.predict(Xs).mean,
                                   model_r.predict(Xs).mean + norm.y_mean,
                                   atol=1e-10)

    def test_denormalized_params_scale_back(self, rng):
        X = np.arange(30.0)
        y = 50.0 + 10.0 * np.sin(0.7 * X) + rng.standard_normal(30)
        init = SlsmParams((SlsmComponent(np.var(y), 0.7, 0.3, 0.0),),
                          noise_var=0.1 * np.var(y))
        model = fit(Dataset(X, y), init, "slsm", OptConfig(max_iters=30))
        s2 = model.normalization.y_std**2
        den = model.denormalized_params()
        assert den.noise_var == pytest.approx(model.params.noise_var * s2)
        for ci, cd in zip(model.params.components, den.components):
            assert cd.w == pytest.approx(ci.w * s2)
            assert cd.mu == ci.mu and cd.sigma == ci.sigma and cd.gamma == ci.gamma


class TestSamplePrior:
    def test_empirical_covariance_converges(self, rng):
        p = SlsmParams((SlsmComponent(1.5, 0.8, 0.5, 0.3),), noise_var=0.0)
        X = np.array([0.0, 1.0, 2.5])
        K = kn.gram(X, X, "slsm", p)
        draws = sample_prior("slsm", p, X, 10_000, seed=7)
        emp = draws.T @ draws / draws.shape[0]
        bound = 5.0 * np.max(K) / math.sqrt(10_000)
        assert np.max(np.abs(emp - K)) < bound

    def test_seed_determinism(self, rng):
        p = random_params(rng, q=2, noise=0.0)
        X = np.linspace(0, 5, 20)
        a = sample_prior("slsm", p, X, 5, seed=11)
        b = sample_prior("slsm", p, X, 5, seed=11)
        np.testing.assert_array_equal(a, b)
        c = sample_prior("slsm", p, X, 5, seed=12)
        assert np.any(a != c)

    def test_zero_weight_kernel_samples_near_zero(self):
        p = SlsmParams((SlsmComponent(0.0, 1.0, 1.0, 0.0),), noise_var=0.0)
        draws = sample_prior("slsm", p, np.arange(5.0), 100, seed=0)
        assert np.max(np.abs(draws)) < 1e-4    # only ladder jitter remains


class TestSerialization:
    def test_round_trip_bit_exact(self, rng):
        X = np.arange(20.0)
        y = np.sin(0.4 * X) + 0.2 * rng.standard_normal(20)
        data = Dataset(X, y)
        init = SlsmParams((SlsmComponent(1.0, 0.4, 0.3, 0.1),
                           SlsmComponent(0.5, 1.1, 0.2, -0.2)),
                          noise_var=0.2)
        model = fit(data, init, "slsm", OptConfig(max_iters=20))
        text = gp.model_to_json(model)
        clone = gp.model_from_json(text, data)
        assert clone.kind == model.kind
        for a, b in zip(clone.params.components, model.params.components):
            assert (a.w, a.mu, a.sigma, a.gamma) == (b.w, b.mu, b.sigma, b.gamma)
        assert clone.params.noise_var == model.params.noise_var
        assert gp.model_to_json(clone) == text

    def test_multivariate_round_trip(self, rng):
        # P > 1 scales are written as sigma^2 and read back as sigma
        data = _field_2d(rng, 30)
        init = random_init(2, "slsm", float(np.var(data.y)), freq_max=2.0, seed=1, p=2)
        model = fit(data, init, "slsm", OptConfig(max_iters=15))
        clone = gp.model_from_json(gp.model_to_json(model), data)
        Xq = rng.uniform(0.0, 4.0, (17, 2))
        for obs in (False, True):
            a = model.predict(Xq, observation_noise=obs)
            b = clone.predict(Xq, observation_noise=obs)
            assert _rel_diff(b.mean, a.mean) <= 1e-12
            assert _rel_diff(b.var, a.var) <= 1e-12

    def test_fingerprint_mismatch_rejected(self, rng):
        data = Dataset(np.arange(10.0), rng.standard_normal(10))
        other = Dataset(np.arange(10.0), rng.standard_normal(10))
        model = gp._model_from_params("slsm", random_params(rng, q=1, noise=0.1),
                                      data, identity_normalization(1),
                                      data.fingerprint())
        with pytest.raises(DataError):
            gp.model_from_json(gp.model_to_json(model), other)

    def test_schema_version_checked(self, rng):
        data = Dataset(np.arange(5.0), rng.standard_normal(5))
        model = gp._model_from_params("slsm", random_params(rng, q=1, noise=0.1),
                                      data, identity_normalization(1),
                                      data.fingerprint())
        doc = gp.model_to_dict(model)
        doc["schema_version"] = 99
        with pytest.raises(DataError):
            gp.model_from_dict(doc, data)

    @pytest.mark.parametrize("case", ["unknown_kernel_type", "variant_mismatch"])
    def test_kernel_type_checked(self, rng, case):
        """An unknown ``kernel_type``, or a baseline whose variant is not its
        ``kernel_type``, raises ``DataError`` before any evaluation."""
        data = Dataset(np.arange(20.0), rng.standard_normal(20))
        if case == "unknown_kernel_type":
            kind, params = "slsm", random_params(rng, q=1, noise=0.1)
        else:
            kind, params = "se", kn.BaselineKernelParams("se", 1.0, 2.0, noise_var=0.1)
        model = gp._model_from_params(kind, params, data, identity_normalization(1),
                                      data.fingerprint())
        doc = gp.model_to_dict(model)
        if case == "unknown_kernel_type":
            doc["kernel_type"] = "foo"
        else:
            doc["baseline"]["variant"] = "rq"
        with pytest.raises(DataError, match="kernel_type"):
            gp.model_from_dict(doc, data)
