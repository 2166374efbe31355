"""Partitioned training and robust product-of-experts prediction."""

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

import skewgp.kernels as kn
import skewgp.rbcm as rbcm
from skewgp.errors import DataError, DimensionMismatchError
from skewgp.gp import Dataset, factorize, fit, latent_moments, nlml, sample_prior
from skewgp.kernels import BaselineKernelParams, SlsmComponent, SlsmParams
from skewgp.optimize import OptConfig
from skewgp.spectral import random_init
from skewgp.rbcm import (
    ExpertEnsemble,
    _Expert,
    _expert_factors,
    ensemble_from_dict,
    ensemble_to_dict,
    partition,
    rbcm_fit,
    rbcm_predict,
)

from conftest import identity_normalization, random_params, traced_peak


@pytest.fixture(scope="module")
def series():
    gen = SlsmParams((SlsmComponent(1.0, 0.6, 0.15, 0.1),), noise_var=0.05)
    X = np.linspace(0, 40, 200)
    y = sample_prior("slsm", gen, X, 1, seed=13)[0]
    y = y + 0.05**0.5 * np.random.default_rng(14).standard_normal(200)
    return Dataset(X, y)


def _ensemble_2d(rng, n=30, m=2, max_iters=3):
    X = rng.uniform(0.0, 5.0, (n, 2))
    y = 3.0 + np.cos(X[:, 0]) * np.sin(0.7 * X[:, 1]) + 0.1 * rng.standard_normal(n)
    data = Dataset(X, y)
    init = random_init(2, "slsm", float(np.var(y)), freq_max=2.0, seed=0, p=2)
    return data, rbcm_fit(data, m, "slsm", init, OptConfig(max_iters=max_iters))


def _manual_ensemble(data, params, subsets, beta_mode="entropy"):
    norm = identity_normalization(data.p)
    experts = [
        _Expert(indices=np.asarray(idx), data=Dataset(data.X[idx], data.y[idx]))
        for idx in subsets
    ]
    ens = ExpertEnsemble(kind="slsm", params=params, normalization=norm,
                         experts=experts, beta_mode=beta_mode,
                         train_fingerprint=data.fingerprint())
    for e in experts:
        _expert_factors("slsm", params, e)
    return ens


class TestPartition:
    def test_contiguous_blocks(self):
        parts = partition(10, 2)
        np.testing.assert_array_equal(parts[0], np.arange(5))
        np.testing.assert_array_equal(parts[1], np.arange(5, 10))

    def test_disjoint_cover(self):
        parts = partition(103, 7)
        # consecutive blocks in time order cover every index exactly once
        np.testing.assert_array_equal(np.concatenate(parts), np.arange(103))
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_too_many_subsets_rejected(self):
        with pytest.raises(DataError):
            partition(3, 4)
        with pytest.raises(DataError):
            partition(3, 0)


class TestRbcmFit:
    def test_m1_matches_full_gp(self, series):
        init = SlsmParams((SlsmComponent(np.var(series.y), 0.6, 0.2, 0.0),),
                          noise_var=0.1 * np.var(series.y))
        cfg = OptConfig(max_iters=25, seed=0)
        full = fit(series, init, "slsm", cfg)
        ens = rbcm_fit(series, 1, "slsm", init, cfg)
        for a, b in zip(ens.params.components, full.params.components):
            assert (a.w, a.mu, a.sigma, a.gamma) == (b.w, b.mu, b.sigma, b.gamma)
        assert ens.params.noise_var == full.params.noise_var

    def test_joint_nlml_matches_per_subset_oracle(self, series, rng):
        p = random_params(rng, q=2, noise=0.2)
        subsets = partition(series.n, 4)
        ens = _manual_ensemble(series, p, subsets)
        total = ens.nlml_internal
        oracle = sum(
            nlml(Dataset(series.X[idx], series.y[idx]), p, "slsm") for idx in subsets)
        assert total == pytest.approx(oracle, abs=1e-10)

    def test_pool_sized_to_cpus_and_results_unchanged(self, series, monkeypatch):
        workers = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(rbcm, "ThreadPoolExecutor", RecordingPool)
        init = SlsmParams((SlsmComponent(np.var(series.y), 0.6, 0.2, 0.1),),
                          noise_var=0.1 * np.var(series.y))
        fits = []
        for cpus in (1, 3):
            monkeypatch.setattr(rbcm.os, "cpu_count", lambda: cpus)
            fits.append(rbcm_fit(series, 4, "slsm", init, OptConfig(max_iters=5, seed=0)))
        assert workers == [1, 3]
        assert fits[0].params == fits[1].params
        np.testing.assert_array_equal(fits[0].opt_result.x, fits[1].opt_result.x)


class TestRbcmPredict:
    def test_identical_full_experts_collapse_to_exact_gp(self, series, rng):
        from skewgp.gp import _model_from_params

        p = random_params(rng, q=2, noise=0.3)
        full_idx = np.arange(series.n)
        ens = _manual_ensemble(series, p, [full_idx] * 3, beta_mode="uniform")
        full = _model_from_params("slsm", p, series,
                                  identity_normalization(1), series.fingerprint())
        grid = np.linspace(0, 40, 60)
        agg = ens.predict(grid)
        exact = full.predict(grid)
        np.testing.assert_allclose(agg.mean, exact.mean, atol=1e-8)
        np.testing.assert_allclose(agg.var, exact.var, atol=1e-8)

    def test_far_point_reverts_to_prior(self, series, rng):
        p = random_params(rng, q=2, noise=0.1)
        ens = _manual_ensemble(series, p, partition(series.n, 4))
        pred = ens.predict(np.array([1e6]), observation_noise=True)
        prior = sum(c.w for c in p.components) + p.noise_var
        assert pred.var[0] == pytest.approx(prior, rel=1e-6)
        assert pred.mean[0] == pytest.approx(0.0, abs=1e-6)

    def test_variance_strictly_positive(self, series, rng):
        p = random_params(rng, q=2, noise=0.1)
        ens = _manual_ensemble(series, p, partition(series.n, 8))
        pred = ens.predict(np.linspace(-10, 60, 200), observation_noise=True)
        assert np.all(pred.var > 0.0)

    def test_expert_order_invariance(self, series, rng):
        p = random_params(rng, q=2, noise=0.2)
        ens = _manual_ensemble(series, p, partition(series.n, 5))
        grid = np.linspace(0, 40, 37)
        base = ens.predict(grid)
        ens.experts.reverse()
        flipped = ens.predict(grid)
        np.testing.assert_allclose(flipped.mean, base.mean, atol=1e-12)
        np.testing.assert_allclose(flipped.var, base.var, atol=1e-12)

    def test_uniform_betas_sum_to_one(self, series, rng):
        # with beta_i = 1/M the prior-correction term vanishes
        p = random_params(rng, q=1, noise=0.2)
        ens = _manual_ensemble(series, p, partition(series.n, 4),
                               beta_mode="uniform")
        pred = rbcm_predict(ens, np.array([20.0]))
        assert np.isfinite(pred.var[0]) and pred.var[0] > 0


GRID_PARAMS = SlsmParams((SlsmComponent(1.0, 0.05, 0.01, 0.2),
                          SlsmComponent(0.5, 0.3, 0.03, -0.1)), noise_var=0.1)


def _grid_ensemble(X, m, params=GRID_PARAMS):
    """M experts over the points ``X`` with their final factors at ``params``."""
    X = np.asarray(X, dtype=float)
    data = Dataset(X, np.sin(0.05 * np.arange(len(X))) + np.cos(0.3 * np.arange(len(X))))
    experts = rbcm._experts(data, partition(data.n, m))
    return rbcm._ensemble_from_params("slsm", params, identity_normalization(data.p),
                                      experts, data.fingerprint())


def _group_sizes(ens):
    """The sizes of the sets of experts that share one factor, in order."""
    return list(Counter(id(e.chol_L) for e in ens.experts).values())


def _moments(ens, Xq):
    Xs_n = ens.normalization.apply_queries(Xq)
    return rbcm._expert_moments(ens, Xs_n)


def _moments_alone(ens, Xq):
    """The reference: each expert factorized alone with ``factorize``, its
    (m,) moments from ``latent_moments``, stacked to (M, m)."""
    Xs_n = ens.normalization.apply_queries(Xq)
    out = []
    for e in ens.experts:
        L, _, alpha = factorize(e.data, ens.kind, ens.params)
        out.append(latent_moments(Xs_n, SimpleNamespace(data=e.data, chol_L=L, alpha=alpha),
                                  ens.kind, ens.params))
    mean, var = zip(*out)
    return np.array(mean), np.array(var)


class TestGroupedPredict:
    """Experts on one grid share the factor of the first, and predict takes
    each distinct query offset q - d_e once per group: bit for bit the
    moments of each expert factorized and predicted alone wherever the
    shifted lags are exact."""

    @pytest.mark.parametrize("m, sizes", [(8, [8]), (7, [5, 2])])
    def test_uniform_grid_is_bit_equal(self, m, sizes):
        """n = 2000 on 0..1999: M = 8 experts of 250 are one group; M = 7
        are two, five experts of 286 and two of 285."""
        ens = _grid_ensemble(np.arange(2000.0), m)
        assert _group_sizes(ens) == sizes
        for e in ens.experts:
            L, jitter, alpha = factorize(e.data, "slsm", GRID_PARAMS)
            assert np.array_equal(e.chol_L, L) and e.jitter_used == jitter
            assert np.array_equal(e.alpha, alpha)
        Xq = np.arange(0.0, 2100.0, 0.5)
        for a, b in zip(_moments(ens, Xq), _moments_alone(ens, Xq)):
            assert np.array_equal(a, b)

    def test_descending_grid_is_bit_equal(self):
        ens = _grid_ensemble(np.arange(600.0)[::-1], 4)
        assert _group_sizes(ens) == [4]
        Xq = np.arange(-20.0, 620.0, 0.5)
        for a, b in zip(_moments(ens, Xq), _moments_alone(ens, Xq)):
            assert np.array_equal(a, b)

    def test_rounded_lags_agree_to_rounding(self):
        """On 1949 + i/12 the shifts 250/12 round, and so do the shifted
        lags and the experts' own K: mean and variance agree to 1e-10 of
        their largest value."""
        X = 1949.0 + np.arange(2000) / 12.0
        ens = _grid_ensemble(X, 8)
        assert _group_sizes(ens) == [8]
        Xq = np.concatenate([X, X[-1] + np.arange(1, 49) / 24.0])
        (mean, var), (ref_mean, ref_var) = _moments(ens, Xq), _moments_alone(ens, Xq)
        assert np.max(np.abs(mean - ref_mean)) <= 1e-10 * np.max(np.abs(ref_mean))
        assert np.max(np.abs(var - ref_var)) <= 1e-10 * np.max(np.abs(ref_var))

    def test_off_lattice_queries_share_nothing(self, rng, monkeypatch):
        """Scattered queries: every q - d_e is distinct, so each expert is
        predicted alone and the grams take all M m rows, in blocks of m."""
        ens = _grid_ensemble(np.arange(2000.0), 8)
        Xq = rng.uniform(-50.0, 2050.0, 300)
        alone = _moments_alone(ens, Xq)
        rows, gram = [], kn.gram
        monkeypatch.setattr(kn, "gram", lambda xa, *args: rows.append(len(xa)) or gram(xa, *args))
        grouped = _moments(ens, Xq)
        assert rows == [300] * 8
        for a, b in zip(grouped, alone):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_each_expert_dots_only_its_own_offsets(self, rng, monkeypatch):
        """M = 12 experts of 100 and 250 scattered queries: 3,000 distinct
        offsets in 12 blocks of m = 250 rows.  The means take at most two
        row dots per (query, expert), 6,000, not one per (offset, expert),
        36,000, and they are (M, m)."""
        ens = _grid_ensemble(np.arange(1200.0), 12)
        Xq = rng.uniform(-50.0, 1250.0, 250)
        alone = _moments_alone(ens, Xq)
        dots, einsum = [], np.einsum

        def counted(spec, *operands, **kw):
            if spec == "ij,j->i":
                dots.append(len(operands[0]))
            return einsum(spec, *operands, **kw)

        monkeypatch.setattr(np, "einsum", counted)
        grouped = _moments(ens, Xq)
        assert 12 * 250 <= sum(dots) <= 2 * 12 * 250
        for a, b in zip(grouped, alone):
            assert a.shape == (12, 250)
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_a_repeated_offset_keeps_the_group_call(self, rng, monkeypatch):
        """M = 12 experts of 100, 250 scattered queries and two on the
        lattice 100 apart, whose offsets repeat 11 times: one group call
        takes the 3,013 distinct offsets in blocks of m = 252 rows, and each
        expert, which fills a fifth of a block's span, is dotted at its own
        rows gathered, at most twice its (query, expert) rows.  q - d_e can
        round where q - t_e,j did not: the moments agree to 1e-12."""
        ens = _grid_ensemble(np.arange(1200.0), 12)
        Xq = np.concatenate([rng.uniform(-50.0, 1250.0, 250), [10.0, 110.0]])
        alone = _moments_alone(ens, Xq)
        rows, dots, gram, einsum = [], [], kn.gram, np.einsum

        def counted(spec, *operands, **kw):
            if spec == "ij,j->i":
                dots.append(len(operands[0]))
            return einsum(spec, *operands, **kw)

        monkeypatch.setattr(kn, "gram", lambda xa, *args: rows.append(len(xa)) or gram(xa, *args))
        monkeypatch.setattr(np, "einsum", counted)
        grouped = _moments(ens, Xq)
        assert rows == [252] * 11 + [241]
        assert 12 * 252 <= sum(dots) <= 2 * 12 * 252
        for a, b in zip(grouped, alone):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_unshared_offsets_are_each_expert_alone(self, rng):
        """32 experts of 63 and 2,000 scattered queries: nothing repeats, and
        the moments are bit for bit each expert's factorized alone."""
        ens = _grid_ensemble(np.arange(32 * 63.0), 32)
        Xq = rng.uniform(-50.0, 2066.0, 2000)
        assert _group_sizes(ens) == [32]
        for a, b in zip(_moments(ens, Xq), _moments_alone(ens, Xq)):
            assert np.array_equal(a, b)

    def test_unshared_offsets_hold_one_experts_working_set(self, rng):
        """32 experts of 63 at 20,000 scattered queries: the traced peak is
        the per-expert path's, the (M, m) results and one expert's block,
        up to 64 KiB of the groups' bookkeeping; holding the group's (M, m)
        offsets, sort and reads through its blocks took twice that."""
        ens = _grid_ensemble(np.arange(32 * 63.0), 32)
        Xs_n = ens.normalization.apply_queries(rng.uniform(-50.0, 2066.0, 20000))

        def per_expert():
            means, var = np.empty((32, len(Xs_n))), np.empty((32, len(Xs_n)))
            for i, e in enumerate(ens.experts):
                means[i], var[i] = latent_moments(Xs_n, e, ens.kind, ens.params)

        peak = traced_peak(lambda: rbcm._expert_moments(ens, Xs_n))
        assert peak <= traced_peak(per_expert) + (1 << 16)

    def test_group_gram_sees_the_distinct_offsets(self, monkeypatch):
        """M = 8 experts of 250 and 4000 half-step queries: 32,000 (query,
        expert) rows hold 7,500 distinct offsets, which the one group's gram
        takes in blocks of at most m = 4000 rows."""
        ens = _grid_ensemble(np.arange(2000.0), 8)
        Xq = np.arange(0.0, 2000.0, 0.5)
        rows, gram = [], kn.gram
        monkeypatch.setattr(kn, "gram", lambda xa, *args: rows.append(len(xa)) or gram(xa, *args))
        _moments(ens, Xq)
        assert rows == [4000, 3500]

    def test_scattered_experts_are_groups_of_one(self, rng):
        data, ens = _ensemble_2d(rng, n=40, m=3, max_iters=3)
        assert _group_sizes(ens) == [1, 1, 1]
        Xq = rng.uniform(0.0, 6.0, (19, 2))
        for a, b in zip(_moments(ens, Xq), _moments_alone(ens, Xq)):
            assert np.array_equal(a, b)

    def test_round_trip_keeps_the_shared_factor(self):
        ens = _grid_ensemble(np.arange(2000.0), 7)
        data = Dataset(np.concatenate([e.data.X for e in ens.experts]),
                       np.concatenate([e.data.y for e in ens.experts]))
        clone = ensemble_from_dict(ensemble_to_dict(ens), data)
        assert _group_sizes(clone) == [5, 2]
        Xq = np.arange(0.0, 2100.0, 0.5)
        for obs in (False, True):
            a, b = ens.predict(Xq, obs), clone.predict(Xq, obs)
            assert np.array_equal(a.mean, b.mean) and np.array_equal(a.var, b.var)


class TestQueryChecks:
    def test_width_and_values_checked(self, rng):
        _, ens = _ensemble_2d(rng)
        for width in (1, 3):
            with pytest.raises(DimensionMismatchError):
                rbcm_predict(ens, np.zeros((4, width)))
        with pytest.raises(DataError):
            rbcm_predict(ens, np.array([[0.0, np.nan]]))
        assert rbcm_predict(ens, np.zeros((4, 2))).mean.shape == (4,)


class TestEnsembleSerialization:
    def test_round_trip(self, series):
        init = SlsmParams((SlsmComponent(np.var(series.y), 0.6, 0.2, 0.1),),
                          noise_var=0.1 * np.var(series.y))
        ens = rbcm_fit(series, 4, "slsm", init, OptConfig(max_iters=10, seed=0))
        doc = ensemble_to_dict(ens)
        # shared parameters appear once; per-expert records carry only indices
        # and the jitter actually used
        assert "components" in doc and len(doc["experts"]) == 4
        assert set(doc["experts"][0]) == {"indices", "jitter_used"}
        clone = ensemble_from_dict(doc, series)
        grid = np.linspace(0, 40, 23)
        np.testing.assert_allclose(clone.predict(grid).mean,
                                   ens.predict(grid).mean, atol=1e-12)

    def test_multivariate_round_trip(self, rng):
        data, ens = _ensemble_2d(rng, n=40, m=3, max_iters=8)
        clone = ensemble_from_dict(ensemble_to_dict(ens), data)
        Xq = rng.uniform(0.0, 6.0, (19, 2))
        for obs in (False, True):
            a = ens.predict(Xq, observation_noise=obs)
            b = clone.predict(Xq, observation_noise=obs)
            assert np.max(np.abs(b.mean - a.mean)) <= 1e-12 * np.max(np.abs(a.mean))
            assert np.max(np.abs(b.var - a.var)) <= 1e-12 * np.max(np.abs(a.var))

    def test_invalid_beta_mode_rejected(self, series, rng):
        p = random_params(rng, q=1, noise=0.2)
        with pytest.raises(DataError):
            _manual_ensemble(series, p, partition(series.n, 2), beta_mode="softmax")
        data, ens = _ensemble_2d(rng)
        doc = ensemble_to_dict(ens)
        doc["rbcm"]["beta_mode"] = "softmax"
        with pytest.raises(DataError, match="beta_mode"):
            ensemble_from_dict(doc, data)

    @pytest.mark.parametrize("bad", [99, 40, -1])
    def test_expert_indices_out_of_range_rejected(self, rng, bad):
        data, ens = _ensemble_2d(rng, n=40)
        doc = ensemble_to_dict(ens)
        doc["experts"][1]["indices"][-1] = bad
        with pytest.raises(DataError, match="indices"):
            ensemble_from_dict(doc, data)

    def test_non_integral_expert_index_rejected(self, rng):
        data, ens = _ensemble_2d(rng, n=40)
        doc = ensemble_to_dict(ens)
        doc["experts"][0]["indices"][0] = 1.7
        with pytest.raises(DataError, match="integers"):
            ensemble_from_dict(doc, data)

    def test_index_used_by_two_experts_rejected(self, rng):
        data, ens = _ensemble_2d(rng, n=40)
        doc = ensemble_to_dict(ens)
        doc["experts"][1]["indices"][0] = doc["experts"][0]["indices"][0]
        with pytest.raises(DataError, match="disjoint"):
            ensemble_from_dict(doc, data)

    @pytest.mark.parametrize("case", ["unknown_kernel_type", "variant_mismatch"])
    def test_kernel_type_checked(self, series, case):
        """An unknown ``kernel_type``, or a baseline whose variant is not its
        ``kernel_type``, raises ``DataError`` before any expert is rebuilt."""
        if case == "unknown_kernel_type":
            kind, init = "slsm", SlsmParams((SlsmComponent(1.0, 0.6, 0.2, 0.0),), noise_var=0.1)
        else:
            kind, init = "se", BaselineKernelParams("se", 1.0, 2.0, noise_var=0.1)
        doc = ensemble_to_dict(rbcm_fit(series, 2, kind, init, OptConfig(max_iters=2, seed=0)))
        if case == "unknown_kernel_type":
            doc["kernel_type"] = "foo"
        else:
            doc["baseline"]["variant"] = "rq"
        with pytest.raises(DataError, match="kernel_type"):
            ensemble_from_dict(doc, series)

    def test_fingerprint_checked(self, series, rng):
        init = SlsmParams((SlsmComponent(1.0, 0.6, 0.2, 0.0),), noise_var=0.1)
        ens = rbcm_fit(series, 2, "slsm", init, OptConfig(max_iters=5, seed=0))
        other = Dataset(series.X, series.y + 1.0)
        with pytest.raises(DataError):
            ensemble_from_dict(ensemble_to_dict(ens), other)
