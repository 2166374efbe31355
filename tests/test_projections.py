"""A P > 1 mixture is evaluated from per-point projections in row blocks,
never from a vector lag array.  Its Gram matrix, NLML and gradient must
agree with the (n, m, P) vector-lag oracle of ``conftest`` within the
``P_*_TOL`` bounds; its Gram matrix must equal the full-array reference of
``conftest`` bit for bit, and the objective's K the final factor's below
the diagonal; a row of a cross-covariance must not depend on the batch it
is computed in; neither a fit nor a predict may build an (n, m, P) array,
and an evaluation's memory must not grow with the number of components."""

import tracemalloc

import numpy as np
import pytest

import skewgp.gp as gp
import skewgp.kernels as kn
import skewgp.rbcm as rbcm
from skewgp.gp import Dataset
from skewgp.kernels import BaselineKernelParams, SlsmComponent, SlsmParams
from skewgp.optimize import OptConfig

from conftest import (P_G_TOL, P_K_TOL, _direct_gram, assert_near_dense,
                      ref_multi_dense_terms, ref_multi_gram)


def _params(rng, p, q=3, noise=0.1):
    comps = tuple(SlsmComponent(float(rng.uniform(0.1, 3.0)), tuple(rng.uniform(0.0, 3.0, p)),
                                tuple(rng.uniform(0.1, 2.0, p)),
                                tuple(rng.uniform(-1.5, 1.5, p))) for _ in range(q))
    return SlsmParams(comps, noise_var=noise)


def _field(rng, n, p):
    X = rng.uniform(-2.0, 2.0, (n, p))
    return Dataset(X, np.sin(0.7 * X.sum(axis=1)) + 0.1 * rng.standard_normal(n))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", kn.MIXTURE_KERNELS)
def test_gram_matches_vector_lag_oracle(rng, kind, p):
    """Training and query blocks, also far from the origin, where the
    per-point phases would carry the offset's rounding without centring."""
    params = _params(rng, p)
    X = rng.uniform(-2.0, 2.0, (90, p))
    Xq = rng.uniform(-3.0, 3.0, (40, p))
    for shift in (0.0, 1000.0):
        for xa in (X, Xq):
            G = kn.gram(xa + shift, X + shift, kind, params)
            ref = _direct_gram(xa + shift, X + shift, kind, params)
            assert np.max(np.abs(G - ref)) <= P_K_TOL * kn.prior_variance(params)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", kn.MIXTURE_KERNELS)
def test_blocked_gram_equals_the_full_array_reference(rng, kind, p):
    """Several row blocks with a short last one, m != n both ways, and a
    single block smaller than one block's rows."""
    params = _params(rng, p)
    n, small = 300, 40
    rows = kn.BLOCK_ENTRIES // n
    assert 1 < rows < n and n % rows and kn.BLOCK_ENTRIES // small > small
    X = rng.uniform(-2.0, 2.0, (n, p))
    for xa, xb in ((X, X), (rng.uniform(-3.0, 3.0, (450, p)), X),
                   (X[:small], X), (X, X[:small]), (X[:25], X[:small])):
        assert np.array_equal(kn.gram(xa, xb, kind, params), ref_multi_gram(xa, xb, kind, params))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", kn.MIXTURE_KERNELS)
def test_objective_matches_vector_lag_oracle(rng, kind, p):
    assert_near_dense(_field(rng, 70, p), _params(rng, p), kind)


@pytest.mark.parametrize("kind", kn.MIXTURE_KERNELS)
def test_objective_k_is_the_final_factors_below_the_diagonal(rng, kind, monkeypatch):
    """The objective factors the lower triangle of the K that ``gram``
    gives, bit for bit, and its NLML is the final factor's (``gp.nlml``)."""
    data, params = _field(rng, 300, 2), _params(rng, 2)
    seen = []
    chol = gp.chol_with_jitter
    monkeypatch.setattr(gp, "chol_with_jitter", lambda K, s2: seen.append(K) or chol(K, s2))
    f, _ = gp._dense_terms([data], kind, params.rows(kind), params.noise_var, None)
    K = kn.gram(data.X, data.X, kind, params)
    assert np.array_equal(np.tril(seen[0]), np.tril(K))
    monkeypatch.setattr(gp, "chol_with_jitter", chol)
    assert gp.nlml(data, params, kind) == f


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", kn.MIXTURE_KERNELS)
@pytest.mark.parametrize("near_singular", [False, True])
def test_objective_matches_the_full_array_reference(rng, kind, p, near_singular):
    """Against the whole-matrix row sums of ``conftest``: the NLML bit for
    bit and the gradient within P_G_TOL, also where every point is repeated
    and the noise is 1e-18, so the Cholesky fails at jitter 0 and M holds
    entries near 1 / jitter.  There the vector-lag oracle itself is only
    good to ~1e-8 in the NLML: its K differs in the last bits and K~'s
    condition number is ~1e10."""
    data = _field(rng, 150, p)
    params = _params(rng, p, noise=1e-18 if near_singular else 0.1)
    if near_singular:
        data = Dataset(np.repeat(data.X, 2, axis=0), np.repeat(data.y, 2))
        assert gp.factorize(data, kind, params)[1] > 0.0
    f, g = gp._dense_terms([data], kind, params.rows(kind), params.noise_var, None)
    f_ref, g_ref = ref_multi_dense_terms(data, kind, params)
    assert f == f_ref
    assert np.max(np.abs(np.subtract(g, g_ref))) <= P_G_TOL * np.max(np.abs(g_ref))


@pytest.mark.parametrize("kind", kn.MIXTURE_KERNELS)
def test_rbcm_objective_matches_vector_lag_oracle(rng, kind):
    """Three P = 2 experts: one group each, summed as the rBCM fit sums them."""
    data = _field(rng, 90, 2)
    parts = [Dataset(data.X[i], data.y[i]) for i in rbcm.partition(data.n, 3)]
    groups = gp.objective_groups(parts, kind, _params(rng, 2))
    assert [table for _, table in groups] == [None] * 3
    assert_near_dense(data, _params(rng, 2), kind, parts=parts)


@pytest.mark.parametrize("kind", kn.MIXTURE_KERNELS)
def test_rows_do_not_depend_on_the_batch(rng, kind):
    """Predicting at a superset of points gives the same bits for the
    shared rows, in the cross-covariance and in the mean."""
    params = _params(rng, 2)
    model = gp._model_from_params(kind, params, _field(rng, 60, 2),
                                  gp.Normalization.identity(2), "field")
    Xq = rng.uniform(-3.0, 3.0, (200, 2))
    G = kn.gram(Xq, model.data.X, kind, params)
    mean = model.predict(Xq).mean
    for start, count in ((0, 1), (3, 7), (17, 33), (100, 100), (199, 1)):
        rows = slice(start, start + count)
        assert np.array_equal(kn.gram(Xq[rows], model.data.X, kind, params), G[rows])
        assert np.array_equal(model.predict(Xq[rows]).mean, mean[rows])


@pytest.mark.parametrize("kind", ["slsm", "se"])
def test_fit_and_predict_build_no_vector_lag_array(rng, kind):
    """With P = 24 one (n, n, P) array outweighs everything a P > 1 fit and
    predict need at once, so the traced peak of both stays below it."""
    n, p = 120, 24
    data = _field(rng, n, p)
    init = (BaselineKernelParams(kind, 1.0, 2.0, noise_var=0.1) if kind == "se"
            else _params(rng, p, q=1))
    Xq = rng.uniform(-2.0, 2.0, (n, p))
    tracemalloc.start()
    try:
        model = gp.fit(data, init, kind, OptConfig(max_iters=2))
        model.predict(Xq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.opt_result.n_evals >= 2
    assert peak < n * n * p * 8


def test_evaluation_memory_does_not_grow_with_the_components(rng):
    """One P = 2 SLSM evaluation at n = 1000 holds K, M and the factor, not
    every component's (n, n) terms: its traced peak at Q = 10 stays below
    1.5 times the peak at Q = 3."""
    data = _field(rng, 1000, 2)
    peaks = []
    for q in (3, 10):
        params = _params(rng, 2, q=q)
        tracemalloc.start()
        try:
            gp._dense_terms([data], "slsm", params.rows("slsm"), params.noise_var, None)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]
