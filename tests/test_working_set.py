"""Prediction and the Cholesky factor keep a bounded working set.

``gp.latent_moments`` takes the queries in blocks of
``gp.PREDICT_BLOCK_ENTRIES // n`` rows, one ``kernels.gram`` and one
triangular solve each, so its traced peak does not grow with the number
of queries, on the lag bands of a grid and on the exact-lag fallback of
scattered queries alike.  The blocks keep the predictive mean bit for bit
and the variance within rounding of one whole-batch solve.
``kernels.gram`` itself holds little beside its output, on the bands and
on the fallback.  ``gp.chol_with_jitter`` factorizes one copy of K per
rung, in place, and never writes K."""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import skewgp.gp as gp
import skewgp.kernels as kn
from skewgp.gp import Dataset
from skewgp.kernels import SlsmComponent, SlsmParams

from conftest import identity_normalization, traced_peak

N = 2000


@pytest.fixture(scope="module")
def grid_model():
    """An SLSM model on the n = 2000 grid 0, 1, ..., 1999."""
    X = np.arange(float(N))
    y = np.sin(0.3 * X) + 0.1 * np.random.default_rng(11).standard_normal(N)
    params = SlsmParams(tuple(SlsmComponent(1.0 / (q + 1), 0.2 + 0.3 * q, 0.05 + 0.02 * q, 0.1)
                              for q in range(3)), noise_var=0.1)
    return gp._model_from_params("slsm", params, Dataset(X, y), identity_normalization(),
                                 "grid")


@pytest.mark.parametrize("queries", ["bands", "scattered"])
def test_predict_memory_does_not_grow_with_the_queries(grid_model, queries):
    """The traced peak of a predict at 4,500 queries stays below 1.25 times
    its peak at 1,500: half-step queries read two lag bands, scattered
    queries in [0, 2500] every exact lag.  One (m, n) array at m = 4,500
    is 69 MiB, and every block-sized array a predict holds is 16 MiB."""
    rng = np.random.default_rng(12)
    batches = [np.arange(0.0, m / 2, 0.5) if queries == "bands" else rng.uniform(0.0, 2500.0, m)
               for m in (1500, 4500)]
    xa, xb = batches[0][:200, None], grid_model.data.X
    table = kn._grid_table(xa, xb, kn.Grid.of(xb))
    assert (table is None) == (queries == "scattered")
    peaks = [traced_peak(lambda: grid_model.predict(xq)) for xq in batches]
    assert peaks[1] < 1.25 * peaks[0]


@pytest.mark.parametrize("shape", [(4500, 250), (1048, 2000)], ids=["expert", "block"])
def test_gram_on_bands_holds_only_its_output(grid_model, shape):
    """The traced peak of ``gram`` on the lag bands stays below 1.1 times
    its output: an rBCM expert's 250-point grid against uniform2000's 4,500
    queries, and one predict block of half-step queries against 2,000
    points.  No (m, n) lag or index array is made."""
    m, n = shape
    xq = np.concatenate([np.arange(0.0, 2000.0, 0.5), np.arange(2000.0, 2500.0)])[:m]
    x = np.arange(n, dtype=float) + (750.0 if n < N else 0.0)
    assert kn._grid_table(xq[:, None], x[:, None], kn.Grid.of(x)) is not None
    out = []
    peak = traced_peak(lambda: out.append(kn.gram(xq, x, "slsm", grid_model.params)))
    assert out[0].shape == shape and peak < 1.1 * out[0].nbytes


def test_gram_fallback_holds_little_above_its_output(grid_model):
    """Scattered queries miss the bands; the exact-lag fallback fills the
    output one row block at a time and its traced peak stays below 1.25
    times the output (Q = 3, one predict block of 1,048 rows)."""
    xq = np.random.default_rng(12).uniform(0.0, 2500.0, 1048)
    x = grid_model.data.X[:, 0]
    assert kn._grid_table(xq[:, None], x[:, None], kn.Grid.of(x)) is None
    out = []
    peak = traced_peak(lambda: out.append(kn.gram(xq, x, "slsm", grid_model.params)))
    assert out[0].shape == (1048, N) and peak < 1.25 * out[0].nbytes


@pytest.mark.parametrize("escalated", [False, True])
def test_cholesky_holds_one_copy_of_k(rng, escalated):
    """Above K itself, the traced peak of ``chol_with_jitter`` stays below
    1.5 n^2 doubles, also when rung 0 fails and the ladder escalates."""
    n = 1000
    A = rng.standard_normal((n, n))
    K, noise = (np.ones((n, n)), 0.0) if escalated else (A @ A.T / n, 0.1)
    jitter = []
    peak = traced_peak(lambda: jitter.append(gp.chol_with_jitter(K, noise)[1]))
    assert (jitter[0] > 0.0) == escalated
    assert peak < 1.5 * n * n * 8


def _small_model(rng, p):
    """P = 1: an SLSM model on a 60-point grid and half-step queries that
    run past it; P = 2: 60 scattered points and queries."""
    comps = tuple(SlsmComponent(1.0 + q, tuple(rng.uniform(0.1, 1.0, p)),
                                tuple(rng.uniform(0.1, 0.5, p)), tuple(rng.uniform(-0.3, 0.3, p)))
                  for q in range(2))
    params = SlsmParams(comps, noise_var=0.05)
    if p == 1:
        X, Xq = np.arange(60.0)[:, None], np.arange(-10.0, 90.0, 0.5)[:, None]
    else:
        X, Xq = rng.uniform(-2.0, 2.0, (60, p)), rng.uniform(-3.0, 3.0, (200, p))
    data = Dataset(X, np.sin(X.sum(axis=1)) + 0.1 * rng.standard_normal(60))
    return gp._model_from_params("slsm", params, data, identity_normalization(p), "small"), Xq


@pytest.mark.parametrize("p", [1, 2])
def test_query_blocks_keep_the_mean_and_the_variance(rng, monkeypatch, p):
    """200 queries in blocks of 37 rows (five and a short sixth): the mean
    is bit-equal to the one-block mean, and the variance agrees with one
    whole-batch ``solve_triangular`` within 1e-12 of k(0)."""
    model, Xq = _small_model(rng, p)
    params, X = model.params, model.data.X
    assert gp.PREDICT_BLOCK_ENTRIES // X.shape[0] >= Xq.shape[0]
    mean, _ = gp.latent_moments(Xq, model, "slsm", params)
    rows, gram = [], kn.gram
    monkeypatch.setattr(kn, "gram", lambda xa, *args: rows.append(len(xa)) or gram(xa, *args))
    monkeypatch.setattr(gp, "PREDICT_BLOCK_ENTRIES", 37 * X.shape[0])
    blocked_mean, blocked_var = gp.latent_moments(Xq, model, "slsm", params)
    assert rows == [37] * 5 + [15]
    assert np.array_equal(blocked_mean, mean)
    v = solve_triangular(model.chol_L, gram(Xq, X, "slsm", params).T, lower=True)
    var = kn.prior_variance(params) - np.sum(v * v, axis=0)
    assert np.max(np.abs(blocked_var - var)) <= 1e-12 * kn.prior_variance(params)
