"""The per-fit lag table: K evaluated once per distinct lag must equal the
dense n x n evaluation at the same lags bit for bit, and so must the NLML;
the gradient, folded into per-lag sums on a grid, agrees within P_G_TOL.  On
a uniform grid the table is the Toeplitz first column |h| k with the index
|i - j|, which every kernel, even in tau, evaluates as h (i - j); where the
grid's differences round they stay within a stated bound of the exact
t_i - t_j.  A P > 1 mixture has no table: its objective, evaluated from
per-point projections, must agree with the vector-lag oracle within the
``P_*_TOL`` bounds."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import skewgp.gp as gp
import skewgp.kernels as kn
import skewgp.rbcm as rbcm
from skewgp.errors import DimensionMismatchError, NumericalError
from skewgp.gp import Dataset
from skewgp.kernels import BaselineKernelParams, SlsmComponent, SlsmParams
from skewgp.optimize import OptConfig, transform, untransform

from conftest import (P_G_TOL, P_K_TOL, _direct_gram, assert_near_dense,
                      dense_value_and_grad, random_params)

KINDS = ("slsm", "sm", "lkp", "se", "rq")
ROUNDING = ("tenth", "linspace")  # grids whose differences round

# On a grid whose differences round, h (i - j) is t_i - t_j up to LAG_ULPS
# ulps of max|t| (each point lies within UNIFORM_ULPS of the grid, plus two
# roundings); K then moves by at most K_DRIFT of the prior variance, the NLML
# by F_DRIFT and the gradient by G_DRIFT, relative.  Measured: 0.7 ulps,
# 1e-14, 4e-14 and 7e-13.
LAG_ULPS = 2.0 * kn.UNIFORM_ULPS + 2.0
K_DRIFT, F_DRIFT, G_DRIFT = 1e-13, 1e-12, 1e-10


def _grids(rng, n):
    return {
        "unit": np.arange(n, dtype=float),
        "tenth": 0.1 * np.arange(n),
        "linspace": np.linspace(0.0, 400.0, n),
        "scattered": np.sort(rng.uniform(0.0, 50.0, n)),
        "p2": rng.uniform(0.0, 5.0, (n, 2)),
    }


def _params(rng, kind, p=1, q=3, noise=0.1):
    if kind in kn.BASELINE_KERNELS:
        return BaselineKernelParams(kind, 1.3, 2.1, 0.7, noise_var=noise)
    if p == 1:
        return random_params(rng, q=q, noise=noise)
    comps = tuple(SlsmComponent(float(rng.uniform(0.1, 3.0)), tuple(rng.uniform(0.0, 3.0, p)),
                                tuple(rng.uniform(0.1, 2.0, p)),
                                tuple(rng.uniform(-1.5, 1.5, p))) for _ in range(q))
    return SlsmParams(comps, noise_var=noise)


def grid_lags(X):
    """h (i - j) on the :class:`~skewgp.kernels.Grid` of the points ``X``,
    computed directly, or None when they make no grid."""
    grid = kn.Grid.of(X)
    if grid is None:
        return None
    k = np.arange(grid.n)
    return grid.step * np.subtract.outer(k, k)


def assert_near_exact_lags(tau, X):
    """``tau`` is the array |t_i - t_j| of the 1-D points ``X`` up to rounding."""
    exact = np.abs(X[:, None] - X[None, :])
    assert np.max(np.abs(tau - exact)) <= LAG_ULPS * np.finfo(float).eps * np.max(np.abs(X))


def _assert_table_path_exact(data, params, kind):
    """Against the dense evaluation at the table's lags (h (i - j) on a
    grid): the NLML bitwise, the gradient bitwise on scattered points and
    within P_G_TOL of its largest slot on a grid, whose slots fold M into
    per-lag sums; within the drift bounds of the exact lags; the final
    factor's NLML equal to the objective's.  A P > 1 mixture within the
    oracle bounds (:func:`assert_near_dense`)."""
    if data.p > 1 and kind in kn.MIXTURE_KERNELS:
        assert kn.lag_table(data.X, kind, params) is None
        assert_near_dense(data, params, kind)
        return
    tp = transform(params, kind)
    table = kn.lag_table(data.X, kind, params)
    tau = grid_lags(data.X)
    try:
        f_ref, g_ref, jit_ref = dense_value_and_grad(data, tp, tau)
    except NumericalError:
        with pytest.raises(NumericalError):
            gp.nlml_value_and_grad([data], tp, table)
        return
    f, g = gp.nlml_value_and_grad([data], tp, table)
    assert f == f_ref
    if tau is None:
        assert np.array_equal(g, g_ref)
    else:
        assert np.max(np.abs(g - g_ref)) <= P_G_TOL * np.max(np.abs(g_ref))
    assert gp.factorize(data, kind, untransform(tp))[1] == jit_ref
    assert gp.nlml(data, untransform(tp), kind) == f
    if tau is not None:
        f_exact, g_exact, _ = dense_value_and_grad(data, tp)
        assert abs(f - f_exact) <= F_DRIFT * max(1.0, abs(f_exact))
        assert np.max(np.abs(g - g_exact)) <= G_DRIFT * max(1.0, np.max(np.abs(g_exact)))


class TestLagTable:
    @pytest.mark.parametrize("grid", ["unit", "tenth", "linspace", "scattered", "p2"])
    def test_covariance_equals_gram_bitwise(self, rng, grid):
        """K from the table is the kernel at the table's lags bit for bit:
        ``gram``'s matrix, except on grids whose differences round, where it
        is within K_DRIFT of it.  A P > 1 mixture has no table, and its
        ``gram`` is within P_K_TOL of the vector-lag oracle."""
        X = _grids(rng, 120)[grid]
        for kind in KINDS:
            p = _params(rng, kind, p=1 if X.ndim == 1 else 2)
            if X.ndim > 1 and kind in kn.MIXTURE_KERNELS:
                assert kn.lag_table(X, kind, p) is None
                G = kn.gram(X, X, kind, p)
                assert np.max(np.abs(G - _direct_gram(X, X, kind, p))) <= \
                    P_K_TOL * kn.prior_variance(p)
                continue
            values, index = kn.lag_table(X, kind, p)
            K = kn.kernel_value(values, kind, p)
            K = K if index is None else K[index]
            pts = X.reshape(120, -1)
            tau = grid_lags(pts)
            tau = kn.lags(pts, pts, kind, p) if tau is None else tau
            assert np.array_equal(K, kn.kernel_value(tau, kind, p))
            G = kn.gram(X, X, kind, p)
            if grid in ROUNDING:
                assert np.max(np.abs(K - G)) <= K_DRIFT * kn.prior_variance(p)
            else:
                assert np.array_equal(K, G)

    def test_collapses_only_uniform_univariate_input(self, rng):
        grids = _grids(rng, 120)
        for grid in ("unit", "tenth", "linspace"):
            X = grids[grid]
            values, index = kn.lag_table(X, "slsm", random_params(rng))
            assert index.shape == (120, 120)
            k = np.arange(120)
            assert np.array_equal(index, np.abs(np.subtract.outer(k, k)))
            assert np.array_equal(values, kn.Grid.of(X).lags())  # the first column
            assert np.array_equal(values[index], np.abs(grid_lags(X)))
            assert_near_exact_lags(values[index], X)
        X = grids["unit"]
        values, index = kn.lag_table(X, "slsm", random_params(rng))
        assert np.array_equal(values[index], np.abs(X[:, None] - X[None, :]))
        # scattered points share only the zero lag of the diagonal, so a
        # sort would buy nothing: they keep the plain lag array
        X = grids["scattered"]
        values, index = kn.lag_table(X, "slsm", random_params(rng))
        assert index is None
        assert np.array_equal(values, X[:, None] - X[None, :])

    def test_multivariate_mixture_has_no_lag_table(self, rng):
        """A P > 1 mixture holds no lag array; a P > 1 baseline keeps its
        (n, n) distances, summed over dimensions in order, as a sum over
        the last axis of the vector lags adds them."""
        X = _grids(rng, 120)["p2"]
        for kind in kn.MIXTURE_KERNELS:
            assert kn.lag_table(X, kind, _params(rng, kind, p=2)) is None
        for p in (2, 3, 4, 5, 7):
            X = rng.uniform(0.0, 5.0, (120, p))
            tau = X[:, None, :] - X[None, :, :]
            values, index = kn.lag_table(X, "se", _params(rng, "se"))
            assert index is None
            assert np.array_equal(values, np.sqrt(np.sum(tau * tau, axis=-1)))

    def test_large_linspace_grid_collapses_exactly(self):
        X = np.linspace(0.0, 400.0, 2000)
        values, index = kn.lag_table(X, "slsm", SlsmParams((SlsmComponent(1.0, 0.3, 0.5),)))
        # |h| k for k < 2000, where the exact |t_i - t_j| hold 7,530
        # distinct values
        assert np.array_equal(values, kn.Grid.of(X).lags())
        assert np.array_equal(values, np.unique(values))
        assert np.array_equal(values[index], np.abs(grid_lags(X)))
        assert_near_exact_lags(values[index], X)

    def test_width_checked(self, rng):
        with pytest.raises(DimensionMismatchError):
            kn.lag_table(rng.uniform(size=(10, 2)), "slsm", random_params(rng))
        with pytest.raises(DimensionMismatchError):  # a grid builds no lag array
            kn.lag_table(np.arange(10.0), "slsm", _params(rng, "slsm", p=2))

    @pytest.mark.parametrize("grid", ["unit", "tenth", "linspace", "scattered", "p2"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_nlml_and_gradient_equal_dense_reference(self, rng, grid, kind):
        X = _grids(rng, 80)[grid]
        y = np.sin(0.7 * X.reshape(80, -1).sum(axis=1)) + 0.1 * rng.standard_normal(80)
        _assert_table_path_exact(Dataset(X, y), _params(rng, kind, 1 if X.ndim == 1 else 2),
                                 kind)


class TestOncePerFit:
    def _count_builds(self, monkeypatch):
        """Record the table-build count at every build and around ``minimize``."""
        log = {"builds": 0, "at_minimize": []}
        build, run = kn.lag_table, gp.minimize

        def counting_build(*args, **kwargs):
            log["builds"] += 1
            return build(*args, **kwargs)

        def bracketed_minimize(*args, **kwargs):
            log["at_minimize"].append(log["builds"])
            res = run(*args, **kwargs)
            log["at_minimize"].append(log["builds"])
            return res

        monkeypatch.setattr(kn, "lag_table", counting_build)
        monkeypatch.setattr(gp, "minimize", bracketed_minimize)
        return log

    def test_fit_builds_one_table_for_the_optimization(self, rng, monkeypatch):
        log = self._count_builds(monkeypatch)
        X = np.arange(40.0)
        model = gp.fit(Dataset(X, np.sin(0.6 * X) + 0.1 * rng.standard_normal(40)),
                       random_params(rng, q=2), "slsm", OptConfig(max_iters=3))
        assert model.opt_result.n_evals >= 4
        assert log["at_minimize"] == [1, 1]
        assert log["builds"] == 2          # the second factorizes the fitted model

    @pytest.mark.parametrize("grid", [True, False], ids=["grid", "scattered"])
    def test_rbcm_fit_builds_one_table_per_group(self, rng, monkeypatch, grid):
        """Three experts on one grid share one table; scattered experts
        build one each."""
        log = self._count_builds(monkeypatch)
        X = np.arange(60.0) if grid else np.sort(rng.uniform(0.0, 60.0, 60))
        ens = rbcm.rbcm_fit(Dataset(X, np.sin(0.6 * X) + 0.1 * rng.standard_normal(60)), 3,
                            "slsm", random_params(rng, q=2), OptConfig(max_iters=3))
        assert ens.opt_result.n_evals >= 4
        tables = 1 if grid else 3
        assert log["at_minimize"] == [tables, tables]
        assert log["builds"] == tables + 3  # then one per expert's final factors

    @pytest.mark.parametrize("grid", [True, False], ids=["grid", "scattered"])
    def test_final_factor_holds_no_table_through_its_cholesky(self, rng, monkeypatch, grid):
        """When its Cholesky starts, the final factor holds K but neither the
        (n, n) lag index of a grid nor the lags of scattered inputs: less
        than 1.5 times K's bytes are traced."""
        n = 500
        X = np.arange(float(n)) if grid else np.sort(rng.uniform(0.0, n, n))
        data = Dataset(X, np.sin(0.6 * X))
        held, chol = [], gp.chol_with_jitter
        monkeypatch.setattr(gp, "chol_with_jitter", lambda K, s2: held.append(
            tracemalloc.get_traced_memory()[0]) or chol(K, s2))
        tracemalloc.start()
        try:
            gp.factorize(data, "slsm", random_params(rng, q=3))
        finally:
            tracemalloc.stop()
        assert len(held) == 1 and held[0] < 1.5 * n * n * 8


@st.composite
def _problems(draw):
    """A kernel, parameters and a regular 1-D grid; half the grids repeat
    every point and carry a tiny noise, so K is near-singular."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(2, 60))
    step = draw(st.floats(0.01, 10.0))
    repeat = draw(st.booleans())
    noise = draw(st.floats(1e-20, 1e-16) if repeat else st.floats(1e-3, 1.0))
    floats = st.floats(0.05, 3.0)
    if kind in kn.BASELINE_KERNELS:
        params = BaselineKernelParams(kind, draw(floats), draw(floats), draw(floats),
                                      noise_var=noise)
    else:
        comps = tuple(SlsmComponent(draw(floats), draw(st.floats(0.0, 3.0)), draw(floats),
                                    draw(st.floats(-2.0, 2.0)))
                      for _ in range(draw(st.integers(1, 4))))
        params = SlsmParams(comps, noise_var=noise)
    X = step * np.arange(n)
    if repeat:
        X = np.repeat(X, 2)
    y = np.sin(draw(st.floats(0.1, 2.0)) * X) + np.cos(0.3 * np.arange(X.size))
    return Dataset(X, y), params, kind


@given(_problems())
def test_table_path_equals_dense_reference(problem):
    _assert_table_path_exact(*problem)


def test_jitter_ladder_walked_the_same_way(rng):
    X = np.repeat(np.arange(30.0), 2)
    data = Dataset(X, np.sin(X))
    p = SlsmParams((SlsmComponent(1.0, 0.5, 0.3, 0.2), SlsmComponent(0.5, 1.0, 0.3, -0.2)),
                   noise_var=1e-18)
    assert gp.factorize(data, "slsm", p)[1] > 0.0
    _assert_table_path_exact(data, p, "slsm")
