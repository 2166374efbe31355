"""Cross-covariances gathered from a uniform grid's lag bands must equal the
kernel evaluated at every lag bit for bit, whatever the query set; where
the bands do not reproduce the lags, ``gram`` must fall back, not
approximate.  A P > 1 mixture, evaluated from per-point projections, must
agree with the vector-lag oracle within ``P_K_TOL`` of the prior variance."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import skewgp.kernels as kn
from skewgp.kernels import BaselineKernelParams, SlsmComponent, SlsmParams

from conftest import P_K_TOL, _direct_gram

KINDS = ("slsm", "sm", "lkp", "se", "rq")
STEPS = (1.0, 0.5, 0.25, 0.1, 1.0 / 12.0)
QUERIES = ("half", "forecast", "before", "moved", "scattered", "p2")


def _assert_gram_is_direct(xq, x, kind, params):
    """``gram`` against the kernel formula at every lag: bit for bit, except
    for a P > 1 mixture, within P_K_TOL of the prior variance."""
    G, ref = kn.gram(xq, x, kind, params), _direct_gram(xq, x, kind, params)
    if x.shape[1] > 1 and kind in kn.MIXTURE_KERNELS:
        assert np.max(np.abs(G - ref)) <= P_K_TOL * kn.prior_variance(params)
    else:
        assert np.array_equal(G, ref)


def _unique_table(x):
    tau = np.abs(x[:, None] - x[None, :])
    values, index = np.unique(tau, return_inverse=True)
    return values, index.reshape(tau.shape)


@st.composite
def _params(draw, kind, p=1):
    floats = st.floats(0.05, 3.0)
    if kind in kn.BASELINE_KERNELS:
        return BaselineKernelParams(kind, draw(floats), draw(floats), draw(floats))
    comps = tuple(SlsmComponent(draw(floats), (draw(st.floats(0.0, 3.0)),) * p,
                                (draw(floats),) * p, (draw(st.floats(-2.0, 2.0)),) * p)
                  for _ in range(draw(st.integers(1, 3))))
    return SlsmParams(comps, noise_var=0.1)


@st.composite
def _cases(draw):
    """A kernel, a uniform training grid (ascending or descending, any step
    of ``STEPS`` and offset) and one of the ``QUERIES`` sets against it."""
    kind = draw(st.sampled_from(KINDS))
    query = draw(st.sampled_from(QUERIES))
    n = draw(st.integers(2, 80))
    step = draw(st.sampled_from(STEPS)) * draw(st.sampled_from([1.0, -1.0]))
    t0 = draw(st.integers(-200, 2000)) + draw(st.sampled_from([0.0, 0.5, 0.3]))
    x = t0 + step * np.arange(n)
    k = draw(st.integers(1, 40))
    if query == "half":
        xq = x[0] + 0.5 * step * np.arange(2 * n - 1)
    elif query == "forecast":
        xq = x[-1] + step * np.arange(1, k + 1)
    elif query == "before":
        xq = x[0] - step * np.arange(1, k + 1)
    elif query == "moved":
        xq = np.concatenate([x, x[0] + 0.5 * step * np.arange(1, 2 * n - 1, 2)])
        xq[draw(st.integers(0, xq.size - 1))] += 1e-9 * step
    elif query == "scattered":
        xq = np.array(draw(st.lists(st.floats(min(x) - 10.0, max(x) + 10.0),
                                    min_size=1, max_size=60)))
    else:
        grid = np.stack([x, 0.5 * x], axis=1)
        xq = grid[::-1] + 0.5 * step
        return kind, xq, grid, draw(_params(kind, p=2))
    return kind, xq[:, None], x[:, None], draw(_params(kind))


@given(_cases())
def test_gram_equals_direct_evaluation_bitwise(case):
    kind, xq, x, params = case
    _assert_gram_is_direct(xq, x, kind, params)
    _assert_gram_is_direct(x, x, kind, params)


@given(st.sampled_from(KINDS), st.integers(2, 120), st.sampled_from([1.0, 0.5, 0.25]),
       st.integers(-500, 2000), st.booleans())
def test_exact_grid_table_is_the_unique_table(kind, n, step, t0, descending):
    """On a grid whose differences are exact the self table is built without
    a sort and is the sorted distinct |t_i - t_j|, the Toeplitz first column,
    with the index |i - j|, ascending or descending grid."""
    x = t0 + (-step if descending else step) * np.arange(n)
    params = BaselineKernelParams(kind, 1.0, 2.0) if kind in kn.BASELINE_KERNELS else \
        SlsmParams((SlsmComponent(1.0, 0.4, 0.3, 0.2),))
    values, index = kn.lag_table(x, kind, params)
    expected = _unique_table(x)
    assert np.array_equal(values, expected[0])
    assert np.array_equal(index, expected[1])


class TestPaths:
    def _table(self, xq, x):
        xq, x = np.asarray(xq, float)[:, None], np.asarray(x, float)[:, None]
        tau = xq - x.T
        return kn._grid_table(xq, x, tau)

    def test_benchmark_queries_take_two_bands(self):
        """Half-step interpolation plus on-grid forecasts against an integer
        grid: two offset groups, one band each."""
        x = np.arange(2000.0)
        xq = np.concatenate([np.arange(0.0, 2000.0, 0.5), np.arange(2000.0, 2500.0)])
        values, index = self._table(xq, x)
        assert values.size == (2499 + 2000) + (1999 + 2000)  # r in 0..2499, 0..1999
        assert index.shape == (xq.size, x.size)
        assert np.array_equal(values[index], xq[:, None] - x[None, :])

    def test_rounding_and_scattered_inputs_fall_back(self, rng):
        x = np.linspace(0.0, 400.0, 500)
        assert self._table(x, x) is None                        # differences round
        # copies of one point fill the first block of read-back rows
        x = 0.1 * np.arange(1000)
        assert self._table(np.concatenate([np.full(1100, 0.05), x]), x) is None
        assert self._table(rng.uniform(0.0, 50.0, 300), np.arange(50.0)) is None
        assert self._table(np.full(10, 3.0), np.full(5, 3.0)) is None  # no step
        moved = np.arange(100.0)
        moved[40] += 1e-9
        assert self._table(np.arange(100.0), moved) is None      # not a grid

    def test_multivariate_gram_never_reaches_the_grid_rule(self, monkeypatch, rng):
        def no_grid(*args, **kwargs):
            raise AssertionError("the uniformity rule ran for P > 1")

        monkeypatch.setattr(kn.Grid, "of", no_grid)
        X = rng.uniform(0.0, 5.0, (30, 2))
        p = SlsmParams((SlsmComponent(1.0, (0.3, 0.4), (0.5, 0.6), (0.1, -0.1)),))
        _assert_gram_is_direct(X[:10], X, "slsm", p)

    @pytest.mark.parametrize("grid", ["unit", "desc", "tenth", "linspace"])
    def test_forecast_gram_bitwise_for_every_kind(self, grid):
        x = {"unit": np.arange(300.0), "desc": 299.0 - np.arange(300.0),
             "tenth": 0.1 * np.arange(300), "linspace": np.linspace(0.0, 40.0, 300)}[grid]
        step = x[1] - x[0]
        xq = np.concatenate([x[0] + 0.5 * step * np.arange(599), x[-1] + step * np.arange(50)])
        for kind in KINDS:
            p = BaselineKernelParams(kind, 1.3, 2.1, 0.7) if kind in kn.BASELINE_KERNELS \
                else SlsmParams((SlsmComponent(1.0, 0.3, 0.5, 0.4),
                                 SlsmComponent(0.4, 1.2, 0.2, -0.3)))
            _assert_gram_is_direct(xq[:, None], x[:, None], kind, p)
