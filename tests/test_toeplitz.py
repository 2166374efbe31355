"""The Toeplitz objective for uniformly sampled series: the uniformity rule,
which inputs take the path, its agreement with the dense objective on the
same grid, grouped rBCM experts and the jitter ladder on prediction-error
variances."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import skewgp.gp as gp
import skewgp.kernels as kn
import skewgp.rbcm as rbcm
import skewgp.toeplitz as tz
from skewgp.errors import NumericalError
from skewgp.gp import Dataset
from skewgp.kernels import BaselineKernelParams, SlsmComponent, SlsmParams
from skewgp.optimize import OptConfig, minimize, transform

from conftest import ref_levinson, training_table

KINDS = ("slsm", "sm", "lkp", "se", "rq")
STEPS = (1.0, 0.1, 1.0 / 12.0)


def _dense(data, x, layout):
    """The production dense objective of ``data`` on its Grid: the Toeplitz
    crossover is moved past n."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tz, "MIN_N", data.n + 1)
        return gp.nlml_value_and_grad([data], x, layout, kn.Grid.of(data.X))


def _evaluate(groups, x, layout):
    """``nlml_value_and_grad`` of each objective group ``(members, grid)``
    and the terms (``_dense_terms`` or ``_toeplitz_terms``) each took."""
    paths = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_dense_terms", "_toeplitz_terms"):
            run = getattr(gp, name)
            mp.setattr(gp, name, lambda *a, run=run, name=name: paths.append(name) or run(*a))
        results = [gp.nlml_value_and_grad(members, x, layout, grid) for members, grid in groups]
    return results, paths


def _assert_close(got, ref, f_tol=1e-8, g_tol=1e-5):
    (f, g), (f_ref, g_ref) = got, ref
    assert abs(f - f_ref) <= f_tol * max(1.0, abs(f_ref))
    assert np.max(np.abs(g - g_ref)) <= g_tol * max(1.0, np.max(np.abs(g_ref)))


def _series(X, rng):
    return Dataset(X, np.sin(0.37 * X) + 0.5 * np.cos(1.3 * X) + 0.2 * rng.standard_normal(X.size))


def _one_gap_moved(X, frac=1e-9):
    h = (X[-1] - X[0]) / (X.size - 1)
    Y = X.copy()
    Y[X.size // 2:] += frac * h
    return Y


class TestUniformityRule:
    @pytest.mark.parametrize("X, step", [
        (np.arange(2000, dtype=float), 1.0),
        (0.1 * np.arange(2000), 0.1),
        (np.arange(500) / 12.0, 1.0 / 12.0),
        (1949.0 + np.arange(144) / 12.0, 1.0 / 12.0),
        (np.linspace(0.0, 400.0, 2000), 400.0 / 1999.0),
    ])
    def test_accepts_grids_up_to_rounding(self, X, step):
        assert kn.Grid.of(X).step == pytest.approx(step, rel=1e-14)
        assert kn.Grid.of(X[::-1]).step == pytest.approx(-step, rel=1e-14)

    @pytest.mark.parametrize("X", [np.arange(2000, dtype=float), 0.1 * np.arange(2000),
                                   np.linspace(0.0, 400.0, 2000), np.arange(200) / 12.0])
    @pytest.mark.parametrize("where", [0, 1, -2])
    def test_rejects_one_gap_moved_by_1e9_of_the_step(self, X, where):
        h = (X[-1] - X[0]) / (X.size - 1)
        Y = X.copy()
        Y[where % X.size + 1:] += 1e-9 * h
        assert kn.Grid.of(Y) is None

    def test_scattered_repeated_and_multivariate_inputs_have_no_step(self, rng):
        assert kn.Grid.of(np.sort(rng.uniform(0.0, 50.0, 300))) is None
        assert kn.Grid.of(np.repeat(np.arange(100.0), 2)) is None
        assert kn.Grid.of(rng.uniform(size=(300, 2))) is None
        assert kn.Grid.of(np.array([3.0])) is None

    def test_given_step_is_checked_against_the_points(self):
        X = np.arange(300, dtype=float)
        assert kn.Grid(300, 1.0).holds(X)
        assert not kn.Grid(300, 1.0 + 1e-9).holds(X)
        assert not kn.Grid(299, 1.0).holds(X)


class TestPathSelection:
    P = SlsmParams((SlsmComponent(1.0, 0.3, 0.5, 0.1),), noise_var=0.1)

    def _groups(self, X, rng, kind="slsm", params=P):
        """``(grid, terms)`` of each objective group of a series at ``X``."""
        groups = gp.objective_groups([_series(X, rng)])
        _, paths = _evaluate(groups, *transform(params, kind))
        return [(grid, path) for (_, grid), path in zip(groups, paths)]

    def test_crossover_is_the_first_toeplitz_size(self, rng):
        (below, path_below), = self._groups(np.arange(tz.MIN_N - 1, dtype=float), rng)
        (at, path_at), = self._groups(np.arange(tz.MIN_N, dtype=float), rng)
        assert below == kn.Grid(tz.MIN_N - 1, 1.0) and path_below == "_dense_terms"
        assert at == kn.Grid(tz.MIN_N, 1.0) and path_at == "_toeplitz_terms"

    @pytest.mark.parametrize("family", ["unit", "descending", "tenth", "linspace", "monthly"])
    def test_dense_table_and_toeplitz_grid_hold_the_same_lags(self, rng, family):
        """A series of MIN_N points takes the Toeplitz path and the same
        series one point shorter the dense path, whose lags are the first
        column |h| k of the Toeplitz K, bit for bit, which every kernel (even
        in tau) evaluates as the grid lags h k."""
        at = {"unit": np.arange(tz.MIN_N, dtype=float),
              "descending": tz.MIN_N - np.arange(tz.MIN_N, dtype=float),
              "tenth": 0.1 * np.arange(tz.MIN_N),
              "linspace": np.linspace(0.0, 400.0, tz.MIN_N),
              "monthly": 1949.0 + np.arange(tz.MIN_N) / 12.0}[family]
        below = at[:-1]
        (grid, path_at), = self._groups(at, rng)
        (_, path_below), = self._groups(below, rng)
        assert (path_at, path_below) == ("_toeplitz_terms", "_dense_terms")
        values, index = training_table(below, "slsm", self.P)
        assert grid == kn.Grid.of(at)
        n = below.size
        k = np.arange(n)
        # the dense table is the first column of the Toeplitz K
        assert np.array_equal(index, np.abs(np.subtract.outer(k, k)))
        assert np.array_equal(values, np.abs(kn.Grid.of(below).lags()))
        values_at, _ = training_table(at, "slsm", SlsmParams((SlsmComponent(1.0, 0.3, 0.5),)))
        assert np.array_equal(values_at, np.abs(grid.lags()))
        if family == "monthly":
            # h is read from the end points: 1949 + 143/12 rounds unlike 1949 + 142/12
            assert kn.Grid.of(below).step != grid.step
        else:
            assert np.array_equal(values, np.abs(grid.lags()[:n]))
        for kind in KINDS:  # even kernels: |h| k evaluates as h k, bit for bit
            params = BaselineKernelParams(kind, 1.0, 2.0, 0.7) if kind in kn.BASELINE_KERNELS \
                else SlsmParams((SlsmComponent(1.0, 0.3, 0.5, 0.1),))
            assert np.array_equal(kn.kernel_value(values, kind, params),
                                  kn.kernel_value(kn.Grid.of(below).lags(), kind, params))

    def test_airline_size_stays_dense(self, rng):
        (grid, path), = self._groups(np.arange(96, dtype=float), rng)
        assert grid == kn.Grid(96, 1.0) and path == "_dense_terms"

    def test_one_gap_moved_takes_the_dense_path(self, rng):
        X = _one_gap_moved(np.arange(400, dtype=float))
        (grid, path), = self._groups(X, rng)
        assert grid is None and path == "_dense_terms"
        assert training_table(X, "slsm", self.P) is None  # off a grid: from the points

    def test_scattered_and_multivariate_inputs_stay_dense(self, rng):
        p2 = SlsmParams((SlsmComponent(1.0, (0.3, 0.2), (0.5, 0.4)),), noise_var=0.1)
        X2 = rng.uniform(0.0, 5.0, (300, 2))
        data2 = Dataset(X2, X2.sum(axis=1))
        (members, grid2), = gp.objective_groups([data2])
        assert grid2 is None and _evaluate([(members, grid2)], *transform(p2, "slsm"))[1] == \
            ["_dense_terms"]
        assert training_table(X2, "slsm", p2) is None  # from the points: no lags
        X = np.sort(rng.uniform(0.0, 300.0, 300))
        (grid, path), = self._groups(X, rng)
        assert grid is None and path == "_dense_terms"
        assert training_table(X, "slsm", self.P) is None  # a mixture off a grid: the points
        se = BaselineKernelParams("se", 1.0, 2.0, noise_var=0.1)
        (grid, path), = self._groups(X, rng, kind="se", params=se)
        assert grid is None and path == "_dense_terms"
        assert training_table(X, "se", se)[1] is None  # a baseline keeps its lags

    def test_equal_contiguous_experts_form_one_group(self, rng):
        data = _series(np.linspace(0.0, 400.0, 2000), rng)
        parts = [Dataset(data.X[i], data.y[i]) for i in rbcm.partition(data.n, 8)]
        groups = gp.objective_groups(parts)
        assert len(groups) == 1
        members, grid = groups[0]
        assert members == parts and grid.n == 250

    def test_two_block_sizes_form_two_groups(self, rng):
        """Blocks of two sizes on one grid form two groups, also below the
        crossover, where each group's Grid indexes its first member's lags."""
        p = SlsmParams((SlsmComponent(1.0, 0.3, 0.5),))
        data = _series(np.arange(2003, dtype=float), rng)
        parts = [Dataset(data.X[i], data.y[i]) for i in rbcm.partition(data.n, 8)]
        groups = gp.objective_groups(parts)
        assert [(len(m), g.n) for m, g in groups] == [(3, 251), (5, 250)]

        data = _series(np.arange(1003, dtype=float), rng)
        parts = [Dataset(data.X[i], data.y[i]) for i in rbcm.partition(data.n, 8)]
        groups = gp.objective_groups(parts)
        assert [m for m, _ in groups] == [parts[:3], parts[3:]]
        for (members, grid), size in zip(groups, (126, 125)):
            ref_values, ref_index = training_table(members[0].X, "slsm", p)
            assert grid.index.shape == (size, size)
            assert np.array_equal(np.abs(grid.lags()), ref_values)
            assert np.array_equal(grid.index, ref_index)


@st.composite
def _problems(draw):
    """A kernel with Q components, a uniform grid of MIN_N..600 points with
    step 1, 0.1 or 1/12, and noise from 1e-6 to 1 of the prior variance."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(tz.MIN_N, 600))
    step = draw(st.sampled_from(STEPS))
    floats = st.floats(0.1, 3.0)
    if kind in kn.BASELINE_KERNELS:
        params = BaselineKernelParams(kind, draw(floats), draw(st.floats(0.2, 5.0)), draw(floats))
    else:
        comps = tuple(SlsmComponent(draw(floats), draw(st.floats(0.0, 3.0)),
                                    draw(st.floats(0.02, 2.0)), draw(st.floats(-2.0, 2.0)))
                      for _ in range(draw(st.integers(1, 4))))
        params = SlsmParams(comps)
    noise = kn.prior_variance(params) * 10.0 ** draw(st.floats(-6.0, 0.0))
    params = replace(params, noise_var=noise)
    X = step * np.arange(n)
    y = np.sin(draw(st.floats(0.05, 2.0)) * X) + np.cos(0.3 * np.arange(n))
    return Dataset(X, y), params, kind


@settings(max_examples=60, deadline=None)
@given(_problems())
def test_toeplitz_objective_matches_dense(problem):
    data, params, kind = problem
    x, layout = transform(params, kind)
    grid = kn.Grid.of(data.X)
    assert grid is not None
    _assert_close(gp.nlml_value_and_grad([data], x, layout, grid), _dense(data, x, layout))


@pytest.mark.parametrize("kind", KINDS)
def test_large_linspace_grid_matches_dense(rng, kind):
    X = np.linspace(0.0, 400.0, 2000)
    data = _series(X, rng)
    params = (BaselineKernelParams(kind, 1.0, 2.0, 0.8, noise_var=0.1)
              if kind in kn.BASELINE_KERNELS else
              SlsmParams((SlsmComponent(1.0, 0.3, 0.15, 0.2),
                          SlsmComponent(0.7, 1.1, 0.2, -0.1)), noise_var=0.1))
    x, layout = transform(params, kind)
    (_, grid), = gp.objective_groups([data])
    assert grid == kn.Grid.of(X)
    _assert_close(gp.nlml_value_and_grad([data], x, layout, grid), _dense(data, x, layout))


@pytest.mark.parametrize("n", [1000, 1003, 2000, 2003])
def test_grouped_experts_equal_the_per_expert_dense_sum(rng, n):
    """Eight experts on one grid form one group per block size, on the
    Toeplitz path from MIN_N points up and on one Cholesky below; either
    way the groups' summed NLML and gradient equal the per-expert dense
    sum, on a rounding (linspace), an exact and a monthly grid."""
    params = SlsmParams((SlsmComponent(1.0, 0.3, 0.15, 0.2),
                         SlsmComponent(0.7, 1.1, 0.2, -0.1)), noise_var=0.2)
    x, layout = transform(params, "slsm")
    for X in (np.linspace(0.0, 0.2 * n, n), np.arange(n, dtype=float),
              1949.0 + np.arange(n) / 12.0):
        data = _series(X, rng)
        parts = [Dataset(data.X[i], data.y[i]) for i in rbcm.partition(n, 8)]
        groups = gp.objective_groups(parts)
        assert [len(m) for m, _ in groups] == ([8] if n % 8 == 0 else [3, 5])
        assert all(isinstance(t, kn.Grid) for _, t in groups)
        results, paths = _evaluate(groups, x, layout)
        assert paths == ["_toeplitz_terms" if n // 8 >= tz.MIN_N else "_dense_terms"] * len(groups)
        f = sum(r[0] for r in results)
        g = np.sum([r[1] for r in results], axis=0)
        dense = [_dense(part, x, layout) for part in parts]
        f_ref = sum(r[0] for r in dense)
        g_ref = np.sum([r[1] for r in dense], axis=0)
        _assert_close((f, g), (f_ref, g_ref), f_tol=1e-8, g_tol=1e-8)


class TestJitterLadder:
    # noise 0 and a smooth kernel: K is numerically singular, so the dense
    # Cholesky fails at jitter 0 and succeeds on the first rung, 1e-10 * r_0,
    # where the condition number is ~1e11 and either path's NLML is only
    # good to ~1e-6 relative (against a long-double Cholesky)
    CASES = [
        ("se", 300, 1.0, BaselineKernelParams("se", 1.0, 10.0)),
        # without the refinement step of the Toeplitz solve this one is 8e-4 off
        ("se", 300, 1.0, BaselineKernelParams("se", 1.0, 30.0)),
        ("se", 160, 0.1, BaselineKernelParams("se", 1.0, 3.0)),
        ("rq", 300, 0.1, BaselineKernelParams("rq", 1.0, 30.0, 0.7)),
        ("sm", 160, 1.0, SlsmParams((SlsmComponent(1.0, 0.3, 0.1),))),
        ("lkp", 300, 0.1, SlsmParams((SlsmComponent(1.0, 0.3, 0.2),))),
        ("slsm", 160, 0.1, SlsmParams((SlsmComponent(1.0, 0.3, 0.2, 0.1),))),
    ]

    @pytest.mark.parametrize("kind, n, step, params", CASES)
    def test_same_rung_and_nlml_as_the_dense_ladder(self, kind, n, step, params):
        X = step * np.arange(n)
        y = np.sin(0.3 * X)
        r = kn.kernel_value(X - X[0], kind, params)
        L, jit_dense = gp.chol_with_jitter(kn.gram(X, X, kind, params), 0.0)
        factor, jit = gp.levinson_with_jitter(r, 0.0)
        assert jit_dense > 0.0
        assert jit == jit_dense
        f_dense = gp.nlml_from_factor(L, gp._solve_chol(L, y), y)
        f = 0.5 * (float(y @ factor.solve(y[:, None])[:, 0]) + factor.logdet + n * np.log(2.0 * np.pi))
        assert abs(f - f_dense) <= 1e-4 * abs(f_dense)

    def test_well_conditioned_column_takes_no_jitter(self):
        r = kn.kernel_value(np.arange(200.0), "se", BaselineKernelParams("se", 1.0, 2.0))
        assert gp.levinson_with_jitter(r, 0.1)[1] == 0.0

    def test_column_that_is_no_covariance_exhausts_the_ladder(self):
        r = np.zeros(200)
        r[:2] = (1.0, 3.0)            # |r_1| > r_0: negative E_1 on every rung
        with pytest.raises(NumericalError, match="Levinson-Durbin recursion failed"):
            gp.levinson_with_jitter(r, 0.0)

    def test_non_finite_column_is_a_numerical_error_and_inf_objective(self, rng):
        data = _series(np.arange(200.0), rng)
        huge = SlsmParams((SlsmComponent(1e308, 0.3, 0.5), SlsmComponent(1e308, 0.5, 0.5)),
                          noise_var=0.1)
        x, layout = transform(huge, "slsm")
        grid = kn.Grid.of(data.X)
        with pytest.raises(NumericalError, match="non-finite"):
            gp.nlml_value_and_grad([data], x, layout, grid)
        with pytest.raises(NumericalError, match="non-finite at the starting point"):
            minimize(lambda v: gp.nlml_value_and_grad([data], v, layout, grid), x, OptConfig())


def test_levinson_factor_against_dense_inverse(rng):
    n = 300
    r = kn.kernel_value(0.5 * np.arange(n), "slsm",
                        SlsmParams((SlsmComponent(1.0, 0.7, 0.3, 0.4),)))
    r[0] += 0.05
    T = r[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
    inv = np.linalg.inv(T)
    factor = tz.levinson(r)
    np.testing.assert_allclose(factor.x, inv[:, 0], rtol=0, atol=1e-10 * np.max(np.abs(inv)))
    assert factor.logdet == pytest.approx(np.linalg.slogdet(T)[1], rel=1e-12)
    Y = rng.standard_normal((n, 3))
    alpha = factor.solve(Y)
    np.testing.assert_allclose(alpha, inv @ Y, rtol=0, atol=1e-10 * np.max(np.abs(inv @ Y)))
    np.testing.assert_allclose(factor.solve(Y[:, [1]]), alpha[:, [1]], rtol=1e-13, atol=0)
    M = 3 * inv - alpha @ alpha.T
    S = factor.diag_sums(alpha)
    ref = np.array([np.trace(M, -k) for k in range(n)])
    np.testing.assert_allclose(S, ref, rtol=0, atol=1e-10 * np.max(np.abs(ref)))


class TestCompiledRecursion:
    """``tz.levinson`` runs scipy's compiled recursion; conftest's
    ``ref_levinson`` is Durbin's recursion as a Python loop over k."""

    @settings(max_examples=60, deadline=None)
    @given(_problems())
    def test_matches_the_python_recursion(self, problem):
        """x to 1e-12 of max|x| and log|T| to 1e-12 relative, or to 10 eps
        kappa(T) where kappa(T) > ~5e2: the two recursions round differently,
        and their difference grows with kappa.  Over 1,200 draws from this
        distribution it reached 8.8e-10 of max|x| at kappa 3e7 (noise near
        1e-6 of the prior variance), at most 0.5 eps kappa on x and 0.05 eps
        kappa on log|T|."""
        data, params, kind = problem
        n = data.n
        r = kn.kernel_value(kn.Grid.of(data.X).lags(), kind, params)
        r[0] += params.noise_var
        eig = np.linalg.eigvalsh(r[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))])
        tol = max(1e-12, 10.0 * np.finfo(float).eps * eig[-1] / eig[0])
        factor, ref = tz.levinson(r), ref_levinson(r)
        assert np.max(np.abs(factor.x - ref.x)) <= tol * np.max(np.abs(ref.x))
        assert abs(factor.logdet - ref.logdet) <= tol * abs(ref.logdet)

    @pytest.mark.parametrize("r", [[2.0], [2.0, 0.5], [2.0, -1.9]])
    def test_one_and_two_points(self, r):
        r = np.array(r)
        T = r[np.abs(np.subtract.outer(np.arange(r.size), np.arange(r.size)))]
        factor, ref = tz.levinson(r), ref_levinson(r)
        np.testing.assert_allclose(factor.x, ref.x, rtol=1e-15, atol=0)
        np.testing.assert_allclose(factor.x, np.linalg.inv(T)[:, 0], rtol=1e-14, atol=0)
        assert factor.logdet == pytest.approx(ref.logdet, rel=1e-15)
        assert factor.logdet == pytest.approx(np.linalg.slogdet(T)[1], rel=1e-14)

    @pytest.mark.parametrize("head", [
        (1.0, 3.0),        # |r_1| > r_0: E_1 < 0
        (1.0, 0.9, 0.1),   # E_1 > 0, E_2 < 0: the leading 3 x 3 block is indefinite
        (1.0, 0.0, 0.0, 1.5),   # E_0 = E_1 = E_2 = 1, E_3 < 0
        (0.0,),            # a singular leading minor
        (-1.0,),           # E_0 < 0
    ])
    def test_no_factor_where_the_python_recursion_has_none(self, head):
        r = np.zeros(12)
        r[:len(head)] = head
        assert ref_levinson(r) is None
        assert tz.levinson(r) is None
        if len(head) > 2:  # the recursion fails mid-way: E_1 > 0
            T = r[np.abs(np.subtract.outer(np.arange(len(head)), np.arange(len(head))))]
            assert np.all(np.linalg.eigvalsh(T[:2, :2]) > 0.0)
            assert np.linalg.eigvalsh(T)[0] < 0.0

    def test_scipy_recursion_gives_partial_autocorrelations_on_yule_walker(self):
        """The contract ``tz.levinson`` reads from the private
        ``scipy.linalg._solve_toeplitz.levinson``: on the Yule--Walker system
        T_(n-1) phi = r_1..r_(n-1), given as the reversed and forward column,
        it returns phi and the reflection coefficients (1, lam_1, ...,
        lam_(n-1)), lam_k the last coefficient of the order-k solution."""
        from scipy.linalg._solve_toeplitz import levinson as scipy_levinson

        n = 40
        r = kn.kernel_value(0.5 * np.arange(n), "slsm",
                            SlsmParams((SlsmComponent(1.0, 0.7, 0.3, 0.4),)))
        r[0] += 0.05
        T = r[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
        phi, refl = scipy_levinson(np.concatenate((r[n - 2:0:-1], r[:n - 1])), r[1:])
        np.testing.assert_allclose(phi, np.linalg.solve(T[:-1, :-1], r[1:]), rtol=0, atol=1e-12)
        pacf = [np.linalg.solve(T[:k, :k], r[1:k + 1])[-1] for k in range(1, n)]
        assert refl.shape == (n,) and refl[0] == 1.0
        np.testing.assert_allclose(refl[1:], pacf, rtol=0, atol=1e-12)
