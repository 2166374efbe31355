"""Parameter transforms and the L-BFGS minimizer."""

from dataclasses import replace

import numpy as np
import pytest

import skewgp.optimize as optimize
from skewgp.errors import DataError, NumericalError
from skewgp.kernels import BaselineKernelParams, SlsmComponent, SlsmParams
from skewgp.optimize import (
    WOLFE_C1,
    WOLFE_C2,
    OptConfig,
    minimize,
    trace_to_csv,
    transform,
    untransform,
)

from conftest import random_params


class TestTransforms:
    def test_unit_weight_maps_to_zero(self):
        p = SlsmParams((SlsmComponent(1.0, 0.5, 1.0, 0.0),), noise_var=1.0)
        x, layout = transform(p, "slsm")
        assert x[0] == 0.0
        x[0 * (1 + 3 * 1) + 0] = np.log(2.0)    # slot = row (1 + k P) + column: w of row 0
        assert untransform(x, layout).components[0].w == pytest.approx(2.0)

    def test_round_trip_random_params(self, rng):
        for _ in range(100):
            p = random_params(rng, q=int(rng.integers(1, 4)))
            kind = ("slsm", "sm", "lkp")[int(rng.integers(3))]
            q = untransform(*transform(p, kind))
            for a, b in zip(p.components, q.components):
                assert a.w == pytest.approx(b.w, rel=1e-12)
                assert a.mu == pytest.approx(b.mu, rel=1e-12)
                assert a.sigma == pytest.approx(b.sigma, rel=1e-12)
                if kind == "slsm":
                    assert a.gamma == b.gamma
            assert p.noise_var == pytest.approx(q.noise_var, rel=1e-12)

    def test_gamma_slot_is_identity(self):
        p = SlsmParams((SlsmComponent(1.0, 0.5, 1.0, -0.7),), noise_var=0.1)
        x, layout = transform(p, "slsm")
        gi = 0 * (1 + 3 * 1) + 1 + 2 * 1    # slot = row (1 + k P) + column: gamma of row 0
        assert x[gi] == -0.7
        assert not layout.log_mask[gi]
        x[gi] = 800.0    # past exp's range: read back as is, with no overflow warning
        _, vals = layout.natural(x)
        logged = np.array(layout.log_mask)
        assert vals[gi] == 800.0 and untransform(x, layout).components[0].gamma == (800.0,)
        assert np.array_equal(vals[logged], np.exp(x[logged]))

    def test_zero_frequency_floored(self):
        p = SlsmParams((SlsmComponent(1.0, 0.0, 1.0, 0.0),), noise_var=0.1)
        q = untransform(*transform(p, "slsm"))
        assert q.components[0].mu[0] == pytest.approx(1e-8)

    def test_baseline_round_trip(self):
        b = BaselineKernelParams("rq", theta_f=2.0, ell=0.5, rq_alpha=1.5,
                                 noise_var=0.3)
        q = untransform(*transform(b, "rq"))
        assert q.theta_f == pytest.approx(2.0, rel=1e-12)
        assert q.rq_alpha == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize("kind,p", [(k, p) for k in ("slsm", "sm", "lkp") for p in (1, 2, 3)]
                             + [("se", 1), ("rq", 1)])
    def test_vector_is_the_logged_rows_bit_for_bit(self, rng, kind, p):
        """The vector equals a per-slot scalar reference bit for bit: the
        rows (w, mu floored at MU_FLOOR, sigma and, for slsm, gamma; a
        baseline's theta_f, ell(, rq_alpha)), then the noise variance, each
        slot ``float(np.log(v))`` but a skew, which stays as is.  A zero
        weight and a zero noise variance each raise ``DataError``."""
        for _ in range(50):
            if kind in ("se", "rq"):
                params = BaselineKernelParams(kind, *np.exp(rng.normal(0.0, 3.0, 3)),
                                              noise_var=float(np.exp(rng.normal(0.0, 3.0))))
                slots = [(v, True) for v in (params.theta_f, params.ell)]
                slots += [(params.rq_alpha, True)] if kind == "rq" else []
            else:
                comps = tuple(SlsmComponent(float(np.exp(rng.normal(0.0, 3.0))),
                                            tuple(np.where(rng.random(p) < 0.3, 0.0,
                                                           np.exp(rng.normal(0.0, 4.0, p)))),
                                            tuple(np.exp(rng.normal(0.0, 3.0, p))),
                                            tuple(rng.normal(0.0, 2.0, p)))
                              for _ in range(int(rng.integers(1, 5))))
                params = SlsmParams(comps, noise_var=float(np.exp(rng.normal(0.0, 3.0))))
                slots = []
                for c in comps:
                    slots += [(c.w, True)] + [(max(m, optimize.MU_FLOOR), True) for m in c.mu]
                    slots += [(s, True) for s in c.sigma]
                    slots += [(g, False) for g in c.gamma] if kind == "slsm" else []
            slots.append((params.noise_var, True))
            x, layout = transform(params, kind)
            ref = [float(np.log(v)) if logged else v for v, logged in slots]
            assert np.array_equal(x.view(np.int64), np.array(ref).view(np.int64))
            assert layout.log_mask == tuple(logged for _, logged in slots)
        if kind not in ("se", "rq"):
            with pytest.raises(DataError, match="component 0 column 0"):
                transform(params.with_components((replace(comps[0], w=0.0),) + comps[1:]), kind)
        with pytest.raises(DataError, match="noise variance"):
            transform(replace(params, noise_var=0.0), kind)

    def test_nonpositive_log_slot_rejected(self):
        p = SlsmParams((SlsmComponent(1.0, 0.5, 1.0, 0.0),), noise_var=0.0)
        with pytest.raises(DataError):
            transform(p, "slsm")    # noise_var = 0 cannot enter a log slot


def _quadratic(x):
    return float(x @ x), 2.0 * x


def _rosenbrock(x):
    a, b = 1.0, 100.0
    f = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
    g = np.array([
        -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] ** 2),
        2.0 * b * (x[1] - x[0] ** 2),
    ])
    return f, g


def _steep_bowl(x):
    return 0.5e4 * float(x @ x), 1e4 * x


def _walled_rosenbrock(x):
    # infinite past x[0] = 0.9: near the wall a quasi-Newton search fails
    return (np.inf, np.zeros_like(x)) if x[0] > 0.9 else _rosenbrock(x)


def _instrumented(monkeypatch, fun, x0, cfg):
    """Run :func:`minimize` recording every line search as
    ``(x, f0, g0, d, steepest, calls, result)``: ``steepest`` marks a
    direction built from an empty curvature history, ``calls`` are the
    objective calls ``(x, f, g)`` the search made."""
    calls, searches, steepest = [], [], []
    direction, search = optimize._lbfgs_direction, optimize._weak_wolfe

    def recorded(x):
        f, g = fun(x)
        calls.append((x.copy(), f, g.copy()))
        return f, g

    def recorded_direction(g, s_hist, y_hist):
        d = direction(g, s_hist, y_hist)
        if not s_hist:
            steepest.append(d)
        return d

    def recorded_search(f, x, f0, g0, d):
        first = len(calls)
        result = search(f, x, f0, g0, d)
        searches.append((x.copy(), f0, g0.copy(), d.copy(),
                         any(d is e for e in steepest), calls[first:], result))
        return result

    monkeypatch.setattr(optimize, "_lbfgs_direction", recorded_direction)
    monkeypatch.setattr(optimize, "_weak_wolfe", recorded_search)
    return minimize(recorded, x0, cfg), searches


class TestFirstStep:
    """Every steepest-descent search (the first iteration, a reset, the
    retry after a failed quasi-Newton search) first tries
    x - g / max(1, |g|_inf)."""

    @staticmethod
    def _check_steepest_first_trials(searches):
        n = 0
        for x, _, g0, _, steepest, calls, _ in searches:
            if steepest:
                expected = x + -g0 / max(1.0, float(np.max(np.abs(g0))))
                np.testing.assert_array_equal(calls[0][0], expected)
                n += 1
        return n

    def test_steep_bowl_one_iteration_two_evaluations(self):
        res = minimize(_steep_bowl, np.ones(3), OptConfig(max_iters=1))
        assert res.n_evals == 2
        assert res.f == 0.0

    def test_converged_on_last_permitted_iteration(self):
        # the only iteration lands on g = 0: the final iterate is tested too
        res = minimize(_steep_bowl, np.ones(3), OptConfig(max_iters=1))
        assert res.trace[-1].grad_norm == 0.0
        assert res.converged

    def test_failed_steepest_search_ends_the_run(self):
        x0 = np.array([0.3, -0.2])

        def spike(x):
            # finite only at x0, with |g|_inf <= 1: no step can succeed
            if np.array_equal(x, x0):
                return 1.0, np.array([0.5, -1.0])
            return np.inf, np.zeros(2)

        res = minimize(spike, x0, OptConfig(max_iters=20))
        assert res.n_evals == 1 + optimize.MAX_BISECT
        assert res.f == 1.0 and not res.converged
        np.testing.assert_array_equal(res.x, x0)

    def test_rosenbrock_trials_and_wolfe_flags(self, monkeypatch):
        """Every accepted step satisfies Armijo at its recorded trial, and
        its curvature flag is the condition recomputed there.  Plain
        Rosenbrock converges with every step curved; the walled one also
        accepts steps without curvature."""
        uncurved = {}
        for fun in (_rosenbrock, _walled_rosenbrock):
            with monkeypatch.context() as mp:
                res, searches = _instrumented(
                    mp, fun, np.array([-1.2, 1.0]), OptConfig(max_iters=200))
            assert res.converged == (fun is _rosenbrock)
            assert self._check_steepest_first_trials(searches) >= 1
            accepted = [s for s in searches if s[6][0] > 0.0]
            assert len(accepted) == len(res.trace) - 1
            for step, (x, f0, g0, d, _, tried, (t, _, _, _, _)) in zip(res.trace[1:], accepted):
                # the objective as recorded at the accepted trial point
                f1, g1 = next((f, g) for xt, f, g in tried if np.array_equal(xt, x + t * d))
                dg0 = float(g0 @ d)
                assert step.f == f1 and step.grad_norm == float(np.max(np.abs(g1)))
                assert f1 <= f0 + WOLFE_C1 * t * dg0
                assert step.curvature_ok == (float(g1 @ d) >= WOLFE_C2 * dg0)
            uncurved[fun] = sum(not s.curvature_ok for s in res.trace[1:])
        assert uncurved[_rosenbrock] == 0 and uncurved[_walled_rosenbrock] >= 1

    def test_failed_quasi_newton_search_retried_from_steepest_descent(self, monkeypatch):
        _, searches = _instrumented(
            monkeypatch, _walled_rosenbrock, np.array([-1.2, 1.0]), OptConfig(max_iters=40))
        retried = [b for a, b in zip(searches, searches[1:]) if not a[4] and a[6][0] == 0.0]
        assert retried and all(b[4] for b in retried)
        assert self._check_steepest_first_trials(searches) >= 1 + len(retried)

    @pytest.mark.parametrize("bad", ["uphill", "non-finite"])
    def test_bad_quasi_newton_direction_resets_the_pairs(self, monkeypatch, bad):
        """A quasi-Newton direction that points uphill or is not finite
        clears the curvature pairs before any search: the next direction is
        built from none, every search runs downhill, and the run still
        lowers f."""
        direction, search, pairs, slopes = optimize._lbfgs_direction, optimize._weak_wolfe, [], []

        def spoiled(g, s_hist, y_hist):
            d = direction(g, s_hist, y_hist)
            pairs.append(len(s_hist))
            if s_hist and sum(n > 0 for n in pairs) == 1:  # the first quasi-Newton one
                return -d if bad == "uphill" else np.full_like(d, np.nan)
            return d

        def recorded_search(fun, x, f0, g0, d):
            slopes.append(float(g0 @ d))
            return search(fun, x, f0, g0, d)

        monkeypatch.setattr(optimize, "_lbfgs_direction", spoiled)
        monkeypatch.setattr(optimize, "_weak_wolfe", recorded_search)
        x0 = np.array([-1.2, 1.0])
        res = minimize(_rosenbrock, x0, OptConfig(max_iters=10))
        first = next(i for i, n in enumerate(pairs) if n > 0)
        assert pairs[first + 1] == 0
        assert len(slopes) >= first + 1 and all(v < 0.0 for v in slopes)
        assert res.f < _rosenbrock(x0)[0]


class TestMinimize:
    def test_quadratic_bowl(self, rng):
        x0 = rng.uniform(-5, 5, 8)
        res = minimize(_quadratic, x0, OptConfig(max_iters=50))
        assert np.linalg.norm(res.x) < 1e-6
        assert len(res.trace) <= 51

    def test_rosenbrock(self):
        res = minimize(_rosenbrock, np.array([-1.2, 1.0]), OptConfig(max_iters=200))
        assert res.f < 1e-6
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-3)

    def test_monotone_trace(self, rng):
        res = minimize(_rosenbrock, np.array([-1.2, 1.0]), OptConfig(max_iters=200))
        fs = [t.f for t in res.trace]
        assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(fs, fs[1:]))

    def test_determinism(self, rng):
        x0 = rng.uniform(-2, 2, 5)
        cfg = OptConfig(max_iters=80, restarts=3, seed=4)
        r1 = minimize(_quadratic, x0, cfg)
        r2 = minimize(_quadratic, x0, cfg)
        np.testing.assert_array_equal(r1.x, r2.x)
        assert [(t.f, t.grad_norm, t.step_len) for t in r1.trace] == \
               [(t.f, t.grad_norm, t.step_len) for t in r2.trace]

    def test_multi_restart_keeps_best(self):
        calls = []

        def bumpy(x):
            calls.append(x.copy())
            f = float(np.cos(3.0 * x[0]) + 0.01 * x[0] ** 2)
            g = np.array([-3.0 * np.sin(3.0 * x[0]) + 0.02 * x[0]])
            return f, g

        single = minimize(bumpy, np.array([0.0]), OptConfig(max_iters=60))
        multi = minimize(bumpy, np.array([0.0]),
                         OptConfig(max_iters=60, restarts=8, seed=1))
        assert multi.f <= single.f

    @pytest.mark.parametrize("error", [DataError, NumericalError, None],
                             ids=["DataError", "NumericalError", "nan"])
    def test_a_failed_evaluation_reads_as_the_inf_wall(self, error):
        """An evaluation that raises ``DataError`` or ``NumericalError``, or
        returns a NaN f, reads as +inf: the run is the inf-walled one, step
        for step and evaluation for evaluation."""
        def failing(x):
            if x[0] <= 0.9:
                return _rosenbrock(x)
            if error is None:
                return np.nan, np.full_like(x, np.nan)
            raise error("wall")

        x0, cfg = np.array([-1.2, 1.0]), OptConfig(max_iters=200)
        res, ref = minimize(failing, x0, cfg), minimize(_walled_rosenbrock, x0, cfg)
        assert res.trace == ref.trace and res.n_evals == ref.n_evals
        np.testing.assert_array_equal(res.x, ref.x)

    def test_n_evals_counts_every_restart(self):
        # f is infinite where x[1] > 0: at seed 1 the second restart starts
        # there and raises, the third runs to the end
        calls = []

        def half_bowl(x):
            calls.append(x.copy())
            if x[1] > 0.0:
                return np.inf, np.zeros_like(x)
            return _quadratic(x - np.array([1.0, -1.0]))

        res = minimize(half_bowl, np.zeros(2), OptConfig(max_iters=30, restarts=3, seed=1))
        assert any(x[1] > 0.0 for x in calls)
        assert res.n_evals == len(calls)

    def test_trace_csv_format(self):
        res = minimize(_quadratic, np.array([1.0, -2.0]), OptConfig(max_iters=20))
        csv_text = trace_to_csv(res.trace)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "iter,f,grad_norm,step_len"
        assert len(lines) == len(res.trace) + 1
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == res.trace[0].f

    def test_invalid_config_rejected(self):
        with pytest.raises(DataError):
            OptConfig(max_iters=0)
        with pytest.raises(DataError):
            OptConfig(restarts=0)
