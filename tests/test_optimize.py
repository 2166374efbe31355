"""Parameter transforms and the L-BFGS minimizer."""

import numpy as np
import pytest

from skewgp.errors import DataError
from skewgp.kernels import BaselineKernelParams, SlsmComponent, SlsmParams
from skewgp.optimize import (
    OptConfig,
    TransformedParams,
    minimize,
    trace_to_csv,
    transform,
    untransform,
)

from conftest import random_params


class TestTransforms:
    def test_unit_weight_maps_to_zero(self):
        p = SlsmParams((SlsmComponent(1.0, 0.5, 1.0, 0.0),), noise_var=1.0)
        tp = transform(p, "slsm")
        assert tp.x[0] == 0.0
        assert tp.layout.names[0] == "w[0]"

    def test_round_trip_random_params(self, rng):
        for _ in range(100):
            p = random_params(rng, q=int(rng.integers(1, 4)))
            kind = ("slsm", "sm", "lkp")[int(rng.integers(3))]
            q = untransform(transform(p, kind))
            for a, b in zip(p.components, q.components):
                assert a.w == pytest.approx(b.w, rel=1e-12)
                assert a.mu == pytest.approx(b.mu, rel=1e-12)
                assert a.sigma == pytest.approx(b.sigma, rel=1e-12)
                if kind == "slsm":
                    assert a.gamma == b.gamma
            assert p.noise_var == pytest.approx(q.noise_var, rel=1e-12)

    def test_gamma_slot_is_identity(self):
        p = SlsmParams((SlsmComponent(1.0, 0.5, 1.0, -0.7),), noise_var=0.1)
        tp = transform(p, "slsm")
        gi = tp.layout.names.index("gamma[0]")
        assert tp.x[gi] == -0.7
        assert not tp.layout.log_mask[gi]

    def test_zero_frequency_floored(self):
        p = SlsmParams((SlsmComponent(1.0, 0.0, 1.0, 0.0),), noise_var=0.1)
        q = untransform(transform(p, "slsm"))
        assert q.components[0].mu[0] == pytest.approx(1e-8)

    def test_baseline_round_trip(self):
        b = BaselineKernelParams("rq", theta_f=2.0, ell=0.5, rq_alpha=1.5,
                                 noise_var=0.3)
        q = untransform(transform(b, "rq"))
        assert q.theta_f == pytest.approx(2.0, rel=1e-12)
        assert q.rq_alpha == pytest.approx(1.5, rel=1e-12)

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

    def test_wolfe_conditions_per_step(self):
        res = minimize(_rosenbrock, np.array([-1.2, 1.0]), OptConfig(max_iters=200))
        assert all(t.armijo_ok for t in res.trace[1:])

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
