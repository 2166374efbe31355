"""Lottery-ticket component pruning: thresholding, rewind contract, reports."""

import numpy as np
import pytest

import skewgp.pruning as pruning
from skewgp.errors import DataError
from skewgp.gp import Dataset, fit, sample_prior
from skewgp.kernels import BaselineKernelParams, SlsmComponent, SlsmParams
from skewgp.optimize import OptConfig
from skewgp.pruning import PruneConfig, lth_fit


@pytest.fixture(scope="module")
def synth():
    gen = SlsmParams((SlsmComponent(2.0, 0.5, 0.04, 0.3),
                      SlsmComponent(1.5, 1.6, 0.06, -0.2)), noise_var=0.05)
    X = np.arange(120.0)
    y = sample_prior("slsm", gen, X, 1, seed=5)[0]
    y = y + 0.05**0.5 * np.random.default_rng(6).standard_normal(120)
    return Dataset(X, y)


def _init(q, data, seed=0):
    import skewgp.spectral as sp

    spec = sp.periodogram(data.y, 1.0)
    return sp.init_params(sp.em_mixture(spec, q, seed=seed), "slsm",
                          float(np.var(data.y)), seed=seed)


FAST = OptConfig(max_iters=25, seed=0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DataError):
            PruneConfig(threshold=-1.0)
        with pytest.raises(DataError):
            PruneConfig(rounds=0)


class TestPruning:
    def test_reduces_components_and_stays_accurate(self, synth):
        train = Dataset(synth.X[:90], synth.y[:90])
        test = Dataset(synth.X[90:], synth.y[90:])
        init = _init(10, train)
        opt = OptConfig(max_iters=100, seed=0)
        from skewgp.metrics import metric_mse

        unpruned = fit(train, init, "slsm", opt)
        model = lth_fit(train, init, "slsm", PruneConfig(opt=opt))
        assert model.params.q <= 6
        mse_u = metric_mse(test.y, unpruned.predict(test.X).mean)
        mse_p = metric_mse(test.y, model.predict(test.X).mean)
        assert mse_p <= 1.1 * mse_u

    def test_zero_threshold_never_prunes(self, synth):
        init = _init(4, synth)
        model = lth_fit(synth, init, "slsm", PruneConfig(threshold=0.0, opt=FAST))
        assert model.params.q == 4
        assert all(r["pruned_indices"] == [] for r in model.prune_report["rounds"])
        # equals round-wise retraining with the same per-round budget
        round1 = fit(synth, init, "slsm", FAST)
        noise = round1.denormalized_params().noise_var
        round2_init = SlsmParams(init.components, noise_var=noise)
        reference = fit(synth, round2_init, "slsm", FAST)
        for a, b in zip(model.params.components, reference.params.components):
            assert (a.w, a.mu, a.sigma, a.gamma) == (b.w, b.mu, b.sigma, b.gamma)
        assert model.params.noise_var == reference.params.noise_var

    def test_all_above_threshold_is_pure_reset_retrain(self, synth):
        init = _init(3, synth)
        rounds = lth_fit(synth, init, "slsm",
                         PruneConfig(threshold=1e-12, opt=FAST)).prune_report["rounds"]
        assert [r["surviving_q"] for r in rounds] == [3, 3]
        assert all(r["pruned_indices"] == [] for r in rounds)

    def test_largest_weight_always_survives(self, synth):
        init = _init(5, synth)
        # absurd threshold: everything is below it, argmax must survive
        model = lth_fit(synth, init, "slsm", PruneConfig(threshold=1e12, opt=FAST))
        assert model.prune_report["rounds"][-1]["surviving_q"] == 1
        assert model.params.q == 1

    def test_monotone_q(self, synth):
        init = _init(8, synth)
        model = lth_fit(synth, init, "slsm", PruneConfig(rounds=3, opt=FAST))
        qs = [r["surviving_q"] for r in model.prune_report["rounds"]]
        assert all(b <= a for a, b in zip(qs, qs[1:]))

    def test_report_weights_are_denormalized(self, synth):
        init = _init(10, synth)
        doc = lth_fit(synth, init, "slsm", PruneConfig(opt=FAST)).prune_report
        for r in doc["rounds"]:
            assert all(w < 1.0 for w in r["pruned_weights"])
        assert doc["threshold"] == 1.0
        assert len(doc["rounds"]) == 2
        assert list(doc) == ["threshold", "rounds"]
        assert [list(r) for r in doc["rounds"]] == [[
            "round", "nlml_before_prune", "pruned_indices", "pruned_weights",
            "surviving_q", "nlml_after_prune"]] * 2

    @pytest.mark.parametrize("kind", ["se", "rq"])
    def test_baseline_kernel_is_data_error(self, synth, kind):
        init = BaselineKernelParams(kind, theta_f=1.0, ell=10.0, rq_alpha=1.0,
                                    noise_var=0.1)
        with pytest.raises(DataError, match="pruning needs a mixture kernel"):
            lth_fit(synth, init, kind, PruneConfig(opt=FAST))


class TestRewindContract:
    def _record_inits(self, monkeypatch):
        recorded = []
        real_fit = pruning.fit

        def spy(data, init_params, kind, cfg):
            recorded.append(init_params)
            return real_fit(data, init_params, kind, cfg)

        monkeypatch.setattr(pruning, "fit", spy)
        return recorded

    def test_full_rewind_restores_all_hyperparameters(self, synth, monkeypatch):
        recorded = self._record_inits(monkeypatch)
        init = _init(6, synth)
        lth_fit(synth, init, "slsm", PruneConfig(opt=FAST))
        assert len(recorded) == 2
        survivors = {(c.mu, c.sigma, c.gamma): c for c in init.components}
        for c in recorded[1].components:
            orig = survivors[(c.mu, c.sigma, c.gamma)]
            assert c.w == orig.w    # bit-identical rewind to round-0 values

    def test_noise_is_never_rewound(self, synth, monkeypatch):
        recorded = self._record_inits(monkeypatch)
        init = _init(4, synth)
        lth_fit(synth, init, "slsm", PruneConfig(opt=FAST))
        assert recorded[1].noise_var != init.noise_var
