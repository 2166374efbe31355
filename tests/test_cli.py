"""CSV ingestion, forecasting jobs, artifacts, and CLI commands."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import skewgp.cli as cli
import skewgp.gp as gp
import skewgp.rbcm as rbcm
from skewgp.errors import DataError
from skewgp.cli import (
    ForecastJob,
    build_init,
    chronological_split,
    ingest_csv,
    read_predictions_csv,
    run_job,
)
from skewgp.kernels import SlsmParams
from skewgp.spectral import sampling_step

from conftest import AIRLINE_CSV


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


@pytest.fixture
def small_series(tmp_path):
    t = np.arange(48.0)
    y = 10.0 + 3.0 * np.cos(2.0 * math.pi * t / 12.0) + 0.3 * np.sin(1.7 * t)
    lines = "t,y\n" + "".join(f"{ti},{yi}\n" for ti, yi in zip(t, y))
    return _write(tmp_path, "series.csv", lines)


class TestIngest:
    def test_two_column_uniform(self, tmp_path):
        p = _write(tmp_path, "a.csv", "1,2.5\n2,3.5\n")
        data, info = ingest_csv(p)
        assert data.n == 2 and info == cli.IngestInfo(1)
        assert sampling_step(data.X[:, 0]) == (True, 1.0)
        np.testing.assert_array_equal(data.y, [2.5, 3.5])

    def test_header_skipped(self, tmp_path):
        p = _write(tmp_path, "a.csv", "time,value\n0,1.0\n1,2.0\n")
        data, info = ingest_csv(p)
        np.testing.assert_array_equal(data.X[:, 0], [0.0, 1.0])
        np.testing.assert_array_equal(data.y, [1.0, 2.0])

    def test_single_column_gets_implicit_time(self, tmp_path):
        p = _write(tmp_path, "a.csv", "5.0\n6.0\n7.0\n")
        data, info = ingest_csv(p)
        np.testing.assert_array_equal(data.X[:, 0], [0.0, 1.0, 2.0])
        assert info == cli.IngestInfo(1) and sampling_step(data.X[:, 0])[0]

    def test_wide_file_is_multivariate(self, tmp_path, rng):
        rows = rng.standard_normal((209, 9))
        text = "\n".join(",".join(repr(float(v)) for v in row) for row in rows)
        p = _write(tmp_path, "hw.csv", text + "\n")
        data, info = ingest_csv(p)
        assert info == cli.IngestInfo(8)
        assert data.X.shape == (209, 8)

    def test_non_uniform_time_detected(self, tmp_path):
        p = _write(tmp_path, "a.csv", "0,1\n1,2\n3,3\n7,4\n")
        data, _ = ingest_csv(p)
        assert not sampling_step(data.X[:, 0])[0]

    def test_descending_uniform_time_reads_as_ascending(self, tmp_path, rng):
        """A descending or shuffled uniform series is uniform with the
        ascending one's step, the times being read sorted; a zig-zag
        t = 0, 1, 0, 1, ... (sorted, gaps of 0) is not."""
        t = 100.0 - 0.5 * np.arange(120)
        y = np.sin(2.5 * t)
        perm = rng.permutation(120)
        steps = [sampling_step(ingest_csv(_write(
                     tmp_path, f"{name}.csv",
                     "".join(f"{a},{b}\n" for a, b in zip(tt, yy))))[0].X[:, 0])
                 for name, tt, yy in (("down", t, y), ("up", t[::-1], y[::-1]),
                                      ("shuffled", t[perm], y[perm]))]
        assert steps[0] == steps[1] == steps[2] == (True, 0.5)
        zigzag = _write(tmp_path, "zz.csv", "".join(f"{k % 2},{k}\n" for k in range(120)))
        assert not sampling_step(ingest_csv(zigzag)[0].X[:, 0])[0]

    def test_error_messages_locate_problems(self, tmp_path):
        ragged = _write(tmp_path, "r.csv", "1,2\n3\n")
        with pytest.raises(DataError, match="row 2"):
            ingest_csv(ragged)
        alpha = _write(tmp_path, "x.csv", "1,2\n3,oops\n")
        with pytest.raises(DataError, match="row 2, column 2"):
            ingest_csv(alpha)
        empty = _write(tmp_path, "e.csv", "")
        with pytest.raises(DataError, match="empty"):
            ingest_csv(empty)
        with pytest.raises(DataError, match="not found"):
            ingest_csv(tmp_path / "missing.csv")

    def test_comment_rows_skipped(self, tmp_path):
        p = _write(tmp_path, "a.csv", "# a comment\n0,1\n1,2\n")
        data, _ = ingest_csv(p)
        assert data.n == 2


class TestSplitAndInit:
    def test_chronological_property(self, rng):
        from skewgp.gp import Dataset

        data = Dataset(np.arange(100.0), rng.standard_normal(100))
        train, test = chronological_split(data, 0.6)
        assert train.n == 60 and test.n == 40
        assert np.max(train.X) < np.min(test.X)

    def test_descending_series_trains_on_the_earliest_times(self, tmp_path):
        t = 100.0 - 0.5 * np.arange(20)
        p = _write(tmp_path, "d.csv", "".join(f"{float(a)!r},{float(a) / 10!r}\n" for a in t))
        train, test = chronological_split(ingest_csv(p)[0], 0.6)
        np.testing.assert_array_equal(train.X[:, 0], np.sort(t)[:12])
        np.testing.assert_array_equal(test.X[:, 0], np.sort(t)[12:])
        np.testing.assert_array_equal(train.y, train.X[:, 0] / 10)

    def test_shuffled_series_splits_like_its_sorted_copy(self, rng):
        from skewgp.gp import Dataset

        t = np.arange(50.0)
        y = rng.standard_normal(50)
        perm = rng.permutation(50)
        for got, want in zip(chronological_split(Dataset(t[perm], y[perm]), 0.6),
                             chronological_split(Dataset(t, y), 0.6)):
            assert got.fingerprint() == want.fingerprint()

    def test_degenerate_fraction_rejected(self, rng):
        from skewgp.gp import Dataset

        data = Dataset(np.arange(3.0), np.zeros(3))
        with pytest.raises(DataError):
            chronological_split(data, 0.05)

    def test_fraction_within_rounding_of_an_integer(self, rng):
        from skewgp.gp import Dataset

        # 100 * 0.29 == 28.999999999999996; n * (k / n) lands below k for
        # many more pairs (n, k)
        for n in (100, 997, 1999):
            data = Dataset(np.arange(float(n)), rng.standard_normal(n))
            for k in range(1, n):
                train, test = chronological_split(data, k / n)
                assert (train.n, test.n) == (k, n - k)

    def test_spectral_init_for_uniform_series(self, small_series):
        data, info = ingest_csv(small_series)
        init, spec_pair = build_init(data, info, "slsm", 4, seed=0)
        assert isinstance(init, SlsmParams) and init.q == 4
        assert spec_pair is not None

    def test_random_init_for_multivariate(self, tmp_path, rng):
        rows = rng.standard_normal((40, 4))
        p = _write(tmp_path, "m.csv",
                   "\n".join(",".join(repr(float(v)) for v in r) for r in rows) + "\n")
        data, info = ingest_csv(p)
        init, spec_pair = build_init(data, info, "slsm", 3, seed=0)
        assert isinstance(init, SlsmParams) and init.p == 3
        assert spec_pair is None    # spectral init disabled off the uniform path


class TestRunJob:
    def test_emits_all_artifacts(self, small_series, tmp_path):
        out = tmp_path / "out"
        job = ForecastJob(str(small_series), str(out), kernel="slsm", q=3,
                          max_iters=10)
        report = run_job(job)
        for name in ("model.json", "predictions.csv", "spectrum.csv",
                     "mixture_fit.csv", "metrics.json"):
            assert (out / name).exists()
        assert report["n_train"] == 28 and report["n_test"] == 20
        assert report["mae"]["mean"] >= 0.0

    def test_multi_run_reports_mean_and_std(self, small_series, tmp_path):
        out = tmp_path / "out"
        job = ForecastJob(str(small_series), str(out), kernel="sm", q=2,
                          runs=3, max_iters=5)
        report = run_job(job)
        for key in ("mse", "mae", "smse", "nlml"):
            assert set(report[key]) == {"mean", "std", "values"}
            assert len(report[key]["values"]) == 3
            assert report[key]["mean"] == float(np.mean(report[key]["values"]))
        assert "nlpd" not in report    # latent variances score no held-out target
        assert (out / "run0_predictions.csv").exists()
        assert (out / "run2_model.json").exists()

    def test_runs_are_independent_seeds(self, small_series, tmp_path):
        common = dict(kernel="slsm", q=2, max_iters=5)
        run_job(ForecastJob(str(small_series), str(tmp_path / "multi"), seed=4, runs=3,
                            **common))
        run_job(ForecastJob(str(small_series), str(tmp_path / "one"), seed=5, **common))
        assert ((tmp_path / "multi" / "run1_model.json").read_text()
                == (tmp_path / "one" / "model.json").read_text())

    def test_deterministic_metrics(self, small_series, tmp_path):
        reports = []
        for d in ("o1", "o2"):
            job = ForecastJob(str(small_series), str(tmp_path / d), kernel="slsm",
                              q=2, seed=3, max_iters=8)
            run_job(job)
            doc = json.loads((tmp_path / d / "metrics.json").read_text())
            doc.pop("runtime_ms")    # the only nondeterministic field
            reports.append(json.dumps(doc, sort_keys=True))
        assert reports[0] == reports[1]

    def test_prediction_bands_and_round_trip(self, small_series, tmp_path):
        out = tmp_path / "out"
        job = ForecastJob(str(small_series), str(out), kernel="slsm", q=2,
                          max_iters=8)
        run_job(job)
        pred = read_predictions_csv(out / "predictions.csv")
        sd = np.sqrt(pred["var"])
        np.testing.assert_allclose(pred["lower95"], pred["mean"] - 1.96 * sd,
                                   atol=1e-12)
        np.testing.assert_allclose(pred["upper95"], pred["mean"] + 1.96 * sd,
                                   atol=1e-12)
        header = (out / "predictions.csv").read_text().splitlines()[0]
        assert header == "# variance_mode: latent"
        # emitted spectrum files parse with the same reader
        spec_rows, _ = cli._parse_rows(out / "spectrum.csv")
        assert spec_rows.shape[1] == 3
        mix_rows, _ = cli._parse_rows(out / "mixture_fit.csv")
        assert mix_rows.shape[1] == 2

    def test_observation_noise_mode_recorded(self, small_series, tmp_path):
        out = tmp_path / "out"
        job = ForecastJob(str(small_series), str(out), kernel="slsm", q=2,
                          max_iters=5, observation_noise=True)
        run_job(job)
        header = (out / "predictions.csv").read_text().splitlines()[0]
        assert header == "# variance_mode: observation"

    def test_pruned_job_reports_final_q(self, small_series, tmp_path):
        out = tmp_path / "out"
        job = ForecastJob(str(small_series), str(out), kernel="slsm", q=5,
                          prune=True, max_iters=10)
        report = run_job(job)
        assert report["pruned_q"]["values"][0] <= 5
        doc = json.loads((out / "model.json").read_text())
        assert (report["pruned_q"]["values"][0] == len(doc["components"])
                == doc["prune_report"]["rounds"][-1]["surviving_q"])

    def test_clamped_variances_reach_metrics(self, small_series, tmp_path, monkeypatch):
        common = dict(kernel="slsm", q=2, max_iters=3)
        report = run_job(ForecastJob(str(small_series), str(tmp_path / "ok"), **common))
        assert report["clamped_var"] == {"sum": 0, "values": [0]}

        moments = gp.latent_moments

        def negative_variance(*args):
            mean, var = moments(*args)
            var[:3] = -1.0
            return mean, var

        monkeypatch.setattr(gp, "latent_moments", negative_variance)
        out = tmp_path / "out"
        report = run_job(ForecastJob(str(small_series), str(out), runs=2, **common))
        assert report["clamped_var"] == {"sum": 6, "values": [3, 3]}
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["clamped_var"] == report["clamped_var"]
        assert np.all(read_predictions_csv(out / "run1_predictions.csv")["var"][:3] == 0.0)

    def test_multi_run_reports_per_seed_values_and_nlpd(self, small_series, tmp_path):
        """With observation noise each run's NLPD is the one ``perfbench``
        computes from the predictions written for that seed; every metric
        lists its per-seed values in seed order."""
        out = tmp_path / "out"
        report = run_job(ForecastJob(str(small_series), str(out), kernel="slsm", q=2,
                                     seed=4, runs=2, max_iters=5, observation_noise=True))
        assert json.loads((out / "metrics.json").read_text()) == report
        _, test = chronological_split(ingest_csv(small_series)[0], 0.6)
        for i in range(2):
            pred = read_predictions_csv(out / f"run{i}_predictions.csv")
            nlpd = float(np.mean(0.5 * np.log(2.0 * math.pi * pred["var"])
                                 + 0.5 * (test.y - pred["mean"]) ** 2 / pred["var"]))
            assert report["nlpd"]["values"][i] == nlpd
            one = run_job(ForecastJob(str(small_series), str(tmp_path / f"one{i}"),
                                      kernel="slsm", q=2, seed=4 + i, max_iters=5,
                                      observation_noise=True))
            for key in ("mse", "mae", "smse", "nlpd", "nlml", "nlml_no_const"):
                assert report[key]["values"][i] == one[key]["values"][0]
        assert report["nlpd"]["mean"] == float(np.mean(report["nlpd"]["values"]))
        assert report["nlpd"]["std"] == float(np.std(report["nlpd"]["values"]))

    def test_zero_variance_leaves_the_nlpd_undefined(self, small_series, tmp_path,
                                                     monkeypatch):
        moments = gp.latent_moments

        def negative_variance(*args):
            mean, var = moments(*args)
            var[0] = -1.0e6    # clamped to 0 after the noise is added
            return mean, var

        monkeypatch.setattr(gp, "latent_moments", negative_variance)
        out = tmp_path / "out"
        report = run_job(ForecastJob(str(small_series), str(out), kernel="slsm", q=2,
                                     runs=2, max_iters=3, observation_noise=True))
        assert report["nlpd"] == {"mean": None, "std": None, "values": [None, None]}
        assert report["clamped_var"]["values"] == [1, 1]
        assert json.loads((out / "metrics.json").read_text())["nlpd"] == report["nlpd"]

    def test_rbcm_job_writes_ensemble(self, small_series, tmp_path):
        out = tmp_path / "out"
        job = ForecastJob(str(small_series), str(out), kernel="slsm", q=2,
                          rbcm_m=2, max_iters=5)
        report = run_job(job)
        doc = json.loads((out / "model.json").read_text())
        assert doc["rbcm"]["m"] == 2 and len(doc["experts"]) == 2
        train, _ = chronological_split(ingest_csv(small_series)[0], job.train_frac)
        ens = rbcm.ensemble_from_dict(doc, train)
        assert report["nlml"]["mean"] == ens.nlml_internal
        assert (json.loads((out / "metrics.json").read_text())["nlml"]["mean"]
                == ens.nlml_internal)

    @pytest.mark.parametrize("trainer", [{}, {"rbcm_m": 2}, {"prune": True, "rounds": 1}],
                             ids=["full", "rbcm", "pruned"])
    def test_each_run_writes_its_optimizer_trace(self, small_series, tmp_path, trainer):
        """Each run writes ``run{i}_trace.csv`` next to its ``model.json``:
        the optimizer trace of that run's fitted object, whose record and
        predictions are the run's ``model.json`` and ``predictions.csv``."""
        job = ForecastJob(str(small_series), str(tmp_path), kernel="slsm", q=2,
                          max_iters=4, runs=2, **trainer)
        run_job(job)
        data, info = ingest_csv(small_series)
        train, test = chronological_split(data, job.train_frac)
        for i in range(2):
            init, _ = build_init(train, info, job.kernel, job.q, job.seed + i)
            model = cli._train(job, train, init, job.seed + i)
            header, *rows = (tmp_path / f"run{i}_trace.csv").read_text().splitlines()
            assert header == "iter,f,grad_norm,step_len"
            assert [row.split(",")[:2] for row in rows] == [
                [str(t.iteration), repr(t.f)] for t in model.opt_result.trace]
            doc = (rbcm.ensemble_to_dict(model) if "rbcm_m" in trainer
                   else gp.model_to_dict(model))
            assert (tmp_path / f"run{i}_model.json").read_text() == json.dumps(doc, indent=2)
            cli._write_predictions(tmp_path / "expected.csv", test.X, model.predict(test.X))
            assert ((tmp_path / f"run{i}_predictions.csv").read_bytes()
                    == (tmp_path / "expected.csv").read_bytes())

    @pytest.mark.parametrize("y_test", [[1.0], [2.0] * 8], ids=["one_point", "constant"])
    def test_unscorable_held_out_part_fails_before_any_fit(self, runner, tmp_path,
                                                           monkeypatch, y_test):
        y = np.concatenate([np.sin(np.arange(32.0)), y_test])
        src = _write(tmp_path, "s.csv", "".join(f"{float(v)!r}\n" for v in y))

        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before the held-out part was checked")

        monkeypatch.setattr(gp, "fit", no_fit)
        out = tmp_path / "out"
        res = runner.invoke(cli.main, ["fit", str(src), "--kernel", "se",
                                       "--train-frac", str(32 / y.size),
                                       "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert "held-out targets" in res.output and "SMSE" in res.output
        assert not out.exists()


class TestCommands:
    def test_fit_airline_smoke(self, runner, tmp_path):
        out = tmp_path / "out"
        res = runner.invoke(cli.main, [
            "fit", str(AIRLINE_CSV), "--kernel", "sm", "--q", "3",
            "--train-frac", str(96 / 144), "--max-iters", "5",
            "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        assert report["n_train"] == 96 and report["n_test"] == 48

    def test_fit_reports_the_split_it_trained_on(self, runner, tmp_path):
        t = np.arange(100.0)
        y = np.cos(2.0 * math.pi * t / 12.0) + 0.1 * np.sin(1.3 * t)
        src = _write(tmp_path, "s.csv", "".join(f"{a},{float(b)!r}\n" for a, b in zip(t, y)))
        out = tmp_path / "out"
        res = runner.invoke(cli.main, ["fit", str(src), "--kernel", "se",
                                       "--train-frac", "0.29", "--max-iters", "2",
                                       "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        assert report["n_train"] == 29 and report["n_test"] == 71
        assert read_predictions_csv(out / "predictions.csv")["mean"].size == 71
        # predict splits the same way, so the fingerprint check holds
        res = runner.invoke(cli.main, ["predict", "--model", str(out / "model.json"),
                                       "--train-data", str(src), "--train-frac", "0.29",
                                       "--at", str(src), "--out", str(out / "p.csv")])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("frac", ["0", "-0.1", "1.5"])
    def test_predict_rejects_a_train_fraction_outside_0_1(self, runner, small_series,
                                                          tmp_path, frac):
        """A fraction outside (0, 1] is a data error naming the flag, not a
        fingerprint mismatch, and writes nothing."""
        out = tmp_path / "out"
        res = runner.invoke(cli.main, ["fit", str(small_series), "--q", "2",
                                       "--max-iters", "2", "--out", str(out)])
        assert res.exit_code == 0, res.output
        pred_path = tmp_path / "p.csv"
        res = runner.invoke(cli.main, ["predict", "--model", str(out / "model.json"),
                                       "--train-data", str(small_series), "--train-frac", frac,
                                       "--at", str(small_series), "--out", str(pred_path)])
        assert res.exit_code == 3, res.output
        assert "--train-frac" in res.output and "fingerprint" not in res.output
        assert not pred_path.exists()

    def test_predict_round_trip(self, runner, small_series, tmp_path):
        """Also on the series at monthly timestamps rounded to 3 decimals,
        which read as irregular: a mixture off a grid."""
        data, _ = ingest_csv(small_series)
        t = np.round(data.X[:, 0] / 12.0, 3)
        irregular = _write(tmp_path, "irregular.csv", "t,y\n" + "".join(
            f"{ti},{yi}\n" for ti, yi in zip(t, data.y)))
        assert not sampling_step(ingest_csv(irregular)[0].X[:, 0])[0]
        for series in (small_series, irregular):
            out = tmp_path / series.stem
            res = runner.invoke(cli.main, [
                "fit", str(series), "--q", "2", "--max-iters", "5",
                "--out", str(out),
            ])
            assert res.exit_code == 0, res.output
            pred_path = out / "p.csv"
            res = runner.invoke(cli.main, [
                "predict", "--model", str(out / "model.json"),
                "--train-data", str(series),
                "--at", str(series), "--out", str(pred_path),
            ])
            assert res.exit_code == 0, res.output
            pred = read_predictions_csv(pred_path)
            assert pred["mean"].size == 48

    def test_sample_command(self, runner, small_series, tmp_path):
        out = tmp_path / "out"
        runner.invoke(cli.main, ["fit", str(small_series), "--q", "2",
                                 "--max-iters", "5", "--out", str(out)])
        sample_path = tmp_path / "s.csv"
        res = runner.invoke(cli.main, [
            "sample", "--model", str(out / "model.json"), "--n-points", "50",
            "--n-paths", "3", "--seed", "1", "--out", str(sample_path),
        ])
        assert res.exit_code == 0, res.output
        rows, header = cli._parse_rows(sample_path)
        assert rows.shape == (50, 4)

    def test_sample_multivariate_model_is_data_error(self, runner, tmp_path, rng):
        # samples are drawn on a 1-D grid, which a P=2 kernel cannot take
        rows = np.column_stack([rng.uniform(0, 5, (30, 2)), rng.standard_normal(30)])
        src = _write(tmp_path, "xy.csv",
                     "".join(",".join(repr(float(v)) for v in r) + "\n" for r in rows))
        out = tmp_path / "out"
        res = runner.invoke(cli.main, ["fit", str(src), "--q", "2", "--max-iters", "3",
                                       "--out", str(out)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(cli.main, ["sample", "--model", str(out / "model.json"),
                                       "--out", str(tmp_path / "s.csv")])
        assert res.exit_code == 3, res.output

    def test_sample_at_points_of_a_multivariate_model(self, runner, tmp_path, rng):
        """``--at`` samples a P = 2 model at the file's points, normalized as
        predict normalizes them, and writes their x1, x2 columns first;
        without it the error names ``--at``."""
        rows = np.column_stack([rng.uniform(0, 5, (30, 2)), rng.standard_normal(30)])
        src = _write(tmp_path, "xy.csv", "x1,x2,y\n" + "".join(
            ",".join(repr(float(v)) for v in r) + "\n" for r in rows))
        out = tmp_path / "out"
        res = runner.invoke(cli.main, ["fit", str(src), "--q", "2", "--max-iters", "3",
                                       "--out", str(out)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(cli.main, ["sample", "--model", str(out / "model.json"),
                                       "--out", str(tmp_path / "s.csv")])
        assert res.exit_code == 3 and "--at" in res.output
        res = runner.invoke(cli.main, ["sample", "--model", str(out / "model.json"),
                                       "--at", str(src), "--n-paths", "4", "--seed", "2",
                                       "--out", str(tmp_path / "s.csv")])
        assert res.exit_code == 0, res.output
        text = (tmp_path / "s.csv").read_text().splitlines()
        assert text[0] == "x1,x2,path0,path1,path2,path3"
        written, _ = cli._parse_rows(tmp_path / "s.csv")
        assert np.array_equal(written[:, :2], rows[:, :2])
        kind, params, norm = gp.record_model(json.loads((out / "model.json").read_text()))
        paths = gp.sample_prior(kind, params, norm.apply_queries(rows[:, :2]), 4, 2)
        assert np.array_equal(written[:, 2:], (norm.y_mean + norm.y_std * paths).T)

    def test_sample_at_the_grid_points_writes_the_grid_file(self, runner, small_series,
                                                            tmp_path):
        """A P = 1 model sampled ``--at`` the points of its default grid
        writes the grid's file byte for byte."""
        out = tmp_path / "out"
        runner.invoke(cli.main, ["fit", str(small_series), "--q", "2",
                                 "--max-iters", "5", "--out", str(out)])
        grid = _write(tmp_path, "grid.csv", "".join(
            f"{v!r}\n" for v in np.linspace(0.0, 50.0, 50).tolist()))
        common = ["sample", "--model", str(out / "model.json"), "--n-paths", "3",
                  "--seed", "1"]
        for extra, name in ((["--n-points", "50"], "a.csv"), (["--at", str(grid)], "b.csv")):
            res = runner.invoke(cli.main, common + extra + ["--out", str(tmp_path / name)])
            assert res.exit_code == 0, res.output
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_spectrum_command(self, runner, small_series, tmp_path):
        out = tmp_path / "spec"
        res = runner.invoke(cli.main, [
            "spectrum", str(small_series), "--q", "3", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        assert (out / "spectrum.csv").exists()
        assert (out / "mixture_fit.csv").exists()

    def test_shuffled_series_writes_the_sorted_files_artifacts(self, runner, tmp_path, rng):
        """A row-shuffled uniform series reads as its sorted copy: ``fit``
        takes the spectral init and writes the sorted file's model,
        predictions and spectrum files, ``spectrum`` its spectrum files and
        ``predict`` on the training rows alone its predictions, byte for
        byte."""
        t = np.arange(120.0)
        y = 10.0 + 3.0 * np.cos(2.0 * math.pi * t / 12.0) + 0.3 * np.sin(1.7 * t)
        rows = [f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, y)]
        spectrum = ("spectrum.csv", "mixture_fit.csv")
        outputs = {"fit": ("model.json", "predictions.csv") + spectrum, "spectrum": spectrum}
        shuffled = [rows[i] for i in rng.permutation(120)]
        for name, lines in (("sorted", rows), ("shuffled", shuffled)):
            src = _write(tmp_path, f"{name}.csv", "t,y\n" + "".join(lines))
            for command, options in (("fit", ["--max-iters", "5"]), ("spectrum", [])):
                res = runner.invoke(cli.main, [command, str(src), "--q", "2", *options,
                                               "--out", str(tmp_path / name / command)])
                assert res.exit_code == 0, res.output
        for command, names in outputs.items():
            for f in names:
                assert (tmp_path / "shuffled" / command / f).read_bytes() == \
                    (tmp_path / "sorted" / command / f).read_bytes()
        # predict reads the fit's 72 training rows alone, shuffled, as sorted
        train = [_write(tmp_path, f"train_{name}.csv",
                        "".join(r for r in lines if float(r.split(",")[0]) < 72))
                 for name, lines in (("sorted", rows), ("shuffled", shuffled))]
        for src in train:
            res = runner.invoke(cli.main, [
                "predict", "--model", str(tmp_path / "sorted" / "fit" / "model.json"),
                "--train-data", str(src), "--train-frac", "1.0", "--at", str(train[0]),
                "--out", str(src.with_suffix(".out"))])
            assert res.exit_code == 0, res.output
        assert train[0].with_suffix(".out").read_bytes() == \
            train[1].with_suffix(".out").read_bytes()

    @pytest.mark.parametrize("times", [(0, 1, 3, 4, 6, 9, 10, 12, 15, 17), tuple(range(10))],
                             ids=["irregular", "uniform"])
    def test_a_training_part_too_short_for_a_periodogram_takes_random_init(
            self, runner, tmp_path, times):
        """Two training rows have one gap, so they read as uniform, but a
        periodogram needs four: the fit takes random init and writes no
        spectrum files, whether or not the whole file is uniform."""
        series = _write(tmp_path, "short.csv", "t,y\n" + "".join(
            f"{t},{math.sin(0.7 * t) + 0.1 * t}\n" for t in times))
        out = tmp_path / "out"
        res = runner.invoke(cli.main, ["fit", str(series), "--q", "2", "--max-iters", "5",
                                       "--train-frac", "0.2", "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert json.loads((out / "metrics.json").read_text())["n_train"] == 2
        assert (out / "model.json").exists() and not (out / "spectrum.csv").exists()

    def test_a_held_out_row_does_not_move_the_init(self, runner, tmp_path):
        """The airline series with its last, held-out, row moved from t = 143
        to 149 trains on the same 86 grid rows, so it takes the spectral init
        and writes the original's model and spectrum files byte for byte."""
        lines = AIRLINE_CSV.read_text().splitlines(keepends=True)
        assert lines[-1].startswith("143,")
        moved = _write(tmp_path, "moved.csv", "".join(lines[:-1]) + "149," + lines[-1][4:])
        for name, src in (("ordered", AIRLINE_CSV), ("moved", moved)):
            res = runner.invoke(cli.main, ["fit", str(src), "--q", "2", "--max-iters", "5",
                                           "--out", str(tmp_path / name)])
            assert res.exit_code == 0, res.output
        for f in ("model.json", "spectrum.csv", "mixture_fit.csv"):
            assert (tmp_path / "moved" / f).read_bytes() == \
                (tmp_path / "ordered" / f).read_bytes()

    @pytest.mark.parametrize("command", ["fit", "spectrum"])
    def test_series_with_power_in_one_bin(self, runner, tmp_path, command):
        """An alternating series has power only in its Nyquist bin; a Q = 3
        spectral fit still seeds every component."""
        t = np.arange(20)
        series = _write(tmp_path, "alternating.csv", "t,y\n" + "".join(
            f"{ti},{5 + (-1) ** ti}\n" for ti in t))
        res = runner.invoke(cli.main, [command, str(series), "--q", "3",
                                       "--out", str(tmp_path / "out")])
        assert res.exit_code == 0, res.output

    def test_evaluate_command(self, runner, tmp_path, rng):
        y = rng.standard_normal(10)
        truth = _write(tmp_path, "truth.csv",
                       "".join(f"{i},{v}\n" for i, v in enumerate(y)))
        pred_lines = "t,mean,var,lower95,upper95\n" + "".join(
            f"{i},{v},1.0,{v - 1.96},{v + 1.96}\n" for i, v in enumerate(y))
        preds = _write(tmp_path, "preds.csv", pred_lines)
        res = runner.invoke(cli.main, [
            "evaluate", "--truth", str(truth), "--predictions", str(preds),
        ])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        assert report["mse"] == 0.0 and report["mae"] == 0.0

    def test_exit_code_data_error(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["fit", str(tmp_path / "nope.csv")])
        assert res.exit_code == 3

    def test_multivariate_fit_on_one_training_point_exits_with_a_data_error(self, runner,
                                                                            tmp_path):
        src = _write(tmp_path, "two.csv", "x1,x2,y\n0.1,0.2,1.0\n0.5,0.9,2.0\n")
        res = runner.invoke(cli.main, ["fit", str(src), "--train-frac", "0.5",
                                       "--out", str(tmp_path / "out")])
        assert res.exit_code == 3, res.output

    @pytest.mark.parametrize("flag, value", [("--runs", "0"), ("--rbcm", "-2")])
    def test_out_of_range_counts_are_data_errors(self, runner, small_series, tmp_path,
                                                 flag, value):
        res = runner.invoke(cli.main, ["fit", str(small_series), flag, value,
                                       "--max-iters", "3", "--out", str(tmp_path / "o")])
        assert res.exit_code == 3, res.output

    @pytest.mark.parametrize("flag, value", [("--n-points", "0"), ("--n-paths", "0"),
                                             ("--n-paths", "-1")])
    def test_out_of_range_sample_counts_are_data_errors(self, runner, small_series,
                                                        tmp_path, flag, value):
        out = tmp_path / "out"
        runner.invoke(cli.main, ["fit", str(small_series), "--q", "2",
                                 "--max-iters", "3", "--out", str(out)])
        sample_path = tmp_path / "s.csv"
        res = runner.invoke(cli.main, ["sample", "--model", str(out / "model.json"),
                                       flag, value, "--out", str(sample_path)])
        assert res.exit_code == 3, res.output
        assert not sample_path.exists()

    @pytest.mark.parametrize("field, value", [("beta_mode", "softmax"), ("index", 99),
                                              ("index", -1), ("index", 1.7),
                                              ("overlap", None), ("m", 7),
                                              ("no_experts", None)])
    def test_bad_ensemble_record_is_data_error(self, runner, small_series, tmp_path,
                                               field, value):
        out = tmp_path / "out"
        res = runner.invoke(cli.main, ["fit", str(small_series), "--q", "2", "--rbcm", "2",
                                       "--max-iters", "3", "--out", str(out)])
        assert res.exit_code == 0, res.output
        doc = json.loads((out / "model.json").read_text())
        if field in ("beta_mode", "m"):
            doc["rbcm"][field] = value
        elif field == "no_experts":
            doc["experts"] = []
        elif field == "overlap":
            doc["experts"][1]["indices"][0] = doc["experts"][0]["indices"][0]
        else:
            doc["experts"][0]["indices"][0] = value
        (out / "model.json").write_text(json.dumps(doc))
        res = runner.invoke(cli.main, ["predict", "--model", str(out / "model.json"),
                                       "--train-data", str(small_series),
                                       "--at", str(small_series),
                                       "--out", str(tmp_path / "p.csv")])
        assert res.exit_code == 3, res.output

    @pytest.mark.parametrize("command", ["predict", "sample"])
    @pytest.mark.parametrize("case", ["no_normalization", "w_not_a_number", "not_json",
                                      "not_an_object"])
    def test_malformed_model_record_is_data_error(self, runner, small_series, tmp_path,
                                                  command, case):
        out = tmp_path / "out"
        res = runner.invoke(cli.main, ["fit", str(small_series), "--q", "2",
                                       "--max-iters", "3", "--out", str(out)])
        assert res.exit_code == 0, res.output
        path = out / "model.json"
        doc = json.loads(path.read_text())
        if case == "no_normalization":
            del doc["normalization"]
        elif case == "w_not_a_number":
            doc["components"][0]["w"] = "abc"
        path.write_text({"not_json": "{", "not_an_object": "5"}.get(case, json.dumps(doc)))
        args = ["sample"] if command == "sample" else [
            "predict", "--train-data", str(small_series), "--at", str(small_series)]
        res = runner.invoke(cli.main, args + ["--model", str(path),
                                              "--out", str(tmp_path / "o.csv")])
        assert res.exit_code == 3, res.output
        assert "data error" in res.output
        assert not (tmp_path / "o.csv").exists()

    def test_unknown_kernel_type_exits_3_from_the_command_line(self, runner, small_series,
                                                               tmp_path):
        """``python -m skewgp.cli predict`` on a record whose ``kernel_type``
        is unknown exits 3 with a data error and no traceback."""
        out = tmp_path / "out"
        res = runner.invoke(cli.main, ["fit", str(small_series), "--q", "2",
                                       "--max-iters", "3", "--out", str(out)])
        assert res.exit_code == 0, res.output
        path = out / "model.json"
        doc = json.loads(path.read_text())
        doc["kernel_type"] = "foo"
        path.write_text(json.dumps(doc))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "skewgp.cli", "predict", "--model", str(path),
             "--train-data", str(small_series), "--at", str(small_series),
             "--out", str(tmp_path / "p.csv")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert "data error" in proc.stderr and "kernel_type" in proc.stderr
        assert "Traceback" not in proc.stderr + proc.stdout
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("rbcm_m", [0, 2])
    def test_tampered_jitter_record_is_data_error(self, runner, small_series, tmp_path,
                                                   rbcm_m):
        out = tmp_path / "out"
        res = runner.invoke(cli.main, ["fit", str(small_series), "--q", "2",
                                       "--rbcm", str(rbcm_m), "--max-iters", "3",
                                       "--out", str(out)])
        assert res.exit_code == 0, res.output
        doc = json.loads((out / "model.json").read_text())
        record = doc["experts"][1] if rbcm_m else doc
        recomputed = record["jitter_used"]
        record["jitter_used"] = recomputed + 1e-6
        (out / "model.json").write_text(json.dumps(doc))
        res = runner.invoke(cli.main, ["predict", "--model", str(out / "model.json"),
                                       "--train-data", str(small_series),
                                       "--at", str(small_series),
                                       "--out", str(tmp_path / "p.csv")])
        assert res.exit_code == 3, res.output
        assert repr(recomputed + 1e-6) in res.output and repr(recomputed) in res.output
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("kernel", ["se", "rq"])
    def test_pruning_a_baseline_kernel_is_data_error(self, runner, small_series, tmp_path,
                                                     kernel):
        res = runner.invoke(cli.main, ["fit", str(small_series), "--kernel", kernel,
                                       "--prune", "--q", "2", "--max-iters", "3",
                                       "--out", str(tmp_path / "o")])
        assert res.exit_code == 3, res.output
        assert "mixture kernel" in res.output

    def test_pruning_an_rbcm_fit_is_data_error(self, runner, small_series, tmp_path):
        out = tmp_path / "o"
        res = runner.invoke(cli.main, ["fit", str(small_series), "--rbcm", "2", "--prune",
                                       "--q", "2", "--max-iters", "3", "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert "rBCM" in res.output
        assert not out.exists()  # rejected before any training

    @pytest.mark.parametrize("command", ["fit", "sample", "spectrum"])
    def test_negative_seed_is_usage_error(self, runner, small_series, tmp_path, command):
        out = tmp_path / "out"
        fit = ["fit", str(small_series), "--q", "2", "--max-iters", "3", "--out", str(out)]
        if command == "sample":
            assert runner.invoke(cli.main, fit).exit_code == 0
        args = {"fit": fit,
                "sample": ["sample", "--model", str(out / "model.json"),
                           "--out", str(tmp_path / "s.csv")],
                "spectrum": ["spectrum", str(small_series), "--q", "2",
                             "--out", str(tmp_path / "spec")]}[command]
        res = runner.invoke(cli.main, args + ["--seed", "-1"])
        assert res.exit_code == 2, res.output
        assert "--seed" in res.output

    def test_multivariate_predictions_keep_every_coordinate(self, runner, tmp_path, rng):
        rows = np.column_stack([rng.uniform(0, 5, (30, 2)), rng.standard_normal(30)])
        src = _write(tmp_path, "xy.csv", "x1,x2,y\n" + "".join(
            ",".join(repr(float(v)) for v in r) + "\n" for r in rows))
        out = tmp_path / "out"
        res = runner.invoke(cli.main, ["fit", str(src), "--q", "2", "--max-iters", "3",
                                       "--out", str(out)])
        assert res.exit_code == 0, res.output
        fitted = out / "predictions.csv"
        assert fitted.read_text().splitlines()[1] == "x1,x2,mean,var,lower95,upper95"
        pred = read_predictions_csv(fitted)
        assert np.array_equal(pred["x"], rows[18:, :2]) and "t" not in pred
        res = runner.invoke(cli.main, ["predict", "--model", str(out / "model.json"),
                                       "--train-data", str(src), "--at", str(src),
                                       "--out", str(tmp_path / "p.csv")])
        assert res.exit_code == 0, res.output
        again = read_predictions_csv(tmp_path / "p.csv")
        assert np.array_equal(again["x"], rows[:, :2])
        assert np.array_equal(again["mean"][18:], pred["mean"])

    def test_univariate_predictions_keep_the_t_column(self, small_series, tmp_path):
        pred = gp.Prediction(np.array([1.0, 2.0]), np.array([0.5, 0.25]))
        for x in (np.array([3.0, 4.0]), np.array([[3.0], [4.0]])):
            cli._write_predictions(tmp_path / "p.csv", x, pred)
            assert (tmp_path / "p.csv").read_text().splitlines()[1] == (
                "t,mean,var,lower95,upper95")
            back = read_predictions_csv(tmp_path / "p.csv")
            assert np.array_equal(back["t"], [3.0, 4.0])
            assert np.array_equal(back["x"], [[3.0], [4.0]])
            assert np.array_equal(back["mean"], pred.mean)

    def test_exit_code_usage_error(self, runner):
        res = runner.invoke(cli.main, ["fit", "x.csv", "--kernel", "nonsense"])
        assert res.exit_code == 2

    def test_evaluate_length_mismatch_is_data_error(self, runner, tmp_path, rng):
        truth = _write(tmp_path, "t.csv", "0,1.0\n1,2.0\n")
        preds = _write(tmp_path, "p.csv",
                       "t,mean,var,lower95,upper95\n0,1.0,1.0,0.0,2.0\n")
        res = runner.invoke(cli.main, [
            "evaluate", "--truth", str(truth), "--predictions", str(preds),
        ])
        assert res.exit_code == 3
