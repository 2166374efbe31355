"""CSV ingestion, forecasting jobs, artifacts, and CLI commands."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import skewgp.cli as cli
import skewgp.gp as gp
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
        assert data.n == 2 and info.p == 1
        assert info.uniform and info.delta_t == 1.0
        np.testing.assert_array_equal(data.y, [2.5, 3.5])

    def test_header_skipped(self, tmp_path):
        p = _write(tmp_path, "a.csv", "time,value\n0,1.0\n1,2.0\n")
        data, info = ingest_csv(p)
        assert data.n == 2
        assert data.names == ("time", "value")

    def test_single_column_gets_implicit_time(self, tmp_path):
        p = _write(tmp_path, "a.csv", "5.0\n6.0\n7.0\n")
        data, info = ingest_csv(p)
        np.testing.assert_array_equal(data.X[:, 0], [0.0, 1.0, 2.0])
        assert info.uniform

    def test_wide_file_is_multivariate(self, tmp_path, rng):
        rows = rng.standard_normal((209, 9))
        text = "\n".join(",".join(repr(float(v)) for v in row) for row in rows)
        p = _write(tmp_path, "hw.csv", text + "\n")
        data, info = ingest_csv(p)
        assert info.p == 8 and not info.uniform
        assert data.X.shape == (209, 8)

    def test_non_uniform_time_detected(self, tmp_path):
        p = _write(tmp_path, "a.csv", "0,1\n1,2\n3,3\n7,4\n")
        _, info = ingest_csv(p)
        assert not info.uniform

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

    def test_degenerate_fraction_rejected(self, rng):
        from skewgp.gp import Dataset

        data = Dataset(np.arange(3.0), np.zeros(3))
        with pytest.raises(DataError):
            chronological_split(data, 0.05)

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
            assert set(report[key]) == {"mean", "std"}
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
        assert "prune_report" in doc

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

    def test_rbcm_job_writes_ensemble(self, small_series, tmp_path):
        out = tmp_path / "out"
        job = ForecastJob(str(small_series), str(out), kernel="slsm", q=2,
                          rbcm_m=2, max_iters=5)
        run_job(job)
        doc = json.loads((out / "model.json").read_text())
        assert doc["rbcm"]["m"] == 2 and len(doc["experts"]) == 2


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

    def test_predict_round_trip(self, runner, small_series, tmp_path):
        out = tmp_path / "out"
        res = runner.invoke(cli.main, [
            "fit", str(small_series), "--q", "2", "--max-iters", "5",
            "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        pred_path = tmp_path / "p.csv"
        res = runner.invoke(cli.main, [
            "predict", "--model", str(out / "model.json"),
            "--train-data", str(small_series),
            "--at", str(small_series), "--out", str(pred_path),
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

    def test_spectrum_command(self, runner, small_series, tmp_path):
        out = tmp_path / "spec"
        res = runner.invoke(cli.main, [
            "spectrum", str(small_series), "--q", "3", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        assert (out / "spectrum.csv").exists()
        assert (out / "mixture_fit.csv").exists()

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
