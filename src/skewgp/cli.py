"""Command-line interface: ingestion, forecasting jobs, metrics, artifacts.

Subcommands: ``fit`` (train + evaluate a forecasting job), ``predict``,
``sample`` (prior draws from a saved model, on a grid or at given points),
``spectrum`` (periodogram plus fitted-mixture overlay), ``evaluate``
(score a predictions file).

Exit codes: 0 ok, 2 usage error, 3 data error, 4 numerical failure.

Time-series splits are always chronological (P = 1 rows are sorted by t);
the train fraction applies to the row count, floor-rounded.  95% bands are
mean +/- 1.96 sqrt(var) in whichever variance mode (latent or observation)
the job selected.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from .errors import DataError, NumericalError, SkewGPError
from . import gp, kernels, metrics, pruning, rbcm, spectral
from .gp import Dataset
from .optimize import OptConfig, trace_to_csv

KERNEL_CHOICES = kernels.KERNEL_TYPES


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IngestInfo:
    """What reading a CSV learns beyond its rows: the input dimension P.
    Uniform sampling is read where it is used, from the rows that use it
    (:func:`build_init` from the training rows, ``skewgp spectrum`` from
    the file)."""

    p: int


def _parse_rows(path: str | Path):
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for r, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if row[0].lstrip().startswith("#"):
                continue
            rows.append((r, [cell.strip() for cell in row]))
    if not rows:
        raise DataError(f"empty file: {path}")
    # header auto-detection: first row whose cells do not all parse as numbers
    first = rows[0][1]
    try:
        [float(c) for c in first]
        header = None
    except ValueError:
        header = first
        rows = rows[1:]
        if not rows:
            raise DataError(f"file has a header but no data rows: {path}")
    width = len(rows[0][1])
    data = np.empty((len(rows), width))
    for i, (rno, row) in enumerate(rows):
        if len(row) != width:
            raise DataError(f"ragged row {rno}: expected {width} cells, got {len(row)}")
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise DataError(f"non-numeric cell at row {rno}, column {j + 1}: {cell!r}")
    if not np.all(np.isfinite(data)):
        bad = np.argwhere(~np.isfinite(data))[0]
        raise DataError(f"non-finite value at row {bad[0] + 1}, column {bad[1] + 1}")
    return data, header


def ingest_csv(path) -> tuple[Dataset, IngestInfo]:
    """Read a CSV as (y), (t, y), or (x1..xP, y); header rows are skipped."""
    data, _ = _parse_rows(path)
    cols = data.shape[1]
    if cols == 1:
        t = np.arange(data.shape[0], dtype=float)
        return Dataset(t[:, None], data[:, 0]), IngestInfo(1)
    if cols == 2:
        return Dataset(data[:, 0][:, None], data[:, 1]), IngestInfo(1)
    X = data[:, :-1]
    return Dataset(X, data[:, -1]), IngestInfo(cols - 1)


# ---------------------------------------------------------------------------
# forecasting jobs
# ---------------------------------------------------------------------------


@dataclass
class ForecastJob:
    input_path: str
    out_dir: str
    kernel: str = "slsm"
    q: int = 10
    train_frac: float = 0.6
    seed: int = 0
    runs: int = 1
    prune: bool = False
    prune_threshold: float = 1.0
    rounds: int = 2
    rbcm_m: int = 0
    observation_noise: bool = False
    max_iters: int = 100
    restarts: int = 1

    def __post_init__(self):
        if not (0.0 < self.train_frac < 1.0):
            raise DataError(f"train fraction must be in (0, 1), got {self.train_frac}")
        if self.q < 1:
            raise DataError("Q must be >= 1")
        if self.kernel not in KERNEL_CHOICES:
            raise DataError(f"unknown kernel {self.kernel!r}")
        if self.runs < 1:
            raise DataError(f"runs must be >= 1, got {self.runs}")
        if self.rbcm_m < 0:
            raise DataError(f"rBCM expert count must be >= 0, got {self.rbcm_m}")
        if self.prune and self.rbcm_m > 0:
            raise DataError("pruning is not available with rBCM experts (--rbcm)")


def _time_ordered(data: Dataset) -> Dataset:
    """``data`` after a stable sort by t when P = 1 (ascending rows keep
    their order), as the split and the spectrum read a series."""
    if data.p != 1:
        return data
    order = np.argsort(data.X[:, 0], kind="stable")
    return Dataset(data.X[order], data.y[order])


def chronological_split(data: Dataset, train_frac: float) -> tuple[Dataset, Dataset]:
    """The first floor(n * train_frac) rows of the :func:`_time_ordered`
    ``data`` and the rest; a product within rounding of an integer
    (100 * 0.29 = 28.999999999999996) counts as it."""
    prod = data.n * train_frac
    n_train = int(math.floor(prod + 4.0 * math.ulp(prod)))
    if n_train < 1 or n_train >= data.n:
        raise DataError(f"train fraction {train_frac} leaves an empty split for n={data.n}")
    data = _time_ordered(data)
    return (
        Dataset(data.X[:n_train], data.y[:n_train]),
        Dataset(data.X[n_train:], data.y[n_train:]),
    )


def build_init(train: Dataset, info: IngestInfo, kernel: str, q: int, seed: int):
    """Initial parameters: spectral when the training rows of a univariate
    series are uniformly sampled and enough for a periodogram, random or
    standard-baseline otherwise.  Uniformity and the step are read from
    ``train`` alone, so no held-out row moves the init."""
    y_var = float(np.var(train.y))
    if y_var <= 0.0:
        y_var = 1.0
    if kernel in kernels.BASELINE_KERNELS:
        span = float(np.max(train.X) - np.min(train.X)) or 1.0
        return kernels.BaselineKernelParams(
            kernel, theta_f=y_var, ell=span / 10.0, rq_alpha=1.0,
            noise_var=0.1 * y_var,
        ), None
    if info.p == 1:
        uniform, delta_t = spectral.sampling_step(train.X[:, 0])
        if uniform and train.n >= spectral.PERIODOGRAM_MIN_N:
            spec = spectral.periodogram(train.y, delta_t)
            kind = "gaussian" if kernel == "sm" else "laplace"
            fit_mix = spectral.em_mixture(spec, q, kind=kind, seed=seed)
            return spectral.init_params(fit_mix, kernel, y_var, seed=seed), (spec, fit_mix)
        freq_max = spectral.nyquist_freq_max(delta_t)
    else:
        freq_max = spectral.median_distance_freq_max(train.X)
    return spectral.random_init(q, kernel, y_var, freq_max, seed=seed, p=info.p), None


def _train(job: ForecastJob, train: Dataset, init, seed: int):
    cfg = OptConfig(max_iters=job.max_iters, restarts=job.restarts, seed=seed)
    if job.rbcm_m > 0:
        return rbcm.rbcm_fit(train, job.rbcm_m, job.kernel, init, cfg)
    if job.prune:
        pcfg = pruning.PruneConfig(threshold=job.prune_threshold, rounds=job.rounds,
                                   opt=cfg)
        return pruning.lth_fit(train, init, job.kernel, pcfg)
    return gp.fit(train, init, job.kernel, cfg)


def _write_csv(path, names, columns, comment: str | None = None):
    """Write a header of ``names`` (after a ``# comment`` line) and one row
    per entry of the equal-length ``columns``, each cell a plain float's
    repr: the shortest round-trip form."""
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(names) + "\n")
        for row in zip(*(np.asarray(col, dtype=float).tolist() for col in columns)):
            fh.write(",".join(map(repr, row)) + "\n")


def _input_names(p: int) -> list[str]:
    """Column names of P input columns: ``t`` for P = 1, ``x1..xP`` otherwise."""
    return ["t"] if p == 1 else [f"x{d + 1}" for d in range(p)]


def _write_predictions(path: Path, t_or_x: np.ndarray, pred: gp.Prediction):
    """Write one row per query point: its :func:`_input_names` columns (a
    1-D array is P = 1), then mean, var and the 95% band."""
    mode = "observation" if pred.observation_noise else "latent"
    x = kernels._as_points(t_or_x)
    sd = np.sqrt(pred.var)
    _write_csv(path, _input_names(x.shape[1]) + ["mean", "var", "lower95", "upper95"],
               [*x.T, pred.mean, pred.var, pred.mean - 1.96 * sd, pred.mean + 1.96 * sd],
               comment=f"variance_mode: {mode}")


def read_predictions_csv(path) -> dict:
    """Columns of a predictions file: ``x`` holds the P input columns
    ((m, P); also ``t`` when P = 1), then mean, var and the 95% band."""
    data, _ = _parse_rows(path)
    if data.shape[1] < 5:
        raise DataError(f"predictions file must have 4 + P >= 5 columns, "
                        f"got {data.shape[1]}")
    out = {"x": data[:, :-4], "mean": data[:, -4], "var": data[:, -3],
           "lower95": data[:, -2], "upper95": data[:, -1]}
    if out["x"].shape[1] == 1:
        out["t"] = out["x"][:, 0]
    return out


def _write_spectrum(out_dir: Path, prefix: str, spec, fit_mix):
    _write_csv(out_dir / f"{prefix}spectrum.csv", ["freq_rad", "freq_cycles", "power"],
               [spec.freqs, spec.freqs / (2 * math.pi), spec.powers])
    grid = np.linspace(spec.freqs[0], spec.freqs[-1], 512)
    dens = np.zeros_like(grid)
    for wk, loc, scale in zip(fit_mix.weights, fit_mix.locations, fit_mix.scales):
        dens += wk * np.exp(spectral._log_pdf(grid, loc, scale, fit_mix.kind))
    _write_csv(out_dir / f"{prefix}mixture_fit.csv", ["freq_rad", "density"], [grid, dens])


def _single_run(job: ForecastJob, train: Dataset, test: Dataset, info: IngestInfo,
                seed: int, prefix: str) -> dict:
    out_dir = Path(job.out_dir)
    init, spec_pair = build_init(train, info, job.kernel, job.q, seed)

    t0 = time.perf_counter()
    model = _train(job, train, init, seed)
    runtime_ms = 1000.0 * (time.perf_counter() - t0)

    pred = model.predict(test.X, observation_noise=job.observation_noise)
    # the experts partition the training rows, so an ensemble's n is train.n
    nlml = model.nlml_internal
    result = {
        "mse": metrics.metric_mse(test.y, pred.mean),
        "mae": metrics.metric_mae(test.y, pred.mean),
        "smse": metrics.metric_smse(test.y, pred.mean),
        "nlpd": (metrics.metric_nlpd(test.y, pred.mean, pred.var)
                 if job.observation_noise else None),
        "nlml": nlml,
        "nlml_no_const": nlml - 0.5 * train.n * math.log(2.0 * math.pi),
        "pruned_q": model.params.q if job.prune else None,
        "clamped_var": pred.clamped,
        "runtime_ms": runtime_ms,
        "seed": seed,
    }

    if isinstance(model, rbcm.ExpertEnsemble):
        model_doc = rbcm.ensemble_to_dict(model)
    else:
        model_doc = gp.model_to_dict(model)
    (out_dir / f"{prefix}model.json").write_text(json.dumps(model_doc, indent=2))
    (out_dir / f"{prefix}trace.csv").write_text(trace_to_csv(model.opt_result.trace))
    _write_predictions(out_dir / f"{prefix}predictions.csv", test.X, pred)
    if spec_pair is not None:
        _write_spectrum(out_dir, prefix, *spec_pair)
    return result


def _spread(values: list) -> dict:
    """Mean, population std and the per-seed ``values`` of one metric; the
    mean and std are None when any value is None (an undefined NLPD)."""
    if None in values:
        return {"mean": None, "std": None, "values": values}
    return {"mean": float(np.mean(values)), "std": float(np.std(values)), "values": values}


def run_job(job: ForecastJob) -> dict:
    """Execute a forecasting job; returns the merged metrics report."""
    data, info = ingest_csv(job.input_path)
    train, test = chronological_split(data, job.train_frac)
    # metric_smse's rule on the held-out targets (scored against themselves),
    # before any fit is spent or any file written
    metrics.metric_smse(test.y, test.y)
    out_dir = Path(job.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = [
        _single_run(job, train, test, info, job.seed + i,
                    "" if job.runs == 1 else f"run{i}_")
        for i in range(job.runs)
    ]
    report = {
        "n_train": train.n,
        "n_test": test.n,
        "kernel": job.kernel,
        "runs": job.runs,
    }
    # NLPD scores the density of a held-out target: observation variances only
    for key in ("mse", "mae", "smse", "nlml", "nlml_no_const") + (
            ("nlpd",) if job.observation_noise else ()):
        report[key] = _spread([r[key] for r in results])
    if job.prune:
        report["pruned_q"] = {
            "mean": float(np.mean([r["pruned_q"] for r in results])),
            "values": [r["pruned_q"] for r in results],
        }
    clamped = [r["clamped_var"] for r in results]
    report["clamped_var"] = {"sum": int(np.sum(clamped)), "values": clamped}
    report["runtime_ms"] = float(np.sum([r["runtime_ms"] for r in results]))
    (out_dir / "metrics.json").write_text(json.dumps(report, indent=2))
    return report


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(4)
        except (DataError, SkewGPError) as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(3)
    return wrapper


def _read_record(path) -> dict:
    """The JSON model record at ``path``."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read a model record from {path}: {exc}") from None


@click.group()
def main():
    """Gaussian-process long-horizon forecasting with spectral mixture kernels."""


@main.command("fit")
@click.argument("input_path", type=click.Path())
@click.option("--kernel", type=click.Choice(KERNEL_CHOICES), default="slsm")
@click.option("--q", type=int, default=10, help="Number of mixture components.")
@click.option("--train-frac", type=float, default=0.6)
@click.option("--prune", is_flag=True, help="Lottery-ticket component pruning.")
@click.option("--prune-threshold", type=float, default=1.0)
@click.option("--rounds", type=int, default=2)
@click.option("--rbcm", "rbcm_m", type=int, default=0,
              help="Train M partitioned experts instead of one full GP.")
@click.option("--runs", type=int, default=1)
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--max-iters", type=int, default=100)
@click.option("--restarts", type=int, default=1)
@click.option("--observation-noise", is_flag=True)
@click.option("--out", "out_dir", type=click.Path(), default="out")
@_exit_codes
def fit_cmd(**options):
    """Train on the first part of a series and score the held-out remainder."""
    report = run_job(ForecastJob(**options))
    click.echo(json.dumps(report, indent=2))


def _query_points(at_path, p: int) -> np.ndarray:
    """The first P columns of the CSV at ``at_path`` (all of them when it
    has fewer, for the model's width check to reject)."""
    qdata, _ = _parse_rows(at_path)
    return qdata[:, :p] if qdata.shape[1] >= p else qdata


@main.command("predict")
@click.option("--model", "model_path", type=click.Path(), required=True)
@click.option("--train-data", type=click.Path(), required=True,
              help="CSV the model was trained on (checked by fingerprint).")
@click.option("--train-frac", type=float, default=0.6,
              help="Fraction of the file used at fit time (1.0 = whole file).")
@click.option("--at", "at_path", type=click.Path(), required=True,
              help="CSV of query inputs (same column layout, target ignored if absent).")
@click.option("--observation-noise", is_flag=True)
@click.option("--out", "out_path", type=click.Path(), default="predictions.csv")
@_exit_codes
def predict_cmd(model_path, train_data, train_frac, at_path, observation_noise,
                out_path):
    """Predict at new inputs from a saved model."""
    if not 0.0 < train_frac <= 1.0:
        raise DataError(f"--train-frac must be in (0, 1], got {train_frac}")
    doc = _read_record(model_path)
    data, _ = ingest_csv(train_data)  # read as fit read its training rows
    data = chronological_split(data, train_frac)[0] if train_frac < 1.0 else _time_ordered(data)
    if isinstance(doc, dict) and "experts" in doc:
        model = rbcm.ensemble_from_dict(doc, data)
    else:
        model = gp.model_from_dict(doc, data)
    Xs = _query_points(at_path, data.p)
    pred = model.predict(Xs, observation_noise=observation_noise)
    _write_predictions(Path(out_path), Xs, pred)
    click.echo(f"wrote {out_path}")


@main.command("sample")
@click.option("--model", "model_path", type=click.Path(), required=True)
@click.option("--n-points", type=int, default=200)
@click.option("--t-max", type=float, default=None,
              help="Grid end (default: n-points input units).")
@click.option("--n-paths", type=int, default=5)
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--at", "at_path", type=click.Path(), default=None,
              help="CSV of input points to sample at, as predict reads them "
                   "(needed for P > 1; replaces the grid).")
@click.option("--out", "out_path", type=click.Path(), default="samples.csv")
@_exit_codes
def sample_cmd(model_path, n_points, t_max, n_paths, seed, at_path, out_path):
    """Draw prior sample paths from a saved model's kernel, on a grid of
    n-points or at the points of --at."""
    if n_points < 1 or n_paths < 1:
        raise DataError(f"n-points and n-paths must be >= 1, got {n_points} and {n_paths}")
    kind, params, norm = gp.record_model(_read_record(model_path))
    p = len(norm.x_means)
    if at_path is not None:
        X = _query_points(at_path, p)
    elif p > 1:
        raise DataError(f"a P = {p} model has no sampling grid: give its points with --at")
    else:
        X = np.linspace(0.0, t_max if t_max is not None else float(n_points), n_points)
    paths = gp.sample_prior(kind, params, norm.apply_queries(X), n_paths, seed)
    paths = norm.y_mean + norm.y_std * paths
    _write_csv(out_path, _input_names(p) + [f"path{i}" for i in range(n_paths)],
               [*kernels._as_points(X).T, *paths])
    click.echo(f"wrote {out_path}")


@main.command("spectrum")
@click.argument("input_path", type=click.Path())
@click.option("--q", type=int, default=10)
@click.option("--kind", type=click.Choice(["laplace", "gaussian"]), default="laplace")
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--out", "out_dir", type=click.Path(), default="out")
@_exit_codes
def spectrum_cmd(input_path, q, kind, seed, out_dir):
    """Emit periodogram and fitted-mixture overlay CSVs for a series."""
    data, info = ingest_csv(input_path)
    uniform, delta_t = spectral.sampling_step(data.X[:, 0])
    if info.p != 1 or not uniform:
        raise DataError("spectrum requires a uniformly sampled univariate series")
    spec = spectral.periodogram(_time_ordered(data).y, delta_t)
    fit_mix = spectral.em_mixture(spec, q, kind=kind, seed=seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_spectrum(out, "", spec, fit_mix)
    click.echo(f"wrote {out / 'spectrum.csv'} and {out / 'mixture_fit.csv'}")


@main.command("evaluate")
@click.option("--truth", type=click.Path(), required=True,
              help="CSV with the true targets (same layout as fit input).")
@click.option("--predictions", type=click.Path(), required=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@_exit_codes
def evaluate_cmd(truth, predictions, out_path):
    """Score a predictions CSV against held-out truth."""
    data, _ = ingest_csv(truth)
    pred = read_predictions_csv(predictions)
    if pred["mean"].size != data.n:
        raise DataError(
            f"predictions cover {pred['mean'].size} points but truth has {data.n}"
        )
    report = {
        "mse": metrics.metric_mse(data.y, pred["mean"]),
        "mae": metrics.metric_mae(data.y, pred["mean"]),
        "smse": metrics.metric_smse(data.y, pred["mean"]),
    }
    text = json.dumps(report, indent=2)
    if out_path:
        Path(out_path).write_text(text)
    click.echo(text)


if __name__ == "__main__":
    main()
