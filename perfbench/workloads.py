"""Workload definitions and their seeded inputs.

Inputs are made with numpy alone and written as CSV files that the job reads
through ``skewgp.cli.ingest_csv``, so no change to the program can change its
own input.  ``airline`` is the fixed monthly series of the paper.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).resolve().parent / "data"


@dataclass(frozen=True)
class Workload:
    name: str
    n_train: int
    q: int
    max_iters: int
    restarts: int
    rbcm_m: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        # the paper's task: n=96, so per-call overhead dominates
        Workload("airline", n_train=96, q=10, max_iters=300, restarts=5),
        # n^2 kernel math and n^3 LAPACK; the optimizer does almost nothing
        Workload("uniform2000", n_train=2000, q=2, max_iters=1, restarts=1),
        # the only workload in the rbcm layer; same data as uniform2000
        Workload("rbcm2000", n_train=2000, q=2, max_iters=15, restarts=1, rbcm_m=8),
        # the multivariate kernel family and the random-init path
        Workload("scatter2d", n_train=800, q=3, max_iters=10, restarts=1),
    )
}

UNIFORM_N = 2500
SCATTER_N = 1000
SCATTER_GRID = 50


def _uniform_series(rng: np.random.Generator) -> np.ndarray:
    """Two quasi-periodic tones with slow amplitude modulation, plus noise.

    The signal is fixed (its slow phase drift, which keeps each spectral line
    finite, comes from a fixed generator); the seed draws the noise, so
    every seed poses the same fitting problem with a fresh sample."""
    t = np.arange(UNIFORM_N, dtype=float)
    fixed = np.random.default_rng(20201107)
    y = np.full(UNIFORM_N, 100.0)
    for freq, amp, period in ((0.045, 10.0, 750.0), (0.13, 6.0, 620.0)):
        drift = np.cumsum(fixed.normal(0.0, 0.01, UNIFORM_N))
        envelope = 1.0 + 0.3 * np.sin(2.0 * np.pi * t / period)
        y += amp * envelope * np.cos(2.0 * np.pi * freq * t + drift)
    y += rng.normal(0.0, 3.0, UNIFORM_N)
    return np.column_stack([t, y])


def _scatter_field(rng: np.random.Generator) -> np.ndarray:
    """Scattered points on a 20 x 20 box; target a fixed product of cosines.
    The seed draws the point locations and the noise."""
    x = rng.uniform(0.0, 20.0, size=(SCATTER_N, 2))
    y = (50.0 + 10.0 * np.cos(0.6 * x[:, 0]) * np.cos(0.5 * x[:, 1])
         + rng.normal(0.0, 2.0, SCATTER_N))
    return np.column_stack([x, y])


def write_input(name: str, seed: int, out_dir: Path) -> Path:
    """Write the workload's input CSV for ``seed`` and return its path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "input.csv"
    if name == "airline":
        shutil.copyfile(DATA_DIR / "airline.csv", path)
        return path
    if name == "rbcm2000":
        # Under its 15-iteration budget the rBCM optimizer lands in one of two
        # basins depending on the noise sample (train NLML and forecast MAE
        # differ by 5% and 25%, fit time by half), so its figures would spread
        # over seeds past any usable bound; it fits the seed-0 series.
        seed = 0
    rng = np.random.default_rng([seed, 20201107])
    if name in ("uniform2000", "rbcm2000"):
        table, header = _uniform_series(rng), "t,y"
    elif name == "scatter2d":
        table, header = _scatter_field(rng), "x1,x2,y"
    else:
        raise ValueError(f"unknown workload {name!r}")
    np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%.17g")
    return path


def query_points(name: str, train_x: np.ndarray, test_x: np.ndarray):
    """Query set and the index of the held-out test points within it."""
    if name in ("uniform2000", "rbcm2000"):
        t0, t1 = float(train_x[0, 0]), float(train_x[-1, 0])
        half = np.arange(t0, t1 + 1.0, 0.5)[:, None]   # half-step interpolation
        xq = np.vstack([half, test_x])
        return xq, np.arange(half.shape[0], xq.shape[0])
    if name == "scatter2d":
        g = np.linspace(0.0, 20.0, SCATTER_GRID)
        grid = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)  # the surface
        xq = np.vstack([grid, test_x])
        return xq, np.arange(grid.shape[0], xq.shape[0])
    return test_x, np.arange(test_x.shape[0])
