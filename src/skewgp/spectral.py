"""Empirical spectral density estimation and mixture-model initialization.

A raw (untapered) periodogram of the training signal supplies weighted
frequency samples; a Laplace or Gaussian mixture fitted to those samples by
weighted EM provides starting frequencies, scales, and weights for the kernel
hyper-parameters.  Skew parameters are drawn uniformly from [-1, 1].

Frequencies everywhere in this module are angular (radians per input unit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .kernels import SlsmComponent, SlsmParams, _as_points, _sum_sq_diff

EM_MAX_ITERS = 200
EM_TOL = 1e-8
_SCALE_FLOOR = 1e-8
_WEIGHT_FLOOR = 1e-10
MEDIAN_MAX_POINTS = 2000
PERIODOGRAM_MIN_N = 4


@dataclass(frozen=True)
class SpectrumEstimate:
    """Periodogram bins: strictly increasing angular freqs with powers >= 0."""

    freqs: np.ndarray
    powers: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.freqs, dtype=float)
        p = np.asarray(self.powers, dtype=float)
        if f.shape != p.shape or f.ndim != 1:
            raise DataError("freqs and powers must be equal-length vectors")
        if np.any(np.diff(f) <= 0.0):
            raise DataError("freqs must be strictly increasing")
        if np.any(p < 0.0):
            raise DataError("powers must be nonnegative")
        object.__setattr__(self, "freqs", f)
        object.__setattr__(self, "powers", p)


@dataclass(frozen=True)
class MixtureFit:
    """EM-fitted 1-D mixture over angular frequency.

    ``scales`` are standard deviations regardless of ``kind`` (for the Laplace
    kind the density scale is scale / sqrt(2)).
    """

    kind: str
    weights: tuple[float, ...]
    locations: tuple[float, ...]
    scales: tuple[float, ...]
    loglik_trace: tuple[float, ...]


def sampling_step(t: np.ndarray) -> tuple[bool, float]:
    """``(uniform, median gap)`` of the sample times ``t`` read sorted:
    uniform when the gap spread is within 1e-6 of a non-zero median gap."""
    if t.size < 2:
        return True, 1.0
    gaps = np.diff(np.sort(t))
    med = float(np.median(gaps))
    if med == 0.0:
        return False, 1.0
    return float(np.max(gaps) - np.min(gaps)) <= 1e-6 * med, med


def periodogram(series, delta_t: float = 1.0) -> SpectrumEstimate:
    """Raw one-sided periodogram of a uniformly sampled series.

    The mean is removed, the DC bin is excluded, and powers are scaled so that
    sum(powers) * d_omega approximates the sample variance (one-sided Parseval
    under the angular-frequency convention).
    """
    y = np.asarray(series, dtype=float).ravel()
    n = y.size
    if n < PERIODOGRAM_MIN_N:
        raise DataError(f"periodogram needs n >= {PERIODOGRAM_MIN_N} samples, got {n}")
    yc = y - np.mean(y)
    spec = np.fft.rfft(yc)
    k = np.arange(1, n // 2 + 1)
    freqs = 2.0 * math.pi * k / (n * delta_t)
    powers = np.abs(spec[k]) ** 2 * delta_t / (math.pi * n)
    return SpectrumEstimate(freqs, powers)


# ---------------------------------------------------------------------------
# weighted EM
# ---------------------------------------------------------------------------


def _log_pdf(s, loc, scale, kind):
    """Componentwise log density; ``scale`` is a standard deviation."""
    if kind == "laplace":
        b = scale / math.sqrt(2.0)
        return -np.log(2.0 * b) - np.abs(s - loc) / b
    return -0.5 * np.log(2.0 * math.pi * scale**2) - 0.5 * (s - loc) ** 2 / scale**2


def _weighted_median(values, weights):
    order = np.argsort(values)
    v = values[order]
    w = weights[order]
    cum = np.cumsum(w)
    idx = int(np.searchsorted(cum, 0.5 * cum[-1]))
    return float(v[min(idx, v.size - 1)])


def em_mixture(spec: SpectrumEstimate, q: int, kind: str = "laplace",
               seed: int = 0) -> MixtureFit:
    """Fit a Q-component mixture to the periodogram bins as weighted samples."""
    if kind not in ("laplace", "gaussian"):
        raise DataError(f"unknown mixture kind {kind!r}")
    if q < 1:
        raise DataError("Q must be >= 1")
    s = spec.freqs
    total = float(np.sum(spec.powers))
    if s.size == 0 or total <= 0.0:
        raise DataError("spectrum is empty or has zero total power")
    wn = spec.powers / total
    rng = np.random.default_rng(seed)

    span = float(s[-1] - s[0]) if s.size > 1 else max(float(s[0]), 1.0)
    # a spectral line cannot be narrower than one bin; flooring the scale at
    # half the bin spacing keeps on-bin tones from collapsing to deltas
    # (constrained M-step, so EM monotonicity is preserved)
    scale_floor = max(_SCALE_FLOOR, 0.5 * float(np.min(np.diff(s))) if s.size > 1 else _SCALE_FLOOR)
    # seed locations proportionally to power so peaks are favoured; distinct
    # bins, else coincident components could never separate; only bins with
    # power can be drawn, and the rest are seeded uniformly
    locs = np.sort(rng.choice(s, min(q, np.count_nonzero(wn)), replace=False, p=wn)).astype(float)
    if locs.size < q:
        locs = np.concatenate([locs, rng.uniform(s[0], s[-1], q - locs.size)])
        locs = np.sort(locs)
    scales = np.full(q, max(span / (2.0 * q), _SCALE_FLOOR))
    mix_w = np.full(q, 1.0 / q)
    reseeded = np.zeros(q, dtype=bool)
    loglik_trace: list[float] = []

    for _ in range(EM_MAX_ITERS):
        logp = np.stack([
            np.log(mix_w[k]) + _log_pdf(s, locs[k], scales[k], kind) for k in range(q)
        ])  # (q, n)
        lse = np.logaddexp.reduce(logp, axis=0)
        loglik = float(np.sum(wn * lse))
        resp = np.exp(logp - lse)  # responsibilities
        # weighted M-step
        for k in range(q):
            rk = resp[k] * wn
            mass = float(np.sum(rk))
            mix_w[k] = mass
            if mass <= _WEIGHT_FLOOR:
                continue
            if kind == "laplace":
                locs[k] = _weighted_median(s, rk)
                b = float(np.sum(rk * np.abs(s - locs[k])) / mass)
                scales[k] = max(math.sqrt(2.0) * b, scale_floor)
            else:
                locs[k] = float(np.sum(rk * s) / mass)
                var = float(np.sum(rk * (s - locs[k]) ** 2) / mass)
                scales[k] = max(math.sqrt(var), scale_floor)
        # degenerate components: reseed once, then drop
        keep = np.ones(q, dtype=bool)
        for k in range(q):
            if mix_w[k] < _WEIGHT_FLOOR:
                if not reseeded[k]:
                    reseeded[k] = True
                    locs[k] = float(rng.choice(s, p=wn))
                    scales[k] = max(span / (2.0 * q), _SCALE_FLOOR)
                    mix_w[k] = 1.0 / q
                else:
                    keep[k] = False
        if not np.all(keep):
            locs, scales, mix_w, reseeded = (a[keep] for a in (locs, scales, mix_w, reseeded))
            q = int(np.sum(keep))
        mix_w = mix_w / np.sum(mix_w)
        if loglik_trace and abs(loglik - loglik_trace[-1]) < EM_TOL:
            loglik_trace.append(loglik)
            break
        loglik_trace.append(loglik)

    order = np.argsort(locs)
    return MixtureFit(
        kind=kind,
        weights=tuple(float(v) for v in mix_w[order]),
        locations=tuple(float(v) for v in locs[order]),
        scales=tuple(float(v) for v in scales[order]),
        loglik_trace=tuple(loglik_trace),
    )


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def init_params(fit: MixtureFit, kernel: str, y_var: float, seed: int = 0) -> SlsmParams:
    """Kernel starting values from a fitted spectral mixture.

    Weights are scaled so their sum equals the sample signal variance; the
    noise variance starts at 10% of it.
    """
    rng = np.random.default_rng(seed)
    comps = []
    for wk, loc, scale in zip(fit.weights, fit.locations, fit.scales):
        gamma = float(rng.uniform(-1.0, 1.0)) if kernel == "slsm" else 0.0
        comps.append(SlsmComponent(
            w=wk * y_var,
            mu=max(loc, 0.0),
            sigma=max(scale, _SCALE_FLOOR),
            gamma=gamma,
        ))
    return SlsmParams(tuple(comps), noise_var=0.1 * y_var)


def random_init(q: int, kernel: str, y_var: float, freq_max: float,
                seed: int = 0, p: int = 1) -> SlsmParams:
    """Seeded random fallback initialization (multivariate or non-uniform data).

    Per component and dimension, frequencies are uniform on [0, freq_max]
    (Nyquist-bounded for time series, median-distance-bounded otherwise),
    scales uniform on [0.1, 1] * freq_max and, for ``slsm``, skews uniform on
    [-1, 1]; they are drawn in that order.
    """
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(q):
        mu = rng.uniform(0.0, freq_max, size=p)
        sigma = rng.uniform(0.1, 1.0, size=p) * freq_max
        gamma = rng.uniform(-1.0, 1.0, size=p) if kernel == "slsm" else 0.0
        comps.append(SlsmComponent(y_var / q, mu, sigma, gamma))
    return SlsmParams(tuple(comps), noise_var=0.1 * y_var)


def nyquist_freq_max(delta_t: float) -> float:
    return math.pi / delta_t


def median_distance_freq_max(X: np.ndarray) -> float:
    """pi / median pairwise distance, over a seeded subsample of
    MEDIAN_MAX_POINTS points for larger n; a zero median, or a single point
    with no pairs, counts as distance 1."""
    X = _as_points(X)
    n = X.shape[0]
    if n > MEDIAN_MAX_POINTS:
        idx = np.random.default_rng(0).choice(n, size=MEDIAN_MAX_POINTS, replace=False)
        X = X[idx]
    d = np.sqrt(_sum_sq_diff(X, X)[np.triu_indices(X.shape[0], k=1)])
    med = float(np.median(d)) if d.size else 0.0
    if med <= 0.0:
        med = 1.0
    return math.pi / med
