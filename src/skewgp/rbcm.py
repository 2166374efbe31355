"""Robust Bayesian committee machine: partitioned training and
product-of-experts prediction.

Training minimizes the sum of per-expert NLMLs under one shared
hyper-parameter vector; prediction recombines per-expert Gaussians with
entropy-difference weights (uniform 1/M weights are available as a mode) and
a prior-precision correction:

    prec_* = sum_i beta_i / var_i + (1 - sum_i beta_i) / prior_var
    mean_* = (sum_i beta_i mean_i / var_i) / prec_*

Experts train and predict concurrently; the aggregation is a deterministic,
order-invariant reduction.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError
from . import kernels as kn
from .gp import (
    Dataset,
    Normalization,
    Prediction,
    factorize,
    latent_moments,
    nlml_from_factor,
    objective_or_inf,
    record_from_dict,
    record_to_dict,
    scale_variances,
)
from .optimize import OptConfig, TransformedParams, minimize, transform, untransform

BETA_MODES = ("entropy", "uniform")


def partition(n: int, m: int, strategy: str = "contiguous", seed: int = 0):
    """Split indices 0..n-1 into M disjoint covering subsets (sizes differ <= 1).

    ``contiguous`` keeps time order (the default for series); ``random``
    shuffles with the given seed.
    """
    if m > n:
        raise DataError(f"cannot split n={n} points into M={m} subsets")
    if m < 1:
        raise DataError("M must be >= 1")
    if strategy == "contiguous":
        idx = np.arange(n)
    elif strategy == "random":
        idx = np.random.default_rng(seed).permutation(n)
    else:
        raise DataError(f"unknown partition strategy {strategy!r}")
    return [np.sort(part) for part in np.array_split(idx, m)]


@dataclass
class _Expert:
    indices: np.ndarray
    data: Dataset            # normalized subset
    chol_L: np.ndarray | None = None
    alpha: np.ndarray | None = None
    jitter_used: float = 0.0


@dataclass
class ExpertEnsemble:
    """Per-expert factors over disjoint subsets, one shared parameter vector."""

    kind: str
    params: object                     # shared, normalized-target space
    normalization: Normalization
    experts: list[_Expert]
    beta_mode: str = "entropy"
    train_fingerprint: str = ""
    opt_trace: list = field(default_factory=list)

    @property
    def m(self) -> int:
        return len(self.experts)

    def predict(self, Xstar, observation_noise: bool = False) -> Prediction:
        return rbcm_predict(self, Xstar, observation_noise=observation_noise)


def _expert_factors(kind, params, expert: _Expert):
    expert.chol_L, expert.jitter_used, expert.alpha = factorize(expert.data, kind, params)


def rbcm_fit(data: Dataset, m: int, kind: str, init_params,
             cfg: OptConfig | None = None, strategy: str = "contiguous",
             beta_mode: str = "entropy", normalize: bool = True,
             parallel: bool = True, subsets=None) -> ExpertEnsemble:
    """Fit M local experts with a shared hyper-parameter vector.

    ``subsets`` overrides the partition (used by the shared-full-data
    validation mode, where every expert may hold all indices).
    """
    if beta_mode not in BETA_MODES:
        raise DataError(f"beta_mode must be one of {BETA_MODES}, got {beta_mode!r}")
    cfg = cfg or OptConfig()
    norm = Normalization.from_data(data) if normalize else Normalization.identity(data.p)
    data_n = norm.apply(data)
    if subsets is None:
        subsets = partition(data.n, m, strategy=strategy, seed=cfg.seed)
    experts = [
        _Expert(indices=np.asarray(idx), data=Dataset(data_n.X[idx], data_n.y[idx]))
        for idx in subsets
    ]
    s2 = norm.y_std**2
    tp0 = transform(scale_variances(init_params, lambda v: v / s2), kind)
    pool = ThreadPoolExecutor(max_workers=min(len(experts), 8)) if parallel else None
    each = pool.map if pool is not None else map

    def objective(x):
        results = list(each(lambda e: objective_or_inf(e.data, x, tp0.layout), experts))
        f = sum(r[0] for r in results)
        g = np.sum([r[1] for r in results], axis=0)
        if not np.isfinite(f):
            return np.inf, np.zeros_like(x)
        return f, g

    try:
        res = minimize(objective, tp0.x, cfg, gamma_mask=np.array(tp0.layout.gamma_mask))
    finally:
        if pool is not None:
            pool.shutdown()
    params = untransform(TransformedParams(res.x, tp0.layout))
    ens = ExpertEnsemble(
        kind=kind,
        params=params,
        normalization=norm,
        experts=experts,
        beta_mode=beta_mode,
        train_fingerprint=data.fingerprint(),
        opt_trace=res.trace,
    )
    for e in experts:
        _expert_factors(kind, params, e)
    return ens


def rbcm_joint_nlml(ens: ExpertEnsemble) -> float:
    """Sum of per-expert NLMLs at the shared parameters (normalized space)."""
    return sum(nlml_from_factor(e.chol_L, e.alpha, e.data.y) for e in ens.experts)


def rbcm_predict(ens: ExpertEnsemble, Xstar, observation_noise: bool = False) -> Prediction:
    """Weighted product-of-experts prediction at the query points."""
    Xs_n = ens.normalization.apply_queries(Xstar)
    params = ens.params
    noise = params.noise_var
    prior_var = kn.prior_variance(ens.kind, params) + noise
    log_prior = np.log(prior_var)

    means = []
    log_vars = []
    for e in ens.experts:
        mu, var = latent_moments(Xs_n, e, ens.kind, params)
        var = var + noise
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(var))):
            raise NumericalError("expert produced a non-finite prediction")
        var = np.clip(var, 1e-300, None)
        means.append(mu)
        log_vars.append(np.log(var))
    means = np.stack(means)          # (M, m)
    log_vars = np.stack(log_vars)

    if ens.beta_mode == "uniform":
        betas = np.full_like(log_vars, 1.0 / ens.m)
    else:
        betas = np.maximum(0.5 * (log_prior - log_vars), 0.0)
    beta_sum = np.sum(betas, axis=0)
    prec = np.sum(betas * np.exp(-log_vars), axis=0) + (1.0 - beta_sum) * np.exp(-log_prior)
    var = 1.0 / prec
    mean = var * np.sum(betas * np.exp(-log_vars) * means, axis=0)

    # with observation noise var = 1 / prec > 0, so only the latent
    # variance can need clamping
    if not observation_noise:
        var = var - noise
    return ens.normalization.prediction(mean, var, observation_noise)


# ---------------------------------------------------------------------------
# serialization (extends the model schema)
# ---------------------------------------------------------------------------


def ensemble_to_dict(ens: ExpertEnsemble) -> dict:
    return {
        **record_to_dict(ens.kind, ens.params, ens.normalization, ens.train_fingerprint),
        "rbcm": {"beta_mode": ens.beta_mode, "m": ens.m},
        "experts": [
            {"indices": [int(i) for i in e.indices], "jitter_used": e.jitter_used}
            for e in ens.experts
        ],
    }


def ensemble_from_dict(d: dict, data: Dataset) -> ExpertEnsemble:
    kind, params, norm, data_n = record_from_dict(d, data)
    experts = []
    for rec in d["experts"]:
        idx = np.asarray(rec["indices"], dtype=int)
        experts.append(_Expert(indices=idx, data=Dataset(data_n.X[idx], data_n.y[idx])))
    ens = ExpertEnsemble(
        kind=kind,
        params=params,
        normalization=norm,
        experts=experts,
        beta_mode=d["rbcm"]["beta_mode"],
        train_fingerprint=d["train_fingerprint"],
    )
    for e in experts:
        _expert_factors(kind, params, e)
    return ens
