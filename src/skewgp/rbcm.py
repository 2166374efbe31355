"""Robust Bayesian committee machine: partitioned training and
product-of-experts prediction.

The training series is split into M contiguous blocks in time order, one
per expert.  Training minimizes the sum of per-expert NLMLs under one shared
hyper-parameter vector; prediction recombines per-expert Gaussians with
entropy-difference weights (uniform 1/M weights are available as a mode) and
a prior-precision correction:

    prec_* = sum_i beta_i / var_i + (1 - sum_i beta_i) / prior_var
    mean_* = (sum_i beta_i mean_i / var_i) / prec_*

The NLMLs of a training step are evaluated on a thread pool, one call per
objective group of :func:`~skewgp.gp.objective_groups` (experts on one grid
share one factor, so the pool pays only where groups differ); the
aggregation is a deterministic, order-invariant reduction.

The same groups, by the same rule (:func:`_factor_groups`), carry the
final factors and the prediction: a group's first expert is factorized,
and the others share its Cholesky factor and jitter, each with its own
alpha.  The experts of a grid group are shifts of its first by
d_e = t_e,0 - t_0,0, and a stationary kernel reads only
q - t_e,j = (q - d_e) - t_0,j, so one :func:`~skewgp.gp.latent_moments`
call solves each distinct offset q - d_e once (rbcm2000's 8 experts and
4,500 queries: 8,000 of 36,000 rows) and dots each expert's mean only at
the offsets it reads.  Where no offset repeats, as for queries off the
grid's lattice, each expert is predicted alone.  Where the shifted lags
are exact, as on integer or half-step grids, the moments are bit for bit
those of each expert factorized and predicted alone.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, NumericalError
from . import kernels as kn
from .gp import (
    Dataset,
    Normalization,
    Prediction,
    _solve_chol,
    check_jitter,
    factorize,
    latent_moments,
    nlml_from_factor,
    objective_groups,
    optimize_parts,
    record_fields,
    record_from_dict,
    record_to_dict,
)
from .optimize import OptConfig, OptResult

BETA_MODES = ("entropy", "uniform")


def partition(n: int, m: int):
    """Split indices 0..n-1 into M contiguous blocks in time order (sizes
    differ by at most 1)."""
    if m > n:
        raise DataError(f"cannot split n={n} points into M={m} subsets")
    if m < 1:
        raise DataError("M must be >= 1")
    return np.array_split(np.arange(n), m)


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
    opt_result: OptResult | None = None

    def __post_init__(self):
        if self.beta_mode not in BETA_MODES:
            raise DataError(f"beta_mode must be one of {BETA_MODES}, got {self.beta_mode!r}")

    @property
    def m(self) -> int:
        return len(self.experts)

    @property
    def nlml_internal(self) -> float:
        """Sum of per-expert NLMLs at the shared parameters (normalized space)."""
        return sum(nlml_from_factor(e.chol_L, e.alpha, e.data.y) for e in self.experts)

    def predict(self, Xstar, observation_noise: bool = False) -> Prediction:
        return rbcm_predict(self, Xstar, observation_noise=observation_noise)


def _experts(data_n: Dataset, index_sets) -> list[_Expert]:
    return [_Expert(idx, Dataset(data_n.X[idx], data_n.y[idx])) for idx in index_sets]


def _expert_factors(kind, params, expert: _Expert):
    expert.chol_L, expert.jitter_used, expert.alpha = factorize(expert.data, kind, params)


def _factor_groups(experts) -> list[list[int]]:
    """The experts' indices in each :func:`objective_groups` group, the one
    rule by which experts share a factor: the experts on one P = 1 grid of
    one n and step, shifts of the first, or an expert alone."""
    index = {id(e.data): i for i, e in enumerate(experts)}
    return [[index[id(part)] for part in parts]
            for parts, _ in objective_groups([e.data for e in experts])]


def _ensemble_from_params(kind, params, norm, experts, fingerprint,
                          **fields) -> ExpertEnsemble:
    """The ensemble with its final factors: one per :func:`_factor_groups`
    group, from its first expert, whose ``chol_L`` and jitter the others
    share, each with its own alpha."""
    ens = ExpertEnsemble(kind=kind, params=params, normalization=norm, experts=experts,
                         train_fingerprint=fingerprint, **fields)
    for members in _factor_groups(experts):
        lead, *rest = (experts[i] for i in members)
        _expert_factors(kind, params, lead)
        for e in rest:
            e.chol_L, e.jitter_used = lead.chol_L, lead.jitter_used
            e.alpha = _solve_chol(lead.chol_L, e.data.y)
    return ens


def rbcm_fit(data: Dataset, m: int, kind: str, init_params,
             cfg: OptConfig | None = None) -> ExpertEnsemble:
    """Fit M experts on contiguous blocks of ``data`` with a shared
    hyper-parameter vector; their objective groups are evaluated on a pool
    of min(M, CPUs) threads.  Predictions use entropy weights."""
    norm = Normalization.from_data(data)
    experts = _experts(norm.apply(data), partition(data.n, m))
    with ThreadPoolExecutor(max_workers=min(len(experts), os.cpu_count() or 1)) as pool:
        params, res = optimize_parts([e.data for e in experts], init_params, kind,
                                     cfg or OptConfig(), norm, each=pool.map)
    return _ensemble_from_params(kind, params, norm, experts, data.fingerprint(),
                                 opt_result=res)


def _shared_offsets(Xs_n, group):
    """``(u, reads)`` of the E experts ``group`` of one
    :func:`_factor_groups` group: the distinct offsets q - d_e of the
    experts' shifts d_e from the first, as (|u|, 1) points, and the (E, m)
    rows of ``u`` each expert reads; None for one expert, or where no
    offset repeats (queries off the group's lattice), so that each expert
    is predicted alone and no (E, m) offsets are held through its blocks."""
    if len(group) == 1:
        return None
    lead = group[0]
    shifts = np.array([e.data.X[0, 0] - lead.data.X[0, 0] for e in group])
    offsets = Xs_n[:, 0] - shifts[:, None]
    u = np.sort(offsets, axis=None)
    fresh = np.concatenate([[True], u[1:] != u[:-1]])
    if fresh.all():  # np.unique's inverse would hold three more (E, m) arrays here
        return None
    u = u[fresh]
    return u[:, None], np.searchsorted(u, offsets)


def _expert_moments(ens: ExpertEnsemble, Xs_n):
    """(M, m) latent means and variances of the experts at the normalized
    queries: per :func:`_factor_groups` group, one :func:`latent_moments`
    call against the first expert's factor at each distinct offset once,
    each expert reading its own offsets, or, where nothing is shared
    (:func:`_shared_offsets`), one call per expert."""
    means = np.empty((ens.m, len(Xs_n)))
    var = np.empty_like(means)
    for members in _factor_groups(ens.experts):
        group = [ens.experts[i] for i in members]
        shared = _shared_offsets(Xs_n, group)
        if shared is None:
            for i, e in zip(members, group):
                means[i], var[i] = latent_moments(Xs_n, e, ens.kind, ens.params)
            continue
        u, reads = shared
        alphas = replace(group[0], alpha=np.column_stack([e.alpha for e in group]))
        means[members], var[members] = latent_moments(u, alphas, ens.kind, ens.params,
                                                      reads=reads)
    return means, var


def rbcm_predict(ens: ExpertEnsemble, Xstar, observation_noise: bool = False) -> Prediction:
    """Weighted product-of-experts prediction at the query points."""
    Xs_n = ens.normalization.apply_queries(Xstar)
    params = ens.params
    noise = params.noise_var
    prior_var = kn.prior_variance(params) + noise
    log_prior = np.log(prior_var)

    means, var = _expert_moments(ens, Xs_n)
    var += noise
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(var))):
        raise NumericalError("expert produced a non-finite prediction")
    log_vars = np.log(np.clip(var, 1e-300, None))   # (M, m)

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


def _index_sets(records, n: int) -> list[np.ndarray]:
    """The experts' index arrays from their records: integers in [0, n),
    each used by at most one expert; read under :func:`record_fields`."""
    raw = [np.asarray(rec, dtype=float) for rec in records]
    if any(r.ndim != 1 or not np.array_equal(r, np.trunc(r)) for r in raw):
        raise DataError("expert indices must be integers")
    index_sets = [r.astype(int) for r in raw]
    used = np.concatenate(index_sets) if index_sets else np.zeros(0, dtype=int)
    if np.any((used < 0) | (used >= n)):
        raise DataError(f"expert indices must lie in [0, {n})")
    if np.unique(used).size != used.size:
        raise DataError("expert indices must be disjoint: an index is used twice")
    return index_sets


def ensemble_from_dict(d: dict, data: Dataset) -> ExpertEnsemble:
    """Rebuild an ensemble from its JSON record plus the training data; each
    expert's recomputed jitter must equal the recorded one."""
    kind, params, norm, data_n = record_from_dict(d, data)
    with record_fields("ensemble"):
        beta_mode, m = d["rbcm"]["beta_mode"], d["rbcm"]["m"]
        index_sets = _index_sets([rec["indices"] for rec in d["experts"]], data_n.n)
    if m != len(index_sets) or m < 1:
        raise DataError(f"ensemble record states m = {m!r} but holds {len(index_sets)} experts")
    ens = _ensemble_from_params(kind, params, norm, _experts(data_n, index_sets),
                                d["train_fingerprint"], beta_mode=beta_mode)
    for i, (rec, e) in enumerate(zip(d["experts"], ens.experts)):
        check_jitter(rec.get("jitter_used"), e.jitter_used, f"expert {i}")
    return ens
