"""Exact Gaussian-process regression on top of the spectral kernels.

Training minimizes the negative log marginal likelihood (NLML)

    0.5 y^T (K + s2 I)^-1 y  +  0.5 log|K + s2 I|  +  (n/2) log 2 pi

with the full constant included.  Targets are centered and scaled to unit
variance before training; weights and the noise variance are reported back in
the original units.

The objective sums one factorization per group of datasets on one
:class:`~skewgp.kernels.Grid`, such as equal rBCM blocks, or per dataset on
no grid (:func:`objective_groups`), on one of two paths.  They agree to
1e-8 on the NLML and 1e-5 relative on the gradient while the noise variance
is at least 1e-6 of the prior variance; closer to singular, both are
limited by the conditioning of K:

* Toeplitz: grids of at least :data:`~skewgp.toeplitz.MIN_N` points, a
  measured crossover: one Levinson--Durbin factor of K + s2 I's first
  column and FFT convolutions, with no n x n matrix.
* Dense: every other group, such as the 96-month airline fit: one Cholesky
  factor of the K of :func:`~skewgp.kernels.training_covariance`, which
  also gives the final factor's K.

Both read a mixture's parameters as the (Q, 1 + k P) rows of the
optimizer's vector and, on a grid, take K and every partial of a P = 1
mixture from one (Q, n) pass over its n lags |h| k.
Either factorization walks a jitter ladder eps * (tr/n), with eps in
{0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2}: a Cholesky rung fails when the
factorization does, a Levinson--Durbin rung when a prediction-error
variance is <= 0.  The fitted model and rBCM experts are always factorized
densely, and the jitter used is part of the model record, never silent:
rebuilding a model or ensemble from its record refactorizes it and raises
:class:`DataError` if the recomputed jitter differs from the recorded one.

Prediction (:func:`latent_moments`) takes the cross-covariance of the
queries with the training inputs, at the exact lags x*_i - t_j, from
:func:`~skewgp.kernels.gram`, which on a grid evaluates the kernel once per
lag of a few Toeplitz bands (on-grid points, half-steps) where these
reproduce every lag bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .errors import DataError, DimensionMismatchError, NumericalError
from . import kernels as kn
from . import toeplitz as tz
from .kernels import BaselineKernelParams, SlsmComponent, SlsmParams
from .optimize import (
    OptConfig,
    OptResult,
    TransformedParams,
    minimize,
    transform,
    untransform,
)

JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)
SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Observed inputs X (n x P) and targets y (n,)."""

    X: np.ndarray
    y: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        y = np.asarray(self.y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise DataError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
        if X.shape[0] < 1:
            raise DataError("dataset is empty")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise DataError("dataset contains non-finite values")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def fingerprint(self) -> str:
        return hashlib.sha256(self.X.tobytes() + self.y.tobytes()).hexdigest()[:16]


@dataclass(frozen=True)
class Normalization:
    """Center/scale stats applied to y (and to X columns when P > 1)."""

    y_mean: float
    y_std: float
    x_means: tuple[float, ...]
    x_stds: tuple[float, ...]

    @classmethod
    def from_data(cls, data: Dataset) -> "Normalization":
        y_std = float(np.std(data.y))
        if y_std <= 0.0:
            y_std = 1.0
        if data.p > 1:
            xm = tuple(float(v) for v in np.mean(data.X, axis=0))
            xs = tuple(float(v) if v > 0 else 1.0 for v in np.std(data.X, axis=0))
        else:
            xm = (0.0,) * data.p
            xs = (1.0,) * data.p
        return cls(float(np.mean(data.y)), y_std, xm, xs)

    @classmethod
    def identity(cls, p: int = 1) -> "Normalization":
        return cls(0.0, 1.0, (0.0,) * p, (1.0,) * p)

    def apply(self, data: Dataset) -> Dataset:
        yn = (data.y - self.y_mean) / self.y_std
        return Dataset(self.apply_x(data.X), yn, data.names)

    def apply_x(self, X: np.ndarray) -> np.ndarray:
        return (X - np.array(self.x_means)) / np.array(self.x_stds)

    def apply_queries(self, Xstar) -> np.ndarray:
        """Normalized query points for prediction; they must be finite and
        have the training inputs' width P."""
        Xs = np.asarray(Xstar, dtype=float)
        if Xs.ndim == 1:
            Xs = Xs[:, None]
        if Xs.shape[1] != len(self.x_means):
            raise DimensionMismatchError(len(self.x_means), Xs.shape[1])
        if not np.all(np.isfinite(Xs)):
            raise DataError("prediction inputs contain non-finite values")
        return self.apply_x(Xs)

    def prediction(self, mean_n, var_n, observation_noise: bool) -> "Prediction":
        """Target-unit prediction from normalized moments; negative variances
        are clamped to 0 and counted."""
        return Prediction(mean=self.y_mean + self.y_std * mean_n,
                          var=self.y_std**2 * np.maximum(var_n, 0.0),
                          clamped=int(np.sum(var_n < 0.0)), observation_noise=observation_noise)


@dataclass
class Prediction:
    """Predictive mean and (nonnegative) variance at the query points."""

    mean: np.ndarray
    var: np.ndarray
    clamped: int = 0
    observation_noise: bool = False


# ---------------------------------------------------------------------------
# linear algebra with the jitter ladder
# ---------------------------------------------------------------------------


def _walk_ladder(scale: float, attempt, what: str):
    """``(attempt(jitter), jitter)`` at the first jitter eps * ``scale``,
    eps in :data:`JITTER_LADDER`, where ``attempt`` does not return None;
    raises :class:`NumericalError` naming the final jitter tried when every
    rung fails."""
    if not np.isfinite(scale):
        raise NumericalError("covariance trace overflows; no jitter scale exists")
    if scale <= 0.0:
        scale = 1.0
    last = 0.0
    for eps in JITTER_LADDER:
        last = eps * scale
        out = attempt(last)
        if out is not None:
            return out, last
    raise NumericalError(f"{what} failed after jitter escalation up to {last:.3e}")


def chol_with_jitter(K: np.ndarray, noise_var: float):
    """Lower Cholesky of K + noise I, escalating jitter on failure; only
    the lower triangle of K is read.

    Returns ``(L, jitter_used)``; the jitter scale is tr(K + noise I) / n.
    """
    n = K.shape[0]
    if not (np.all(np.isfinite(K)) and np.isfinite(noise_var)):
        raise NumericalError("covariance matrix contains non-finite values")
    kt = K + noise_var * np.eye(n)

    def attempt(jitter):  # K and the noise are checked above: no second scan
        try:
            return cholesky(kt + jitter * np.eye(n), lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            return None

    with np.errstate(over="ignore"):  # an infinite trace raises NumericalError below
        scale = float(np.trace(kt)) / n
    return _walk_ladder(scale, attempt, "Cholesky factorization")


def levinson_with_jitter(r: np.ndarray, noise_var: float):
    """Levinson--Durbin on the Toeplitz first column ``r`` of K plus noise
    I, on the same jitter ladder and scale (r_0 + noise = tr / n) as
    :func:`chol_with_jitter`; a rung fails when a prediction-error variance
    is <= 0.  Returns ``(factor, jitter_used)`` with a
    :class:`~skewgp.toeplitz.Factor`."""
    if not (np.all(np.isfinite(r)) and np.isfinite(noise_var)):
        raise NumericalError("covariance matrix contains non-finite values")
    rt = np.array(r, dtype=float)
    rt[0] += noise_var

    def attempt(jitter):
        rj = rt.copy()
        rj[0] += jitter
        return tz.levinson(rj)

    return _walk_ladder(float(rt[0]), attempt, "Levinson-Durbin recursion")


def _solve_chol(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    return cho_solve((L, True), b, check_finite=False)  # L is a checked factor


def factorize(data: Dataset, kind: str, params):
    """``(L, jitter_used, alpha)``: the Cholesky factor of K + noise I at the
    training inputs and alpha = (K + noise I)^-1 y, with K from
    :func:`~skewgp.kernels.training_covariance`, as the objective takes it."""
    table = kn.lag_table(data.X, kind, params)
    rows = params.rows(kind) if kind in kn.MIXTURE_KERNELS else params
    K = kn.training_covariance(data.X, kind, rows, table)[0]
    del table  # neither the table nor the slots are held through the Cholesky
    L, jit = chol_with_jitter(K, params.noise_var)
    return L, jit, _solve_chol(L, data.y)


def latent_moments(Xs_n, factors, kind: str, params):
    """Noise-free predictive mean and variance at normalized query points
    from the stored factors (``data``, ``chol_L``, ``alpha``) of a model or
    an rBCM expert: one :func:`~skewgp.kernels.gram` and one triangular
    solve."""
    ks = kn.gram(Xs_n, factors.data.X, kind, params)
    mean = np.einsum("ij,j->i", ks, factors.alpha)  # each row alone: no batch-sized GEMV
    v = solve_triangular(factors.chol_L, ks.T, lower=True, overwrite_b=True)  # ks is spent
    return mean, kn.prior_variance(params) - np.sum(v * v, axis=0)


# ---------------------------------------------------------------------------
# NLML and its gradient
# ---------------------------------------------------------------------------


def nlml_from_factor(L: np.ndarray, alpha: np.ndarray, y: np.ndarray) -> float:
    """Data fit + complexity + constant from a :func:`factorize` result."""
    return (0.5 * float(y @ alpha) + float(np.sum(np.log(np.diag(L))))
            + 0.5 * y.size * math.log(2.0 * math.pi))


def nlml(data: Dataset, params, kind: str) -> float:
    """Full negative log marginal likelihood (constant included)."""
    L, _, alpha = factorize(data, kind, params)
    return nlml_from_factor(L, alpha, data.y)


def nlml_value_and_grad(parts, tp: TransformedParams, table):
    """Summed NLML of the datasets ``parts`` of one :func:`objective_groups`
    group and its gradient in the transformed coordinates of ``tp``, from
    one factor: Cholesky on a lag ``table`` (:func:`_dense_terms`), or
    Levinson--Durbin on a :class:`~skewgp.kernels.Grid` (:func:`_toeplitz_terms`).
    A mixture reads the :meth:`~skewgp.optimize.ParamLayout.natural` rows,
    where a scale underflowed to 0 raises :class:`DataError`."""
    lay = tp.layout
    rows, vals = lay.natural(tp.x)
    if lay.kind in kn.MIXTURE_KERNELS and not np.all(rows[:, 1 + lay.p:1 + 2 * lay.p] > 0.0):
        raise DataError("a component scale underflowed to 0")
    params = rows if lay.kind in kn.MIXTURE_KERNELS else untransform(tp)
    terms = _toeplitz_terms if isinstance(table, kn.Grid) else _dense_terms
    f, grad_nat = terms(parts, lay.kind, params, vals[-1], table)
    return f, np.array(grad_nat) * np.where(lay.log_mask, vals, 1.0)


def _dense_terms(parts, kind: str, params, noise_var, table):
    """Summed NLML and natural-coordinate gradient (noise slot last) of the
    datasets ``parts`` on their lag ``table``, from one Cholesky factor of
    K~: with M = m K~^-1 - sum_e alpha_e alpha_e^T, every slot is
    0.5 tr(M dK/dtheta), K and the slots from
    :func:`~skewgp.kernels.training_covariance`."""
    K, slots = kn.training_covariance(parts[0].X, kind, params, table)
    L, _ = chol_with_jitter(K, noise_var)
    del K
    # m K~^-1 in C order, the order of the index and the partials
    M = np.multiply(_solve_chol(L, np.eye(L.shape[0])), len(parts), order="C")
    f = 0.0
    for part in parts:
        alpha = _solve_chol(L, part.y)
        f += nlml_from_factor(L, alpha, part.y)
        M -= np.outer(alpha, alpha)
    return f, slots(M) + [0.5 * float(np.trace(M))]  # noise slot: dK/ds2 = I


def _toeplitz_terms(parts, kind: str, params, noise_var, grid: kn.Grid):
    """Summed NLML and natural-coordinate gradient of the datasets ``parts``
    on ``grid``.  K~ is symmetric Toeplitz, so with S_k the k-th diagonal
    sum of M = m K~^-1 - sum_e alpha_e alpha_e^T, every slot is
    0.5 (dk_0 S_0 + 2 sum_{k>0} dk_k S_k) over the n lags h k."""
    r, partials = kn.value_and_partials(grid.lags(), kind, params)
    factor, _ = levinson_with_jitter(r, noise_var)
    Y = np.column_stack([part.y for part in parts])
    alpha = factor.solve(Y)
    f = 0.5 * (float(np.sum(Y * alpha))
               + len(parts) * (factor.logdet + grid.n * math.log(2.0 * math.pi)))
    S = factor.diag_sums(alpha)
    S[1:] *= 2.0  # each lag k > 0 sits on two diagonals; dK/ds2 = I reads S_0
    return f, [*kn._half_dots(partials, S), 0.5 * float(S[0])]


def objective_or_inf(parts, x: np.ndarray, layout, table):
    """:func:`nlml_value_and_grad` at ``x`` of the group ``(parts, table)``,
    or ``(inf, 0)`` where the NLML cannot be evaluated, so the line search
    backs off."""
    # DataError covers log-slot underflow to 0 during extreme line-search
    # steps; overflow to inf is caught by the non-finite covariance guard
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return nlml_value_and_grad(parts, TransformedParams(x, layout), table)
    except (NumericalError, DataError):
        return np.inf, np.zeros_like(x)


def nlml_grad(data: Dataset, params, kind: str) -> np.ndarray:
    """Gradient of the NLML over the transformed hyper-parameter vector."""
    return nlml_value_and_grad([data], transform(params, kind),
                               kn.lag_table(data.X, kind, params))[1]


# ---------------------------------------------------------------------------
# trained model
# ---------------------------------------------------------------------------


@dataclass
class TrainedModel:
    """Kernel spec + optimized parameters + cached factors for prediction.

    ``params`` lives in the internal (normalized-target) space; use
    :meth:`denormalized_params` for user-facing values.  Immutable after fit.
    """

    kind: str
    params: object
    data: Dataset                  # normalized training data
    normalization: Normalization
    chol_L: np.ndarray
    alpha: np.ndarray
    jitter_used: float
    train_fingerprint: str
    opt_result: OptResult | None = None
    prune_report: dict | None = None

    @property
    def nlml_internal(self) -> float:
        """NLML of the normalized training data at the fitted parameters."""
        return nlml_from_factor(self.chol_L, self.alpha, self.data.y)

    def denormalized_params(self):
        """Parameters with weights / noise rescaled to original target units."""
        s2 = self.normalization.y_std**2
        return scale_variances(self.params, lambda v: v * s2)

    def predict(self, Xstar, observation_noise: bool = False) -> Prediction:
        Xs_n = self.normalization.apply_queries(Xstar)
        mean_n, var_n = latent_moments(Xs_n, self, self.kind, self.params)
        if observation_noise:
            var_n = var_n + self.params.noise_var
        return self.normalization.prediction(mean_n, var_n, observation_noise)


def scale_variances(params, scale):
    """``params`` with ``scale`` applied to every variance: the mixture
    weights (``theta_f`` for baselines) and the noise variance."""
    if isinstance(params, BaselineKernelParams):
        return replace(params, theta_f=scale(params.theta_f),
                       noise_var=scale(params.noise_var))
    comps = tuple(replace(c, w=scale(c.w)) for c in params.components)
    return params.__class__(comps, noise_var=scale(params.noise_var))


def _model_from_params(kind, params, data_n, normalization, fingerprint,
                       opt_result=None, prune_report=None) -> TrainedModel:
    L, jit, alpha = factorize(data_n, kind, params)
    return TrainedModel(kind=kind, params=params, data=data_n, normalization=normalization,
                        chol_L=L, alpha=alpha, jitter_used=jit, train_fingerprint=fingerprint,
                        opt_result=opt_result, prune_report=prune_report)


def objective_groups(parts, kind: str, params):
    """``(members, table)`` for each :func:`nlml_value_and_grad` call of one
    objective evaluation over the datasets ``parts``: the parts on the first
    member's :class:`~skewgp.kernels.Grid` at any n, or one part on no grid,
    with that Grid from :data:`~skewgp.toeplitz.MIN_N` points up and else
    the first member's :func:`~skewgp.kernels.lag_table`."""
    groups, grids = [], []
    for part in parts:
        grid = kn.Grid.of(part.X)
        for (members, _), g in zip(groups, grids):
            if grid is not None and g is not None and g.holds(part.X):
                members.append(part)
                break
        else:
            grids.append(grid)
            groups.append(([part], grid if grid is not None and grid.n >= tz.MIN_N
                           else kn.lag_table(part.X, kind, params)))
    return groups


def optimize_parts(parts, init_params, kind: str, cfg: OptConfig,
                   norm: Normalization, each=map):
    """``(params, OptResult)`` minimizing the summed NLML of the normalized
    datasets ``parts`` from ``init_params`` (raw target units, rescaled by
    ``norm``); ``each`` maps the objective over the
    :func:`objective_groups` (``map`` or a pool's).  The groups' lag tables
    are built once here and freed on return."""
    s2 = norm.y_std**2
    tp0 = transform(scale_variances(init_params, lambda v: v / s2), kind)
    # the final factors build their own table: holding these through their
    # Cholesky raised uniform2000's peak RSS by 30 MB
    groups = objective_groups(parts, kind, init_params)

    def objective(x):
        results = list(each(lambda group: objective_or_inf(group[0], x, tp0.layout, group[1]),
                            groups))
        f = sum(r[0] for r in results)
        if not np.isfinite(f):
            return np.inf, np.zeros_like(x)
        return f, np.sum([r[1] for r in results], axis=0)

    res = minimize(objective, tp0.x, cfg, gamma_mask=np.logical_not(tp0.layout.log_mask))
    return untransform(TransformedParams(res.x, tp0.layout)), res


def fit(data: Dataset, init_params, kind: str, cfg: OptConfig | None = None,
        normalize: bool = True) -> TrainedModel:
    """Optimize the NLML from ``init_params`` (given in raw target units)."""
    norm = Normalization.from_data(data) if normalize else Normalization.identity(data.p)
    data_n = norm.apply(data)
    params, res = optimize_parts([data_n], init_params, kind, cfg or OptConfig(), norm)
    return _model_from_params(kind, params, data_n, norm, data.fingerprint(),
                              opt_result=res)


# ---------------------------------------------------------------------------
# prior sampling
# ---------------------------------------------------------------------------


def sample_prior(kind: str, params, X, n_paths: int, seed: int) -> np.ndarray:
    """Draw ``n_paths`` zero-mean functions from the kernel prior at X."""
    L, _ = chol_with_jitter(kn.gram(X, X, kind, params), 0.0)
    return np.random.default_rng(seed).standard_normal((n_paths, L.shape[0])) @ L.T


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def params_to_dict(params, kind: str) -> dict:
    if isinstance(params, BaselineKernelParams):
        fields = ("variant", "theta_f", "ell", "rq_alpha")
        return {"baseline": {k: getattr(params, k) for k in fields},
                "components": [], "noise_var": params.noise_var}
    comps = []
    for c in params.components:
        if c.p == 1:
            mu, sigma, gamma = c.scalars()
            comps.append({"w": c.w, "mu": mu, "sigma": sigma, "gamma": gamma})
        else:
            comps.append({"w": c.w, "mu": list(c.mu), "sigma2": [s**2 for s in c.sigma],
                          "gamma": list(c.gamma)})
    return {"components": comps, "noise_var": params.noise_var}


def params_from_dict(d: dict, kind: str):
    """Inverse of :func:`params_to_dict`: scalar ``mu/sigma/gamma`` entries
    are univariate components, list ``mu/sigma2/gamma`` entries multivariate
    ones, whose variances are stored as sigma^2."""
    if kind in kn.BASELINE_KERNELS:
        b = d["baseline"]
        return BaselineKernelParams(b["variant"], b["theta_f"], b["ell"],
                                    b["rq_alpha"], noise_var=d["noise_var"])
    comps = []
    for c in d["components"]:
        if isinstance(c.get("mu"), list):
            sigma = [math.sqrt(v) for v in c["sigma2"]]
        else:
            sigma = c["sigma"]
        comps.append(SlsmComponent(c["w"], c["mu"], sigma, c.get("gamma", 0.0)))
    return SlsmParams(tuple(comps), noise_var=d["noise_var"])


def record_to_dict(kind: str, params, norm: Normalization, fingerprint: str,
                   **fields) -> dict:
    """Keys shared by model and ensemble records; ``fields`` go between the
    normalization and the fingerprint."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kernel_type": kind,
        **params_to_dict(params, kind),
        "normalization": {"y_mean": norm.y_mean, "y_std": norm.y_std,
                          "x_means": list(norm.x_means), "x_stds": list(norm.x_stds)},
        **fields,
        "train_fingerprint": fingerprint,
    }


@contextmanager
def record_fields(what: str):
    """A missing key, or a field of the wrong type or value, read from a
    ``what`` record raises :class:`DataError`."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{what} record has a missing or malformed field: {exc!r}") from None


def record_model(d: dict):
    """``(kind, params, normalization)`` of a model or ensemble record of the
    current schema version."""
    if not isinstance(d, dict):
        raise DataError("a model record must be a JSON object")
    if d.get("schema_version") != SCHEMA_VERSION:
        raise DataError(f"unsupported model schema version {d.get('schema_version')!r}")
    with record_fields("model"):
        nz = d["normalization"]
        norm = Normalization(float(nz["y_mean"]), float(nz["y_std"]),
                             tuple(map(float, nz["x_means"])), tuple(map(float, nz["x_stds"])))
        return d["kernel_type"], params_from_dict(d, d["kernel_type"]), norm


def record_from_dict(d: dict, data: Dataset):
    """``(kind, params, normalization, normalized data)`` of a record of ``data``."""
    kind, params, norm = record_model(d)
    if d.get("train_fingerprint") != data.fingerprint():
        raise DataError("training data does not match the model's fingerprint")
    return kind, params, norm, norm.apply(data)


def model_to_dict(model: TrainedModel) -> dict:
    d = record_to_dict(model.kind, model.params, model.normalization,
                       model.train_fingerprint, jitter_used=model.jitter_used)
    if model.prune_report is not None:
        d["prune_report"] = model.prune_report
    return d


def model_to_json(model: TrainedModel) -> str:
    return json.dumps(model_to_dict(model), indent=2)


def check_jitter(recorded, recomputed: float, what: str):
    """Raise :class:`DataError` unless the refactorized ``what`` used the
    jitter its record states."""
    if recorded != recomputed:
        raise DataError(f"{what} records jitter {recorded!r} but refactorizing "
                        f"it takes {recomputed!r}")


def model_from_dict(d: dict, data: Dataset) -> TrainedModel:
    """Rebuild a trained model from its JSON record plus the training data;
    its recomputed jitter must equal the recorded one."""
    kind, params, norm, data_n = record_from_dict(d, data)
    model = _model_from_params(kind, params, data_n, norm, d["train_fingerprint"],
                               prune_report=d.get("prune_report"))
    check_jitter(d.get("jitter_used"), model.jitter_used, "the model")
    return model


def model_from_json(text: str, data: Dataset) -> TrainedModel:
    return model_from_dict(json.loads(text), data)
