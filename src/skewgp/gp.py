"""Exact Gaussian-process regression on top of the spectral kernels.

Training minimizes the negative log marginal likelihood (NLML)

    0.5 y^T (K + s2 I)^-1 y  +  0.5 log|K + s2 I|  +  (n/2) log 2 pi

with the full constant included.  Targets are centered and scaled to unit
variance before training; weights and the noise variance are reported back in
the original units.

The objective sums one factorization per group of datasets on one
:class:`~skewgp.kernels.Grid`, such as equal rBCM blocks, or per dataset on
no grid (:func:`objective_groups`).  The group's Grid or None, read once
per fit, picks one of two paths; they agree to
1e-8 on the NLML and 1e-5 relative on the gradient while the noise variance
is at least 1e-6 of the prior variance; closer to singular, both are
limited by the conditioning of K:

* Toeplitz: grids of at least :data:`~skewgp.toeplitz.MIN_N` points: one
  factor of K + s2 I's first column from scipy's compiled Levinson--Durbin
  recursion and FFT convolutions, with no n x n matrix.
* Dense: every other group, such as the 96-month airline fit: one Cholesky
  factor of the K of :func:`~skewgp.kernels.training_covariance`, which
  also gives the final factor's K.  Off a grid a mixture's gradient reads
  the lower triangle LAPACK ``dpotri`` writes over the factor; grids and
  baselines read the whole inverse from two n-column solves.

Both read a mixture's parameters as the (Q, 1 + k P) rows of the
optimizer's vector and, on a grid, take K and every partial of a P = 1
mixture from one (Q, n) pass over its n lags |h| k, whose windows the
dense path copies into K; off a grid a mixture of any P is evaluated
from the points, with no lag array.
Either factorization walks a jitter ladder eps * (tr/n), with eps in
{0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2}: a Cholesky rung fails when the
factorization does, a Levinson--Durbin rung when a prediction-error
variance is <= 0.  The fitted model and rBCM experts are always factorized
densely, and the jitter used is part of the model record, never silent:
rebuilding a model or ensemble from its record refactorizes it and raises
:class:`DataError` if the recomputed jitter differs from the recorded one.

Prediction (:func:`latent_moments`) takes the cross-covariance of the
queries with the training inputs from :func:`~skewgp.kernels.gram`, on
the same decision: against a grid at the exact lags x*_i - t_j, once per
lag of a few Toeplitz bands (on-grid points, half-steps) where these
reproduce every lag bit for bit; a mixture off a grid from the points.
It takes the queries in blocks of :data:`PREDICT_BLOCK_ENTRIES` // n
rows, so its working set does not grow with the number of queries; a
row's cross-covariance and mean do not depend on its block, its variance
only in the last bits of the triangular solve.  rBCM experts that share a
factor pass their alphas as one (n, E) matrix and, for each expert, the
rows of their distinct query offsets it reads: a row's variance is solved
once, an expert's mean is dotted at its own rows (at most twice as many),
and the blocks hold at most m rows, m the number of queries, so a group's
working set is one expert's block plus at most half a block of gathered
rows.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import blas, cho_solve, cholesky, lapack, solve_triangular

from .errors import DataError, DimensionMismatchError, NumericalError
from . import kernels as kn
from . import toeplitz as tz
from .kernels import BaselineKernelParams, SlsmComponent, SlsmParams
from .optimize import OptConfig, OptResult, minimize, transform, untransform

JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)
SCHEMA_VERSION = 1
# cross-covariance entries of one latent_moments block (16 MiB): a
# smaller block slows the triangular solve more than it saves
PREDICT_BLOCK_ENTRIES = 1 << 21


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Observed inputs X (n x P) and targets y (n,)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = kn._as_points(self.X)
        y = np.asarray(self.y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise DataError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
        if X.shape[0] < 1:
            raise DataError("dataset is empty")
        if not np.all(np.isfinite(y)):
            raise DataError("targets y contain non-finite values")
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

    def apply(self, data: Dataset) -> Dataset:
        yn = (data.y - self.y_mean) / self.y_std
        return Dataset(self.apply_x(data.X), yn)

    def apply_x(self, X: np.ndarray) -> np.ndarray:
        return (X - np.array(self.x_means)) / np.array(self.x_stds)

    def apply_queries(self, Xstar) -> np.ndarray:
        """Normalized query points for prediction; they must be finite and
        have the training inputs' width P."""
        Xs = kn._as_points(Xstar)
        if Xs.shape[1] != len(self.x_means):
            raise DimensionMismatchError(len(self.x_means), Xs.shape[1])
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
    the lower triangle of K is read and K is never written.

    Each rung factorizes one Fortran copy of K in place, its diagonal set
    to (K_ii + noise) + jitter.  Returns ``(L, jitter_used)``; the jitter
    scale is tr(K + noise I) / n.
    """
    n = K.shape[0]
    if not (np.all(np.isfinite(K)) and np.isfinite(noise_var)):
        raise NumericalError("covariance matrix contains non-finite values")
    diag = np.diagonal(K) + noise_var

    def attempt(jitter):  # K and the noise are checked above: no second scan
        kt = np.array(K, order="F")
        np.fill_diagonal(kt, diag + jitter)
        try:
            return cholesky(kt, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError:
            return None

    with np.errstate(over="ignore"):  # an infinite trace raises NumericalError below
        scale = float(np.sum(diag)) / n
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
    kn._check_width(params, data.p)
    rows = params.rows(kind) if kind in kn.MIXTURE_KERNELS else params
    # K alone: no grid index is built, and the slots are not held through the Cholesky
    K = kn.training_covariance(data.X, kind, rows, kn.Grid.of(data.X))[0]
    L, jit = chol_with_jitter(K, params.noise_var)
    return L, jit, _solve_chol(L, data.y)


def latent_moments(Xs_n, factors, kind: str, params, reads=None):
    """Noise-free predictive mean and variance at normalized query points
    from the stored factors (``data``, ``chol_L``, ``alpha``) of a model or
    an rBCM expert: one :func:`~skewgp.kernels.gram` and one in-place
    triangular solve per block of min(:data:`PREDICT_BLOCK_ENTRIES` // n, m)
    rows of ``Xs_n``, written into the results, so one block's (rows, n)
    arrays are held at a time.

    For the E rBCM experts that share one factor, ``alpha`` is (n, E) and
    ``reads`` an (E, m) array of the rows of ``Xs_n`` each expert reads:
    each row's variance is solved once, and each expert's mean is dotted
    at its own rows: in place over their span in a block where they fill
    at least half of it, else gathered, so at most twice the rows it reads.
    Both results are (E, m)."""
    X, L = factors.data.X, factors.chol_L
    n = X.shape[0]
    single = reads is None
    if single:
        reads = np.arange(Xs_n.shape[0])[None]
    order = np.argsort(reads, axis=1, kind="stable")
    sorted_reads = np.take_along_axis(reads, order, axis=1)
    cols = [np.ascontiguousarray(a) for a in factors.alpha.reshape(n, -1).T]
    mean, sq = np.empty(reads.shape), np.empty(Xs_n.shape[0])
    entries = n * min(PREDICT_BLOCK_ENTRIES // n, reads.shape[1])
    for rows, _ in kn._row_blocks(sq.size, n, entries=entries):
        ks = kn.gram(Xs_n[rows], X, kind, params)
        for k, a in enumerate(cols):  # each row alone: no GEMV
            lo, hi = np.searchsorted(sorted_reads[k], (rows.start, rows.stop))
            at = sorted_reads[k, lo:hi] - rows.start
            if at.size == 0:
                continue
            first, last = at[0], at[-1] + 1
            if 2 * at.size >= last - first:  # dense: the span in place, at most 2x the dots
                dots = np.einsum("ij,j->i", ks[first:last], a)[at - first]
            else:  # sparse: the rows read, gathered
                dots = np.einsum("ij,j->i", ks[at], a)
            mean[k, order[k, lo:hi]] = dots
        v = solve_triangular(L, ks.T, lower=True, overwrite_b=True)  # ks is spent
        v *= v  # squared in place: the same bits as v * v, one array fewer
        sq[rows] = np.sum(v, axis=0)
        del ks, v  # not held through the next block's gram
    var = kn.prior_variance(params) - sq
    return (mean[0], var) if single else (mean, var[reads])


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


# errstate is per thread, so it is set where the work runs, the rBCM pool's
# threads included; a covariance that overflows raises NumericalError
@np.errstate(over="ignore", invalid="ignore")
def nlml_value_and_grad(parts, x: np.ndarray, layout, grid):
    """Summed NLML of the datasets ``parts`` of one :func:`objective_groups`
    group on ``grid``, their :class:`~skewgp.kernels.Grid` or None, and its
    gradient at the transformed vector ``x`` of ``layout``, a
    :class:`~skewgp.optimize.ParamLayout`, from one factor:
    Levinson--Durbin on a grid of :data:`~skewgp.toeplitz.MIN_N` points or
    more (:func:`_toeplitz_terms`), else Cholesky (:func:`_dense_terms`).
    A mixture reads the :meth:`~skewgp.optimize.ParamLayout.natural` rows,
    where a scale underflowed to 0 raises :class:`DataError`."""
    rows, vals = layout.natural(x)
    mixture, p = layout.kind in kn.MIXTURE_KERNELS, layout.p
    if mixture and not np.all(rows[:, 1 + p:1 + 2 * p] > 0.0):
        raise DataError("a component scale underflowed to 0")
    params = rows if mixture else untransform(x, layout)
    terms = _toeplitz_terms if grid is not None and grid.n >= tz.MIN_N else _dense_terms
    f, grad_nat = terms(parts, layout.kind, params, vals[-1], grid)
    return f, np.array(grad_nat) * np.where(layout.log_mask, vals, 1.0)


def _dense_terms(parts, kind: str, params, noise_var, grid):
    """Summed NLML and natural-coordinate gradient (noise slot last) of the
    datasets ``parts`` on ``grid`` or None, from one Cholesky factor L of
    K~: with M = m K~^-1 - sum_e alpha_e alpha_e^T, every slot is
    0.5 tr(M dK/dtheta), K and the slots from
    :func:`~skewgp.kernels.training_covariance`.

    A mixture off a grid is one part (:func:`objective_groups`), and its
    slots read only M's lower triangle, so after alpha and the NLML have
    read L, LAPACK ``dpotri`` writes K~^-1's lower triangle over L (2n^3/3
    flops, no n x n array beside it) and ``dsyr`` subtracts alpha alpha^T
    there in place.  A grid's slots (sums over the lag index) and a
    baseline's (sums of M o dK) read both triangles, so they take the full
    m K~^-1 in C order from two n-column triangular solves."""
    K, slots = kn.training_covariance(parts[0].X, kind, params, grid)
    L, _ = chol_with_jitter(K, noise_var)
    del K
    alphas = [_solve_chol(L, part.y) for part in parts]
    f = sum(nlml_from_factor(L, alpha, part.y) for alpha, part in zip(alphas, parts))
    if grid is None and kind in kn.MIXTURE_KERNELS:
        (alpha,) = alphas
        M, _ = lapack.dpotri(L, lower=1, overwrite_c=1)  # L is spent: info > 0 needs L_ii = 0
        M = blas.dsyr(-1.0, alpha, lower=1, a=M, overwrite_a=1)
    else:  # m K~^-1 in C order, the order of the index and the partials
        M = np.multiply(_solve_chol(L, np.eye(L.shape[0])), len(parts), order="C")
        for alpha in alphas:
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


def nlml_grad(data: Dataset, params, kind: str) -> np.ndarray:
    """Gradient of the NLML over the transformed hyper-parameter vector."""
    kn._check_width(params, data.p)
    return nlml_value_and_grad([data], *transform(params, kind), kn.Grid.of(data.X))[1]


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


def objective_groups(parts):
    """``(members, grid)`` for each :func:`nlml_value_and_grad` call of one
    objective evaluation over the datasets ``parts``: the parts on the first
    member's :class:`~skewgp.kernels.Grid` at any n, or one part on no grid
    (None)."""
    groups = []
    for part in parts:
        grid = kn.Grid.of(part.X)
        for members, g in groups:
            if grid is not None and g is not None and g.holds(part.X):
                members.append(part)
                break
        else:
            groups.append(([part], grid))
    return groups


def optimize_parts(parts, init_params, kind: str, cfg: OptConfig,
                   norm: Normalization, each=map):
    """``(params, OptResult)`` minimizing the summed NLML of the normalized
    datasets ``parts`` from ``init_params`` (raw target units, rescaled by
    ``norm``); ``each`` maps :func:`nlml_value_and_grad` over the
    :func:`objective_groups` (``map`` or a pool's), and a group that raises
    fails the evaluation, which :func:`~skewgp.optimize.minimize` reads as
    +inf.  A group's Grid builds its index once, for the gradient slots of
    its first dense evaluation, and is freed on return."""
    kn._check_width(init_params, parts[0].p)
    s2 = norm.y_std**2
    x0, layout = transform(scale_variances(init_params, lambda v: v / s2), kind)
    # freed on return with the indexes their gradients build: held through
    # the final factors' Cholesky, these raised uniform2000's peak RSS by 30 MB
    groups = objective_groups(parts)

    def objective(x):
        results = list(each(lambda group: nlml_value_and_grad(group[0], x, layout, group[1]),
                            groups))
        return sum(r[0] for r in results), np.sum([r[1] for r in results], axis=0)

    res = minimize(objective, x0, cfg, gamma_mask=np.logical_not(layout.log_mask))
    return untransform(res.x, layout), res


def fit(data: Dataset, init_params, kind: str, cfg: OptConfig | None = None) -> TrainedModel:
    """Optimize the NLML from ``init_params`` (given in raw target units)."""
    norm = Normalization.from_data(data)
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


def params_to_dict(params) -> dict:
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
        **params_to_dict(params),
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
        kind = d["kernel_type"]
        if kind not in kn.KERNEL_TYPES:
            raise ValueError(f"unknown kernel_type {kind!r}")
        params = params_from_dict(d, kind)
        if kind in kn.BASELINE_KERNELS and params.variant != kind:
            raise ValueError(f"baseline variant {params.variant!r} is not kernel_type {kind!r}")
        nz = d["normalization"]
        norm = Normalization(float(nz["y_mean"]), float(nz["y_std"]),
                             tuple(map(float, nz["x_means"])), tuple(map(float, nz["x_stds"])))
        return kind, params, norm


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
