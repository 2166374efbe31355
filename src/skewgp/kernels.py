"""Stationary spectral-mixture kernels and their analytic gradients.

All kernels here use the *angular* frequency convention: a component with
frequency ``mu`` oscillates as ``cos(mu * tau)`` where ``tau`` is the lag in
input units.  User-facing cycles-per-sample frequencies must be converted with
``omega = 2 * pi * f`` before they reach this module.

Kernel families:

* ``slsm``  -- skewed-Laplace spectral mixture.  Each component is the inverse
  Fourier transform of a symmetrized skewed Laplace density with location
  ``mu``, scale ``sigma`` and skewness ``gamma``:

      k_i(tau) = (C cos(mu tau) - gamma tau sin(mu tau)) / (C^2 + gamma^2 tau^2)

  with ``C = 1 + sigma^2 tau^2 / 2``.
* ``sm``    -- Gaussian spectral mixture, ``cos(mu tau) exp(-sigma^2 tau^2 / 2)``.
* ``lkp``   -- Laplace spectral mixture: ``slsm`` with every skew zeroed by
  :func:`for_kind`, the one place that rule lives.
* ``se``/``rq`` -- single-component squared-exponential / rational-quadratic
  baselines.

Every function is pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, DimensionMismatchError

MIXTURE_KERNELS = ("slsm", "sm", "lkp")
BASELINE_KERNELS = ("se", "rq")
KERNEL_TYPES = MIXTURE_KERNELS + BASELINE_KERNELS


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlsmComponent:
    """One spectral-mixture component: weight, angular frequency, scale, skew."""

    w: float
    mu: float
    sigma: float
    gamma: float = 0.0

    def __post_init__(self):
        if not (self.w >= 0.0):
            raise DataError(f"component weight must be >= 0, got {self.w}")
        if not (self.mu >= 0.0):
            raise DataError(f"component frequency must be >= 0, got {self.mu}")
        if not (self.sigma > 0.0):
            raise DataError(f"component scale must be > 0, got {self.sigma}")
        if not math.isfinite(self.gamma):
            raise DataError(f"component skew must be finite, got {self.gamma}")

    @property
    def kappa(self) -> float:
        """Asymmetry ratio of the skewed Laplace density; > 0 for any gamma."""
        return math.sqrt(2.0) * self.sigma / (
            self.gamma + math.sqrt(2.0 * self.sigma**2 + self.gamma**2)
        )


@dataclass(frozen=True)
class SlsmParams:
    """Full hyper-parameter set of a univariate mixture kernel."""

    components: tuple[SlsmComponent, ...]
    noise_var: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) < 1:
            raise DataError("mixture needs at least one component")
        if not (self.noise_var >= 0.0):
            raise DataError(f"noise variance must be >= 0, got {self.noise_var}")

    @property
    def q(self) -> int:
        return len(self.components)

    def with_components(self, components) -> "SlsmParams":
        return replace(self, components=tuple(components))


@dataclass(frozen=True)
class MultiSlsmComponent:
    """Multivariate mixture component with diagonal scale matrix."""

    w: float
    mu_vec: tuple[float, ...]
    sigma2_vec: tuple[float, ...]
    gamma_vec: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "mu_vec", tuple(float(v) for v in self.mu_vec))
        object.__setattr__(self, "sigma2_vec", tuple(float(v) for v in self.sigma2_vec))
        object.__setattr__(self, "gamma_vec", tuple(float(v) for v in self.gamma_vec))
        p = len(self.mu_vec)
        if p < 1:
            raise DataError("multivariate component needs P >= 1")
        if len(self.sigma2_vec) != p or len(self.gamma_vec) != p:
            raise DimensionMismatchError(p, min(len(self.sigma2_vec), len(self.gamma_vec)))
        if not (self.w >= 0.0):
            raise DataError(f"component weight must be >= 0, got {self.w}")
        if any(m < 0.0 for m in self.mu_vec):
            raise DataError("component frequencies must be >= 0")
        if any(s <= 0.0 for s in self.sigma2_vec):
            raise DataError("component variances must be > 0")

    @property
    def p(self) -> int:
        return len(self.mu_vec)


@dataclass(frozen=True)
class MultiSlsmParams:
    """Mixture of multivariate components plus observation noise."""

    components: tuple[MultiSlsmComponent, ...]
    noise_var: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) < 1:
            raise DataError("mixture needs at least one component")
        p = self.components[0].p
        for c in self.components:
            if c.p != p:
                raise DimensionMismatchError(p, c.p)
        if not (self.noise_var >= 0.0):
            raise DataError(f"noise variance must be >= 0, got {self.noise_var}")

    @property
    def q(self) -> int:
        return len(self.components)

    @property
    def p(self) -> int:
        return self.components[0].p

    def with_components(self, components) -> "MultiSlsmParams":
        return replace(self, components=tuple(components))


@dataclass(frozen=True)
class BaselineKernelParams:
    """Squared-exponential or rational-quadratic baseline."""

    variant: str
    theta_f: float
    ell: float
    rq_alpha: float = 1.0
    noise_var: float = 0.0

    def __post_init__(self):
        if self.variant not in BASELINE_KERNELS:
            raise DataError(f"unknown baseline variant {self.variant!r}")
        if not (self.theta_f > 0.0 and self.ell > 0.0 and self.rq_alpha > 0.0):
            raise DataError("baseline parameters must be strictly positive")
        if not (self.noise_var >= 0.0):
            raise DataError(f"noise variance must be >= 0, got {self.noise_var}")


def for_kind(params, kind: str):
    """``params`` as kernel ``kind`` evaluates them: ``lkp`` zeroes every skew."""
    if kind != "lkp":
        return params
    if isinstance(params, MultiSlsmParams):
        return params.with_components(
            replace(c, gamma_vec=(0.0,) * c.p) for c in params.components)
    return params.with_components(replace(c, gamma=0.0) for c in params.components)


# ---------------------------------------------------------------------------
# univariate kernel evaluation
# ---------------------------------------------------------------------------


def slsm_component(tau, c: SlsmComponent):
    """Unweighted skewed-Laplace component at lags ``tau`` (any array shape);
    1 at tau = 0, bounded by 1."""
    tau = np.asarray(tau, dtype=float)
    phase = c.mu * tau
    cos_p = np.cos(phase)
    sin_p = np.sin(phase)
    cc = 1.0 + 0.5 * c.sigma**2 * tau**2
    return (cc * cos_p - c.gamma * tau * sin_p) / (cc * cc + c.gamma**2 * tau**2)


def slsm_kernel(tau, p: SlsmParams):
    """Weighted sum of skewed-Laplace components; Sum(w) at tau = 0."""
    tau = np.asarray(tau, dtype=float)
    out = np.zeros(np.shape(tau))
    for c in p.components:
        out += c.w * slsm_component(tau, c)
    return out if out.shape else float(out)


def sm_kernel(tau, p: SlsmParams):
    """Gaussian spectral mixture; any skew parameters are ignored."""
    tau = np.asarray(tau, dtype=float)
    out = np.zeros(np.shape(tau))
    for c in p.components:
        out += c.w * np.cos(c.mu * tau) * np.exp(-0.5 * c.sigma**2 * tau**2)
    return out if out.shape else float(out)


def lkp_kernel(tau, p: SlsmParams):
    """Laplace spectral mixture: the skew-free case of ``slsm_kernel``."""
    return slsm_kernel(tau, for_kind(p, "lkp"))


def baseline_kernel(tau, b: BaselineKernelParams):
    """SE or RQ baseline at lag ``tau`` (or squared distance via |tau|)."""
    tau = np.asarray(tau, dtype=float)
    r2 = tau * tau
    if b.variant == "se":
        out = b.theta_f * np.exp(-r2 / (2.0 * b.ell**2))
    else:
        out = b.theta_f * (1.0 + r2 / (2.0 * b.rq_alpha * b.ell**2)) ** (-b.rq_alpha)
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# spectral density
# ---------------------------------------------------------------------------


def _skewed_laplace_pdf(s: np.ndarray, c: SlsmComponent) -> np.ndarray:
    """Asymmetric Laplace density with location mu, scale sigma, skew gamma."""
    kap = c.kappa
    amp = math.sqrt(2.0) / c.sigma * kap / (1.0 + kap * kap)
    # exponents are clamped at 0 so the branch discarded by where() never overflows
    left = np.exp(np.minimum(-math.sqrt(2.0) / (c.sigma * kap) * (c.mu - s), 0.0))
    right = np.exp(np.minimum(-math.sqrt(2.0) * kap / c.sigma * (s - c.mu), 0.0))
    return amp * np.where(s < c.mu, left, right)


def spectral_density(s, c: SlsmComponent):
    """Symmetrized component density: even, nonnegative, integrates to 1."""
    s = np.asarray(s, dtype=float)
    out = 0.5 * (_skewed_laplace_pdf(s, c) + _skewed_laplace_pdf(-s, c))
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# multivariate evaluation
# ---------------------------------------------------------------------------


def slsm_kernel_multi(tau_vec, c: MultiSlsmComponent):
    """Unweighted multivariate component.

    ``tau_vec`` is either a length-P lag vector or an (..., P) array of lags.
    """
    tau = np.atleast_1d(np.asarray(tau_vec, dtype=float))
    if tau.shape[-1] != c.p:
        raise DimensionMismatchError(c.p, tau.shape[-1])
    mu = np.asarray(c.mu_vec)
    s2 = np.asarray(c.sigma2_vec)
    ga = np.asarray(c.gamma_vec)
    phase = tau @ mu
    skew = tau @ ga
    cmat = 1.0 + 0.5 * (tau * tau) @ s2
    out = (cmat * np.cos(phase) - skew * np.sin(phase)) / (cmat * cmat + skew * skew)
    return out if out.shape else float(out)


def slsm_kernel_multi_mixture(tau_vec, p: MultiSlsmParams, kind: str = "slsm"):
    """Weighted multivariate mixture; ``sm`` swaps in the Gaussian envelope."""
    tau = np.atleast_1d(np.asarray(tau_vec, dtype=float))
    if tau.shape[-1] != p.p:
        raise DimensionMismatchError(p.p, tau.shape[-1])
    out = np.zeros(tau.shape[:-1])
    for c in for_kind(p, kind).components:
        if kind == "sm":
            mu = np.asarray(c.mu_vec)
            s2 = np.asarray(c.sigma2_vec)
            comp = np.cos(tau @ mu) * np.exp(-0.5 * (tau * tau) @ s2)
        else:
            comp = slsm_kernel_multi(tau, c)
        out += c.w * comp
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


def _as_points(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if not np.all(np.isfinite(x)):
        raise DataError("input points contain non-finite values")
    return x


def kernel_value(tau, kind: str, params):
    """Dispatch a univariate-lag kernel evaluation by kind."""
    if kind == "slsm":
        return slsm_kernel(tau, params)
    if kind == "sm":
        return sm_kernel(tau, params)
    if kind == "lkp":
        return lkp_kernel(tau, params)
    if kind in BASELINE_KERNELS:
        return baseline_kernel(tau, params)
    raise DataError(f"unknown kernel kind {kind!r}")


def prior_variance(kind: str, params) -> float:
    """k(0): Sum(w) for mixtures, theta_f for baselines."""
    if isinstance(params, (SlsmParams, MultiSlsmParams)):
        return float(sum(c.w for c in params.components))
    return float(params.theta_f)


def lags(xa: np.ndarray, xb: np.ndarray, kind: str, params) -> np.ndarray:
    """Lags xa_i - xb_j between two (n, P) point sets, as the kernel takes them.

    Univariate inputs give an (n, m) array.  For multivariate inputs, mixture
    kernels take the (n, m, P) vector lag and baselines the (n, m) Euclidean
    distance.
    """
    if xa.shape[1] == 1 and not isinstance(params, MultiSlsmParams):
        return xa[:, 0][:, None] - xb[:, 0][None, :]
    tau = xa[:, None, :] - xb[None, :, :]
    if kind in BASELINE_KERNELS:
        return np.sqrt(np.sum(tau * tau, axis=-1))
    return tau


def gram(x, x2, kind: str, params) -> np.ndarray:
    """Noise-free covariance matrix k(x_i - x2_j) at the :func:`lags`."""
    xa = _as_points(x)
    xb = _as_points(x2)
    if xa.shape[1] != xb.shape[1]:
        raise DimensionMismatchError(xa.shape[1], xb.shape[1])
    tau = lags(xa, xb, kind, params)
    if tau.ndim == 2:
        return np.asarray(kernel_value(tau, kind, params))
    return np.asarray(slsm_kernel_multi_mixture(tau, params, kind=kind))


# ---------------------------------------------------------------------------
# analytic parameter gradients (natural coordinates)
# ---------------------------------------------------------------------------


def slsm_component_partials(tau, c: SlsmComponent):
    """(value, d/dmu, d/dsigma, d/dgamma) of the unweighted component."""
    tau = np.asarray(tau, dtype=float)
    phase = c.mu * tau
    cos_p = np.cos(phase)
    sin_p = np.sin(phase)
    cc = 1.0 + 0.5 * c.sigma**2 * tau**2
    den = cc * cc + c.gamma**2 * tau**2
    val = (cc * cos_p - c.gamma * tau * sin_p) / den
    d_mu = (-cc * tau * sin_p - c.gamma * tau**2 * cos_p) / den
    d_sigma = c.sigma * tau**2 * (cos_p - 2.0 * cc * val) / den
    d_gamma = (-tau * sin_p - 2.0 * c.gamma * tau**2 * val) / den
    return val, d_mu, d_sigma, d_gamma


def sm_component_partials(tau, c: SlsmComponent):
    """(value, d/dmu, d/dsigma) of the unweighted Gaussian-mixture component."""
    tau = np.asarray(tau, dtype=float)
    env = np.exp(-0.5 * c.sigma**2 * tau**2)
    cos_p = np.cos(c.mu * tau)
    val = cos_p * env
    d_mu = -tau * np.sin(c.mu * tau) * env
    d_sigma = -c.sigma * tau**2 * val
    return val, d_mu, d_sigma


def multi_component_partials(tau, c: MultiSlsmComponent, kind: str = "slsm"):
    """Value and partials of a multivariate component at lags ``tau``.

    ``tau`` has shape (..., P).  Returns ``(value, d_mu, d_sigma2, d_gamma)``
    where each partial block has shape (..., P); the skew block is None for
    ``sm``.
    """
    tau = np.asarray(tau, dtype=float)
    mu = np.asarray(c.mu_vec)
    s2 = np.asarray(c.sigma2_vec)
    phase = tau @ mu
    if kind == "sm":
        env = np.exp(-0.5 * (tau * tau) @ s2)
        val = np.cos(phase) * env
        d_mu = -np.sin(phase)[..., None] * tau * env[..., None]
        d_s2 = -0.5 * (tau * tau) * val[..., None]
        return val, d_mu, d_s2, None
    ga = np.asarray(c.gamma_vec)
    skew = tau @ ga
    cmat = 1.0 + 0.5 * (tau * tau) @ s2
    cos_p = np.cos(phase)
    sin_p = np.sin(phase)
    den = cmat * cmat + skew * skew
    val = (cmat * cos_p - skew * sin_p) / den
    d_mu = ((-cmat * sin_p - skew * cos_p) / den)[..., None] * tau
    d_s2 = (0.5 * (cos_p - 2.0 * cmat * val) / den)[..., None] * (tau * tau)
    d_gamma = ((-sin_p - 2.0 * skew * val) / den)[..., None] * tau
    return val, d_mu, d_s2, d_gamma


def baseline_partials(tau, b: BaselineKernelParams):
    """Value and partials of the baseline kernel w.r.t. its parameters.

    Returns (value, d_theta_f, d_ell[, d_alpha]).
    """
    tau = np.asarray(tau, dtype=float)
    r2 = tau * tau
    if b.variant == "se":
        shape = np.exp(-r2 / (2.0 * b.ell**2))
        val = b.theta_f * shape
        return val, shape, val * r2 / b.ell**3
    u = 1.0 + r2 / (2.0 * b.rq_alpha * b.ell**2)
    shape = u ** (-b.rq_alpha)
    val = b.theta_f * shape
    d_ell = b.theta_f * u ** (-b.rq_alpha - 1.0) * r2 / b.ell**3
    d_alpha = val * (-np.log(u) + r2 / (2.0 * b.rq_alpha * b.ell**2 * u))
    return val, shape, d_ell, d_alpha


def natural_partials(tau, kind: str, params):
    """Yield dK/dtheta at lags ``tau`` (from :func:`lags`), one array at a
    time, in the optimizer's natural-coordinate slot order without the noise
    slot: per component w, mu, sigma(2) and, for ``slsm`` only, gamma (P
    slots each for multivariate mu, sigma2, gamma); theta_f, ell(, rq_alpha)
    for baselines."""
    if isinstance(params, BaselineKernelParams):
        yield from baseline_partials(tau, params)[1:]
        return
    params = for_kind(params, kind)
    if isinstance(params, MultiSlsmParams):
        for c in params.components:
            val, d_mu, d_s2, d_ga = multi_component_partials(tau, c, kind=kind)
            yield val
            for d in range(c.p):
                yield c.w * d_mu[..., d]
            for d in range(c.p):
                yield c.w * d_s2[..., d]
            if kind == "slsm":
                for d in range(c.p):
                    yield c.w * d_ga[..., d]
        return
    for c in params.components:
        if kind == "sm":
            val, d_mu, d_sigma = sm_component_partials(tau, c)
        else:
            val, d_mu, d_sigma, d_gamma = slsm_component_partials(tau, c)
        yield val
        yield c.w * d_mu
        yield c.w * d_sigma
        if kind == "slsm":
            yield c.w * d_gamma
