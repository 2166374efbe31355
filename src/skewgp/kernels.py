"""Stationary spectral-mixture kernels and their analytic gradients.

All kernels here use the *angular* frequency convention: a component with
frequency ``mu`` oscillates as ``cos(mu * tau)`` where ``tau`` is the lag in
input units.  User-facing cycles-per-sample frequencies must be converted with
``omega = 2 * pi * f`` before they reach this module.

Every mixture kernel is a weighted sum of :class:`SlsmComponent` terms.  A
component holds a weight ``w`` and, per input dimension d = 1..P, a location
``mu_d``, a scale ``sigma_d`` (a standard deviation) and a skew ``gamma_d``;
a univariate series is the case P = 1.

Kernel families:

* ``slsm``  -- skewed-Laplace spectral mixture.  Each component is the inverse
  Fourier transform of a symmetrized skewed Laplace density:

      k_i(tau) = (C cos(mu.tau) - (gamma.tau) sin(mu.tau)) / (C^2 + (gamma.tau)^2)

  with ``C = 1 + sum_d sigma_d^2 tau_d^2 / 2``; for P = 1 the dot products
  are plain products.
* ``sm``    -- Gaussian spectral mixture,
  ``cos(mu.tau) exp(-sum_d sigma_d^2 tau_d^2 / 2)``.
* ``lkp``   -- Laplace spectral mixture: ``slsm`` with every skew at zero;
  its parameter rows have no skew columns (gamma 0).
* ``se``/``rq`` -- single-component squared-exponential / rational-quadratic
  baselines.

Mixture evaluators take the (Q, 1 + k P) parameter rows of
:meth:`SlsmParams.rows`.  Fit and predict pick the path by one question,
asked once per set of training points: are they a :class:`Grid`, a
uniform P = 1 input t_0 + i h?  The answer, the Grid or None, is passed
along.  On a grid the kernel is evaluated at lags by its family's one
P = 1 value expression (:func:`_component_value`): the training lags are
the Toeplitz first column |h| k (every kernel is even in tau), K's row i a
window of k_{n-1} .. k_1, k_0 .. k_{n-1}, where one call of the family's
array body takes all Q components' (Q, 1) parameter columns
(:func:`value_and_partials`), and :func:`gram` sums the components one at
a time at the exact lags xa_i - xb_j, once per entry of a few bands of
consecutive lags (:func:`_grid_table`) where they read back bit for bit,
each row one window of the bands.  Off a grid a mixture of any P is
evaluated from the points, by per-point projections one block of rows at
a time, with no lag array; only the baselines take (n, m) lags
(:func:`lags`).  :func:`training_covariance` gives the training K and its
gradient slots for the objective and the final factor alike.

Every function is pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DataError, DimensionMismatchError

MIXTURE_KERNELS = ("slsm", "sm", "lkp")
BASELINE_KERNELS = ("se", "rq")
KERNEL_TYPES = MIXTURE_KERNELS + BASELINE_KERNELS


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


def _per_dim(value, p: int = 1) -> tuple[float, ...]:
    """``value`` as a tuple of floats; a scalar is repeated ``p`` times."""
    if np.ndim(value) == 0:
        return (float(value),) * p
    return tuple(float(v) for v in value)


@dataclass(frozen=True)
class SlsmComponent:
    """One spectral-mixture component: weight, then per-dimension angular
    frequency, scale and skew.  Scalars mean P = 1, except that a scalar
    ``gamma`` applies to every dimension."""

    w: float
    mu: tuple[float, ...]
    sigma: tuple[float, ...]
    gamma: tuple[float, ...] = 0.0

    def __post_init__(self):
        mu = _per_dim(self.mu)
        p = len(mu)
        sigma, gamma = _per_dim(self.sigma), _per_dim(self.gamma, p)
        if p < 1:
            raise DataError("component needs P >= 1")
        for v in (sigma, gamma):
            if len(v) != p:
                raise DimensionMismatchError(p, len(v))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "gamma", gamma)
        if not (self.w >= 0.0):
            raise DataError(f"component weight must be >= 0, got {self.w}")
        if not all(m >= 0.0 for m in mu):
            raise DataError(f"component frequency must be >= 0, got {mu}")
        if not all(s > 0.0 for s in sigma):
            raise DataError(f"component scale must be > 0, got {sigma}")
        if not all(math.isfinite(g) for g in gamma):
            raise DataError(f"component skew must be finite, got {gamma}")

    @property
    def p(self) -> int:
        return len(self.mu)

    def scalars(self) -> tuple[float, float, float]:
        """``(mu, sigma, gamma)`` of a univariate component."""
        if self.p != 1:
            raise DimensionMismatchError(1, self.p)
        return self.mu[0], self.sigma[0], self.gamma[0]

    @property
    def kappa(self) -> float:
        """Asymmetry ratio of the skewed Laplace density; > 0 for any gamma."""
        _, sigma, gamma = self.scalars()
        return math.sqrt(2.0) * sigma / (gamma + math.sqrt(2.0 * sigma**2 + gamma**2))


@dataclass(frozen=True)
class SlsmParams:
    """Full hyper-parameter set of a mixture kernel: Q components over P
    input dimensions, plus the observation noise variance."""

    components: tuple[SlsmComponent, ...]
    noise_var: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) < 1:
            raise DataError("mixture needs at least one component")
        for c in self.components:
            if c.p != self.p:
                raise DimensionMismatchError(self.p, c.p)
        if not (self.noise_var >= 0.0):
            raise DataError(f"noise variance must be >= 0, got {self.noise_var}")

    @property
    def q(self) -> int:
        return len(self.components)

    @property
    def p(self) -> int:
        return self.components[0].p

    def with_components(self, components) -> "SlsmParams":
        return replace(self, components=tuple(components))

    def rows(self, kind: str) -> np.ndarray:
        """The (Q, 1 + k P) parameter rows kernel ``kind`` evaluates, as
        :meth:`~skewgp.optimize.ParamLayout.natural` reads them: w, then P
        each of mu, sigma and, for ``slsm`` only, gamma (else 0)."""
        return np.array([(c.w, *c.mu, *c.sigma, *(c.gamma if kind == "slsm" else ()))
                         for c in self.components])


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


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------


def slsm_component(tau, c: SlsmComponent):
    """Unweighted skewed-Laplace component at lags ``tau`` (any array shape
    for P = 1, (..., P) for P > 1); 1 at tau = 0, bounded by 1."""
    return kernel_value(tau, "slsm", SlsmParams((replace(c, w=1.0),)))


def kernel_value(tau, kind: str, params):
    """Kernel ``kind`` at lags ``tau``: the weighted component sum for
    mixtures (Sum(w) at tau = 0), the baseline formula otherwise.  P = 1
    sums w_q times :func:`_component_value`'s value in component order; P > 1
    lags (..., P) are evaluated as points against the origin (:func:`gram`)."""
    if kind in BASELINE_KERNELS:
        return baseline_kernel(tau, params)
    if kind not in MIXTURE_KERNELS:
        raise DataError(f"unknown kernel kind {kind!r}")
    tau = np.asarray(tau, dtype=float)
    if params.p > 1:
        _check_width(params, tau.shape[-1] if tau.ndim else 1)
        out = gram(tau.reshape(-1, params.p), np.zeros((1, params.p)), kind, params)
        out = out.reshape(tau.shape[:-1])
    else:
        out = np.zeros(tau.shape)
        for w, *col in params.rows(kind).tolist():  # one component at a time: no (Q, m, n) stack
            out += w * _component_value(tau, kind, *col)[0]
    return out if out.shape else float(out)


def _baseline_shape(tau, b: BaselineKernelParams):
    """``(shape, r2, u)``: the SE or RQ baseline over theta_f at the lags
    ``tau`` (or distances), r^2 = tau^2 and, for rq only (else None),
    u = 1 + r^2 / (2 alpha ell^2), the terms its partials reuse."""
    tau = np.asarray(tau, dtype=float)
    r2 = tau * tau
    if b.variant == "se":
        return np.exp(-r2 / (2.0 * b.ell**2)), r2, None
    u = 1.0 + r2 / (2.0 * b.rq_alpha * b.ell**2)
    return u ** (-b.rq_alpha), r2, u


def baseline_kernel(tau, b: BaselineKernelParams):
    """SE or RQ baseline at lag ``tau`` (or distance, as |tau|)."""
    out = b.theta_f * _baseline_shape(tau, b)[0]
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# spectral density (univariate components)
# ---------------------------------------------------------------------------


def _skewed_laplace_pdf(s: np.ndarray, c: SlsmComponent) -> np.ndarray:
    """Asymmetric Laplace density with location mu, scale sigma, skew gamma."""
    mu, sigma, _ = c.scalars()
    kap = c.kappa
    amp = math.sqrt(2.0) / sigma * kap / (1.0 + kap * kap)
    # exponents are clamped at 0 so the branch discarded by where() never overflows
    left = np.exp(np.minimum(-math.sqrt(2.0) / (sigma * kap) * (mu - s), 0.0))
    right = np.exp(np.minimum(-math.sqrt(2.0) * kap / sigma * (s - mu), 0.0))
    return amp * np.where(s < mu, left, right)


def spectral_density(s, c: SlsmComponent):
    """Symmetrized component density: even, nonnegative, integrates to 1."""
    s = np.asarray(s, dtype=float)
    out = 0.5 * (_skewed_laplace_pdf(s, c) + _skewed_laplace_pdf(-s, c))
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


def _as_points(x) -> np.ndarray:
    """The (n, P) float array of the points ``x``, a 1-D array being P = 1;
    any other shape, or a non-finite value, is a :class:`DataError`."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise DataError(f"input points must be a 1-D or 2-D array, got shape {x.shape}")
    if x.ndim == 1:
        x = x[:, None]
    if not np.all(np.isfinite(x)):
        raise DataError("input points contain non-finite values")
    return x


def prior_variance(params) -> float:
    """k(0): Sum(w) for mixtures, theta_f for baselines."""
    if isinstance(params, SlsmParams):
        return float(sum(c.w for c in params.components))
    return float(params.theta_f)


def _check_width(params, p: int):
    if isinstance(params, SlsmParams) and params.p != p:
        raise DimensionMismatchError(params.p, p)


def _sum_sq_diff(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """sum_d (xa_id - xb_jd)^2 of two (n, P) point sets, added in dimension
    order from per-dimension outer differences: no (n, m, P) array."""
    out = np.subtract.outer(xa[:, 0], xb[:, 0]) ** 2
    for d in range(1, xa.shape[1]):
        out += np.subtract.outer(xa[:, d], xb[:, d]) ** 2
    return out


def lags(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Lags between two (n, P) point sets as a baseline, or a P = 1
    mixture off its table, takes them: the (n, m) differences xa_i - xb_j
    for P = 1, the Euclidean distances for P > 1."""
    if xa.shape[1] == 1:
        return xa[:, 0][:, None] - xb[:, 0][None, :]
    return np.sqrt(_sum_sq_diff(xa, xb))


# rounding allowance of the uniformity rule, in units of eps * max|t|
UNIFORM_ULPS = 8.0


@dataclass(frozen=True)
class Grid:
    """n points t_0 + i h, ``step`` h < 0 when descending: the one reading of
    a uniform P = 1 input, whose training lags are h k, |k| < n."""

    n: int
    step: float

    @classmethod
    def of(cls, x):
        """The grid with h = (t_{n-1} - t_0) / (n - 1) of the 1-D points ``x``
        if it :meth:`holds` them, else None (also for n < 2 or P > 1)."""
        t = _as_points(x)
        if t.shape[1] != 1 or t.shape[0] < 2:
            return None
        grid = cls(t.shape[0], float((t[-1, 0] - t[0, 0]) / (t.shape[0] - 1)))
        return grid if grid.holds(t) else None

    def holds(self, x) -> bool:
        """Whether the points ``x`` lie, in order, on this grid up to rounding:
        |t_i - (t_0 + i h)| <= UNIFORM_ULPS eps max|t|.  This accepts
        ``np.arange``, ``0.1 * np.arange`` and ``np.linspace`` grids and
        rejects one gap moved by 1e-9 h."""
        t = _as_points(x)
        if t.shape != (self.n, 1):
            return False
        tol = UNIFORM_ULPS * np.finfo(float).eps * float(np.max(np.abs(t)))
        return bool(np.max(np.abs(t[:, 0] - (t[0, 0] + self.lags()))) <= tol)

    def lags(self) -> np.ndarray:
        """h k, k = 0..n-1: the first column of a Toeplitz covariance."""
        return self.step * np.arange(self.n)

    @cached_property
    def index(self) -> np.ndarray:
        """|i - j|, the (n, n) index of the training K into its first column,
        by which the gradient slots sum M (:func:`training_covariance`);
        built on first use and kept with this Grid."""
        k = np.arange(self.n)
        return np.abs(np.subtract.outer(k, k))


def _windows(a: np.ndarray, n: int) -> np.ndarray:
    """The (a.size - n + 1, n) view of the 1-D array ``a`` whose row k is
    a[k:k + n]: a plain strided view, no copy."""
    return np.ndarray((a.size - n + 1, n), a.dtype, a, 0, (a.itemsize,) * 2)


def _grid_table(xa: np.ndarray, xb: np.ndarray, grid):
    """The P = 1 lags xa_i - xb_j of ``xa`` against the points ``xb`` on
    ``grid`` (their :class:`Grid` or None) as a table ``(values, start)``:
    row i of the lags is the window values[start_i:start_i + n], bit for
    bit, and ``values`` holds fewer entries than the lags; or None.

    Each point of ``xa`` sits at s = (xa - xb_0) / h; the rows are grouped
    by the exact offset s - floor(s), and each group gets one block of
    consecutive lags in the order a row reads them, j ascending: descending
    lags for h > 0, ascending for h < 0.  The lags are written into their
    windows, then recomputed and compared, one row block at a time.  None
    when a lag does not read back bit for bit (grids whose differences
    round), when the blocks hold more than half as many lags as the matrix
    (scattered queries, near-singleton groups) or when there are no rows,
    ``grid`` is None or has h = 0.  No lag is sorted.
    """
    if grid is None or not grid.step or not len(xa):  # no grid, repeated points, no rows
        return None
    m, n = len(xa), len(xb)
    s = (xa[:, 0] - xb[0, 0]) / grid.step
    if not np.all(np.isfinite(s)):
        return None
    r = np.floor(s)
    offsets, group = np.unique(s - r, return_inverse=True)
    lo = np.full(offsets.size, np.inf)
    hi = np.full(offsets.size, -np.inf)
    np.minimum.at(lo, group, r)
    np.maximum.at(hi, group, r)
    sizes = hi - lo + n
    # only rows sharing a band save evaluations (a lone row reads its own n
    # lags); the fill and read-back pay once the bands hold half the lags
    if 2 * np.sum(sizes) > m * n:
        return None
    # block position p holds the lag (hi + offset - p) h, so row i starts at hi - r_i
    start = ((np.cumsum(sizes) - sizes + hi)[group] - r).astype(np.intp)
    values = np.zeros(int(np.sum(sizes)))
    windows = _windows(values, n)
    blocks = list(_row_blocks(m, n, entries=1 << 16))
    for rows, _ in blocks:
        windows[start[rows]] = xa[rows] - xb.T
    if not all(np.array_equal(windows[start[rows]], xa[rows] - xb.T) for rows, _ in blocks):
        return None
    return values, start


def gram(x, x2, kind: str, params) -> np.ndarray:
    """Noise-free covariance matrix k(x_i - x2_j).  A mixture against an
    ``x2`` that is no :class:`Grid` (every P > 1 input) is :func:`multi_gram`,
    from the points, with no lag array; the rest against a grid once per
    entry of the :func:`_grid_table`, row i gathered as the window of those
    values at start_i, bit for bit the same matrix, else at the
    :func:`lags` of one row block at a time."""
    xa, xb = _as_points(x), _as_points(x2)
    if xa.shape[1] != xb.shape[1]:
        raise DimensionMismatchError(xa.shape[1], xb.shape[1])
    _check_width(params, xa.shape[1])
    grid = Grid.of(xb) if xb.shape[1] == 1 else None
    if kind in MIXTURE_KERNELS and grid is None:
        return multi_gram(xa, xb, kind, params.rows(kind))
    table = _grid_table(xa, xb, grid)
    if table is not None:
        values, start = table
        return _windows(kernel_value(values, kind, params), len(xb))[start]
    out = np.empty((len(xa), len(xb)))
    for rows, _ in _row_blocks(*out.shape):
        out[rows] = kernel_value(lags(xa[rows], xb), kind, params)
    return out


# ---------------------------------------------------------------------------
# analytic parameter gradients (natural coordinates)
# ---------------------------------------------------------------------------


def _component_value(tau, kind: str, mu, sigma, gamma=0.0):
    """Unweighted P = 1 component at the lags ``tau``, (Q, n) for (Q, 1)
    parameter columns, and the terms its partials reuse: ``(env,)`` for sm,
    else cos and sin of the phase, C and the denominator (gamma 0: lkp)."""
    tau2, sq_sigma = tau**2, sigma * sigma
    if kind == "sm":
        env = np.exp(-0.5 * sq_sigma * tau2)
        return np.cos(mu * tau) * env, (env,)
    cos_p, sin_p = np.cos(mu * tau), np.sin(mu * tau)
    cc = 1.0 + 0.5 * sq_sigma * tau2
    den = cc * cc + (gamma * gamma) * tau2
    return (cc * cos_p - gamma * tau * sin_p) / den, (cos_p, sin_p, cc, den)


def slsm_component_partials(tau, mu, sigma, gamma=0.0):
    """(value, d/dmu, d/dsigma, d/dgamma) of unweighted P = 1 components:
    (Q, 1) parameter columns against a grid's n lags ``tau`` give (Q, n)
    stacks; ``gamma`` 0 is lkp."""
    tau = np.asarray(tau, dtype=float)
    val, (cos_p, sin_p, cc, den) = _component_value(tau, "slsm", mu, sigma, gamma)
    g_tau2 = gamma * tau**2  # (2 gamma) tau^2 is 2 g_tau2: doubling is exact
    d_mu = (-cc * tau * sin_p - g_tau2 * cos_p) / den
    d_sigma = sigma * tau**2 * (cos_p - 2.0 * cc * val) / den
    d_gamma = (-tau * sin_p - 2.0 * g_tau2 * val) / den
    return val, d_mu, d_sigma, d_gamma


def sm_component_partials(tau, mu, sigma):
    """(value, d/dmu, d/dsigma) of unweighted P = 1 Gaussian-mixture
    components, broadcast as in :func:`slsm_component_partials`."""
    tau = np.asarray(tau, dtype=float)
    val, (env,) = _component_value(tau, "sm", mu, sigma)
    d_mu = -tau * np.sin(mu * tau) * env
    d_sigma = -sigma * tau**2 * val
    return val, d_mu, d_sigma


# entries of one row block of a mixture off a grid: its dozen working arrays
# stay in cache, where full (n, m) passes stream through memory
BLOCK_ENTRIES = 1 << 15


def _row_blocks(m: int, n: int, lower: bool = False, entries: int = BLOCK_ENTRIES):
    """``(rows, cols)`` slices of an (m, n) array in blocks of about
    ``entries`` entries; ``lower`` (m = n) stops each block's columns at the
    diagonal, inclusive."""
    step = max(1, entries // n)
    for start in range(0, m, step):
        stop = min(start + step, m)
        yield slice(start, stop), slice(0, stop if lower else n)


def _projections(x: np.ndarray, centre: np.ndarray, row: np.ndarray):
    """Per-point quantities of the component ``row`` at the (n, P) points
    ``x`` centred on ``centre``: cos and sin of the phase a = x mu, the skew
    projection x gamma and the points scaled by sigma / sqrt 2.  Centring
    keeps the points' offset out of the phases' rounding."""
    p = x.shape[1]
    mu, sigma, gamma = np.pad(row[1:], (0, p)).reshape(-1, p)[:3]  # no skew: gamma 0
    x = x - centre
    # sum_d v_d x_d added in dimension order, per point
    a, g = (sum(x[:, d] * v[d] for d in range(p)) for v in (mu, gamma))
    return np.cos(a), np.sin(a), g, x * (sigma / math.sqrt(2.0))


def _block(pa, pb, kind: str):
    """Unweighted component at the lags tau = xa_i - xb_j of the rows
    ``pa`` against the columns ``pb`` (:func:`_projections` of each), and
    the terms its partials reuse: cos and sin of the phase mu.tau = a_i - b_j
    from the per-point ones, the skew gamma.tau as an outer difference and
    sum_d sigma_d^2 tau_d^2 / 2 from per-dimension outer differences.  Each
    entry depends only on its own pair of points, whatever the block."""
    (ca, sa, ga, ha), (cb, sb, gb, hb) = pa, pb
    cos_p = np.multiply.outer(ca, cb)
    cos_p += np.multiply.outer(sa, sb)
    sin_p = np.multiply.outer(sa, cb)
    sin_p -= np.multiply.outer(ca, sb)
    cc = _sum_sq_diff(ha, hb)
    if kind == "sm":
        env = np.exp(np.negative(cc, out=cc), out=cc)
        return cos_p * env, (sin_p, env)
    cc += 1.0
    skew = np.subtract.outer(ga, gb)
    den = cc * cc
    den += skew * skew
    val = cc * cos_p
    val -= skew * sin_p
    val /= den
    return val, (cos_p, sin_p, skew, cc, den)


def _rows_of(points, rows: slice):
    return tuple(q[rows] for q in points)


def multi_gram(xa: np.ndarray, xb: np.ndarray, kind: str, rows: np.ndarray,
               lower: bool = False):
    """k(xa_i - xb_j) of the mixture with parameter ``rows``, (n, m),
    filled in row blocks (:func:`_block`), each adding w_q val_q in
    component order from the per-point quantities centred on the mean of
    ``xb``.  Each entry depends only on its own pair of points and ``xb``,
    so the blocks are the whole matrix bit for bit.  ``lower`` (xa = xb)
    fills each block's rows only up to the diagonal: the lower triangle,
    all the Cholesky reads of the symmetric K; above it only the blocks'
    diagonal squares are filled."""
    centre = np.mean(xb, axis=0)
    points = [(_projections(xa, centre, r), _projections(xb, centre, r)) for r in rows]
    out = np.zeros((xa.shape[0], xb.shape[0]))
    for block_rows, cols in _row_blocks(xa.shape[0], xb.shape[0], lower):
        block = out[block_rows, cols]
        for w, (pa, pb) in zip(rows[:, 0], points):
            block += w * _block(_rows_of(pa, block_rows), _rows_of(pb, cols), kind)[0]
    return out


def multi_component_partials(x: np.ndarray, M: np.ndarray, row: np.ndarray,
                             kind: str) -> np.ndarray:
    """The natural slots 0.5 tr(M dK/dtheta) of the component with
    parameter ``row`` at the training points ``x``: w, then mu_d, sigma_d
    and, for ``slsm`` only, gamma_d, for the symmetric (n, n) M of which
    only the lower triangle is read, such as the one ``dpotri`` leaves in
    an F-order factor's memory.

    d/dmu_d = w g_mu tau_d, d/dsigma_d = w g_sigma sigma_d tau_d^2 and
    d/dgamma_d = w g_gamma tau_d, with g_mu, g_gamma odd and g_sigma even
    in tau = x_i - x_j, so every slot is half a sum over all pairs of a term
    even in the pair order: the sum over the pairs off the diagonal taken
    once plus half the diagonal's (tau = 0 there, so only the w slot has
    one).  The lower triangle is read in C order as the upper triangle of
    ``M.T``: each block of rows takes the pairs right of its diagonal
    square and the square's strict upper part once, its diagonal half and
    its strict lower part, M's upper triangle (finite), times 0.  Its
    terms are rebuilt from the per-point quantities (:func:`_block`) and
    reduced at once, so no (n, n) array is made."""
    n, p = x.shape
    points = _projections(x, np.mean(x, axis=0), row)
    upper = M.T  # C order for an F-order M
    # the sums of M o val, then per dimension of M o g tau_d for g_mu,
    # M o g_sigma tau_d^2 and M o g_gamma tau_d
    w_slot, sums = 0.0, np.zeros((3, p))
    blocks = list(_row_blocks(n, n))
    r = blocks[0][0].stop  # the first block's diagonal square is the largest:
    # its strict upper part once, its diagonal half, its lower part (M's upper) 0
    weights = np.triu(np.ones((r, r)), 1) + 0.5 * np.eye(r)
    for rows, _ in blocks:
        cols, r = slice(rows.start, n), rows.stop - rows.start
        val, terms = _block(_rows_of(points, rows), _rows_of(points, cols), kind)
        m = np.negative(upper[rows, cols], order="C")  # -M, so each factor below is M o g
        m[:, :r] *= weights[:r, :r]
        w_slot -= np.einsum("ij,ij->", m, val)
        if kind == "sm":  # g_mu = -sin_p env, g_sigma = -val
            sin_p, env = terms
            odd = [np.multiply(sin_p, env, out=sin_p)]
            odd[0] *= m
            even = np.multiply(val, m, out=val)
        else:  # g_mu = -(cc sin_p + skew cos_p) / den, g_sigma = (cos_p - 2 cc val) / den
            cos_p, sin_p, skew, cc, den = terms
            md = np.divide(m, den, out=den)
            odd = [cc * sin_p]
            odd[0] += skew * cos_p
            if kind == "slsm":  # g_gamma = -(sin_p + 2 skew val) / den
                odd.append(np.multiply(skew, val, out=skew))
                odd[1] *= 2.0
                odd[1] += sin_p
            even = np.multiply(cc, val, out=cc)
            even *= 2.0
            even -= cos_p
            for g in odd + [even]:
                g *= md
        for d in range(p):
            tau = np.subtract.outer(x[rows, d], x[cols, d])
            for at, g in zip((0, 2), odd):
                sums[at, d] += np.einsum("ij,ij->", g, tau)
            tau *= tau
            sums[1, d] += np.einsum("ij,ij->", even, tau)
    slots = [sums[0], row[1 + p:1 + 2 * p] * sums[1]] + ([sums[2]] if kind == "slsm" else [])
    return np.concatenate([[w_slot], row[0] * np.concatenate(slots)])


def baseline_partials(tau, b: BaselineKernelParams):
    """Value and partials of the baseline kernel w.r.t. its parameters.

    Returns (value, d_theta_f, d_ell[, d_alpha]).
    """
    shape, r2, u = _baseline_shape(tau, b)
    val = b.theta_f * shape
    if b.variant == "se":
        return val, shape, val * r2 / b.ell**3
    d_ell = b.theta_f * u ** (-b.rq_alpha - 1.0) * r2 / b.ell**3
    d_alpha = val * (-np.log(u) + r2 / (2.0 * b.rq_alpha * b.ell**2 * u))
    return val, shape, d_ell, d_alpha


def value_and_partials(tau, kind: str, params):
    """``(K, G)`` at a grid's n lags ``tau``: the kernel and the (slots, n)
    matrix of every dK/dtheta in the optimizer's natural slot order without
    the noise slot: per component row w, mu, sigma and, for ``slsm`` only,
    gamma; theta_f, ell(, rq_alpha) for baselines.  A P = 1 mixture's
    (Q, 1 + k) rows go through one body call; K adds w_q val_q in component
    order to 0, so it is :func:`kernel_value`'s sum of the same values."""
    if isinstance(params, BaselineKernelParams):
        val, *partials = baseline_partials(tau, params)
        return val, np.array(partials)
    w, *cols = params.T[:, :, None]  # (Q, 1) columns
    body = sm_component_partials if kind == "sm" else slsm_component_partials
    val, *parts = body(tau, *cols)
    K = sum(w * val)
    G = np.stack([val] + [w * part for part in parts[:len(cols)]], axis=1)
    return K, G.reshape(-1, val.shape[1])


def training_covariance(x, kind: str, params, grid):
    """``(K, slots)`` at the training points ``x`` on their :class:`Grid`
    ``grid`` or None, for a mixture's parameter rows or a baseline's
    ``params``: K, for a mixture off a grid only its lower triangle (all
    the Cholesky reads), and ``slots(M)``, every natural slot
    0.5 tr(M dK/dtheta) but the noise's for M symmetric.  A mixture off a
    grid reads only M's lower triangle (:func:`multi_component_partials`),
    so it can take the one ``dpotri`` writes over the factor; on a grid M
    is summed over the lag index and a baseline's slots sum M o dK, both
    over the whole M.  ``slots`` holds the grid, whose index it builds, or
    the lags; a caller that keeps only K frees them."""
    if grid is not None:  # the n lags |h| k, M folded into its sums over the index |i - j|
        k, G = value_and_partials(np.abs(grid.lags()), kind, params)
        # row i is k_{|i - j|}: the window at n - 1 - i of k_{n-1} .. k_1, k_0 .. k_{n-1}
        K = np.array(_windows(np.concatenate([k[:0:-1], k]), grid.n)[::-1], order="C")
        return K, lambda M: list(_half_dots(G, np.bincount(grid.index.ravel(), M.ravel())))
    if kind in MIXTURE_KERNELS:  # row blocks, then one call per component
        K = multi_gram(x, x, kind, params, lower=True)
        return K, lambda M: [s for r in params for s in multi_component_partials(x, M, r, kind)]
    tau = lags(x, x)  # a baseline's partials are formed only in slots
    return kernel_value(tau, kind, params), \
        lambda M: [0.5 * float(np.sum(M * dk)) for dk in baseline_partials(tau, params)[1:]]


def _half_dots(G, S):  # 0.5 g @ S per row g of G, bit for bit (a GEMV G @ S is not)
    return 0.5 * np.matmul(G[:, None, :], S[:, None])[:, 0, 0]
