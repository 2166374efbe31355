"""Shared oracles and helpers for the test suite.

Oracles are deliberately independent of the library code: quadrature for the
spectral duality, central finite differences for gradients, explicit inverse
and log-determinant for the marginal likelihood, and direct arithmetic for
metrics.
"""

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from scipy.integrate import quad
from scipy.linalg import cho_solve

import skewgp.gp as gp
import skewgp.kernels as kn
import skewgp.toeplitz as tz
from skewgp.gp import Dataset
from skewgp.kernels import SlsmComponent, SlsmParams, spectral_density
from skewgp.optimize import transform, untransform

DATA_DIR = Path(__file__).parent / "data"
AIRLINE_CSV = DATA_DIR / "airline.csv"

# property tests draw the same bounded set of examples on every run
settings.register_profile("skewgp", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("skewgp")


# ---------------------------------------------------------------------------
# quadrature oracle: kernel value as the Fourier transform of the density
# ---------------------------------------------------------------------------


def quad_kernel_oracle(tau: float, c: SlsmComponent) -> float:
    """k(tau) = integral of k_hat(s) e^{i s tau} ds, via adaptive quadrature.

    The symmetrized density is even, so the integral reduces to
    2 * integral_0^inf k_hat(s) cos(s tau) ds.  The integration range
    +-(|mu| + 40 max(sigma, |gamma|)) bounds the truncation error far below
    the 1e-6 comparison tolerance.
    """
    mu, sigma, gamma = c.scalars()
    hi = abs(mu) + 40.0 * max(sigma, abs(gamma), 1.0)
    val, _ = quad(
        lambda s: spectral_density(s, c) * math.cos(s * tau),
        0.0, hi, points=[mu], limit=400, epsabs=1e-9, epsrel=1e-9,
    )
    return 2.0 * val


def quad_sm_oracle(tau: float, mu: float, sigma: float) -> float:
    """Same duality oracle for the symmetrized Gaussian density."""
    def dens(s):
        var = sigma**2
        return 0.5 * (
            math.exp(-0.5 * (s - mu) ** 2 / var) + math.exp(-0.5 * (s + mu) ** 2 / var)
        ) / math.sqrt(2.0 * math.pi * var)

    hi = abs(mu) + 40.0 * max(sigma, 1.0)
    val, _ = quad(lambda s: dens(s) * math.cos(s * tau), 0.0, hi,
                  points=[mu], limit=400, epsabs=1e-9, epsrel=1e-9)
    return 2.0 * val


def identity_normalization(p: int = 1) -> gp.Normalization:
    """The normalization that leaves targets and P input columns as given."""
    return gp.Normalization(0.0, 1.0, (0.0,) * p, (1.0,) * p)


def traced_peak(run) -> int:
    """The peak of the memory ``tracemalloc`` traces while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def central_fd(f, x0: float, h: float | None = None) -> float:
    if h is None:
        h = 1e-6 * max(1.0, abs(x0))
    return (f(x0 + h) - f(x0 - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# dense-algebra NLML / prediction oracles
# ---------------------------------------------------------------------------


def as_evaluated(params, kind: str):
    """``params`` as kernel ``kind`` evaluates them: ``lkp`` is ``slsm`` with
    every skew zeroed."""
    if kind != "lkp":
        return params
    return params.with_components(replace(c, gamma=0.0) for c in params.components)


# The vector-lag oracle of a P > 1 mixture: the closed form at the (n, m, P)
# lag array, independent of the per-point projections the library uses.
# Agreement bounds, about 100 times the measured error: K entries within
# P_K_TOL of the prior variance, the NLML within P_F_TOL and the gradient
# within P_G_TOL of its largest slot, relative.
P_K_TOL, P_F_TOL, P_G_TOL = 1e-13, 1e-12, 1e-10


def vector_lags(xa, xb) -> np.ndarray:
    """The (n, m, P) lag vectors xa_i - xb_j."""
    return xa[:, None, :] - xb[None, :, :]


def _vector_component(tau, c: SlsmComponent, kind: str):
    """Value and (P, n, m) partial stacks of one P > 1 component at the
    vector lags ``tau``: ``(value, d_mu, d_sigma[, d_gamma])``."""
    phase, skew = tau @ np.asarray(c.mu), tau @ np.asarray(c.gamma)
    half_sq = 0.5 * (tau * tau) @ np.square(c.sigma)
    sq_sigma = (tau * tau) * np.asarray(c.sigma)
    cos_p, sin_p = np.cos(phase), np.sin(phase)
    if kind == "sm":
        env = np.exp(-half_sq)
        val = cos_p * env
        blocks = (-(sin_p * env)[..., None] * tau, -val[..., None] * sq_sigma)
    else:
        cc = 1.0 + half_sq
        den = cc * cc + skew * skew
        val = (cc * cos_p - skew * sin_p) / den
        blocks = (((-cc * sin_p - skew * cos_p) / den)[..., None] * tau,
                  ((cos_p - 2.0 * cc * val) / den)[..., None] * sq_sigma,
                  ((-sin_p - 2.0 * skew * val) / den)[..., None] * tau)
    return (val,) + tuple(np.moveaxis(b, -1, 0) for b in blocks)


def vector_kernel(tau, kind: str, params) -> np.ndarray:
    """A P > 1 mixture at the vector lags ``tau``."""
    return sum(c.w * _vector_component(tau, c, kind)[0]
               for c in as_evaluated(params, kind).components)


def vector_partials(tau, kind: str, params):
    """dK/dtheta of a P > 1 mixture at the vector lags ``tau`` in the
    optimizer's natural slot order: per component w, then P slots each of
    mu, sigma and, for ``slsm`` only, gamma."""
    for c in as_evaluated(params, kind).components:
        val, *blocks = _vector_component(tau, c, kind)
        yield val
        for block in blocks[:3 if kind == "slsm" else 2]:
            for part in block:
                yield c.w * part


# The full-array reference of a P > 1 mixture: every component's terms at
# all (n, m) pairs at once, from the same per-point projections and in the
# same order of operations as the library's row blocks, which must give
# its Gram matrix bit for bit.  The objective reads the gradient from
# whole-matrix row sums, with every component's terms held through the
# Cholesky.


def ref_multi_component(xa, xb, c: SlsmComponent, kind: str):
    """Unweighted P > 1 component at the lags xa_i - xb_j, (n, m), and the
    terms its partials reuse, both point sets centred on the mean of ``xb``."""
    xa, xb = xa - np.mean(xb, axis=0), xb - np.mean(xb, axis=0)
    a, b, ga, gb = (sum(x[:, d] * v[d] for d in range(c.p))
                    for v in (c.mu, c.gamma) for x in (xa, xb))
    cos_p = np.multiply.outer(np.cos(a), np.cos(b)) + np.multiply.outer(np.sin(a), np.sin(b))
    sin_p = np.multiply.outer(np.sin(a), np.cos(b)) - np.multiply.outer(np.cos(a), np.sin(b))
    scale = np.asarray(c.sigma) / math.sqrt(2.0)
    half_sq = sum(np.subtract.outer(xa[:, d] * scale[d], xb[:, d] * scale[d]) ** 2
                  for d in range(c.p))
    if kind == "sm":
        env = np.exp(-half_sq)
        return cos_p * env, (sin_p, env)
    skew = np.subtract.outer(ga, gb)
    cc = 1.0 + half_sq
    den = cc * cc + skew * skew
    return (cc * cos_p - skew * sin_p) / den, (cos_p, sin_p, skew, cc, den)


def ref_multi_gram(xa, xb, kind: str, params) -> np.ndarray:
    """The weighted component sum of :func:`ref_multi_component` values."""
    return sum(c.w * ref_multi_component(xa, xb, c, kind)[0]
               for c in as_evaluated(params, kind).components)


def ref_multi_partials(x, c: SlsmComponent, kind: str):
    """``(value, g_mu, g_sigma[, g_gamma])``, each (n, n), of a P > 1
    component at the training points: d/dmu_d = g_mu tau_d, d/dsigma_d =
    g_sigma sigma_d tau_d^2, d/dgamma_d = g_gamma tau_d (``slsm`` only)."""
    val, terms = ref_multi_component(x, x, c, kind)
    if kind == "sm":
        sin_p, env = terms
        return val, -sin_p * env, -val
    cos_p, sin_p, skew, cc, den = terms
    out = (val, -(cc * sin_p + skew * cos_p) / den, (cos_p - 2.0 * cc * val) / den)
    return out + ((-(sin_p + 2.0 * skew * val) / den,) if kind == "slsm" else ())


def ref_multi_dense_terms(data: Dataset, kind: str, params):
    """NLML and natural-coordinate gradient (noise slot last) of a P > 1
    mixture from the full K and whole-matrix row sums: with M symmetric, g
    odd and h even in tau and B = M o h, 0.5 sum M o g tau_d is
    x_d . rowsum(M o g) and 0.5 sum B tau_d^2 is x_d^2 . rowsum(B) - x_d^T B x_d."""
    X, comps = data.X, as_evaluated(params, kind).components
    factors = [ref_multi_partials(X, c, kind) for c in comps]
    K = sum(c.w * f[0] for c, f in zip(comps, factors))
    L, _ = gp.chol_with_jitter(K, params.noise_var)
    M = cho_solve((L, True), np.eye(data.n))
    alpha = cho_solve((L, True), data.y)
    M -= np.outer(alpha, alpha)
    grad = []
    for c, (val, g_mu, g_sigma, *g_gamma) in zip(comps, factors):
        B = M * g_sigma
        sigma = np.asarray(c.sigma) * ((X * X).T @ B.sum(axis=1)
                                       - np.einsum("id,id->d", X, B @ X))
        odd = [X.T @ np.einsum("ij,ij->i", M, g) for g in [g_mu] + g_gamma]
        grad += [0.5 * float(np.sum(M * val)),
                 *c.w * np.concatenate([odd[0], sigma] + odd[1:])]
    return gp.nlml_from_factor(L, alpha, data.y), grad + [0.5 * float(np.trace(M))]


# The scalar reference bodies of a P = 1 mixture: one component per call,
# its parameters as Python floats squared by ``float ** 2``, written apart
# from the library's one value expression per family.  The library's array
# bodies, which take all Q components at once, and ``kn.kernel_value``'s
# per-component sum must agree with them bit for bit.


def ref_slsm_partials(tau, c: SlsmComponent):
    """(value, d/dmu, d/dsigma, d/dgamma) of one unweighted P = 1 component."""
    tau = np.asarray(tau, dtype=float)
    mu, sigma, gamma = c.scalars()
    cos_p, sin_p = np.cos(mu * tau), np.sin(mu * tau)
    cc = 1.0 + 0.5 * sigma**2 * tau**2
    den = cc * cc + gamma**2 * tau**2
    val = (cc * cos_p - gamma * tau * sin_p) / den
    d_mu = (-cc * tau * sin_p - gamma * tau**2 * cos_p) / den
    d_sigma = sigma * tau**2 * (cos_p - 2.0 * cc * val) / den
    d_gamma = (-tau * sin_p - 2.0 * gamma * tau**2 * val) / den
    return val, d_mu, d_sigma, d_gamma


def ref_sm_partials(tau, c: SlsmComponent):
    """(value, d/dmu, d/dsigma) of one unweighted P = 1 Gaussian component."""
    tau = np.asarray(tau, dtype=float)
    mu, sigma, _ = c.scalars()
    env = np.exp(-0.5 * sigma**2 * tau**2)
    val = np.cos(mu * tau) * env
    d_mu = -tau * np.sin(mu * tau) * env
    d_sigma = -sigma * tau**2 * val
    return val, d_mu, d_sigma


# The baselines' reference, also written apart from the library's one shape
# body: the SE and RQ value and partials at the lags (distances for P > 1)
# of two point sets, in the library's order of operations, so that its
# values must agree with them bit for bit.


def ref_lags(xa, xb):
    """The (n, m) lags xa_i - xb_j of two (n, P) point sets for P = 1, the
    Euclidean distances, squares added in dimension order, for P > 1."""
    if xa.shape[1] == 1:
        return xa[:, None, 0] - xb[None, :, 0]
    return np.sqrt(sum((xa[:, None, d] - xb[None, :, d]) ** 2 for d in range(xa.shape[1])))


def ref_baseline_partials(tau, b):
    """(value, d/dtheta_f, d/dell[, d/dalpha]) of an SE or RQ baseline."""
    tau = np.asarray(tau, dtype=float)
    theta_f, ell, alpha = b.theta_f, b.ell, b.rq_alpha
    r2 = tau * tau
    if b.variant == "se":
        shape = np.exp(-r2 / (2.0 * ell**2))
        return theta_f * shape, shape, theta_f * shape * r2 / ell**3
    u = 1.0 + r2 / (2.0 * alpha * ell**2)
    val = theta_f * u ** (-alpha)
    return (val, u ** (-alpha), theta_f * u ** (-alpha - 1.0) * r2 / ell**3,
            val * (-np.log(u) + r2 / (2.0 * alpha * ell**2 * u)))


def ref_natural_partials(tau, kind: str, params):
    """Every dK/dtheta of a P = 1 mixture or a baseline at the lags ``tau``
    in the optimizer's natural slot order (noise slot excluded), one
    component at a time through the reference bodies."""
    if isinstance(params, kn.BaselineKernelParams):
        yield from ref_baseline_partials(tau, params)[1:]
        return
    body = ref_sm_partials if kind == "sm" else ref_slsm_partials
    for c in as_evaluated(params, kind).components:
        val, *parts = body(tau, c)
        yield val
        for part in parts[:3 if kind == "slsm" else 2]:
            yield c.w * part


def ref_value_and_partials(tau, kind: str, params):
    """K and the rows of :func:`ref_natural_partials` as one matrix, K summed
    from the weight slots in component order (theta_f times the shape for
    baselines)."""
    partials = np.array(list(ref_natural_partials(tau, kind, params)))
    if isinstance(params, kn.BaselineKernelParams):
        return params.theta_f * partials[0], partials
    w_slots = partials[::len(partials) // params.q]  # the unweighted components
    return sum(c.w * val for c, val in zip(params.components, w_slots)), partials


def direct_lags(xa, xb, kind: str):
    """The lags the direct oracles take: :func:`vector_lags` for a P > 1
    mixture, :func:`ref_lags` otherwise."""
    if xa.shape[1] > 1 and kind in kn.MIXTURE_KERNELS:
        return vector_lags(xa, xb)
    return ref_lags(xa, xb)


def direct_kernel(tau, kind: str, params):
    """The kernel at :func:`direct_lags` from the reference bodies, not the
    library's value expressions."""
    if not isinstance(params, SlsmParams):
        return ref_baseline_partials(tau, params)[0]
    if params.p > 1:
        return vector_kernel(tau, kind, params)
    return ref_value_and_partials(tau, kind, params)[0]


def direct_partials(tau, kind: str, params):
    """Every dK/dtheta at :func:`direct_lags`."""
    if isinstance(params, SlsmParams) and params.p > 1:
        return vector_partials(tau, kind, params)
    return ref_natural_partials(tau, kind, params)


def _direct_gram(xa, xb, kind: str, params) -> np.ndarray:
    """The kernel formula at every lag of the (n, P) point sets, without the
    lag tables or per-point projections ``kn.gram`` may use."""
    xa, xb = np.asarray(xa, dtype=float), np.asarray(xb, dtype=float)
    xa, xb = (x[:, None] if x.ndim == 1 else x for x in (xa, xb))
    return np.asarray(direct_kernel(direct_lags(xa, xb, kind), kind, params))


def dense_nlml(data: Dataset, params, kind: str) -> float:
    K = _direct_gram(data.X, data.X, kind, params) + params.noise_var * np.eye(data.n)
    Kinv = np.linalg.inv(K)
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return float(
        0.5 * data.y @ Kinv @ data.y + 0.5 * logdet
        + 0.5 * data.n * math.log(2.0 * math.pi)
    )


def dense_predict(data: Dataset, params, kind: str, Xstar,
                  observation_noise: bool = False):
    Xs = np.asarray(Xstar, dtype=float)
    if Xs.ndim == 1:
        Xs = Xs[:, None]
    K = _direct_gram(data.X, data.X, kind, params) + params.noise_var * np.eye(data.n)
    Kinv = np.linalg.inv(K)
    ks = _direct_gram(Xs, data.X, kind, params)
    mean = ks @ Kinv @ data.y
    var = kn.prior_variance(params) - np.sum((ks @ Kinv) * ks, axis=1)
    if observation_noise:
        var = var + params.noise_var
    return mean, var


def dense_value_and_grad(data, x, layout, tau=None):
    """NLML, gradient and jitter from a full lag array (:func:`direct_lags`
    unless ``tau`` is given): :func:`direct_kernel` for K,
    :func:`direct_partials` -> ``np.sum(M * dK)`` for the gradient."""
    params = untransform(x, layout)
    kind = layout.kind
    if tau is None:
        tau = direct_lags(data.X, data.X, kind)
    K = direct_kernel(tau, kind, params)
    L, jit = gp.chol_with_jitter(K, params.noise_var)
    alpha = cho_solve((L, True), data.y)
    f = gp.nlml_from_factor(L, alpha, data.y)
    M = cho_solve((L, True), np.eye(data.n)) - np.outer(alpha, alpha)
    g = [0.5 * float(np.sum(M * dK)) for dK in direct_partials(tau, kind, params)]
    g.append(0.5 * float(np.trace(M)))
    return f, np.array(g) * np.where(layout.log_mask, np.exp(x), 1.0), jit


def ref_levinson(r: np.ndarray):
    """The Levinson--Durbin recursion as a Python loop over k (Durbin 1960):
    the :class:`~skewgp.toeplitz.Factor` of the symmetric Toeplitz matrix
    with first column ``r``, x = T^-1 e_1 and log|T| from the
    prediction-error variances, or None when one is not positive."""
    n = r.size
    r_rev = r[::-1].copy()
    a = np.zeros(n)
    a[0] = 1.0
    errs = np.empty(n)
    err = errs[0] = r[0]
    if not err > 0.0:
        return None
    for k in range(1, n):
        lam = -(r[k] + a[1:k] @ r_rev[n - k:n - 1]) / err
        a[1:k] += lam * a[k - 1:0:-1]
        a[k] = lam
        err = errs[k] = err * (1.0 - lam * lam)
        if not err > 0.0:
            return None
    return tz.Factor(r, a / err, float(np.sum(np.log(errs))))


def _rows(params, kind):
    return params.rows(kind) if kind in kn.MIXTURE_KERNELS else params


def training_table(X, kind, params):
    """``(values, index)`` with ``values[index]`` the (n, n) lags at which
    :func:`~skewgp.kernels.training_covariance` evaluates the points ``X``:
    the values it hands the kernel (recorded) and, on a Grid, the Grid's
    index |i - j| (None off a grid, where a baseline's values are the lags
    themselves).  None for a mixture off a grid, evaluated from the points."""
    x = np.asarray(X, dtype=float).reshape(len(X), -1)
    grid, seen = kn.Grid.of(x), []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("value_and_partials", "kernel_value"):
            run = getattr(kn, name)
            mp.setattr(kn, name, lambda tau, *args, run=run: seen.append(tau) or run(tau, *args))
        kn.training_covariance(x, kind, _rows(params, kind), grid)
    if not seen:
        return None
    return seen[0], None if grid is None else grid.index


def assert_near_dense(data, params, kind, parts=None):
    """The objective of ``parts`` (``[data]``) on the objective path against
    the vector-lag oracle: NLML within P_F_TOL, gradient within P_G_TOL of
    its largest slot.  The final factors see the same K as the objective."""
    x, layout = transform(params, kind)
    parts = parts or [data]
    refs = [dense_value_and_grad(part, x, layout) for part in parts]
    f_ref, g_ref = sum(r[0] for r in refs), sum(r[1] for r in refs)
    f, g = 0.0, 0.0
    for members, grid in gp.objective_groups(parts):
        f_group, g_group = gp.nlml_value_and_grad(members, x, layout, grid)
        f, g = f + f_group, g + g_group
    assert abs(f - f_ref) <= P_F_TOL * abs(f_ref)
    assert np.max(np.abs(g - g_ref)) <= P_G_TOL * np.max(np.abs(g_ref))
    if len(parts) == 1:
        assert gp.nlml(data, untransform(x, layout), kind) == f
        assert gp.factorize(data, kind, untransform(x, layout))[1] == refs[0][2]


# ---------------------------------------------------------------------------
# random parameter generators
# ---------------------------------------------------------------------------


def random_component(rng: np.random.Generator) -> SlsmComponent:
    return SlsmComponent(
        w=float(rng.uniform(0.1, 3.0)),
        mu=float(rng.uniform(0.0, 3.0)),
        sigma=float(rng.uniform(0.1, 2.0)),
        gamma=float(rng.uniform(-1.5, 1.5)),
    )


def random_params(rng: np.random.Generator, q: int = 3,
                  noise: float | None = None) -> SlsmParams:
    comps = tuple(random_component(rng) for _ in range(q))
    nv = float(rng.uniform(0.01, 0.5)) if noise is None else noise
    return SlsmParams(comps, noise_var=nv)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
