"""Shared oracles and helpers for the test suite.

Oracles are deliberately independent of the library code: quadrature for the
spectral duality, central finite differences for gradients, explicit inverse
and log-determinant for the marginal likelihood, and direct arithmetic for
metrics.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from scipy.integrate import quad

from skewgp.gp import Dataset
from skewgp.kernels import SlsmComponent, SlsmParams, spectral_density

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


def _direct_gram(xa, xb, kind: str, params) -> np.ndarray:
    """The kernel formula at every lag of the (n, P) point sets, without the
    lag tables ``kn.gram`` may gather from."""
    import skewgp.kernels as kn

    return np.asarray(kn.kernel_value(kn.lags(xa, xb, kind, params), kind, params))


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
    import skewgp.kernels as kn

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
