"""Independent dense oracle for the fitted models.

The kernel is evaluated from the closed form written out here, not through
``skewgp.kernels``, and the algebra uses an explicit inverse plus ``slogdet``
rather than the program's Cholesky path.  Parameters are read back from the
model JSON the job wrote, so the artifact itself is checked.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-8


def slsm_gram(xa: np.ndarray, xb: np.ndarray, components: list) -> np.ndarray:
    """Skewed-Laplace spectral-mixture covariance between two point sets.

    Univariate: k(tau) = sum_i w_i (C cos(mu tau) - gamma tau sin(mu tau))
    / (C^2 + gamma^2 tau^2), with C = 1 + sigma^2 tau^2 / 2.  Multivariate
    components use the vector lag: phase tau.mu, skew tau.gamma and
    C = 1 + sum_d sigma2_d tau_d^2 / 2.
    """
    tau = xa[:, None, :] - xb[None, :, :]
    out = np.zeros(tau.shape[:2])
    for c in components:
        if isinstance(c["mu"], list):
            mu, s2, ga = (np.asarray(c[k], dtype=float) for k in ("mu", "sigma2", "gamma"))
        else:
            mu, s2, ga = (np.array([c["mu"]]), np.array([c["sigma"] ** 2]),
                          np.array([c["gamma"]]))
        phase = tau @ mu
        skew = tau @ ga
        cc = 1.0 + 0.5 * (tau * tau) @ s2
        out += c["w"] * (cc * np.cos(phase) - skew * np.sin(phase)) / (cc * cc + skew * skew)
    return out


class DenseGP:
    """Exact GP algebra on normalized data at fixed parameters."""

    def __init__(self, x: np.ndarray, y: np.ndarray, doc: dict, jitter: float):
        self.x, self.y, self.doc = x, y, doc
        self.prior = sum(c["w"] for c in doc["components"])
        k = slsm_gram(x, x, doc["components"])
        k += (doc["noise_var"] + jitter) * np.eye(x.shape[0])
        self.kinv = np.linalg.inv(k)
        sign, self.logdet = np.linalg.slogdet(k)
        if sign <= 0:
            raise ArithmeticError("oracle covariance is not positive definite")

    def nlml(self) -> float:
        n = self.y.shape[0]
        return float(0.5 * self.y @ self.kinv @ self.y + 0.5 * self.logdet
                     + 0.5 * n * math.log(2.0 * math.pi))

    def alpha(self) -> np.ndarray:
        return self.kinv @ self.y

    def predict_obs(self, xq: np.ndarray):
        """Mean and observation-noise variance at normalized query points."""
        ks = slsm_gram(xq, self.x, self.doc["components"])
        mean = ks @ (self.kinv @ self.y)
        var = self.prior - np.sum((ks @ self.kinv) * ks, axis=1) + self.doc["noise_var"]
        return mean, var


def normalize(doc: dict, x: np.ndarray, y: np.ndarray | None = None):
    nz = doc["normalization"]
    xn = (x - np.array(nz["x_means"])) / np.array(nz["x_stds"])
    if y is None:
        return xn
    return xn, (y - nz["y_mean"]) / nz["y_std"]


def _rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def check_gp(doc: dict, x_train, y_train, xq, pred_mean, pred_var, nlml_program) -> dict:
    """Errors of a full GP's NLML and observation-noise predictions."""
    nz = doc["normalization"]
    xn, yn = normalize(doc, x_train, y_train)
    gp = DenseGP(xn, yn, doc, doc["jitter_used"])
    mean, var = gp.predict_obs(normalize(doc, xq))
    return {
        "nlml": _rel_err(nlml_program, gp.nlml()),
        "mean": _rel_err((pred_mean - nz["y_mean"]) / nz["y_std"], mean),
        "var": _rel_err(pred_var / nz["y_std"] ** 2, np.maximum(var, 0.0)),
    }


def check_rbcm(doc: dict, x_train, y_train, xq, pred_mean, pred_var, experts) -> dict:
    """Errors of each expert's factors and of the entropy-weighted rBCM
    aggregation.  ``experts`` holds the program's (nlml, alpha) per expert."""
    nz = doc["normalization"]
    xn, yn = normalize(doc, x_train, y_train)
    xqn = normalize(doc, xq)
    noise = doc["noise_var"]
    log_prior = math.log(sum(c["w"] for c in doc["components"]) + noise)
    errs = {"nlml": 0.0, "alpha": 0.0}
    means, log_vars = [], []
    for rec, (nlml_program, alpha_program) in zip(doc["experts"], experts):
        idx = np.asarray(rec["indices"])
        gp = DenseGP(xn[idx], yn[idx], doc, rec["jitter_used"])
        errs["nlml"] = max(errs["nlml"], _rel_err(nlml_program, gp.nlml()))
        errs["alpha"] = max(errs["alpha"], _rel_err(alpha_program, gp.alpha()))
        m, v = gp.predict_obs(xqn)
        means.append(m)
        log_vars.append(np.log(np.clip(v, 1e-300, None)))
    means, log_vars = np.stack(means), np.stack(log_vars)
    betas = np.maximum(0.5 * (log_prior - log_vars), 0.0)
    prec = (np.sum(betas * np.exp(-log_vars), axis=0)
            + (1.0 - np.sum(betas, axis=0)) * math.exp(-log_prior))
    var = 1.0 / prec
    mean = var * np.sum(betas * np.exp(-log_vars) * means, axis=0)
    errs["mean"] = _rel_err((pred_mean - nz["y_mean"]) / nz["y_std"], mean)
    errs["var"] = _rel_err(pred_var / nz["y_std"] ** 2, var)
    return errs
