"""L-BFGS minimization with parameter transforms.

The hyper-parameter surface is optimized in transformed coordinates: every
positivity-constrained parameter (weights, frequencies, scales, noise
variance) goes through a natural log, skew parameters stay on the identity
map.  Scales are standard deviations in every input dimension, so the scale
coordinate is log sigma_d whatever the number of dimensions P.  Frequencies
intended at zero are represented by 1e-8 so a single log transform covers
every slot.

The optimizer is L-BFGS with a memory of 10 curvature pairs; a run stops
once the largest gradient entry falls below 1e-6 or its iteration budget is
spent.  The line search is a bisection weak-Wolfe search (sufficient
decrease with c1 = 1e-4, curvature with c2 = 0.9, at most 50 trial steps).
On a line-search failure the optimizer falls back to one steepest-descent
step and resumes; a second failure terminates with the best point so far.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError
from .kernels import BaselineKernelParams, SlsmComponent, SlsmParams

MU_FLOOR = 1e-8
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
MAX_BISECT = 50
LBFGS_MEMORY = 10
GRAD_TOL = 1e-6


@dataclass(frozen=True)
class OptConfig:
    max_iters: int = 100
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1 or self.restarts < 1:
            raise DataError("max_iters and restarts must both be >= 1")


# ---------------------------------------------------------------------------
# parameter transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamLayout:
    """Describes how a flat transformed vector maps back to kernel params."""

    kind: str
    q: int
    p: int
    log_mask: tuple[bool, ...]
    gamma_mask: tuple[bool, ...]
    names: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.log_mask)


@dataclass(frozen=True)
class TransformedParams:
    x: np.ndarray
    layout: ParamLayout


def _log_slot(value: float, name: str) -> float:
    if value <= 0.0:
        raise DataError(f"{name} must be > 0 for the log transform, got {value}")
    return float(np.log(value))


def transform(params, kind: str) -> TransformedParams:
    """Map kernel parameters to the unconstrained optimization vector."""
    x: list[float] = []
    logm: list[bool] = []
    gamm: list[bool] = []
    names: list[str] = []

    def push(value, name, log=True, gamma=False):
        x.append(_log_slot(value, name) if log else float(value))
        logm.append(log)
        gamm.append(gamma)
        names.append(name)

    if isinstance(params, BaselineKernelParams):
        push(params.theta_f, "theta_f")
        push(params.ell, "ell")
        if params.variant == "rq":
            push(params.rq_alpha, "rq_alpha")
        push(params.noise_var, "noise_var")
        layout = ParamLayout(kind, 1, 1, tuple(logm), tuple(gamm), tuple(names))
        return TransformedParams(np.array(x), layout)

    for i, c in enumerate(params.components):
        push(c.w, f"w[{i}]")
        dims = [f"{i}"] if c.p == 1 else [f"{i},{d}" for d in range(c.p)]
        for at, m in zip(dims, c.mu):
            push(max(m, MU_FLOOR), f"mu[{at}]")
        for at, s in zip(dims, c.sigma):
            push(s, f"sigma[{at}]")
        if kind == "slsm":
            for at, g in zip(dims, c.gamma):
                push(g, f"gamma[{at}]", log=False, gamma=True)
    push(params.noise_var, "noise_var")
    layout = ParamLayout(kind, params.q, params.p, tuple(logm), tuple(gamm), tuple(names))
    return TransformedParams(np.array(x), layout)


def untransform(tp: TransformedParams):
    """Inverse of :func:`transform`."""
    lay = tp.layout
    vals = np.where(lay.log_mask, np.exp(tp.x), tp.x)
    kind = lay.kind
    i = 0
    if kind in ("se", "rq"):
        theta_f = vals[i]; i += 1
        ell = vals[i]; i += 1
        alpha = 1.0
        if kind == "rq":
            alpha = vals[i]; i += 1
        return BaselineKernelParams(kind, theta_f, ell, alpha, noise_var=vals[i])
    p = lay.p
    comps = []
    for _ in range(lay.q):
        w = vals[i]; i += 1
        mu = vals[i:i + p]; i += p
        sigma = vals[i:i + p]; i += p
        gamma = 0.0
        if kind == "slsm":
            gamma = vals[i:i + p]; i += p
        comps.append(SlsmComponent(w, mu, sigma, gamma))
    return SlsmParams(tuple(comps), noise_var=vals[i])


# ---------------------------------------------------------------------------
# L-BFGS
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    iteration: int
    f: float
    grad_norm: float
    step_len: float
    armijo_ok: bool = True
    curvature_ok: bool = True


@dataclass
class OptResult:
    x: np.ndarray
    f: float
    trace: list[TraceStep] = field(default_factory=list)
    converged: bool = False
    n_evals: int = 0


def trace_to_csv(trace) -> str:
    buf = io.StringIO()
    buf.write("iter,f,grad_norm,step_len\n")
    for t in trace:
        buf.write(f"{t.iteration},{t.f!r},{t.grad_norm!r},{t.step_len!r}\n")
    return buf.getvalue()


def _weak_wolfe(fun, x, f0, g0, d):
    """Bisection weak-Wolfe line search.  Returns (t, f, g, ok, n_evals)."""
    dg0 = float(g0 @ d)
    lo, hi = 0.0, np.inf
    t = 1.0
    best = None
    n_evals = 0
    for _ in range(MAX_BISECT):
        f, g = fun(x + t * d)
        n_evals += 1
        if not np.isfinite(f):
            hi = t
        elif f > f0 + WOLFE_C1 * t * dg0:
            hi = t
        elif float(g @ d) < WOLFE_C2 * dg0:
            lo = t
            if best is None or f < best[1]:
                best = (t, f, g)
        else:
            return t, f, g, True, n_evals
        t = 0.5 * (lo + hi) if np.isfinite(hi) else 2.0 * lo
        if t <= 0.0 or (np.isfinite(hi) and hi - lo < 1e-16):
            break
    if best is not None:
        # decrease achieved but curvature never satisfied: accept anyway
        return best[0], best[1], best[2], True, n_evals
    return 0.0, f0, g0, False, n_evals


def _lbfgs_direction(g, s_hist, y_hist):
    q = -g.copy()
    alphas = []
    for s, y in reversed(list(zip(s_hist, y_hist))):
        rho = 1.0 / float(y @ s)
        a = rho * float(s @ q)
        alphas.append((a, rho, s, y))
        q -= a * y
    if y_hist:
        s, y = s_hist[-1], y_hist[-1]
        q *= float(s @ y) / float(y @ y)
    for a, rho, s, y in reversed(alphas):
        b = rho * float(y @ q)
        q += (a - b) * s
    return q


def _minimize_single(fun, x0, cfg: OptConfig) -> OptResult:
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun(x)
    if not np.isfinite(f):
        raise NumericalError("objective is non-finite at the starting point")
    res = OptResult(x=x.copy(), f=float(f))
    res.trace.append(TraceStep(0, float(f), float(np.max(np.abs(g))), 0.0))
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    fallback_used = False
    for it in range(1, cfg.max_iters + 1):
        gnorm = float(np.max(np.abs(g)))
        if gnorm < GRAD_TOL:
            res.converged = True
            break
        d = _lbfgs_direction(g, s_hist, y_hist)
        if not np.all(np.isfinite(d)) or float(d @ g) >= 0.0:
            d = -g
            s_hist.clear()
            y_hist.clear()
        t, f_new, g_new, ok, _ = _weak_wolfe(fun, x, f, g, d)
        if not ok:
            if fallback_used:
                break
            fallback_used = True
            s_hist.clear()
            y_hist.clear()
            d = -g / max(1.0, float(np.max(np.abs(g))))
            t, f_new, g_new, ok, _ = _weak_wolfe(fun, x, f, g, d)
            if not ok:
                break
        else:
            fallback_used = False
        x_new = x + t * d
        dg0 = float(g @ d)
        dg1 = float(g_new @ d)
        res.trace.append(
            TraceStep(
                it,
                float(f_new),
                float(np.max(np.abs(g_new))),
                float(t * np.linalg.norm(d)),
                armijo_ok=f_new <= f + WOLFE_C1 * t * dg0 + 1e-12 * abs(f),
                curvature_ok=dg1 >= WOLFE_C2 * dg0,
            )
        )
        s = x_new - x
        yv = g_new - g
        if float(s @ yv) > 1e-10 * np.linalg.norm(s) * np.linalg.norm(yv):
            s_hist.append(s)
            y_hist.append(yv)
            if len(s_hist) > LBFGS_MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
        x, f, g = x_new, float(f_new), g_new
        if f < res.f:
            res.x, res.f = x.copy(), f
    return res


def _perturb(x0, gamma_mask, rng):
    x = x0 + rng.normal(0.0, 0.1, size=x0.shape)
    if gamma_mask is not None:
        gm = np.asarray(gamma_mask, dtype=bool)
        x[gm] = x0[gm] + rng.uniform(-0.5, 0.5, size=int(gm.sum()))
    return x


def minimize(fun, x0, cfg: OptConfig, gamma_mask=None) -> OptResult:
    """Minimize ``fun`` (returning ``(f, grad)``) from ``x0``.

    With ``cfg.restarts > 1``, additional runs start from perturbed copies of
    ``x0`` (Gaussian in log slots, uniform in skew slots) and the best final
    value wins; ties keep the earliest run.  ``n_evals`` of the result counts
    every call of ``fun`` over all restarts, failed ones included.
    """
    x0 = np.asarray(x0, dtype=float)
    rng = np.random.default_rng(cfg.seed)
    n_evals = 0

    def counted(x):
        nonlocal n_evals
        n_evals += 1
        return fun(x)

    best: OptResult | None = None
    for r in range(cfg.restarts):
        start = x0 if r == 0 else _perturb(x0, gamma_mask, rng)
        try:
            res = _minimize_single(counted, start, cfg)
        except NumericalError:
            if r == 0:
                raise
            continue
        if best is None or res.f < best.f:
            best = res
    assert best is not None
    best.n_evals = n_evals
    return best
