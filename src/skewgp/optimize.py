"""L-BFGS minimization with parameter transforms.

The hyper-parameter surface is optimized in transformed coordinates: the
vector is the flattened parameter rows of ``SlsmParams.rows`` (a baseline's
one row), then the noise variance.  Every positivity-constrained parameter
(weights, frequencies, scales, noise variance) goes through a natural log,
skew parameters stay on the identity map.  Scales are standard deviations in
every input dimension, so the scale coordinate is log sigma_d whatever the
number of dimensions P.  Frequencies intended at zero are represented by 1e-8
so a single log transform covers every frequency.

The optimizer is L-BFGS with a memory of 10 curvature pairs; a run stops
once the largest gradient entry falls below 1e-6 or its iteration budget is
spent.  The line search is a bisection weak-Wolfe search (sufficient
decrease with c1 = 1e-4, curvature with c2 = 0.9, at most 50 trial steps)
that first tries t = 1.  Without curvature pairs (the first iteration, and
after a reset) the direction is -g / max(1, |g|_inf) (Nocedal & Wright 2006,
section 7.2).  A non-descent direction resets the pairs, and so does a failed
search from a quasi-Newton direction, retried once from steepest descent; a
failed steepest-descent search ends the run with the best point so far.
A failed evaluation, one that raises ``NumericalError`` or ``DataError`` or
returns a non-finite f, reads as +inf in :func:`minimize`, so the search
backs off from it; at a run's starting point it raises ``NumericalError``.
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
    """How a flat transformed vector maps back to kernel params: its
    (Q, 1 + k P) rows, then the noise variance, logged where ``log_mask``."""

    kind: str
    q: int
    p: int
    log_mask: tuple[bool, ...]

    def natural(self, x: np.ndarray):
        """``(rows, vals)``: the natural values ``vals`` of the transformed
        vector ``x`` and their (Q, 1 + k P) view ``rows``, one per component:
        w, then P each of mu, sigma and, for ``slsm``, gamma (a baseline's
        one row: theta_f, ell(, rq_alpha)); the noise variance is vals[-1]."""
        vals = np.exp(x, out=np.array(x, dtype=float), where=self.log_mask)  # skews as they are
        return vals[:-1].reshape(self.q, -1), vals


def transform(params, kind: str):
    """``(x, layout)``: the unconstrained optimization vector ``x`` of kernel
    parameters, the flattened rows of :meth:`ParamLayout.natural` (a
    mixture's :meth:`~skewgp.kernels.SlsmParams.rows` with mu floored at
    ``MU_FLOOR``), then the noise variance; every slot but slsm's gamma
    columns is logged."""
    if isinstance(params, BaselineKernelParams):
        p, rows = 1, np.array([[params.theta_f, params.ell, params.rq_alpha]])
        rows = rows[:, :3 if params.variant == "rq" else 2]
    else:
        p, rows = params.p, params.rows(kind)
        rows[:, 1:1 + p] = np.maximum(rows[:, 1:1 + p], MU_FLOOR)
    logged = np.ones(rows.shape, dtype=bool)
    logged[:, 1 + 2 * p:] = False
    vals, log_mask = np.append(rows, params.noise_var), np.append(logged, True)
    bad = np.flatnonzero(log_mask & (vals <= 0.0))
    if bad.size:
        where = ("noise variance" if bad[0] == rows.size
                 else "component {} column {}".format(*divmod(bad[0], rows.shape[1])))
        raise DataError(f"{where} must be > 0 for the log transform, got {vals[bad[0]]}")
    x = vals.copy()
    x[log_mask] = np.log(vals[log_mask])
    return x, ParamLayout(kind, rows.shape[0], p, tuple(log_mask.tolist()))


def untransform(x: np.ndarray, layout: ParamLayout):
    """Inverse of :func:`transform`: the checked parameters of the rows of
    :meth:`ParamLayout.natural`."""
    rows, vals = layout.natural(x)
    if layout.kind in ("se", "rq"):
        return BaselineKernelParams(layout.kind, *rows[0], noise_var=vals[-1])
    p = layout.p
    return SlsmParams(tuple(SlsmComponent(r[0], r[1:1 + p], r[1 + p:1 + 2 * p],
                                          r[1 + 2 * p:] if layout.kind == "slsm" else 0.0)
                            for r in rows), noise_var=vals[-1])


# ---------------------------------------------------------------------------
# L-BFGS
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    iteration: int
    f: float
    grad_norm: float
    step_len: float
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
    """Bisection weak-Wolfe line search.  Returns ``(t, f, g, curvature_ok,
    n_evals)``; every accepted step satisfies the Armijo condition, which a
    failed evaluation's +inf fails, and t = 0 when the search fails."""
    dg0 = float(g0 @ d)
    lo, hi = 0.0, np.inf
    t = 1.0
    best = None
    n_evals = 0
    for _ in range(MAX_BISECT):
        f, g = fun(x + t * d)
        n_evals += 1
        if f > f0 + WOLFE_C1 * t * dg0:
            hi = t
        elif float(g @ d) < WOLFE_C2 * dg0:
            lo = t
            if best is None or f < best[1]:
                best = (t, f, g)
        else:
            return t, f, g, True, n_evals
        t = 0.5 * (lo + hi) if np.isfinite(hi) else 2.0 * lo
    if best is not None:
        # decrease achieved but curvature never satisfied: accept anyway
        return best[0], best[1], best[2], False, n_evals
    return 0.0, f0, g0, False, n_evals


def _lbfgs_direction(g, s_hist, y_hist):
    """The two-loop L-BFGS direction; with no pairs, -g / max(1, |g|_inf)."""
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
    else:
        q /= max(1.0, float(np.max(np.abs(g))))
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
    for it in range(1, cfg.max_iters + 1):
        if float(np.max(np.abs(g))) < GRAD_TOL:
            break
        d = _lbfgs_direction(g, s_hist, y_hist)
        if not np.all(np.isfinite(d)) or float(d @ g) >= 0.0:
            s_hist.clear()
            y_hist.clear()
            d = _lbfgs_direction(g, s_hist, y_hist)
        t, f_new, g_new, curvature_ok, _ = _weak_wolfe(fun, x, f, g, d)
        if t == 0.0 and s_hist:
            s_hist.clear()
            y_hist.clear()
            d = _lbfgs_direction(g, s_hist, y_hist)
            t, f_new, g_new, curvature_ok, _ = _weak_wolfe(fun, x, f, g, d)
        if t == 0.0:
            break
        x_new = x + t * d
        res.trace.append(TraceStep(it, float(f_new), float(np.max(np.abs(g_new))),
                                   float(t * np.linalg.norm(d)), curvature_ok))
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
    res.converged = float(np.max(np.abs(g))) < GRAD_TOL
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
        try:
            f, g = fun(x)
        except (NumericalError, DataError):   # a failed evaluation reads as +inf
            return np.inf, np.zeros_like(x)
        return (f, g) if np.isfinite(f) else (np.inf, np.zeros_like(x))

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
