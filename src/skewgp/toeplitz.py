"""Symmetric Toeplitz algebra for the NLML of uniformly sampled series.

On a :class:`~skewgp.kernels.Grid` of n points spaced h apart, a
stationary covariance K + s2 I is the symmetric Toeplitz matrix T whose
first column is r_j = k(h j) (+ s2 at j = 0), at the grid lags h j
(:meth:`~skewgp.kernels.Grid.lags`).  No n x n matrix is formed:

* :func:`levinson` runs scipy's compiled Levinson recursion, O(n^2), on
  the Yule--Walker system T_{n-1} phi = (r_1..r_{n-1}) (Durbin 1960).  Its
  reflection coefficients are the partial autocorrelations lam_k, so the
  prediction-error variances are E_0 = r_0, E_k = E_{k-1} (1 - lam_k^2).
  Its :class:`Factor` holds x = T^-1 e_1 = (1, -phi) / E_{n-1}, the first
  column of the inverse, and log|T| = sum_k log E_k.  It fails (None) when
  some E_k <= 0, i.e. when T is not numerically positive definite.
* The Gohberg--Semencul formula writes T^-1 = (A A^T - B B^T) / x_0, with A
  and B lower-triangular Toeplitz with first columns x and
  (0, x_{n-1}, ..., x_1).  :meth:`Factor.solve` applies it to targets and
  :meth:`Factor.diag_sums` reduces it to the diagonal sums of T^-1; both
  use FFT convolutions, O(n log n).

References: Zhang, Leithead & Leith 2005; Cunningham, Shenoy & Sahani 2008;
Durbin 1960; Gohberg & Semencul 1972; Cybenko 1980 (stability of
Levinson--Durbin).
"""

from __future__ import annotations

import numpy as np
from numpy import fft
from scipy.linalg._solve_toeplitz import levinson as _levinson

# Smallest n that takes this path.  Not the crossover, which is at or below
# n = 96 (ROADMAP item 10): lower, airline (n = 96) would leave Cholesky's
# log det for the less accurate Levinson one, which waits on a conditioning
# guard and a seed sweep (ROADMAP items 5 and 1b).
MIN_N = 144


class Factor:
    """Levinson--Durbin factor of the symmetric Toeplitz T with first column
    ``r``: x = T^-1 e_1, log|T| and the spectra of r and of the
    Gohberg--Semencul columns, computed once for every solve."""

    def __init__(self, r: np.ndarray, x: np.ndarray, logdet: float):
        n = r.size
        self.x, self.logdet = x, logdet
        self._nfft = 1 << (2 * n - 2).bit_length()  # a power of two >= 2n - 1
        b = np.zeros_like(x)
        b[1:] = x[:0:-1]
        self._cols = (x, b)
        self._fa, self._fb = (fft.rfft(c, self._nfft) for c in self._cols)
        # T embedded in a circulant of the same size, for T v
        circ = np.zeros(self._nfft)
        circ[:n] = r
        circ[self._nfft - n + 1:] = r[:0:-1]
        self._fr = fft.rfft(circ)

    def solve(self, Y: np.ndarray) -> np.ndarray:
        """T^-1 Y for (n, m) targets: Gohberg--Semencul, then one step of
        iterative refinement against T, which brings an ill-conditioned solve
        to the accuracy of a Cholesky solve."""
        alpha = self._apply_inverse(Y)
        return alpha + self._apply_inverse(Y - self._conv(self._fr, alpha))

    def diag_sums(self, alphas: np.ndarray) -> np.ndarray:
        """S_k = sum_i M[i+k, i], k = 0..n-1, of M = m T^-1 - sum_e alpha_e
        alpha_e^T for the (n, m) solutions ``alphas``.  The k-th diagonal sum
        of L L^T, L lower-triangular Toeplitz with first column c, is
        sum_j (n - k - j) c_j c_{j+k}."""
        n, m = alphas.shape
        weights = n - np.arange(n)
        inv = sum(sign * self._conv(np.conj(f), (weights * c)[:, None])[:, 0]
                  for sign, f, c in zip((1.0, -1.0), (self._fa, self._fb), self._cols))
        fa = fft.rfft(alphas, self._nfft, axis=0)
        power = np.sum(fa.real**2 + fa.imag**2, axis=1)
        return m * inv / self.x[0] - fft.irfft(power, self._nfft)[:n]

    def _apply_inverse(self, Y: np.ndarray) -> np.ndarray:
        """T^-1 Y = (A (A^T Y) - B (B^T Y)) / x_0."""
        out = sum(sign * self._conv(f, self._conv(np.conj(f), Y))
                  for sign, f in zip((1.0, -1.0), (self._fa, self._fb)))
        return out / self.x[0]

    def _conv(self, f: np.ndarray, V: np.ndarray) -> np.ndarray:
        """First n rows of the convolution of the column with spectrum ``f``
        and the columns of V: the lower-triangular Toeplitz product L V.  The
        conjugate spectrum ``np.conj(f)`` gives the correlation
        sum_j c_j V[j+k], L^T V."""
        n = self.x.size
        return fft.irfft(f[:, None] * fft.rfft(V, self._nfft, axis=0), self._nfft, axis=0)[:n]


def levinson(r: np.ndarray) -> Factor | None:
    """Levinson--Durbin factor of the symmetric Toeplitz matrix with first
    column ``r``, or None when a prediction-error variance is not positive
    (or a leading minor is singular)."""
    n = r.size
    phi = lam = np.empty(0)
    if n > 1:  # lam[0] is scipy's placeholder 1
        try:
            phi, lam = _levinson(np.concatenate((r[n - 2:0:-1], r[:n - 1])), r[1:])
        except np.linalg.LinAlgError:
            return None
    errs = r[0] * np.cumprod(np.concatenate(([1.0], 1.0 - lam[1:] ** 2)))
    if not np.all(np.isfinite(errs) & (errs > 0.0)):
        return None
    return Factor(r, np.concatenate(([1.0], -phi)) / errs[-1], float(np.sum(np.log(errs))))
