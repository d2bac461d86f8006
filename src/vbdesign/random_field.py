"""Latent Gaussian field prior with exponential covariance.

The field lives at element centroids; the material property is the
exponential of the latent field, giving a log-normal coefficient with
mean exp(mu + sigma^2/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dpotrf
from scipy.spatial.distance import cdist


@dataclass
class FieldPrior:
    """The latent field's covariance C_theta0, held as its Cholesky factor.

    C_theta0 = chol chol^T is never kept: the factor is the prior's only
    d x d array.
    """

    mu_theta0: float
    sigma_g2: float
    x0: float
    chol: np.ndarray  # lower triangular

    @property
    def d(self) -> int:
        return self.chol.shape[0]

    @property
    def mean(self) -> np.ndarray:
        return np.full(self.d, self.mu_theta0)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """C_theta0^{-1} rhs via the stored factor."""
        return sla.cho_solve((self.chol, True), rhs)

    def logdet(self) -> float:
        return 2.0 * np.sum(np.log(np.diag(self.chol)))

    def quad(self, v: np.ndarray) -> float:
        """v^T C_theta0^{-1} v."""
        half = sla.solve_triangular(self.chol, v, lower=True)
        return float(half @ half)


def _fill_kernel(C, pts, sigma_g2, x0):
    """C[i, j] = sigma_g2 * exp(-|x_i - x_j| / x0), written over C."""
    cdist(pts, pts, out=C)
    C /= -x0
    np.exp(C, out=C)
    C *= sigma_g2


def _factor_in_place(C):
    """Lower Cholesky factor L of symmetric C, over C's own buffer.

    C.T is a Fortran-order view of the same matrix, so LAPACK factors it
    without a copy; its upper factor U = L^T, read through the transpose, is
    L in C order. info > 0 means LAPACK met a non-positive pivot.
    """
    U, info = dpotrf(C.T, lower=0, clean=1, overwrite_a=1)
    return U.T, info


def build_covariance(centroids: np.ndarray, sigma_g2: float, x0: float,
                     mu_theta0: float = 0.0) -> FieldPrior:
    """C[i, j] = sigma_g2 * exp(-|x_i - x_j| / x0), factorized in place.

    A single nugget retry (1e-10 * sigma_g2 on the diagonal) covers the
    near-singular fine-grid case of the exponential kernel. The failed
    factorization has overwritten the kernel, so the retry builds it again.
    """
    if x0 <= 0.0:
        raise ValueError("correlation length must be positive")
    if sigma_g2 <= 0.0:
        raise ValueError("variance must be positive")
    pts = np.asarray(centroids, dtype=float)
    C = np.empty((pts.shape[0], pts.shape[0]))
    _fill_kernel(C, pts, sigma_g2, x0)
    L, info = _factor_in_place(C)
    if info > 0:
        _fill_kernel(C, pts, sigma_g2, x0)
        C.flat[::C.shape[0] + 1] += 1e-10 * sigma_g2
        L, info = _factor_in_place(C)
        if info > 0:
            raise np.linalg.LinAlgError("covariance factorization failed even with nugget")
    return FieldPrior(float(mu_theta0), float(sigma_g2), float(x0), L)


def sample_log_field(prior: FieldPrior, seed) -> np.ndarray:
    """One realization mu + L xi; identical seed gives an identical vector."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    xi = rng.standard_normal(prior.d)
    return prior.mean + prior.chol @ xi
