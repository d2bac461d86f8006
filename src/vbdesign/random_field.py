"""Latent Gaussian field prior with exponential covariance.

The field lives at element centroids; the material property is the
exponential of the latent field, giving a log-normal coefficient with
mean exp(mu + sigma^2/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.spatial.distance import cdist


@dataclass
class FieldPrior:
    """Dense covariance of the latent field and its Cholesky factor."""

    mu_theta0: float
    sigma_g2: float
    x0: float
    C_theta0: np.ndarray
    chol: np.ndarray  # lower triangular

    @property
    def d(self) -> int:
        return self.C_theta0.shape[0]

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


def build_covariance(centroids: np.ndarray, sigma_g2: float, x0: float,
                     mu_theta0: float = 0.0) -> FieldPrior:
    """C[i, j] = sigma_g2 * exp(-|x_i - x_j| / x0), factorized once.

    A single nugget retry (1e-10 * sigma_g2 on the diagonal) covers the
    near-singular fine-grid case of the exponential kernel.
    """
    if x0 <= 0.0:
        raise ValueError("correlation length must be positive")
    if sigma_g2 <= 0.0:
        raise ValueError("variance must be positive")
    pts = np.asarray(centroids, dtype=float)
    C = cdist(pts, pts)  # distances, turned into the kernel in place
    C /= -x0
    np.exp(C, out=C)
    C *= sigma_g2
    try:
        L = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        C.flat[::C.shape[0] + 1] += 1e-10 * sigma_g2
        try:
            L = np.linalg.cholesky(C)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "covariance factorization failed even with nugget") from exc
    return FieldPrior(float(mu_theta0), float(sigma_g2), float(x0), C, L)


def sample_log_field(prior: FieldPrior, seed) -> np.ndarray:
    """One realization mu + L xi; identical seed gives an identical vector."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    xi = rng.standard_normal(prior.d)
    return prior.mean + prior.chol @ xi
