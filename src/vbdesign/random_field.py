"""Latent Gaussian field prior with exponential covariance.

The field lives at element centroids; the material property is the
exponential of the latent field, giving a log-normal coefficient with
mean exp(mu + sigma^2/2).

The prior is held as the lower Cholesky factor L of its covariance C. When
the centroids form a lattice, p >= 2 copies of their first b points with
copy k shifted by k s (a regular mesh in x-fastest cell order: b = 2 nx,
p = ny, s = (0, h_y)), C is symmetric block Toeplitz and L comes from the
generalized Schur algorithm on its displacement generator (Kailath and
Sayed, SIAM Review 37, 1995): about 4 b^2 d p flops from the kernel's first
block row, against d^3 / 3 for LAPACK on the full kernel. Other point sets
are factored densely in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import dtrmm, dtrsm
from scipy.linalg.lapack import dpotrf
from scipy.spatial.distance import cdist

SCHUR_ROWS = 128  # generator rows per product of a Schur step: slab and product stay in cache


@dataclass
class FieldPrior:
    """The latent field's covariance C_theta0, held as its Cholesky factor.

    C_theta0 = chol chol^T is never kept: the factor is the prior's only
    d x d array. `mul` and `whiten` are its triangular product and solve;
    both read the C-order buffer through its Fortran-order view, no copy.
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

    def logdet(self) -> float:
        return 2.0 * np.sum(np.log(np.diag(self.chol)))

    def mul(self, B: np.ndarray, trans: bool = False) -> np.ndarray:
        """L B, or L^T B when trans, for a vector or the columns of B: one
        triangular product on U = L^T."""
        return dtrmm(1.0, self.chol.T, B, trans_a=int(not trans))

    def whiten(self, v: np.ndarray) -> np.ndarray:
        """L^-1 v, for a vector or the columns of v. The factor is not
        scanned for non-finite values: `build_covariance` returns a finite
        one, and scanning its d^2 entries costs several times the solve."""
        return sla.solve_triangular(self.chol, v, lower=True, check_finite=False)

    def quad(self, v: np.ndarray) -> float:
        """v^T C_theta0^{-1} v; v is checked for non-finite values."""
        v = np.asarray(v, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("array must not contain infs or NaNs")
        half = self.whiten(v)
        return float(half @ half)


def _fill_kernel(C, rows, pts, sigma_g2, x0):
    """C[i, j] = sigma_g2 * exp(-|rows_i - pts_j| / x0), written over C."""
    cdist(rows, pts, out=C)
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


def _lattice_block(pts):
    """The smallest b for which pts are p = d / b >= 2 copies of pts[:b],
    copy k shifted by k s for one nonzero s, to 1e-12 of the coordinate
    scale; None when there is none."""
    d = pts.shape[0]
    tol = 1e-12 * np.max(np.abs(pts), initial=0.0)
    for b in range(1, d // 2 + 1):
        if d % b:
            continue
        s = pts[b] - pts[0]
        if np.max(np.abs(s)) <= tol:
            continue
        p = d // b
        dev = pts.reshape(p, b, -1) - pts[:b] - np.arange(p)[:, None, None] * s
        if np.max(np.abs(dev)) <= tol:
            return b
    return None


def _block_schur(L, pts, b, sigma_g2, x0, nugget):
    """Lower Cholesky factor of the kernel (plus nugget on the diagonal) on
    the lattice pts of block length b, written into the zeroed C-order L;
    False when the algorithm breaks down or its factor fails the check.

    Block (k, l) of C depends on l - k only, so with the first block row
    T = [T_0 ... T_{p-1}] and T_0 = R_0^T R_0, C - Z C Z^T = G_1^T G_1 -
    G_2^T G_2 for the block down-shift Z, where G_1 = R_0^-T T and G_2 is
    G_1 with its leading block zeroed. G_1 is the factor's first block row.
    Step k takes the leading blocks a of G_1 and c of G_2, forms
    R_kk = chol(a^T a - c^T c), rho = c a^-1 and Q Q^T = I - rho rho^T, and
    applies the J-unitary
        Theta = [[R_kk^-T a^T, -R_kk^-T c^T], [-Q^-1 rho, Q^-1]]
    to the stacked generator: the new G_1 starts with R_kk and is block row k
    of L^T, the new G_2 starts with zeros. The next step shifts G_1 one
    block on and drops those zeros.

    The generators are held transposed, a row per point: G_1^T is the block
    column of L written by the step before, G_2^T a d x b buffer. A step
    copies a slab of rows of both into one block and applies Theta^T to it
    in one product. The check compares the last block row's diagonal block,
    which carries every step's rounding, with T_0 to 1e-10 relative.
    """
    d = pts.shape[0]
    T = np.empty((b, d))
    _fill_kernel(T, pts[:b], pts, sigma_g2, x0)
    T.flat[:b * d:d + 1] += nugget
    T0 = T[:, :b].copy()
    R0, info = dpotrf(T0, lower=0, clean=1)
    if info:
        return False
    # G_1^T = T^T R_0^-1, solved over T's Fortran-order view; it is also
    # G_2^T, whose leading block the first step does not read
    G2t = np.ascontiguousarray(dtrsm(1.0, R0, T.T, side=1, overwrite_b=1))
    del T
    L[:, :b] = G2t
    L[:b, :b] = R0.T
    eye = np.eye(b)
    slab = np.empty((SCHUR_ROWS, 2 * b))
    for lo in range(b, d, b):
        g1 = L[lo - b:d - b, lo - b:lo]
        g2 = G2t[lo:]
        a_t, c_t = g1[:b], g2[:b]
        Lk, info = dpotrf(a_t @ a_t.T - c_t @ c_t.T, lower=1, clean=1)
        if info:
            return False
        rho_t = dtrsm(1.0, a_t, c_t, lower=1)
        Q, info = dpotrf(eye - rho_t.T @ rho_t, lower=1, clean=1)
        if info:
            return False
        theta_t = np.vstack((dtrsm(1.0, Lk, np.hstack((a_t, -c_t)), lower=1),
                             dtrsm(1.0, Q, np.hstack((-rho_t.T, eye)), lower=1))).T
        for r in range(0, d - lo, SCHUR_ROWS):
            rows = slice(r, r + SCHUR_ROWS)
            block = slab[:g2[rows].shape[0]]
            block[:, :b] = g1[rows]
            block[:, b:] = g2[rows]
            out = block @ theta_t
            L[lo + r:lo + r + SCHUR_ROWS, lo:lo + b] = out[:, :b]
            g2[rows] = out[:, b:]
        L[lo:lo + b, lo:lo + b] = Lk
    last = L[d - b:]
    return bool(np.max(np.abs(last @ last.T - T0)) <= 1e-10 * sigma_g2)


def build_covariance(centroids: np.ndarray, sigma_g2: float, x0: float,
                     mu_theta0: float = 0.0) -> FieldPrior:
    """C[i, j] = sigma_g2 * exp(-|x_i - x_j| / x0), held as its lower
    Cholesky factor.

    On a lattice (`_lattice_block`) the factor comes from the block Schur
    algorithm (`_block_schur`), which fills only the kernel's first block
    row; a factor that breaks down or fails the residual check of the last
    diagonal block leaves the work to the dense path, and other point sets
    take that path at once: the kernel is filled and factorized in place.
    Only when both fail does a single nugget retry (1e-10 * sigma_g2 on the
    diagonal) run, in the same order, for the near-singular fine-grid case
    of the exponential kernel; the failed dense factorization has
    overwritten the kernel, so its retry builds it again.
    """
    if not 0.0 < x0 < np.inf:
        raise ValueError("correlation length must be positive and finite")
    if not 0.0 < sigma_g2 < np.inf:
        raise ValueError("variance must be positive and finite")
    pts = np.asarray(centroids, dtype=float)
    # LAPACK factors a NaN kernel without reporting a failed pivot
    if not np.all(np.isfinite(pts)):
        raise ValueError("centroids must be finite")
    d = pts.shape[0]
    b = _lattice_block(pts)
    for nugget in (0.0, 1e-10 * sigma_g2):
        if b is not None:
            L = np.zeros((d, d))
            if _block_schur(L, pts, b, sigma_g2, x0, nugget):
                return FieldPrior(float(mu_theta0), float(sigma_g2), float(x0), L)
            del L
        C = np.empty((d, d))
        _fill_kernel(C, pts, pts, sigma_g2, x0)
        C.flat[::d + 1] += nugget
        L, info = _factor_in_place(C)
        if not info:
            return FieldPrior(float(mu_theta0), float(sigma_g2), float(x0), L)
        del C, L
    raise np.linalg.LinAlgError("covariance factorization failed even with nugget")


def sample_log_field(prior: FieldPrior, seed) -> np.ndarray:
    """One realization mu + L xi; identical seed gives an identical vector."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    xi = rng.standard_normal(prior.d)
    return prior.mean + prior.mul(xi)
