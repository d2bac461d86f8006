"""Gaussian variational family over the latent blocks, closed-form
expectation updates, the variational-bound evaluator, sensitive-direction
extraction, and design sampling.

The latent decomposition is z = mu_z + W y + eta_z with column-orthonormal W
and theta = mu_theta + eta_theta. The approximating density q is Gaussian
with zero means, joint blocks (C_thth, C_thy, C_yy) over (eta_theta, y), and
isotropic precision tau_z on the orthogonal complement of span(W).

q is held in one form: `vb_expectation` exploits the output count
n << d_theta and keeps the theta block as Woodbury factors
(`LowRankFactors`), so neither an update nor a reader of q ever assembles a
d_theta x d_theta precision or covariance.

`run_vbem` alternates the q update with a Cayley ascent of the basis
(`stiefel`) from a closed-form start: for fixed q the basis bound is
dominated by -T / (2 tau_z), T = tau_Q |G_z P|^2 + |P f|^2 / eps_c2 with
P = I - W W^T, which vanishes once span(W) holds the range of
H = tau_Q G_z^T G_z + f f^T / eps_c2, of dimension at most n + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .random_field import FieldPrior
from . import stiefel

LOG_2PI = np.log(2.0 * np.pi)
W_STEPS = 100    # Cayley steps per basis update
MAX_ITERS = 200  # q-and-basis iterations of run_vbem
FTOL = 1e-8      # relative bound change of run_vbem's plateau stop


class IndefinitePrecisionError(RuntimeError):
    pass


class DegenerateCovarianceError(RuntimeError):
    pass


@dataclass
class ModelParams:
    """Point-estimated quantities: design mean, basis, parameter mean."""

    mu_z: np.ndarray
    W: np.ndarray
    mu_theta: np.ndarray

    @property
    def d_z(self):
        return self.mu_z.shape[0]

    @property
    def d_y(self):
        return self.W.shape[1]


@dataclass
class PriorConfig:
    """Latent-block priors: tau_y0 on y, tau_z0 = tau_y0 * eps2 on eta_z."""

    tau_y0: float
    eps2: float
    field_prior: FieldPrior

    @property
    def tau_z0(self):
        return self.tau_y0 * self.eps2

    @property
    def mu_theta0(self):
        return self.field_prior.mean


@dataclass
class SensitivitySpectrum:
    W_hat: np.ndarray
    sigma2: np.ndarray


@dataclass
class LowRankFactors:
    """Woodbury pieces of the (eta_theta, y) covariance.

    Cov = blockdiag(C0, Py^{-1}) - B S^{-1} B^T with B = [B_th; B_y],
    S = I/tau_Q + M + A Py^{-1} A^T, A = G_z W, and C0 = L L^T the field
    prior held as its factor L. The theta rows are held by the whitened
    Jacobian X = L^T G_theta^T and its Gram M = X^T X = G_theta C0 G_theta^T;
    B_th = C0 G_theta^T = L X is formed on first read, by one product with
    the factor (`FieldPrior.mul`).
    """

    prior: FieldPrior
    G_theta: np.ndarray
    A: np.ndarray
    Py_cho: tuple
    X: np.ndarray
    M: np.ndarray
    B_y: np.ndarray
    S_cho: tuple
    tau_Q: float

    @cached_property
    def B_th(self):
        return self.prior.mul(self.X)

    def logdet(self):
        """Log-determinant of the (eta_theta, y) covariance above."""
        n = self.A.shape[0]
        logdet_Py = 2.0 * np.sum(np.log(np.diag(self.Py_cho[0])))
        logdet_S = 2.0 * np.sum(np.log(np.diag(self.S_cho[0])))
        return self.prior.logdet() - logdet_Py - n * np.log(self.tau_Q) - logdet_S


@dataclass
class VariationalState:
    """Covariance blocks of q; the theta block is held by its factors,
    C_thth = C_theta0 - B_th S^{-1} B_th^T (`LowRankFactors`).

    The cross block enters the bound and the basis objective only through
    GC_thy = G_theta C_thy = -M S^{-1} B_y^T (n x d_y); the d_theta x d_y
    C_thy = -B_th S^{-1} B_y^T is formed on first read.

    `vb_expectation`, the package's only constructor, stores C_yy as
    0.5 (C + C^T), which is exactly symmetric since float addition
    commutes; readers use it as it is."""

    C_yy: np.ndarray
    GC_thy: np.ndarray
    tau_z: float
    lowrank: LowRankFactors = field(repr=False)

    @cached_property
    def C_thy(self):
        lr = self.lowrank
        return -lr.B_th @ sla.cho_solve(lr.S_cho, lr.B_y.T)

    @property
    def d_theta(self):
        return self.lowrank.X.shape[0]

    @property
    def d_y(self):
        return self.C_yy.shape[0]


def _y_prior_precision(prior: PriorConfig, W, f, eps_c2):
    d_y = W.shape[1]
    Py = prior.tau_y0 * np.eye(d_y)
    if f is not None:
        fW = W.T @ f
        Py = Py + np.outer(fW, fW) / eps_c2
    return Py


def vb_expectation(G_theta, G_z, params: ModelParams, prior: PriorConfig,
                   tau_Q: float, f=None, eps_c2=None) -> VariationalState:
    """Closed-form optimal q for fixed point estimates, in low-rank form.

    The joint (eta_theta, y) precision is
    [[tau_Q Gt^T Gt + C0^{-1},  tau_Q Gt^T Gz W],
     [sym.,                     tau_Q W^T Gz^T Gz W + Py]]
    and tau_z = tau_z0 + tau_Q Gz^T Gz : (I - W W^T) / (d_z - d_y), with the
    soft-constraint rank-one terms added to Py and to the complement trace
    when a constraint gradient f is supplied. Its inverse is held through the
    Woodbury identity with an n x n capacitance matrix (`LowRankFactors`).
    """
    W = params.W
    stiefel.require_feasible(W)
    G_theta = np.asarray(G_theta, dtype=float)
    G_z = np.asarray(G_z, dtype=float)
    A = G_z @ W
    Py = _y_prior_precision(prior, W, f, eps_c2)
    k = W.shape[0] - W.shape[1]
    gram_perp, perp_f = stiefel.complement_sums(G_z, A, W, f)
    total = tau_Q * gram_perp + (0.0 if f is None else perp_f / eps_c2)
    tau_z = prior.tau_z0 + total / k if k else prior.tau_z0
    fp = prior.field_prior
    n = G_theta.shape[0]
    X = fp.mul(G_theta.T, trans=True)
    M = X.T @ X
    try:
        Py_cho = sla.cho_factor(Py, lower=True)
        B_y = sla.cho_solve(Py_cho, A.T)
        S = np.eye(n) / tau_Q + M + A @ B_y
        S = 0.5 * (S + S.T)
        S_cho = sla.cho_factor(S, lower=True)
    except np.linalg.LinAlgError as exc:
        raise IndefinitePrecisionError("joint precision not positive definite") from exc
    Py_inv = sla.cho_solve(Py_cho, np.eye(Py.shape[0]))
    SinvBy = sla.cho_solve(S_cho, B_y.T)
    C_yy = Py_inv - B_y @ SinvBy
    C_yy = 0.5 * (C_yy + C_yy.T)
    lr = LowRankFactors(fp, G_theta, A, Py_cho, X, M, B_y, S_cho, tau_Q)
    return VariationalState(C_yy=C_yy, GC_thy=-M @ SinvBy, tau_z=tau_z, lowrank=lr)


def evaluate_F(state: VariationalState, params: ModelParams, prior: PriorConfig,
               residual, G_z, f=None, eps_c2=None,
               log_p_mu_z: float = 0.0, c_mu: float = 0.0) -> float:
    """Variational lower bound at (q, R), additive constants included.

    With every Gaussian normalizer kept, this equals E_q[log(U_lin p/q)] for
    the linearized outputs, which the Monte Carlo oracle and the importance
    sampling validator both exploit. The theta terms and tau_Q are read from
    q, which holds them from the Jacobian it was fitted on.
    """
    W = params.W
    d_z, d_y = W.shape
    d_theta = state.d_theta
    tau_Q = state.lowrank.tau_Q
    k = d_z - d_y
    r = np.asarray(residual, dtype=float)

    M = state.lowrank.M
    SinvM = sla.cho_solve(state.lowrank.S_cho, M)
    tr_GG_thth = float(np.trace(M)) - float(np.sum(M * SinvM))
    tr_C0inv_thth = d_theta - float(np.trace(SinvM))

    tr_yy, tr_cross, gram_perp, fCf, perp_f = stiefel.basis_sums(
        G_z, W, state.C_yy, state.GC_thy, f)

    dev = params.mu_theta - prior.mu_theta0
    quad_theta = prior.field_prior.quad(dev)

    terms = {
        "residual": -0.5 * tau_Q * float(r @ r),
        "trace_couplings": -0.5 * tau_Q * (tr_GG_thth + tr_yy + tr_cross
                                           + gram_perp / state.tau_z),
        "theta_prior": -0.5 * (quad_theta + tr_C0inv_thth
                               + d_theta * LOG_2PI + prior.field_prior.logdet()),
        "y_prior": -0.5 * prior.tau_y0 * float(np.trace(state.C_yy))
                   + 0.5 * d_y * (np.log(prior.tau_y0) - LOG_2PI),
        "eta_z_prior": -0.5 * k * (prior.tau_z0 / state.tau_z)
                       + 0.5 * k * (np.log(prior.tau_z0) - LOG_2PI) if k > 0 else 0.0,
        "entropy_joint": 0.5 * state.lowrank.logdet()
                         + 0.5 * (d_theta + d_y) * (LOG_2PI + 1.0),
        "entropy_eta_z": -0.5 * k * np.log(state.tau_z) + 0.5 * k * (LOG_2PI + 1.0)
                         if k > 0 else 0.0,
        "mu_z_prior": float(log_p_mu_z),
    }
    if f is not None:
        terms["constraint"] = -0.5 / eps_c2 * (c_mu**2 + fCf + perp_f / state.tau_z)

    total = 0.0
    for name, val in terms.items():
        if not np.isfinite(val):
            raise FloatingPointError(f"variational bound term {name!r} is not finite")
        total += val
    return total


def sensitive_directions(state: VariationalState, params: ModelParams) -> SensitivitySpectrum:
    """Diagonalize C_yy = U diag(sigma2) U^T; columns of W U in ascending order."""
    try:
        sigma2, U = np.linalg.eigh(state.C_yy)
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovarianceError("eigendecomposition of C_yy failed") from exc
    if sigma2[0] <= 0:
        raise DegenerateCovarianceError("C_yy is not positive definite")
    return SensitivitySpectrum(W_hat=params.W @ U, sigma2=sigma2)


def sample_designs(params: ModelParams, state: VariationalState, level: float,
                   count: int, rng: np.random.Generator) -> np.ndarray:
    """Designs z on the in-span iso-utility shell V(z)/V(mu_z) = level.

    Samples y uniformly on the ellipsoid y^T C_yy^{-1} y = -2 log(level) and
    maps z = mu_z + W y.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("utility level must lie strictly inside (0, 1)")
    try:
        L = np.linalg.cholesky(state.C_yy)
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovarianceError("C_yy factorization failed") from exc
    radius = np.sqrt(-2.0 * np.log(level))
    xi = rng.standard_normal((count, params.d_y))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    ys = radius * xi @ L.T
    return params.mu_z[None, :] + ys @ params.W.T


# ---------------------------------------------------------------------------
# Alternating driver: one q update then one basis update per iteration
# ---------------------------------------------------------------------------

@dataclass
class VbemResult:
    state: VariationalState
    params: ModelParams
    F_history: list      # (F_after_q, F_after_W) per iteration
    iterations: int
    converged: bool


def initial_W(d_z: int, d_y: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormalized standard-normal basis."""
    if not 1 <= d_y <= d_z:
        raise ValueError(f"need 1 <= d_y <= d_z, got d_y = {d_y} and d_z = {d_z}")
    return stiefel.qr_fix(rng.standard_normal((d_z, d_y)))


def run_vbem(G_theta, G_z, params: ModelParams, prior: PriorConfig, tau_Q: float,
             residual, f=None, eps_c2=None, log_p_mu_z: float = 0.0) -> VbemResult:
    """Alternate the closed-form q update with Cayley ascent on the basis.

    Point estimates stay fixed here; no forward solves occur. The start is
    the top k = min(d_y, n + 1) left singular vectors of
    B = [sqrt(tau_Q) G_z^T, f / sqrt(eps_c2)] (B B^T = H, module docstring),
    then the passed W projected off them and orthonormalized, which picks
    only the d_y - k flat columns. The loop stops, converged, at its fixed
    point, the first ascent whose line search accepts no step (W, and so the
    next q, unchanged): for d_y >= n + 1 the start spans range(B), where the
    bound is maximal over W up to rounding, so in the first iteration. It
    also stops, converged, once the relative bound change stays below FTOL
    for 3 consecutive iterations, and unconverged after MAX_ITERS.
    """
    fkw = dict(f=f, eps_c2=eps_c2, log_p_mu_z=log_p_mu_z)
    B = np.sqrt(tau_Q) * G_z.T
    if f is not None:
        B = np.column_stack([B, f / np.sqrt(eps_c2)])
    U = np.linalg.svd(B, full_matrices=False)[0]
    k = min(params.d_y, U.shape[1])
    W = np.linalg.qr(np.hstack([U[:, :k], params.W]))[0][:, :params.d_y]
    params = replace(params, W=W)
    state = vb_expectation(G_theta, G_z, params, prior, tau_Q, f=f, eps_c2=eps_c2)
    history = []
    streak = 0
    for _ in range(MAX_ITERS):
        F_q = evaluate_F(state, params, prior, residual, G_z, **fkw)
        problem = stiefel.StiefelProblem(
            G_z=G_z, GC_thy=state.GC_thy, C_yy=state.C_yy,
            tau_z=state.tau_z, tau_Q=tau_Q, f=f, eps_c2=eps_c2)
        res = stiefel.optimize_W(problem, params.W, W_STEPS)
        if res.steps == 0:
            # W unchanged: the next q, and every iteration after it, repeats this one
            history.append((F_q, F_q))
            return VbemResult(state, params, history, len(history), True)
        params = replace(params, W=res.W)
        F_w = evaluate_F(state, params, prior, residual, G_z, **fkw)
        if history and abs(F_w - history[-1][1]) <= FTOL * (1.0 + abs(F_w)):
            streak += 1
        else:
            streak = 0
        history.append((F_q, F_w))
        state = vb_expectation(G_theta, G_z, params, prior, tau_Q, f=f, eps_c2=eps_c2)
        if streak >= 3:
            break
    return VbemResult(state, params, history, len(history), streak >= 3)
