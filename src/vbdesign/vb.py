"""Gaussian variational family over the latent blocks, closed-form
expectation updates, the variational-bound evaluator, sensitive-direction
extraction, and design sampling.

The latent decomposition is z = mu_z + W y + eta_z with column-orthonormal W
and theta = mu_theta + eta_theta. The approximating density q is Gaussian
with zero means, joint blocks (C_thth, C_thy, C_yy) over (eta_theta, y), and
isotropic precision tau_z on the orthogonal complement of span(W).

`vb_expectation` always takes the low-rank route: it exploits the output
count n << d_theta, so an update never assembles a d_theta x d_theta
precision. `dense_expectation` inverts the dense joint precision instead; it
is the reference the tests compare the low-rank route against, and nothing
in the pipeline calls it. States built by hand with a dense C_thth still
work everywhere a state is read.

`run_vbem` alternates the q update with a Cayley ascent of the basis
(`stiefel`) from a closed-form start: for fixed q the basis bound is
dominated by tr(W^T H W) / (2 tau_z) with H = tau_Q G_z^T G_z + f f^T / eps_c2,
whose range has dimension at most n + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import dtrmm

from .random_field import FieldPrior
from . import stiefel

LOG_2PI = np.log(2.0 * np.pi)


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
    S = I/tau_Q + G_theta C0 G_theta^T + A Py^{-1} A^T, A = G_z W, and
    C0 = L L^T the field prior held as its factor L.
    """

    prior: FieldPrior
    G_theta: np.ndarray
    A: np.ndarray
    Py: np.ndarray
    Py_cho: tuple
    B_th: np.ndarray
    B_y: np.ndarray
    S_cho: tuple
    tau_Q: float

    def logdet_joint_cov(self):
        n = self.A.shape[0]
        logdet_Py = 2.0 * np.sum(np.log(np.diag(self.Py_cho[0])))
        logdet_S = 2.0 * np.sum(np.log(np.diag(self.S_cho[0])))
        return self.prior.logdet() - logdet_Py - n * np.log(self.tau_Q) - logdet_S


@dataclass
class VariationalState:
    """Covariance blocks of q; the theta block may be held in low-rank form."""

    C_yy: np.ndarray
    C_thy: np.ndarray
    tau_z: float
    _C_thth: np.ndarray = field(default=None, repr=False)
    lowrank: LowRankFactors = field(default=None, repr=False)

    @property
    def C_thth(self) -> np.ndarray:
        """Dense theta block; formed on first read, which the pipeline never does."""
        if self._C_thth is None:
            lr = self.lowrank
            L = lr.prior.chol
            self._C_thth = L @ L.T - lr.B_th @ sla.cho_solve(lr.S_cho, lr.B_th.T)
        return self._C_thth

    @property
    def d_theta(self):
        return self.C_thy.shape[0]

    @property
    def d_y(self):
        return self.C_yy.shape[0]

    def joint_cov(self) -> np.ndarray:
        top = np.hstack([self.C_thth, self.C_thy])
        bot = np.hstack([self.C_thy.T, self.C_yy])
        return np.vstack([top, bot])

    def logdet_joint_cov(self) -> float:
        if self.lowrank is not None:
            return self.lowrank.logdet_joint_cov()
        sign, val = np.linalg.slogdet(self.joint_cov())
        if sign <= 0:
            raise DegenerateCovarianceError("joint covariance not positive definite")
        return val


def _check_orthonormal(W, tol=1e-8):
    d_y = W.shape[1]
    drift = np.max(np.abs(W.T @ W - np.eye(d_y)))
    if drift > tol:
        raise ValueError(f"W is not orthonormal (max deviation {drift:.3e})")


def _y_prior_precision(prior: PriorConfig, W, f, eps_c2):
    d_y = W.shape[1]
    Py = prior.tau_y0 * np.eye(d_y)
    if f is not None:
        fW = W.T @ f
        Py = Py + np.outer(fW, fW) / eps_c2
    return Py


def _complement_sums(G_z, A, W, f=None):
    """|G_z (I - W W^T)|^2 and |(I - W W^T) f|^2 for A = G_z W; projecting
    dodges the cancellation in |G_z|^2 - |A|^2, which 1/tau_z magnifies."""
    gram_perp = float(np.sum((G_z - A @ W.T) ** 2))
    if f is None:
        return gram_perp, 0.0
    f_perp = f - W @ (W.T @ f)
    return gram_perp, float(f_perp @ f_perp)


def _tau_z_update(prior: PriorConfig, G_z, A, W, tau_Q, f, eps_c2):
    d_z, d_y = W.shape
    k = d_z - d_y
    if k == 0:
        return prior.tau_z0
    gram_perp, perp_f = _complement_sums(G_z, A, W, f)
    total = tau_Q * gram_perp + (0.0 if f is None else perp_f / eps_c2)
    return prior.tau_z0 + total / k


def _q_blocks(G_theta, G_z, params: ModelParams, prior: PriorConfig, tau_Q,
              f, eps_c2):
    """Pieces both expectation routes share: G_theta, A = G_z W, Py, tau_z."""
    _check_orthonormal(params.W)
    W = params.W
    G_theta = np.asarray(G_theta, dtype=float)
    G_z = np.asarray(G_z, dtype=float)
    A = G_z @ W
    Py = _y_prior_precision(prior, W, f, eps_c2)
    tau_z = _tau_z_update(prior, G_z, A, W, tau_Q, f, eps_c2)
    return G_theta, A, Py, tau_z


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
    G_theta, A, Py, tau_z = _q_blocks(G_theta, G_z, params, prior, tau_Q, f, eps_c2)
    fp = prior.field_prior
    n = G_theta.shape[0]
    # B_th = C0 G_theta^T = L (L^T G_theta^T) by two triangular products on
    # U = L^T, the factor's Fortran-order view; the first copies G_theta^T,
    # the second overwrites that copy
    U = fp.chol.T
    B_th = dtrmm(1.0, U, G_theta.T)
    B_th = dtrmm(1.0, U, B_th, trans_a=1, overwrite_b=1)
    M = G_theta @ B_th
    try:
        Py_cho = sla.cho_factor(Py, lower=True)
        B_y = sla.cho_solve(Py_cho, A.T)
        S = np.eye(n) / tau_Q + M + A @ B_y
        S = 0.5 * (S + S.T)
        S_cho = sla.cho_factor(S, lower=True)
    except np.linalg.LinAlgError as exc:
        raise IndefinitePrecisionError("joint precision not positive definite") from exc
    Py_inv = sla.cho_solve(Py_cho, np.eye(Py.shape[0]))
    C_yy = Py_inv - B_y @ sla.cho_solve(S_cho, B_y.T)
    C_yy = 0.5 * (C_yy + C_yy.T)
    C_thy = -B_th @ sla.cho_solve(S_cho, B_y.T)
    lr = LowRankFactors(fp, G_theta, A, Py, Py_cho, B_th, B_y, S_cho, tau_Q)
    return VariationalState(C_yy=C_yy, C_thy=C_thy, tau_z=tau_z, lowrank=lr)


def dense_expectation(G_theta, G_z, params: ModelParams, prior: PriorConfig,
                      tau_Q: float, f=None, eps_c2=None) -> VariationalState:
    """The q of `vb_expectation` by inverting the dense joint precision.

    The tests' reference for the low-rank route; it costs a
    (d_theta + d_y)^2 inverse, so the pipeline never calls it.
    """
    G_theta, A, Py, tau_z = _q_blocks(G_theta, G_z, params, prior, tau_Q, f, eps_c2)
    d_theta = G_theta.shape[1]
    C0inv = prior.field_prior.solve(np.eye(d_theta))
    top = np.hstack([tau_Q * G_theta.T @ G_theta + C0inv, tau_Q * G_theta.T @ A])
    bot = np.hstack([top[:, d_theta:].T, tau_Q * A.T @ A + Py])
    prec = np.vstack([top, bot])
    prec = 0.5 * (prec + prec.T)
    try:
        cho = sla.cho_factor(prec, lower=True)
    except np.linalg.LinAlgError as exc:
        raise IndefinitePrecisionError("joint precision not positive definite") from exc
    cov = sla.cho_solve(cho, np.eye(prec.shape[0]))
    cov = 0.5 * (cov + cov.T)
    return VariationalState(
        C_yy=cov[d_theta:, d_theta:].copy(),
        C_thy=cov[:d_theta, d_theta:].copy(),
        tau_z=tau_z,
        _C_thth=cov[:d_theta, :d_theta].copy(),
    )


def evaluate_F(state: VariationalState, params: ModelParams, prior: PriorConfig,
               tau_Q: float, residual, G_theta, G_z, f=None, eps_c2=None,
               log_p_mu_z: float = 0.0, c_mu: float = 0.0) -> float:
    """Variational lower bound at (q, R), additive constants included.

    With every Gaussian normalizer kept, this equals E_q[log(U_lin p/q)] for
    the linearized outputs, which the Monte Carlo oracle and the importance
    sampling validator both exploit.
    """
    W = params.W
    d_z, d_y = W.shape
    d_theta = G_theta.shape[1]
    k = d_z - d_y
    r = np.asarray(residual, dtype=float)
    A = G_z @ W

    if state.lowrank is not None:
        lr = state.lowrank
        M = G_theta @ lr.B_th
        SinvM = sla.cho_solve(lr.S_cho, M)
        tr_GG_thth = float(np.trace(M)) - float(np.sum(M * SinvM))
        tr_C0inv_thth = d_theta - float(np.trace(SinvM))
    else:
        C_thth = state.C_thth
        GC = G_theta @ C_thth
        tr_GG_thth = float(np.sum(GC * G_theta))
        tr_C0inv_thth = float(np.trace(prior.field_prior.solve(C_thth)))

    tr_yy = float(np.sum((A.T @ A) * state.C_yy))
    tr_cross = 2.0 * float(np.sum((G_theta.T @ A) * state.C_thy))
    gram_perp, perp_f = _complement_sums(G_z, A, W, f) if k > 0 else (0.0, 0.0)

    dev = params.mu_theta - prior.mu_theta0
    quad_theta = prior.field_prior.quad(dev)
    logdet_joint = state.logdet_joint_cov()

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
        "entropy_joint": 0.5 * logdet_joint + 0.5 * (d_theta + d_y) * (LOG_2PI + 1.0),
        "entropy_eta_z": -0.5 * k * np.log(state.tau_z) + 0.5 * k * (LOG_2PI + 1.0)
                         if k > 0 else 0.0,
        "mu_z_prior": float(log_p_mu_z),
    }
    if f is not None:
        fW = W.T @ f
        terms["constraint"] = -0.5 / eps_c2 * (
            c_mu**2 + float(fW @ state.C_yy @ fW) + perp_f / state.tau_z)

    total = 0.0
    for name, val in terms.items():
        if not np.isfinite(val):
            raise FloatingPointError(f"variational bound term {name!r} is not finite")
        total += val
    return total


def sensitive_directions(state: VariationalState, params: ModelParams) -> SensitivitySpectrum:
    """Diagonalize C_yy = U diag(sigma2) U^T; columns of W U in ascending order."""
    C = 0.5 * (state.C_yy + state.C_yy.T)
    try:
        sigma2, U = np.linalg.eigh(C)
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
        L = np.linalg.cholesky(0.5 * (state.C_yy + state.C_yy.T))
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
    Q, R = np.linalg.qr(rng.standard_normal((d_z, d_y)))
    return Q * np.sign(np.diag(R))


def run_vbem(G_theta, G_z, params: ModelParams, prior: PriorConfig, tau_Q: float,
             residual, f=None, eps_c2=None, w_steps: int = 100,
             max_iters: int = 200, ftol: float = 1e-8,
             log_p_mu_z: float = 0.0) -> VbemResult:
    """Alternate the closed-form q update with Cayley ascent on the basis.

    Point estimates stay fixed here; no forward solves occur. The start is
    the top k = min(d_y, n + 1) left singular vectors of
    B = [sqrt(tau_Q) G_z^T, f / sqrt(eps_c2)] (B B^T = H, module docstring),
    then the passed W projected off them and orthonormalized, which picks
    only the d_y - k flat columns. The ascent polishes that basis when
    d_y < n + 1 and certifies it otherwise. Stops when the relative bound
    change stays below ftol for 3 consecutive iterations.
    """
    fkw = dict(f=f, eps_c2=eps_c2, log_p_mu_z=log_p_mu_z)
    B = np.sqrt(tau_Q) * G_z.T
    if f is not None:
        B = np.column_stack([B, f / np.sqrt(eps_c2)])
    U = np.linalg.svd(B, full_matrices=False)[0]
    k = min(params.d_y, U.shape[1])
    W = np.linalg.qr(np.hstack([U[:, :k], params.W]))[0][:, :params.d_y]
    params = replace(params, W=W)
    history = []
    streak = 0
    F_prev = None
    state = None
    for _ in range(max_iters):
        state = vb_expectation(G_theta, G_z, params, prior, tau_Q,
                               f=f, eps_c2=eps_c2)
        F_q = evaluate_F(state, params, prior, tau_Q, residual, G_theta, G_z, **fkw)

        problem = stiefel.StiefelProblem(
            G_z=G_z, cross=G_z.T @ (G_theta @ state.C_thy), C_yy=state.C_yy,
            tau_z=state.tau_z, tau_Q=tau_Q, f=f, eps_c2=eps_c2)
        params = replace(params, W=stiefel.optimize_W(problem, params.W, w_steps).W)
        F_w = evaluate_F(state, params, prior, tau_Q, residual, G_theta, G_z, **fkw)
        history.append((F_q, F_w))

        if F_prev is not None and abs(F_w - F_prev) <= ftol * (1.0 + abs(F_w)):
            streak += 1
        else:
            streak = 0
        F_prev = F_w
        if streak >= 3:
            break
    converged = streak >= 3
    # refresh q so the returned state matches the final basis
    state = vb_expectation(G_theta, G_z, params, prior, tau_Q,
                           f=f, eps_c2=eps_c2)
    return VbemResult(state, params, history, len(history), converged)
