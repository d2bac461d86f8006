"""Importance-sampling check of the variational approximation.

Draws from q, runs the exact forward model once per sample, and estimates
KL(q || p_aux(. | R)) = log<w> - <log w> from the unnormalized weights
w = U p_theta p_y p_eta_z / q. The divergence is reported normalized by
the closed-form Gaussian functional H_q = -1/2 log|2 pi Sigma_q| of q so
values are comparable across reduced dimensions d_y. H_q is d/2 minus the
entropy of q, not the entropy itself, and is negative when q is broad.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import dtrmm
from scipy.special import logsumexp

from .problems import constraint_value_and_gradient, log_utility
from .vb import LOG_2PI, ModelParams, PriorConfig, VariationalState


class WeightUnderflowError(RuntimeError):
    pass


@dataclass
class ValidationReport:
    M: int
    log_mean_w: float
    mean_log_w: float
    KL_estimate: float
    H_q: float
    nKL: float
    ess: float
    forward_calls: int
    kl_se: float
    log_weights: np.ndarray = field(repr=False, default=None)

    def lines(self):
        keys = ["M", "log_mean_w", "mean_log_w", "KL_estimate", "H_q", "nKL",
                "ess", "forward_calls", "kl_se"]
        out = []
        for k in keys:
            v = getattr(self, k)
            out.append(f"{k} = {v:.17g}" if isinstance(v, float) else f"{k} = {v}")
        return out


def _sample_joint(state: VariationalState, count, rng):
    """(eta_theta, y) draws with the state's joint covariance."""
    if state.lowrank is not None:
        lr = state.lowrank
        d_theta = lr.B_th.shape[0]
        d_y = state.d_y
        n = lr.A.shape[0]
        # L xi as U^T xi on the factor's Fortran-order view U = L^T
        xt = dtrmm(1.0, lr.prior.chol.T, rng.standard_normal((d_theta, count)),
                   trans_a=1).T
        xy = sla.solve_triangular(lr.Py_cho[0].T, rng.standard_normal((d_y, count)),
                                  lower=False).T
        e = rng.standard_normal((count, n)) / np.sqrt(lr.tau_Q)
        resid = xt @ lr.G_theta.T + xy @ lr.A.T + e
        corr = sla.cho_solve(lr.S_cho, resid.T).T
        return xt - corr @ lr.B_th.T, xy - corr @ lr.B_y.T
    L = np.linalg.cholesky(state.joint_cov())
    d_theta = state.d_theta
    x = (L @ rng.standard_normal((L.shape[0], count))).T
    return x[:, :d_theta], x[:, d_theta:]


def _log_q_joint(state: VariationalState, eta_theta, y):
    count = eta_theta.shape[0]
    d = eta_theta.shape[1] + y.shape[1]
    logdet = state.logdet_joint_cov()
    if state.lowrank is not None:
        lr = state.lowrank
        half = sla.solve_triangular(lr.prior.chol, eta_theta.T, lower=True)
        quad = np.sum(half**2, axis=0)
        # cho_factor leaves the input matrix in the unused upper triangle
        Ly = np.tril(lr.Py_cho[0])
        quad += np.sum((Ly.T @ y.T) ** 2, axis=0)
        lin = eta_theta @ lr.G_theta.T + y @ lr.A.T
        quad += lr.tau_Q * np.sum(lin**2, axis=1)
    else:
        L = np.linalg.cholesky(state.joint_cov())
        x = np.hstack([eta_theta, y])
        half = sla.solve_triangular(L, x.T, lower=True)
        quad = np.sum(half**2, axis=0)
    return -0.5 * quad - 0.5 * d * LOG_2PI - 0.5 * logdet


def sample_q(state: VariationalState, params: ModelParams, rng: np.random.Generator):
    """One draw (eta_theta, y, eta_z); eta_z lives in the complement of W."""
    eta_theta, y = _sample_joint(state, 1, rng)
    xi = rng.standard_normal(params.d_z)
    eta_z = (xi - params.W @ (params.W.T @ xi)) / np.sqrt(state.tau_z)
    return eta_theta[0], y[0], eta_z


def estimate_nKL(model, state: VariationalState, params: ModelParams,
                 prior: PriorConfig, M: int, rng: np.random.Generator) -> ValidationReport:
    """Normalized KL estimate; each of the M samples costs one exact solve."""
    if M < 2:
        raise ValueError("need at least two importance samples")
    d_z, d_y = params.W.shape
    k = d_z - d_y
    calls_before = model.forward_calls

    eta_theta, y = _sample_joint(state, M, rng)
    xi = rng.standard_normal((M, d_z))
    eta_z = (xi - (xi @ params.W) @ params.W.T) / np.sqrt(state.tau_z)

    log_q = _log_q_joint(state, eta_theta, y)
    if k > 0:
        log_q = log_q - 0.5 * state.tau_z * np.sum(eta_z**2, axis=1) \
            + 0.5 * k * (np.log(state.tau_z) - LOG_2PI)

    fp = prior.field_prior
    half = sla.solve_triangular(fp.chol, (params.mu_theta + eta_theta - fp.mean).T,
                                lower=True)
    log_p_theta = -0.5 * np.sum(half**2, axis=0) \
        - 0.5 * fp.d * LOG_2PI - 0.5 * fp.logdet()
    log_p_y = -0.5 * prior.tau_y0 * np.sum(y**2, axis=1) \
        + 0.5 * d_y * (np.log(prior.tau_y0) - LOG_2PI)
    log_p_eta_z = np.zeros(M)
    if k > 0:
        log_p_eta_z = -0.5 * prior.tau_z0 * np.sum(eta_z**2, axis=1) \
            + 0.5 * k * (np.log(prior.tau_z0) - LOG_2PI)

    log_w = np.empty(M)
    zs = params.mu_z[None, :] + y @ params.W.T + eta_z
    for i in range(M):
        u = model.evaluate(params.mu_theta + eta_theta[i], zs[i])
        log_w[i] = log_utility(model, u)
    if model.constraint is not None:
        eps_c2 = model.constraint.eps_c2
        for i in range(M):
            c, _ = constraint_value_and_gradient(model.constraint, zs[i])
            log_w[i] -= 0.5 * c * c / eps_c2
    log_w += log_p_theta + log_p_y + log_p_eta_z - log_q

    if not np.any(np.isfinite(log_w)) or np.max(log_w) == -np.inf:
        raise WeightUnderflowError("all importance weights underflowed")

    lse = logsumexp(log_w)
    log_mean_w = float(lse - np.log(M))
    mean_log_w = float(np.mean(log_w))
    KL = log_mean_w - mean_log_w
    H_q = float(-0.5 * (fp.d + d_y) * LOG_2PI - 0.5 * state.logdet_joint_cov()
                - 0.5 * k * (LOG_2PI - np.log(state.tau_z)))
    ess = float(np.exp(2.0 * lse - logsumexp(2.0 * log_w)))
    kl_se = _jackknife_se(log_w)
    return ValidationReport(M, log_mean_w, mean_log_w, KL, H_q, KL / H_q, ess,
                            model.forward_calls - calls_before, kl_se, log_w)


def _jackknife_se(log_w: np.ndarray) -> float:
    """Leave-one-out standard error of log<w> - <log w>."""
    M = log_w.shape[0]
    total = logsumexp(log_w)
    frac = np.exp(log_w - total)
    with np.errstate(divide="ignore"):
        loo_lse = total + np.log1p(-np.clip(frac, None, 1.0 - 1e-16))
    loo_mean_log = (np.sum(log_w) - log_w) / (M - 1)
    loo_kl = (loo_lse - np.log(M - 1)) - loo_mean_log
    center = np.mean(loo_kl)
    return float(np.sqrt((M - 1) / M * np.sum((loo_kl - center) ** 2)))
