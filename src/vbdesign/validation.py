"""Importance-sampling check of the variational approximation.

Draws from q, runs the exact forward model once per sample, and estimates
KL(q || p_aux(. | R)) = log<w> - <log w> from the unnormalized weights
w = U p_theta p_y p_eta_z / q, whose logs `log_weight_terms` returns term
by term, one array per term. The divergence is reported normalized by
the closed-form Gaussian functional H_q = -1/2 log|2 pi Sigma_q| of q so
values are comparable across reduced dimensions d_y. H_q is d/2 minus the
entropy of q, not the entropy itself, and is negative when q is broad.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
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


def _draw_q(state: VariationalState, params: ModelParams, count, rng):
    """count draws (eta_theta, y, eta_z) from q, in that stream order, and
    the whitened draws white = L^-1 eta_theta^T for the field prior's
    factor L; eta_z lives in the complement of W.

    eta_theta^T = L xi - B_th corr^T with B_th = L X and X = L^T G_theta^T
    the state's whitened Jacobian, so white = xi - X corr^T and
    eta_theta^T = L white: the draws read L once (`FieldPrior.mul`), and no
    d_theta^2 solve runs."""
    lr = state.lowrank
    n = lr.A.shape[0]
    xi = rng.standard_normal((state.d_theta, count))
    xy = sla.solve_triangular(lr.Py_cho[0].T, rng.standard_normal((state.d_y, count)),
                              lower=False).T
    e = rng.standard_normal((count, n)) / np.sqrt(lr.tau_Q)
    resid = xi.T @ lr.X + xy @ lr.A.T + e
    corr = sla.cho_solve(lr.S_cho, resid.T).T
    xi_z = rng.standard_normal((count, params.d_z))
    eta_z = (xi_z - (xi_z @ params.W) @ params.W.T) / np.sqrt(state.tau_z)
    xi -= lr.X @ corr.T  # now the whitened draws
    return lr.prior.mul(xi).T, xy - corr @ lr.B_y.T, eta_z, xi


def log_weight_terms(model, state: VariationalState, params: ModelParams,
                     prior: PriorConfig, draws) -> dict:
    """The terms of each draw's log weight, in summation order:
    log w = (log_U - constraint) + (log_p_theta + log_p_y + log_p_eta_z - log_q)
    with constraint = c^2 / (2 eps_c2), zero without a constraint.

    draws is `_draw_q`'s (eta_theta, y, eta_z, white); each draw costs one
    exact solve. log q reads white, then the mean's whitened deviation is
    added to white in place for log p_theta: white is overwritten, and no
    second d_theta x count array raises the peak memory."""
    eta_theta, y, eta_z, white = draws
    lr, fp = state.lowrank, prior.field_prior
    count, d_y = y.shape
    k = params.d_z - d_y
    quad = np.sum(white**2, axis=0)
    # cho_factor leaves the input matrix in the unused upper triangle
    quad += np.sum((np.tril(lr.Py_cho[0]).T @ y.T) ** 2, axis=0)
    lin = eta_theta @ lr.G_theta.T + y @ lr.A.T
    quad += lr.tau_Q * np.sum(lin**2, axis=1)
    log_q = -0.5 * quad - 0.5 * (fp.d + d_y) * LOG_2PI - 0.5 * lr.logdet()
    white += fp.whiten(params.mu_theta - fp.mean)[:, None]
    log_p_eta_z = np.zeros(count)
    if k > 0:
        sq = np.sum(eta_z**2, axis=1)
        log_q = log_q - 0.5 * state.tau_z * sq + 0.5 * k * (np.log(state.tau_z) - LOG_2PI)
        log_p_eta_z = -0.5 * prior.tau_z0 * sq + 0.5 * k * (np.log(prior.tau_z0) - LOG_2PI)

    log_U, constraint = np.empty(count), np.zeros(count)
    zs = params.mu_z[None, :] + y @ params.W.T + eta_z
    for i in range(count):
        log_U[i] = log_utility(model, model.evaluate(params.mu_theta + eta_theta[i], zs[i]))
        if model.constraint is not None:
            c, _ = constraint_value_and_gradient(model.constraint, zs[i])
            constraint[i] = 0.5 * c * c / model.constraint.eps_c2
    return dict(
        log_U=log_U, constraint=constraint,
        log_p_theta=-0.5 * np.sum(white**2, axis=0) - 0.5 * fp.d * LOG_2PI - 0.5 * fp.logdet(),
        log_p_y=-0.5 * prior.tau_y0 * np.sum(y**2, axis=1)
        + 0.5 * d_y * (np.log(prior.tau_y0) - LOG_2PI),
        log_p_eta_z=log_p_eta_z, log_q=log_q)


def estimate_nKL(model, state: VariationalState, params: ModelParams,
                 prior: PriorConfig, M: int, rng: np.random.Generator) -> ValidationReport:
    """Normalized KL estimate from the log weights of M draws from q
    (`log_weight_terms`); each draw costs one exact solve."""
    if M < 2:
        raise ValueError("need at least two importance samples")
    calls_before = model.forward_calls
    t = log_weight_terms(model, state, params, prior, _draw_q(state, params, M, rng))
    log_w = (t["log_U"] - t["constraint"]) \
        + (t["log_p_theta"] + t["log_p_y"] + t["log_p_eta_z"] - t["log_q"])

    if not np.any(np.isfinite(log_w)) or np.max(log_w) == -np.inf:
        raise WeightUnderflowError("all importance weights underflowed")

    lse = logsumexp(log_w)
    log_mean_w = float(lse - np.log(M))
    mean_log_w = float(np.mean(log_w))
    KL = log_mean_w - mean_log_w
    d_y, k = params.d_y, params.d_z - params.d_y
    H_q = float(-0.5 * (state.d_theta + d_y) * LOG_2PI - 0.5 * state.lowrank.logdet()
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
