import collections
import functools

import numpy as np
import pytest
import scipy.linalg as sla

from vbdesign.mesh_fem import build_regular_mesh
from vbdesign.random_field import FieldPrior
from vbdesign.topo_prior import (BETA_BOUNDS, BETA_STEP, MODE_LOCATION, build_neighbor_graph,
                                 estimate_phi_mean, new_state)
from vbdesign.vb import ModelParams, PriorConfig, initial_W


def make_field_prior(d, rng, scale=1.0, mean=0.0):
    """Random SPD prior for toy instances, held as its factor like the real one."""
    A = rng.standard_normal((d, d))
    C = scale * (A @ A.T / d + np.eye(d))
    return FieldPrior(mean, scale, 1.0, np.linalg.cholesky(C))


def prior_covariance(fp):
    """The dense C_theta0 a FieldPrior stands for, formed from its factor."""
    return fp.chol @ fp.chol.T


# ---------------------------------------------------------------------------
# Dense reference of q. The package holds q only in low-rank form; these
# plain-array helpers spell out the dense Gaussians it stands for, at
# (d_theta + d_y)^2 or (d_theta + d_z)^2 cost, for the oracle tests.
# ---------------------------------------------------------------------------

def theta_block(state):
    """Dense C_thth = C_theta0 - B_th S^-1 B_th^T from a state's factors."""
    lr = state.lowrank
    return prior_covariance(lr.prior) - lr.B_th @ sla.cho_solve(lr.S_cho, lr.B_th.T)


def joint_cov(state):
    """Dense covariance of (eta_theta, y) under a state's q."""
    return np.block([[theta_block(state), state.C_thy],
                     [state.C_thy.T, state.C_yy]])


def dense_expectation(G_theta, G_z, params, prior, tau_Q, f=None, eps_c2=None):
    """The q of `vb.vb_expectation` by inverting the dense joint precision.

    Returns the (eta_theta, y) covariance and tau_z. The precision is
    tau_Q J^T J + blockdiag(C_theta0^-1, Py) with J = [G_theta, G_z W], and
    tau_z averages the complement's data over its k = d_z - d_y directions.
    """
    W = params.W
    d_z, d_y = W.shape
    d_theta = G_theta.shape[1]
    P_perp = np.eye(d_z) - W @ W.T
    Py = prior.tau_y0 * np.eye(d_y)
    T = tau_Q * np.sum((G_z @ P_perp) ** 2)
    if f is not None:
        Py = Py + np.outer(W.T @ f, W.T @ f) / eps_c2
        T += float(f @ P_perp @ f) / eps_c2
    k = d_z - d_y
    tau_z = prior.tau_z0 + (T / k if k > 0 else 0.0)
    J = np.hstack([G_theta, G_z @ W])
    prec = tau_Q * J.T @ J
    prec[:d_theta, :d_theta] += np.linalg.inv(prior_covariance(prior.field_prior))
    prec[d_theta:, d_theta:] += Py
    cov = sla.cho_solve(sla.cho_factor(0.5 * (prec + prec.T), lower=True),
                        np.eye(d_theta + d_y))
    return 0.5 * (cov + cov.T), tau_z


def dense_bound(cov, tau_z, params, prior, tau_Q, residual, G_theta, G_z, f=None,
                eps_c2=None, log_p_mu_z=0.0, c_mu=0.0):
    """The variational bound E_q[log(U_lin p / q)] from the Gaussian densities.

    q is N(0, cov) on (eta_theta, y) and N(0, (I - W W^T) / tau_z) on eta_z,
    so x = (eta_theta, z - mu_z) is N(0, Sigma) in d_theta + d_z dimensions.
    Each term is the expectation of one log density under that Gaussian:
    the linearized utility -tau_Q/2 |r - [G_theta, G_z] x|^2, the field prior
    N(mu_theta0, C_theta0) at mu_theta + eta_theta, the design prior with
    precision tau_y0 on span(W) and tau_z0 on its complement, the linearized
    soft constraint c_mu + f^T (z - mu_z), and -log q.
    """
    W = params.W
    d_z, d_y = W.shape
    d_theta = G_theta.shape[1]
    P_perp = np.eye(d_z) - W @ W.T
    E = np.zeros((d_theta + d_z, d_theta + d_y))
    E[:d_theta, :d_theta] = np.eye(d_theta)
    E[d_theta:, d_theta:] = W
    Sigma = E @ cov @ E.T
    Sigma[d_theta:, d_theta:] += P_perp / tau_z
    S_thth, S_zz = Sigma[:d_theta, :d_theta], Sigma[d_theta:, d_theta:]
    r = np.asarray(residual, dtype=float)
    G = np.hstack([G_theta, G_z])

    def expected_log_normal(prec_second_moment, logdet_cov, dim):
        return -0.5 * (prec_second_moment + logdet_cov + dim * np.log(2 * np.pi))

    log_U = -0.5 * tau_Q * (r @ r + np.trace(G @ Sigma @ G.T))
    fp = prior.field_prior
    C0 = prior_covariance(fp)
    dev = params.mu_theta - fp.mean
    log_p_theta = expected_log_normal(
        dev @ np.linalg.solve(C0, dev) + np.trace(np.linalg.solve(C0, S_thth)),
        np.linalg.slogdet(C0)[1], d_theta)
    Lam = prior.tau_y0 * W @ W.T + prior.tau_z0 * P_perp
    log_p_z = expected_log_normal(np.sum(Lam * S_zz), -np.linalg.slogdet(Lam)[1], d_z)
    entropy = 0.5 * np.linalg.slogdet(Sigma)[1] \
        + 0.5 * (d_theta + d_z) * (np.log(2 * np.pi) + 1.0)
    total = log_U + log_p_theta + log_p_z + entropy + log_p_mu_z
    if f is not None:
        total -= 0.5 / eps_c2 * (c_mu**2 + f @ S_zz @ f)
    return float(total)


# ---------------------------------------------------------------------------
# Raster reference of the spin chain. The package runs Jacobi passes to the
# raster sweep's fixed point on the sites that can still flip; these helpers
# offer every site a flip one at a time in index order and score the beta
# move on all rows, drawing the same stream, for the oracle and statistical
# tests.
# ---------------------------------------------------------------------------

def raster_sweep(phi, neighbors, drive, beta, log_u):
    """One site at a time in index order, in place."""
    spins = phi.tolist()
    lu = log_u.tolist()
    for j, (row, dj) in enumerate(zip(neighbors.tolist(), drive.tolist())):
        ssum = 0.0
        for nb in row:
            if nb >= 0:
                ssum += spins[nb]
        if lu[j] < -2.0 * spins[j] * (dj - beta * ssum):
            spins[j] = -spins[j]
    phi[:] = spins


def raster_phi_mean(neighbors, mu_z, sweeps, burn_in, rng, m=MODE_LOCATION, s2=1.0,
                    phi=None, beta=0.0, update_beta=True, trace=None, proposals=None):
    """Reference estimate_phi_mean on the raster kernel, drawing the same stream.

    Spins start from `phi` (default: the data side of mu_z). `trace`, when
    given, collects (spins, beta) after each sweep and its beta move, and
    `proposals` the beta proposals. Returns (phi_mean, phi, beta).
    """
    phi = np.where(mu_z >= 0.0, 1, -1).astype(np.int8) if phi is None else phi.copy()
    drive = (m / s2) * mu_z
    acc = np.zeros(len(phi))
    for t in range(sweeps):
        with np.errstate(divide="ignore"):
            log_u = np.log(rng.random(len(phi)))
        raster_sweep(phi, neighbors, drive, beta, log_u)
        if update_beta:
            prop = beta + BETA_STEP * rng.standard_normal()
            log_a = np.log(rng.random())
            if proposals is not None:
                proposals.append(prop)
            if BETA_BOUNDS[0] <= prop <= BETA_BOUNDS[1]:
                sums = np.where(neighbors >= 0, phi[neighbors], 0).astype(float).sum(axis=1)
                f = phi.astype(float)

                def pll(b):
                    a = drive - b * sums
                    return float(np.sum(f * a - np.logaddexp(a, -a)))
                if log_a < pll(prop) - pll(beta):
                    beta = float(prop)
        if trace is not None:
            trace.append((phi.copy(), beta))
        if t >= burn_in:
            acc += phi
    return acc / (sweeps - burn_in), phi, beta


def sweep_levels(neighbors):
    """Level of each site in the raster scan's dependency order.

    For i < j with i listed by j or j listed by i, level(j) > level(i), and
    each level is as low as that allows (longest-path layering), so the
    longest chain has max level + 1 sites, and a sweep of estimate_phi_mean
    takes at most that many passes. Found by relaxing all pairs at once
    until no level grows.
    """
    d, width = neighbors.shape
    rows = np.repeat(np.arange(d), width)
    cols = neighbors.ravel()
    keep = (cols >= 0) & (cols != rows)
    lo = np.minimum(rows[keep], cols[keep])
    hi = np.maximum(rows[keep], cols[keep])
    level = np.zeros(d, dtype=np.intp)
    while True:
        cand = level[lo] + 1
        late = cand > level[hi]
        if not late.any():
            return level
        np.maximum.at(level, hi[late], cand[late])


def generator_state(gen):
    """Bit-generator state of a Generator or of a stand-in wrapping one as `rng`."""
    return getattr(gen, "rng", gen).bit_generator.state


def replay_chain(neighbors, mu_z, sweeps, burn_in, make_rng, m=MODE_LOCATION, s2=1.0,
                 phi=None, beta=0.0, update_beta=True, trace=None, proposals=None):
    """The raster reference and whether estimate_phi_mean reproduces it.

    Both chains start from the same spins and beta and draw from their own
    `make_rng()` stream. They agree when phi_mean, the final spins, beta and
    the generator state are all equal. Returns the reference's
    (phi_mean, phi, beta) and that verdict.
    """
    ref_rng, rng = make_rng(), make_rng()
    ref = raster_phi_mean(neighbors, mu_z, sweeps, burn_in, ref_rng, m, s2, phi, beta,
                          update_beta, trace, proposals)
    st = new_state(neighbors, mu_z, m=m, s2=s2, beta=beta)
    if phi is not None:
        st.phi[:] = phi
    pm = estimate_phi_mean(st, mu_z, sweeps, burn_in, rng, update_beta)
    same = (np.array_equal(pm, ref[0]) and np.array_equal(st.phi, ref[1])
            and st.beta == ref[2] and generator_state(rng) == generator_state(ref_rng))
    return ref, same


@functools.cache
def four_site_chain():
    """The 100,000-sweep chain on the 4-element path (2x1 grid), run once per session.

    It draws from seed 17 at beta = -0.4 with no beta move, through
    replay_chain. Returns the table, mu, m, s2, beta, the visits of each
    spin state (tuples of +-1) after the 1000 burn-in sweeps, and whether
    estimate_phi_mean reproduced the raster reference.
    """
    nb = build_neighbor_graph(build_regular_mesh(2, 1, 1.0, 0.5))
    mu = np.array([0.3, -0.2, 0.4, -0.5])
    m, s2, beta = 1.0, 1.0, -0.4
    trace = []
    _, same = replay_chain(nb, mu, 100_000, 1000, lambda: np.random.default_rng(17), m=m,
                           s2=s2, beta=beta, update_beta=False, trace=trace)
    visits = collections.Counter(tuple(phi.tolist()) for phi, _ in trace[1000:])
    return nb, mu, m, s2, beta, visits, same


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def toy_vb_instance(rng, d_theta=4, d_z=6, d_y=2, n=3, tau_y0=1e-2, eps2=1e-4,
                    tau_Q=1.5):
    """Small consistent bundle (G_theta, G_z, params, prior, tau_Q, residual)."""
    fp = make_field_prior(d_theta, rng)
    prior = PriorConfig(tau_y0=tau_y0, eps2=eps2, field_prior=fp)
    G_theta = rng.standard_normal((n, d_theta))
    G_z = rng.standard_normal((n, d_z))
    params = ModelParams(mu_z=rng.standard_normal(d_z),
                         W=initial_W(d_z, d_y, rng),
                         mu_theta=fp.mean + 0.1 * rng.standard_normal(d_theta))
    residual = rng.standard_normal(n)
    return G_theta, G_z, params, prior, tau_Q, residual


class LinearModel:
    """Forward model with exactly linear outputs, for oracle tests."""

    def __init__(self, G_theta, G_z, u_target, tau_Q, field_prior, u0=None,
                 constraint=None):
        self.G_theta = np.asarray(G_theta, dtype=float)
        self.G_z = np.asarray(G_z, dtype=float)
        self.n, self.d_theta = self.G_theta.shape
        self.d_z = self.G_z.shape[1]
        self.u_target = np.asarray(u_target, dtype=float)
        self.tau_Q = tau_Q
        self.field_prior = field_prior
        self.constraint = constraint
        self.u0 = np.zeros(self.n) if u0 is None else np.asarray(u0, dtype=float)
        self.forward_calls = 0
        self.mesh = None

    def evaluate(self, theta, z):
        self.forward_calls += 1
        return self.u0 + self.G_theta @ theta + self.G_z @ z

    def last_jacobians(self):
        return self.G_theta.copy(), self.G_z.copy()

    def evaluate_with_jacobians(self, theta, z):
        return self.evaluate(theta, z), *self.last_jacobians()
