import numpy as np
import pytest

from vbdesign.random_field import FieldPrior
from vbdesign.vb import ModelParams, PriorConfig, initial_W


def make_field_prior(d, rng, scale=1.0, mean=0.0):
    """Random SPD prior for toy instances, held as its factor like the real one."""
    A = rng.standard_normal((d, d))
    C = scale * (A @ A.T / d + np.eye(d))
    return FieldPrior(mean, scale, 1.0, np.linalg.cholesky(C))


def prior_covariance(fp):
    """The dense C_theta0 a FieldPrior stands for, formed from its factor."""
    return fp.chol @ fp.chol.T


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
