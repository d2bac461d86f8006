"""Gauss-Newton point estimation: step oracle, damping, convergence."""

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import LinearModel, make_field_prior, prior_covariance
from vbdesign.map_opt import MapOptions, _z_prior, gn_step, optimize_map
from vbdesign.problems import (
    ConstraintDescriptor,
    constraint_value_and_gradient,
    make_heat_problem,
    make_topo_problem,
)
from vbdesign.vb import PriorConfig


def linear_setup(rng, d_t=6, d_z=4, n=3, constraint=None):
    fp = make_field_prior(d_t, rng, mean=0.2)
    prior = PriorConfig(tau_y0=1e-2, eps2=1e-6, field_prior=fp)
    model = LinearModel(rng.standard_normal((n, d_t)), rng.standard_normal((n, d_z)),
                        rng.standard_normal(n), 2.0, fp, constraint=constraint)
    return model, prior


def step_at(model, prior, mu_t, mu_z, z_prior, constraint=None):
    """The residual at (mu_t, mu_z) and gn_step's (dt, dz, nu, dv) there."""
    fp = prior.field_prior
    r = model.u_target - model.evaluate(mu_t, mu_z)
    v = sla.solve_triangular(fp.chol, mu_t - fp.mean, lower=True)
    return r, gn_step(r, model.G_theta, model.G_z, mu_z, v, prior, model.tau_Q,
                      z_prior, constraint)


class FixedTheta:
    """A model whose theta Jacobian reads zero: the Gauss-Newton steps then
    keep theta at its prior mean (the deterministic, zero-variance variant)."""

    def __init__(self, model):
        self.model = model

    def __getattr__(self, name):
        return getattr(self.model, name)

    def evaluate_with_jacobians(self, theta, z):
        u, Gt, Gz = self.model.evaluate_with_jacobians(theta, z)
        return u, np.zeros_like(Gt), Gz

    def last_jacobians(self):
        Gt, Gz = self.model.last_jacobians()
        return np.zeros_like(Gt), Gz


class TestGnStep:
    @pytest.mark.parametrize("pull", ["vague", "spin_mean"])
    def test_linear_model_one_step_matches_direct_solve(self, rng, pull):
        # criterion: exact regularized least-squares solution in one step,
        # under the vague design pull and under the spin-mean pull
        model, prior = linear_setup(rng)
        mu_t = prior.mu_theta0 + 0.3 * rng.standard_normal(model.d_theta)
        mu_z = rng.standard_normal(model.d_z)
        if pull == "vague":
            phi_mean = None
            opts = MapOptions(c_z0=50.0)
        else:
            phi_mean = rng.uniform(-1.0, 1.0, model.d_z)
            opts = MapOptions()
        center, var = _z_prior(opts, phi_mean)
        r, (dt, dz, _, _) = step_at(model, prior, mu_t, mu_z, (center, var))

        fp = prior.field_prior
        C0inv = np.linalg.inv(prior_covariance(fp))
        Gt, Gz = model.G_theta, model.G_z
        tq = model.tau_Q
        H = np.block([[tq * Gt.T @ Gt + C0inv, tq * Gt.T @ Gz],
                      [tq * Gz.T @ Gt, tq * Gz.T @ Gz + np.eye(model.d_z) / var]])
        h = np.concatenate([tq * Gt.T @ r - C0inv @ (mu_t - fp.mean),
                            tq * Gz.T @ r - (mu_z - center) / var])
        sol = np.linalg.solve(H, h)
        assert np.max(np.abs(np.concatenate([dt, dz]) - sol)) < 1e-10
        # the stepped point is the exact regularized normal-equations optimum
        opt = np.linalg.solve(H, np.concatenate([
            tq * Gt.T @ (model.u_target - model.u0) + C0inv @ fp.mean,
            tq * Gz.T @ (model.u_target - model.u0) + center / var]))
        stepped = np.concatenate([mu_t + dt, mu_z + dz])
        assert np.max(np.abs(stepped - opt)) < 1e-9

    def test_zero_step_at_stationary_point(self, rng):
        model, prior = linear_setup(rng)
        mu_t = prior.mu_theta0.copy()
        mu_z = np.zeros(model.d_z)
        model.u_target = model.evaluate(mu_t, mu_z)  # residual zero at priors
        _, (dt, dz, _, _) = step_at(model, prior, mu_t, mu_z, (0.0, 1e10))
        assert np.max(np.abs(dt)) < 1e-12
        assert np.max(np.abs(dz)) < 1e-12

    def test_constrained_step_kkt(self, rng):
        model, prior = linear_setup(rng)
        mu_t = prior.mu_theta0 + 0.1 * rng.standard_normal(model.d_theta)
        mu_z = rng.standard_normal(model.d_z)
        f = rng.standard_normal(model.d_z)
        c = 0.17
        _, (dt, dz, _, _) = step_at(model, prior, mu_t, mu_z, (0.0, 10.0), (c, f))
        assert c + f @ dz == pytest.approx(0.0, abs=1e-12)

    def test_constrained_step_on_sigmoid_toy(self, rng):
        # near a feasible point the linearized-constraint step leaves only
        # the second-order constraint remainder
        desc = ConstraintDescriptor(0.4, 1e-10)
        model, prior = linear_setup(rng, d_z=8)
        mu_t = prior.mu_theta0.copy()
        mu_z = np.full(model.d_z, np.log(0.4 / 0.6)) + 0.02 * rng.standard_normal(model.d_z)
        model.u_target = model.evaluate(mu_t, mu_z)  # zero residual: pure restoration
        c, f = constraint_value_and_gradient(desc, mu_z)
        # prior centered at the current design isolates the restoration move
        _, (dt, dz, _, _) = step_at(model, prior, mu_t, mu_z, (mu_z, 1.0), (c, f))
        c_new, _ = constraint_value_and_gradient(desc, mu_z + dz)
        assert abs(c_new) <= abs(c) * 1e-2 + 1e-8

    def test_fix_theta_branch(self, rng):
        # a zero theta Jacobian at the prior mean keeps theta where it is,
        # and the design step is the design-only regularized solve
        model, prior = linear_setup(rng)
        model.G_theta = np.zeros_like(model.G_theta)
        mu_t = prior.mu_theta0.copy()
        mu_z = rng.standard_normal(model.d_z)
        r, (dt, dz, _, _) = step_at(model, prior, mu_t, mu_z, (0.0, 7.0))
        assert np.all(dt == 0.0)
        Gz, tq = model.G_z, model.tau_Q
        H = tq * Gz.T @ Gz + np.eye(model.d_z) / 7.0
        h = tq * Gz.T @ r - mu_z / 7.0
        assert np.allclose(dz, np.linalg.solve(H, h), atol=1e-10)


class TestOptimizeMap:
    def test_linear_model_converges_immediately(self, rng):
        model, prior = linear_setup(rng)
        res = optimize_map(model, prior, MapOptions(c_z0=50.0))
        assert res.converged
        assert res.forward_calls <= 4
        assert res.grad_norm <= 1e-6 * (1 + abs(res.F_mu))

    def test_damped_sequence_nondecreasing(self, rng):
        p = make_heat_problem(nx=10, ny=5, obs_x2=np.linspace(0.3, 0.7, 5))
        prior = PriorConfig(tau_y0=1e-4, eps2=1e-10, field_prior=p.field_prior)
        res = optimize_map(p, prior, MapOptions())
        F = [r["F_mu"] for r in res.trace]
        assert np.all(np.diff(F) >= -1e-8 * (1 + np.abs(np.array(F[:-1]))))

    def test_within_iteration_acceptance(self, rng):
        p = make_topo_problem(nx=8, ny=5)
        prior = PriorConfig(tau_y0=1e-4, eps2=1e-10, field_prior=p.field_prior)
        res = optimize_map(p, prior, MapOptions(max_iter=40, gibbs_sweeps=120,
                                                gibbs_burn_in=30))
        for row in res.trace[1:]:
            slack = 1e-6 * (1 + abs(row["F_pre"]))
            assert row["F_mu"] >= row["F_pre"] - abs(row["constraint_c"]) * 1e6 - slack

    def test_heat_mu_z_independent_of_init(self, rng):
        p = make_heat_problem(nx=10, ny=5, obs_x2=np.linspace(0.3, 0.7, 5))
        prior = PriorConfig(tau_y0=1e-4, eps2=1e-10, field_prior=p.field_prior)
        res1 = optimize_map(p, prior, MapOptions(tol=1e-8, max_iter=300),
                            init_mu_z=5.0 * rng.standard_normal(p.d_z))
        res2 = optimize_map(p, prior, MapOptions(tol=1e-8, max_iter=300),
                            init_mu_z=5.0 * rng.standard_normal(p.d_z))
        denom = np.linalg.norm(res1.mu_z)
        assert np.linalg.norm(res1.mu_z - res2.mu_z) / denom < 1e-6

    def test_stationarity_at_tight_tolerance(self, rng):
        p = make_heat_problem(nx=8, ny=4, obs_x2=np.linspace(0.3, 0.7, 4))
        prior = PriorConfig(tau_y0=1e-4, eps2=1e-10, field_prior=p.field_prior)
        res = optimize_map(p, prior, MapOptions(tol=1e-10, max_iter=400))
        assert res.grad_norm <= 1e-6 * (1 + abs(res.F_mu))

    def test_forward_call_accounting(self, rng):
        p = make_heat_problem(nx=8, ny=4, obs_x2=np.linspace(0.3, 0.7, 4))
        prior = PriorConfig(tau_y0=1e-4, eps2=1e-10, field_prior=p.field_prior)
        res = optimize_map(p, prior, MapOptions())
        # one call per iterate plus one per rejected damping trial
        halvings = sum(r["halvings"] for r in res.trace)
        iterates = len(res.trace)  # includes the initial evaluation
        assert res.forward_calls == iterates + halvings

    def test_topo_constraint_driven_to_zero(self):
        p = make_topo_problem(nx=10, ny=6)
        prior = PriorConfig(tau_y0=1e-4, eps2=1e-10, field_prior=p.field_prior)
        res = optimize_map(p, prior, MapOptions(max_iter=150, gibbs_sweeps=200,
                                                gibbs_burn_in=50))
        c, _ = constraint_value_and_gradient(p.constraint, res.mu_z)
        assert abs(c) <= 1e-6
        assert res.phi_mean is not None

    def test_deterministic_variant_reaches_binary_design(self):
        # zero-variance limit: theta fixed at its prior mean, design still
        # driven to a bimodal, constraint-feasible layout
        p = make_topo_problem(nx=10, ny=6)
        prior = PriorConfig(tau_y0=1e-4, eps2=1e-10, field_prior=p.field_prior)
        res = optimize_map(FixedTheta(p), prior, MapOptions(max_iter=150, gibbs_sweeps=200,
                                                            gibbs_burn_in=50))
        assert np.array_equal(res.mu_theta, p.field_prior.mean)
        c, _ = constraint_value_and_gradient(p.constraint, res.mu_z)
        assert abs(c) <= 1e-6
        s = 1.0 / (1.0 + np.exp(-res.mu_z))
        assert np.mean((s < 0.05) | (s > 0.95)) > 0.8


class TestFrozenTail:
    def test_mixed_tail_lands_on_tightly_converged_point(self):
        # the frozen tail converges only linearly under plain Gauss-Newton;
        # the mixed tail must reach the same fixed point that a run to a
        # 1e-9 step tolerance reaches, not merely stop where steps get small
        def run(**kw):
            p = make_topo_problem(nx=10, ny=6)
            prior = PriorConfig(tau_y0=1e-4, eps2=1e-10, field_prior=p.field_prior)
            return optimize_map(p, prior, MapOptions(max_iter=400, gibbs_sweeps=200,
                                                     gibbs_burn_in=50, **kw))

        res = run()
        tight = run(tol=1e-9)
        assert res.converged and tight.converged
        assert any(row["accelerated"] for row in res.trace)
        assert tight.grad_norm <= 1e-5 * (1.0 + abs(tight.F_mu))
        err = np.max(np.abs(res.mu_z - tight.mu_z)) / np.max(np.abs(tight.mu_z))
        assert err <= 1e-6

    def test_forward_call_accounting_counts_rejected_mixes(self):
        p = make_topo_problem(nx=10, ny=6)
        prior = PriorConfig(tau_y0=1e-4, eps2=1e-10, field_prior=p.field_prior)
        res = optimize_map(p, prior, MapOptions(max_iter=400, gibbs_sweeps=200,
                                                gibbs_burn_in=50))
        halvings = sum(r["halvings"] for r in res.trace)
        # this run rejects at least one mixed trial, on top of its halvings
        assert res.rejected_trials > halvings
        assert res.iterations == len(res.trace) - 1
        assert res.forward_calls == 1 + res.iterations + res.rejected_trials
