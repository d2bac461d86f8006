"""Importance-sampling validation: q sampling, weights, divergence report."""

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.stats import multivariate_normal

from conftest import (LinearModel, joint_cov, make_field_prior, prior_covariance,
                      toy_vb_instance)
from vbdesign import cli, random_field
from vbdesign.problems import ConstraintDescriptor, constraint_value_and_gradient, log_utility
from vbdesign.validation import _draw_q, estimate_nKL, log_weight_terms
from vbdesign.vb import ModelParams, PriorConfig, initial_W, run_vbem, vb_expectation


def linear_bundle(rng, d_theta=6, d_z=5, d_y=2, n=3):
    fp = make_field_prior(d_theta, rng, mean=0.1)
    prior = PriorConfig(tau_y0=0.5, eps2=1e-3, field_prior=fp)
    G_theta = rng.standard_normal((n, d_theta))
    G_z = rng.standard_normal((n, d_z))
    model = LinearModel(G_theta, G_z, np.zeros(n), 2.0, fp)
    mu_theta = fp.mean + 0.2 * rng.standard_normal(d_theta)
    mu_z = rng.standard_normal(d_z)
    model.u_target = model.evaluate(mu_theta, mu_z) + 0.1 * rng.standard_normal(n)
    model.forward_calls = 0
    params = ModelParams(mu_z=mu_z, W=initial_W(d_z, d_y, rng), mu_theta=mu_theta)
    return model, params, prior


class TestSampleQ:
    def test_eta_z_orthogonal_to_basis(self, rng):
        model, params, prior = linear_bundle(rng)
        st = vb_expectation(model.G_theta, model.G_z, params, prior, model.tau_Q)
        _, _, eta_z, _ = _draw_q(st, params, 20, rng)
        assert np.max(np.abs(eta_z @ params.W)) <= 1e-10

    def test_joint_moments_match_state(self, rng):
        model, params, prior = linear_bundle(rng)
        st = vb_expectation(model.G_theta, model.G_z, params, prior, model.tau_Q)
        M = 10_000
        eta_theta, y, _, _ = _draw_q(st, params, M, rng)
        x = np.hstack([eta_theta, y])
        emp = x.T @ x / M
        ref = joint_cov(st)
        se = 4 * np.sqrt((np.outer(np.diag(ref), np.diag(ref))
                          + ref**2) / M)
        assert np.all(np.abs(emp - ref) <= se + 1e-12)

    def test_whitened_draws_solve_the_prior_factor(self, rng):
        # L^-1 eta_theta^T from the draw's own normals, against the solve
        model, params, prior = linear_bundle(rng)
        st = vb_expectation(model.G_theta, model.G_z, params, prior, model.tau_Q)
        eta_theta, _, _, white = _draw_q(st, params, 50, rng)
        expect = sla.solve_triangular(prior.field_prior.chol, eta_theta.T, lower=True)
        assert np.max(np.abs(white - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_draws_read_the_prior_factor_once(self, rng, monkeypatch):
        # one L product for the whole draw set, and no B_th formed
        model, params, prior = linear_bundle(rng)
        st = vb_expectation(model.G_theta, model.G_z, params, prior, model.tau_Q)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return dtrmm(*args, **kwargs)

        dtrmm = random_field.dtrmm
        monkeypatch.setattr(random_field, "dtrmm", counting)
        _draw_q(st, params, 40, rng)
        assert len(calls) == 1
        assert "B_th" not in vars(st.lowrank) and "C_thy" not in vars(st)

    def test_generator_stream_and_draws_on_a_topology_q(self):
        # a 26x17 topology q at the prior mean and the uniform design: the
        # draws consume the stream as four normal blocks in a fixed order,
        # and eta_theta is L white, the old L xi - B_th corr^T
        cfg = cli.parse_config("problem = topo\nmesh.nx = 26\nmesh.ny = 17\n")
        model = cli.build_problem(cfg)
        prior = cli.make_prior(cfg, model)
        vf = model.constraint.target_VF
        mu_z = np.full(model.d_z, np.log(vf / (1.0 - vf)))
        _, G_theta, G_z = model.evaluate_with_jacobians(model.field_prior.mean, mu_z)
        _, f = constraint_value_and_gradient(model.constraint, mu_z)
        params = ModelParams(mu_z=mu_z, W=initial_W(model.d_z, 4, np.random.default_rng(3)),
                             mu_theta=model.field_prior.mean)
        st = vb_expectation(G_theta, G_z, params, prior, model.tau_Q, f=f,
                            eps_c2=model.constraint.eps_c2)
        count, lr, L = 30, st.lowrank, model.field_prior.chol
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        eta_theta, y, eta_z, white = _draw_q(st, params, count, rng)

        xi = twin.standard_normal((st.d_theta, count))
        xy = sla.solve_triangular(lr.Py_cho[0].T, twin.standard_normal((st.d_y, count)),
                                  lower=False).T
        e = twin.standard_normal((count, G_theta.shape[0])) / np.sqrt(model.tau_Q)
        twin.standard_normal((count, model.d_z))
        assert rng.bit_generator.state == twin.bit_generator.state

        Lxi = (L @ xi).T
        corr = sla.cho_solve(lr.S_cho, (Lxi @ G_theta.T + xy @ lr.A.T + e).T).T
        scale = np.max(np.abs(eta_theta))
        assert np.max(np.abs(eta_theta - (L @ white).T)) <= 1e-12 * scale
        assert np.max(np.abs(eta_theta - (Lxi - corr @ lr.B_th.T))) <= 1e-12 * scale
        assert np.max(np.abs(y - (xy - corr @ lr.B_y.T))) <= 1e-12 * np.max(np.abs(y))

    def test_complement_variance(self, rng):
        model, params, prior = linear_bundle(rng)
        st = vb_expectation(model.G_theta, model.G_z, params, prior, model.tau_Q)
        v = rng.standard_normal(params.d_z)
        v -= params.W @ (params.W.T @ v)
        v /= np.linalg.norm(v)
        M = 10_000
        vals = _draw_q(st, params, M, rng)[2] @ v
        var = np.var(vals)
        se = (1.0 / st.tau_z) * np.sqrt(2.0 / M)
        assert abs(var - 1.0 / st.tau_z) <= 4 * se


def exact_bundle(rng, d_theta=6, d_z=5, n=3):
    """Linear model at a zero-residual point with W spanning the design
    row space: the variational family then contains the exact conditional."""
    fp = make_field_prior(d_theta, rng, mean=0.1)
    prior = PriorConfig(tau_y0=0.5, eps2=1e-3, field_prior=fp)
    G_theta = rng.standard_normal((n, d_theta))
    G_z = rng.standard_normal((n, d_z))
    model = LinearModel(G_theta, G_z, np.zeros(n), 2.0, fp)
    mu_theta = fp.mean.copy()
    mu_z = np.zeros(d_z)
    model.u_target = model.evaluate(mu_theta, mu_z)
    model.forward_calls = 0
    W = np.linalg.qr(G_z.T)[0]
    params = ModelParams(mu_z=mu_z, W=W, mu_theta=mu_theta)
    return model, params, prior


class TestLogQJoint:
    def test_constrained_lowrank_matches_dense_gaussian(self, rng):
        # with a constraint gradient the y precision carries the dense
        # rank-one term (W^T f)(W^T f)^T / eps_c2, which the low-rank
        # density must read from the Cholesky factor alone; eta_z adds the
        # isotropic Gaussian on the complement of W
        d_theta, d_z, d_y, n = 7, 9, 4, 3
        model, params, prior = linear_bundle(rng, d_theta=d_theta, d_z=d_z,
                                             d_y=d_y, n=n)
        f = rng.uniform(0.5, 1.5, d_z) / d_z
        st = vb_expectation(model.G_theta, model.G_z, params, prior, model.tau_Q,
                            f=f, eps_c2=1e-3)
        cov = joint_cov(st)
        x = rng.multivariate_normal(np.zeros(d_theta + d_y), cov, size=50)
        P = sla.null_space(params.W.T)
        eta_z = rng.standard_normal((50, d_z - d_y)) @ P.T / np.sqrt(st.tau_z)
        expect = (multivariate_normal(np.zeros(d_theta + d_y), cov).logpdf(x)
                  + multivariate_normal(np.zeros(d_z - d_y),
                                        np.eye(d_z - d_y) / st.tau_z).logpdf(eta_z @ P))
        white = sla.solve_triangular(prior.field_prior.chol, x[:, :d_theta].T, lower=True)
        draws = x[:, :d_theta], x[:, d_theta:], eta_z, white
        got = log_weight_terms(model, st, params, prior, draws)["log_q"]
        assert np.max(np.abs(got - expect)) <= 1e-8 * (1.0 + np.max(np.abs(expect)))


def constrained_toy():
    """A linear model under the volume-fraction constraint, with q fitted at
    the constraint gradient of mu_z."""
    model, params, prior = linear_bundle(np.random.default_rng(21))
    model.constraint = ConstraintDescriptor(target_VF=0.4, eps_c2=1e-2)
    _, f = constraint_value_and_gradient(model.constraint, params.mu_z)
    st = vb_expectation(model.G_theta, model.G_z, params, prior, model.tau_Q,
                        f=f, eps_c2=model.constraint.eps_c2)
    return model, params, prior, st


def small_heat():
    """The heat problem on an 8x4 grid, q fitted away from the prior mean."""
    cfg = cli.parse_config("problem = heat_flux\nmesh.nx = 8\nmesh.ny = 4\n")
    model = cli.build_problem(cfg)
    prior = cli.make_prior(cfg, model)
    rng = np.random.default_rng(22)
    params = ModelParams(mu_z=0.1 * rng.standard_normal(model.d_z),
                         W=initial_W(model.d_z, 3, rng),
                         mu_theta=model.field_prior.mean + 0.1 * rng.standard_normal(model.d_theta))
    _, G_theta, G_z = model.evaluate_with_jacobians(params.mu_theta, params.mu_z)
    st = vb_expectation(G_theta, G_z, params, prior, model.tau_Q)
    return model, params, prior, st


class TestLogWeightTerms:
    @pytest.mark.parametrize("bundle", [constrained_toy, small_heat], ids=["toy", "heat"])
    def test_columns_sum_to_the_report_log_weights(self, bundle):
        # log w is the table's columns summed in their order, bit for bit,
        # at one forward call per draw
        model, params, prior, st = bundle()
        M = 30
        rep = estimate_nKL(model, st, params, prior, M, np.random.default_rng(4))
        draws = _draw_q(st, params, M, np.random.default_rng(4))
        calls = model.forward_calls
        t = log_weight_terms(model, st, params, prior, draws)
        assert model.forward_calls - calls == M
        assert list(t) == ["log_U", "constraint", "log_p_theta", "log_p_y",
                           "log_p_eta_z", "log_q"]
        log_w = (t["log_U"] - t["constraint"]) \
            + (t["log_p_theta"] + t["log_p_y"] + t["log_p_eta_z"] - t["log_q"])
        assert np.array_equal(log_w, rep.log_weights)

    @pytest.mark.parametrize("bundle", [constrained_toy, small_heat], ids=["toy", "heat"])
    def test_constraint_column_is_the_penalty(self, bundle):
        # c^2 / (2 eps_c2) of each draw's design; zero without a constraint
        model, params, prior, st = bundle()
        eta_theta, y, eta_z, white = _draw_q(st, params, 20, np.random.default_rng(6))
        zs = params.mu_z + y @ params.W.T + eta_z
        got = log_weight_terms(model, st, params, prior, (eta_theta, y, eta_z, white))
        if model.constraint is None:
            assert np.array_equal(got["constraint"], np.zeros(20))
            return
        cs = [constraint_value_and_gradient(model.constraint, z)[0] for z in zs]
        expect = np.array(cs) ** 2 / (2.0 * model.constraint.eps_c2)
        assert np.max(np.abs(got["constraint"] - expect)) <= 1e-12 * np.max(expect)
        assert np.max(expect) > 0.0


class TestEstimateNKL:
    def test_linear_model_has_vanishing_divergence(self, rng):
        # q is exact for a linear model at its stationary point: KL within
        # Monte Carlo noise of zero
        model, params, prior = exact_bundle(rng)
        st = vb_expectation(model.G_theta, model.G_z, params, prior, model.tau_Q)
        rep = estimate_nKL(model, st, params, prior, 600, rng)
        assert abs(rep.KL_estimate) <= max(3 * rep.kl_se, 1e-6)
        assert rep.forward_calls == 600

    def test_log_weights_match_dense_densities(self, rng):
        # every density of log w from scipy's dense Gaussians, on the draws
        # the estimator takes from the same stream
        d_theta, d_z, d_y, n, M = 6, 5, 2, 3, 40
        model, params, prior = linear_bundle(rng, d_theta=d_theta, d_z=d_z,
                                             d_y=d_y, n=n)
        st = vb_expectation(model.G_theta, model.G_z, params, prior, model.tau_Q)
        got = estimate_nKL(model, st, params, prior, M,
                           np.random.default_rng(9)).log_weights

        replay = np.random.default_rng(9)
        eta_theta, y, eta_z, _ = _draw_q(st, params, M, replay)
        W = params.W
        theta = params.mu_theta + eta_theta
        zs = params.mu_z + y @ W.T + eta_z
        k = d_z - d_y
        fp = prior.field_prior
        log_u = np.array([log_utility(model, model.evaluate(t, z))
                          for t, z in zip(theta, zs)])
        log_p_theta = multivariate_normal(fp.mean, prior_covariance(fp)).logpdf(theta)
        log_p_y = multivariate_normal(np.zeros(d_y), np.eye(d_y) / prior.tau_y0).logpdf(y)
        log_q = multivariate_normal(np.zeros(d_theta + d_y),
                                    joint_cov(st)).logpdf(np.hstack([eta_theta, y]))
        sq = np.sum(eta_z**2, axis=1)
        log_eta_z = (-0.5 * (prior.tau_z0 - st.tau_z) * sq
                     + 0.5 * k * np.log(prior.tau_z0 / st.tau_z))
        expect = log_u + log_p_theta + log_p_y + log_eta_z - log_q
        assert np.max(np.abs(got - expect)) <= 1e-10 * np.max(np.abs(expect))

    def test_jensen_consistency(self, rng):
        for k in range(4):
            G_theta, G_z, params, prior, tau_Q, _ = toy_vb_instance(
                rng, d_theta=5, d_z=6, d_y=2, n=3)
            fp = prior.field_prior
            model = LinearModel(G_theta, G_z, np.zeros(3), tau_Q, fp)
            model.u_target = 0.3 * rng.standard_normal(3)
            # a deliberately mismatched state: nonlinear surrogate via wrong G
            st = vb_expectation(G_theta * (1 + 0.3 * k), G_z, params, prior, tau_Q)
            rep = estimate_nKL(model, st, params, prior, 300, rng)
            assert rep.log_mean_w - rep.mean_log_w >= -1e-12
            assert rep.KL_estimate == rep.log_mean_w - rep.mean_log_w
            assert 0 < rep.ess <= 300

    def test_seed_determinism(self, rng):
        model, params, prior = linear_bundle(rng)
        st = vb_expectation(model.G_theta, model.G_z, params, prior, model.tau_Q)
        reps = [estimate_nKL(model, st, params, prior, 200, np.random.default_rng(5))
                for _ in range(2)]
        assert reps[0].log_mean_w == reps[1].log_mean_w
        assert reps[0].nKL == reps[1].nKL
        assert np.array_equal(reps[0].log_weights, reps[1].log_weights)

    def test_requires_two_samples(self, rng):
        model, params, prior = linear_bundle(rng)
        st = vb_expectation(model.G_theta, model.G_z, params, prior, model.tau_Q)
        with pytest.raises(ValueError):
            estimate_nKL(model, st, params, prior, 1, rng)

    def test_report_lines_format(self, rng):
        model, params, prior = linear_bundle(rng)
        st = vb_expectation(model.G_theta, model.G_z, params, prior, model.tau_Q)
        rep = estimate_nKL(model, st, params, prior, 100, rng)
        keys = [ln.split(" = ")[0] for ln in rep.lines()]
        assert keys == ["M", "log_mean_w", "mean_log_w", "KL_estimate", "H_q",
                        "nKL", "ess", "forward_calls", "kl_se"]

    def test_entropy_functional_value(self, rng):
        # closed-form normalizer for a handcrafted diagonal state
        model, params, prior = linear_bundle(rng, d_theta=3, d_z=4, d_y=1)
        st = vb_expectation(0 * model.G_theta, 0 * model.G_z, params, prior,
                            model.tau_Q)
        rep = estimate_nKL(model, st, params, prior, 50, rng)
        d_theta, d_y, k = 3, 1, 3
        expect = (-0.5 * (d_theta + d_y) * np.log(2 * np.pi)
                  - 0.5 * np.linalg.slogdet(joint_cov(st))[1]
                  - 0.5 * k * (np.log(2 * np.pi) - np.log(st.tau_z)))
        assert rep.H_q == pytest.approx(expect, rel=1e-12)


class TestVbemIntegration:
    def test_divergence_shrinks_with_subspace_dimension_linear(self, rng):
        # for a linear model the divergence is exactly the missing-subspace
        # mismatch, which vanishes as d_y grows
        fp = make_field_prior(5, rng, mean=0.0)
        prior = PriorConfig(tau_y0=0.5, eps2=1e-4, field_prior=fp)
        G_theta = rng.standard_normal((4, 5))
        G_z = rng.standard_normal((4, 6))
        model = LinearModel(G_theta, G_z, np.zeros(4), 3.0, fp)
        mu_theta = fp.mean.copy()
        mu_z = rng.standard_normal(6)
        model.u_target = model.evaluate(mu_theta, mu_z)
        model.forward_calls = 0
        kls = []
        for d_y in (1, 3, 5):
            params = ModelParams(mu_z, initial_W(6, d_y, rng), mu_theta)
            out = run_vbem(G_theta, G_z, params, prior, model.tau_Q, np.zeros(4))
            rep = estimate_nKL(model, out.state, out.params, prior, 400,
                               np.random.default_rng(31))
            kls.append(rep.KL_estimate)
        assert kls[-1] <= kls[0] + 1e-6
