"""Closed-form expectation update, bound evaluation, direction extraction.

The central oracle: on a small instance, the closed-form update must agree
with a brute-force numeric maximization of the quadraticized bound over the
covariance blocks and the complement precision.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from conftest import (dense_bound, dense_expectation, joint_cov, make_field_prior,
                      prior_covariance, theta_block, toy_vb_instance)
from vbdesign import random_field, stiefel, vb
from vbdesign.vb import (
    ModelParams,
    PriorConfig,
    evaluate_F,
    initial_W,
    run_vbem,
    sample_designs,
    sensitive_directions,
    vb_expectation,
)


class TestVbExpectation:
    def test_prior_recovery_with_zero_jacobians(self, rng):
        G_theta, G_z, params, prior, tau_Q, _ = toy_vb_instance(rng)
        st = vb_expectation(0 * G_theta, 0 * G_z, params, prior, tau_Q)
        assert np.allclose(theta_block(st), prior_covariance(prior.field_prior),
                           atol=1e-10)
        assert np.allclose(st.C_thy, 0.0, atol=1e-12)
        assert np.allclose(st.C_yy, np.eye(params.d_y) / prior.tau_y0, atol=1e-8)
        assert st.tau_z == pytest.approx(prior.tau_z0)

    def test_scalar_toy_hand_inverse(self, rng):
        # d_theta = d_y = 1, d_z = 2, W = e1, unit data: invert 2x2 by hand
        fp = make_field_prior(1, rng)
        fp.chol[0, 0] = 1.0
        prior = PriorConfig(tau_y0=1.0, eps2=0.5, field_prior=fp)
        params = ModelParams(np.zeros(2), np.eye(2)[:, :1], np.zeros(1))
        G_theta = np.array([[1.0]])
        G_z = np.array([[1.0, 0.0]])
        st = vb_expectation(G_theta, G_z, params, prior, 1.0)
        prec = np.array([[1.0 + 1.0, 1.0], [1.0, 1.0 + 1.0]])
        cov = np.linalg.inv(prec)
        assert theta_block(st)[0, 0] == pytest.approx(cov[0, 0])
        assert st.C_thy[0, 0] == pytest.approx(cov[0, 1])
        assert st.C_yy[0, 0] == pytest.approx(cov[1, 1])
        # complement direction carries no data: tau_z = tau_z0
        assert st.tau_z == pytest.approx(prior.tau_z0 + 0.0)

    def test_dense_and_lowrank_paths_agree(self, rng):
        # vb_expectation against the dense reference on both sides of the
        # size that once switched between them
        for d_theta in (1, 30, 300):
            G_theta, G_z, params, prior, tau_Q, _ = toy_vb_instance(
                rng, d_theta=d_theta, d_z=8, d_y=3, n=4)
            f = rng.standard_normal(params.d_z)
            for kw in ({}, dict(f=f, eps_c2=1e-4)):
                cov, tau_z = dense_expectation(G_theta, G_z, params, prior, tau_Q, **kw)
                sl = vb_expectation(G_theta, G_z, params, prior, tau_Q, **kw)
                d = d_theta
                assert np.allclose(cov[:d, :d], theta_block(sl), atol=1e-9)
                assert np.allclose(cov[:d, d:], sl.C_thy, atol=1e-9)
                assert np.allclose(cov[d:, d:], sl.C_yy, atol=1e-9)
                assert tau_z == pytest.approx(sl.tau_z)
                assert np.linalg.slogdet(cov)[1] == pytest.approx(sl.lowrank.logdet(),
                                                                  abs=1e-8)

    def test_closed_form_matches_brute_force_maximization(self, rng):
        # d_theta=2, d_y=1, d_z=3: optimize F numerically over the Cholesky
        # factor of the joint block and log tau_z, then compare
        G_theta, G_z, params, prior, tau_Q, residual = toy_vb_instance(
            rng, d_theta=2, d_z=3, d_y=1, n=2, tau_y0=0.5, eps2=0.1, tau_Q=1.2)
        st = vb_expectation(G_theta, G_z, params, prior, tau_Q)
        d = 3  # joint dimension of (eta_theta, y)

        def unpack(x):
            L = np.zeros((d, d))
            L[np.tril_indices(d)] = x[:-1]
            ii = np.diag_indices(d)
            L[ii] = np.exp(L[ii])
            cov = L @ L.T
            return cov, np.exp(x[-1])

        def neg_F(x):
            cov, tau_z = unpack(x)
            F = dense_bound(cov, tau_z, params, prior, tau_Q, residual, G_theta, G_z)
            return -F if np.isfinite(F) else 1e12

        x0 = np.zeros(d * (d + 1) // 2 + 1)
        x0[-1] = np.log(prior.tau_z0 * 10)
        out = scipy.optimize.minimize(neg_F, x0, method="Nelder-Mead",
                                      options=dict(maxiter=20000, xatol=1e-12, fatol=1e-14))
        cov_opt, tau_z_opt = unpack(out.x)
        joint = joint_cov(st)
        assert np.max(np.abs(cov_opt - joint)) < 1e-6
        assert abs(tau_z_opt - st.tau_z) / st.tau_z < 1e-6
        # and the closed form attains at least the numeric maximum
        F_closed = evaluate_F(st, params, prior, residual, G_z)
        assert F_closed >= -out.fun - 1e-9

    @pytest.mark.parametrize("constrained", [False, True])
    def test_C_yy_exactly_symmetric(self, rng, constrained):
        # sensitive_directions and sample_designs use C_yy without
        # symmetrizing it again
        G_theta, G_z, params, prior, tau_Q, _ = toy_vb_instance(
            rng, d_theta=7, d_z=9, d_y=5, n=4)
        kw = dict(f=rng.standard_normal(params.d_z), eps_c2=1e-3) if constrained else {}
        st = vb_expectation(G_theta, G_z, params, prior, tau_Q, **kw)
        assert np.array_equal(st.C_yy, st.C_yy.T)

    def test_rejects_nonorthonormal_W(self, rng):
        G_theta, G_z, params, prior, tau_Q, _ = toy_vb_instance(rng)
        bad = replace(params, W=params.W * 1.01)
        with pytest.raises(ValueError):
            vb_expectation(G_theta, G_z, bad, prior, tau_Q)


class TestConstrainedExpectation:
    def test_zero_gradient_reduces_to_unconstrained(self, rng):
        G_theta, G_z, params, prior, tau_Q, _ = toy_vb_instance(rng)
        st0 = vb_expectation(G_theta, G_z, params, prior, tau_Q)
        st1 = vb_expectation(G_theta, G_z, params, prior, tau_Q,
                             f=np.zeros(params.d_z), eps_c2=1e-10)
        assert np.allclose(st0.C_yy, st1.C_yy)
        assert st0.tau_z == pytest.approx(st1.tau_z)

    def test_in_span_gradient_leaves_tau_z(self, rng):
        G_theta, G_z, params, prior, tau_Q, _ = toy_vb_instance(rng)
        f = params.W @ rng.standard_normal(params.d_y)
        st0 = vb_expectation(G_theta, G_z, params, prior, tau_Q)
        st1 = vb_expectation(G_theta, G_z, params, prior, tau_Q, f=f, eps_c2=1e-10)
        assert st1.tau_z == pytest.approx(st0.tau_z, rel=1e-12)

    def test_constraint_variance_pinched(self, rng):
        G_theta, G_z, params, prior, tau_Q, _ = toy_vb_instance(rng)
        f = params.W @ np.eye(params.d_y)[:, 0]  # unit vector in span(W)
        eps_c2 = 1e-10
        st = vb_expectation(G_theta, G_z, params, prior, tau_Q, f=f, eps_c2=eps_c2)
        W = params.W
        C_zz = W @ st.C_yy @ W.T + (np.eye(params.d_z) - W @ W.T) / st.tau_z
        assert float(f @ C_zz @ f) <= 2 * eps_c2


class TestEvaluateF:
    def test_bitwise_idempotent(self, rng):
        G_theta, G_z, params, prior, tau_Q, residual = toy_vb_instance(rng)
        st = vb_expectation(G_theta, G_z, params, prior, tau_Q)
        a = evaluate_F(st, params, prior, residual, G_z)
        b = evaluate_F(st, params, prior, residual, G_z)
        assert a == b

    @pytest.mark.parametrize("d_theta", [1, 30, 300])
    def test_matches_dense_bound(self, rng, d_theta):
        # evaluate_F's trace forms at vb_expectation's q against the bound
        # written from the dense Gaussian densities
        G_theta, G_z, params, prior, tau_Q, residual = toy_vb_instance(
            rng, d_theta=d_theta, d_z=8, d_y=3, n=4)
        f = rng.standard_normal(params.d_z)
        for kw in ({}, dict(f=f, eps_c2=1e-4)):
            st = vb_expectation(G_theta, G_z, params, prior, tau_Q, **kw)
            kw.update(log_p_mu_z=-0.37, c_mu=0.2)
            F = evaluate_F(st, params, prior, residual, G_z, **kw)
            ref = dense_bound(joint_cov(st), st.tau_z, params, prior, tau_Q, residual,
                              G_theta, G_z, **kw)
            assert F == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_monotone_over_recorded_run(self, rng):
        G_theta, G_z, params, prior, tau_Q, residual = toy_vb_instance(
            rng, d_theta=8, d_z=6, d_y=2, n=3)
        out = run_vbem(G_theta, G_z, params, prior, tau_Q, residual)
        flat = [v for pair in out.F_history for v in pair]
        diffs = np.diff(flat)
        assert np.all(diffs >= -1e-8 * (1.0 + np.abs(np.array(flat[:-1]))))

    def test_matches_monte_carlo_estimate(self, rng):
        # F with all constants equals E_q[log(U_lin p / q)]; estimate the
        # expectation by sampling q directly
        G_theta, G_z, params, prior, tau_Q, residual = toy_vb_instance(
            rng, d_theta=3, d_z=4, d_y=2, n=2, tau_y0=0.8, eps2=0.3)
        st = vb_expectation(G_theta, G_z, params, prior, tau_Q)
        F = evaluate_F(st, params, prior, residual, G_z)

        M = 100_000
        d_theta, d_z, d_y = 3, 4, 2
        k = d_z - d_y
        L = np.linalg.cholesky(joint_cov(st))
        x = rng.standard_normal((M, d_theta + d_y)) @ L.T
        eta_th, y = x[:, :d_theta], x[:, d_theta:]
        xi = rng.standard_normal((M, d_z))
        W = params.W
        eta_z = (xi - (xi @ W) @ W.T) / np.sqrt(st.tau_z)

        lin = residual[None, :] - eta_th @ G_theta.T - (y @ W.T + eta_z) @ G_z.T
        log_U = -0.5 * tau_Q * np.sum(lin**2, axis=1)
        fp = prior.field_prior
        dev = params.mu_theta[None, :] + eta_th - fp.mean[None, :]
        sol = np.linalg.solve(prior_covariance(fp), dev.T).T
        log_p_th = -0.5 * np.sum(dev * sol, axis=1) - 0.5 * d_theta * np.log(2 * np.pi) \
            - 0.5 * fp.logdet()
        log_p_y = -0.5 * prior.tau_y0 * np.sum(y**2, axis=1) \
            + 0.5 * d_y * np.log(prior.tau_y0 / (2 * np.pi))
        log_p_ez = -0.5 * prior.tau_z0 * np.sum(eta_z**2, axis=1) \
            + 0.5 * k * np.log(prior.tau_z0 / (2 * np.pi))
        sol_q = np.linalg.solve(joint_cov(st), x.T).T
        log_q = -0.5 * np.sum(x * sol_q, axis=1) - 0.5 * (d_theta + d_y) * np.log(2 * np.pi) \
            - 0.5 * st.lowrank.logdet() \
            - 0.5 * st.tau_z * np.sum(eta_z**2, axis=1) + 0.5 * k * np.log(st.tau_z / (2 * np.pi))
        vals = log_U + log_p_th + log_p_y + log_p_ez - log_q
        se = np.std(vals) / np.sqrt(M)
        assert abs(np.mean(vals) - F) < 3 * se

    def test_exact_at_prior_complement_precision(self, rng):
        # span(W) holds G_z^T and f, so the complement sums vanish and tau_z
        # sits at tau_z0 = 1e-14. In coordinates where W = [I; 0] the
        # projections are exactly zero; F is invariant under a rotation of
        # the design space, so the rotated instance must give the same F
        d_z, d_y, n, eps_c2 = 40, 6, 4, 1e-2
        G_theta, _, params, prior, tau_Q, residual = toy_vb_instance(
            rng, d_theta=5, d_z=d_z, d_y=d_y, n=n, tau_y0=1e-4, eps2=1e-10)
        G_z = np.zeros((n, d_z))
        G_z[:, :d_y] = rng.standard_normal((n, d_y))
        f = np.zeros(d_z)
        f[:d_y] = rng.standard_normal(d_y)
        W = np.eye(d_z)[:, :d_y]

        def bound(R):
            p = replace(params, W=R @ W)
            kw = dict(f=R @ f, eps_c2=eps_c2)
            st = vb_expectation(G_theta, G_z @ R.T, p, prior, tau_Q, **kw)
            return evaluate_F(st, p, prior, residual, G_z @ R.T, **kw)

        exact = bound(np.eye(d_z))
        for _ in range(3):
            assert bound(initial_W(d_z, d_z, rng)) == pytest.approx(exact, abs=1e-6)

    def test_nonfinite_term_reported(self, rng):
        G_theta, G_z, params, prior, tau_Q, residual = toy_vb_instance(rng)
        st = vb_expectation(G_theta, G_z, params, prior, tau_Q)
        bad = replace(st, tau_z=np.inf)
        with pytest.raises(FloatingPointError):
            evaluate_F(bad, params, prior, residual, G_z)


class TestFactorProducts:
    """q reads the prior factor L once per update, and forms B_th = C0 G_theta^T
    and C_thy only when they are read."""

    def test_one_factor_product_per_update(self, rng, monkeypatch):
        G_theta, G_z, params, prior, tau_Q, residual = toy_vb_instance(rng, d_theta=9)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return dtrmm(*args, **kwargs)

        dtrmm = random_field.dtrmm
        monkeypatch.setattr(random_field, "dtrmm", counting)
        st = vb_expectation(G_theta, G_z, params, prior, tau_Q)
        evaluate_F(st, params, prior, residual, G_z)
        assert len(calls) == 1
        assert "B_th" not in vars(st.lowrank) and "C_thy" not in vars(st)
        st.C_thy
        assert len(calls) == 2 and st.lowrank.B_th is st.lowrank.B_th
        st.C_thy
        assert len(calls) == 2

    def test_on_demand_blocks_match_dense(self, rng):
        G_theta, G_z, params, prior, tau_Q, _ = toy_vb_instance(rng, d_theta=9, n=4)
        f = rng.standard_normal(params.d_z)
        st = vb_expectation(G_theta, G_z, params, prior, tau_Q, f=f, eps_c2=1e-2)
        C0 = prior_covariance(prior.field_prior)
        A = G_z @ params.W
        fW = params.W.T @ f
        Py = prior.tau_y0 * np.eye(params.d_y) + np.outer(fW, fW) / 1e-2
        B_th = C0 @ G_theta.T
        B_y = np.linalg.solve(Py, A.T)
        S = np.eye(4) / tau_Q + G_theta @ B_th + A @ B_y
        C_thy = -B_th @ np.linalg.solve(S, B_y.T)

        def rel(x, ref):
            return np.max(np.abs(x - ref)) / np.max(np.abs(ref))

        assert rel(st.lowrank.B_th, B_th) <= 1e-12
        assert rel(st.lowrank.M, G_theta @ B_th) <= 1e-12
        assert rel(st.C_thy, C_thy) <= 1e-12
        assert rel(st.GC_thy, G_theta @ C_thy) <= 1e-12


class TestSensitiveDirections:
    def test_diagonal_C_yy_returns_W(self, rng):
        G_theta, G_z, params, prior, tau_Q, _ = toy_vb_instance(rng)
        st = vb_expectation(0 * G_theta, 0 * G_z, params, prior, tau_Q)
        spec = sensitive_directions(st, params)
        # C_yy is isotropic: any orthonormal rotation of W is valid, and the
        # returned directions must stay inside span(W)
        P = params.W @ params.W.T
        assert np.allclose(P @ spec.W_hat, spec.W_hat, atol=1e-10)
        # with a genuinely diagonal distinct C_yy the columns match W
        st2 = replace(st, C_yy=np.diag([0.5, 2.0]))
        spec2 = sensitive_directions(st2, params)
        overlap = np.abs(spec2.W_hat.T @ params.W)
        assert np.allclose(overlap, np.eye(2), atol=1e-10)

    def test_eigen_structure(self, rng):
        G_theta, G_z, params, prior, tau_Q, _ = toy_vb_instance(
            rng, d_theta=6, d_z=8, d_y=3, n=4)
        st = vb_expectation(G_theta, G_z, params, prior, tau_Q)
        spec = sensitive_directions(st, params)
        assert np.all(np.diff(spec.sigma2) >= 0)
        WtW = spec.W_hat.T @ spec.W_hat
        assert np.allclose(WtW, np.eye(3), atol=1e-10)
        # W_hat^T C_zz W_hat is diagonal with entries sigma2
        W = params.W
        C_zz = W @ st.C_yy @ W.T + (np.eye(8) - W @ W.T) / st.tau_z
        D = spec.W_hat.T @ C_zz @ spec.W_hat
        assert np.allclose(D, np.diag(spec.sigma2), atol=1e-10)

    def test_smallest_eigenvalues_of_C_zz(self, rng):
        G_theta, G_z, params, prior, tau_Q, _ = toy_vb_instance(
            rng, d_theta=6, d_z=8, d_y=3, n=4, tau_y0=10.0)
        st = vb_expectation(G_theta, G_z, params, prior, tau_Q)
        spec = sensitive_directions(st, params)
        W = params.W
        C_zz = W @ st.C_yy @ W.T + (np.eye(8) - W @ W.T) / st.tau_z
        evals = np.linalg.eigvalsh(C_zz)
        if spec.sigma2.max() < 1.0 / st.tau_z:
            assert np.allclose(spec.sigma2, evals[:3], rtol=1e-10)

    def test_permutation_invariance(self, rng):
        G_theta, G_z, params, prior, tau_Q, residual = toy_vb_instance(
            rng, d_theta=5, d_z=7, d_y=3, n=3)
        st = vb_expectation(G_theta, G_z, params, prior, tau_Q)
        F = evaluate_F(st, params, prior, residual, G_z)
        spec = sensitive_directions(st, params)
        perm = [2, 0, 1]
        params_p = replace(params, W=params.W[:, perm])
        st_p = vb_expectation(G_theta, G_z, params_p, prior, tau_Q)
        F_p = evaluate_F(st_p, params_p, prior, residual, G_z)
        spec_p = sensitive_directions(st_p, params_p)
        assert F_p == pytest.approx(F, rel=1e-12)
        assert np.allclose(spec_p.sigma2, spec.sigma2, rtol=1e-10)

    def test_prior_scale_sanity(self, rng):
        # doubling the prior variance cannot decrease topped-off variances
        G_theta, G_z, params, prior, tau_Q, _ = toy_vb_instance(
            rng, d_theta=4, d_z=8, d_y=4, n=2)
        st = vb_expectation(G_theta, G_z, params, prior, tau_Q)
        s1 = sensitive_directions(st, params).sigma2
        prior2 = PriorConfig(tau_y0=prior.tau_y0 / 2, eps2=prior.eps2,
                             field_prior=prior.field_prior)
        st2 = vb_expectation(G_theta, G_z, params, prior2, tau_Q)
        s2 = sensitive_directions(st2, params).sigma2
        plateau = np.abs(s1 - 1.0 / prior.tau_y0) < 0.1 / prior.tau_y0
        assert np.all(s2[plateau] >= s1[plateau] * (1 - 1e-9))


class TestSampleDesigns:
    def test_level_near_one_collapses(self, rng):
        G_theta, G_z, params, prior, tau_Q, _ = toy_vb_instance(rng)
        st = vb_expectation(G_theta, G_z, params, prior, tau_Q)
        zs = sample_designs(params, st, 1.0 - 1e-12, 5, rng)
        assert np.max(np.abs(zs - params.mu_z[None, :])) < 1e-4

    def test_quadratic_form_matches_level(self, rng):
        G_theta, G_z, params, prior, tau_Q, _ = toy_vb_instance(
            rng, d_theta=5, d_z=7, d_y=3, n=3)
        st = vb_expectation(G_theta, G_z, params, prior, tau_Q)
        level = 0.42
        zs = sample_designs(params, st, level, 20, rng)
        Cinv = np.linalg.inv(st.C_yy)
        W = params.W
        for z in zs:
            y = W.T @ (z - params.mu_z)
            q = float(y @ Cinv @ y)
            assert np.exp(-0.5 * q) == pytest.approx(level, abs=1e-6)

    def test_level_out_of_range_rejected(self, rng):
        G_theta, G_z, params, prior, tau_Q, _ = toy_vb_instance(rng)
        st = vb_expectation(G_theta, G_z, params, prior, tau_Q)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                sample_designs(params, st, bad, 3, rng)

    def test_utility_ordering_along_directions(self, rng):
        # variations along a smaller-variance direction cost more utility
        G_theta, G_z, params, prior, tau_Q, _ = toy_vb_instance(
            rng, d_theta=5, d_z=7, d_y=3, n=4)
        st = vb_expectation(G_theta, G_z, params, prior, tau_Q)
        spec = sensitive_directions(st, params)
        W = params.W
        C_zz = W @ st.C_yy @ W.T + (np.eye(7) - W @ W.T) / st.tau_z
        Czz_inv = np.linalg.inv(C_zz)
        alpha = 0.7
        vals = []
        for j in range(3):
            dz = alpha * spec.W_hat[:, j]
            vals.append(np.exp(-0.5 * float(dz @ Czz_inv @ dz)))
        assert vals[0] < vals[1] < vals[2]


class TestRunVbem:
    def test_degenerate_complement(self, rng):
        # d_y = d_z: no complement, tau_z stays at its prior value
        G_theta, G_z, params, prior, tau_Q, residual = toy_vb_instance(
            rng, d_theta=4, d_z=3, d_y=3, n=2)
        out = run_vbem(G_theta, G_z, params, prior, tau_Q, residual)
        assert out.state.tau_z == pytest.approx(prior.tau_z0)

    @pytest.mark.parametrize("d_y", [0, 6, 50])
    def test_initial_W_needs_d_y_within_d_z(self, rng, d_y):
        with pytest.raises(ValueError):
            initial_W(5, d_y, rng)

    def test_returned_state_matches_final_basis(self, rng):
        G_theta, G_z, params, prior, tau_Q, residual = toy_vb_instance(rng)
        out = run_vbem(G_theta, G_z, params, prior, tau_Q, residual)
        st = vb_expectation(G_theta, G_z, out.params, prior, tau_Q)
        assert np.allclose(st.C_yy, out.state.C_yy, atol=1e-12)

    def test_stops_at_the_closed_form_fixed_point(self, rng, monkeypatch):
        # d_y >= n + 1: the start spans G_z^T and f, the ascent takes no step,
        # and one q update is all the loop needs
        G_theta, G_z, params, prior, tau_Q, residual = toy_vb_instance(
            rng, d_theta=6, d_z=20, d_y=6, n=4)
        f = rng.standard_normal(20)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return vb_expectation(*args, **kwargs)

        monkeypatch.setattr(vb, "vb_expectation", counting)
        out = run_vbem(G_theta, G_z, params, prior, tau_Q, residual, f=f, eps_c2=1e-4)
        assert (out.iterations, len(calls), out.converged) == (1, 1, True)
        assert out.F_history[0][0] == out.F_history[0][1]
        st = vb_expectation(G_theta, G_z, out.params, prior, tau_Q, f=f, eps_c2=1e-4)
        for name in ("C_yy", "C_thy", "tau_z"):
            assert np.array_equal(getattr(st, name), getattr(out.state, name))
        assert np.array_equal(st.lowrank.B_th, out.state.lowrank.B_th)
        assert np.array_equal(st.lowrank.S_cho[0], out.state.lowrank.S_cho[0])

    def test_stalled_ascent_without_a_step_is_not_converged(self, rng, monkeypatch):
        G_theta, G_z, params, prior, tau_Q, residual = toy_vb_instance(rng)

        def stalled(problem, W0, max_steps):
            return stiefel.StiefelResult(W0.copy(), 0.0, 0, 1.0, True)

        monkeypatch.setattr(stiefel, "optimize_W", stalled)
        out = run_vbem(G_theta, G_z, params, prior, tau_Q, residual)
        assert (out.iterations, out.converged) == (1, False)


class TestClosedFormStart:
    def test_basis_holds_the_informative_span(self, rng):
        # d_y >= n + 1: every direction of H = tau_Q G_z^T G_z + f f^T / eps_c2
        # is in the basis, whatever the start
        G_theta, G_z, params, prior, tau_Q, residual = toy_vb_instance(
            rng, d_theta=6, d_z=40, d_y=7, n=4)
        f = rng.standard_normal(40)
        out = run_vbem(G_theta, G_z, params, prior, tau_Q, residual, f=f, eps_c2=1e-4)
        W = out.params.W
        M = np.hstack([G_z.T, f[:, None]])
        assert np.max(np.abs(M - W @ (W.T @ M))) <= 1e-12 * np.max(np.abs(M))

    @pytest.mark.parametrize("d_y", [3, 8])
    def test_result_does_not_depend_on_the_start(self, rng, d_y):
        # below and above n + 1 = 5: the start only picks the flat columns
        G_theta, G_z, params, prior, tau_Q, residual = toy_vb_instance(
            rng, d_theta=6, d_z=30, d_y=d_y, n=4)
        f = rng.standard_normal(30)
        finals, spectra = [], []
        for _ in range(4):
            start = replace(params, W=initial_W(30, d_y, rng))
            out = run_vbem(G_theta, G_z, start, prior, tau_Q, residual, f=f, eps_c2=1e-4)
            assert out.converged
            finals.append(out.F_history[-1][1])
            spectra.append(sensitive_directions(out.state, out.params).sigma2)
        assert np.allclose(finals, finals[0], rtol=1e-9, atol=0.0)
        assert np.allclose(spectra, spectra[0], rtol=1e-9, atol=0.0)
