"""Feasible basis optimization: objective, gradient, Cayley curve, driver."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import toy_vb_instance
from vbdesign.stiefel import (
    StiefelProblem,
    cayley_factors,
    cayley_step,
    objective_FW,
    optimize_W,
    tangent_gradient,
    tangent_project,
)
from vbdesign.vb import evaluate_F, initial_W, run_vbem, vb_expectation


def random_problem(rng, d_z=12, d_y=3, n=5, constrained=False, tau_z=3.0):
    C = rng.standard_normal((d_y, d_y))
    C = C @ C.T + 0.1 * np.eye(d_y)
    kw = {}
    if constrained:
        kw = dict(f=rng.standard_normal(d_z), eps_c2=0.5)
    return StiefelProblem(G_z=rng.standard_normal((n, d_z)),
                          GC_thy=rng.standard_normal((n, d_y)),
                          C_yy=C, tau_z=tau_z, tau_Q=2.0, **kw)


def bound_instance(rng, tau_y0, eps2):
    """A constrained toy with n + 1 = 5 < d_y = 6 < d_z = 20, a basis whose
    first 5 columns span range(B), B = [G_z^T, f], and q fitted there."""
    G_theta, G_z, params, prior, tau_Q, residual = toy_vb_instance(
        rng, d_theta=6, d_z=20, d_y=6, n=4, tau_y0=tau_y0, eps2=eps2)
    f = rng.standard_normal(20)
    W = np.linalg.qr(np.column_stack([G_z.T, f, rng.standard_normal(20)]))[0]
    params = replace(params, W=W)
    fkw = dict(f=f, eps_c2=1e-4)
    st = vb_expectation(G_theta, G_z, params, prior, tau_Q, **fkw)
    return (G_theta, G_z, params, prior, tau_Q, residual, fkw), st


def problem_of(st, G_z, tau_Q, fkw):
    return StiefelProblem(G_z=G_z, GC_thy=st.GC_thy, C_yy=st.C_yy, tau_z=st.tau_z,
                          tau_Q=tau_Q, **fkw)


def prefix_runs(prob, W0, max_steps):
    """The runs capped at 0, 1, ..., max_steps steps: the ascent is
    deterministic, so each is a prefix of the next."""
    return [optimize_W(prob, W0, max_steps=k) for k in range(max_steps + 1)]


def assert_each_step_gains(runs):
    """Every accepted step raises F_W and moves W; a run that takes no
    further step returns the previous one bitwise."""
    for r0, r1 in zip(runs, runs[1:]):
        if r1.steps > r0.steps:
            assert r1.F_W > r0.F_W and not np.array_equal(r1.W, r0.W)
        else:
            assert r1.F_W == r0.F_W and np.array_equal(r1.W, r0.W)


class TestObjective:
    def test_vanishing_coefficient(self, rng):
        # C_yy = I / tau_z and no cross block: the in-span and complement
        # terms add up to -tau_Q |G_z|^2 / (2 tau_z) for every W
        d_z, d_y = 8, 2
        tau_z = 4.0
        prob = StiefelProblem(G_z=rng.standard_normal((3, d_z)),
                              GC_thy=np.zeros((3, d_y)),
                              C_yy=np.eye(d_y) / tau_z, tau_z=tau_z, tau_Q=2.0)
        const = -0.5 * 2.0 * float(np.sum(prob.G_z**2)) / tau_z
        for _ in range(5):
            W = initial_W(d_z, d_y, rng)
            assert objective_FW(prob, W) == pytest.approx(const, rel=1e-12)

    def test_axis_maximizer_two_dimensional(self):
        # diagonal Gram diag(a, b) with a < b and scalar C_yy below 1/tau_z:
        # the best single direction is the axis with the larger Gram entry
        a, b, c, tau_z = 1.0, 3.0, 0.05, 10.0
        G_z = np.diag([np.sqrt(a), np.sqrt(b)])
        prob = StiefelProblem(G_z=G_z, GC_thy=np.zeros((2, 1)),
                              C_yy=np.array([[c]]), tau_z=tau_z, tau_Q=2.0)
        angles = np.linspace(0.0, np.pi, 3601)
        vals = [objective_FW(prob, np.array([[np.cos(t)], [np.sin(t)]]))
                for t in angles]
        best = angles[int(np.argmax(vals))]
        assert abs(abs(np.sin(best)) - 1.0) < 1e-3
        v_e2 = objective_FW(prob, np.array([[0.0], [1.0]]))
        v_e1 = objective_FW(prob, np.array([[1.0], [0.0]]))
        assert v_e2 == pytest.approx(-0.5 * 2.0 * (b * c + a / tau_z))
        assert v_e1 == pytest.approx(-0.5 * 2.0 * (a * c + b / tau_z))
        assert v_e2 > v_e1

    @pytest.mark.parametrize("tau_z", [1e-14, 0.3])
    def test_bound_minus_objective_is_constant(self, rng, tau_z):
        # F(q, W) - F_W(W) does not depend on W, on random bases and on bases
        # that hold range(B); at tau_z = 1e-14 (the CLI's tau_z0) the latter
        # bound is O(1e2) and 1/tau_z multiplies only rounding there
        (_, G_z, params, prior, tau_Q, residual, fkw), st = bound_instance(rng, 1e-4, 1e-10)
        st = replace(st, tau_z=tau_z)
        prob = problem_of(st, G_z, tau_Q, fkw)
        bases = [initial_W(20, 6, rng) for _ in range(4)]
        U = params.W[:, :5]
        for _ in range(4):
            w = rng.standard_normal(20)
            w -= U @ (U.T @ w)
            bases.append(np.column_stack([U, w / np.linalg.norm(w)]))
        bounds = [evaluate_F(st, replace(params, W=W), prior, residual, G_z, **fkw)
                  for W in bases]
        gaps = [F - objective_FW(prob, W) for F, W in zip(bounds, bases)]
        for F, gap in zip(bounds, gaps):
            assert abs(gap - gaps[-1]) <= 1e-9 * abs(F)
        assert max(abs(F) for F in bounds[4:]) < 1e4

    def test_sign_invariance_without_cross(self, rng):
        prob = random_problem(rng)
        prob.GC_thy = np.zeros_like(prob.GC_thy)
        W = initial_W(12, 3, rng)
        assert objective_FW(prob, W) == pytest.approx(objective_FW(prob, -W))

    def test_rejects_infeasible_W(self, rng):
        prob = random_problem(rng)
        W = initial_W(12, 3, rng) * 1.001
        with pytest.raises(ValueError):
            objective_FW(prob, W)


class TestGradient:
    def test_matches_tangent_finite_differences(self, rng):
        for constrained in (False, True):
            prob = random_problem(rng, constrained=constrained)
            W = initial_W(12, 3, rng)
            G = tangent_gradient(prob, W)
            for _ in range(10):
                D = tangent_project(W, rng.standard_normal((12, 3)))
                t = 1e-5
                fd = (objective_FW(prob, W + t * D)
                      - objective_FW(prob, W - t * D)) / (2 * t)
                an = float(np.sum(G * D))
                assert abs(fd - an) <= 1e-6 * (abs(an) + 1e-12)

    def test_zero_for_constant_objective(self, rng):
        d_z, d_y, tau_z = 9, 2, 5.0
        prob = StiefelProblem(G_z=rng.standard_normal((4, d_z)),
                              GC_thy=np.zeros((4, d_y)),
                              C_yy=np.eye(d_y) / tau_z, tau_z=tau_z, tau_Q=1.7)
        W = initial_W(d_z, d_y, rng)
        assert np.max(np.abs(tangent_gradient(prob, W))) < 1e-12

    def test_homogeneous_in_tau_Q(self, rng):
        prob = random_problem(rng)
        W = initial_W(12, 3, rng)
        G1 = tangent_gradient(prob, W)
        prob.tau_Q *= 3.0
        assert np.allclose(tangent_gradient(prob, W), 3.0 * G1)


class TestCayleyStep:
    def test_zero_step_is_identity_bitwise(self, rng):
        W = initial_W(10, 3, rng)
        J = rng.standard_normal((10, 3))
        assert np.array_equal(cayley_step(W, J, 0.0), W)

    def test_orthonormality_for_wide_step_range(self, rng):
        for a in (1e-3, 1.0, 1e3):
            for _ in range(3):
                W = initial_W(15, 4, rng)
                J = rng.standard_normal((15, 4))
                Wp = cayley_step(W, J, a)
                assert np.max(np.abs(Wp.T @ Wp - np.eye(4))) <= 1e-12

    def test_small_system_matches_full_inverse(self, rng):
        # the 2 d_y x 2 d_y route against the d_z x d_z inversion
        d_z, d_y = 30, 4
        W = initial_W(d_z, d_y, rng)
        J = rng.standard_normal((d_z, d_y))
        for a in (1e-2, 0.7, 5.0):
            A = J @ W.T - W @ J.T
            full = np.linalg.solve(np.eye(d_z) + 0.5 * a * A,
                                   (np.eye(d_z) - 0.5 * a * A) @ W)
            small = cayley_step(W, J, a)
            assert np.max(np.abs(full - small)) <= 1e-10


    def test_shared_factors_bitwise(self, rng):
        # the line search forms the step-independent products once per step
        W = initial_W(30, 4, rng)
        J = rng.standard_normal((30, 4))
        factors = cayley_factors(W, J)
        for a in (1e-6, 0.3, 2.0, 1e4):
            assert np.array_equal(cayley_step(W, J, a, factors), cayley_step(W, J, a))


class TestOptimizeW:
    def test_stationary_start_returns_immediately(self, rng):
        # C_yy = I / tau_z and no cross block: F_W is constant, so its
        # differences are rounding, which no step may pass for a gain
        d_z, d_y, tau_z = 9, 2, 5.0
        for _ in range(10):
            prob = StiefelProblem(G_z=rng.standard_normal((4, d_z)),
                                  GC_thy=np.zeros((4, d_y)),
                                  C_yy=np.eye(d_y) / tau_z, tau_z=tau_z, tau_Q=1.7)
            W0 = initial_W(d_z, d_y, rng)
            out = optimize_W(prob, W0, max_steps=50)
            assert out.steps == 0
            assert np.array_equal(out.W, W0)

    def test_basis_spanning_range_B_is_the_fixed_point(self, rng):
        # the CLI's regime, tau_z = tau_z0 = 1e-14, on a basis that holds
        # range(B): the bound is at its maximum over W up to rounding, every
        # trial is rejected, and run_vbem stops at its first q update
        (G_theta, G_z, params, prior, tau_Q, residual, fkw), st = bound_instance(
            rng, 1e-4, 1e-10)
        assert st.tau_z == pytest.approx(1e-14, rel=1e-9)
        out = optimize_W(problem_of(st, G_z, tau_Q, fkw), params.W, max_steps=50)
        assert out.steps == 0
        assert np.array_equal(out.W, params.W)
        res = run_vbem(G_theta, G_z, params, prior, tau_Q, residual, **fkw)
        F_q = evaluate_F(res.state, res.params, prior, residual, G_z, **fkw)
        assert (res.iterations, res.converged, res.F_history) == (1, True, [(F_q, F_q)])

    def test_converges_to_axis_maximizer(self, rng):
        a, b, c, tau_z = 1.0, 3.0, 0.05, 10.0
        prob = StiefelProblem(G_z=np.diag([np.sqrt(a), np.sqrt(b)]),
                              GC_thy=np.zeros((2, 1)),
                              C_yy=np.array([[c]]), tau_z=tau_z, tau_Q=2.0)
        W0 = np.array([[np.cos(0.3)], [np.sin(0.3)]])
        out = optimize_W(prob, W0, max_steps=200)
        assert abs(out.W[1, 0]) >= 1.0 - 1e-8

    def test_objective_never_below_start(self, rng):
        for k in range(5):
            prob = random_problem(rng, constrained=(k % 2 == 0))
            W0 = initial_W(12, 3, rng)
            out = optimize_W(prob, W0, max_steps=60)
            assert out.F_W >= objective_FW(prob, W0)

    def test_feasibility_drift_over_100_steps(self, rng):
        prob = random_problem(rng, d_z=25, d_y=5, n=8)
        W0 = initial_W(25, 5, rng)
        out = optimize_W(prob, W0, max_steps=100)
        drift = np.max(np.abs(out.W.T @ out.W - np.eye(5)))
        assert drift <= 1e-10

    def test_drifted_trials_are_re_orthonormalized_before_they_are_judged(self, rng):
        # W0 is off orthonormality by about 1e-9, inside require_feasible's
        # tolerance: every trial inherits the drift and is re-QR'd, so each
        # accepted step is a re-orthonormalized point that raised F_W
        prob = random_problem(rng, d_z=16, d_y=3, n=6, constrained=True)
        W0 = initial_W(16, 3, rng) + 1e-9 * rng.standard_normal((16, 3))
        assert np.abs(W0.T @ W0 - np.eye(3)).max() > 1e-10
        runs = prefix_runs(prob, W0, 10)
        assert runs[-1].steps >= 5
        assert_each_step_gains(runs)
        assert max(np.abs(r.W.T @ r.W - np.eye(3)).max() for r in runs[1:]) <= 1e-10

    @pytest.mark.parametrize("constrained", [False, True])
    def test_every_accepted_step_gains(self, rng, constrained):
        prob = random_problem(rng, d_z=16, d_y=3, n=6, constrained=constrained)
        runs = prefix_runs(prob, initial_W(16, 3, rng), 40)
        assert runs[-1].steps >= 10
        assert_each_step_gains(runs)

    def test_dominant_constraint_term_does_not_hide_the_tangent_gradient(self):
        # f lies in span(W0) and f f^T / eps_c2 dominates F_W, so the gradient
        # is almost all normal to the manifold, but W0 is not stationary: the
        # ascent must see the tangent part. The instance is pinned: a
        # near-optimal second column
        rng = np.random.default_rng(4)
        d_z = 8
        Q = np.linalg.qr(rng.standard_normal((d_z, d_z)))[0]
        f = Q[:, 0]
        G_z = 10.0 * rng.standard_normal((3, d_z))
        G_z -= np.outer(G_z @ f, f)
        top = np.linalg.svd(G_z)[2][0]
        other = Q[:, 1] - f * (f @ Q[:, 1]) - top * (top @ Q[:, 1])
        w2 = np.cos(0.1) * top + np.sin(0.1) * other / np.linalg.norm(other)
        W0 = np.linalg.qr(np.column_stack([f, w2]))[0]
        prob = StiefelProblem(G_z=G_z, GC_thy=np.zeros((3, 2)), C_yy=np.eye(2),
                              tau_z=1e-2, tau_Q=1.0, f=f, eps_c2=1e-10)
        runs = prefix_runs(prob, W0, 30)
        assert runs[-1].steps >= 1 and runs[-1].F_W > objective_FW(prob, W0)
        assert_each_step_gains(runs)

    def test_stiff_constraint_ascends_and_each_step_gains(self):
        # f in span(W0), eps_c2 = 1e-10 and G_z orthogonal to f: the in-span
        # constraint term is about 5e11, so a sufficient-increase bar below
        # its ulp would round away. Each accepted step must still gain, and
        # must move W
        rng = np.random.default_rng(0)
        d_z = 8
        f = rng.standard_normal(d_z)
        G_z = 10.0 * rng.standard_normal((1, d_z))
        G_z -= np.outer(G_z @ f, f) / (f @ f)
        W0 = np.linalg.qr(np.column_stack([f, rng.standard_normal(d_z)]))[0]
        prob = StiefelProblem(G_z=G_z, GC_thy=np.zeros((1, 2)), C_yy=np.eye(2),
                              tau_z=1e-2, tau_Q=1.0, f=f, eps_c2=1e-10)
        runs = prefix_runs(prob, W0, 30)
        assert runs[-1].steps >= 1 and runs[-1].F_W > objective_FW(prob, W0)
        assert_each_step_gains(runs)
