"""Feasible basis optimization: objective, gradient, Cayley curve, driver."""

import numpy as np
import pytest

from vbdesign.stiefel import (
    GRAD_TOL,
    StiefelProblem,
    cayley_factors,
    cayley_step,
    gradient_J,
    objective_FW,
    optimize_W,
    tangent_project,
)
from vbdesign.vb import initial_W


def random_problem(rng, d_z=12, d_y=3, n=5, constrained=False, tau_z=3.0):
    C = rng.standard_normal((d_y, d_y))
    C = C @ C.T + 0.1 * np.eye(d_y)
    kw = {}
    if constrained:
        kw = dict(f=rng.standard_normal(d_z), eps_c2=0.5)
    return StiefelProblem(G_z=rng.standard_normal((n, d_z)),
                          cross=rng.standard_normal((d_z, d_y)),
                          C_yy=C, tau_z=tau_z, tau_Q=2.0, **kw)


class TestObjective:
    def test_vanishing_coefficient(self, rng):
        d_z, d_y = 8, 2
        tau_z = 4.0
        prob = StiefelProblem(G_z=rng.standard_normal((3, d_z)),
                              cross=np.zeros((d_z, d_y)),
                              C_yy=np.eye(d_y) / tau_z, tau_z=tau_z, tau_Q=2.0)
        for _ in range(5):
            W = initial_W(d_z, d_y, rng)
            assert objective_FW(prob, W) == pytest.approx(0.0, abs=1e-12)

    def test_axis_maximizer_two_dimensional(self):
        # diagonal Gram diag(a, b) with a < b and scalar C_yy below 1/tau_z:
        # the best single direction is the axis with the larger Gram entry
        a, b, c, tau_z = 1.0, 3.0, 0.05, 10.0
        G_z = np.diag([np.sqrt(a), np.sqrt(b)])
        prob = StiefelProblem(G_z=G_z, cross=np.zeros((2, 1)),
                              C_yy=np.array([[c]]), tau_z=tau_z, tau_Q=2.0)
        angles = np.linspace(0.0, np.pi, 3601)
        vals = [objective_FW(prob, np.array([[np.cos(t)], [np.sin(t)]]))
                for t in angles]
        best = angles[int(np.argmax(vals))]
        assert abs(abs(np.sin(best)) - 1.0) < 1e-3
        v_e2 = objective_FW(prob, np.array([[0.0], [1.0]]))
        v_e1 = objective_FW(prob, np.array([[1.0], [0.0]]))
        assert v_e2 == pytest.approx(-0.5 * 2.0 * b * (c - 1 / tau_z))
        assert v_e1 == pytest.approx(-0.5 * 2.0 * a * (c - 1 / tau_z))
        assert v_e2 > v_e1

    def test_supplied_shift_bitwise(self, rng):
        prob = random_problem(rng, constrained=True)
        W = initial_W(12, 3, rng)
        assert objective_FW(prob, W, prob.shifted_C()) == objective_FW(prob, W)

    def test_sign_invariance_without_cross(self, rng):
        prob = random_problem(rng)
        prob.cross = np.zeros_like(prob.cross)
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
            J = gradient_J(prob, W)
            for _ in range(10):
                D = tangent_project(W, rng.standard_normal((12, 3)))
                t = 1e-5
                fd = (objective_FW(prob, W + t * D)
                      - objective_FW(prob, W - t * D)) / (2 * t)
                an = float(np.sum(J * D))
                assert abs(fd - an) <= 1e-6 * (abs(an) + 1e-12)

    def test_zero_for_constant_objective(self, rng):
        d_z, d_y, tau_z = 9, 2, 5.0
        prob = StiefelProblem(G_z=rng.standard_normal((4, d_z)),
                              cross=np.zeros((d_z, d_y)),
                              C_yy=np.eye(d_y) / tau_z, tau_z=tau_z, tau_Q=1.7)
        W = initial_W(d_z, d_y, rng)
        assert np.max(np.abs(gradient_J(prob, W))) < 1e-12

    def test_homogeneous_in_tau_Q(self, rng):
        prob = random_problem(rng)
        W = initial_W(12, 3, rng)
        J1 = gradient_J(prob, W)
        prob.tau_Q *= 3.0
        assert np.allclose(gradient_J(prob, W), 3.0 * J1)


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
        d_z, d_y, tau_z = 9, 2, 5.0
        prob = StiefelProblem(G_z=rng.standard_normal((4, d_z)),
                              cross=np.zeros((d_z, d_y)),
                              C_yy=np.eye(d_y) / tau_z, tau_z=tau_z, tau_Q=1.7)
        W0 = initial_W(d_z, d_y, rng)
        out = optimize_W(prob, W0, max_steps=50)
        assert out.steps == 0
        assert np.array_equal(out.W, W0)

    def test_converges_to_axis_maximizer(self, rng):
        a, b, c, tau_z = 1.0, 3.0, 0.05, 10.0
        prob = StiefelProblem(G_z=np.diag([np.sqrt(a), np.sqrt(b)]),
                              cross=np.zeros((2, 1)),
                              C_yy=np.array([[c]]), tau_z=tau_z, tau_Q=2.0)
        W0 = np.array([[np.cos(0.3)], [np.sin(0.3)]])
        out = optimize_W(prob, W0, max_steps=200)
        assert abs(out.W[1, 0]) >= 1.0 - 1e-8

    def test_objective_never_below_start(self, rng):
        for k in range(5):
            prob = random_problem(rng, constrained=(k % 2 == 0))
            W0 = initial_W(12, 3, rng)
            out = optimize_W(prob, W0, max_steps=60)
            assert out.F_W >= objective_FW(prob, W0) - 1e-12

    def test_feasibility_drift_over_100_steps(self, rng):
        prob = random_problem(rng, d_z=25, d_y=5, n=8)
        W0 = initial_W(25, 5, rng)
        out = optimize_W(prob, W0, max_steps=100)
        drift = np.max(np.abs(out.W.T @ out.W - np.eye(5)))
        assert drift <= 1e-10

    def test_nonmonotone_reference_never_decreases(self, rng):
        # track the window max of the ascent objective along the run
        prob = random_problem(rng, d_z=16, d_y=3, n=6)
        W = initial_W(16, 3, rng)
        vals = [objective_FW(prob, W)]
        refs = []
        for _ in range(40):
            out = optimize_W(prob, W, max_steps=1)
            W = out.W
            vals.append(objective_FW(prob, W))
            refs.append(max(vals[-5:]))
        assert np.all(np.diff(refs) >= -1e-10 * (1 + np.abs(np.array(refs[:-1]))))

    def test_dominant_constraint_term_does_not_hide_the_tangent_gradient(self):
        # f lies in span(W0) and f f^T / eps_c2 dominates F_W, so the gradient
        # is almost all normal to the manifold and 2(|G|^2 - tr((W^T G)^2))
        # cancels to zero although W0 is not stationary: the ascent must see
        # the tangent part. The instance is pinned: a near-optimal second column
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
        prob = StiefelProblem(G_z=G_z, cross=np.zeros((d_z, 2)), C_yy=np.eye(2),
                              tau_z=1e-2, tau_Q=1.0, f=f, eps_c2=1e-10)
        F0 = objective_FW(prob, W0)
        assert np.linalg.norm(tangent_project(W0, gradient_J(prob, W0))) \
            > GRAD_TOL * (1.0 + abs(F0))
        out = optimize_W(prob, W0, max_steps=100)
        assert out.steps >= 1 and out.F_W > F0
        assert out.grad_norm <= GRAD_TOL * (1.0 + abs(out.F_W))

    def test_stiff_constraint_reports_unfinished_ascent(self):
        # f in span(W0), eps_c2 = 1e-10 and G_z orthogonal to f: F_W is about
        # 5e11, so a sufficient-decrease bar below its ulp rounds away. A
        # step must still gain, and must move W; a run that ends above the
        # gradient bar says so through `stalled`
        rng = np.random.default_rng(0)
        d_z = 8
        f = rng.standard_normal(d_z)
        G_z = 10.0 * rng.standard_normal((1, d_z))
        G_z -= np.outer(G_z @ f, f) / (f @ f)
        W0 = np.linalg.qr(np.column_stack([f, rng.standard_normal(d_z)]))[0]
        prob = StiefelProblem(G_z=G_z, cross=np.zeros((d_z, 2)), C_yy=np.eye(2),
                              tau_z=1e-2, tau_Q=1.0, f=f, eps_c2=1e-10)
        out = optimize_W(prob, W0, max_steps=100)
        assert out.grad_norm > GRAD_TOL * (1.0 + abs(out.F_W))
        assert out.stalled
        W = W0
        for _ in range(60):
            one = optimize_W(prob, W, max_steps=1)
            if one.steps:
                assert not np.array_equal(one.W, W)
                assert one.F_W > objective_FW(prob, W)
            else:
                assert one.stalled and np.array_equal(one.W, W)
            W = one.W
