"""Forward-model contracts for both design problems."""

import numpy as np
import pytest
import scipy.sparse as sp

from vbdesign.mesh_fem import element_bilinear, grid_interpolation_weights
from vbdesign.problems import (
    ConstraintDescriptor,
    StaleFactorizationError,
    TopologyProblem,
    constraint_value_and_gradient,
    log_utility,
    make_heat_problem,
    make_topo_problem,
    sigmoid,
)


@pytest.fixture(scope="module")
def heat_small():
    return make_heat_problem(nx=10, ny=5, obs_x2=np.linspace(0.3, 0.7, 5))


@pytest.fixture(scope="module")
def topo_small():
    return make_topo_problem(nx=10, ny=7)


class TestHeatProblem:
    def test_zero_flux_zero_outputs(self, heat_small, rng):
        theta = heat_small.field_prior.mean + 0.3 * rng.standard_normal(heat_small.d_theta)
        u = heat_small.evaluate(theta, np.zeros(heat_small.d_z))
        assert np.max(np.abs(u)) < 1e-12

    def test_outputs_linear_in_design(self, heat_small, rng):
        theta = heat_small.field_prior.mean.copy()
        z = rng.standard_normal(heat_small.d_z)
        assert np.allclose(heat_small.evaluate(theta, 2 * z),
                           2 * heat_small.evaluate(theta, z), rtol=1e-12)

    def test_full_scale_dimensions_and_targets(self):
        p = make_heat_problem()
        assert (p.d_theta, p.d_z, p.n) == (1600, 21, 11)
        x2 = 0.25 + 0.05 * np.arange(11)
        assert np.allclose(p.u_target, 20.0 - 40.0 * np.abs(x2 - 0.5))
        assert p.tau_Q == pytest.approx(1.0 / 0.01)

    def test_design_jacobian_constant(self, heat_small, rng):
        theta = heat_small.field_prior.mean.copy()
        _, _, Gz1 = heat_small.evaluate_with_jacobians(theta, rng.standard_normal(heat_small.d_z))
        _, _, Gz2 = heat_small.evaluate_with_jacobians(theta, rng.standard_normal(heat_small.d_z))
        assert np.allclose(Gz1, Gz2, rtol=1e-12)


class TestTopologyProblem:
    def test_full_scale_dimensions_and_targets(self):
        p = make_topo_problem()
        assert (p.d_theta, p.d_z, p.n) == (3536, 3536, 8)
        assert np.allclose(p.u_target, 6.25e-3 * np.arange(1, 9))
        assert p.tau_Q == pytest.approx(1.0 / 5e-6)
        assert p.constraint.target_VF == 0.4
        assert p.constraint.eps_c2 == 1e-10

    def test_void_limit_huge_but_finite(self, topo_small):
        theta = topo_small.field_prior.mean.copy()
        z = np.full(topo_small.d_z, -60.0)
        E = topo_small.youngs_field(theta, z)
        assert np.allclose(E, topo_small.E_MIN, rtol=1e-6)
        u = topo_small.evaluate(theta, z)
        assert np.all(np.isfinite(u))
        assert np.max(np.abs(u)) > 1e3

    def test_material_bound(self, topo_small, rng):
        theta = topo_small.field_prior.mean + 0.3 * rng.standard_normal(topo_small.d_theta)
        z = 4.0 * rng.standard_normal(topo_small.d_z)
        E = topo_small.youngs_field(theta, z)
        lam = np.exp(theta)
        assert np.all(E >= topo_small.E_MIN)
        assert np.all(E <= lam)

    def test_jacobians_match_finite_differences(self, topo_small, rng):
        theta = topo_small.field_prior.mean + 0.1 * rng.standard_normal(topo_small.d_theta)
        z = rng.standard_normal(topo_small.d_z)
        u, Gt, Gz = topo_small.evaluate_with_jacobians(theta, z)
        for G, d, which in ((Gt, topo_small.d_theta, "t"), (Gz, topo_small.d_z, "z")):
            errs = []
            for _ in range(10):
                v = rng.standard_normal(d)
                v /= np.linalg.norm(v)
                h = 1e-5
                if which == "t":
                    fd = (topo_small.evaluate(theta + h * v, z)
                          - topo_small.evaluate(theta - h * v, z)) / (2 * h)
                else:
                    fd = (topo_small.evaluate(theta, z + h * v)
                          - topo_small.evaluate(theta, z - h * v)) / (2 * h)
                errs.append(np.linalg.norm(G @ v - fd) / np.linalg.norm(fd))
            assert max(errs) <= 1e-3

    def test_saturated_sigmoid_kills_design_column(self, topo_small):
        theta = topo_small.field_prior.mean.copy()
        z = np.zeros(topo_small.d_z)
        z[5] = 40.0
        _, _, Gz = topo_small.evaluate_with_jacobians(theta, z)
        assert np.max(np.abs(Gz[:, 5])) < 1e-12 * np.max(np.abs(Gz))

    def test_stale_factorization_rejected(self, topo_small):
        fresh = make_topo_problem(nx=6, ny=4)
        with pytest.raises(StaleFactorizationError):
            fresh.last_jacobians()

    def test_dimension_mismatch_rejected(self, topo_small):
        with pytest.raises(ValueError):
            topo_small.evaluate(np.zeros(3), np.zeros(topo_small.d_z))


@pytest.mark.parametrize("which", ["heat", "topo"])
@pytest.mark.parametrize("where,bad", [("theta", np.nan), ("theta", np.inf),
                                       ("z", np.nan), ("z", -np.inf)])
def test_non_finite_input_rejected_before_the_solve(heat_small, which, where, bad):
    p = heat_small if which == "heat" else make_topo_problem(nx=6, ny=4)
    theta, z = p.field_prior.mean.copy(), np.zeros(p.d_z)
    (theta if where == "theta" else z)[1] = bad
    calls = p.forward_calls
    with pytest.raises(ValueError, match="finite"):
        p.evaluate(theta, z)
    assert p.forward_calls == calls


def sparse_observation(p, points, ndof_per_node, sign):
    """The output operator as a CSC matrix (one column per output), built
    from the interpolation weights as a sparse-matrix read-out would be."""
    idx, w = grid_interpolation_weights(*p.mesh.grid, points)
    rows = (ndof_per_node * idx + ndof_per_node - 1).ravel()
    cols = np.repeat(np.arange(p.n), 3)
    return sp.coo_matrix((sign * w.ravel(), (rows, cols)),
                         shape=(ndof_per_node * p.mesh.n_nodes, p.n)).tocsc()


def heat_reference(nx, ny, x2=0.25 + 0.05 * np.arange(11)):
    p = make_heat_problem(nx=nx, ny=ny, obs_x2=x2)
    return p, sparse_observation(p, np.column_stack([np.full(x2.size, 1.0), x2]), 1, 1.0)


def heat_off_grid(nx, ny):
    # odd nx puts the midline between grid lines, so every output reads
    # three nonzero weights and the order of its sum shows
    return heat_reference(nx, ny, np.linspace(0.27, 0.73, 7))


def topo_reference(nx, ny):
    p = make_topo_problem(nx=nx, ny=ny)
    k = np.arange(1, TopologyProblem.N_OBS + 1)
    pts = np.column_stack([1.6 * k / TopologyProblem.N_OBS, np.zeros(k.size)])
    return p, sparse_observation(p, pts, 2, -1.0)


class TestReadOut:
    """Outputs and Jacobians equal, bit for bit, those of a CSC output
    operator L: u_out = L^T u and adjoint right-hand sides L.toarray().
    The MAP endpoint moves by about 1e-7 relative when the outputs change
    in their last bit, so a read-out that sums in another order (a dense
    matvec, say) fails here."""

    @pytest.mark.parametrize("build,grid", [(heat_reference, (40, 20)),
                                            (heat_off_grid, (21, 10)),
                                            (topo_reference, (26, 17)),
                                            (topo_reference, (52, 34))],
                             ids=["heat40x20", "heat21x10", "topo26x17", "topo52x34"])
    def test_matches_sparse_operator_bitwise(self, build, grid, rng):
        p, L = build(*grid)
        dense = L.toarray()
        for _ in range(20):
            theta = p.field_prior.mean + 0.5 * rng.standard_normal(p.d_theta)
            z = 3.0 * rng.standard_normal(p.d_z)
            u, G_theta, G_z = p.evaluate_with_jacobians(theta, z)
            sol = p._solve(theta, z)
            lam = sol.K_factorization(dense)
            base = element_bilinear(p._ke_unit, p._dofs, lam, sol.nodal_field)
            ref_theta, ref_z = p._chain_rule(lam, base, theta, z)
            assert np.array_equal(u, L.T @ sol.nodal_field)
            assert np.array_equal(G_theta, ref_theta)
            assert np.array_equal(G_z, ref_z)


class TestLogUtility:
    def test_perfect_match_is_zero(self, heat_small):
        assert log_utility(heat_small, heat_small.u_target) == 0.0

    def test_quadratic_form(self, heat_small, rng):
        u = heat_small.u_target + rng.standard_normal(heat_small.n)
        r = heat_small.u_target - u
        assert log_utility(heat_small, u) == pytest.approx(
            -0.5 * heat_small.tau_Q * float(r @ r))


def masked_sigmoid(x):
    """The two-branch logistic, each branch on its own mask of x."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bitwise_equals_masked_formula():
    gen = np.random.default_rng(6)
    x = np.concatenate([gen.standard_normal(3000) * scale for scale in (1.0, 40.0, 1e7)]
                       + [[0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 36.0, -36.0]])
    got, want = sigmoid(x), masked_sigmoid(x)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got[-8:-2].tolist() == [0.5, 0.5, 1.0, 0.0, 1.0, 0.0]


class TestConstraint:
    def test_midpoint_values(self):
        desc = ConstraintDescriptor(0.4, 1e-10)
        z = np.zeros(10)
        c, f = constraint_value_and_gradient(desc, z)
        assert c == pytest.approx(0.1)
        assert np.allclose(f, 0.25 / 10)

    def test_saturation(self):
        desc = ConstraintDescriptor(0.4, 1e-10)
        c, f = constraint_value_and_gradient(desc, np.full(8, 50.0))
        assert c == pytest.approx(0.6, abs=1e-12)
        assert np.max(np.abs(f)) < 1e-12

    def test_range_bound(self, rng):
        desc = ConstraintDescriptor(0.37, 1e-10)
        for _ in range(20):
            c, _ = constraint_value_and_gradient(desc, 30 * rng.standard_normal(25))
            assert -desc.target_VF - 1e-12 <= c <= 1 - desc.target_VF + 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        desc = ConstraintDescriptor(0.4, 1e-10)
        z = rng.standard_normal(12)
        c, f = constraint_value_and_gradient(desc, z)
        h = 1e-6
        for j in range(12):
            e = np.zeros(12)
            e[j] = h
            fd = (constraint_value_and_gradient(desc, z + e)[0]
                  - constraint_value_and_gradient(desc, z - e)[0]) / (2 * h)
            assert fd == pytest.approx(f[j], abs=1e-8)

    @pytest.mark.parametrize("convert", [list, tuple])
    def test_sequence_input_matches_array(self, rng, convert):
        desc = ConstraintDescriptor(0.4, 1e-10)
        z = rng.standard_normal(7)
        c, f = constraint_value_and_gradient(desc, z)
        c_seq, f_seq = constraint_value_and_gradient(desc, convert(z.tolist()))
        assert c_seq == c
        assert np.array_equal(f_seq, f)
