"""Mesh construction, P1 assembly, solves and adjoint consistency.

Analytic anchors:
- hand-assembled P1 Laplacian of the split unit square
- 1D diffusion profile u = L - x under unit end flux
- rigid-body null space of the elasticity operator
- brute-force dense scatter of every element matrix (banded assembly)
- dense LU of the free-free block (banded Cholesky solve and adjoint)
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from vbdesign.mesh_fem import (
    BandedBlock,
    BoundaryConditions,
    SingularSystemError,
    StiffnessPattern,
    assemble_diffusion,
    assemble_elasticity,
    boundary_nodes,
    build_regular_mesh,
    edge_mass_loads,
    element_dofs,
    element_geometry,
    export_mesh,
    grid_interpolation_weights,
    solve_forward,
    unit_diffusion_element_matrices,
    unit_elasticity_element_matrices,
)
from vbdesign.problems import make_heat_problem, make_topo_problem


def diffusion_pattern(m, keep=None):
    """Pattern over the kept dofs; all dofs (the unconstrained operator) by default."""
    keep = np.arange(m.n_nodes) if keep is None else keep
    return StiffnessPattern.build(m.triangles, unit_diffusion_element_matrices(m), keep)


def elasticity_pattern(m, keep=None):
    keep = np.arange(2 * m.n_nodes) if keep is None else keep
    return StiffnessPattern.build(element_dofs(m, 2),
                                  unit_elasticity_element_matrices(m, 0.3), keep)


class TestBuildRegularMesh:
    def test_reference_grid_40x20(self):
        m = build_regular_mesh(40, 20, 2.0, 1.0)
        assert m.n_elements == 1600
        assert m.n_nodes == 861

    def test_smallest_grid(self):
        m = build_regular_mesh(1, 1, 1.0, 1.0)
        assert m.n_elements == 2
        assert m.n_nodes == 4
        assert len(m.boundary_edges) == 4

    def test_reference_grid_52x34(self):
        m = build_regular_mesh(52, 34, 1.6, 1.0)
        assert m.n_elements == 3536

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_regular_mesh(0, 3, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_regular_mesh(3, 3, -1.0, 1.0)
        with pytest.raises(ValueError):
            build_regular_mesh(3, 0, 1.0, 0.0)

    def test_positive_signed_areas(self):
        m = build_regular_mesh(7, 5, 2.0, 1.3)
        assert np.all(element_geometry(m)[2] > 0)

    def test_boundary_edges_belong_to_one_triangle(self):
        m = build_regular_mesh(4, 3, 1.0, 1.0)
        tri_edges = {}
        for e, tri in enumerate(m.triangles):
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                key = (min(a, b), max(a, b))
                tri_edges.setdefault(key, []).append(e)
        for _, n1, n2 in m.boundary_edges:
            owners = tri_edges[(min(n1, n2), max(n1, n2))]
            assert len(owners) == 1

    def test_centroids(self):
        m = build_regular_mesh(2, 2, 1.0, 1.0)
        assert np.allclose(m.element_centroids, m.nodes[m.triangles].mean(axis=1))


class TestAssembleDiffusion:
    def test_hand_assembled_unit_square(self):
        # split unit square; nodes (0,0),(1,0),(1,1),(0,1); cotangent values
        # give the classic 4x4 stencil
        m = build_regular_mesh(1, 1, 1.0, 1.0)
        K = assemble_diffusion(diffusion_pattern(m), np.ones(2)).toarray()
        perm = [0, 1, 3, 2]  # node ids in ccw order around the square
        expected = np.array([
            [1.0, -0.5, 0.0, -0.5],
            [-0.5, 1.0, -0.5, 0.0],
            [0.0, -0.5, 1.0, -0.5],
            [-0.5, 0.0, -0.5, 1.0],
        ])
        assert np.allclose(K[np.ix_(perm, perm)], expected)

    def test_linearity_in_conductivity(self):
        m = build_regular_mesh(3, 2, 1.0, 1.0)
        lam = np.linspace(0.5, 2.0, m.n_elements)
        pattern = diffusion_pattern(m)
        K1 = assemble_diffusion(pattern, lam)
        K2 = assemble_diffusion(pattern, 2.0 * lam)
        assert np.allclose(K2.toarray(), 2.0 * K1.toarray())

    def test_symmetry(self):
        m = build_regular_mesh(5, 4, 2.0, 1.0)
        K = assemble_diffusion(diffusion_pattern(m), np.full(m.n_elements, 1.3)).toarray()
        assert np.max(np.abs(K - K.T)) < 1e-14

    def test_rejects_nonpositive_conductivity(self):
        m = build_regular_mesh(2, 2, 1.0, 1.0)
        lam = np.ones(m.n_elements)
        lam[3] = 0.0
        with pytest.raises(ValueError):
            assemble_diffusion(diffusion_pattern(m), lam)

    def test_1d_strip_linear_profile(self):
        # unit flux on the left, zero Dirichlet on the right: u = Lx - x
        m = build_regular_mesh(10, 1, 2.0, 0.1)
        bc = BoundaryConditions.build(m, 1, ("right",))
        K = assemble_diffusion(diffusion_pattern(m, bc.free), np.ones(m.n_elements))
        load = edge_mass_loads(m, "left", {n: 1.0 for n in boundary_nodes(m, "left")})
        sol = solve_forward(K, bc, load)
        assert np.max(np.abs(sol.nodal_field - (2.0 - m.nodes[:, 0]))) < 1e-10


class TestAssembleElasticity:
    def test_rigid_translation_null_space(self):
        m = build_regular_mesh(4, 3, 1.0, 1.0)
        K = assemble_elasticity(elasticity_pattern(m), np.ones(m.n_elements))
        tx = np.zeros(2 * m.n_nodes)
        tx[0::2] = 1.0
        ty = np.zeros(2 * m.n_nodes)
        ty[1::2] = 1.0
        assert np.max(np.abs(K.toarray() @ tx)) < 1e-12
        assert np.max(np.abs(K.toarray() @ ty)) < 1e-12

    def test_modulus_scaling_inverts_displacement(self):
        m = build_regular_mesh(6, 3, 2.0, 1.0)
        bc = BoundaryConditions.build(m, 2, ("left",),
                                      point_loads=[(m.n_nodes - 1, 1, -1e-3)])
        load = bc.load_vector()
        pattern = elasticity_pattern(m, bc.free)
        u1 = solve_forward(assemble_elasticity(pattern, np.ones(m.n_elements)), bc, load).nodal_field
        u3 = solve_forward(assemble_elasticity(pattern, 3.0 * np.ones(m.n_elements)), bc, load).nodal_field
        assert np.allclose(u3, u1 / 3.0, rtol=1e-10, atol=1e-16)

    def test_rejects_invalid_poisson_ratio(self):
        m = build_regular_mesh(2, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            unit_elasticity_element_matrices(m, 0.5)
        with pytest.raises(ValueError):
            unit_elasticity_element_matrices(m, -0.1)

    def test_axial_traction_self_convergence(self):
        # clamped left edge, uniform axial traction on the right; the coarse
        # tip displacement must sit within 2% of a fine-mesh reference
        def tip_u1(nx, ny):
            m = build_regular_mesh(nx, ny, 2.0, 1.0)
            bc = BoundaryConditions.build(m, 2, ("left",))
            K = assemble_elasticity(elasticity_pattern(m, bc.free), np.ones(m.n_elements))
            load = np.zeros(2 * m.n_nodes)
            right = boundary_nodes(m, "right")
            h = 1.0 / ny
            for n in right:
                w = h if 0.0 < m.nodes[n, 1] < 1.0 else h / 2.0
                load[2 * n] += 0.01 * w
            sol = solve_forward(K, bc, load)
            corner = int(np.argmin(np.sum((m.nodes - [2.0, 0.0]) ** 2, axis=1)))
            return sol.nodal_field[2 * corner]

        coarse = tip_u1(16, 8)
        fine = tip_u1(64, 32)
        assert abs(coarse - fine) / abs(fine) < 0.02


class TestStiffnessPattern:
    @pytest.mark.parametrize("ndof_per_node", [1, 2])
    def test_matches_dense_scatter(self, rng, ndof_per_node):
        m = build_regular_mesh(5, 4, 1.5, 1.0)
        clamped = ("right",) if ndof_per_node == 1 else ("left", "bottom")
        bc = BoundaryConditions.build(m, ndof_per_node, clamped)
        dofs = element_dofs(m, ndof_per_node)
        ke = (unit_diffusion_element_matrices(m) if ndof_per_node == 1
              else unit_elasticity_element_matrices(m, 0.3))
        coef = np.exp(rng.standard_normal(m.n_elements))
        dense = np.zeros((bc.ndof, bc.ndof))
        for e in range(m.n_elements):
            dense[np.ix_(dofs[e], dofs[e])] += coef[e] * ke[e]
        Kff = StiffnessPattern.build(dofs, ke, bc.free).assemble(coef, "coef")
        expected = dense[np.ix_(bc.free, bc.free)]
        assert np.max(np.abs(Kff.toarray() - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_rejects_wrong_length(self):
        m = build_regular_mesh(2, 2, 1.0, 1.0)
        with pytest.raises(ValueError, match="one value per element"):
            assemble_elasticity(elasticity_pattern(m), np.ones(m.n_elements + 1))

    @pytest.mark.parametrize("ndof_per_node", [1, 2])
    def test_unconstrained_block_matches_dense_scatter(self, rng, ndof_per_node):
        m = build_regular_mesh(4, 6, 1.0, 1.5)
        dofs = element_dofs(m, ndof_per_node)
        ke = (unit_diffusion_element_matrices(m) if ndof_per_node == 1
              else unit_elasticity_element_matrices(m, 0.3))
        coef = np.exp(rng.standard_normal(m.n_elements))
        ndof = ndof_per_node * m.n_nodes
        dense = np.zeros((ndof, ndof))
        for e in range(m.n_elements):
            dense[np.ix_(dofs[e], dofs[e])] += coef[e] * ke[e]
        K = StiffnessPattern.build(dofs, ke, np.arange(ndof)).assemble(coef, "coef")
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(K.toarray() - dense)) <= 1e-14 * scale
        x = rng.standard_normal(ndof)
        assert np.max(np.abs(K.toarray() @ x - dense @ x)) <= 1e-13 * scale * np.max(np.abs(x))

    @pytest.mark.parametrize("grid, kd", [((26, 17), 37), ((52, 34), 73)])
    def test_topology_half_bandwidth(self, grid, kd):
        m = build_regular_mesh(*grid, 1.6, 1.0)
        bc = BoundaryConditions.build(m, 2, ("left",))
        pattern = elasticity_pattern(m, bc.free)
        assert pattern.kd == kd
        assert np.array_equal(np.sort(pattern.perm), np.arange(bc.free.size))

    @pytest.mark.parametrize("ndof_per_node", [1, 2])
    def test_dofs_are_the_kept_dofs_in_band_order(self, ndof_per_node):
        m = build_regular_mesh(7, 5, 1.6, 1.0)
        bc = BoundaryConditions.build(m, ndof_per_node, ("left",))
        pattern = (diffusion_pattern if ndof_per_node == 1 else elasticity_pattern)(m, bc.free)
        assert np.array_equal(pattern.dofs, bc.free[pattern.perm])
        assert np.array_equal(np.sort(pattern.dofs), bc.free)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_youngs_modulus(self, bad):
        m = build_regular_mesh(26, 17, 1.6, 1.0)
        youngs = np.ones(m.n_elements)
        youngs[100] = bad
        with pytest.raises(ValueError, match="finite"):
            assemble_elasticity(elasticity_pattern(m), youngs)

    def test_nan_field_entry_is_rejected_before_the_solve(self):
        p = make_topo_problem(nx=26, ny=17)
        theta = p.field_prior.mean.copy()
        theta[100] = np.nan
        with pytest.raises(ValueError, match="finite"):
            p.evaluate(theta, np.zeros(p.d_z))
        assert p.forward_calls == 0


class TestSolveForward:
    def test_zero_load_zero_field(self):
        m = build_regular_mesh(3, 3, 1.0, 1.0)
        bc = BoundaryConditions.build(m, 1, ("right",))
        K = assemble_diffusion(diffusion_pattern(m, bc.free), np.ones(m.n_elements))
        sol = solve_forward(K, bc, np.zeros(m.n_nodes))
        assert np.all(sol.nodal_field == 0.0)

    def test_residual_small(self):
        m = build_regular_mesh(6, 4, 2.0, 1.0)
        bc = BoundaryConditions.build(m, 1, ("right",))
        K = assemble_diffusion(diffusion_pattern(m, bc.free), np.linspace(0.5, 2.0, m.n_elements))
        load = edge_mass_loads(m, "left", {n: 1.0 for n in boundary_nodes(m, "left")})
        sol = solve_forward(K, bc, load)
        assert sol.residual_rel < 1e-10

    def test_matches_dense_solve(self, rng):
        m = build_regular_mesh(6, 4, 1.6, 1.0)
        bc = BoundaryConditions.build(m, 2, ("left",), point_loads=[(m.n_nodes - 1, 1, -1e-3)])
        K = assemble_elasticity(elasticity_pattern(m, bc.free),
                                np.exp(rng.standard_normal(m.n_elements)))
        load = bc.load_vector()
        sol = solve_forward(K, bc, load)
        expected = np.linalg.solve(K.toarray(), load[bc.free])
        err = np.max(np.abs(sol.nodal_field[bc.free] - expected))
        assert err <= 1e-10 * np.max(np.abs(expected))

    def test_multi_column_adjoint_matches_dense_solve(self, rng):
        m = build_regular_mesh(7, 5, 1.6, 1.0)
        bc = BoundaryConditions.build(m, 2, ("left",), point_loads=[(m.n_nodes - 1, 1, -1e-3)])
        K = assemble_elasticity(elasticity_pattern(m, bc.free),
                                np.exp(rng.standard_normal(m.n_elements)))
        sol = solve_forward(K, bc, bc.load_vector())
        # Fortran order, as the models' adjoint right-hand sides are; the
        # result keeps it, and with it the summation order of element_bilinear
        rhs = np.asfortranarray(rng.standard_normal((bc.ndof, 5)))
        lam = sol.K_factorization(rhs)
        assert lam.flags.f_contiguous
        expected = np.linalg.solve(K.toarray(), rhs[bc.free])
        assert np.max(np.abs(lam[bc.free] - expected)) <= 1e-10 * np.max(np.abs(expected))
        clamped = np.setdiff1d(np.arange(bc.ndof), bc.free)
        assert np.all(lam[clamped] == 0.0)

    def test_symmetric_indefinite_block_raises(self):
        # nonsingular, so an LU would solve it; the Cholesky path must refuse
        m = build_regular_mesh(4, 3, 1.0, 1.0)
        bc = BoundaryConditions.build(m, 1, ("right",))
        K = assemble_diffusion(diffusion_pattern(m, bc.free), np.ones(m.n_elements))
        ab = K.ab.copy()
        ab[-1] -= np.mean(np.linalg.eigvalsh(K.toarray()))
        indefinite = BandedBlock(ab, K.pattern)
        eig = np.linalg.eigvalsh(indefinite.toarray())
        assert eig.min() < 0.0 < eig.max() and np.min(np.abs(eig)) > 1e-3
        load = edge_mass_loads(m, "left", {n: 1.0 for n in boundary_nodes(m, "left")})
        with pytest.raises(SingularSystemError):
            solve_forward(indefinite, bc, load)

    def test_load_on_clamped_dofs_is_ignored(self, rng):
        m = build_regular_mesh(6, 4, 1.6, 1.0)
        bc = BoundaryConditions.build(m, 2, ("left",), point_loads=[(m.n_nodes - 1, 1, -1e-3)])
        K = assemble_elasticity(elasticity_pattern(m, bc.free),
                                np.exp(rng.standard_normal(m.n_elements)))
        load = bc.load_vector()
        clamped = np.setdiff1d(np.arange(bc.ndof), bc.free)
        perturbed = load.copy()
        perturbed[clamped] = rng.standard_normal(clamped.size)
        u = solve_forward(K, bc, load).nodal_field
        assert np.array_equal(solve_forward(K, bc, perturbed).nodal_field, u)
        assert np.all(u[clamped] == 0.0)

    @pytest.mark.parametrize("shape", [(44,), (50,), (45, 1)])
    def test_rejects_load_of_wrong_shape(self, shape):
        m = build_regular_mesh(8, 4, 2.0, 1.0)
        bc = BoundaryConditions.build(m, 1, ("right",))
        assert bc.ndof == 45
        K = assemble_diffusion(diffusion_pattern(m, bc.free), np.ones(m.n_elements))
        with pytest.raises(ValueError, match="load must have shape"):
            solve_forward(K, bc, np.ones(shape))

    def test_rejects_block_of_wrong_shape(self):
        m = build_regular_mesh(3, 3, 1.0, 1.0)
        bc = BoundaryConditions.build(m, 1, ("right",))
        K = assemble_diffusion(diffusion_pattern(m), np.ones(m.n_elements))
        with pytest.raises(ValueError, match="free-free block"):
            solve_forward(K, bc, np.zeros(m.n_nodes))

    @pytest.mark.parametrize("void_fraction", [0.9, 0.99, 1.0])
    def test_mostly_void_design_solves_or_reports_singular(self, rng, void_fraction):
        p = make_topo_problem(nx=26, ny=17)
        z = np.full(p.d_z, 30.0)
        z[rng.permutation(p.d_z)[:int(np.ceil(void_fraction * p.d_z))]] = -60.0
        youngs = p.youngs_field(p.field_prior.mean, z)
        assert np.mean(youngs <= 2.0 * p.E_MIN) >= 0.9
        K = assemble_elasticity(p.pattern, youngs)
        try:
            sol = solve_forward(K, p.bc, p.load)
        except SingularSystemError:
            return
        assert sol.residual_rel <= 1e-3
        assert np.all(np.isfinite(sol.nodal_field))
        assert np.all(np.isfinite(p._read_out(sol.nodal_field)))

    def test_symmetric_mode_fill_below_default(self):
        p = make_topo_problem(nx=26, ny=17)
        K = assemble_elasticity(p.pattern, p.youngs_field(
            p.field_prior.mean, np.zeros(p.d_z)))
        sol = solve_forward(K, p.bc, p.load)
        assert sol.K_factorization.__self__.nnz < spla.splu(sp.csc_matrix(K.toarray())).nnz

    def test_heat_problem_positive_outputs(self):
        p = make_heat_problem(nx=10, ny=5, obs_x2=np.linspace(0.25, 0.75, 5))
        u = p.evaluate(np.zeros(p.d_theta), np.ones(p.d_z))
        assert np.all(np.isfinite(u))
        assert np.all(u > 0.0)

    def test_singular_system_reports_nullity(self):
        m = build_regular_mesh(2, 2, 1.0, 1.0)
        # pin a single dof: two rigid modes remain
        bc = BoundaryConditions(np.arange(1, 2 * m.n_nodes), [], 2, 2 * m.n_nodes)
        K = assemble_elasticity(elasticity_pattern(m, bc.free), np.ones(m.n_elements))
        with pytest.raises(SingularSystemError) as err:
            solve_forward(K, bc, np.zeros(2 * m.n_nodes))
        assert err.value.nullity == 2

    def test_build_rejects_unknown_tag(self):
        m = build_regular_mesh(3, 3, 1.0, 1.0)
        with pytest.raises(ValueError, match="unknown boundary tag"):
            BoundaryConditions.build(m, 1, ("right", "middle"))

    def test_build_requires_a_clamped_dof(self):
        m = build_regular_mesh(3, 3, 1.0, 1.0)
        with pytest.raises(ValueError, match="clamped dof"):
            BoundaryConditions.build(m, 2, ())

    def test_point_load_sign(self):
        m = build_regular_mesh(6, 4, 1.6, 1.0)
        corner = int(np.argmin(np.sum((m.nodes - [1.6, 0.0]) ** 2, axis=1)))
        bc = BoundaryConditions.build(m, 2, ("left",),
                                      point_loads=[(corner, 1, -1e-3)])
        K = assemble_elasticity(elasticity_pattern(m, bc.free), np.ones(m.n_elements))
        sol = solve_forward(K, bc, bc.load_vector())
        assert sol.nodal_field[2 * corner + 1] < 0.0


class TestAdjointJacobians:
    def probe_errors(self, model, theta, z, rng, n_probes=10, h=1e-5):
        u, Gt, Gz = model.evaluate_with_jacobians(theta, z)
        errs_t, errs_z = [], []
        for _ in range(n_probes):
            vt = rng.standard_normal(model.d_theta)
            vt /= np.linalg.norm(vt)
            fd = (model.evaluate(theta + h * vt, z) - model.evaluate(theta - h * vt, z)) / (2 * h)
            errs_t.append(np.linalg.norm(Gt @ vt - fd) / np.linalg.norm(fd))
            vz = rng.standard_normal(model.d_z)
            vz /= np.linalg.norm(vz)
            fd = (model.evaluate(theta, z + h * vz) - model.evaluate(theta, z - h * vz)) / (2 * h)
            errs_z.append(np.linalg.norm(Gz @ vz - fd) / np.linalg.norm(fd))
        return max(errs_t), max(errs_z)

    def test_heat_jacobians_match_finite_differences(self, rng):
        p = make_heat_problem(nx=10, ny=5, obs_x2=np.linspace(0.3, 0.7, 5))
        theta = p.field_prior.mean + 0.2 * rng.standard_normal(p.d_theta)
        z = rng.standard_normal(p.d_z)
        et, ez = self.probe_errors(p, theta, z, rng)
        assert et <= 1e-4
        assert ez <= 1e-4

    def test_heat_outputs_exactly_linear_in_design(self, rng):
        p = make_heat_problem(nx=8, ny=4, obs_x2=np.linspace(0.3, 0.7, 4))
        theta = p.field_prior.mean + 0.1 * rng.standard_normal(p.d_theta)
        z1 = rng.standard_normal(p.d_z)
        z2 = rng.standard_normal(p.d_z)
        u1 = p.evaluate(theta, z1)
        _, _, Gz = p.evaluate_with_jacobians(theta, z1)
        u12 = p.evaluate(theta, z1 + z2)
        assert np.allclose(u12 - u1, Gz @ z2, rtol=1e-9, atol=1e-12)

    def test_refinement_rate_heat(self):
        # smooth flux profile; nodal outputs converge at second order
        def outputs(nx):
            ny = nx // 2
            p = make_heat_problem(nx=nx, ny=ny, obs_x2=np.linspace(0.3, 0.7, 5))
            x2 = p.mesh.nodes[p.design_nodes, 1]
            z = np.sin(np.pi * x2)
            return p.evaluate(np.full(p.d_theta, p.field_prior.mu_theta0), z)

        u1, u2, u3 = outputs(10), outputs(20), outputs(40)
        rate = np.log2(np.linalg.norm(u1 - u2) / np.linalg.norm(u2 - u3))
        assert rate >= 1.8


class TestInterpolationAndExport:
    def test_grid_interpolation_exact_for_linear_fields(self):
        nx, ny, Lx, Ly = 7, 4, 2.0, 1.0
        m = build_regular_mesh(nx, ny, Lx, Ly)
        field = 2.0 * m.nodes[:, 0] - 0.7 * m.nodes[:, 1] + 0.3
        pts = np.array([[0.13, 0.77], [1.99, 0.01], [1.0, 0.5], [0.0, 0.0]])
        idx, w = grid_interpolation_weights(nx, ny, Lx, Ly, pts)
        vals = np.sum(field[idx] * w, axis=1)
        expected = 2.0 * pts[:, 0] - 0.7 * pts[:, 1] + 0.3
        assert np.allclose(vals, expected)

    def test_export_roundtrip(self, tmp_path):
        m = build_regular_mesh(2, 2, 1.0, 1.0)
        export_mesh(m, tmp_path / "mesh.txt")
        lines = (tmp_path / "mesh.txt").read_text().splitlines()
        assert len(lines) == m.n_nodes + m.n_elements + len(m.boundary_edges)
