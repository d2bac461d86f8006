"""Exponential-covariance prior and log-normal field sampling."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from conftest import prior_covariance
from vbdesign import random_field
from vbdesign.mesh_fem import build_regular_mesh
from vbdesign.random_field import build_covariance, sample_log_field

MU0 = -0.112
SG2 = 0.223
X0 = 0.1


def small_prior():
    mesh = build_regular_mesh(5, 4, 1.0, 0.8)
    return build_covariance(mesh.element_centroids, SG2, X0, MU0)


class TestBuildCovariance:
    def test_diagonal_is_variance(self):
        prior = small_prior()
        assert np.allclose(np.diag(prior_covariance(prior)), SG2)

    def test_pair_at_correlation_length(self):
        pts = np.array([[0.0, 0.0], [X0, 0.0]])
        prior = build_covariance(pts, SG2, X0)
        assert prior_covariance(prior)[0, 1] == pytest.approx(SG2 * np.exp(-1.0))

    def test_full_grid_factorization(self):
        mesh = build_regular_mesh(40, 20, 2.0, 1.0)
        prior = build_covariance(mesh.element_centroids, SG2, X0, MU0)
        pts = mesh.element_centroids
        C = SG2 * np.exp(-cdist(pts, pts) / X0)
        assert np.max(np.abs(C - C.T)) == 0.0
        # factorization succeeded and reproduces the matrix
        assert np.allclose(prior.chol @ prior.chol.T, C, atol=1e-8)

    def test_rejects_bad_parameters(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            build_covariance(pts, -1.0, X0)
        with pytest.raises(ValueError):
            build_covariance(pts, SG2, 0.0)

    def test_rejects_non_finite_input(self, rng):
        # LAPACK factors a NaN kernel without reporting a failed pivot
        pts = rng.uniform(size=(50, 2))
        pts[17, 1] = np.nan
        with pytest.raises(ValueError):
            build_covariance(pts, SG2, X0)
        for sigma_g2, x0 in ((np.nan, X0), (np.inf, X0), (SG2, np.nan), (SG2, np.inf)):
            with pytest.raises(ValueError):
                build_covariance(pts[:3], sigma_g2, x0)

    def test_solve_and_quad_consistent(self, rng):
        prior = small_prior()
        v = rng.standard_normal(prior.d)
        x = np.linalg.solve(prior_covariance(prior), v)
        assert prior.quad(v) == pytest.approx(float(v @ x), rel=1e-10)

    def test_quad_matches_dense_kernel(self, rng):
        # v^T C^-1 v against the kernel formed densely on the 5x4 lattice
        prior = small_prior()
        pts = build_regular_mesh(5, 4, 1.0, 0.8).element_centroids
        C = SG2 * np.exp(-cdist(pts, pts) / X0)
        for v in (rng.standard_normal(prior.d), np.ones(prior.d)):
            assert prior.quad(v) == pytest.approx(float(v @ np.linalg.solve(C, v)),
                                                  rel=1e-12)

    def test_quad_checks_only_v(self, rng):
        # the factor's upper triangle is never read, so it is not scanned;
        # a non-finite v is still refused
        prior = small_prior()
        v = rng.standard_normal(prior.d)
        chol = prior.chol.copy()
        chol[0, -1] = np.nan
        poisoned = random_field.FieldPrior(MU0, SG2, X0, chol)
        assert poisoned.quad(v) == prior.quad(v)
        for bad in (np.nan, np.inf):
            v[3] = bad
            with pytest.raises(ValueError):
                prior.quad(v)

    def test_mul_and_whiten_match_dense_factor(self, rng):
        # L B, L^T B and L^-1 B against dense products with L on the 5x4
        # lattice, for a vector and for columns; neither reads the upper
        # triangle
        prior = small_prior()
        L = prior.chol
        chol = L.copy()
        chol[np.triu_indices(prior.d, 1)] = np.nan
        poisoned = random_field.FieldPrior(MU0, SG2, X0, chol)
        for B in (rng.standard_normal(prior.d), rng.standard_normal((prior.d, 3))):
            for trans, dense in ((False, L), (True, L.T)):
                got = poisoned.mul(B, trans=trans)
                assert got.shape == B.shape
                assert np.max(np.abs(got - dense @ B)) <= 1e-12 * np.max(np.abs(dense @ B))
            expect = np.linalg.solve(L, B)
            got = poisoned.whiten(B)
            assert got.shape == B.shape
            assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_nugget_retry_rebuilds_the_kernel(self):
        # a repeated centroid makes the kernel exactly singular; the failed
        # in-place factorization has overwritten it, so the retry must
        # factor a fresh kernel plus the nugget
        mesh = build_regular_mesh(5, 4, 1.0, 0.8)
        pts = np.vstack([mesh.element_centroids[:1], mesh.element_centroids])
        K = SG2 * np.exp(-cdist(pts, pts) / X0)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(K)
        prior = build_covariance(pts, SG2, X0, MU0)
        expected = K + 1e-10 * SG2 * np.eye(len(pts))
        err = np.max(np.abs(prior.chol @ prior.chol.T - expected))
        assert err <= 1e-12 * np.max(np.abs(expected))
        assert np.array_equal(prior.chol, np.tril(prior.chol))

    def test_indefinite_kernel_still_raises(self, monkeypatch):
        # Euclidean distances always give a positive-definite exponential
        # kernel, so a non-metric distance table stands in for an input the
        # nugget cannot rescue: kernel ~ [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
        table = np.array([[0.0, 0.0, 50.0], [0.0, 0.0, 0.0], [50.0, 0.0, 0.0]])

        def fake_cdist(a, b, out):
            out[...] = table
            return out

        monkeypatch.setattr(random_field, "cdist", fake_cdist)
        with pytest.raises(np.linalg.LinAlgError, match="failed even with nugget"):
            build_covariance(np.zeros((3, 2)), SG2, X0)

    def test_factor_is_the_only_square_array(self, rng):
        # on the lattice no d x d kernel is formed: the factor is the one
        # d x d allocation at the peak, and the returned prior holds only it
        mesh = build_regular_mesh(30, 25, 2.0, 1.0)
        pts = mesh.element_centroids
        d = len(pts)
        assert d == 1500
        square = d * d * 8
        tracemalloc.start()
        try:
            prior = build_covariance(pts, SG2, X0, MU0)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * square
        assert current < 1.1 * square
        held = [v for v in vars(prior).values()
                if isinstance(v, np.ndarray) and v.size >= d * d]
        assert len(held) == 1 and held[0] is prior.chol
        assert prior.chol.shape == (d, d)
        # off the lattice the kernel is factored over its own buffer
        shuffled = pts[rng.permutation(d)]
        assert random_field._lattice_block(shuffled) is None
        C = SG2 * np.exp(-cdist(shuffled, shuffled) / X0)
        L, info = random_field._factor_in_place(C)
        assert info == 0 and np.shares_memory(L, C)
        assert np.array_equal(L, build_covariance(shuffled, SG2, X0, MU0).chol)


def dense_factor(pts, nugget=0.0):
    """The dense path's factor of the kernel on pts, from its own helpers."""
    C = np.empty((len(pts), len(pts)))
    random_field._fill_kernel(C, pts, pts, SG2, X0)
    C.flat[::len(pts) + 1] += nugget
    L, info = random_field._factor_in_place(C)
    assert info == 0
    return L


class TestLatticeFactor:
    """The block Schur factor on lattices against LAPACK on the full kernel."""

    @pytest.mark.parametrize("nx, ny", [(26, 17), (40, 20), (52, 34)])
    def test_matches_dense_factor(self, nx, ny):
        pts = build_regular_mesh(nx, ny, 2.0, 1.0).element_centroids
        assert random_field._lattice_block(pts) == 2 * nx
        L = build_covariance(pts, SG2, X0, MU0).chol
        assert L.flags.c_contiguous
        # row by row and in place: at 52x34 each d x d temporary is 100 MB
        assert not any(L[i, i + 1:].any() for i in range(len(L)))
        diff = dense_factor(pts)
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        ref_logdet = 2.0 * np.sum(np.log(np.diag(diff)))
        assert abs(logdet - ref_logdet) <= 1e-12 * abs(ref_logdet)
        diff -= L
        assert max(diff.max(), -diff.min()) <= 1e-12 * max(L.max(), -L.min())

    def test_other_point_sets_take_the_dense_path_bit_for_bit(self, rng):
        mesh = build_regular_mesh(5, 4, 1.0, 0.8)
        pts = mesh.element_centroids
        repeated = np.vstack([pts[:1], pts])
        cases = [(rng.uniform(size=(60, 2)), 0.0), (pts[rng.permutation(len(pts))], 0.0),
                 (repeated, 1e-10 * SG2)]
        for points, nugget in cases:
            assert random_field._lattice_block(points) is None
            got = build_covariance(points, SG2, X0, MU0).chol
            assert np.array_equal(got, dense_factor(points, nugget))

    def test_singular_lattice_takes_the_nugget_retry(self, monkeypatch):
        # each row repeats its first point, so T_0 and the kernel are exactly
        # singular while the points still form a lattice
        pts = build_regular_mesh(5, 4, 1.0, 0.8).element_centroids.copy()
        pts[1::10] = pts[0::10]
        assert random_field._lattice_block(pts) == 10
        d = len(pts)
        assert not random_field._block_schur(np.zeros((d, d)), pts, 10, SG2, X0, 0.0)
        schur = np.zeros((d, d))
        assert random_field._block_schur(schur, pts, 10, SG2, X0, 1e-10 * SG2)

        # the nugget comes only after the dense path failed without one too
        infos = []
        factor = random_field._factor_in_place

        def dense(C):
            L, info = factor(C)
            infos.append(info)
            return L, info
        monkeypatch.setattr(random_field, "_factor_in_place", dense)
        prior = build_covariance(pts, SG2, X0, MU0)
        assert len(infos) == 1 and infos[0] > 0
        assert np.array_equal(prior.chol, schur)
        expected = SG2 * np.exp(-cdist(pts, pts) / X0) + 1e-10 * SG2 * np.eye(d)
        err = np.max(np.abs(prior.chol @ prior.chol.T - expected))
        assert err <= 1e-12 * np.max(np.abs(expected))
        assert not np.any(np.triu(prior.chol, 1))

    def test_a_schur_breakdown_keeps_the_prior_free_of_nugget(self, monkeypatch):
        # the Schur algorithm is only weakly stable: where it breaks down on a
        # kernel that LAPACK factors, the dense path runs before any nugget
        pts = build_regular_mesh(8, 5, 1.0, 0.8).element_centroids
        schur = random_field._block_schur

        def breaks_without_nugget(L, pts, b, sigma_g2, x0, nugget):
            return bool(nugget) and schur(L, pts, b, sigma_g2, x0, nugget)
        monkeypatch.setattr(random_field, "_block_schur", breaks_without_nugget)
        got = build_covariance(pts, SG2, X0, MU0).chol
        assert np.array_equal(got, dense_factor(pts))

    def test_a_factor_failing_the_check_leaves_the_dense_path(self, monkeypatch):
        # perturbed step factors give a factor off by about 1e-6, which the
        # residual check of the last diagonal block rejects
        pts = build_regular_mesh(8, 5, 1.0, 0.8).element_centroids
        dpotrf = random_field.dpotrf

        def perturbed(a, lower=0, **kwargs):
            c, info = dpotrf(a, lower=lower, **kwargs)
            return (c * (1.0 + 1e-6) if lower else c), info
        monkeypatch.setattr(random_field, "dpotrf", perturbed)
        d = len(pts)
        assert not random_field._block_schur(np.zeros((d, d)), pts, 16, SG2, X0, 0.0)
        got = build_covariance(pts, SG2, X0, MU0).chol
        assert np.array_equal(got, dense_factor(pts))


class TestSampleLogField:
    def test_seed_reproducibility_bitwise(self):
        prior = small_prior()
        a = sample_log_field(prior, 42)
        b = sample_log_field(prior, 42)
        assert np.array_equal(a, b)
        c = sample_log_field(prior, 43)
        assert not np.array_equal(a, c)

    def test_monte_carlo_mean_and_covariance(self):
        prior = small_prior()
        rng = np.random.default_rng(7)
        M = 10_000
        xs = np.stack([sample_log_field(prior, rng) for _ in range(M)])
        se_mean = np.sqrt(SG2 / M)
        assert np.all(np.abs(xs.mean(axis=0) - MU0) < 4 * se_mean)
        # a handful of covariance entries within 4 standard errors
        emp = np.cov(xs[:, :6].T)
        C = prior_covariance(prior)
        for i in range(6):
            for j in range(6):
                cij = C[i, j]
                se = np.sqrt((SG2 * SG2 + cij**2) / M)
                assert abs(emp[i, j] - cij) < 4 * se

    def test_lognormal_mean_and_cov(self):
        # exp(mu + sigma^2/2) = 1 and CoV = sqrt(e^{sigma^2} - 1) = 0.50
        prior = small_prior()
        rng = np.random.default_rng(3)
        xs = np.exp(np.stack([sample_log_field(prior, rng) for _ in range(20_000)]))
        assert np.mean(xs) == pytest.approx(1.0, abs=0.02)
        cov = np.std(xs) / np.mean(xs)
        assert cov == pytest.approx(0.50, abs=0.02)

    def test_lognormal_identity(self):
        assert np.exp(MU0 + SG2 / 2) == pytest.approx(1.0, abs=1e-2)
