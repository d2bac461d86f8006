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

    def test_solve_and_quad_consistent(self, rng):
        prior = small_prior()
        v = rng.standard_normal(prior.d)
        x = prior.solve(v)
        assert np.allclose(prior_covariance(prior) @ x, v)
        assert prior.quad(v) == pytest.approx(float(v @ prior.solve(v)), rel=1e-10)

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

    def test_factor_is_the_only_square_array(self):
        # the kernel is factored over its own buffer: one d x d allocation
        # at the peak, and the returned prior holds only the factor
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
        assert peak < 1.5 * square
        assert current < 1.5 * square
        held = [v for v in vars(prior).values()
                if isinstance(v, np.ndarray) and v.size >= d * d]
        assert len(held) == 1 and held[0] is prior.chol
        assert prior.chol.shape == (d, d)
        C = SG2 * np.exp(-cdist(pts, pts) / X0)
        L, info = random_field._factor_in_place(C)
        assert info == 0 and np.shares_memory(L, C)
        assert np.array_equal(L, prior.chol)


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
