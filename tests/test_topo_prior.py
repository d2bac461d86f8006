"""Spin hyperprior: neighbor graph, sweep kernel, estimates, stationarity."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from vbdesign.mesh_fem import build_regular_mesh
from vbdesign.topo_prior import (
    BETA_BOUNDS,
    BETA_STEP,
    MODE_LOCATION,
    build_neighbor_graph,
    estimate_phi_mean,
    gibbs_sweep,
    grad_log_prior_mu_z,
    log_prior_mu_z,
    new_state,
    sweep_levels,
    sweep_spins,
)


def raster_sweep(phi, neighbors, drive, beta, log_u):
    """Reference kernel: one site at a time in index order, in place."""
    spins = phi.tolist()
    nbrs = neighbors.tolist()
    drv = drive.tolist()
    lu = log_u.tolist()
    for j in range(len(spins)):
        ssum = 0.0
        for nb in nbrs[j]:
            if nb >= 0:
                ssum += spins[nb]
        if lu[j] < -2.0 * spins[j] * (drv[j] - beta * ssum):
            spins[j] = -spins[j]
    phi[:] = spins


def raster_phi_mean(neighbors, mu_z, sweeps, burn_in, rng, m=MODE_LOCATION, s2=1.0,
                    phi=None, beta=0.0, flips=None, proposals=None):
    """Reference estimate_phi_mean on the raster kernel, drawing the same stream.

    Spins start from `phi` (default: the data side of mu_z); `flips`, when
    given, counts each site's flips, and `proposals` collects the beta
    proposals.
    """
    phi = np.where(mu_z >= 0.0, 1, -1).astype(np.int8) if phi is None else phi.copy()
    drive = (m / s2) * mu_z
    acc = np.zeros(len(phi))
    for t in range(sweeps):
        before = phi.copy()
        with np.errstate(divide="ignore"):
            log_u = np.log(rng.random(len(phi)))
        raster_sweep(phi, neighbors, drive, beta, log_u)
        if flips is not None:
            flips += before != phi
        prop = beta + BETA_STEP * rng.standard_normal()
        log_a = np.log(rng.random())
        if proposals is not None:
            proposals.append(prop)
        if BETA_BOUNDS[0] <= prop <= BETA_BOUNDS[1]:
            sums = np.where(neighbors >= 0, phi[neighbors], 0).astype(float).sum(axis=1)
            f = phi.astype(float)

            def pll(b):
                a = drive - b * sums
                return float(np.sum(f * a - np.logaddexp(a, -a)))
            if log_a < pll(prop) - pll(beta):
                beta = float(prop)
        if t >= burn_in:
            acc += phi
    return acc / (sweeps - burn_in), phi, beta


# 2 (|drive| - 2 * 3) = 53 log 2: above this edge an aligned site with three
# neighbor entries can never flip
FLIP_EDGE = 6.0 + 26.5 * np.log(2.0)
EDGE_OFFSETS = (-3.0, -1.0, -0.3, -0.1, -0.02, 0.02, 0.1)


def planted_drive(nb, rng):
    """Strong positive drives, 15% weak sites, and sites near the flip edge.

    Each edge site, of either sign, has only strong positive neighbors, and
    the edge sites take the offsets EDGE_OFFSETS from the edge in turn.
    Returns the drive and the edge sites.
    """
    d = len(nb)
    drive = rng.uniform(30.0, 60.0, d)
    weak = rng.random(d) < 0.15
    drive[weak] = rng.uniform(-1.0, 1.0, weak.sum())
    busy = weak.copy()
    edge = []
    for j in rng.permutation(d):
        row = [k for k in nb[j] if k >= 0]
        if not busy[j] and not busy[row].any():
            busy[j] = busy[row] = True
            edge.append(j)
    edge = np.array(edge)
    i = np.arange(len(edge))
    drive[edge] = np.where(i % 2 == 0, 1.0, -1.0) * (
        FLIP_EDGE + np.array(EDGE_OFFSETS)[i % len(EDGE_OFFSETS)])
    return drive, edge


class PlantedUniforms:
    """Generator stand-in: its d-long uniform draws are 2^-53 at `tiny`
    and 0 at `zeros` ((draw index, site) pairs), the rest from `rng`."""

    def __init__(self, rng, d, tiny, zeros):
        self.rng, self.d, self.tiny, self.zeros, self.t = rng, d, tiny, zeros, 0

    def random(self, size=None):
        u = self.rng.random(size)
        if size == self.d:
            u[self.tiny] = 2.0 ** -53
            for t, j in self.zeros:
                if t == self.t:
                    u[j] = 0.0
            self.t += 1
        return u

    def standard_normal(self):
        return self.rng.standard_normal()


class TestNeighborGraph:
    def test_two_triangle_square(self):
        mesh = build_regular_mesh(1, 1, 1.0, 1.0)
        nb = build_neighbor_graph(mesh)
        assert nb.shape == (2, 3)
        assert list(nb[0]) == [1, -1, -1]
        assert list(nb[1]) == [0, -1, -1]

    def test_full_grid_counts_and_symmetry(self):
        mesh = build_regular_mesh(52, 34, 1.6, 1.0)
        nb = build_neighbor_graph(mesh)
        counts = np.sum(nb >= 0, axis=1)
        assert set(np.unique(counts)) <= {1, 2, 3}
        assert np.sum(counts == 3) > 0.8 * mesh.n_elements
        # symmetric adjacency
        for j in range(0, mesh.n_elements, 97):
            for k in nb[j]:
                if k >= 0:
                    assert j in nb[k]

    def test_exhaustive_edge_scan(self):
        mesh = build_regular_mesh(5, 3, 1.0, 1.0)
        nb = build_neighbor_graph(mesh)
        for j, tri_j in enumerate(mesh.triangles):
            expected = []
            ej = {frozenset(p) for p in itertools.combinations(tri_j, 2)}
            for k, tri_k in enumerate(mesh.triangles):
                if k == j:
                    continue
                ek = {frozenset(p) for p in itertools.combinations(tri_k, 2)}
                if ej & ek:
                    expected.append(k)
            got = sorted(int(x) for x in nb[j] if x >= 0)
            assert got == sorted(expected)


def awkward_table(rng, d=300):
    """Random neighbor table: asymmetric rows, self-loops, repeated entries."""
    nb = rng.integers(-1, d, size=(d, 3)).astype(np.int32)
    loops = rng.choice(d, 20, replace=False)
    nb[loops, 1] = loops
    dup = rng.choice(d, 20, replace=False)
    nb[dup, 2] = nb[dup, 0]
    assert any(j not in nb[k] for j in range(d) for k in nb[j] if k >= 0)
    return nb


class TestSweepLevels:
    def check_schedule(self, nb):
        level = sweep_levels(nb)
        st = new_state(nb)
        assert sorted(np.concatenate([s for s, _ in st.levels]).tolist()) == list(range(len(nb)))
        for sites, _ in st.levels:
            members = set(sites.tolist())
            assert len(set(level[sites].tolist())) == 1
            for j in sites:
                assert not members & {int(k) for k in nb[j] if k >= 0 and k != j}
        for j in range(len(nb)):
            for k in nb[j]:
                if 0 <= k < j:
                    assert level[k] < level[j]
                elif k > j:
                    assert level[j] < level[k]
        return level

    @pytest.mark.parametrize("nx,ny,depth", [(26, 17, 34), (52, 34, 68)])
    def test_mesh_schedule(self, nx, ny, depth):
        level = self.check_schedule(build_neighbor_graph(build_regular_mesh(nx, ny, 1.6, 1.0)))
        assert level.max() + 1 == depth

    def test_awkward_table_schedule(self, rng):
        self.check_schedule(awkward_table(rng))

    def test_levels_are_longest_chains(self):
        # chain 0-1-2, a site with only a repeated self-loop, a site listing 0 and 2
        nb = np.array([[1, -1], [2, -1], [-1, -1], [3, 3], [0, 2]], dtype=np.int32)
        assert sweep_levels(nb).tolist() == [0, 1, 2, 0, 3]


class TestGibbsSweep:
    def test_kernels_bitwise_identical(self, rng):
        d = 300
        nb = awkward_table(rng, d)
        phi_w = rng.choice(np.array([-1, 1], dtype=np.int8), d)
        phi_r = phi_w.copy()
        st = new_state(nb)
        for beta in (-0.7, 0.0, 1.3):
            for _ in range(20):
                drive = rng.standard_normal(d)
                log_u = np.log(rng.random(d))
                spins = np.append(phi_w.astype(float), 0.0)
                sweep_spins(spins, st.levels, drive, beta, log_u)
                phi_w[:] = spins[:d]
                raster_sweep(phi_r, nb, drive, beta, log_u)
                assert np.array_equal(phi_w, phi_r)

    @pytest.mark.parametrize("nx,ny", [(26, 17), (52, 34)])
    def test_estimate_matches_raster_replay(self, nx, ny):
        nb = build_neighbor_graph(build_regular_mesh(nx, ny, 1.6, 1.0))
        mu = 0.3 * np.random.default_rng(5).standard_normal(len(nb))
        st = new_state(nb, mu)
        rng = np.random.default_rng(777)
        pm = estimate_phi_mean(st, mu, 500, 100, rng)
        rng_r = np.random.default_rng(777)
        pm_r, phi_r, beta_r = raster_phi_mean(nb, mu, 500, 100, rng_r)
        assert np.array_equal(pm, pm_r)
        assert np.array_equal(st.phi, phi_r)
        assert st.beta == beta_r
        assert rng.bit_generator.state == rng_r.bit_generator.state

    @pytest.mark.parametrize("table,beta", [("mesh", -1.9), ("mesh", 1.9), ("awkward", 1.9)])
    def test_active_sweep_matches_raster_replay(self, table, beta):
        # strong drives freeze most sites; edge sites draw u = 2^-53 every
        # sweep, so those just inside the edge flip while beta is near a bound;
        # strong sites start anti-aligned, and frozen sites draw u = 0
        rng = np.random.default_rng(8)
        nb = (build_neighbor_graph(build_regular_mesh(26, 17, 1.6, 1.0)) if table == "mesh"
              else awkward_table(rng))
        d = len(nb)
        drive, edge = planted_drive(nb, rng)
        mu = drive / MODE_LOCATION
        strong = np.flatnonzero(np.abs(drive) > 30.0)
        phi = np.where(mu >= 0.0, 1, -1).astype(np.int8)
        anti = rng.choice(strong, 10, replace=False)
        phi[anti] = -phi[anti]
        zeros = [(150, strong[0]), (151, strong[1]), (300, anti[0])]

        st = new_state(nb, mu, beta=beta)
        st.phi[:] = phi
        stream = PlantedUniforms(np.random.default_rng(9), d, edge, zeros)
        pm = estimate_phi_mean(st, mu, 500, 100, stream)
        flips = np.zeros(d, dtype=int)
        stream_r = PlantedUniforms(np.random.default_rng(9), d, edge, zeros)
        pm_r, phi_r, beta_r = raster_phi_mean(nb, mu, 500, 100, stream_r,
                                              phi=phi, beta=beta, flips=flips)
        assert np.array_equal(pm, pm_r)
        assert np.array_equal(st.phi, phi_r)
        assert st.beta == beta_r
        assert stream.rng.bit_generator.state == stream_r.rng.bit_generator.state
        # the replay reaches the edge from inside, never from outside
        gap = np.abs(drive[edge]) - FLIP_EDGE
        assert flips[edge[np.isclose(gap, -0.02)]].sum() > 0
        assert flips[edge[gap > 0.0]].sum() == 0
        assert flips[strong].sum() >= 10 + 2 * len(zeros)

    def test_all_frozen_matches_raster_replay(self):
        # no candidates: nothing is swept or scored, and from beta = 1.95
        # some proposals leave the box and are rejected
        nb = build_neighbor_graph(build_regular_mesh(26, 17, 1.6, 1.0))
        d = len(nb)
        gen = np.random.default_rng(3)
        mu = gen.choice([-1.0, 1.0], d) * gen.uniform(FLIP_EDGE + 0.1, 60.0, d) / MODE_LOCATION
        st = new_state(nb, mu, beta=1.95)
        rng = np.random.default_rng(12)
        pm = estimate_phi_mean(st, mu, 500, 100, rng)
        flips = np.zeros(d, dtype=int)
        proposals = []
        rng_r = np.random.default_rng(12)
        pm_r, phi_r, beta_r = raster_phi_mean(nb, mu, 500, 100, rng_r, beta=1.95,
                                              flips=flips, proposals=proposals)
        assert np.array_equal(pm, pm_r)
        assert np.array_equal(st.phi, phi_r)
        assert st.beta == beta_r
        assert rng.bit_generator.state == rng_r.bit_generator.state
        assert flips.sum() == 0
        assert max(proposals) > BETA_BOUNDS[1]

    def test_isolated_candidates_match_raster_replay(self):
        # weak sites whose neighbors are all frozen: their rows list no
        # candidate, yet they flip and their beta terms count
        nb = build_neighbor_graph(build_regular_mesh(26, 17, 1.6, 1.0))
        d = len(nb)
        gen = np.random.default_rng(4)
        drive = gen.choice([-1.0, 1.0], d) * gen.uniform(30.0, 60.0, d)
        busy = np.zeros(d, dtype=bool)
        weak = []
        for j in gen.permutation(d)[:200]:
            row = nb[j][nb[j] >= 0]
            if not busy[j] and not busy[row].any():
                busy[j] = busy[row] = True
                weak.append(j)
        drive[weak] = gen.uniform(-1.0, 1.0, len(weak))
        mu = drive / MODE_LOCATION
        st = new_state(nb, mu, beta=-1.0)
        rng = np.random.default_rng(13)
        pm = estimate_phi_mean(st, mu, 500, 100, rng)
        flips = np.zeros(d, dtype=int)
        rng_r = np.random.default_rng(13)
        pm_r, phi_r, beta_r = raster_phi_mean(nb, mu, 500, 100, rng_r, beta=-1.0,
                                              flips=flips)
        assert np.array_equal(pm, pm_r)
        assert np.array_equal(st.phi, phi_r)
        assert st.beta == beta_r
        assert rng.bit_generator.state == rng_r.bit_generator.state
        assert len(weak) >= 20 and flips[weak].min() > 0
        assert flips.sum() == flips[weak].sum()

    def test_spins_stay_binary(self, rng):
        mesh = build_regular_mesh(6, 4, 1.0, 1.0)
        st = new_state(build_neighbor_graph(mesh))
        mu = rng.standard_normal(mesh.n_elements)
        for _ in range(50):
            gibbs_sweep(st, mu, rng)
            assert set(np.unique(st.phi)) <= {-1, 1}
            assert -2.0 <= st.beta <= 2.0

    def test_deterministic_replay(self):
        mesh = build_regular_mesh(6, 4, 1.0, 1.0)
        nb = build_neighbor_graph(mesh)
        mu = np.linspace(-1, 1, mesh.n_elements)
        out = []
        for _ in range(2):
            st = new_state(nb, mu)
            rng = np.random.default_rng(99)
            for _ in range(20):
                gibbs_sweep(st, mu, rng)
            out.append((st.phi.copy(), st.beta))
        assert np.array_equal(out[0][0], out[1][0])
        assert out[0][1] == out[1][1]

    def test_zero_coupling_bernoulli_marginal(self):
        # at beta = 0 sites are independent with P(+1) = sigmoid(2 m mu / s2)
        mesh = build_regular_mesh(4, 3, 1.0, 1.0)
        nb = build_neighbor_graph(mesh)
        m, s2 = 1.3, 2.0
        mu = np.linspace(-1.2, 1.2, mesh.n_elements)
        st = new_state(nb, mu, m=m, s2=s2, beta=0.0)
        rng = np.random.default_rng(11)
        sweeps = 20_000
        acc = np.zeros(mesh.n_elements)
        for _ in range(sweeps):
            gibbs_sweep(st, mu, rng, update_beta=False)
            acc += st.phi > 0
        p_emp = acc / sweeps
        p_true = 1.0 / (1.0 + np.exp(-2.0 * m * mu / s2))
        se = np.sqrt(p_true * (1 - p_true) / sweeps)
        assert np.all(np.abs(p_emp - p_true) <= 4 * np.maximum(se, 1e-4))

    def test_strong_negative_coupling_aligns_neighbors(self):
        mesh = build_regular_mesh(10, 5, 1.0, 0.5)
        nb = build_neighbor_graph(mesh)
        st = new_state(nb, None, beta=-2.0)
        mu = np.zeros(mesh.n_elements)
        rng = np.random.default_rng(4)
        corr = []
        for t in range(4000):
            gibbs_sweep(st, mu, rng, update_beta=False)
            if t >= 500:
                pairs = [(j, k) for j in range(mesh.n_elements) for k in nb[j] if k >= 0]
                corr.append(np.mean([st.phi[j] * st.phi[k] for j, k in pairs]))
        assert np.mean(corr) > 0.9


class TestEstimatePhiMean:
    def test_strong_drive_pins_spins(self):
        mesh = build_regular_mesh(4, 2, 1.0, 1.0)
        nb = build_neighbor_graph(mesh)
        m = MODE_LOCATION
        mu = np.full(mesh.n_elements, 10.0 * m)
        st = new_state(nb, mu, beta=0.0)
        pm = estimate_phi_mean(st, mu, 500, 100, np.random.default_rng(0),
                               update_beta=False)
        assert np.all(pm >= 0.99)

    def test_symmetric_drive_near_zero_mean(self):
        mesh = build_regular_mesh(4, 2, 1.0, 1.0)
        nb = build_neighbor_graph(mesh)
        mu = np.zeros(mesh.n_elements)
        st = new_state(nb, mu, beta=0.0)
        pm = estimate_phi_mean(st, mu, 20_000, 100, np.random.default_rng(1),
                               update_beta=False)
        assert np.max(np.abs(pm)) <= 0.05

    def test_no_systematic_spatial_gradient(self):
        # all-zero design mean: the two domain halves should look alike
        mesh = build_regular_mesh(12, 6, 1.0, 0.5)
        nb = build_neighbor_graph(mesh)
        mu = np.zeros(mesh.n_elements)
        st = new_state(nb, mu)
        pm = estimate_phi_mean(st, mu, 4000, 500, np.random.default_rng(2))
        left = pm[mesh.element_centroids[:, 0] < 0.5]
        right = pm[mesh.element_centroids[:, 0] >= 0.5]
        assert scipy.stats.ks_2samp(left, right).pvalue > 0.01

    def test_requires_sweeps_beyond_burn_in(self):
        mesh = build_regular_mesh(2, 2, 1.0, 1.0)
        st = new_state(build_neighbor_graph(mesh))
        with pytest.raises(ValueError):
            estimate_phi_mean(st, np.zeros(mesh.n_elements), 10, 10,
                              np.random.default_rng(0))

    def test_rejects_negative_burn_in(self):
        mesh = build_regular_mesh(2, 2, 1.0, 1.0)
        st = new_state(build_neighbor_graph(mesh))
        with pytest.raises(ValueError):
            estimate_phi_mean(st, np.zeros(mesh.n_elements), 10, -5,
                              np.random.default_rng(0))

    @pytest.mark.parametrize("beta", [7.0, -2.01, np.nan])
    def test_new_state_rejects_beta_outside_bounds(self, beta):
        nb = build_neighbor_graph(build_regular_mesh(2, 2, 1.0, 1.0))
        with pytest.raises(ValueError):
            new_state(nb, beta=beta)
        new_state(nb, beta=BETA_BOUNDS[0])

    @pytest.mark.parametrize("beta", [10.0, -2.01, np.inf, np.nan])
    def test_chain_rejects_beta_outside_bounds(self, beta):
        # a state whose beta left the box through replace() is refused, not
        # run on the frozen-set shortcut that assumes |beta| <= 2
        mesh = build_regular_mesh(8, 5, 1.0, 1.0)
        mu = np.full(mesh.n_elements, 25.0 / MODE_LOCATION)
        st = replace(new_state(build_neighbor_graph(mesh), mu), beta=beta)
        with pytest.raises(ValueError):
            estimate_phi_mean(st, mu, 50, 10, np.random.default_rng(0), update_beta=False)
        with pytest.raises(ValueError):
            gibbs_sweep(st, mu, np.random.default_rng(0), update_beta=False)

    def test_phi_mean_in_range(self, rng):
        mesh = build_regular_mesh(5, 3, 1.0, 1.0)
        st = new_state(build_neighbor_graph(mesh))
        mu = rng.standard_normal(mesh.n_elements)
        pm = estimate_phi_mean(st, mu, 300, 50, rng)
        assert np.all(pm >= -1.0) and np.all(pm <= 1.0)


class TestStationarity:
    def analytic_distribution(self, nb, mu, m, s2, beta):
        d = len(mu)
        states = list(itertools.product([-1, 1], repeat=d))
        logp = []
        for phi in states:
            phi = np.array(phi)
            val = np.sum(-(mu - m * phi) ** 2 / (2 * s2))
            double_count = sum(phi[j] * phi[k] for j in range(d) for k in nb[j] if k >= 0)
            val -= 0.5 * beta * double_count
            logp.append(val)
        logp = np.array(logp)
        p = np.exp(logp - logp.max())
        return states, p / p.sum()

    def test_four_element_chain_total_variation(self):
        # 2x1 grid: 4 triangles in a path; exhaustive 16-state comparison
        mesh = build_regular_mesh(2, 1, 1.0, 0.5)
        nb = build_neighbor_graph(mesh)
        assert mesh.n_elements == 4
        m, s2, beta = 1.0, 1.0, -0.4
        rng = np.random.default_rng(17)
        mu = np.array([0.3, -0.2, 0.4, -0.5])
        states, p_true = self.analytic_distribution(nb, mu, m, s2, beta)
        index = {s: i for i, s in enumerate(states)}
        st = new_state(nb, mu, m=m, s2=s2, beta=beta)
        counts = np.zeros(len(states))
        sweeps = 100_000
        for t in range(sweeps):
            gibbs_sweep(st, mu, rng, update_beta=False)
            if t >= 1000:
                counts[index[tuple(st.phi)]] += 1
        p_emp = counts / counts.sum()
        tv = 0.5 * np.sum(np.abs(p_emp - p_true))
        assert tv <= 1e-2


class TestLogPrior:
    def test_mode_value_zero(self, rng):
        d = 9
        m, s2 = MODE_LOCATION, 1.0
        phi = rng.choice([-1.0, 1.0], d)
        assert log_prior_mu_z(m * phi, phi, m, s2) == pytest.approx(0.0, abs=1e-9)

    def test_gradient_matches_finite_differences(self, rng):
        d = 7
        mu = rng.standard_normal(d)
        pm = rng.uniform(-1, 1, d)
        g = grad_log_prior_mu_z(mu, pm, 2.0, 0.7)
        h = 1e-6
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd = (log_prior_mu_z(mu + e, pm, 2.0, 0.7)
                  - log_prior_mu_z(mu - e, pm, 2.0, 0.7)) / (2 * h)
            assert fd == pytest.approx(g[j], abs=1e-10 * max(1.0, abs(g[j])) + 1e-6)

    def test_constant_second_difference(self, rng):
        d = 5
        mu = rng.standard_normal(d)
        pm = rng.uniform(-1, 1, d)
        s2 = 1.8
        e = np.zeros(d)
        e[2] = 1e-3
        ref = (log_prior_mu_z(mu + e, pm, 1.0, s2)
               - 2 * log_prior_mu_z(mu, pm, 1.0, s2)
               + log_prior_mu_z(mu - e, pm, 1.0, s2)) / 1e-6
        assert ref == pytest.approx(-1.0 / s2, rel=1e-6)

    def test_mode_location_constant(self):
        assert MODE_LOCATION == pytest.approx(np.log(999.0))
        assert 1.0 / (1.0 + np.exp(MODE_LOCATION)) == pytest.approx(1e-3)
