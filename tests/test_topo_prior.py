"""Spin hyperprior: neighbor graph, sweep kernel, estimates, stationarity."""

import copy
import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from conftest import (four_site_chain, raster_phi_mean, raster_sweep, replay_chain,
                      sweep_levels)
from vbdesign.map_opt import MapOptions, _z_prior
from vbdesign.mesh_fem import build_regular_mesh
from vbdesign.topo_prior import (
    BETA_BOUNDS,
    BETA_STEP,
    MODE_LOCATION,
    build_neighbor_graph,
    data_side_spins,
    draw_chain,
    estimate_phi_mean,
    log_prior_mu_z,
    new_state,
)


def flip_counts(phi0, trace):
    """Flips of each site over a raster_phi_mean trace that started from phi0."""
    states = np.array([phi0] + [phi for phi, _ in trace])
    return np.count_nonzero(np.diff(states, axis=0), axis=0)


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
        self.rng, self.d, self.tiny, self.t = rng, d, tiny, 0
        self.zeros = {}
        for t, j in zeros:
            self.zeros.setdefault(t, []).append(j)

    def random(self, size=None):
        u = self.rng.random(size)
        if size == self.d:
            u[self.tiny] = 2.0 ** -53
            u[self.zeros.get(self.t, [])] = 0.0
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
    # the longest-chain reference that bounds a sweep's passes
    def check_schedule(self, nb):
        level = sweep_levels(nb)
        for lv in range(level.max() + 1):
            members = set(np.flatnonzero(level == lv).tolist())
            for j in members:
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


ZERO_SWEEPS = range(150, 170, 2)


class FixedDraws:
    """Generator stand-in whose one d-long uniform draw is `u`."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u


def split_fixture(m, anti_half):
    """Frozen sites whose neighbors are all candidates on both sides of them.

    On the 26x17 mesh, 40 strong sites have only weak neighbors, at least one
    before and one after them in raster order. Every other one draws u = 0
    once while aligned. With m > 0 and `anti_half` the others start
    anti-aligned; with m < 0 every site starts anti-aligned. Returns the
    table, mu, the start spins, the picked sites and the (sweep, site) zero
    draws of the picks.
    """
    nb = build_neighbor_graph(build_regular_mesh(26, 17, 1.6, 1.0))
    d = len(nb)
    gen = np.random.default_rng(21)
    drive = gen.choice([-1.0, 1.0], d) * gen.uniform(30.0, 60.0, d)
    busy = np.zeros(d, dtype=bool)
    picks = []
    for f in gen.permutation(d):
        row = nb[f][nb[f] >= 0]
        if row.min() < f < row.max() and not busy[f] and not busy[row].any():
            busy[f] = busy[row] = True
            picks.append(f)
        if len(picks) == 40:
            break
    picks = np.array(picks)
    assert len(picks) == 40
    weak = np.concatenate([nb[f][nb[f] >= 0] for f in picks])
    drive[weak] = gen.uniform(-1.0, 1.0, len(weak))
    mu = drive / m
    phi = data_side_spins(mu)
    if m > 0 and anti_half:
        phi[picks[::2]] = -phi[picks[::2]]
    zeros = [(3 + 7 * i, f) for i, f in enumerate(picks[1::2])]
    return nb, mu, phi, picks, zeros


class TestGibbsSweep:
    def test_kernels_bitwise_identical(self, rng):
        # one sweep of estimate_phi_mean at a time, with m = s2 = 1 so that
        # the drive is mu, against the one-site-at-a-time scan
        d = 300
        nb = awkward_table(rng, d)
        phi_r = rng.choice(np.array([-1, 1], dtype=np.int8), d)
        st = new_state(nb, m=1.0, s2=1.0)
        st.phi[:] = phi_r
        for beta in (-0.7, 0.0, 1.3):
            st.beta = beta
            for _ in range(20):
                drive = rng.standard_normal(d)
                u = rng.random(d)
                pm = estimate_phi_mean(st, drive, 1, 0,
                                       draw_chain(FixedDraws(u), d, 1, update_beta=False))
                raster_sweep(phi_r, nb, drive, beta, np.log(u))
                assert np.array_equal(st.phi, phi_r)
                assert np.array_equal(pm, phi_r)

    @pytest.mark.parametrize("nx,ny", [(26, 17), (52, 34)])
    def test_estimate_matches_raster_replay(self, nx, ny):
        nb = build_neighbor_graph(build_regular_mesh(nx, ny, 1.6, 1.0))
        mu = 0.3 * np.random.default_rng(5).standard_normal(len(nb))
        _, same = replay_chain(nb, mu, 500, 100, lambda: np.random.default_rng(777))
        assert same

    def planted_replay(self, table, beta, update_beta):
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
        phi = data_side_spins(mu)
        anti = rng.choice(strong, 10, replace=False)
        phi[anti] = -phi[anti]
        zeros = [(150, strong[0]), (151, strong[1]), (300, anti[0])]
        trace = []
        _, same = replay_chain(
            nb, mu, 500, 100, lambda: PlantedUniforms(np.random.default_rng(9), d, edge, zeros),
            phi=phi, beta=beta, update_beta=update_beta, trace=trace)
        assert same
        flips = flip_counts(phi, trace)
        # the replay reaches the edge from inside, never from outside
        gap = np.abs(drive[edge]) - FLIP_EDGE
        assert flips[edge[np.isclose(gap, -0.02)]].sum() > 0
        assert flips[edge[gap > 0.0]].sum() == 0
        assert flips[strong].sum() >= 10 + 2 * len(zeros)
        return nb, drive, edge, gap, flips

    @pytest.mark.parametrize("table,beta", [("mesh", -1.9), ("mesh", 1.9), ("awkward", 1.9)])
    def test_active_sweep_matches_raster_replay(self, table, beta):
        self.planted_replay(table, beta, update_beta=True)

    @pytest.mark.parametrize("table", ["mesh", "awkward"])
    @pytest.mark.parametrize("beta", BETA_BOUNDS)
    def test_box_edge_matches_raster_replay(self, table, beta):
        # at |beta| = 2, |beta s| reaches the 2 deg the frozen set assumes:
        # a site with three aligned neighbor entries whose drive has beta's
        # sign flips on every 2^-53 draw just inside the edge
        nb, drive, edge, gap, flips = self.planted_replay(table, beta, update_beta=False)
        deg = np.count_nonzero(nb[edge] >= 0, axis=1)
        tight = np.isclose(gap, -0.02) & (deg == 3) & (np.sign(drive[edge]) == np.sign(beta))
        assert tight.any() and flips[edge[tight]].min() > 0

    @pytest.mark.parametrize("m,anti_half", [(MODE_LOCATION, True), (MODE_LOCATION, False),
                                             (-MODE_LOCATION, False)],
                             ids=["m>0", "m>0-aligned", "m<0"])
    def test_frozen_flips_match_raster_replay(self, m, anti_half):
        # a frozen site's candidate neighbors before it in raster order read
        # its new value, those after it its old one; at each of ZERO_SWEEPS
        # every site draws u = 0 and flips, so every frozen site is
        # anti-aligned at that sweep's beta move
        nb, mu, phi, picks, zeros = split_fixture(m, anti_half)
        d = len(nb)
        every = [(t, j) for t in ZERO_SWEEPS for j in range(d)]
        trace = []
        _, same = replay_chain(
            nb, mu, 200, 50,
            lambda: PlantedUniforms(np.random.default_rng(22), d, np.array([], int), zeros + every),
            m=m, phi=phi, beta=-1.5, trace=trace)
        assert same
        states = np.array([phi] + [s for s, _ in trace])
        for t in ZERO_SWEEPS:
            assert np.array_equal(states[t + 1], -states[t])
        drive = m * mu
        for f in picks:
            row = nb[f][nb[f] >= 0]
            assert row.min() < f < row.max() and np.all(np.abs(drive[row]) < 1.0)
        anti = picks[phi[picks] * drive[picks] < 0]
        assert len(anti) == (len(picks) if m < 0 else len(picks[::2]) if anti_half else 0)
        assert np.all(states[1, anti] == -phi[anti])
        for t, f in zeros:
            assert states[t, f] * drive[f] > 0 and states[t + 1, f] * drive[f] < 0

    def test_all_frozen_matches_raster_replay(self):
        # no candidates: nothing is swept or scored, and from beta = 1.95
        # some proposals leave the box and are rejected
        nb = build_neighbor_graph(build_regular_mesh(26, 17, 1.6, 1.0))
        d = len(nb)
        gen = np.random.default_rng(3)
        mu = gen.choice([-1.0, 1.0], d) * gen.uniform(FLIP_EDGE + 0.1, 60.0, d) / MODE_LOCATION
        trace, proposals = [], []
        _, same = replay_chain(nb, mu, 500, 100, lambda: np.random.default_rng(12),
                               beta=1.95, trace=trace, proposals=proposals)
        assert same
        assert flip_counts(data_side_spins(mu), trace).sum() == 0
        assert max(proposals) > BETA_BOUNDS[1]
        st = new_state(nb, mu, beta=1.95)
        estimate_phi_mean(st, mu, 50, 10, draw_chain(np.random.default_rng(12), d, 50))
        assert st.passes == 0

    def test_flip_travels_whole_chain(self):
        # a ring in raster order with zero drive at beta = -2, all +1 but the
        # last site: site 0 sits between anti-aligned neighbors (s = 0) and
        # flips, and then each later site flips because the one before it
        # did, so the first sweep's flip travels the whole chain, one site
        # per pass
        d = 40
        nb = np.array([[(j - 1) % d, (j + 1) % d, -1] for j in range(d)], dtype=np.int32)
        mu = np.zeros(d)
        phi = np.ones(d, dtype=np.int8)
        phi[-1] = -1
        longest = sweep_levels(nb).max() + 1
        assert longest == d
        trace = []
        _, same = replay_chain(nb, mu, 300, 50, lambda: np.random.default_rng(31), phi=phi,
                               beta=-2.0, trace=trace)
        assert same
        assert np.all(trace[0][0] == -1)
        # the same chain one sweep per call, for each sweep's passes
        st = new_state(nb, mu, beta=-2.0)
        st.phi[:] = phi
        rng = np.random.default_rng(31)
        passes = []
        for spins, beta in trace:
            before = st.passes
            estimate_phi_mean(st, mu, 1, 0, draw_chain(rng, d, 1))
            passes.append(st.passes - before)
            assert np.array_equal(st.phi, spins) and st.beta == beta
        assert passes[0] >= d - 1 and max(passes) <= longest

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
        trace = []
        _, same = replay_chain(nb, mu, 500, 100, lambda: np.random.default_rng(13),
                               beta=-1.0, trace=trace)
        assert same
        flips = flip_counts(data_side_spins(mu), trace)
        assert len(weak) >= 20 and flips[weak].min() > 0
        assert flips.sum() == flips[weak].sum()

    def test_spins_stay_binary(self, rng):
        mesh = build_regular_mesh(6, 4, 1.0, 1.0)
        nb = build_neighbor_graph(mesh)
        mu = rng.standard_normal(mesh.n_elements)
        trace = []
        _, same = replay_chain(nb, mu, 50, 0, lambda: copy.deepcopy(rng),
                               phi=np.ones(mesh.n_elements, dtype=np.int8), trace=trace)
        assert same
        for phi, beta in trace:
            assert set(np.unique(phi)) <= {-1, 1}
            assert -2.0 <= beta <= 2.0

    def test_deterministic_replay(self):
        mesh = build_regular_mesh(6, 4, 1.0, 1.0)
        nb = build_neighbor_graph(mesh)
        mu = np.linspace(-1, 1, mesh.n_elements)
        out = []
        for _ in range(2):
            ref, same = replay_chain(nb, mu, 20, 0, lambda: np.random.default_rng(99))
            assert same
            out.append(ref)
        assert np.array_equal(out[0][0], out[1][0])
        assert np.array_equal(out[0][1], out[1][1])
        assert out[0][2] == out[1][2]

    def test_zero_coupling_bernoulli_marginal(self):
        # at beta = 0 sites are independent with P(+1) = sigmoid(2 m mu / s2)
        mesh = build_regular_mesh(4, 3, 1.0, 1.0)
        nb = build_neighbor_graph(mesh)
        m, s2 = 1.3, 2.0
        mu = np.linspace(-1.2, 1.2, mesh.n_elements)
        sweeps = 20_000
        trace = []
        _, same = replay_chain(nb, mu, sweeps, 0, lambda: np.random.default_rng(11),
                               m=m, s2=s2, update_beta=False, trace=trace)
        assert same
        p_emp = np.sum([phi > 0 for phi, _ in trace], axis=0) / sweeps
        p_true = 1.0 / (1.0 + np.exp(-2.0 * m * mu / s2))
        se = np.sqrt(p_true * (1 - p_true) / sweeps)
        assert np.all(np.abs(p_emp - p_true) <= 4 * np.maximum(se, 1e-4))

    def test_strong_negative_coupling_aligns_neighbors(self):
        mesh = build_regular_mesh(10, 5, 1.0, 0.5)
        nb = build_neighbor_graph(mesh)
        mu = np.zeros(mesh.n_elements)
        trace = []
        _, same = replay_chain(nb, mu, 4000, 0, lambda: np.random.default_rng(4),
                               beta=-2.0, update_beta=False, trace=trace)
        assert same
        j, k = np.nonzero(nb >= 0)
        states = np.array([phi for phi, _ in trace[500:]], dtype=float)
        corr = np.mean(states[:, j] * states[:, nb[j, k]], axis=1)
        assert np.mean(corr) > 0.9


class TestDrawChain:
    @pytest.mark.parametrize("update_beta", [True, False])
    def test_matches_per_sweep_generator_calls(self, update_beta):
        # sweep 2 draws u = 0 at sites 5 and 40: its flag is set and the
        # logs there are -inf
        d, sweeps = 60, 7
        gen = PlantedUniforms(np.random.default_rng(3), d, np.array([], int), [(2, 5), (2, 40)])
        draws = draw_chain(gen, d, sweeps, update_beta)
        ref = np.random.default_rng(3)
        for t in range(sweeps):
            u = ref.random(d)
            if t == 2:
                u[[5, 40]] = 0.0
            with np.errstate(divide="ignore"):
                assert np.array_equal(draws.log_u[t], np.log(u))
            assert draws.zero[t] == (t == 2)
            if update_beta:
                assert draws.steps[t] == BETA_STEP * ref.standard_normal()
                assert draws.log_a[t] == np.log(ref.random())
        assert draws.log_u[2, 5] == draws.log_u[2, 40] == -np.inf
        assert np.isfinite(np.delete(draws.log_u, [2 * d + 5, 2 * d + 40])).all()
        assert (draws.steps is None) == (draws.log_a is None) == (not update_beta)
        assert gen.rng.bit_generator.state == ref.bit_generator.state

    def test_arrays_are_read_only(self):
        draws = draw_chain(np.random.default_rng(0), 10, 4)
        for a in (draws.log_u, draws.zero, draws.steps, draws.log_a):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_shared_draws_equal_fresh_generators(self):
        # two chains of a run on one draws object, against two raster
        # chains that each start a fresh generator on the seed
        nb = build_neighbor_graph(build_regular_mesh(26, 17, 1.6, 1.0))
        d = len(nb)
        gen = np.random.default_rng(5)
        draws = draw_chain(np.random.default_rng(777), d, 300)
        for mu in (0.3 * gen.standard_normal(d), 5.0 * gen.standard_normal(d)):
            st = new_state(nb, mu)
            pm = estimate_phi_mean(st, mu, 300, 60, draws)
            ref = raster_phi_mean(nb, mu, 300, 60, np.random.default_rng(777))
            assert np.array_equal(pm, ref[0]) and np.array_equal(st.phi, ref[1])
            assert st.beta == ref[2]
            fresh = new_state(nb, mu)
            estimate_phi_mean(fresh, mu, 300, 60, draw_chain(np.random.default_rng(777), d, 300))
            assert np.array_equal(fresh.phi_mean, pm) and fresh.beta == st.beta


class TestEstimatePhiMean:
    def test_strong_drive_pins_spins(self):
        mesh = build_regular_mesh(4, 2, 1.0, 1.0)
        nb = build_neighbor_graph(mesh)
        m = MODE_LOCATION
        mu = np.full(mesh.n_elements, 10.0 * m)
        st = new_state(nb, mu, beta=0.0)
        pm = estimate_phi_mean(st, mu, 500, 100, draw_chain(np.random.default_rng(0),
                                                            mesh.n_elements, 500, False))
        assert np.all(pm >= 0.99)

    def test_symmetric_drive_near_zero_mean(self):
        mesh = build_regular_mesh(4, 2, 1.0, 1.0)
        nb = build_neighbor_graph(mesh)
        mu = np.zeros(mesh.n_elements)
        st = new_state(nb, mu, beta=0.0)
        pm = estimate_phi_mean(st, mu, 20_000, 100, draw_chain(np.random.default_rng(1),
                                                               mesh.n_elements, 20_000, False))
        assert np.max(np.abs(pm)) <= 0.05

    def test_no_systematic_spatial_gradient(self):
        # all-zero design mean: the two domain halves should look alike
        mesh = build_regular_mesh(12, 6, 1.0, 0.5)
        nb = build_neighbor_graph(mesh)
        mu = np.zeros(mesh.n_elements)
        st = new_state(nb, mu)
        pm = estimate_phi_mean(st, mu, 4000, 500,
                               draw_chain(np.random.default_rng(2), mesh.n_elements, 4000))
        left = pm[mesh.element_centroids[:, 0] < 0.5]
        right = pm[mesh.element_centroids[:, 0] >= 0.5]
        assert scipy.stats.ks_2samp(left, right).pvalue > 0.01

    def test_requires_sweeps_beyond_burn_in(self):
        mesh = build_regular_mesh(2, 2, 1.0, 1.0)
        st = new_state(build_neighbor_graph(mesh))
        with pytest.raises(ValueError):
            estimate_phi_mean(st, np.zeros(mesh.n_elements), 10, 10,
                              draw_chain(np.random.default_rng(0), mesh.n_elements, 10))

    def test_rejects_negative_burn_in(self):
        mesh = build_regular_mesh(2, 2, 1.0, 1.0)
        st = new_state(build_neighbor_graph(mesh))
        with pytest.raises(ValueError):
            estimate_phi_mean(st, np.zeros(mesh.n_elements), 10, -5,
                              draw_chain(np.random.default_rng(0), mesh.n_elements, 10))

    @pytest.mark.parametrize("sweeps,d", [(11, 8), (10, 9)])
    def test_rejects_draws_of_another_chain(self, sweeps, d):
        mesh = build_regular_mesh(2, 2, 1.0, 1.0)
        st = new_state(build_neighbor_graph(mesh))
        with pytest.raises(ValueError):
            estimate_phi_mean(st, np.zeros(mesh.n_elements), 10, 2,
                              draw_chain(np.random.default_rng(0), d, sweeps))

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
            estimate_phi_mean(st, mu, 50, 10,
                              draw_chain(np.random.default_rng(0), mesh.n_elements, 50, False))

    def test_phi_mean_in_range(self, rng):
        mesh = build_regular_mesh(5, 3, 1.0, 1.0)
        st = new_state(build_neighbor_graph(mesh))
        mu = rng.standard_normal(mesh.n_elements)
        pm = estimate_phi_mean(st, mu, 300, 50, draw_chain(rng, mesh.n_elements, 300))
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
        nb, mu, m, s2, beta, visits, same = four_site_chain()
        assert len(nb) == 4
        states, p_true = self.analytic_distribution(nb, mu, m, s2, beta)
        assert same
        counts = np.array([visits[s] for s in states], dtype=float)
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
        # the Gaussian pull the point estimation steps with is the gradient
        # of this log prior
        d = 7
        mu = rng.standard_normal(d)
        pm = rng.uniform(-1, 1, d)
        center, var = _z_prior(MapOptions(prior_m=2.0, prior_s2=0.7), pm)
        g = -(mu - center) / var
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
