"""Hierarchical bimodal prior on the design mean with a spatial spin
hyperprior, sampled by a Metropolized-Gibbs sweep.

Each element carries a spin phi_j in {-1, +1} selecting a Gaussian mode at
+-m for mu_z,j; spins interact through a coupling beta over the
shared-edge neighbor graph of the triangulation. The joint over spins is

    p(phi | beta) ~ exp(-(beta/2) sum_j sum_{k ~ j} phi_j phi_k)

with the double sum visiting every ordered neighbor pair, so the full
conditional at site j carries -beta phi_j sum_{k~j} phi_k. Negative beta
favors aligned neighbors.

A sweep updates the sites in raster order (0, 1, ..., d-1), each site
reading the current spins of its neighbors. The sweep kernel gets the same
result a level at a time: sites i < j are ordered whenever either lists the
other as a neighbor, and the level of a site is the length of the longest
chain of such pairs ending at it. Within a level no site lists another, so
all of them read the same spins that the raster scan would give them, and
updating them together with numpy reproduces the raster trajectory bit for
bit, also for asymmetric tables, self-loops and repeated entries. The
schedule is built once per state by `sweep_levels`, and a chain restarted
on the same graph can reuse it; the mesh graph has 34 levels on a 26x17
grid and 68 on 52x34.

`estimate_phi_mean` sweeps and scores only the sites that can still flip,
and keeps the chain bit for bit. Site j flips when log u_j < -2 phi_j
(drive_j - beta s_j), with s_j the sum over the deg_j entries of its
neighbor row. `Generator.random()` returns multiples of 2^-53, so log u >=
-53 log 2 = -36.737 unless u = 0; beta stays in BETA_BOUNDS (checked on
entry), so |beta s_j| <= 2 deg_j. A site aligned with its drive (phi_j
drive_j > 0) therefore never flips once 2 (|drive_j| - 2 deg_j) > 36.737
(plus a small margin), and an anti-aligned one always does. The drive is
fixed for the whole call, and so is this frozen set; the other sites are
the candidates.

For one call the spins live in level order: the candidates level by level
on the graph they induce, so that each level is a slice, then the frozen
sites, then the zero that padded entries read; the neighbor rows are
renumbered once. The chain runs full raster-order sweeps until every
frozen site is aligned (one sweep when they start anti-aligned), and after
that sweeps the candidate slices only. It still draws the full stream of
uniforms, takes the logs of the candidates' draws only, and falls back to
a full sweep for a round with a zero draw. Neighbor sums are small
integers, so their order does not matter.

The beta move scores the candidate rows only, for both betas in one (2, .)
pass, and scatters the terms into a zero-filled (2, d) array whose row sums
are the pseudo-likelihoods. An aligned frozen site's term is exactly +0.0:
|a| >= |drive| - 2 deg > 18.37 and log1p(exp(-2|a|)) < 1.2e-16 is below half
an ulp of |a|, so logaddexp(a, -a) rounds to |a| = phi a. numpy's pairwise
sum thus adds the same d numbers in the same order as a full-length call.
While a frozen site is anti-aligned, the move scores all d rows. With no
candidates both pseudo-likelihoods are 0.0, and since log u < 0 the move
accepts every proposal inside the box without scoring anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh_fem import Mesh

# The sweep kernel is plain numpy; the environment stamp of
# perfbench/run.py reads this constant.
COMPILED_KERNEL = False

MODE_LOCATION = math.log(999.0)  # sigmoid(+-m) = 1 - 1e-3 / 1e-3
MODE_VARIANCE = 1.0
BETA_BOUNDS = (-2.0, 2.0)
BETA_STEP = 0.1
# |beta| bound and the least -log u of a nonzero Generator.random() draw
# (53 log 2), with a margin far above the rounding of the flip test
_BETA_MAX = max(-BETA_BOUNDS[0], BETA_BOUNDS[1])
_FROZEN_EDGE = 53.0 * math.log(2.0) + 1e-6


@dataclass
class TopoPriorState:
    phi: np.ndarray          # int8 spins
    beta: float
    m: float
    s2: float
    neighbors: np.ndarray    # (d, 3) int32, -1 padded
    phi_mean: np.ndarray
    padded: np.ndarray       # neighbors with -1 -> d, the zero after the spins
    levels: list             # (sites, padded[sites]) per level of the sweep


def build_neighbor_graph(mesh: Mesh) -> np.ndarray:
    """Elements are neighbors iff they share an edge; (d, 3) int32, -1 padded."""
    edge_owner = {}
    lists = [[] for _ in range(mesh.n_elements)]
    for e, tri in enumerate(mesh.triangles):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (a, b) if a < b else (b, a)
            other = edge_owner.pop(key, None)
            if other is None:
                edge_owner[key] = e
            else:
                lists[e].append(other)
                lists[other].append(e)
    out = np.full((mesh.n_elements, 3), -1, dtype=np.int32)
    for e, nbs in enumerate(lists):
        out[e, :len(nbs)] = sorted(nbs)
    return out


def new_state(neighbors: np.ndarray, mu_z=None, m: float = MODE_LOCATION,
              s2: float = MODE_VARIANCE, beta: float = 0.0) -> TopoPriorState:
    """Spins start on the data side of each mode (positive side on ties)."""
    _check_beta(beta)
    d = neighbors.shape[0]
    phi = np.ones(d, dtype=np.int8) if mu_z is None else data_side_spins(mu_z)
    padded = np.where(neighbors >= 0, neighbors, d)
    order, ends = level_order(neighbors)
    levels = [(order[lo:hi], padded[order[lo:hi]]) for lo, hi in zip([0] + ends, ends)]
    return TopoPriorState(phi, float(beta), float(m), float(s2), neighbors,
                          np.zeros(d), padded, levels)


def _check_beta(beta: float) -> None:
    # NaN fails both comparisons
    if not BETA_BOUNDS[0] <= beta <= BETA_BOUNDS[1]:
        raise ValueError(f"beta {beta} outside {BETA_BOUNDS}")


def data_side_spins(mu_z) -> np.ndarray:
    """int8 spins on the data side of each mode, +1 on ties."""
    return np.where(np.asarray(mu_z) >= 0.0, 1, -1).astype(np.int8)


def sweep_levels(neighbors: np.ndarray) -> np.ndarray:
    """Level of each site in the raster scan's dependency order.

    For i < j with i listed by j or j listed by i, level(j) > level(i), and
    each level is as low as that allows (longest-path layering). Found by
    relaxing all pairs at once until no level grows; that takes one pass
    per level.
    """
    d, width = neighbors.shape
    rows = np.repeat(np.arange(d), width)
    cols = neighbors.ravel()
    keep = (cols >= 0) & (cols != rows)
    lo = np.minimum(rows[keep], cols[keep])
    hi = np.maximum(rows[keep], cols[keep])
    level = np.zeros(d, dtype=np.intp)
    while True:
        cand = level[lo] + 1
        late = cand > level[hi]
        if not late.any():
            return level
        np.maximum.at(level, hi[late], cand[late])


def level_order(table: np.ndarray) -> tuple:
    """Rows of `table` in sweep order, level by level, and the end of each level."""
    level = sweep_levels(table)
    return np.argsort(level, kind="stable"), np.cumsum(np.bincount(level)).tolist()


def sweep_spins(spins: np.ndarray, levels: list, drive: np.ndarray, beta: float,
                log_u: np.ndarray) -> None:
    """One raster-order scan of the sites, one level at a time, in place.

    `spins` holds the d spins as floats followed by a 0 that the padded
    neighbor entries read. Site j flips when
    log_u[j] < -2 phi_j (drive_j - beta sum_{k~j} phi_k).
    """
    for sites, nbrs in levels:
        a = drive[sites] - beta * spins[nbrs].sum(axis=1)
        flip = sites[log_u[sites] < -2.0 * spins[sites] * a]
        spins[flip] = -spins[flip]


def _beta_move(state: TopoPriorState, phi, drive, sums, rng, terms=None,
               rows=slice(None)) -> None:
    """Random-walk move on beta under the Besag pseudo-likelihood.

    `phi`, `drive` and `sums` are the scored rows. They fill columns `rows`
    of the (2, d) `terms`, whose other entries must be 0.0; without `terms`
    they are all d rows. Each pseudo-likelihood is a row sum of `terms`, so
    it equals the full-length sum whenever the rows left out score exactly
    0.0. With no rows both are 0.0, and log u < 0 accepts every proposal
    inside the box.
    """
    prop = state.beta + BETA_STEP * rng.standard_normal()
    u = rng.random()
    if not BETA_BOUNDS[0] <= prop <= BETA_BOUNDS[1]:
        return
    if len(phi):
        if terms is None:
            terms = np.empty((2, len(phi)))
        a = drive - np.array([[prop], [state.beta]]) * sums
        terms[:, rows] = phi * a - np.logaddexp(a, -a)
        new, old = terms.sum(axis=1)
        if not np.log(u) < new - old:
            return
    state.beta = float(prop)


def gibbs_sweep(state: TopoPriorState, mu_z: np.ndarray, rng: np.random.Generator,
                update_beta: bool = True) -> TopoPriorState:
    """One fixed-order scan of all sites, then a random-walk move on beta.

    Site j is offered a flip accepted with min(1, p(-phi_j)/p(phi_j)) under
    its full conditional. The beta move targets the Besag pseudo-likelihood
    (the exact conditional would need the spin partition function, which is
    out of reach); proposals outside the prior box are rejected.
    """
    _check_beta(state.beta)
    d = state.phi.shape[0]
    drive = (state.m / state.s2) * np.asarray(mu_z, dtype=float)
    log_u = np.log(rng.random(d))
    spins = np.zeros(d + 1)
    spins[:d] = state.phi
    sweep_spins(spins, state.levels, drive, state.beta, log_u)
    state.phi[:] = spins[:d]
    if update_beta:
        _beta_move(state, spins[:d], drive, spins[state.padded].sum(axis=1), rng)
    return state


def estimate_phi_mean(state: TopoPriorState, mu_z: np.ndarray, sweeps: int,
                      burn_in: int, rng: np.random.Generator,
                      update_beta: bool = True) -> np.ndarray:
    """Post-burn-in empirical spin mean, also stored on the state.

    The same chain as `sweeps` calls of `gibbs_sweep`, bit for bit, sweeping
    and scoring only the sites that can flip (module docstring).
    """
    if not 0 <= burn_in < sweeps:
        raise ValueError("need 0 <= burn_in < sweeps")
    _check_beta(state.beta)
    d = state.phi.shape[0]
    drive = (state.m / state.s2) * np.asarray(mu_z, dtype=float)
    deg = np.count_nonzero(state.neighbors >= 0, axis=1)
    frozen = 2.0 * (np.abs(drive) - _BETA_MAX * deg) > _FROZEN_EDGE

    # level-ordered storage: the candidates level by level, then the frozen
    # sites, then the zero the padded entries read; pos maps site -> slot
    cand = np.flatnonzero(~frozen)
    nc = cand.size
    local = np.full(d + 1, -1)
    local[cand] = np.arange(nc)
    corder, ends = level_order(local[state.padded[cand]])
    order = np.concatenate([cand[corder], np.flatnonzero(frozen)])
    cand = order[:nc]
    pos = np.append(np.argsort(order), d)
    cols = pos[state.padded[cand]].T.copy()   # (width, nc) neighbor slots
    x = np.append(state.phi[order].astype(float), 0.0)
    drv = drive[order]
    log_u = np.empty(nc)
    levels = [(x[lo:hi], drv[lo:hi], cols[:, lo:hi], log_u[lo:hi])
              for lo, hi in zip([0] + ends, ends)]

    spins = np.zeros(d + 1)         # raster storage for the full sweeps
    full_log_u = np.empty(d)
    terms = np.zeros((2, d))        # pseudo-likelihood terms, candidate columns only
    settled = bool(np.all(x[nc:d] * drv[nc:d] > 0.0))
    acc = np.zeros(d)
    for t in range(sweeps):
        u = rng.random(d)
        if settled and u.all():
            np.log(u[cand], out=log_u)
            for seg, dr, nb, lu in levels:
                a = dr - state.beta * np.add.reduce(x[nb])
                np.negative(seg, out=seg, where=lu < -2.0 * seg * a)
        else:
            spins[order] = x[:d]
            with np.errstate(divide="ignore"):
                np.log(u, out=full_log_u)
            sweep_spins(spins, state.levels, drive, state.beta, full_log_u)
            x[:d] = spins[order]
            settled = bool(np.all(x[nc:d] * drv[nc:d] > 0.0))
        if update_beta and settled:
            _beta_move(state, x[:nc], drv[:nc], np.add.reduce(x[cols]), rng, terms, cand)
        elif update_beta:   # a full sweep left a frozen site anti-aligned
            _beta_move(state, spins[:d], drive, spins[state.padded].sum(axis=1), rng)
        if t >= burn_in:
            acc += x[:d]
    state.phi[order] = x[:d]
    state.phi_mean = np.empty(d)
    state.phi_mean[order] = acc / (sweeps - burn_in)
    return state.phi_mean.copy()


def log_prior_mu_z(mu_z: np.ndarray, phi_mean: np.ndarray, m: float, s2: float) -> float:
    """-(1/2s^2) <|mu_z - m phi|^2> using <phi_j^2> = 1."""
    mu_z = np.asarray(mu_z, dtype=float)
    d = mu_z.shape[0]
    return -0.5 / s2 * (float(mu_z @ mu_z) - 2.0 * m * float(mu_z @ phi_mean)
                        + m * m * d)


def grad_log_prior_mu_z(mu_z, phi_mean, m, s2):
    return -(np.asarray(mu_z, dtype=float) - m * np.asarray(phi_mean)) / s2
