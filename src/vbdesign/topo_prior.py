"""Hierarchical bimodal prior on the design mean with a spatial spin
hyperprior, sampled by a Metropolized-Gibbs chain.

Each element carries a spin phi_j in {-1, +1} selecting a Gaussian mode at
+-m for mu_z,j; spins interact through a coupling beta over the
shared-edge neighbor graph of the triangulation. The joint over spins is

    p(phi | beta) ~ exp(-(beta/2) sum_j sum_{k ~ j} phi_j phi_k)

with the double sum visiting every ordered neighbor pair, so the full
conditional at site j carries -beta phi_j sum_{k~j} phi_k. Negative beta
favors aligned neighbors.

A sweep draws u for all d sites, then offers each a flip in raster order
(0, 1, ..., d-1) against the current spins of its neighbors: site j flips
when log u_j < -2 phi_j (drive_j - beta s_j), with s_j the sum over the
deg_j entries of its neighbor row. A move on beta follows each sweep.
`estimate_phi_mean` runs this chain bit for bit in one sweep loop, as follows.

Frozen sites. `Generator.random()` returns multiples of 2^-53, so log u >=
-53 log 2 = -36.737 unless u = 0; beta stays in BETA_BOUNDS (checked on
entry), so |beta s_j| <= 2 deg_j. Once 2 (|drive_j| - 2 deg_j) > 36.737
(plus a small margin), site j is frozen: its own draw decides it, whatever
its neighbors do. An anti-aligned frozen site (phi_j drive_j < 0) always
flips, and an aligned one only when its draw is exactly 0. The drive is
fixed for the whole call, and so is the frozen set; the other sites are
the candidates.

Fixed point. In the raster scan site j tests its start-of-sweep spin and
reads a neighbor k < j at its new value, any other entry (k >= j,
self-loops included) at its start-of-sweep value. A Jacobi pass recomputes
all candidates at once from those reads, taking the earlier neighbors from
the pass before (the first pass from the start of the sweep). The reads of
earlier sites form a DAG, so this map has one fixed point, the raster
sweep: pass p settles every site whose longest chain of earlier candidate
neighbors has fewer than p links, and a site that its own draw decides
settles in pass 1. A pass changes a site only when an earlier candidate
neighbor of it changed in the pass before, so the sweep ends with the first
pass whose changes no candidate reads, after at most as many passes as the
longest chain of candidates has sites; a sweep still changing after nc + 1
passes would contradict the argument and raises. The draws decide most
sites and so break the chains: the 26x17 map stage's first three calls
have 34 levels of candidates and take 2.5 to 3.9 passes per sweep, its
later calls about one. This holds for asymmetric tables, self-loops and
repeated entries too.

Storage. One call keeps one slot array: the current values of the
candidates, in raster order, and of the frozen sites; the values of the
same sites at the start of the sweep, d slots further on; and the zero that
padded entries read. The candidates' neighbor rows are renumbered once: an
entry at or after the site in raster order is read from its start-of-sweep
slot, any other from its current slot. While every frozen site is aligned
and no draw is 0, the frozen sites are left alone; otherwise they are
flipped before the passes. The start-of-sweep slots take the current
values after them. The logs are taken of the candidates' draws only.
Neighbor sums are small integers, so their order does not matter.

Beta move. It scores the candidate rows, for both betas in one (2, .)
pass, and scatters the terms into a zero-filled (2, d) array whose row sums
are the Besag pseudo-likelihoods. An aligned frozen site's term is exactly
+0.0: |a| >= |drive| - 2 deg > 18.37 and log1p(exp(-2|a|)) < 1.2e-16 is
below half an ulp of |a|, so logaddexp(a, -a) rounds to |a| = phi a.
numpy's pairwise sum thus adds the same d numbers in the same order as a
full-length call. While a frozen site is anti-aligned, which a zero draw
can bring about at any sweep, the move scores all d rows. With no
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
    passes: int = 0          # Jacobi passes of estimate_phi_mean, summed over calls


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
    return TopoPriorState(phi, float(beta), float(m), float(s2), neighbors,
                          np.zeros(d), padded)


def _check_beta(beta: float) -> None:
    # NaN fails both comparisons
    if not BETA_BOUNDS[0] <= beta <= BETA_BOUNDS[1]:
        raise ValueError(f"beta {beta} outside {BETA_BOUNDS}")


def data_side_spins(mu_z) -> np.ndarray:
    """int8 spins on the data side of each mode, +1 on ties."""
    return np.where(np.asarray(mu_z) >= 0.0, 1, -1).astype(np.int8)


def _beta_move(state: TopoPriorState, phi, drive, sums, rng, terms, rows) -> None:
    """Random-walk move on beta under the Besag pseudo-likelihood.

    The exact conditional would need the spin partition function, which is
    out of reach; proposals outside the prior box are rejected. `phi`,
    `drive` and `sums` are the scored rows. They fill columns `rows` of the
    (2, d) `terms`, whose other entries must be 0.0. Each pseudo-likelihood
    is a row sum of `terms`, so it equals the full-length sum whenever the
    rows left out score exactly 0.0. With no rows both are 0.0, and log u < 0
    accepts every proposal inside the box.
    """
    prop = state.beta + BETA_STEP * rng.standard_normal()
    u = rng.random()
    if not BETA_BOUNDS[0] <= prop <= BETA_BOUNDS[1]:
        return
    if len(phi):
        a = drive - np.array([[prop], [state.beta]]) * sums
        terms[:, rows] = phi * a - np.logaddexp(a, -a)
        new, old = terms.sum(axis=1)
        if not np.log(u) < new - old:
            return
    state.beta = float(prop)


def estimate_phi_mean(state: TopoPriorState, mu_z: np.ndarray, sweeps: int,
                      burn_in: int, rng: np.random.Generator,
                      update_beta: bool = True) -> np.ndarray:
    """Post-burn-in empirical spin mean, also stored on the state.

    Runs `sweeps` raster-order sweeps, each offering every site a flip
    accepted with min(1, p(-phi_j)/p(phi_j)) under its full conditional and
    each followed by a beta move when `update_beta` is set. Each sweep runs
    Jacobi passes over the candidate sites to the raster scan's fixed point,
    with the frozen sites decided by their own draws (module docstring), and
    adds its passes to `state.passes`.
    """
    if not 0 <= burn_in < sweeps:
        raise ValueError("need 0 <= burn_in < sweeps")
    _check_beta(state.beta)
    d = state.phi.shape[0]
    drive = (state.m / state.s2) * np.asarray(mu_z, dtype=float)
    deg = np.count_nonzero(state.neighbors >= 0, axis=1)
    frozen = 2.0 * (np.abs(drive) - _BETA_MAX * deg) > _FROZEN_EDGE

    # slots: the current values of the candidates (raster order) and of the
    # frozen sites, the same at the start of the sweep, the zero the padded
    # entries read
    cand = np.flatnonzero(~frozen)
    nc = cand.size
    order = np.concatenate([cand, np.flatnonzero(frozen)])
    pos = np.empty(d + 1, dtype=np.intp)       # site -> current slot
    pos[order] = np.arange(d)
    pos[d] = 2 * d
    nbr = state.padded[order]
    slots = pos[nbr]                           # (d, width) current slots
    late = (nbr[:nc] >= cand[:, None]) & (nbr[:nc] < d)
    cols = (slots[:nc] + d * late).T.copy()    # (width, nc) slots a pass reads
    reads = slots[:nc][~late]
    feeds = np.unique(reads[reads < nc])       # candidates that a later candidate reads
    x = np.zeros(2 * d + 1)
    x[:d] = state.phi[order]
    x[d:2 * d] = x[:d]
    drv = drive[order]
    xc, cdrv, start = x[:nc], drv[:nc], x[d:d + nc]
    fz, fdrv, fsites = x[nc:d], drv[nc:], order[nc:]
    log_u = np.empty(nc)
    moved = np.empty(nc, dtype=bool)

    terms = np.zeros((2, d))        # pseudo-likelihood terms, candidate columns only
    aligned = bool(np.all(fz * fdrv > 0.0))
    acc = np.zeros(d)
    passes = 0
    with np.errstate(divide="ignore"):
        for t in range(sweeps):
            u = rng.random(d)
            np.log(u[cand], out=log_u)
            quiet = aligned and u.all()
            if not quiet:   # anti-aligned frozen sites flip, aligned ones on u = 0
                np.negative(fz, out=fz, where=(fz * fdrv < 0.0) | (u[fsites] == 0.0))
                aligned = bool(np.all(fz * fdrv > 0.0))
            if nc:
                bar = -2.0 * start
                flip = np.zeros(nc, dtype=bool)     # where xc != start
                for p in range(1, nc + 2):
                    a = cdrv - state.beta * np.add.reduce(x[cols])
                    new = log_u < bar * a
                    np.not_equal(new, flip, out=moved)
                    np.negative(xc, out=xc, where=moved)
                    flip = new
                    if not np.count_nonzero(moved[feeds]):     # no candidate reads a change
                        break
                else:
                    raise RuntimeError("spin sweep found no fixed point in nc + 1 passes")
                passes += p
            x[d:2 * d] = x[:d]
            if update_beta and aligned:
                _beta_move(state, xc, cdrv, np.add.reduce(x[cols]), rng, terms, cand)
            elif update_beta:   # an anti-aligned frozen site scores: all d rows
                _beta_move(state, x[:d], drv, x[slots].sum(axis=1), rng,
                           np.zeros((2, d)), order)
            if t >= burn_in:
                acc += x[:d]
    state.passes += passes
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
