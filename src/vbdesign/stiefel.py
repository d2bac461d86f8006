"""Feasible ascent over column-orthonormal matrices.

The basis objective F_W, the variational bound's W-dependent terms at fixed
q (`basis_sums`, which `vb.evaluate_F` shares), is ascended along the
orthogonality-preserving Cayley curve W(a) = (I + a/2 A)^{-1} (I - a/2 A) W
with A built from the tangent gradient. Steps come from alternating
Barzilai-Borwein formulas safeguarded by a monotone line search; the ascent
ends at the first step whose line search finds no gain. The d_z x d_z curve
inverse is evaluated through an equivalent 2 d_y x 2 d_y system, whose
step-independent products are formed once per step, not once per trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

RHO = 1e-4         # sufficient-increase factor of the line search
MAX_HALVINGS = 30  # step halvings before a line search gives up


class CayleyStepError(RuntimeError):
    """Small Cayley system singular; the caller should halve the step."""


@dataclass
class StiefelProblem:
    """q's blocks that F_W reads, GC_thy = G_theta C_thy among them
    (`vb.VariationalState.GC_thy`); the Gram of G_z is only applied to W."""

    G_z: np.ndarray          # (n, d_z)
    GC_thy: np.ndarray       # (n, d_y) = G_theta C_thy
    C_yy: np.ndarray
    tau_z: float
    tau_Q: float
    f: np.ndarray = None     # constraint gradient, optional
    eps_c2: float = None


@lru_cache(maxsize=8)
def _eye(k):
    """Read-only identity shared by the per-trial checks and Cayley systems."""
    out = np.eye(k)
    out.setflags(write=False)
    return out


def _drift(W):
    return float(np.abs(W.T @ W - _eye(W.shape[1])).max())


def require_feasible(W, tol=1e-8):
    drift = _drift(W)
    if drift > tol:
        raise ValueError(f"W violates orthonormality by {drift:.3e}")


def complement_sums(G_z, A, W, f=None):
    """|G_z P|^2 and |P f|^2 for P = I - W W^T and A = G_z W, zeros when W is
    square; projecting dodges the cancellation in |G_z|^2 - |A|^2, which
    1/tau_z magnifies."""
    if W.shape[0] == W.shape[1]:
        return 0.0, 0.0
    gram_perp = float(np.sum((G_z - A @ W.T) ** 2))
    if f is None:
        return gram_perp, 0.0
    f_perp = f - W @ (W.T @ f)
    return gram_perp, float(f_perp @ f_perp)


def basis_sums(G_z, W, C_yy, GC_thy, f=None):
    """The bound's W-dependent sums at fixed q, for A = G_z W and
    P = I - W W^T: tr((A^T A) C_yy), 2 sum(A * GC_thy), |G_z P|^2,
    f^T W C_yy W^T f and |P f|^2 (the last two 0 without a constraint)."""
    A = G_z @ W
    tr_yy = float(np.sum((A.T @ A) * C_yy))
    tr_cross = 2.0 * float(np.sum(A * GC_thy))
    gram_perp, perp_f = complement_sums(G_z, A, W, f)
    fCf = 0.0
    if f is not None:
        fW = W.T @ f
        fCf = float(fW @ C_yy @ fW)
    return tr_yy, tr_cross, gram_perp, fCf, perp_f


def objective_FW(problem: StiefelProblem, W: np.ndarray) -> float:
    """F_W = -tau_Q/2 (tr_yy + tr_cross + |G_z P|^2 / tau_z)
    - (f^T W C_yy W^T f + |P f|^2 / tau_z) / (2 eps_c2) (`basis_sums`)."""
    return _objective(problem, W)[0]


def _objective(problem, W):
    """F_W and the summed magnitude of its terms, the scale of its rounding."""
    require_feasible(W)
    p = problem
    tr_yy, tr_cross, gram_perp, fCf, perp_f = basis_sums(p.G_z, W, p.C_yy, p.GC_thy, p.f)
    val = -0.5 * p.tau_Q * (tr_yy + tr_cross + gram_perp / p.tau_z)
    scale = 0.5 * p.tau_Q * (abs(tr_yy) + abs(tr_cross) + gram_perp / p.tau_z)
    if p.f is not None:
        val -= 0.5 / p.eps_c2 * (fCf + perp_f / p.tau_z)
        scale += 0.5 / p.eps_c2 * (abs(fCf) + perp_f / p.tau_z)
    return val, scale


def tangent_gradient(problem: StiefelProblem, W: np.ndarray) -> np.ndarray:
    """Gradient of F_W in the tangent space at W: the in-span terms' Euclidean
    gradient projected, plus the complement terms' projected gradient
    (tau_Q (G_z P)^T A + (P f)(f^T W) / eps_c2) / tau_z, in which 1/tau_z
    multiplies only P-projected quantities."""
    p = problem
    A = p.G_z @ W
    J = -p.tau_Q * (p.G_z.T @ (A @ p.C_yy + p.GC_thy))
    if p.f is not None:
        fW = W.T @ p.f
        J -= np.outer(p.f, p.C_yy @ fW) / p.eps_c2
    G = tangent_project(W, J)
    if W.shape[0] > W.shape[1]:
        comp = p.tau_Q * ((p.G_z - A @ W.T).T @ A)
        if p.f is not None:
            comp += np.outer(p.f - W @ fW, fW) / p.eps_c2
        G += comp / p.tau_z
    return G


def tangent_project(W: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Canonical projection J - W sym(W^T J)."""
    WtJ = W.T @ J
    return J - W @ (0.5 * (WtJ + WtJ.T))


def cayley_step(W: np.ndarray, J: np.ndarray, a: float, factors=None) -> np.ndarray:
    """W' = (I + a/2 A)^{-1} (I - a/2 A) W for A = J W^T - W J^T.

    Computed through the rank-2d_y identity
    W' = W - a U (I + a/2 V^T U)^{-1} V^T W with U = [J, W], V = [W, -J].
    A line search passes `factors = cayley_factors(W, J)` so that the products
    that do not depend on a are formed once for all its trials.
    """
    if a == 0.0:
        return W.copy()
    U, VtU, VtW = cayley_factors(W, J) if factors is None else factors
    small = _eye(VtU.shape[0]) + 0.5 * a * VtU
    try:
        sol = np.linalg.solve(small, VtW)
    except np.linalg.LinAlgError as exc:
        raise CayleyStepError(f"Cayley system singular at step {a:g}") from exc
    return W - a * (U @ sol)


def cayley_factors(W: np.ndarray, J: np.ndarray):
    """U, V^T U and V^T W of `cayley_step`."""
    U = np.hstack([J, W])
    V = np.hstack([W, -J])
    return U, V.T @ U, V.T @ W


@dataclass
class StiefelResult:
    W: np.ndarray
    F_W: float
    steps: int           # accepted steps, each of which raised F_W and moved W


def qr_fix(W):
    """Q of W = QR with the signs that make R's diagonal positive."""
    Q, R = np.linalg.qr(W)
    return Q * np.sign(np.diag(R))


def optimize_W(problem: StiefelProblem, W0: np.ndarray,
               max_steps: int = 100) -> StiefelResult:
    """Ascend F_W from W0 until a line search accepts no step, or for max_steps
    steps. A trial is re-QR'd once it drifts from orthonormality, and taken
    only when it raises F_W past the line search's bar, so W0 comes back
    bitwise when no step is taken."""
    require_feasible(W0)
    W = W0.copy()
    F, scale = _objective(problem, W)
    prev = None  # (W, G_descent)
    steps = 0

    for it in range(max_steps):
        # descend the negated objective along the Cayley curve of its tangent gradient
        G = -tangent_gradient(problem, W)
        X = W.T @ G
        G_perp = G - W @ X
        A_norm2 = float(np.sum((X - X.T) ** 2)) + 2.0 * float(np.sum(G_perp * G_perp))

        if prev is None:
            a = 0.1 / (np.sqrt(A_norm2) + 1e-30)
        else:
            # alternating Barzilai-Borwein steps with the signed curvature
            # test: in locally concave stretches (s.v <= 0) take a long step
            # to escape, and let the line search cut it back if needed
            s = W - prev[0]
            v = G - prev[1]
            sv = float(np.sum(s * v))
            if sv > 0:
                if it % 2 == 0:
                    a = float(np.sum(s * s)) / sv
                else:
                    vv = float(np.sum(v * v))
                    a = sv / vv if vv > 0 else a
            else:
                a = max(2.0 * a, 1.0 / (np.sqrt(A_norm2) + 1e-30))
        a = float(np.clip(a, 1e-10, 1e10))

        trial = a
        factors = cayley_factors(W, G)
        for _ in range(MAX_HALVINGS + 1):
            try:
                W_new = cayley_step(W, G, trial, factors)
                if np.array_equal(W_new, W):  # below W's rounding, as are shorter steps
                    return StiefelResult(W, F, steps)
                if _drift(W_new) > 1e-10:
                    W_new = qr_fix(W_new)
                F_new, scale_new = _objective(problem, W_new)
            except (CayleyStepError, ValueError):
                trial *= 0.5
                continue
            # a gain must also clear F_W's worst-case rounding, W.size ulps of
            # its terms' summed magnitude: smaller gains are rounding, not ascent
            if F_new - F > max(RHO * trial * 0.5 * A_norm2, W.size * np.spacing(scale)):
                break
            trial *= 0.5
        else:
            break  # no trial gained

        prev = (W, G)
        W, F, scale = W_new, F_new, scale_new
        steps += 1

    return StiefelResult(W, F, steps)
