"""Feasible ascent over column-orthonormal matrices.

The basis objective F_W is ascended along the orthogonality-preserving
Cayley curve W(a) = (I + a/2 A)^{-1} (I - a/2 A) W with A built from the
tangent-projected objective gradient; steps come from alternating
Barzilai-Borwein formulas safeguarded by a non-monotone (window 5) line
search. The d_z x d_z curve inverse is evaluated through an equivalent
2 d_y x 2 d_y system; the line search forms the products that do not depend
on the step once per step, not once per trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

GRAD_TOL = 1e-8    # relative tangent-gradient norm that ends the ascent
WINDOW = 5         # objective values the non-monotone line search looks back on
RHO = 1e-4         # sufficient-decrease factor of the line search
MAX_HALVINGS = 30  # step halvings before a step stalls


class CayleyStepError(RuntimeError):
    """Small Cayley system singular; the caller should halve the step."""


@dataclass
class StiefelProblem:
    """Data defining F_W; the Gram of G_z is only ever applied to W.

    `cross` is G_z^T (G_theta C_thy), formed from q's n x d_y block
    G_theta C_thy (`vb.VariationalState.GC_thy`), so building it costs no
    d_theta-sized work."""

    G_z: np.ndarray          # (n, d_z)
    cross: np.ndarray        # (d_z, d_y) = G_z^T G_theta C_thy
    C_yy: np.ndarray
    tau_z: float
    tau_Q: float
    f: np.ndarray = None     # constraint gradient, optional
    eps_c2: float = None

    def shifted_C(self):
        return self.C_yy - np.eye(self.C_yy.shape[0]) / self.tau_z


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


def objective_FW(problem: StiefelProblem, W: np.ndarray, Cm=None) -> float:
    """F_W at W; a line search passes Cm = problem.shifted_C() to form it once."""
    require_feasible(W)
    Cm = problem.shifted_C() if Cm is None else Cm
    A = problem.G_z @ W
    val = -0.5 * problem.tau_Q * float(((A.T @ A) * Cm).sum())
    val -= problem.tau_Q * float((W * problem.cross).sum())
    if problem.f is not None:
        fW = W.T @ problem.f
        val -= 0.5 / problem.eps_c2 * float(fW @ Cm @ fW)
    return val


def gradient_J(problem: StiefelProblem, W: np.ndarray) -> np.ndarray:
    """Euclidean gradient of F_W with respect to W."""
    Cm = problem.shifted_C()
    A = problem.G_z @ W
    J = -problem.tau_Q * (problem.G_z.T @ (A @ Cm)) - problem.tau_Q * problem.cross
    if problem.f is not None:
        fW = W.T @ problem.f
        J = J - np.outer(problem.f, Cm @ fW) / problem.eps_c2
    return J


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
    steps: int           # accepted steps, each of which moved W
    grad_norm: float     # tangent-gradient norm at W
    stalled: bool        # grad_norm above the GRAD_TOL bar: no step was
                         # accepted, or max_steps ran out, before stationarity


def qr_fix(W):
    """Q of W = QR with the signs that make R's diagonal positive."""
    Q, R = np.linalg.qr(W)
    return Q * np.sign(np.diag(R))


def optimize_W(problem: StiefelProblem, W0: np.ndarray,
               max_steps: int = 100) -> StiefelResult:
    """Ascend F_W from W0; the returned objective never falls below F_W(W0)."""
    require_feasible(W0)
    W = W0.copy()
    Cm = problem.shifted_C()
    F = objective_FW(problem, W, Cm)
    best_W, best_F = W.copy(), F
    g_window = [-F]
    a = None
    prev = None  # (W, G_descent)
    steps = 0

    for it in range(max_steps):
        # descend the negated objective along the Cayley curve of its tangent
        # gradient: the full gradient's curve without its normal part's rounding
        G = -tangent_project(W, gradient_J(problem, W))
        if float(np.linalg.norm(G)) <= GRAD_TOL * (1.0 + abs(F)):
            break
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

        g_ref = max(g_window)
        accepted = False
        trial = a
        factors = cayley_factors(W, G)
        for _ in range(MAX_HALVINGS + 1):
            try:
                W_new = cayley_step(W, G, trial, factors)
                if np.array_equal(W_new, W):
                    break  # the step is below W's rounding; shorter ones are too
                F_new = objective_FW(problem, W_new, Cm)
            except (CayleyStepError, ValueError):
                trial *= 0.5
                continue
            # the decrease itself against the bar: g_ref - bar rounds to g_ref
            # when the bar is below g_ref's ulp, which would pass a step that
            # gains nothing
            if g_ref + F_new >= RHO * trial * 0.5 * A_norm2:
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            break

        prev = (W.copy(), G)
        W, F = W_new, F_new
        steps += 1
        if _drift(W) > 1e-10:
            W = qr_fix(W)
            F = objective_FW(problem, W, Cm)
        g_window.append(-F)
        if len(g_window) > WINDOW:
            g_window.pop(0)
        if F > best_F:
            best_F, best_W = F, W.copy()

    grad_norm = float(np.linalg.norm(tangent_project(best_W, gradient_J(problem, best_W))))
    stalled = grad_norm > GRAD_TOL * (1.0 + abs(best_F))
    return StiefelResult(best_W, best_F, steps, grad_norm, stalled)
