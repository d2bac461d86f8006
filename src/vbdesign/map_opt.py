"""Point estimates (mu_theta, mu_z) by damped Gauss-Newton.

Each iterate spends exactly one forward-plus-adjoint evaluation; rejected
trials (damping halvings, and mixes in the tail below) cost one forward
solve each. The normal-equations matrix is never assembled at full size:
with n outputs the solve reduces to an n x n system through the Woodbury
identity. The theta block is handled in whitened coordinates
v = L^{-1}(mu_theta - mu_theta0), where L is the prior Cholesky factor, so
no solve against the near-singular prior covariance ever occurs and the
step arithmetic stays clean enough for the 1e-5 relative step tolerance to
be reachable.

For the volume-constrained problem the step solves the KKT system of the
linearized equality constraint; acceptance uses an l1 merit so feasibility
restoration is never rejected. The z regularizer comes from the bimodal
spatial prior through the current spin-mean estimate; the spin chain is
restarted every iteration on one stream, drawn once per run from a fixed
seed (common random numbers), and is frozen once the material pattern stops changing, so the terminal phase
is a smooth deterministic Gauss-Newton iteration.

That tail is large-residual Gauss-Newton and converges only linearly (about
0.83 per iteration at VF = 0.2 on the production grid), so once the
estimate is frozen and the iterate is feasible it is accelerated: each
iteration first tries the Anderson mix of the last Gauss-Newton steps
(Walker & Ni 2011), and falls back to the damped step if the mix fails the
merit test. Every tail trial is moved along the constraint gradient to the
constraint value its linearization predicts (zero for a mix or a full
step), so trials compare on the objective alone and the iterates stay
feasible to rounding. The tail stops on the tighter TAIL_TOL, so the
result is the fixed point rather than wherever a slow iteration crossed
tol; once the steps are below tol, a rejected mix means the objective no
longer changes above its float noise, and the run ends there. Both stops
take a damped step (damping factor below 1) only with a gradient norm of at
most the tolerance in force times 1 + |F_mu|: such a step can be small
because the damping made it so, which says nothing about the distance to
the fixed point. A damped step below the stop tolerance that fails this
bar ends the run as stalled, since the steps that follow it would no
longer move the iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla

from . import topo_prior
from .problems import constraint_value_and_gradient, log_utility
from .vb import PriorConfig

TAIL_TOL = 1e-8     # step tolerance of the frozen, feasible tail (at most tol)
ANDERSON_DEPTH = 5  # Gauss-Newton step differences mixed in the tail
MAX_HALVINGS = 30   # damping halvings before an iteration stalls


@dataclass
class MapOptions:
    tol: float = 1e-5
    max_iter: int = 220
    c_z0: float = 100.0         # vague N(0, c_z0 I) pull on an unconstrained design mean
    gibbs_sweeps: int = 500
    gibbs_burn_in: int = 100
    gibbs_seed: int = 777
    prior_m: float = topo_prior.MODE_LOCATION
    prior_s2: float = topo_prior.MODE_VARIANCE


@dataclass
class MapResult:
    mu_theta: np.ndarray
    mu_z: np.ndarray
    trace: list
    forward_calls: int
    converged: bool
    stalled: bool
    grad_norm: float
    F_mu: float
    phi_mean: np.ndarray = None
    residual: np.ndarray = field(default=None, repr=False)
    G_theta: np.ndarray = field(default=None, repr=False)
    G_z: np.ndarray = field(default=None, repr=False)
    # forward_calls = 1 + iterations + rejected_trials; a rejected trial is
    # a damping halving or a mixed trial that failed the merit test
    iterations: int = 0
    rejected_trials: int = 0
    phi_estimates: int = 0      # topo_prior.estimate_phi_mean calls
    spin_passes: int = 0        # their Jacobi passes, summed


def gn_step(residual, G_theta, G_z, mu_z, v, prior: PriorConfig, tau_Q: float,
            z_prior, constraint=None):
    """One Gauss-Newton step (dt, dz, nu, dv) from the iterate's residual
    u_target - u, Jacobians, design mean mu_z and whitened theta
    v = L^{-1}(mu_theta - mu_theta0), optionally with the linearized
    equality constraint satisfied exactly via the multiplier nu; dv is dt in
    whitened coordinates.

    z_prior = (center, var) is the Gaussian pull N(center, var I) on mu_z
    (see _z_prior); constraint is (c, f) at mu_z.
    """
    center, var = z_prior
    fp = prior.field_prior
    n = residual.shape[0]
    nu = 0.0
    rz = np.full(mu_z.shape[0], 1.0 / var)
    h_z = tau_Q * (G_z.T @ residual) - (mu_z - center) / var
    # whitened theta coordinates: A = G_theta L, gradient L^T g_theta - v
    A = G_theta @ fp.chol
    h_v = A.T @ (tau_Q * residual) - v
    S = np.eye(n) / tau_Q + A @ A.T + (G_z / rz) @ G_z.T
    try:
        cho = sla.cho_factor(0.5 * (S + S.T), lower=True)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("singular Gauss-Newton system") from exc

    def solve(b_v, b_z):
        tz = b_z / rz
        w = sla.cho_solve(cho, A @ b_v + G_z @ tz)
        return b_v - A.T @ w, tz - (G_z.T @ w) / rz

    dv, dz = solve(h_v, h_z)
    if constraint is not None:
        c, f = constraint
        q2v, q2z = solve(np.zeros_like(h_v), f)
        denom = f @ q2z
        if denom == 0.0 or not np.isfinite(denom):
            raise np.linalg.LinAlgError("singular KKT system")
        nu = -(c + f @ dz) / denom
        dv = dv + nu * q2v
        dz = dz + nu * q2z
    dt = fp.chol @ dv
    return dt, dz, nu, dv


def optimize_map(model, prior: PriorConfig, options: MapOptions = None,
                 init_mu_z=None) -> MapResult:
    """Iterate damped Gauss-Newton from the field's prior mean until both
    relative step norms fall below the tolerance in force (tol, or
    min(tol, TAIL_TOL) in the frozen tail), or the iteration budget runs
    out. A small step taken at alpha = 1, or an accepted mix, counts; one
    taken at a damping factor below 1 counts only when the objective's
    gradient norm there is at most the tolerance in force times
    1 + |F_mu|, and otherwise ends the run as stalled."""
    opts = options or MapOptions()
    fp = prior.field_prior
    constrained = model.constraint is not None

    mu_theta = fp.mean.copy()
    v = np.zeros(fp.d)
    if init_mu_z is not None:
        mu_z = np.array(init_mu_z, dtype=float)
    elif constrained:
        vf = model.constraint.target_VF
        mu_z = np.full(model.d_z, np.log(vf / (1.0 - vf)))
    else:
        mu_z = np.zeros(model.d_z)

    # the neighbor graph depends on the mesh only and every spin estimate
    # reads the same stream: build and draw them once
    if constrained:
        chain = topo_prior.new_state(topo_prior.build_neighbor_graph(model.mesh),
                                     m=opts.prior_m, s2=opts.prior_s2)
        draws = topo_prior.draw_chain(np.random.default_rng(opts.gibbs_seed),
                                      chain.phi.shape[0], opts.gibbs_sweeps)

    phi_estimates = spin_passes = 0

    def phi_estimate(mz):
        # fresh chain (spins from sign(mz), beta = 0, no passes) on the same
        # stream each call: <phi> is a deterministic function of mu_z, so
        # late-iteration steps are noise-free
        nonlocal phi_estimates, spin_passes
        phi_estimates += 1
        st = replace(chain, phi=topo_prior.data_side_spins(mz))
        phi_mean = topo_prior.estimate_phi_mean(
            st, mz, opts.gibbs_sweeps, opts.gibbs_burn_in, draws)
        spin_passes += st.passes
        return phi_mean

    def f_mu(u, v_w, mz, phi_mean):
        val = log_utility(model, u) - 0.5 * float(v_w @ v_w)
        if constrained:
            val += topo_prior.log_prior_mu_z(mz, phi_mean, opts.prior_m, opts.prior_s2)
        else:
            val -= 0.5 * float(mz @ mz) / opts.c_z0
        return val

    u, Gt, Gz = model.evaluate_with_jacobians(mu_theta, mu_z)
    phi_mean = phi_estimate(mu_z) if constrained else None
    F_cur = f_mu(u, v, mu_z, phi_mean)
    trace = [dict(iter=0, F_mu=F_cur, F_pre=F_cur, forward_calls=model.forward_calls,
                  step_norm_theta=0.0, step_norm_z=0.0,
                  constraint_c=_cval(model, mu_z), halvings=0, accelerated=False)]
    converged = False
    stalled = False
    merit_rho = 1.0
    phi_frozen = False
    alpha_start = 1.0
    pattern_stable = 0
    prev_signs = np.sign(mu_z)
    history = []            # (x, Gauss-Newton step at x) of the tail, x = (v, mu_z)
    below_tol = False
    rejected_total = 0

    for it in range(1, opts.max_iter + 1):
        cons = None
        if constrained:
            cons = constraint_value_and_gradient(model.constraint, mu_z)
        dt, dz, nu, dv = gn_step(model.u_target - u, Gt, Gz, mu_z, v, prior, model.tau_Q,
                                 _z_prior(opts, phi_mean), constraint=cons)
        if constrained:
            # l1 merit weight above the current multiplier scale keeps
            # feasibility restoration acceptable to the damping test; the
            # weight must not accumulate or the stale early-phase scale
            # lets the objective bleed away against |c| noise later on
            merit_rho = 2.0 * abs(nu) + 1.0
        c_here = abs(cons[0]) if constrained else 0.0

        def merit(F_val, mz):
            # once the constraint sits at solver noise, trading objective for
            # further |c| micro-reductions is meaningless; test F alone
            if not constrained or c_here <= 1e-9:
                return F_val
            return F_val - merit_rho * abs(_cval(model, mz))

        den_t = max(np.linalg.norm(mu_theta), 1e-12)
        den_z = max(np.linalg.norm(mu_z), 1e-12)

        F_pre = F_cur
        m_cur = merit(F_cur, mu_z)
        # tolerance against spin-estimate jitter; with the estimate frozen
        # (or absent) only float-noise slack is allowed, which breaks the
        # symmetric overshoot cycle of large-residual Gauss-Newton
        jittery = constrained and not phi_frozen
        slack = (1e-8 if jittery else 8.0 * np.finfo(float).eps) * (1.0 + abs(m_cur))

        # frozen estimate and a feasible iterate: the objective is fixed and
        # smooth, and the merit is the objective alone
        tail = constrained and phi_frozen and c_here <= 1e-9
        accelerated = False
        if tail:
            history.append((np.concatenate([v, mu_z]), np.concatenate([dv, dz])))
            del history[:-(ANDERSON_DEPTH + 1)]
            if len(history) > 1:
                x_mix = _anderson_point(history)
                v_try = x_mix[:v.shape[0]]
                mz_try = _restore(model.constraint, x_mix[v.shape[0]:])
                mt_try = mu_theta + fp.chol @ (v_try - v)
                u_try = model.evaluate(mt_try, mz_try)
                F_try = f_mu(u_try, v_try, mz_try, phi_mean)
                accelerated = merit(F_try, mz_try) >= m_cur - slack
                if not accelerated:
                    rejected_total += 1
                    del history[:-1]
                    if below_tol:
                        # steps already under tol and the mix no better: the
                        # objective is at its float-noise floor
                        converged = True
                        break

        halvings = 0
        if not accelerated:
            # sticky warm-started damping: retry the factor that last worked,
            # regrow only after a clean first-try acceptance
            alpha = alpha_start
            accepted = False
            for _ in range(MAX_HALVINGS + 1):
                mt_try = mu_theta + alpha * dt
                mz_try = mu_z + alpha * dz
                if tail:
                    # hold c to its linearized value (1 - alpha) c
                    mz_try = _restore(model.constraint, mz_try, (1.0 - alpha) * cons[0])
                v_try = v + alpha * dv
                u_try = model.evaluate(mt_try, mz_try)
                F_try = f_mu(u_try, v_try, mz_try, phi_mean)
                if merit(F_try, mz_try) >= m_cur - slack:
                    accepted = True
                    break
                alpha *= 0.5
                halvings += 1
            rejected_total += halvings
            if not accepted:
                stalled = True
                break
            alpha_start = alpha if halvings else min(1.0, 2.0 * alpha)
            undamped = alpha == 1.0
            rel_t = alpha * np.linalg.norm(dt) / den_t
            rel_z = alpha * np.linalg.norm(dz) / den_z
        else:
            undamped = True
            rel_t = np.linalg.norm(mt_try - mu_theta) / den_t
            rel_z = np.linalg.norm(mz_try - mu_z) / den_z
        mu_theta, mu_z, u = mt_try, mz_try, u_try
        v = v_try
        Gt, Gz = model.last_jacobians()

        if constrained and not phi_frozen:
            signs = np.sign(mu_z)
            pattern_stable = pattern_stable + 1 if np.array_equal(signs, prev_signs) else 0
            prev_signs = signs
            # the alternation can cycle through interface spin patterns
            # indefinitely; once the material layout stops changing, keep the
            # spin estimate so the smooth Gauss-Newton tail can converge
            if pattern_stable >= 3 or max(rel_t, rel_z) < 100.0 * opts.tol:
                phi_frozen = True
                F_cur = F_try
            else:
                phi_mean = phi_estimate(mu_z)
                F_cur = f_mu(u, v, mu_z, phi_mean)
        else:
            F_cur = F_try
        trace.append(dict(iter=it, F_mu=F_try, F_pre=F_pre,
                          forward_calls=model.forward_calls,
                          step_norm_theta=rel_t, step_norm_z=rel_z,
                          constraint_c=_cval(model, mu_z), halvings=halvings,
                          accelerated=accelerated))
        stop_tol = min(opts.tol, TAIL_TOL) if tail else opts.tol
        small = rel_t < stop_tol and rel_z < stop_tol
        below_tol = rel_t < opts.tol and rel_z < opts.tol
        if below_tol and not undamped:
            # halvings alone can shrink a damped step below any tolerance, so
            # a small one counts only where the gradient vouches for it
            grad = _stationarity(model, prior, _z_prior(opts, phi_mean), v, mu_z,
                                 model.u_target - u, Gt, Gz)
            below_tol = grad <= stop_tol * (1.0 + abs(F_cur))
            if small and not below_tol:
                # the merit admits only steps the damping made tiny: further
                # iterations would not move the iterate
                stalled = True
                break
        if below_tol and small:
            converged = True
            break

    grad_norm = _stationarity(model, prior, _z_prior(opts, phi_mean), v, mu_z,
                              model.u_target - u, Gt, Gz)
    return MapResult(mu_theta, mu_z, trace, model.forward_calls, converged,
                     stalled, grad_norm, F_cur, phi_mean,
                     residual=model.u_target - u, G_theta=Gt, G_z=Gz,
                     iterations=len(trace) - 1, rejected_trials=rejected_total,
                     phi_estimates=phi_estimates, spin_passes=spin_passes)


def _anderson_point(history):
    """Anderson mix (type II, unit mixing) of (x_i, f_i) pairs, oldest
    first, where f_i is the Gauss-Newton step at x_i: the x_k + f_k that the
    least-squares combination of the last step differences predicts."""
    X = np.array([x for x, _ in history]).T
    Fs = np.array([f for _, f in history]).T
    dX = np.diff(X, axis=1)
    dF = np.diff(Fs, axis=1)
    gamma = np.linalg.lstsq(dF, Fs[:, -1], rcond=None)[0]
    return X[:, -1] + Fs[:, -1] - (dX + dF) @ gamma


def _restore(desc, z, target=0.0):
    """Move z along the constraint gradient until c(z) = target; two scalar
    Newton steps take a point that meets it to first order to rounding."""
    for _ in range(2):
        c, f = constraint_value_and_gradient(desc, z)
        z = z - ((c - target) / (f @ f)) * f
    return z


def _cval(model, mu_z):
    if model.constraint is None:
        return 0.0
    return constraint_value_and_gradient(model.constraint, mu_z)[0]


def _z_prior(opts, phi_mean):
    """The Gaussian pull N(center, var I) on mu_z: the bimodal spatial prior
    through the spin-mean estimate, (m <phi>, s2), when there is one, else
    the vague (0, c_z0)."""
    if phi_mean is None:
        return 0.0, opts.c_z0
    return opts.prior_m * phi_mean, opts.prior_s2


def _stationarity(model, prior, z_prior, v, mu_z, r, Gt, Gz):
    """Norm of the objective gradient (theta part in whitened coordinates),
    minimized over the constraint multiplier when one is active."""
    center, var = z_prior
    g_t = prior.field_prior.chol.T @ (model.tau_Q * (Gt.T @ r)) - v
    g_z = model.tau_Q * (Gz.T @ r) - (mu_z - center) / var
    if model.constraint is not None:
        _, f = constraint_value_and_gradient(model.constraint, mu_z)
        nu = -(f @ g_z) / (f @ f)
        g_z = g_z + nu * f
    return float(np.sqrt(np.sum(g_t**2) + np.sum(g_z**2)))
