"""Acceptance gate: the package's acceptance criteria, each exercised at its
pinned tolerance, one printed PASS/FAIL line per criterion.

The three reference pipelines (heat flux design; volume-constrained topology
at VF 0.4 and 0.2) each run once in module-scoped fixtures and are shared by
the criterion tests. Everything is seeded, so reruns are bitwise identical.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from vbdesign import map_opt, stiefel, topo_prior, validation
from vbdesign.cli import parse_config, run
from vbdesign.problems import (
    constraint_value_and_gradient,
    make_heat_problem,
    make_topo_problem,
)
from vbdesign.vb import (
    ModelParams,
    PriorConfig,
    initial_W,
    run_vbem,
    sensitive_directions,
    vb_expectation,
)

pytestmark = pytest.mark.acceptance

TAU_Y0_INV = 1e4
EPS2 = 1e-10


def _criterion(name, checks):
    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{label}={'ok' if good else 'FAIL'} ({info})"
                       for label, good, info in checks)
    print(f"\n[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


@dataclass
class PipelineRun:
    model: object
    prior: object
    map_result: object
    vbem: dict = field(default_factory=dict)      # d_y -> VbemResult
    reports: dict = field(default_factory=dict)   # d_y -> ValidationReport
    wall_time: float = 0.0
    constraint_grad: np.ndarray = None


def _prior_for(model):
    return PriorConfig(tau_y0=1.0 / TAU_Y0_INV, eps2=EPS2,
                       field_prior=model.field_prior)


@pytest.fixture(scope="module")
def heat_run():
    t0 = time.perf_counter()
    model = make_heat_problem()
    prior = _prior_for(model)
    mres = map_opt.optimize_map(model, prior, map_opt.MapOptions())
    out = PipelineRun(model, prior, mres)
    for d_y in (1, 2, 5, 10, 20):
        rng_w = np.random.default_rng(np.random.SeedSequence(100 + d_y))
        params0 = ModelParams(mres.mu_z, initial_W(model.d_z, d_y, rng_w),
                              mres.mu_theta)
        out.vbem[d_y] = run_vbem(mres.G_theta, mres.G_z, params0, prior,
                                 model.tau_Q, mres.residual)
        out.reports[d_y] = validation.estimate_nKL(
            model, out.vbem[d_y].state, out.vbem[d_y].params, prior, 500,
            np.random.default_rng(np.random.SeedSequence(200 + d_y)))
    out.wall_time = time.perf_counter() - t0
    return out


def _topo_pipeline(VF):
    t0 = time.perf_counter()
    model = make_topo_problem(VF=VF)
    prior = _prior_for(model)
    mres = map_opt.optimize_map(model, prior, map_opt.MapOptions(max_iter=220))
    out = PipelineRun(model, prior, mres)
    _, f = constraint_value_and_gradient(model.constraint, mres.mu_z)
    out.constraint_grad = f
    lpm = topo_prior.log_prior_mu_z(mres.mu_z, mres.phi_mean,
                                    topo_prior.MODE_LOCATION, 1.0)
    d_y = 20
    rng_w = np.random.default_rng(np.random.SeedSequence(300))
    params0 = ModelParams(mres.mu_z, initial_W(model.d_z, d_y, rng_w),
                          mres.mu_theta)
    out.vbem[d_y] = run_vbem(mres.G_theta, mres.G_z, params0, prior,
                             model.tau_Q, mres.residual, f=f,
                             eps_c2=model.constraint.eps_c2, log_p_mu_z=lpm)
    out.reports[d_y] = validation.estimate_nKL(
        model, out.vbem[d_y].state, out.vbem[d_y].params, prior, 500,
        np.random.default_rng(np.random.SeedSequence(400)))
    out.wall_time = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def topo04_run():
    return _topo_pipeline(0.4)


@pytest.fixture(scope="module")
def topo02_run():
    return _topo_pipeline(0.2)


# ---------------------------------------------------------------------------
# criterion 1: forward-call budget and wall time
# ---------------------------------------------------------------------------

def _calls(mres):
    return (f"{mres.forward_calls} calls = 1 + {mres.iterations} iterates"
            f" + {mres.rejected_trials} rejected trials")


def test_criterion_1_forward_call_budget(heat_run, topo04_run, topo02_run):
    checks = [
        ("heat<=30", heat_run.map_result.forward_calls <= 30,
         _calls(heat_run.map_result)),
        ("heat_converged", heat_run.map_result.converged, "map stop rule"),
        ("topo04<=60", topo04_run.map_result.forward_calls <= 60,
         _calls(topo04_run.map_result)),
        ("topo02<=90", topo02_run.map_result.forward_calls <= 90,
         _calls(topo02_run.map_result)),
        ("heat_runtime", heat_run.wall_time <= 600, f"{heat_run.wall_time:.0f}s"),
        ("topo04_runtime", topo04_run.wall_time <= 600, f"{topo04_run.wall_time:.0f}s"),
        ("topo02_runtime", topo02_run.wall_time <= 600, f"{topo02_run.wall_time:.0f}s"),
    ]
    _criterion("criterion 1: forward-call budget", checks)


# ---------------------------------------------------------------------------
# criterion 2: stiff-direction separation on the heat example
# ---------------------------------------------------------------------------

def _sigma2_floor(run):
    """Lower bounds on the ordered sigma^2 that the joint q allows:
    1 / (lambda_k(G_z^T (I/tau_Q + G_theta C0 G_theta^T)^{-1} G_z) + tau_y0)."""
    from conftest import prior_covariance
    mres = run.map_result
    Gt, Gz = mres.G_theta, mres.G_z
    C0 = prior_covariance(run.model.field_prior)
    K = np.eye(Gt.shape[0]) / run.model.tau_Q + Gt @ C0 @ Gt.T
    lam = np.linalg.eigvalsh(Gz.T @ np.linalg.solve(K, Gz))[::-1]
    return 1.0 / (lam + run.prior.tau_y0)


def test_criterion_2_stiff_direction_separation(heat_run):
    vres = heat_run.vbem[10]
    spec = sensitive_directions(vres.state, vres.params)
    s2 = spec.sigma2
    plateau = 1.0 / (1.0 / TAU_Y0_INV)
    stiff = int(np.sum(s2 < 0.9 * plateau))
    ratio = s2[2] / s2[0]
    rest_ok = bool(np.all(np.abs(s2[3:] - plateau) <= 0.1 * plateau))
    w1 = spec.W_hat[:, 0]
    sym = float(np.linalg.norm(w1 - w1[::-1]) / np.linalg.norm(w1))
    floor = _sigma2_floor(heat_run)
    cause = (f"q floors sigma2 at {np.array2string(floor[:3], precision=4)}, "
             f"{int(np.sum(floor < 0.9 * plateau))} below 0.9*plateau; "
             f"run_vbem converged={vres.converged} after {vres.iterations} iterations")
    checks = [
        ("exactly_3_stiff", stiff == 3,
         f"count={stiff}, sigma2={np.round(s2[:4], 3)}; {cause}"),
        ("ratio>=1e4", ratio >= 1e4, f"s3^2/s1^2={ratio:.3g}"),
        ("rest_within_10pct", rest_ok, f"max|s2-1e4|={np.max(np.abs(s2[3:] - plateau)):.3g}"),
        ("w1_symmetric", sym <= 0.1, f"sym_err={sym:.3g}"),
    ]
    _criterion("criterion 2: stiff-direction separation", checks)


# ---------------------------------------------------------------------------
# criterion 3: normalized-divergence decay
# ---------------------------------------------------------------------------

def _weights(report, vres):
    """Why an nKL reads as it does: weight degeneracy, the sign of the
    normalizer, the complement precision that sets the design noise and
    whether the variational loop converged."""
    return (f"ESS={report.ess:.3g}/{report.M}, sd(log w)={np.std(report.log_weights):.3g}, "
            f"H_q={report.H_q:.5g} ({'negative' if report.H_q < 0 else 'positive'}), "
            f"tau_z={vres.state.tau_z:.3g}, vbem converged={vres.converged}")


def test_criterion_3_nkl_decay(heat_run, topo04_run):
    seq = [(d, heat_run.reports[d]) for d in (1, 2, 5, 10, 20)]
    nonincreasing = True
    detail = []
    for (_, r1), (_, r2) in zip(seq, seq[1:]):
        se = 2.0 * np.hypot(r1.kl_se / r1.H_q, r2.kl_se / r2.H_q)
        if r2.nKL > r1.nKL + se:
            nonincreasing = False
    for d, r in seq:
        detail.append(f"d_y={d}:{r.nKL:.3g} [{_weights(r, heat_run.vbem[d])}]")
    last = heat_run.reports[20]
    topo = topo04_run.reports[20]
    checks = [
        ("heat_nonincreasing_2se", nonincreasing, ", ".join(detail)),
        ("heat_dy20<=5e-2", last.nKL <= 5e-2, f"nKL={last.nKL:.3g}"),
        ("topo04_dy20_in[0,1e-2]", 0.0 <= topo.nKL <= 1e-2,
         f"nKL={topo.nKL:.3g} [{_weights(topo, topo04_run.vbem[20])}]"),
    ]
    _criterion("criterion 3: normalized-divergence decay", checks)


# ---------------------------------------------------------------------------
# criterion 4: constraint behavior on the topology runs
# ---------------------------------------------------------------------------

def test_criterion_4_constraint_behavior(topo04_run, topo02_run):
    checks = []
    for name, pr in (("VF=0.4", topo04_run), ("VF=0.2", topo02_run)):
        c, _ = constraint_value_and_gradient(pr.model.constraint, pr.map_result.mu_z)
        checks.append((f"{name}_|c|<=1e-6", abs(c) <= 1e-6, f"|c|={abs(c):.2e}"))
        spec = sensitive_directions(pr.vbem[20].state, pr.vbem[20].params)
        f = pr.constraint_grad
        align = abs(float(spec.W_hat[:, 0] @ (f / np.linalg.norm(f))))
        checks.append((f"{name}_align>=0.99", align >= 0.99, f"cos={align:.6f}"))
    # sigma_1^2 scaling with the soft-enforcement variance, basis held fixed
    pr = topo04_run
    d_y = 20
    base = sensitive_directions(pr.vbem[d_y].state, pr.vbem[d_y].params).sigma2[0]
    st2 = vb_expectation(
        pr.map_result.G_theta, pr.map_result.G_z, pr.vbem[d_y].params, pr.prior,
        pr.model.tau_Q, f=pr.constraint_grad, eps_c2=2.0 * pr.model.constraint.eps_c2)
    doubled = sensitive_directions(st2, pr.vbem[d_y].params).sigma2[0]
    ratio = doubled / base
    checks.append(("sigma1_scaling_in[1.5,2.5]", 1.5 <= ratio <= 2.5,
                   f"ratio={ratio:.3f}"))
    _criterion("criterion 4: constraint behavior", checks)


# ---------------------------------------------------------------------------
# criterion 5: monotone bound across every recorded run
# ---------------------------------------------------------------------------

def test_criterion_5_monotone_bound(heat_run, topo04_run, topo02_run):
    checks = []
    runs = [(f"heat_dy{d}", r) for d, r in heat_run.vbem.items()]
    runs += [("topo04", topo04_run.vbem[20]), ("topo02", topo02_run.vbem[20])]
    for name, res in runs:
        flat = np.array([v for pair in res.F_history for v in pair])
        worst = float(np.min((flat[1:] - flat[:-1])
                             / (1.0 + np.abs(flat[:-1]))))
        checks.append((name, worst >= -1e-8, f"min rel dF={worst:.2e}"))
    _criterion("criterion 5: monotone bound", checks)


# ---------------------------------------------------------------------------
# criterion 6: oracle equivalences
# ---------------------------------------------------------------------------

def test_criterion_6_oracle_equivalences(rng):
    t0 = time.perf_counter()
    checks = []

    # (a) closed-form expectation vs brute-force bound maximization
    from conftest import dense_bound, joint_cov, toy_vb_instance
    G_theta, G_z, params, prior, tau_Q, residual = toy_vb_instance(
        rng, d_theta=2, d_z=3, d_y=1, n=2, tau_y0=0.5, eps2=0.1, tau_Q=1.2)
    st = vb_expectation(G_theta, G_z, params, prior, tau_Q)

    def unpack(x):
        L = np.zeros((3, 3))
        L[np.tril_indices(3)] = x[:-1]
        ii = np.diag_indices(3)
        L[ii] = np.exp(L[ii])
        return L @ L.T, np.exp(x[-1])

    def neg_F(x):
        cov, tau_z = unpack(x)
        F = dense_bound(cov, tau_z, params, prior, tau_Q, residual, G_theta, G_z)
        return -F if np.isfinite(F) else 1e12

    x0 = np.zeros(7)
    x0[-1] = np.log(prior.tau_z0 * 10)
    opt = scipy.optimize.minimize(neg_F, x0, method="Nelder-Mead",
                                  options=dict(maxiter=20000, xatol=1e-12, fatol=1e-14))
    cov_opt, tau_z_opt = unpack(opt.x)
    err_a = max(float(np.max(np.abs(cov_opt - joint_cov(st)))),
                abs(tau_z_opt - st.tau_z) / st.tau_z)
    checks.append(("vbe_vs_bruteforce<=1e-6", err_a <= 1e-6, f"err={err_a:.2e}"))

    # (b) Cayley small-system route vs full inversion
    W = initial_W(30, 4, rng)
    J = rng.standard_normal((30, 4))
    err_b = 0.0
    for a in (1e-2, 0.7, 5.0):
        A = J @ W.T - W @ J.T
        full = np.linalg.solve(np.eye(30) + 0.5 * a * A,
                               (np.eye(30) - 0.5 * a * A) @ W)
        err_b = max(err_b, float(np.max(np.abs(full - stiefel.cayley_step(W, J, a)))))
    checks.append(("cayley_trick<=1e-10", err_b <= 1e-10, f"err={err_b:.2e}"))

    # (c) adjoint Jacobians vs finite-difference probes
    heat = make_heat_problem(nx=14, ny=7, obs_x2=np.linspace(0.3, 0.7, 6))
    th = heat.field_prior.mean + 0.2 * rng.standard_normal(heat.d_theta)
    zz = rng.standard_normal(heat.d_z)
    _, Gt, Gz = heat.evaluate_with_jacobians(th, zz)
    err_heat = 0.0
    for _ in range(10):
        v = rng.standard_normal(heat.d_theta)
        v /= np.linalg.norm(v)
        h = 1e-5
        fd = (heat.evaluate(th + h * v, zz) - heat.evaluate(th - h * v, zz)) / (2 * h)
        err_heat = max(err_heat, np.linalg.norm(Gt @ v - fd) / np.linalg.norm(fd))
    checks.append(("adjoint_diffusion<=1e-4", err_heat <= 1e-4, f"err={err_heat:.2e}"))

    topo = make_topo_problem(nx=10, ny=7)
    th = topo.field_prior.mean + 0.1 * rng.standard_normal(topo.d_theta)
    zz = rng.standard_normal(topo.d_z)
    _, Gt, Gz = topo.evaluate_with_jacobians(th, zz)
    err_topo = 0.0
    for _ in range(10):
        v = rng.standard_normal(topo.d_z)
        v /= np.linalg.norm(v)
        h = 1e-5
        fd = (topo.evaluate(th, zz + h * v) - topo.evaluate(th, zz - h * v)) / (2 * h)
        err_topo = max(err_topo, np.linalg.norm(Gz @ v - fd) / np.linalg.norm(fd))
    checks.append(("adjoint_elasticity<=1e-3", err_topo <= 1e-3, f"err={err_topo:.2e}"))

    # (d) one Gauss-Newton step on a linear model vs direct solve
    from conftest import LinearModel, make_field_prior, prior_covariance
    fp = make_field_prior(6, rng, mean=0.2)
    pr = PriorConfig(tau_y0=1e-2, eps2=1e-6, field_prior=fp)
    lm = LinearModel(rng.standard_normal((3, 6)), rng.standard_normal((3, 4)),
                     rng.standard_normal(3), 2.0, fp)
    mu_t = pr.mu_theta0 + 0.3 * rng.standard_normal(6)
    mu_z = rng.standard_normal(4)
    r = lm.u_target - lm.evaluate(mu_t, mu_z)
    v = scipy.linalg.solve_triangular(fp.chol, mu_t - fp.mean, lower=True)
    dt, dz, _, _ = map_opt.gn_step(r, lm.G_theta, lm.G_z, mu_z, v, pr, lm.tau_Q, (0.0, 50.0))
    C0inv = np.linalg.inv(prior_covariance(fp))
    H = np.block([[lm.tau_Q * lm.G_theta.T @ lm.G_theta + C0inv,
                   lm.tau_Q * lm.G_theta.T @ lm.G_z],
                  [lm.tau_Q * lm.G_z.T @ lm.G_theta,
                   lm.tau_Q * lm.G_z.T @ lm.G_z + np.eye(4) / 50.0]])
    h = np.concatenate([lm.tau_Q * lm.G_theta.T @ r - C0inv @ (mu_t - fp.mean),
                        lm.tau_Q * lm.G_z.T @ r - mu_z / 50.0])
    err_d = float(np.max(np.abs(np.concatenate([dt, dz]) - np.linalg.solve(H, h))))
    checks.append(("gn_vs_direct<=1e-10", err_d <= 1e-10, f"err={err_d:.2e}"))

    elapsed = time.perf_counter() - t0
    checks.append(("runtime<30s", elapsed < 30.0, f"{elapsed:.1f}s"))
    _criterion("criterion 6: oracle equivalences", checks)


# ---------------------------------------------------------------------------
# criterion 7: property suites
# ---------------------------------------------------------------------------

def test_criterion_7_property_suites(heat_run, topo04_run, topo02_run, rng, tmp_path):
    checks = []

    # Stiefel feasibility drift over 100 steps
    C = rng.standard_normal((5, 5))
    prob = stiefel.StiefelProblem(G_z=rng.standard_normal((8, 25)),
                                  cross=rng.standard_normal((25, 5)),
                                  C_yy=C @ C.T + 0.1 * np.eye(5),
                                  tau_z=3.0, tau_Q=2.0)
    out = stiefel.optimize_W(prob, initial_W(25, 5, rng), max_steps=100)
    drift = float(np.max(np.abs(out.W.T @ out.W - np.eye(5))))
    checks.append(("stiefel_drift<=1e-10", drift <= 1e-10, f"drift={drift:.2e}"))

    # Jensen consistency of every validation report produced this session
    reports = list(heat_run.reports.values()) + [topo04_run.reports[20],
                                                 topo02_run.reports[20]]
    worst = min(r.log_mean_w - r.mean_log_w for r in reports)
    checks.append(("jensen_all_reports", worst >= -1e-12, f"min KL={worst:.3g}"))

    # seed determinism of pipeline artifacts (bitwise)
    cfg_text = "problem = heat_flux\nmesh.nx = 8\nmesh.ny = 4\nvb.d_y = 3\nseed = 7\n"
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run(parse_config(cfg_text), stage="vbem", outdir=out_a)
    run(parse_config(cfg_text), stage="vbem", outdir=out_b)
    same = ((out_a / "spectrum.csv").read_bytes() == (out_b / "spectrum.csv").read_bytes()
            and (out_a / "mu_z.csv").read_bytes() == (out_b / "mu_z.csv").read_bytes())
    checks.append(("artifact_determinism", same, "spectrum+mu_z bitwise"))

    # spin-sampler stationarity on the exhaustively enumerable 4-element graph
    import itertools
    from conftest import four_site_chain
    nb, mu, m_loc, s2, beta, visits, same = four_site_chain()
    states = list(itertools.product([-1, 1], repeat=4))
    logp = []
    for phi in states:
        phi = np.array(phi)
        val = float(np.sum(-(mu - m_loc * phi) ** 2 / (2 * s2)))
        val -= 0.5 * beta * sum(phi[j] * phi[k] for j in range(4) for k in nb[j] if k >= 0)
        logp.append(val)
    p_true = np.exp(np.array(logp) - max(logp))
    p_true /= p_true.sum()
    counts = np.array([visits[s] for s in states], dtype=float)
    tv = 0.5 * float(np.sum(np.abs(counts / counts.sum() - p_true)))
    checks.append(("ising_stationarity_tv<=1e-2", tv <= 1e-2, f"TV={tv:.4f}"))
    checks.append(("ising_chain_matches_raster_replay", same,
                   "phi_mean, phi, beta, generator state"))

    _criterion("criterion 7: property suites", checks)
