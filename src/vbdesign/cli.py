"""Declarative pipeline entry point.

Reads a flat "key = value" config (dotted section keys, # comments), runs
point estimation, the alternating variational loop, direction extraction,
design sampling and the importance-sampling check, and writes plot-ready
artifacts plus a manifest. Every floating-point artifact value is printed
with 17 significant digits so reruns can be compared bitwise.

Exit codes: 0 ok, 2 config error, 3 solver failure, 4 validation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import map_opt, topo_prior, validation, vb
from .mesh_fem import export_element_field, export_mesh
from .problems import constraint_value_and_gradient, make_heat_problem, make_topo_problem


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Defaults reproduce the reference settings when only the problem is named."""

    problem: str = "heat_flux"
    mesh_nx: int = None
    mesh_ny: int = None
    field_sigma_g2: float = 0.223
    field_x0: float = 0.1
    field_mu_theta0: float = -0.112
    utility_tau_Q_inv: float = None
    constraint_VF: float = 0.4
    constraint_eps_c2: float = 1e-10
    vb_d_y: int = 10
    vb_tau_y0_inv: float = 1e4
    vb_eps2: float = 1e-10
    map_tol: float = 1e-5
    map_max_iter: int = 220
    map_c_z0: float = 100.0
    map_gibbs_seed: int = 777
    topo_prior_m: float = topo_prior.MODE_LOCATION
    topo_prior_s2: float = 1.0
    topo_prior_sweeps: int = 500
    topo_prior_burn_in: int = 100
    validate_M: int = 500
    sample_levels: tuple = (0.95, 0.75, 0.5, 0.25)
    sample_count: int = 8
    seed: int = 0
    out: str = "out"


_KEYS = {
    "problem": ("problem", str),
    "mesh.nx": ("mesh_nx", int),
    "mesh.ny": ("mesh_ny", int),
    "field.sigma_g2": ("field_sigma_g2", float),
    "field.x0": ("field_x0", float),
    "field.mu_theta0": ("field_mu_theta0", float),
    "utility.tau_Q_inv": ("utility_tau_Q_inv", float),
    "constraint.VF": ("constraint_VF", float),
    "constraint.eps_c2": ("constraint_eps_c2", float),
    "vb.d_y": ("vb_d_y", int),
    "vb.tau_y0_inv": ("vb_tau_y0_inv", float),
    "vb.eps2": ("vb_eps2", float),
    "map.tol": ("map_tol", float),
    "map.max_iter": ("map_max_iter", int),
    "map.c_z0": ("map_c_z0", float),
    "map.gibbs_seed": ("map_gibbs_seed", int),
    "topo_prior.m": ("topo_prior_m", float),
    "topo_prior.s2": ("topo_prior_s2", float),
    "topo_prior.sweeps": ("topo_prior_sweeps", int),
    "topo_prior.burn_in": ("topo_prior_burn_in", int),
    "validate.M": ("validate_M", int),
    "sample.levels": ("sample_levels", "levels"),
    "sample.count": ("sample_count", int),
    "seed": ("seed", int),
    "out": ("out", str),
}


def _at_least(lo):
    return (lambda v: v >= lo), f"at least {lo}"


_POSITIVE = (lambda v: 0.0 < v < np.inf), "positive and finite"
_FINITE = (lambda v: bool(np.isfinite(v))), "finite"
_FRACTION = (lambda v: 0.0 < v < 1.0), "strictly inside (0, 1)"

# admissible values per key; vb.d_y <= d_z needs the model and is checked by run
_RANGES = {
    "mesh.nx": _at_least(1),
    "mesh.ny": _at_least(1),
    "field.sigma_g2": _POSITIVE,
    "field.x0": _POSITIVE,
    "field.mu_theta0": _FINITE,
    "utility.tau_Q_inv": _POSITIVE,
    "constraint.VF": _FRACTION,
    "constraint.eps_c2": _POSITIVE,
    "vb.d_y": _at_least(1),
    "vb.tau_y0_inv": _POSITIVE,
    "vb.eps2": _POSITIVE,
    "map.tol": _POSITIVE,
    "map.max_iter": _at_least(1),
    "map.c_z0": _POSITIVE,
    "map.gibbs_seed": _at_least(0),
    "topo_prior.m": _FINITE,
    "topo_prior.s2": _POSITIVE,
    "validate.M": _at_least(2),
    "sample.levels": ((lambda v: all(0.0 < x < 1.0 for x in v)),
                      "a list of levels strictly inside (0, 1)"),
    "sample.count": _at_least(1),
    "seed": _at_least(0),
}


def _check_ranges(cfg: RunConfig):
    for key, (ok, what) in _RANGES.items():
        v = getattr(cfg, _KEYS[key][0])
        if v is not None and not ok(v):
            raise ConfigError(f"{key} must be {what}, got {v!r}")


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, typ = _KEYS[key]
        try:
            if typ == "levels":
                parsed = tuple(float(v) for v in val.split(","))
            else:
                parsed = typ(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from exc
        setattr(cfg, attr, parsed)
    if cfg.problem not in ("heat_flux", "topo"):
        raise ConfigError(f"unknown problem {cfg.problem!r}")
    if not 0 <= cfg.topo_prior_burn_in < cfg.topo_prior_sweeps:
        raise ConfigError(f"need 0 <= topo_prior.burn_in < topo_prior.sweeps, got "
                          f"{cfg.topo_prior_burn_in} and {cfg.topo_prior_sweeps}")
    _check_ranges(cfg)
    return cfg


def canonical_text(cfg: RunConfig) -> str:
    lines = []
    for key, (attr, typ) in _KEYS.items():
        v = getattr(cfg, attr)
        if v is None:
            continue
        if typ == "levels":
            v = ",".join(f"{x:g}" for x in v)
        lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"


def _write_csv(path, header, template, rows):
    """`header`, then each row through the %-`template` (%d for integers,
    %.17g for floats, which prints a double as f"{x:.17g}" does)."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(template % row for row in rows)


def build_problem(cfg: RunConfig):
    if cfg.problem == "heat_flux":
        nx = 40 if cfg.mesh_nx is None else cfg.mesh_nx
        ny = 20 if cfg.mesh_ny is None else cfg.mesh_ny
        tqi = cfg.utility_tau_Q_inv if cfg.utility_tau_Q_inv is not None else 0.01
        return make_heat_problem(nx=nx, ny=ny, sigma_g2=cfg.field_sigma_g2,
                                 x0=cfg.field_x0, mu_theta0=cfg.field_mu_theta0,
                                 tau_Q_inv=tqi)
    nx = 52 if cfg.mesh_nx is None else cfg.mesh_nx
    ny = 34 if cfg.mesh_ny is None else cfg.mesh_ny
    tqi = cfg.utility_tau_Q_inv if cfg.utility_tau_Q_inv is not None else 5e-6
    return make_topo_problem(nx=nx, ny=ny, sigma_g2=cfg.field_sigma_g2,
                             x0=cfg.field_x0, mu_theta0=cfg.field_mu_theta0,
                             tau_Q_inv=tqi, VF=cfg.constraint_VF,
                             eps_c2=cfg.constraint_eps_c2)


@dataclass
class RunArtifacts:
    map_result: object = None
    vbem: object = None
    spectrum: object = None
    report: object = None
    manifest: dict = field(default_factory=dict)


def run(cfg: RunConfig, stage: str = "all", outdir=None) -> RunArtifacts:
    """Execute the pipeline through the requested stage and write artifacts."""
    depth = {"map": 1, "vbem": 2, "validate": 3, "all": 3}
    if stage not in depth:
        raise ConfigError(f"unknown stage {stage!r}")
    level = depth[stage]
    t0 = time.perf_counter()
    model = build_problem(cfg)
    if cfg.vb_d_y > model.d_z:
        raise ConfigError(f"vb.d_y must be at most the design dimension d_z = "
                          f"{model.d_z}, got {cfg.vb_d_y}")
    out = Path(outdir if outdir is not None else cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    art = RunArtifacts()
    timings = {}

    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    rng_w = np.random.default_rng(seeds[0])
    rng_val = np.random.default_rng(seeds[1])
    rng_designs = np.random.default_rng(seeds[2])

    prior = vb.PriorConfig(tau_y0=1.0 / cfg.vb_tau_y0_inv, eps2=cfg.vb_eps2,
                           field_prior=model.field_prior)
    export_mesh(model.mesh, out / "mesh.txt")
    timings["setup"] = time.perf_counter() - t0

    # stage 1: point estimates, the only stage that consumes forward solves
    t0 = time.perf_counter()
    opts = map_opt.MapOptions(tol=cfg.map_tol, max_iter=cfg.map_max_iter,
                              c_z0=cfg.map_c_z0,
                              gibbs_sweeps=cfg.topo_prior_sweeps,
                              gibbs_burn_in=cfg.topo_prior_burn_in,
                              gibbs_seed=cfg.map_gibbs_seed,
                              prior_m=cfg.topo_prior_m,
                              prior_s2=cfg.topo_prior_s2)
    mres = map_opt.optimize_map(model, prior, opts)
    art.map_result = mres
    timings["map"] = time.perf_counter() - t0
    map_calls = model.forward_calls

    _write_csv(out / "map_trace.csv",
               "iter,F_mu,forward_calls,step_norm_theta,step_norm_z,constraint_c",
               "%d,%.17g,%d,%.17g,%.17g,%.17g\n",
               [(r["iter"], r["F_mu"], r["forward_calls"], r["step_norm_theta"],
                 r["step_norm_z"], r["constraint_c"]) for r in mres.trace])
    _write_csv(out / "mu_z.csv", "j,value", "%d,%.17g\n", enumerate(mres.mu_z.tolist()))
    _write_csv(out / "mu_theta.csv", "element_id,value", "%d,%.17g\n",
               enumerate(mres.mu_theta.tolist()))
    if mres.phi_mean is not None:
        export_element_field(mres.phi_mean, out / "phi_mean.csv")

    validate_calls = 0
    if level >= 2:
        t0 = time.perf_counter()
        f = eps_c2 = None
        log_p_mu_z = 0.0
        if model.constraint is not None:
            _, f = constraint_value_and_gradient(model.constraint, mres.mu_z)
            eps_c2 = model.constraint.eps_c2
            log_p_mu_z = topo_prior.log_prior_mu_z(mres.mu_z, mres.phi_mean,
                                                   cfg.topo_prior_m, cfg.topo_prior_s2)
        params0 = vb.ModelParams(mu_z=mres.mu_z,
                                 W=vb.initial_W(model.d_z, cfg.vb_d_y, rng_w),
                                 mu_theta=mres.mu_theta)
        vres = vb.run_vbem(mres.G_theta, mres.G_z, params0, prior, model.tau_Q,
                           mres.residual, f=f, eps_c2=eps_c2, log_p_mu_z=log_p_mu_z)
        art.vbem = vres
        timings["vbem"] = time.perf_counter() - t0

        _write_csv(out / "f_trace.csv", "iter,F", "%d,%.17g\n",
                   [(i + 1, fw) for i, (_, fw) in enumerate(vres.F_history)])
        spectrum = vb.sensitive_directions(vres.state, vres.params)
        art.spectrum = spectrum
        _write_csv(out / "spectrum.csv", "j,sigma2_j", "%d,%.17g\n",
                   [(j + 1, s2) for j, s2 in enumerate(spectrum.sigma2)])
        for j in range(spectrum.W_hat.shape[1]):
            _write_csv(out / f"direction_{j + 1:02d}.csv", "component_id,value",
                       "%d,%.17g\n", enumerate(spectrum.W_hat[:, j].tolist()))
        _save_state(out / "state.npz", vres)
        for lv in cfg.sample_levels:
            zs = vb.sample_designs(vres.params, vres.state, lv, cfg.sample_count,
                                   rng_designs)
            _write_csv(out / f"designs_level_{lv:g}.csv", "sample,component_id,value",
                       "%d,%d,%.17g\n", ((i, j, v) for i, row in enumerate(zs.tolist())
                                          for j, v in enumerate(row)))

        if level >= 3:
            t0 = time.perf_counter()
            report = validation.estimate_nKL(model, vres.state, vres.params, prior,
                                             cfg.validate_M, rng_val)
            art.report = report
            validate_calls = report.forward_calls
            timings["validate"] = time.perf_counter() - t0
            with open(out / "validation.txt", "w") as fh:
                fh.write("\n".join(report.lines()) + "\n")

    total = model.forward_calls
    if total != map_calls + validate_calls:
        raise RuntimeError("forward-call accounting violated")
    manifest = {
        "problem": cfg.problem,
        "seed": cfg.seed,
        "config_hash": hashlib.sha256(canonical_text(cfg).encode()).hexdigest(),
        "map_forward_calls": map_calls,
        "validate_forward_calls": validate_calls,
        "total_forward_calls": total,
        "map_converged": mres.converged,
        **({} if mres.phi_mean is None else {
            "map_phi_estimates": mres.phi_estimates,
            "map_gibbs_sweeps": mres.phi_estimates * cfg.topo_prior_sweeps,
            "map_spin_passes": mres.spin_passes}),
        **({} if art.vbem is None else {"vbem_iterations": art.vbem.iterations,
                                       "vbem_converged": art.vbem.converged}),
        **{f"time_{k}": f"{v:.3f}" for k, v in timings.items()},
    }
    art.manifest = manifest
    with open(out / "manifest.txt", "w") as fh:
        for k, v in manifest.items():
            fh.write(f"{k} = {v}\n")
    return art


def _save_state(path, vres):
    """q and the point estimates; the theta block stays in low-rank form,
    C_thth = C_theta0 - B_th S^-1 B_th^T with S = S_chol S_chol^T."""
    st = vres.state
    lr = st.lowrank
    np.savez(path, C_yy=st.C_yy, C_thy=st.C_thy, tau_z=st.tau_z,
             B_th=lr.B_th, S_chol=np.tril(lr.S_cho[0]),
             W=vres.params.W, mu_z=vres.params.mu_z,
             mu_theta=vres.params.mu_theta,
             dims=np.array([st.d_theta, vres.params.d_z, st.d_y]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="vbdesign",
                                 description="design under uncertainty pipeline")
    ap.add_argument("--config", type=Path, default=None, help="flat key=value file")
    ap.add_argument("--out", type=Path, default=None)
    ap.add_argument("--seed", type=int, default=None, help="overrides config seed")
    ap.add_argument("--stage", choices=["map", "vbem", "validate", "all"], default="all")
    args = ap.parse_args(argv)

    try:
        text = args.config.read_text() if args.config else ""
        cfg = parse_config(text)
        if args.seed is not None:
            cfg.seed = args.seed
            _check_ranges(cfg)
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        run(cfg, stage=args.stage, outdir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except validation.WeightUnderflowError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        print(f"solver failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
