"""Declarative pipeline entry point.

Reads a flat "key = value" config (dotted section keys, # comments), runs
point estimation, the alternating variational loop, direction extraction,
design sampling and the importance-sampling check, and writes plot-ready
artifacts plus a manifest. Every floating-point artifact value is printed
with 17 significant digits so reruns can be compared bitwise.

The stages are `make_prior`, `estimate_points`, `fit_q` and a direct call
of `validation.estimate_nKL`; the acceptance criteria run these functions,
and `run` adds only the seed spawn and the artifact writers. The benchmark
cuts its timings at `cli.build_problem`, so that function stays here.

Exit codes: 0 ok, 2 config error, 3 solver failure, 4 validation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import map_opt, problems, topo_prior, validation, vb
from .map_opt import MapOptions
from .mesh_fem import export_mesh
from .problems import constraint_value_and_gradient, make_heat_problem, make_topo_problem


class ConfigError(ValueError):
    pass


def _must_be(ok, what):
    return ok, f"{{key}} must be {what}, got {{v!r}}"


def _at_least(lo):
    return _must_be(lambda v: v >= lo, f"at least {lo}")


_POSITIVE = _must_be(lambda v: 0.0 < v < np.inf, "positive and finite")
_FINITE = _must_be(lambda v: bool(np.isfinite(v)), "finite")
_FRACTION = _must_be(lambda v: 0.0 < v < 1.0, "strictly inside (0, 1)")
_LEVELS = _must_be(lambda v: all(0.0 < x < 1.0 for x in v) and len(set(v)) == len(v),
                   "a list of distinct levels strictly inside (0, 1)")
_PROBLEM = (lambda v: v in ("heat_flux", "topo")), "unknown problem {v!r}"


def _key(key, default, check=None):
    """A config key's row: its dotted name, its default and its admissible
    values, as a predicate and the error message for a value that fails it.
    The field's annotation is the type the value is parsed as (a tuple from
    a comma-separated list of floats)."""
    return field(default=default, metadata={"key": key, "check": check})


@dataclass
class RunConfig:
    """Defaults reproduce the reference settings when only the problem is
    named. A None default leaves the value to the problem's factory; vb.d_y
    <= d_z needs the model and is checked by run, for the stages that fit q."""

    problem: str = _key("problem", "heat_flux", _PROBLEM)
    mesh_nx: int = _key("mesh.nx", None, _at_least(1))
    mesh_ny: int = _key("mesh.ny", None, _at_least(1))
    field_sigma_g2: float = _key("field.sigma_g2", problems.FIELD_SIGMA_G2, _POSITIVE)
    field_x0: float = _key("field.x0", problems.FIELD_X0, _POSITIVE)
    field_mu_theta0: float = _key("field.mu_theta0", problems.FIELD_MU_THETA0, _FINITE)
    utility_tau_Q_inv: float = _key("utility.tau_Q_inv", None, _POSITIVE)
    constraint_VF: float = _key("constraint.VF", problems.TARGET_VF, _FRACTION)
    constraint_eps_c2: float = _key("constraint.eps_c2", problems.EPS_C2, _POSITIVE)
    vb_d_y: int = _key("vb.d_y", 10, _at_least(1))
    vb_tau_y0_inv: float = _key("vb.tau_y0_inv", 1e4, _POSITIVE)
    vb_eps2: float = _key("vb.eps2", 1e-10, _POSITIVE)
    map_tol: float = _key("map.tol", MapOptions.tol, _POSITIVE)
    map_max_iter: int = _key("map.max_iter", MapOptions.max_iter, _at_least(1))
    map_c_z0: float = _key("map.c_z0", MapOptions.c_z0, _POSITIVE)
    map_gibbs_seed: int = _key("map.gibbs_seed", MapOptions.gibbs_seed, _at_least(0))
    topo_prior_m: float = _key("topo_prior.m", MapOptions.prior_m, _FINITE)
    topo_prior_s2: float = _key("topo_prior.s2", MapOptions.prior_s2, _POSITIVE)
    topo_prior_sweeps: int = _key("topo_prior.sweeps", MapOptions.gibbs_sweeps)
    topo_prior_burn_in: int = _key("topo_prior.burn_in", MapOptions.gibbs_burn_in)
    validate_M: int = _key("validate.M", 500, _at_least(2))
    sample_levels: tuple = _key("sample.levels", (0.95, 0.75, 0.5, 0.25), _LEVELS)
    sample_count: int = _key("sample.count", 8, _at_least(1))
    seed: int = _key("seed", 0, _at_least(0))
    out: str = _key("out", "out")


_FIELDS = {fd.metadata["key"]: fd for fd in fields(RunConfig)}
_TYPES = get_type_hints(RunConfig)


def _check_ranges(cfg: RunConfig):
    for key, fd in _FIELDS.items():
        v = getattr(cfg, fd.name)
        if fd.metadata["check"] is not None and v is not None:
            ok, message = fd.metadata["check"]
            if not ok(v):
                raise ConfigError(message.format(key=key, v=v))


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
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr = _FIELDS[key].name
        typ = _TYPES[attr]
        try:
            parsed = tuple(float(v) for v in val.split(",")) if typ is tuple else typ(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from exc
        setattr(cfg, attr, parsed)
    _check_ranges(cfg)
    if not 0 <= cfg.topo_prior_burn_in < cfg.topo_prior_sweeps:
        raise ConfigError(f"need 0 <= topo_prior.burn_in < topo_prior.sweeps, got "
                          f"{cfg.topo_prior_burn_in} and {cfg.topo_prior_sweeps}")
    return cfg


def _level_text(x) -> str:
    """The shortest text that parses back to the same double."""
    return repr(float(x))


def canonical_text(cfg: RunConfig) -> str:
    lines = []
    for key, fd in _FIELDS.items():
        v = getattr(cfg, fd.name)
        if v is None:
            continue
        if _TYPES[fd.name] is tuple:
            v = ",".join(_level_text(x) for x in v)
        lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"


def _write_csv(path, header, template, rows):
    """`header`, then each row through the %-`template` (%d for integers,
    %.17g for floats, which prints a double as f"{x:.17g}" does)."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(template % row for row in rows)


def build_problem(cfg: RunConfig):
    """The configured problem; a key left at None takes the factory's default."""
    kwargs = dict(nx=cfg.mesh_nx, ny=cfg.mesh_ny, sigma_g2=cfg.field_sigma_g2,
                  x0=cfg.field_x0, mu_theta0=cfg.field_mu_theta0,
                  tau_Q_inv=cfg.utility_tau_Q_inv)
    if cfg.problem == "heat_flux":
        factory = make_heat_problem
    else:
        factory = make_topo_problem
        kwargs.update(VF=cfg.constraint_VF, eps_c2=cfg.constraint_eps_c2)
    return factory(**{k: v for k, v in kwargs.items() if v is not None})


def make_prior(cfg: RunConfig, model) -> vb.PriorConfig:
    """The subspace and complement prior variances, over the model's field prior."""
    return vb.PriorConfig(tau_y0=1.0 / cfg.vb_tau_y0_inv, eps2=cfg.vb_eps2,
                          field_prior=model.field_prior)


def estimate_points(cfg: RunConfig, model, prior: vb.PriorConfig) -> map_opt.MapResult:
    """Stage 1: the point estimates, the only stage that consumes forward solves."""
    opts = MapOptions(tol=cfg.map_tol, max_iter=cfg.map_max_iter, c_z0=cfg.map_c_z0,
                      gibbs_sweeps=cfg.topo_prior_sweeps,
                      gibbs_burn_in=cfg.topo_prior_burn_in,
                      gibbs_seed=cfg.map_gibbs_seed, prior_m=cfg.topo_prior_m,
                      prior_s2=cfg.topo_prior_s2)
    return map_opt.optimize_map(model, prior, opts)


def fit_q(cfg: RunConfig, model, prior: vb.PriorConfig, mres, rng) -> vb.VbemResult:
    """Stage 2: the variational loop from a basis of cfg.vb_d_y columns drawn
    from rng, with the constraint gradient and spin prior of a topology model."""
    f = eps_c2 = None
    log_p_mu_z = 0.0
    if model.constraint is not None:
        _, f = constraint_value_and_gradient(model.constraint, mres.mu_z)
        eps_c2 = model.constraint.eps_c2
        log_p_mu_z = topo_prior.log_prior_mu_z(mres.mu_z, mres.phi_mean,
                                               cfg.topo_prior_m, cfg.topo_prior_s2)
    params0 = vb.ModelParams(mu_z=mres.mu_z, W=vb.initial_W(model.d_z, cfg.vb_d_y, rng),
                             mu_theta=mres.mu_theta)
    return vb.run_vbem(mres.G_theta, mres.G_z, params0, prior, model.tau_Q,
                       mres.residual, f=f, eps_c2=eps_c2, log_p_mu_z=log_p_mu_z)


@dataclass
class RunArtifacts:
    map_result: object
    vbem: object
    spectrum: object
    report: object
    manifest: dict


def run(cfg: RunConfig, stage: str = "all", outdir=None) -> RunArtifacts:
    """Execute the pipeline through the requested stage and write artifacts."""
    depth = {"map": 1, "vbem": 2, "validate": 3, "all": 3}
    if stage not in depth:
        raise ConfigError(f"unknown stage {stage!r}")
    level = depth[stage]
    # (stage, clock reading once its artifacts are written); each stage's
    # time runs from the entry before, so the stage times add up to the total
    laps = [("start", time.perf_counter())]
    model = build_problem(cfg)
    if level >= 2 and cfg.vb_d_y > model.d_z:
        raise ConfigError(f"vb.d_y must be at most the design dimension d_z = "
                          f"{model.d_z}, got {cfg.vb_d_y}")
    out = Path(outdir if outdir is not None else cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    rng_w = np.random.default_rng(seeds[0])
    rng_val = np.random.default_rng(seeds[1])
    rng_designs = np.random.default_rng(seeds[2])

    prior = make_prior(cfg, model)
    export_mesh(model.mesh, out / "mesh.txt")
    laps.append(("setup", time.perf_counter()))

    mres = estimate_points(cfg, model, prior)
    map_calls = model.forward_calls

    _write_csv(out / "map_trace.csv",
               "iter,F_mu,forward_calls,step_norm_theta,step_norm_z,constraint_c",
               "%d,%.17g,%d,%.17g,%.17g,%.17g\n",
               [(r["iter"], r["F_mu"], r["forward_calls"], r["step_norm_theta"],
                 r["step_norm_z"], r["constraint_c"]) for r in mres.trace])
    _write_csv(out / "mu_z.csv", "j,value", "%d,%.17g\n", enumerate(mres.mu_z.tolist()))
    for name, values in (("mu_theta", mres.mu_theta), ("phi_mean", mres.phi_mean)):
        if values is not None:
            _write_csv(out / f"{name}.csv", "element_id,value", "%d,%.17g\n",
                       enumerate(values.tolist()))
    laps.append(("map", time.perf_counter()))

    vres = spectrum = report = None
    if level >= 2:
        vres = fit_q(cfg, model, prior, mres, rng_w)
        _write_csv(out / "f_trace.csv", "iter,F", "%d,%.17g\n",
                   [(i + 1, fw) for i, (_, fw) in enumerate(vres.F_history)])
        spectrum = vb.sensitive_directions(vres.state, vres.params)
        _write_csv(out / "spectrum.csv", "j,sigma2_j", "%d,%.17g\n",
                   [(j + 1, s2) for j, s2 in enumerate(spectrum.sigma2)])
        for j in range(spectrum.W_hat.shape[1]):
            _write_csv(out / f"direction_{j + 1:02d}.csv", "component_id,value",
                       "%d,%.17g\n", enumerate(spectrum.W_hat[:, j].tolist()))
        _save_state(out / "state.npz", vres)
        for lv in cfg.sample_levels:
            zs = vb.sample_designs(vres.params, vres.state, lv, cfg.sample_count,
                                   rng_designs)
            _write_csv(out / f"designs_level_{_level_text(lv)}.csv",
                       "sample,component_id,value", "%d,%d,%.17g\n",
                       ((i, j, v) for i, row in enumerate(zs.tolist())
                        for j, v in enumerate(row)))
        laps.append(("vbem", time.perf_counter()))

        if level >= 3:
            report = validation.estimate_nKL(model, vres.state, vres.params, prior,
                                             cfg.validate_M, rng_val)
            with open(out / "validation.txt", "w") as fh:
                fh.write("\n".join(report.lines()) + "\n")
            laps.append(("validate", time.perf_counter()))

    total = model.forward_calls
    validate_calls = 0 if report is None else report.forward_calls
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
        "map_stationarity": f"{mres.grad_norm:.17g}",
        **({} if mres.phi_mean is None else {
            "map_phi_estimates": mres.phi_estimates,
            "map_gibbs_sweeps": mres.phi_estimates * cfg.topo_prior_sweeps,
            "map_spin_passes": mres.spin_passes}),
        **({} if vres is None else {"vbem_iterations": vres.iterations,
                                   "vbem_converged": vres.converged}),
        **{f"time_{k}": f"{end - begin:.3f}"
           for (_, begin), (k, end) in zip(laps, laps[1:])},
        "time_total": f"{laps[-1][1] - laps[0][1]:.3f}",
    }
    with open(out / "manifest.txt", "w") as fh:
        for k, v in manifest.items():
            fh.write(f"{k} = {v}\n")
    return RunArtifacts(mres, vres, spectrum, report, manifest)


def _save_state(path, vres):
    """q and the point estimates; the theta block stays in low-rank form,
    C_thth = C_theta0 - B_th S^-1 B_th^T with S = S_chol S_chol^T. The
    state holds the whitened Jacobian, not B_th or C_thy: both are formed
    from its factors here, on their first read."""
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
