"""The benchmark's three workloads and the checks on their outputs.

heat_full and topo_coarse run the CLI pipeline (`cli.run` through the
variational stage, then `validation.estimate_nKL`); topo_solve_sweep builds
the production topology problem and runs only the importance-sampling stage
on a cheaply fitted q. Every workload body starts with `cli.build_problem`,
so set-up is cut at the same call everywhere.

Reference values in reference.json were recorded with the package at the
commit that added this benchmark (pure-Python spin kernel, two BLAS
threads): mu_z and sigma2_1 of each pipeline at CLI seed 0, and the sweep's
forward outputs at the prior mean. Only these are compared. Across BLAS
thread counts they agree to about 1e-8, so REL_TOL (max norm) leaves a
factor 100, while the non-stiff spectrum entries move by about 2%.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vbdesign import cli, problems, validation, vb

REL_TOL = 1e-6
F_SLACK = 1e-8          # relative float slack on the monotone bound trace
SWEEP_SAMPLES = 100     # exact solves per topo_solve_sweep repetition

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


@dataclass
class Outcome:
    forward_calls: int
    digest: dict                      # artifact name -> sha256 of its content
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def _rel_err(x, ref):
    x, ref = np.asarray(x, dtype=float), np.asarray(ref, dtype=float)
    if x.shape != ref.shape:
        return np.inf
    return float(np.max(np.abs(x - ref)) / max(np.max(np.abs(ref)), 1e-300))


def _check_close(failures, what, x, ref):
    err = _rel_err(x, ref)
    if not err <= REL_TOL:
        failures.append(f"{what} differs from the seed-commit value (rel err {err:.2e})")


def _check_spectrum(failures, sigma2):
    if not (sigma2[0] > 0 and np.all(np.diff(sigma2) >= 0)):
        failures.append(f"spectrum not ascending and positive: {sigma2}")


def artifact_digest(outdir: Path) -> dict:
    """sha256 per artifact; timing lines of the manifest are left out and
    .npz archives are hashed by array content (the zip holds timestamps)."""
    digest = {}
    for path in sorted(outdir.iterdir()):
        h = hashlib.sha256()
        if path.suffix == ".npz":
            with np.load(path) as z:
                for key in sorted(z.files):
                    arr = z[key]
                    h.update(f"{key}{arr.dtype}{arr.shape}".encode())
                    h.update(np.ascontiguousarray(arr).tobytes())
        elif path.name == "manifest.txt":
            for line in path.read_text().splitlines():
                if not line.startswith("time_"):
                    h.update(line.encode() + b"\n")
        else:
            h.update(path.read_bytes())
        digest[path.name] = h.hexdigest()
    return digest


def _prior(cfg, model):
    return vb.PriorConfig(tau_y0=1.0 / cfg.vb_tau_y0_inv, eps2=cfg.vb_eps2,
                          field_prior=model.field_prior)


class Pipeline:
    """`cli.run` through the variational stage, then the validation stage.

    The CLI seed, which sets the variational basis start, is fixed at its
    default 0; the workload's seed draws the validation samples. The basis
    start decides how much Stiefel work the loop does: on topo_coarse, 3 of
    32 CLI seeds run all 200 iterations (vbem about 22 s) where the others
    converge in 11 to 17 (about 1 s), which would make run time depend on the
    seed more than on the code. cli.run does not return its model, so the
    validation stage builds the same one again.
    """

    def __init__(self, name, config_text, seed):
        self.name = name
        self.seed = seed
        self.cfg = cli.parse_config(config_text)
        self.cfg.seed = 0
        self.ref = REFERENCE[name]

    def setup(self):
        return cli.build_problem(self.cfg)

    def body(self, outdir: Path):
        cfg = self.cfg
        art = cli.run(cfg, stage="vbem", outdir=outdir)
        model = cli.build_problem(cfg)
        art.report = validation.estimate_nKL(model, art.vbem.state, art.vbem.params,
                                             _prior(cfg, model), cfg.validate_M,
                                             np.random.default_rng(self.seed))
        (outdir / "validation.txt").write_text("\n".join(art.report.lines()) + "\n")
        return art, model

    def check(self, result, outdir: Path) -> Outcome:
        art, model = result
        man = art.manifest
        out = Outcome(man["total_forward_calls"] + model.forward_calls, artifact_digest(outdir))
        if not art.map_result.converged:
            out.failures.append("point estimation did not converge")
        if (man["total_forward_calls"] != man["map_forward_calls"]
                or not art.report.forward_calls == model.forward_calls == self.cfg.validate_M):
            out.failures.append(f"forward-call identity violated: {man}, validation "
                                f"{art.report.forward_calls} of {model.forward_calls} solves")
        flat = np.array([v for pair in art.vbem.F_history for v in pair])
        drop = np.diff(flat) / (1.0 + np.abs(flat[:-1]))
        if drop.size and drop.min() < -F_SLACK:
            out.failures.append(f"bound trace decreased (min rel step {drop.min():.2e})")
        _check_spectrum(out.failures, art.spectrum.sigma2)
        _check_close(out.failures, "mu_z", art.map_result.mu_z, self.ref["mu_z"])
        _check_close(out.failures, "sigma2_1", art.spectrum.sigma2[0], self.ref["sigma2_1"])
        return out


class SolveSweep:
    """Production-grid importance sampling on q fitted at the prior mean.

    q comes from one forward-plus-adjoint evaluation at the prior-mean field
    and the uniform volume-fraction design and one `vb_expectation` call; no
    point estimation, so every exact solve after the first is independent.
    """

    name = "topo_solve_sweep"

    def __init__(self, seed):
        self.seed = seed
        self.cfg = cli.parse_config("problem = topo")
        self.ref = REFERENCE[self.name]

    def setup(self):
        return cli.build_problem(self.cfg)

    def body(self, outdir: Path):
        cfg = self.cfg
        model = cli.build_problem(cfg)
        rng_w, rng_val = (np.random.default_rng(s)
                          for s in np.random.SeedSequence(self.seed).spawn(2))
        prior = _prior(cfg, model)
        vf = model.constraint.target_VF
        mu_z = np.full(model.d_z, np.log(vf / (1.0 - vf)))
        mu_theta = model.field_prior.mean
        u, G_theta, G_z = model.evaluate_with_jacobians(mu_theta, mu_z)
        _, f = problems.constraint_value_and_gradient(model.constraint, mu_z)
        params = vb.ModelParams(mu_z=mu_z, W=vb.initial_W(model.d_z, cfg.vb_d_y, rng_w),
                                mu_theta=mu_theta)
        state = vb.vb_expectation(G_theta, G_z, params, prior, model.tau_Q,
                                  f=f, eps_c2=model.constraint.eps_c2)
        spectrum = vb.sensitive_directions(state, params)
        report = validation.estimate_nKL(model, state, params, prior, SWEEP_SAMPLES, rng_val)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "validation.txt").write_text("\n".join(report.lines()) + "\n")
        (outdir / "log_weights.txt").write_text(
            "".join(f"{w:.17g}\n" for w in report.log_weights))
        (outdir / "spectrum.txt").write_text("".join(f"{s:.17g}\n" for s in spectrum.sigma2))
        return model, u, spectrum, report

    def check(self, result, outdir: Path) -> Outcome:
        model, u, spectrum, report = result
        out = Outcome(model.forward_calls, artifact_digest(outdir))
        if report.forward_calls != SWEEP_SAMPLES or model.forward_calls != SWEEP_SAMPLES + 1:
            out.failures.append(f"forward-call identity violated: {model.forward_calls} "
                                f"total, {report.forward_calls} sampled")
        _check_spectrum(out.failures, spectrum.sigma2)
        _check_close(out.failures, "prior-mean outputs", u, self.ref["outputs"])
        return out


TOPO_COARSE = "problem = topo\nmesh.nx = 26\nmesh.ny = 17\n"

WORKLOADS = {
    "heat_full": lambda seed: Pipeline("heat_full", "problem = heat_flux\n", seed),
    "topo_coarse": lambda seed: Pipeline("topo_coarse", TOPO_COARSE, seed),
    "topo_solve_sweep": SolveSweep,
}
