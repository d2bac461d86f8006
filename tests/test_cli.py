"""Config parsing, pipeline artifacts, determinism, exit codes."""

import tracemalloc

import numpy as np
import pytest

from vbdesign import cli, problems, topo_prior, vb
from vbdesign.cli import ConfigError, build_problem, parse_config, run

from conftest import prior_covariance, raster_phi_mean, theta_block

SMALL_HEAT = """
# compact heat setup for fast runs
problem = heat_flux
mesh.nx = 8
mesh.ny = 4
vb.d_y = 3
validate.M = 40
sample.count = 3
seed = 11
"""

SMALL_TOPO = """
problem = topo
mesh.nx = 8
mesh.ny = 5
vb.d_y = 4
topo_prior.sweeps = 150
topo_prior.burn_in = 40
validate.M = 30
map.max_iter = 120
seed = 3
"""

TOPO_13x9 = """
problem = topo
mesh.nx = 13
mesh.ny = 9
vb.d_y = 4
topo_prior.sweeps = 150
topo_prior.burn_in = 40
validate.M = 30
sample.count = 3
seed = 4
"""


def raster_estimate(state, mu_z, sweeps, burn_in, rng, update_beta=True):
    """estimate_phi_mean through the raster reference, which counts no passes."""
    pm, state.phi[:], state.beta = raster_phi_mean(
        state.neighbors, np.asarray(mu_z, dtype=float), sweeps, burn_in, rng, state.m,
        state.s2, state.phi, state.beta, update_beta)
    state.phi_mean = pm
    return pm.copy()


def artifacts(out, skip=("time_",)):
    """A run's artifacts by file name: bytes, the manifest's lines without
    those that start with `skip`, and state.npz's arrays."""
    found = {}
    for path in sorted(out.iterdir()):
        if path.name == "manifest.txt":
            found[path.name] = [line for line in path.read_text().splitlines()
                                if not line.startswith(skip)]
        elif path.suffix == ".npz":
            with np.load(path) as z:
                found[path.name] = {k: (z[k].dtype, z[k].shape, z[k].tobytes()) for k in z}
        else:
            found[path.name] = path.read_bytes()
    return found


class TestParseConfig:
    def test_defaults_reproduce_reference_settings(self):
        cfg = parse_config("problem = heat_flux")
        assert cfg.vb_tau_y0_inv == 1e4
        assert cfg.vb_eps2 == 1e-10
        assert (vb.W_STEPS, vb.MAX_ITERS, vb.FTOL) == (100, 200, 1e-8)
        assert cfg.map_tol == 1e-5
        assert cfg.field_sigma_g2 == 0.223
        assert cfg.field_x0 == 0.1
        assert cfg.field_mu_theta0 == -0.112
        assert cfg.constraint_VF == 0.4
        assert cfg.constraint_eps_c2 == 1e-10
        assert cfg.validate_M == 500
        heat = build_problem(cfg)
        assert heat.tau_Q == pytest.approx(100.0)
        assert (heat.d_theta, heat.d_z, heat.n) == (1600, 21, 11)
        topo = build_problem(parse_config("problem = topo"))
        assert topo.tau_Q == pytest.approx(2e5)
        assert (topo.d_theta, topo.d_z) == (3536, 3536)

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# hi\n\nproblem = topo  # inline\nseed = 5\n")
        assert cfg.problem == "topo"
        assert cfg.seed == 5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("problem = heat_flux\nbogus.key = 1")

    @pytest.mark.parametrize("key", ["vb.w_steps", "vb.max_iters", "vb.ftol"])
    def test_removed_loop_settings_rejected(self, key):
        with pytest.raises(ConfigError):
            parse_config(f"problem = heat_flux\n{key} = 10")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("seed = notanumber")

    def test_bad_problem_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("problem = frobnicate")

    @pytest.mark.parametrize("sweeps,burn_in", [(100, 100), (50, 100), (500, -1)])
    def test_spin_burn_in_must_precede_sweeps(self, sweeps, burn_in):
        with pytest.raises(ConfigError):
            parse_config(f"topo_prior.sweeps = {sweeps}\ntopo_prior.burn_in = {burn_in}")

    def test_levels_parsing(self):
        cfg = parse_config("sample.levels = 0.9,0.5")
        assert cfg.sample_levels == (0.9, 0.5)


class TestBuildProblem:
    def test_problem_holds_one_square_array(self):
        # the prior's factor is the only d_theta x d_theta array set-up leaves
        # alive, and set-up never holds two at once
        cfg = parse_config("problem = topo\nmesh.nx = 30\nmesh.ny = 25")
        tracemalloc.start()
        try:
            model = build_problem(cfg)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        square = model.d_theta ** 2 * 8
        assert model.d_theta == 1500
        assert current < 1.5 * square and peak < 1.5 * square


@pytest.fixture(scope="module")
def heat_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("heat")
    cfg = parse_config(SMALL_HEAT)
    art = run(cfg, stage="all", outdir=out)
    return out, art


class TestRunPipeline:
    def test_artifacts_exist(self, heat_run):
        out, art = heat_run
        for name in ("mesh.txt", "map_trace.csv", "mu_z.csv", "mu_theta.csv",
                     "f_trace.csv", "spectrum.csv", "state.npz",
                     "validation.txt", "manifest.txt"):
            assert (out / name).exists(), name
        assert (out / "direction_01.csv").exists()
        assert (out / "designs_level_0.95.csv").exists()

    def test_pipeline_takes_lowrank_route(self, heat_run):
        _, art = heat_run
        assert art.vbem.state.lowrank is not None

    def test_forward_call_identity(self, heat_run):
        out, art = heat_run
        man = dict(line.split(" = ") for line in
                   (out / "manifest.txt").read_text().splitlines())
        total = int(man["total_forward_calls"])
        assert total == int(man["map_forward_calls"]) + int(man["validate_forward_calls"])
        assert int(man["validate_forward_calls"]) == 40

    def test_spectrum_rows(self, heat_run):
        out, _ = heat_run
        rows = (out / "spectrum.csv").read_text().splitlines()
        assert rows[0] == "j,sigma2_j"
        assert len(rows) == 1 + 3  # d_y = 3

    def test_monotone_f_trace(self, heat_run):
        out, _ = heat_run
        rows = (out / "f_trace.csv").read_text().splitlines()[1:]
        F = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all(np.diff(F) >= -1e-8 * (1 + np.abs(F[:-1])))

    def test_state_rebuilds_theta_block(self, heat_run):
        # state.npz holds B_th and the factor of S, not the dense C_thth:
        # C_thth = C_theta0 - B_th S^-1 B_th^T with C_theta0 from the config
        out, art = heat_run
        fp = build_problem(parse_config(SMALL_HEAT)).field_prior
        with np.load(out / "state.npz") as z:
            assert "C_thth" not in z.files
            B_th, S_chol = z["B_th"], z["S_chol"]
        assert np.array_equal(S_chol, np.tril(S_chol))
        half = np.linalg.solve(S_chol, B_th.T)
        C_thth = prior_covariance(fp) - half.T @ half
        expected = theta_block(art.vbem.state)
        assert np.max(np.abs(C_thth - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_rerun_bitwise_identical_spectrum(self, heat_run, tmp_path):
        out, _ = heat_run
        cfg = parse_config(SMALL_HEAT)
        run(cfg, stage="vbem", outdir=tmp_path)
        assert ((out / "spectrum.csv").read_bytes()
                == (tmp_path / "spectrum.csv").read_bytes())

    def test_map_stage_stops_early(self, tmp_path):
        cfg = parse_config(SMALL_HEAT)
        art = run(cfg, stage="map", outdir=tmp_path)
        assert (tmp_path / "map_trace.csv").exists()
        assert not (tmp_path / "spectrum.csv").exists()
        assert art.manifest["validate_forward_calls"] == 0
        assert "vbem_converged" not in art.manifest

    def test_heat_loop_reports_convergence(self, tmp_path):
        art = run(parse_config("problem = heat_flux\n"), stage="vbem", outdir=tmp_path)
        man = dict(line.split(" = ") for line in
                   (tmp_path / "manifest.txt").read_text().splitlines())
        assert man["vbem_converged"] == "True"
        assert int(man["vbem_iterations"]) == art.vbem.iterations

    def test_degenerate_full_reduced_dimension(self, tmp_path):
        # d_y = d_z: no complement left, tau_z stays at its prior value
        cfg = parse_config("problem = heat_flux\nmesh.nx = 6\nmesh.ny = 3\n"
                           "vb.d_y = 4\nseed = 1")
        cfg.vb_d_y = build_problem(cfg).d_z
        art = run(cfg, stage="vbem", outdir=tmp_path)
        prior_tau_z0 = (1.0 / cfg.vb_tau_y0_inv) * cfg.vb_eps2
        assert art.vbem.state.tau_z == pytest.approx(prior_tau_z0)

    def test_manifest_counts_spin_chain(self, heat_run, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return estimate(*args, **kwargs)
        estimate = topo_prior.estimate_phi_mean
        monkeypatch.setattr(topo_prior, "estimate_phi_mean", counted)
        art = run(parse_config(SMALL_TOPO), stage="map", outdir=tmp_path)
        man = dict(line.split(" = ") for line in
                   (tmp_path / "manifest.txt").read_text().splitlines())
        assert len(calls) > 0 and set(calls) == {150}
        assert art.map_result.phi_estimates == len(calls)
        assert int(man["map_phi_estimates"]) == len(calls)
        assert int(man["map_gibbs_sweeps"]) == 150 * len(calls)
        heat_man = (heat_run[0] / "manifest.txt").read_text()
        assert "map_phi_estimates" not in heat_man and "map_gibbs_sweeps" not in heat_man

    def test_manifest_counts_spin_passes(self, heat_run, tmp_path, monkeypatch):
        # each call adds its Jacobi passes to its state, at least one per
        # sweep with candidates and none without; the map stage sums them
        passes = []

        def counted(state, *args, **kwargs):
            before = state.passes
            out = estimate(state, *args, **kwargs)
            passes.append(state.passes - before)
            return out
        estimate = topo_prior.estimate_phi_mean
        monkeypatch.setattr(topo_prior, "estimate_phi_mean", counted)
        art = run(parse_config(SMALL_TOPO), stage="map", outdir=tmp_path)
        man = dict(line.split(" = ") for line in
                   (tmp_path / "manifest.txt").read_text().splitlines())
        assert len(passes) == art.map_result.phi_estimates
        assert all(p == 0 or p >= 150 for p in passes)
        assert art.map_result.spin_passes == sum(passes) > 0
        assert int(man["map_spin_passes"]) == sum(passes)
        assert "map_spin_passes" not in (heat_run[0] / "manifest.txt").read_text()

    def test_topo_rerun_matches_raster_chain(self, tmp_path, monkeypatch):
        # a rerun writes the same artifacts apart from the time_ lines, and so
        # does a run whose spin chain is the raster reference, apart from the
        # pass count that only the package chain keeps
        cfg = parse_config(TOPO_13x9)
        run(cfg, outdir=tmp_path / "a")
        run(cfg, outdir=tmp_path / "b")
        monkeypatch.setattr(topo_prior, "estimate_phi_mean", raster_estimate)
        run(cfg, outdir=tmp_path / "raster")
        first = artifacts(tmp_path / "a")
        assert {"state.npz", "phi_mean.csv", "validation.txt"} <= set(first)
        assert artifacts(tmp_path / "b") == first
        skip = ("time_", "map_spin_passes")
        assert artifacts(tmp_path / "raster", skip) == artifacts(tmp_path / "a", skip)

    def test_csv_template_prints_like_format_spec(self, tmp_path):
        # a row's %-template prints each double as f"{x:.17g}" did, signed
        # zeros, infinities, NaN and subnormals included
        vals = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308,
                1.0 / 3.0, -1e300, 123456789.0, *np.random.default_rng(1).standard_normal(200)]
        cli._write_csv(tmp_path / "v.csv", "j,value", "%d,%.17g\n", enumerate(vals))
        expected = "j,value\n" + "".join(f"{j},{float(v):.17g}\n" for j, v in enumerate(vals))
        assert (tmp_path / "v.csv").read_text() == expected

    def test_topo_pipeline(self, tmp_path):
        cfg = parse_config(SMALL_TOPO)
        art = run(cfg, stage="vbem", outdir=tmp_path)
        assert (tmp_path / "phi_mean.csv").exists()
        assert abs(art.map_result.trace[-1]["constraint_c"]) < 1e-5
        rows = (tmp_path / "f_trace.csv").read_text().splitlines()[1:]
        F = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all(np.diff(F) >= -1e-8 * (1 + np.abs(F[:-1])))


class TestMainExitCodes:
    def test_config_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1")
        assert cli.main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_spin_burn_in_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_TOPO.replace("topo_prior.burn_in = 40", "topo_prior.burn_in = 150"))
        assert cli.main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line", [
        "mesh.nx = 0", "vb.d_y = 50", "map.tol = nan", "validate.M = 1", "vb.d_y = 0",
        "sample.levels = 1.5", "sample.count = -1", "vb.eps2 = 0", "vb.tau_y0_inv = -1",
        "constraint.VF = 1.5", "mesh.ny = 0", "field.x0 = inf", "field.mu_theta0 = nan",
        "utility.tau_Q_inv = 0", "constraint.eps_c2 = -1e-10", "map.max_iter = 0",
        "map.c_z0 = nan", "map.gibbs_seed = -1", "topo_prior.s2 = 0",
        "sample.levels = 0.5,1.0", "seed = -3"], ids=lambda line: line.replace(" ", ""))
    def test_out_of_range_value_exit_2(self, tmp_path, monkeypatch, line):
        # vb.d_y = 50 exceeds d_z = 5 of the 8x4 heat mesh, which only the
        # built model knows; every case stops before a solve or an output
        solves, solve = [], problems.solve_forward
        monkeypatch.setattr(problems, "solve_forward",
                            lambda *a, **kw: solves.append(1) or solve(*a, **kw))
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_HEAT + line + "\n")
        assert cli.main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert solves == []
        assert not (tmp_path / "o").exists()

    def test_missing_config_file_exit_2(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "nope.cfg")]) == 2

    def test_ok_exit_0(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL_HEAT.replace("validate.M = 40", "validate.M = 10"))
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--stage", "map"])
        assert code == 0

    def test_seed_override(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL_HEAT)
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--stage", "map", "--seed", "123"])
        assert code == 0
        man = (tmp_path / "o" / "manifest.txt").read_text()
        assert "seed = 123" in man
