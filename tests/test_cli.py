"""Config parsing, pipeline artifacts, determinism, exit codes."""

import tracemalloc

import numpy as np
import pytest

from vbdesign import cli
from vbdesign.cli import ConfigError, build_problem, parse_config, run

from conftest import prior_covariance

SMALL_HEAT = """
# compact heat setup for fast runs
problem = heat_flux
mesh.nx = 8
mesh.ny = 4
vb.d_y = 3
vb.max_iters = 40
validate.M = 40
sample.count = 3
seed = 11
"""

SMALL_TOPO = """
problem = topo
mesh.nx = 8
mesh.ny = 5
vb.d_y = 4
vb.max_iters = 30
topo_prior.sweeps = 150
topo_prior.burn_in = 40
validate.M = 30
map.max_iter = 120
seed = 3
"""


class TestParseConfig:
    def test_defaults_reproduce_reference_settings(self):
        cfg = parse_config("problem = heat_flux")
        assert cfg.vb_tau_y0_inv == 1e4
        assert cfg.vb_eps2 == 1e-10
        assert cfg.vb_w_steps == 100
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
        expected = art.vbem.state.C_thth
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
                           "vb.d_y = 4\nvb.max_iters = 10\nseed = 1")
        cfg.vb_d_y = build_problem(cfg).d_z
        art = run(cfg, stage="vbem", outdir=tmp_path)
        prior_tau_z0 = (1.0 / cfg.vb_tau_y0_inv) * cfg.vb_eps2
        assert art.vbem.state.tau_z == pytest.approx(prior_tau_z0)

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
