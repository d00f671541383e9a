from dataclasses import replace

from mvs_robust.checks import check_lognormal_moments, solve_context
from mvs_robust.cli import main
from mvs_robust.config import parse_config
from mvs_robust.presets import FIGURE_PRESETS, preset_config
from mvs_robust.sweep import rows_to_csv, run_sweep, sweep_grid

QUICK = """
[solver]
num_steps = 300

[simulation]
num_paths = 4000
num_steps = 50
seed = 42
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestSolveCommand:
    def test_terminal_row(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", QUICK)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "coefficients_full.csv").read_text().splitlines()
        assert lines[0] == "t,f,h1,h2,h3,g1,k1,delta3"
        last = lines[-1].split(",")
        assert float(last[1]) == 0.5
        assert all(float(x) == 1.0 for x in last[2:7])
        assert (out / "run.meta").exists()

    def test_noskew_matches_full_at_zero_phi0(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", QUICK + "\n[preferences]\nphi0 = 0.0\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out), "--variants", "full,noskew"]) == 0
        full = (out / "coefficients_full.csv").read_text()
        hat = (out / "coefficients_noskew.csv").read_text()
        f_cols = [line.split(",")[1] for line in full.splitlines()[1:]]
        h_cols = [line.split(",")[1] for line in hat.splitlines()[1:]]
        assert f_cols == h_cols  # byte-identical columns

    def test_unknown_variant_is_config_error(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", QUICK)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--variants", "bogus"]) == 2

    def test_empty_variant_list_is_config_error(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", QUICK)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--variants", ","]) == 2
        assert not (tmp_path / "run.meta").exists()


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        cfg = write(tmp_path, "bad.cfg", "[market]\nsigma = 0\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_zero_horizon_is_2(self, tmp_path):
        cfg = write(tmp_path, "bad.cfg", "[market]\nT = 0.0\n")
        assert main(["check", "--config", cfg]) == 2

    def test_solver_error_is_3(self, tmp_path):
        # denominator degenerates inside the horizon at low risk aversion
        cfg = write(tmp_path, "deg.cfg", QUICK + "\n[preferences]\ngamma0 = 1.0\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_non_finite_value_is_2(self, tmp_path):
        cfg = write(tmp_path, "bad.cfg", QUICK + "\n[preferences]\nxi = nan\n")
        assert main(["check", "--config", cfg]) == 2

    def test_ragged_volatility_matrix_is_2(self, tmp_path):
        text = QUICK + "\n[market]\nmu = 0.15, 0.10\nsigma = 0.2; 0.1, 0.3\n"
        cfg = write(tmp_path, "bad.cfg", text)
        assert main(["check", "--config", cfg]) == 2

    def test_default_section_is_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg", QUICK + "\n[DEFAULT]\nT = 3\n")
        assert main(["check", "--config", cfg]) == 2
        assert "unknown section [DEFAULT]" in capsys.readouterr().err

    def test_missing_config_is_2(self, tmp_path):
        assert main(["check", "--config", str(tmp_path / "nope.cfg")]) == 2


class TestCheckCommand:
    def test_passes_on_quick_config(self, tmp_path, capsys):
        cfg = write(
            tmp_path, "c.cfg",
            "[solver]\nnum_steps = 1000\n[simulation]\nnum_paths = 20000\nnum_steps = 50\nseed = 42\n",
        )
        assert main(["check", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 9
        assert all("status=pass" in line for line in lines)

    def test_off_node_start_time_lognormal_moments(self):
        # start_time between nodes (dt = 0.005): the targets are the
        # coefficients interpolated there, not the nearest node's
        cfg = parse_config(
            "[solver]\nnum_steps = 1000\n[simulation]\nstart_time = 0.0013\n"
        )
        res = check_lognormal_moments(solve_context(cfg))
        assert res.passed, res.summary_line()

    def test_coarse_grid_fails_oracle_band(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", "[solver]\nnum_steps = 10\n[simulation]\nnum_paths = 2000\nnum_steps = 10\n")
        assert main(["check", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert "check=oracle_equivalence status=fail" in out


class TestSimulateCommand:
    def test_deterministic_output(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", QUICK)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "simulation.csv").read_bytes() == (out2 / "simulation.csv").read_bytes()

    def test_zero_theta_reports_zero_variance(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", QUICK + "\n[market]\nmu = 0.05\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = {
            line.split(",")[0]: line.split(",")[1]
            for line in (out / "simulation.csv").read_text().splitlines()[1:]
        }
        assert abs(float(rows["variance"])) < 1e-9
        assert all(
            "pass" in line for line in (out / "simulation.csv").read_text().splitlines()
            if line.startswith("moment_")
        )


class TestSweepCommand:
    def test_monotone_allocation_in_xi(self, tmp_path):
        cfg = write(
            tmp_path, "c.cfg",
            QUICK + "\n[sweep]\nparam = xi\nmin = 0.5\nmax = 3.0\ncount = 4\n",
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        cols = lines[0].split(",")
        u_idx = cols.index("u_star")
        us = [float(line.split(",")[u_idx]) for line in lines[1:]]
        assert all(b < a for a, b in zip(us, us[1:]))
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_failed_cells_recorded_not_fatal(self, tmp_path):
        # gamma0 = 1 at the base market degenerates; the sweep still completes
        cfg = write(
            tmp_path, "c.cfg",
            QUICK + "\n[sweep]\nparam = gamma0\nmin = 1.0\nmax = 4.0\ncount = 3\n",
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        statuses = [line.split(",")[-1] for line in lines[1:]]
        assert statuses[0] == "DegenerateDenominator"
        assert statuses[1:] == ["ok", "ok"]

    def test_batch_composition_invariance(self):
        # a cell's row bytes do not depend on which other cells share its batch
        full = parse_config(
            QUICK + "\n[sweep]\nparam = mu\nmin = 0.10\nmax = 0.20\ncount = 3\n"
            "param2 = gamma0\nmin2 = 1.5\nmax2 = 4.0\ncount2 = 4\n"
        )
        lines = rows_to_csv(*run_sweep(full)).splitlines()
        assert any(not line.endswith(",ok") for line in lines[1:])  # a failed cell too
        for i, cell in enumerate(sweep_grid(full)):
            alone = replace(full, sweep=replace(
                full.sweep, min=cell["mu"], max=cell["mu"], count=1,
                min2=cell["gamma0"], max2=cell["gamma0"], count2=1,
            ))
            assert rows_to_csv(*run_sweep(alone)).splitlines()[1] == lines[1 + i]
        row = replace(full, sweep=replace(full.sweep, min=0.20, max=0.20, count=1))
        assert rows_to_csv(*run_sweep(row)).splitlines()[1:] == lines[9:]

    def test_sweep_without_section_is_config_error(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", QUICK)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestFiguresCommand:
    def test_emits_all_presets(self, tmp_path, capsys):
        out = tmp_path / "figs"
        assert main(["figures", "--out", str(out)]) == 0
        files = sorted(p.name for p in out.glob("*.cfg"))
        assert len(files) == len(FIGURE_PRESETS)
        assert "fig01.cfg" in files and "fig14.cfg" in files

    def test_presets_parse_and_solve(self, tmp_path):
        out = tmp_path / "figs"
        main(["figures", "--out", str(out)])
        text = (out / "fig09.cfg").read_text()
        cfg = parse_config(text)
        assert cfg.market.mu == (0.10,)
        assert cfg.sweep is not None and cfg.sweep.param == "w0"

    def test_preset_config_helper(self):
        for preset in FIGURE_PRESETS:
            cfg = preset_config(preset)
            assert cfg.sweep is not None
