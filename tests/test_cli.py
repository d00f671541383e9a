import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mvs_robust import ConfigError, MvsRobustError, checks, config, simulate
from mvs_robust.checks import check_lognormal_moments, solve_context
from mvs_robust.cli import main
from mvs_robust.config import SweepSection, parse_config, sweep_grid
from mvs_robust.policy import equilibrium_policy, value_at
from mvs_robust.presets import FIGURE_PRESETS, preset_config
from mvs_robust.solver import solve_all
from mvs_robust.sweep import rows_to_csv, run_sweep

QUICK = """
[solver]
num_steps = 300

[simulation]
num_paths = 4000
num_steps = 50
seed = 42
"""

# solvable, with an f steep enough that plain trapezoid rules miss 1e-7
STEEP = (
    "[market]\nmu = 0.27903\nsigma = 0.32978\n"
    "[preferences]\ngamma0 = 2.27791\nphi0 = 2.62057\nxi = 1.41690\n"
)

THREE_ASSET = (
    "[market]\nmu = 0.12, 0.15, 0.18\n"
    "sigma = 0.20, 0, 0; 0.06, 0.22, 0; 0.04, 0.05, 0.25\n"
)
# the sampled third and fourth moments' centred comoments overflow
WEALTH_1E70 = "[simulation]\nstart_wealth = 1e70\nnum_paths = 2000\nnum_steps = 20\n"
XI_R_SWEEP = (
    "[sweep]\nparam = xi\nmin = 0.5\nmax = 3.0\ncount = 3\n"
    "param2 = r\nmin2 = 0.03\nmax2 = 0.06\ncount2 = 2\n"
)


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

    def test_sweep_axis_given_twice_is_2(self, tmp_path, capsys):
        text = QUICK + ("\n[sweep]\nparam = xi\nmin = 0.5\nmax = 1.0\ncount = 2\n"
                        "param2 = xi\nmin2 = 2\nmax2 = 3\ncount2 = 2\n")
        cfg = write(tmp_path, "twice.cfg", text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "given as both param and param2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sweep_axis_given_in_part_is_2(self, tmp_path, capsys):
        text = QUICK + "\n[sweep]\nparam = xi\nmin = 0.5\nmax = 1.0\ncount = 2\nmin2 = 7\n"
        cfg = write(tmp_path, "half.cfg", text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "second axis" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text,message", [
        ("[preferences]\ngamma0 = -1\n[simulation]\nnum_paths = abc\n",
         "gamma0 must be positive"),
        ("[market]\nsigma = 0\n[preferences]\ngamma0 = -1\n", "gamma0 must be positive"),
    ])
    def test_section_checks_itself_as_it_is_built(self, tmp_path, capsys, text, message):
        # [preferences] is parsed before [simulation] and checked before the market is built
        cfg = write(tmp_path, "bad.cfg", text)
        assert main(["check", "--config", cfg]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "simulate", "check"])
    def test_start_wealth_past_fourth_power_overflow_is_2(self, tmp_path, capsys, command):
        # simulate and check raised OverflowError from w ** 4 and exited 1
        cfg = write(tmp_path, "w.cfg", "[simulation]\nstart_wealth = 1.16e77\n")
        out = [] if command == "check" else ["--out", str(tmp_path / "o")]
        assert main([command, "--config", cfg, *out]) == 2
        assert capsys.readouterr().err == ("error: ConfigError: start_wealth must be positive "
                                           "and below 1.1579e+77, got 1.16e+77\n")

    @pytest.mark.parametrize("param,low,message", [
        ("gamma0", -1.0, "gamma0 must be positive"),
        ("w0", -1.0, "start_wealth must be positive"),
        ("sigma", 0.0, "SingularGram"),
    ])
    def test_sweep_cell_outside_domain_is_2(self, tmp_path, capsys, param, low, message):
        # the same value outside a sweep exits 2, so a cell that takes it does too
        text = QUICK + f"\n[sweep]\nparam = {param}\nmin = {low}\nmax = 0.3\ncount = 3\n"
        cfg = write(tmp_path, "cell.cfg", text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


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

    def test_unsolvable_table_fails_every_check(self, tmp_path, capsys):
        # gamma0 = 1 drives the FULL denominator under its guard: no check runs,
        # and each line names the solve's error
        cfg = write(tmp_path, "c.cfg", "[preferences]\ngamma0 = 1.0\n")
        assert main(["check", "--config", cfg]) == 1
        note = ("note=DegenerateDenominator: coefficient denominator below guard 1e-12 "
                "at node 72 (t = 0.18)")
        assert capsys.readouterr().out.splitlines() == [
            f"check={fn.__name__.removeprefix('check_')} status=fail {note}"
            for fn in checks.ALL_CHECKS
        ]

    def test_raising_check_fails_alone(self, monkeypatch):
        def broken(*args, **kwargs):
            raise MvsRobustError("moment bound unavailable")

        monkeypatch.setattr(checks, "moment_bound_check", broken)
        results = checks.run_checks(parse_config(QUICK))
        assert [r.name for r in results] == [
            fn.__name__.removeprefix("check_") for fn in checks.ALL_CHECKS
        ]
        failed = [r.summary_line() for r in results if not r.passed]
        assert failed == [
            "check=moment_bound status=fail note=MvsRobustError: moment bound unavailable"
        ]

    def test_off_node_start_time_lognormal_moments(self):
        # start_time between nodes (dt = 0.005): the targets are the
        # coefficients interpolated there, not the nearest node's
        cfg = parse_config(
            "[solver]\nnum_steps = 1000\n[simulation]\nstart_time = 0.0013\n"
        )
        res = check_lognormal_moments(solve_context(cfg))
        assert res.passed, res.summary_line()

    def test_determinism_compares_every_field(self, monkeypatch):
        # two runs that differ only in the penalty estimate are not identical
        ctx = solve_context(parse_config(QUICK))
        first = checks.simulate_equilibrium_wealth(ctx.table, ctx.market,
                                                   ctx.config.simulation)
        second = replace(first, penalty=replace(first.penalty, value=first.penalty.value + 1.0))
        runs = iter((first, second))
        monkeypatch.setattr(checks, "simulate_equilibrium_wealth", lambda *args: next(runs))
        assert not checks.check_determinism(ctx).passed

    @pytest.mark.parametrize("first, second, same", [
        (float("nan"), float("nan"), True), (0.0, -0.0, False),
    ])
    def test_determinism_compares_bits(self, monkeypatch, first, second, same):
        # bitwise: two NaNs (distinct objects) are the same run, 0.0 and -0.0 are not
        ctx = solve_context(parse_config(QUICK))
        sim = checks.simulate_equilibrium_wealth(ctx.table, ctx.market, ctx.config.simulation)
        runs = iter([replace(sim, min_wealth=first), replace(sim, min_wealth=second)])
        monkeypatch.setattr(checks, "simulate_equilibrium_wealth", lambda *args: next(runs))
        assert checks.check_determinism(ctx).passed is same

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the comoments overflow
    def test_non_finite_standard_error_fails_value_verification(self, tmp_path, capsys):
        # the objective's standard error is NaN, so its z-score is too; the two
        # runs hold NaN in the same fields and are still the same run
        cfg = write(tmp_path, "c.cfg", WEALTH_1E70)
        assert main(["check", "--config", cfg]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines if "status=fail" in line] == [
            "check=value_verification"
        ]
        assert " mc_z=nan " in next(line for line in lines if "value_verification" in line)

    @pytest.mark.parametrize("measure, runs", [("distorted", 2), ("reference", 3)])
    def test_simulation_runs_per_check(self, monkeypatch, measure, runs):
        # the checks share one run; determinism makes a second, and under the
        # reference measure value_verification needs its own distorted one
        real, calls = simulate._simulate, []
        monkeypatch.setattr(simulate, "_simulate", lambda *a: calls.append(1) or real(*a))
        results = checks.run_checks(parse_config(QUICK + f"measure = {measure}\n"))
        mc = [r for r in results if r.name in ("value_verification", "moment_bound", "determinism")]
        assert len(mc) == 3 and all(r.passed for r in mc), [r.summary_line() for r in mc]
        assert len(calls) == runs

    def test_coarse_grid_fails_oracle_band(self, tmp_path, capsys):
        # RK4's own error in f is 5.8e-6 at 5 steps (4.1e-7 at 10), and the
        # extrapolated oracle is far closer to the true f than that
        cfg = write(tmp_path, "c.cfg", "[solver]\nnum_steps = 5\n[simulation]\nnum_paths = 2000\nnum_steps = 10\n")
        assert main(["check", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert "check=oracle_equivalence status=fail" in out

    def test_raised_f_node_fails_oracle(self):
        ctx = solve_context(parse_config(QUICK))
        assert checks.check_oracle_equivalence(ctx).passed
        f = ctx.table.f.copy()
        f[150] += 2e-6
        raised = replace(ctx, table=replace(ctx.table, f=f))
        assert not checks.check_oracle_equivalence(raised).passed

    @pytest.mark.parametrize("check", ["closed_form_consistency", "lognormal_moments"])
    def test_steep_config_passes_moment_quadrature(self, check):
        # plain trapezoid rules are 1.7e-6 off here, the extrapolated ones 7.6e-10
        res = getattr(checks, f"check_{check}")(solve_context(parse_config(STEEP)))
        assert res.passed and res.metrics["max_rel_err"] < 1e-8, res.summary_line()

    def test_raised_h2_node_fails_closed_form(self):
        ctx = solve_context(parse_config(STEEP))
        assert checks.check_closed_form_consistency(ctx).passed
        h2 = ctx.table.h2.copy()
        h2[1000] *= 1.0 + 1e-6
        raised = replace(ctx, table=replace(ctx.table, h2=h2))
        assert not checks.check_closed_form_consistency(raised).passed


class TestSimulateCommand:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the comoments overflow
    def test_non_finite_standard_errors_fail_their_bands(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", WEALTH_1E70)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = {row[0]: row[1:] for row in (
            line.split(",") for line in (tmp_path / "simulation.csv").read_text().splitlines())}
        # estimate, std_error, analytic, z_score, flag
        assert [(rows[q][1], *rows[q][3:]) for q in ("moment_3", "moment_4", "objective")] == [
            ("nan", "nan", "fail")] * 3
        assert rows["moment_1"][-1] == rows["moment_2"][-1] == "pass"

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


class TestTailBuilds:
    """A moment read builds its tail curves once, for all its orders."""

    @staticmethod
    def count_builds(monkeypatch, run) -> int:
        real, calls = simulate._curves, []
        monkeypatch.setattr(simulate, "_curves", lambda *a: calls.append(1) or real(*a))
        run()
        return len(calls)

    def test_check_lognormal_moments_builds_once(self, monkeypatch):
        ctx = solve_context(parse_config(QUICK))
        assert self.count_builds(monkeypatch, lambda: check_lognormal_moments(ctx)) == 1

    def test_simulate_builds_sim_grid_and_one_tail(self, monkeypatch, tmp_path):
        cfg = write(tmp_path, "c.cfg", QUICK)
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "out")]
        assert self.count_builds(monkeypatch, lambda: main(argv)) == 2


class TestMarketBuilds:
    """Load builds each market once, and every command reads what load built."""

    @pytest.mark.parametrize("command, preset, builds", [
        ("sweep", "fig01", 1),  # every cell on the base market
        ("sweep", "fig02", 7),  # the base market, then one per swept drift
        ("solve", None, 1),
        ("check", None, 1),
        ("simulate", None, 1),
    ])
    def test_builds_per_command(self, tmp_path, monkeypatch, command, preset, builds):
        text = QUICK if preset is None else preset_config(
            next(p for p in FIGURE_PRESETS if p.name == preset)).to_text()
        argv = [command, "--config", write(tmp_path, "c.cfg", text)]
        if command != "check":
            argv += ["--out", str(tmp_path / "out")]
        real, calls = config.build_market, []
        monkeypatch.setattr(config, "build_market",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        assert main(argv) == 0
        assert len(calls) == builds


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

    @pytest.mark.parametrize("market", ["", THREE_ASSET], ids=["base", "three_asset"])
    def test_row_equals_table_route_bitwise(self, market):
        # every field of an ok row is what solve_all and the policy readers give
        config = parse_config(QUICK + market + XI_R_SWEEP)
        _, rows = run_sweep(config)
        assert [row.status for row in rows] == ["ok"] * 6
        for row in rows:
            cfg = config.with_overrides(row.values)
            mkt = cfg.market_curves
            grid = mkt.grid
            model = solve_all(mkt, cfg.preferences, grid, cfg.solver.eps_den)
            w0 = cfg.simulation.start_wealth
            pol = equilibrium_policy(model.full, mkt, 0.0, w0)
            rep = value_at(model, 0.0, w0)
            one = mkt.num_assets == 1
            want = {
                "u_star": float(pol.allocation[0] if one else np.linalg.norm(pol.allocation)),
                "q_star": float(pol.distortion[0] if one else np.linalg.norm(pol.distortion)),
                "V": rep.value_full, "V_hat": rep.value_noskew,
                "V_tilde": rep.value_neutral, "V_bar": rep.value_basic,
                "V1": rep.value_mispec_u, "V2": rep.value_mispec_both,
                "L1": rep.loss_skew, "L2": rep.loss_uncertainty, "L3": rep.loss_both,
                "min_delta3": float(model.full.delta3.min()),
            }
            assert row.fields.keys() == want.keys()
            assert {k: v.hex() for k, v in row.fields.items()} == \
                {k: float(v).hex() for k, v in want.items()}, row.values

    def test_cell_outside_domain_raises_in_code(self):
        # a config built in code meets the same domain checks as a loaded one
        config = replace(parse_config(QUICK), sweep=SweepSection("gamma0", -1.0, 2.0, 4))
        with pytest.raises(ConfigError, match="gamma0 must be positive"):
            run_sweep(config)

    def test_sweep_without_section_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", QUICK)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: ConfigError: config has no [sweep] section\n"


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


def loaded_after(code: str) -> tuple[set[str], int]:
    """The scipy and ``concurrent`` modules loaded, and the threads alive,
    once ``code`` has run in a fresh interpreter."""
    probe = code + (
        "\nimport sys, threading"
        "\nprint(' '.join(m for m in sys.modules if m.startswith(('scipy', 'concurrent'))))"
        "\nprint(threading.active_count())"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    *_, modules, threads = done.stdout.splitlines()
    return set(modules.split()), int(threads)


def main_code(*argv: str) -> str:
    return f"from mvs_robust.cli import main\nassert main({list(argv)!r}) == 0"


class TestStartupImports:
    """Commands that never simulate load no scipy at all and start no thread."""

    def test_import_loads_no_scipy(self):
        assert loaded_after("import mvs_robust\nimport mvs_robust.cli") == (set(), 1)

    def test_sweep_loads_no_scipy(self, tmp_path):
        cfg = preset_config(FIGURE_PRESETS[0])
        cfg = replace(cfg, sweep=replace(cfg.sweep, count=2, count2=1))
        path = write(tmp_path, "sweep.cfg", cfg.to_text())
        code = main_code("sweep", "--config", path, "--out", str(tmp_path))
        assert loaded_after(code) == (set(), 1)
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 3

    def test_simulate_loads_special_only(self, tmp_path):
        path = write(tmp_path, "c.cfg", QUICK)
        loaded, threads = loaded_after(main_code("simulate", "--config", path, "--out", str(tmp_path)))
        assert "scipy.special" in loaded
        assert not any(m.startswith("scipy.interpolate") for m in loaded)
        assert threads == 1  # the normals' threads end with each simulation
