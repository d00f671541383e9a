import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvs_robust import ConfigError, NonPositiveHorizon, SingularGram
from mvs_robust.checks import run_checks
from mvs_robust.config import RunConfig, SolverSection, SweepSection, parse_config
from mvs_robust.market import Preferences
from mvs_robust.simulate import Scheme, SimConfig
from mvs_robust.presets import FIGURE_PRESETS, preset_config
from mvs_robust.sweep import run_sweep


BASE_TEXT = """
[market]
T = 5.0
r = 0.05
mu = 0.15
sigma = 0.25

[preferences]
gamma0 = 2.0
phi0 = 0.5
xi = 1.0
"""


class TestParsing:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.market.T == 5.0
        assert cfg.market.mu == (0.15,)
        assert cfg.preferences.gamma0 == 2.0
        assert cfg.solver.num_steps == 2000
        assert cfg.simulation.num_paths == 100_000
        assert cfg.sweep is None
        assert cfg == RunConfig()

    def test_sections_are_the_library_objects(self):
        cfg = parse_config("[simulation]\nscheme = euler\n")
        assert cfg.preferences == Preferences(2.0, 0.5, 1.0)
        assert cfg.simulation == SimConfig(seed=42, scheme=Scheme.EULER_MARUYAMA)
        assert cfg.build_preferences() is cfg.preferences
        assert cfg.market_curves is cfg.market_curves  # built once

    def test_round_trip(self):
        cfg = parse_config(BASE_TEXT)
        again = parse_config(cfg.to_text())
        assert again == cfg

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[portfolio]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[market]\nT = 5\nvol = 0.2\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config("[market]\nT = five\n")

    def test_multi_asset_lists(self):
        cfg = parse_config(
            "[market]\nmu = 0.15, 0.10\nsigma = 0.25, 0.20\n"
        )
        market = cfg.market_curves
        assert market.num_assets == 2
        np.testing.assert_allclose(market.gram_at(0.0), np.diag([0.0625, 0.04]))

    def test_volatility_matrix_rows(self):
        cfg = parse_config(
            "[market]\nmu = 0.15, 0.10\nsigma = 0.25, 0.0; 0.05, 0.20\n"
        )
        market = cfg.market_curves
        sig = market.volatility_at(0.0)
        np.testing.assert_allclose(sig, [[0.25, 0.0], [0.05, 0.20]])

    def test_malformed_text_rejected(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("not a config at all\n")

    def test_readme_example_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"## Configuration format.*?```ini\n(.*?)```", readme, re.S).group(1)
        cfg = parse_config(block)
        sweep = SweepSection(param="xi", min=0.5, max=3.0, count=11)
        assert cfg == replace(RunConfig(), sweep=sweep)


# ``to_text`` bytes are recorded in run.meta, so they are pinned here.
FIG01_TEXT = (
    "[market]\nT = 5\nr = 0.050000000000000003\nmu = 0.14999999999999999\n"
    "sigma = 0.25\n\n"
    "[preferences]\ngamma0 = 2\nphi0 = 0.5\nxi = 1\n\n"
    "[solver]\nnum_steps = 2000\npicard_tol = 1e-10\npicard_max_iter = 500\n"
    "eps_den = 9.9999999999999998e-13\n\n"
    "[simulation]\nnum_paths = 100000\nseed = 42\nscheme = exact\n"
    "measure = distorted\nstart_time = 0\nstart_wealth = 4\nnum_steps = 200\n\n"
    "[sweep]\nparam = w0\nmin = 2\nmax = 6\ncount = 5\n"
    "param2 = xi\nmin2 = 0.5\nmax2 = 3\ncount2 = 11\n"
)
THREE_ASSET_MARKET_TEXT = (
    "[market]\nT = 5\nr = 0.050000000000000003\n"
    "mu = 0.12, 0.14999999999999999, 0.17999999999999999\n"
    "sigma = 0.20000000000000001, 0, 0; 0.059999999999999998, 0.22, 0; "
    "0.040000000000000001, 0.050000000000000003, 0.25\n"
)


class TestToText:
    def test_preset_bytes(self):
        fig01 = next(p for p in FIGURE_PRESETS if p.name == "fig01")
        assert preset_config(fig01).to_text() == FIG01_TEXT

    def test_matrix_bytes(self):
        cfg = parse_config(
            "[market]\nmu = 0.12, 0.15, 0.18\n"
            "sigma = 0.2, 0, 0; 0.06, 0.22, 0; 0.04, 0.05, 0.25\n"
        )
        # the other sections are the defaults, written as in FIG01_TEXT
        rest = FIG01_TEXT[FIG01_TEXT.index("\n[preferences]"):FIG01_TEXT.index("\n[sweep]")]
        assert cfg.to_text() == THREE_ASSET_MARKET_TEXT + rest


class TestValidation:
    def test_zero_horizon(self):
        with pytest.raises(NonPositiveHorizon):
            parse_config("[market]\nT = 0.0\n")

    def test_zero_volatility(self):
        with pytest.raises(SingularGram):
            parse_config("[market]\nsigma = 0\n")

    def test_bad_gamma0(self):
        with pytest.raises(ConfigError):
            parse_config("[preferences]\ngamma0 = -1\n")

    def test_bad_scheme(self):
        with pytest.raises(ConfigError, match="scheme"):
            parse_config("[simulation]\nscheme = quantum\n")

    def test_bad_eps_den(self):
        with pytest.raises(ConfigError, match="eps_den"):
            parse_config("[solver]\neps_den = 0\n")

    @pytest.mark.parametrize("text", [
        "[simulation]\nstart_wealth = nan\n",
        "[solver]\neps_den = nan\n",
        "[solver]\npicard_tol = inf\n",
        "[market]\nr = -inf\n",
        "[market]\nmu = 0.15, nan\nsigma = 0.25, 0.2\n",
        "[sweep]\nparam = xi\nmin = nan\nmax = 3\ncount = 2\n",
        "[market]\nT = 1.0\n[simulation]\nstart_time = 1.0\n",
        "[simulation]\nstart_time = 7.5\n",
        "[simulation]\nstart_time = -0.25\n",
        "[market]\nmu = 0.15, 0.10\nsigma = 0.2; 0.1, 0.3\n",
        "[DEFAULT]\nT = 3\n",
        "[sweep]\nparam = xi\nmin = 0.5\nmax = 1\ncount = 2\n"
        "param2 = xi\nmin2 = 2\nmax2 = 3\ncount2 = 2\n",
        "[sweep]\nparam = xi\nmin = 0.5\nmax = 3\ncount = 2\nmin2 = 7\n",
        "[sweep]\nparam = xi\nmin = 0.5\nmax = 3\ncount = 2\ncount2 = 3\n",
        "[sweep]\nparam = xi\nmin = 0.5\nmax = 3\ncount = 2\nparam2 = w0\n",
        "[sweep]\nparam = xi\nmin = 0.5\nmax = 3\ncount = 2\n"
        "param2 = w0\nmin2 = 2\nmax2 = 6\n",
        "[solver]\npicard_tol = 0\n",
        "[solver]\npicard_max_iter = 0\n",
        "[sweep]\nparam = xi\nmin = 0.5\nmax = 3\ncount = 0\n",
        "[sweep]\nparam = xi\nmin = 0.5\nmax = 3\ncount = 2\n"
        "param2 = w0\nmin2 = 2\nmax2 = 6\ncount2 = 0\n",
        "[simulation]\nseed = -1\n",
        "[solver]\nnum_steps = 500001\n",
        "[simulation]\nnum_steps = 20001\n",
        "[simulation]\nnum_paths = 5000000001\n",
        "[sweep]\nparam = xi\nmin = 0.5\nmax = 3\ncount = 41\n"
        "param2 = w0\nmin2 = 2\nmax2 = 6\ncount2 = 49\n",
        "[market]\nmu = 1e300\n",
        "[market]\nmu = 1e160\n",
        "[market]\nr = -1e300\n",
        "[market]\nsigma = 1e-160\n",
        "[market]\nsigma = 1e200\n",
        "[market]\nmu = 1e300, 0.1\nsigma = 0.25, 0.2\n",
    ])
    def test_rejected_at_load(self, text):
        # non-finite numbers, start times outside [0, T), ragged matrices,
        # a [DEFAULT] section (configparser would merge it into every
        # section), a sweep axis given twice (the cell would keep only
        # the second value), a second axis given in part (the sweep
        # would run on one axis), Picard settings that allow no
        # iteration, empty sweep axes, a negative seed, a run past one of
        # load's size caps and a market whose excess return, Gram matrix or
        # theta overflows never reach a solver
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize("key", ["picard_tol", "eps_den"])
    def test_nan_solver_setting_built_in_code(self, key):
        # the parser refuses ``nan`` itself; a config built in code meets validate
        cfg = RunConfig(solver=SolverSection(**{key: float("nan")}))
        with pytest.raises(ConfigError, match=f"^{key} must be positive, got nan$"):
            cfg.validate()

    @pytest.mark.parametrize("run", [run_sweep, run_checks], ids=["run_sweep", "run_checks"])
    @pytest.mark.parametrize("eps_den", [float("nan"), 0.0, -1.0])
    def test_run_sweep_validates_a_config_built_in_code(self, eps_den, run):
        # load's text and class, not integrate_lanes' bare ValueError
        cfg = RunConfig(solver=SolverSection(eps_den=eps_den),
                        sweep=SweepSection("xi", 0.5, 1.0, 2))
        with pytest.raises(ConfigError, match=f"^eps_den must be positive, got {eps_den}$"):
            run(cfg)

    def test_run_sweep_without_sweep_section(self):
        with pytest.raises(ConfigError, match=r"^config has no \[sweep\] section$"):
            run_sweep(RunConfig())

    def test_many_markets_at_max_steps_load_in_little_memory(self):
        # 2,000 markets of 500,001 nodes share one grid: 4 MB of nodes, not 8 GB
        text = ("[solver]\nnum_steps = 500000\n"
                "[sweep]\nparam = mu\nmin = 0.05\nmax = 0.25\ncount = 2000\n")
        tracemalloc.start()
        try:
            markets, cells = parse_config(text).cells
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(markets) == len(cells) == 2000
        assert all(m.grid.nodes is markets[0].grid.nodes for m in markets)
        assert peak < 16e6, peak

    def test_w0_axis_past_fourth_power_overflow(self):
        # every cell's SimConfig checks its start wealth at load
        with pytest.raises(ConfigError, match=r"below 1\.1579e\+77, got 2e\+77$"):
            parse_config("[sweep]\nparam = w0\nmin = 1\nmax = 2e77\ncount = 2\n")

    def test_empty_drift_rejected(self):
        with pytest.raises(ConfigError, match="drift has no asset"):
            parse_config("[market]\nmu =\n")


class TestSweepSection:
    def test_parse_one_parameter(self):
        cfg = parse_config("[sweep]\nparam = xi\nmin = 0.5\nmax = 3\ncount = 6\n")
        assert cfg.sweep == SweepSection(param="xi", min=0.5, max=3.0, count=6)

    def test_parse_two_parameters(self):
        cfg = parse_config(
            "[sweep]\nparam = w0\nmin = 2\nmax = 6\ncount = 5\n"
            "param2 = xi\nmin2 = 0.5\nmax2 = 3\ncount2 = 11\n"
        )
        assert cfg.sweep.param2 == "xi"
        assert cfg.sweep.count2 == 11

    def test_missing_bounds_rejected(self):
        with pytest.raises(ConfigError, match="requires"):
            parse_config("[sweep]\nparam = xi\n")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError, match="not in"):
            parse_config("[sweep]\nparam = horizon\nmin = 1\nmax = 2\ncount = 2\n")

    def test_multi_asset_mu_sweep_rejected(self):
        with pytest.raises(ConfigError, match="single risky asset"):
            parse_config(
                "[market]\nmu = 0.15, 0.10\nsigma = 0.25, 0.20\n"
                "[sweep]\nparam = mu\nmin = 0.1\nmax = 0.2\ncount = 3\n"
            )


class TestOverrides:
    def test_each_parameter_lands(self):
        cfg = RunConfig()
        c2 = cfg.with_overrides(
            {"w0": 5.0, "xi": 2.0, "gamma0": 3.0, "phi0": 0.25, "mu": 0.12, "sigma": 0.3, "r": 0.04}
        )
        assert c2.simulation.start_wealth == 5.0
        assert c2.preferences.xi == 2.0
        assert c2.preferences.gamma0 == 3.0
        assert c2.preferences.phi0 == 0.25
        assert c2.market.mu == (0.12,)
        assert c2.market.sigma == ((0.3,),)
        assert c2.market.r == 0.04
        # original untouched
        assert cfg.preferences.xi == 1.0

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig().with_overrides({"horizon": 2.0})


# Values a config file may hold: finite, non-finite, negative, empty,
# multi-valued and ragged numbers, and the words the string keys accept
# (each drawn for the keys of its kind, so that a bad value is seldom
# hidden behind a word in a numeric key).
_NUMBERS = (
    "0", "1", "-1", "2", "0.25", "-0.3", "1e-12", "5", "4000", "nan", "inf",
    "-inf", "", "0.1, 0.2", "0.15, 0.1, 0.2", "0.2; 0.1, 0.3", "0.2, 0; 0.1",
    "0.25, 0; 0.05, 0.2", ";",
)
_WORDS = ("xi", "w0", "mu", "sigma", "exact", "euler", "distorted", "reference", "", "1")
_KEYS = {
    "DEFAULT": ("T", "gamma0", "bogus"),
    "market": ("T", "r", "mu", "sigma"),
    "preferences": ("gamma0", "phi0", "xi"),
    "solver": ("num_steps", "picard_tol", "picard_max_iter", "eps_den"),
    "simulation": ("num_paths", "seed", "scheme", "measure", "start_time",
                   "start_wealth", "num_steps"),
    "sweep": ("param", "min", "max", "count", "param2", "min2", "max2", "count2"),
}
_WORD_KEYS = {"scheme", "measure", "param", "param2"}


@st.composite
def _config_text(draw):
    lines = []
    for section in draw(st.lists(st.sampled_from(sorted(_KEYS)), unique=True, max_size=3)):
        lines.append(f"[{section}]")
        for key in draw(st.lists(st.sampled_from(_KEYS[section]), unique=True, max_size=3)):
            value = draw(st.sampled_from(_WORDS if key in _WORD_KEYS else _NUMBERS))
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)  # the same draws every run
@given(_config_text())
@example("[market]\nsigma = 0.2; 0.1, 0.3\n")  # ragged matrix rows
@example("[sweep]\nparam = xi\nmin = 0.5\nmax = 3\ncount = 2\nmin2 = 7\n")  # no param2
def test_any_config_text_loads_or_raises_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    # what loads is written back exactly, and the text is a fixed point
    again = parse_config(cfg.to_text())
    assert again == cfg
    assert again.to_text() == cfg.to_text()
