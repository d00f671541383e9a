import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvs_robust import ConfigError, NonPositiveHorizon, SingularGram
from mvs_robust.config import RunConfig, SweepSection, parse_config


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
        market = cfg.build_market()
        assert market.num_assets == 2
        np.testing.assert_allclose(market.gram_at(0.0), np.diag([0.0625, 0.04]))

    def test_volatility_matrix_rows(self):
        cfg = parse_config(
            "[market]\nmu = 0.15, 0.10\nsigma = 0.25, 0.0; 0.05, 0.20\n"
        )
        market = cfg.build_market()
        sig = market.volatility_at(0.0)
        np.testing.assert_allclose(sig, [[0.25, 0.0], [0.05, 0.20]])

    def test_malformed_text_rejected(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("not a config at all\n")


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
    ])
    def test_rejected_at_load(self, text):
        # non-finite numbers, start times outside [0, T) and ragged
        # matrices never reach a solver
        with pytest.raises(ConfigError):
            parse_config(text)


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


@settings(max_examples=300, deadline=None)
@given(_config_text())
@example("[market]\nsigma = 0.2; 0.1, 0.3\n")  # ragged matrix rows
def test_any_config_text_loads_or_raises_config_error(text):
    try:
        parse_config(text)
    except ConfigError:
        pass
