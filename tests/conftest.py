import pytest

from mvs_robust import (
    Preferences,
    SimConfig,
    TimeGrid,
    build_market,
    solve_all,
    solve_system,
)

# Base experiment parameters: five-year horizon, one risky asset.
BASE = dict(T=5.0, r=0.05, mu=0.15, sigma=0.25, gamma0=2.0, phi0=0.5, xi=1.0, w0=4.0)


@pytest.fixture(scope="session")
def base_grid():
    return TimeGrid(BASE["T"], 2000)


@pytest.fixture(scope="session")
def base_market(base_grid):
    return build_market(BASE["T"], BASE["r"], BASE["mu"], BASE["sigma"],
                        num_steps=base_grid.num_steps)


@pytest.fixture(scope="session")
def base_prefs():
    return Preferences(gamma0=BASE["gamma0"], phi0=BASE["phi0"], xi=BASE["xi"])


@pytest.fixture(scope="session")
def base_table(base_market, base_prefs, base_grid):
    return solve_system(base_market, base_prefs, base_grid)


@pytest.fixture(scope="session")
def base_model(base_market, base_prefs, base_grid):
    return solve_all(base_market, base_prefs, base_grid)


@pytest.fixture(scope="session")
def quick_sim():
    return SimConfig(num_paths=20_000, seed=42, num_steps=100)


def make_market(mu=BASE["mu"], sigma=BASE["sigma"], r=BASE["r"], T=BASE["T"], num_steps=2000):
    return build_market(T, r, mu, sigma, num_steps=num_steps)
