"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE <id> <name>: PASS|FAIL`` line.
Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 10 is split: the monotonicity suite passes, while the sign
clause for the allocation gap against the basic (ambiguity-neutral,
no-skewness) strategy under the lowered drift asserts the documented
expectation and fails, because the implemented strategy formulas make
that gap negative: the robust allocation carries a 1/(xi+1) factor the
basic allocation lacks, which dominates the small skewness boost for
every xi in the stated range (see the gap values in the test output).
"""

import time

import numpy as np
import pytest

from mvs_robust import (
    DegenerateDenominator,
    MispecKind,
    ModelVariant,
    NonFiniteState,
    Preferences,
    SimConfig,
    build_market,
    delta3_scan,
    equilibrium_policy,
    integrate_lanes,
    lognormal_moments,
    moment_bound_check,
    simulate_equilibrium_wealth,
    solve_f_picard,
    solve_system,
    verify_value,
)
from mvs_robust.cli import main
from mvs_robust.policy import bracket, policy_point
from mvs_robust.presets import FIGURE_PRESETS, preset_config
from mvs_robust.solver import LanePlan

from conftest import BASE, make_market

DRAW_SEED = 20260809
MC_PATHS = 100_000
MC_SEED = 42


def report(num: str, name: str, ok: bool, detail: str = "", started: float | None = None):
    took = f" ({time.perf_counter() - started:.2f}s)" if started is not None else ""
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}{took}")
    assert ok, f"{name}: {detail}"


def _solvable_draws(count=20, seed=DRAW_SEED, max_attempts=100):
    """Random parameter draws restricted to the solvable region.

    Draws where the backward system degenerates inside the horizon
    (the ratio denominator would cross zero) are rejected and redrawn;
    the sequence is fully determined by the seed.
    """
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < max_attempts:
        attempts += 1
        gamma0 = rng.uniform(0.5, 5.0)
        phi0 = rng.uniform(0.0, 1.0)
        xi = rng.uniform(0.0, 3.0)
        theta = rng.uniform(0.0, 0.5)
        mu = BASE["r"] + BASE["sigma"] * np.sqrt(theta)
        market = build_market(BASE["T"], BASE["r"], mu, BASE["sigma"], num_steps=2000)
        prefs = Preferences(gamma0, phi0, xi)
        try:
            table = solve_system(market, prefs, market.grid)
        except (DegenerateDenominator, NonFiniteState):
            continue
        out.append((market, prefs, market.grid, table))
    assert len(out) == count, f"only {len(out)} solvable draws in {attempts} attempts"
    return out, attempts


@pytest.fixture(scope="module")
def draws():
    return _solvable_draws()[0]


def test_acceptance_01_terminal_exactness(draws):
    t0 = time.perf_counter()
    bad = []
    for _, prefs, _, table in draws:
        if table.f[-1] != 1.0 / prefs.gamma0:
            bad.append(("f", prefs.gamma0))
        for name in ("h1", "h2", "h3", "g1"):
            if getattr(table, name)[-1] != 1.0:
                bad.append((name, prefs.gamma0))
    report("01", "terminal_exactness", not bad,
           f"20 draws, terminal values exact; violations={bad}", t0)


def test_acceptance_02_oracle_equivalence(draws, base_market, base_prefs, base_grid, base_table):
    t0 = time.perf_counter()
    f_pic = solve_f_picard(base_market, base_prefs, base_grid)
    worst = float(np.max(np.abs(base_table.f - f_pic)))
    for market, prefs, grid, table in draws:
        f_pic = solve_f_picard(market, prefs, grid)
        worst = max(worst, float(np.max(np.abs(table.f - f_pic))))
    report("02", "oracle_equivalence", worst < 1e-6,
           f"sup|f_rk4 - f_fixed_point| = {worst:.3e} < 1e-06 (base + 20 draws)", t0)


def test_acceptance_03_closed_form_consistency(base_table, base_market, base_grid):
    t0 = time.perf_counter()
    dt = base_grid.dt
    r = base_market.risk_free_nodes
    th = base_market.theta_nodes
    c = 1.0 / (base_table.xi + 1.0) ** 2
    f = base_table.f

    def revcum(g):
        inc = 0.5 * dt * (g[:-1] + g[1:])
        out = np.empty_like(g)
        out[-1] = 0.0
        out[:-1] = np.cumsum(inc[::-1])[::-1]
        return out

    worst = max(
        float(np.max(np.abs(np.exp(revcum(r + th * f * c)) / base_table.g1 - 1))),
        float(np.max(np.abs(np.exp(revcum(2 * r + (2 * th * f + th * f * f) * c)) / base_table.h2 - 1))),
        float(np.max(np.abs(np.exp(revcum(3 * (r + (th * f + th * f * f) * c))) / base_table.h3 - 1))),
    )
    report("03", "closed_form_consistency", worst < 1e-7,
           f"max relative reconstruction error = {worst:.3e} < 1e-07", t0)


def test_acceptance_04_degenerate_market(base_grid, base_prefs):
    t0 = time.perf_counter()
    market = make_market(mu=BASE["r"])
    table = solve_system(market, base_prefs, base_grid)
    exact = np.exp(-BASE["r"] * (BASE["T"] - base_grid.nodes)) / base_prefs.gamma0
    worst = float(np.max(np.abs(table.f - exact)))
    report("04", "degenerate_market", worst < 1e-8,
           f"max|f - exp(-r(T-t))/gamma0| = {worst:.3e} < 1e-08", t0)


def test_acceptance_05_variant_limits(base_market, base_grid):
    t0 = time.perf_counter()
    eps = solve_system(base_market, Preferences(2.0, 0.5, 1e-8), base_grid, ModelVariant.FULL)
    neutral = solve_system(base_market, Preferences(2.0, 0.5, 0.0), base_grid, ModelVariant.AMBIGUITY_NEUTRAL)
    gap_xi = float(np.max(np.abs(eps.f - neutral.f)))
    full0 = solve_system(base_market, Preferences(2.0, 0.0, 1.0), base_grid, ModelVariant.FULL)
    hat = solve_system(base_market, Preferences(2.0, 0.0, 1.0), base_grid, ModelVariant.NO_SKEW)
    gap_phi = float(np.max(np.abs(full0.f - hat.f)))
    report("05", "variant_limits", gap_xi < 1e-5 and gap_phi < 1e-10,
           f"xi->0 gap = {gap_xi:.3e} < 1e-05; phi0=0 gap = {gap_phi:.3e} < 1e-10", t0)


def test_acceptance_06_h2_equals_k1(tmp_path):
    # the contract users read: every solve CSV writes k1 as the same string as h2
    t0 = time.perf_counter()
    header = "t,f,h1,h2,h3,g1,k1,delta3"
    three_asset = (
        "[market]\nmu = 0.12, 0.15, 0.18\n"
        "sigma = 0.20, 0, 0; 0.06, 0.22, 0; 0.04, 0.05, 0.25\n"
    )
    files, rows, bad = 0, 0, []
    for name, text in (("base", ""), ("three-asset", three_asset)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        argv = ["solve", "--config", str(cfg), "--out", str(tmp_path / name),
                "--variants", "full,neutral,noskew,basic"]
        assert main(argv) == 0
        for csv in sorted((tmp_path / name).glob("coefficients_*.csv")):
            head, *body = csv.read_text().splitlines()
            files, rows = files + 1, rows + len(body)
            fields = [line.split(",") for line in body]
            if head != header or any(row[6] != row[3] for row in fields):
                bad.append(f"{name}/{csv.name}")
    report("06", "h2_equals_k1", files == 8 and not bad,
           f"k1 field == h2 field in {rows} rows of {files} solve CSVs, header {header}; "
           f"violations={bad}", t0)


def test_acceptance_07_lognormal_oracle(base_table):
    t0 = time.perf_counter()
    w = BASE["w0"]
    targets = {
        1: base_table.g1[0] * w,
        2: base_table.h2[0] * w ** 2,
        3: base_table.h3[0] * w ** 3,
    }
    analytic = lognormal_moments(base_table, 0.0, w, (1, 2, 3))
    analytic_worst = max(abs(analytic[n - 1] / targets[n] - 1.0) for n in (1, 2, 3))
    cfg = SimConfig(num_paths=MC_PATHS, seed=MC_SEED, start_wealth=w)
    res = simulate_equilibrium_wealth(base_table, cfg)
    zs = [
        abs(res.moments[n - 1].value - targets[n]) / res.moments[n - 1].std_error
        for n in (1, 2)
    ]
    ok = analytic_worst < 1e-7 and all(z <= 3.0 for z in zs)
    report("07", "lognormal_oracle", ok,
           f"analytic rel err = {analytic_worst:.3e} < 1e-07; MC z-scores = "
           f"({zs[0]:.2f}, {zs[1]:.2f}) <= 3", t0)


def test_acceptance_08_value_verification(base_table):
    t0 = time.perf_counter()
    cfg = SimConfig(num_paths=MC_PATHS, seed=MC_SEED)
    res = verify_value(base_table, 0.0, BASE["w0"], cfg)
    ok = res.analytic_rel_err < 1e-6 and abs(res.mc_z) <= 3.0
    report("08", "value_verification", ok,
           f"V(0,4) = {res.value:.6f}; analytic rel err = {res.analytic_rel_err:.3e} "
           f"< 1e-06; MC z = {res.mc_z:.2f}", t0)


def test_acceptance_09_delta3_positivity(base_model):
    t0 = time.perf_counter()
    # each distinct FULL system of every preset's cells is one lane of a
    # single batch; its running minimum of the denominator is the grid
    # minimum of delta3
    plan, markets, lanes = LanePlan(), [], {}
    grid = base_model.full.grid
    for preset in FIGURE_PRESETS:
        cell_markets, cells = preset_config(preset).cells
        assert all(market.grid == grid for market in cell_markets)
        for i, cell in enumerate(cells):
            lanes[preset.name, i] = plan.add_variant(
                len(markets) + cell.market, cell.prefs, ModelVariant.FULL
            )
        markets += cell_markets
    results = integrate_lanes(plan.lanes, markets, grid)
    worst = delta3_scan(base_model.full).min_value
    bad = []
    for key, lane in lanes.items():
        res = results[lane]
        if res.error in (DegenerateDenominator, NonFiniteState):
            bad.append((key, res.error.__name__))
            continue
        min_delta3 = res.check().den_min
        worst = min(worst, min_delta3)
        if not min_delta3 > 0.0:
            bad.append((key, min_delta3))
    report("09", "delta3_positivity", not bad and worst > 0.0,
           f"{len(lanes)} cells of {len(FIGURE_PRESETS)} presets, {len(plan.lanes)} lanes; "
           f"min delta3 = {worst:.4f}; violations={bad}", t0)


def _u_star(market, prefs, grid, w0, variant=ModelVariant.FULL):
    table = solve_system(market, prefs, grid, variant)
    return equilibrium_policy(table, 0.0, w0).allocation[0]


def _strictly(seq, direction):
    pairs = zip(seq, seq[1:])
    return all(b < a for a, b in pairs) if direction == "down" else all(b > a for a, b in pairs)


def test_acceptance_10_figure_monotonicity(base_grid):
    t0 = time.perf_counter()
    failures = []
    grid = base_grid
    w0 = BASE["w0"]

    # Every solve below is one lane of a single batch: a lane is a
    # (market index, lane index) pair, read after the one integration at
    # node 0 as the sweep reads it (policy_point, bracket).
    plan, markets = LanePlan(), []

    def market(**kwargs):
        markets.append(make_market(**kwargs))
        return len(markets) - 1

    def lane(mk, prefs, variant=ModelVariant.FULL):
        return mk, plan.add_variant(mk, prefs, variant)

    def mispec(mk, prefs, kind):
        return mk, plan.add_mispec(mk, prefs, kind)

    base_m = market()
    xi_lanes = [lane(base_m, Preferences(2.0, 0.5, x)) for x in np.linspace(0.5, 3, 20)]
    gamma_lanes = [(g, lane(base_m, Preferences(g, 0.5, 1.0))) for g in np.linspace(1.0, 4.0, 20)]
    mu_lanes = [
        lane(market(mu=m), Preferences(2.0, 0.5, 1.0)) for m in np.linspace(0.10, 0.20, 20)
    ]
    w_lane = lane(base_m, Preferences(2.0, 0.5, 1.0))

    def skew_pair(mk, pf):
        return lane(mk, pf), lane(mk, pf, ModelVariant.NO_SKEW)

    xi_gaps = [(x, skew_pair(base_m, Preferences(2.0, 0.5, x))) for x in np.linspace(1.0, 3.0, 9)]
    mu_gamma_gaps = []
    for m in np.linspace(0.10, 0.20, 6):
        mk = market(mu=m)
        for g in np.linspace(1.5, 4.0, 6):
            mu_gamma_gaps.append((m, g, skew_pair(mk, Preferences(g, 0.5, 1.0))))

    l1_xi = [skew_pair(base_m, Preferences(2.0, 0.5, x)) for x in np.linspace(0.5, 3, 8)]
    l1_sigma = [
        skew_pair(market(sigma=s), Preferences(2.0, 0.5, 1.0)) for s in np.linspace(0.16, 0.35, 8)
    ]
    l1_mu = [
        skew_pair(market(mu=m), Preferences(2.0, 0.5, 1.0)) for m in np.linspace(0.10, 0.20, 8)
    ]
    l1_phi0 = [skew_pair(base_m, Preferences(2.0, p, 1.0)) for p in np.linspace(0.1, 1.0, 8)]

    low_m = market(mu=0.10)
    low_lanes = []
    for x in np.linspace(0.5, 3.0, 8):
        pf = Preferences(2.0, 0.5, x)
        low_lanes.append((
            lane(low_m, pf),
            mispec(low_m, pf, MispecKind.IGNORE_UNCERTAINTY),
            mispec(low_m, pf, MispecKind.IGNORE_BOTH),
        ))

    results = integrate_lanes(plan.lanes, markets, grid)

    def u_star(entry, w=w0):
        mk, i = entry
        res, ln = results[i].check(), plan.lanes[i]
        coefficients = (res.ratio0, *res.state0)
        return policy_point(markets[mk], 0.0, w, ln.gamma0, ln.phi0, ln.xi, coefficients).allocation[0]

    def value0(entry):
        res, ln = results[entry[1]].check(), plan.lanes[entry[1]]
        return bracket(ln.gamma0, ln.phi0, *res.state0)

    # allocation monotone in xi, gamma0, mu, w0
    us = [u_star(e) for e in xi_lanes]
    if not _strictly(us, "down"):
        failures.append("u* not strictly decreasing in xi")

    us, degenerate = [], []
    for g, e in gamma_lanes:
        error = results[e[1]].error
        if error is not None and issubclass(error, DegenerateDenominator):
            degenerate.append(round(float(g), 6))
        else:
            us.append(u_star(e))
    if degenerate != [1.0]:
        failures.append(f"unexpected degenerate gamma0 cells {degenerate}")
    if not _strictly(us, "down"):
        failures.append("u* not strictly decreasing in gamma0 over solved cells")

    us = [u_star(e) for e in mu_lanes]
    if not _strictly(us, "up"):
        failures.append("u* not strictly increasing in mu")

    us = [u_star(w_lane, w) for w in np.linspace(1, 10, 20)]
    if not _strictly(us, "up"):
        failures.append("u* not strictly increasing in w0")

    # allocation gap to the no-skew strategy positive on both grids
    for x, (full, noskew) in xi_gaps:
        if u_star(full) - u_star(noskew) <= 0:
            failures.append(f"skew gap nonpositive at xi={x:.2f}")
    for m, g, (full, noskew) in mu_gamma_gaps:
        if u_star(full) - u_star(noskew) <= 0:
            failures.append(f"skew gap nonpositive at mu={m:.2f}, gamma0={g:.2f}")

    # skewness loss monotone in xi (down), sigma (down), mu (up), phi0 (up)
    def loss_skew(pairs):
        return [1.0 - value0(noskew) / value0(full) for full, noskew in pairs]

    if not _strictly(loss_skew(l1_xi), "down"):
        failures.append("L1 not decreasing in xi")
    if not _strictly(loss_skew(l1_sigma), "down"):
        failures.append("L1 not decreasing in sigma")
    if not _strictly(loss_skew(l1_mu), "up"):
        failures.append("L1 not increasing in mu")
    if not _strictly(loss_skew(l1_phi0), "up"):
        failures.append("L1 not increasing in phi0")

    # lowered drift: uncertainty and combined losses vs xi
    l2s, l3s = [], []
    for full, mis_u, mis_both in low_lanes:
        v = value0(full)
        l2s.append(1.0 - value0(mis_u) / v)
        l3s.append(1.0 - value0(mis_both) / v)
    if not (all(v > 0 for v in l2s) and _strictly(l2s, "up")):
        failures.append(f"L2 not positive/increasing in xi: {np.round(l2s, 5)}")
    if not (all(v > 0 for v in l3s) and _strictly(l3s, "up")):
        failures.append(f"L3 not positive/increasing in xi: {np.round(l3s, 5)}")

    report("10", "figure_monotonicity", not failures, f"failures={failures}", t0)


def test_acceptance_10b_strategy_gap_vs_basic_sign(base_grid):
    t0 = time.perf_counter()
    low_m = make_market(mu=0.10)
    basic_u = _u_star(low_m, Preferences(2.0, 0.5, 0.5), base_grid, BASE["w0"], ModelVariant.BASIC)
    gaps = [
        _u_star(low_m, Preferences(2.0, 0.5, x), base_grid, BASE["w0"]) - basic_u
        for x in np.linspace(0.5, 3.0, 8)
    ]
    decreasing = _strictly(gaps, "down")
    positive = all(g > 0 for g in gaps)
    report(
        "10b", "strategy_gap_vs_basic_sign", decreasing and positive,
        f"documented expectation: gap positive and decreasing in xi; computed gaps = "
        f"{np.round(gaps, 4).tolist()} (decreasing={decreasing}, positive={positive}; "
        f"the robust allocation is scaled by 1/(xi+1) while the basic one is not, so "
        f"the gap is negative at these parameters)", t0,
    )


def test_acceptance_11_moment_bound(base_table):
    t0 = time.perf_counter()
    cfg = SimConfig(num_paths=MC_PATHS, seed=MC_SEED)
    res = moment_bound_check(base_table, cfg)
    ok = res.finite and res.consistent and res.analytic_argmax_time == pytest.approx(BASE["T"])
    report("11", "moment_bound", ok,
           f"analytic sup = {res.analytic_sup:.2f} (attained at t = "
           f"{res.analytic_argmax_time}); MC/analytic ratio = {res.ratio:.4f} in [0.8, 1.25]", t0)


def test_acceptance_12_determinism(tmp_path):
    t0 = time.perf_counter()
    sweep_text = "[sweep]\nparam = xi\nmin = {}\nmax = {}\ncount = {}\n"
    base_text = (
        "[solver]\nnum_steps = 300\n"
        "[simulation]\nnum_paths = 4000\nnum_steps = 50\nseed = 42\n"
    )
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(base_text + sweep_text.format(0.5, 2.0, 3))

    def sweep(path, out):
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        return (out / "sweep.csv").read_bytes()

    outs = [sweep(cfg_path, tmp_path / f"run{i}") for i in range(2)]
    # each cell swept alone, in a batch of its own, gives the same row bytes
    rows = outs[0].splitlines()
    alone = []
    for i, xi in enumerate(np.linspace(0.5, 2.0, 3)):
        path = tmp_path / f"cell{i}.cfg"
        path.write_text(base_text + sweep_text.format(repr(float(xi)), repr(float(xi)), 1))
        alone.append(sweep(path, tmp_path / f"cell{i}").splitlines()[1] == rows[1 + i])
    sweeps_equal = outs[0] == outs[1] and all(alone)

    sims = []
    for i in range(2):
        out = tmp_path / f"sim{i}"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        sims.append((out / "simulation.csv").read_bytes())
    report("12", "determinism", sweeps_equal and sims[0] == sims[1],
           "byte-identical sweep CSV across repeated runs and batch compositions "
           "(each cell alone) and repeated simulate runs", t0)
