"""End-to-end acceptance gates.

One test per headline guarantee, each printing a [criterion-N] PASS/FAIL
line with the measured quantities next to the stated tolerance.  These run
the public API the way the experiment scripts do: population tables where a
guarantee is exact, synthetic samples where it is statistical.
"""

import json
import os
import time
from dataclasses import replace

import numpy as np

from roybounds import (
    DgpSpec,
    EvaluationGrid,
    ObservationSample,
    ZLaw,
    conditional_mean,
    cost_bounds_pf,
    crossing_test,
    envelope_table,
    estimate_tables,
    generate_sample,
    if_bounds_from_moments,
    lower_envelope,
    population_tables,
    random_cost_bounds,
    true_cost,
    upper_envelope,
)
from roybounds.cli import main as cli_main
from roybounds.coverage import run_coverage
from roybounds.estimation import ConditionalCdfTable

from conftest import interior_grid, quasi_dgp_spec
from reference import check_smiv_data, lower_bound_interpolator, resimulate_sample


def _verdict(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


def _draw_family(family, rng):
    """Random admissible parameter draw for one built-in cost family."""
    mu0 = (rng.uniform(-0.4, 0.2), rng.uniform(0.0, 0.5))
    mu1 = (rng.uniform(-0.2, 0.4), rng.uniform(0.0, 0.5))
    s0 = rng.uniform(0.35, 0.9)
    s1 = rng.uniform(0.35, 0.9)
    if family == "quasi_linear":
        ga = rng.uniform(0.3, 1.2)
        gb = -rng.uniform(0.0, ga)
        return DgpSpec.quasi_linear(mu0, mu1, s0, s1, g0=(ga, gb), g1=(0.0, 0.0))
    if family == "multiplicative":
        c = rng.uniform(0.4, 0.9)
        d = rng.uniform(0.0, 1.0 - c)
        return DgpSpec.multiplicative(mu0, mu1, s0, s1, g0=(1.0, 0.0), g1=(c, d))
    if family == "quadratic":
        # low log-income location keeps draws clear of the curvature cap
        e0 = rng.uniform(0.1, 0.4)
        f0 = rng.uniform(0.5, 1.0)
        base = e0 * f0
        e1a = base + rng.uniform(0.05, 0.5)
        e1b = -rng.uniform(0.0, e1a - base)
        mu0q = (rng.uniform(-1.6, -1.0), rng.uniform(0.0, 0.3))
        mu1q = (rng.uniform(-1.5, -0.9), rng.uniform(0.0, 0.3))
        return DgpSpec.quadratic(mu0q, mu1q, rng.uniform(0.3, 0.6),
                                 rng.uniform(0.3, 0.6), eta0=(e0, 0.0),
                                 eta1=(e1a, e1b), f=(f0, 0.0))
    if family == "isoelastic":
        rho = rng.uniform(1.2, 3.0)
        s0i = rng.uniform(0.3, 0.6)
        return DgpSpec.isoelastic(mu0, mu1, s0i, s0i + rng.uniform(0.05, 0.3),
                                  rho=rho)
    raise AssertionError(family)


FAMILIES = ("quasi_linear", "multiplicative", "quadratic", "isoelastic")


def test_criterion_1_zero_cost_recovery():
    # a pure selection model carries no wedge: the lower bound must vanish
    t0 = time.monotonic()
    roy = DgpSpec.pure_roy(mu=(0.0, 0.6), sigma=0.5)
    grid = interior_grid(roy, n_y=200, n_z=10)
    surf = cost_bounds_pf(population_tables(roy, grid))
    pop_max = float(np.max(surf.Clow[surf.identified_mask]))

    ctol = float(np.sqrt(np.log(20_000) / 20_000))
    samp_max = 0.0
    for seed in (2026, 7, 11):
        s = generate_sample(roy, 20_000, seed=seed)
        ys = (s.y - np.min(s.y)) / (np.max(s.y) - np.min(s.y))
        scaled = ObservationSample(y=ys, d=s.d, z=s.z)
        g = EvaluationGrid.from_sample(scaled, n_y=200, n_z=10)
        # fixed smoothing: the density rule of thumb undersmooths the
        # envelope inverse at the grid tails for this sample size
        est = estimate_tables(scaled, g, bandwidth=0.1)
        fit = cost_bounds_pf(est, crossing_tol=ctol)
        assert not fit.rejected
        samp_max = max(samp_max, float(np.max(fit.Clow[fit.identified_mask])))
    dt = time.monotonic() - t0
    _verdict("criterion-1",
             pop_max <= 1e-9 and samp_max <= 0.05 and dt < 30.0,
             f"population max Clow={pop_max:.2e} (tol 1e-9), "
             f"sample max Clow={samp_max:.4f} (tol 0.05, incomes in [0,1]), "
             f"elapsed={dt:.1f}s (< 30s)")


def test_criterion_2_containment_across_families():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260815)
    worst = 0.0
    cells = 0
    for family in FAMILIES:
        for k in range(20):
            dgp = _draw_family(family, rng)
            grid = interior_grid(dgp, n_y=35, n_z=5, seed=1000 + k)
            surf = cost_bounds_pf(population_tables(dgp, grid))
            truth = np.column_stack([true_cost(dgp, grid.y, zv)
                                     for zv in grid.z])
            m = surf.identified_mask
            cells += int(np.sum(m))
            worst = max(worst,
                        float(np.max((surf.Clow - truth)[m], initial=0.0)),
                        float(np.max((truth - surf.Chigh)[m], initial=0.0)))
    dt = time.monotonic() - t0
    _verdict("criterion-2",
             worst <= 1e-8 and dt < 120.0,
             f"worst containment violation={worst:.2e} (tol 1e-8) over "
             f"{cells} identified cells, 20 draws x {len(FAMILIES)} families, "
             f"elapsed={dt:.1f}s (< 2min)")


def test_criterion_3_resimulation_reproduces_tables():
    dgp = quasi_dgp_spec()
    pilot = generate_sample(dgp, 20_000, seed=5)
    y = np.unique(np.quantile(pilot.y, np.linspace(0.01, 0.99, 40)))
    grid = EvaluationGrid(y=y, z=np.linspace(0.05, 0.95, 5))
    tab = population_tables(dgp, grid)
    surf = cost_bounds_pf(tab)
    assert not surf.rejected

    # z drawn exactly on the grid columns so per-column ecdfs are clean
    law = ZLaw(kind="choice", values=tuple(grid.z))
    base = generate_sample(replace(dgp, z_law=law), 200_000, seed=99)
    resim = resimulate_sample(base, surf)

    # one grid step of rounding in y moves a cdf by at most one increment
    tol = 2.0 * float(np.max(np.diff(tab.F, axis=0)))
    worst = 0.0
    for j in range(grid.z.size):
        sel = resim.z == grid.z[j]
        yj, dj = resim.y[sel], resim.d[sel]
        le = yj[None, :] <= grid.y[:, None]
        worst = max(
            worst,
            float(np.max(np.abs(np.mean(le, axis=1) - tab.F[:, j]))),
            float(np.max(np.abs(np.mean(le & (dj == 0), axis=1) - tab.F0[:, j]))),
            float(np.max(np.abs(np.mean(le & (dj == 1), axis=1) - tab.F1[:, j]))),
            abs(float(np.mean(dj)) - float(tab.p[j])))

    rep = check_smiv_data(resim, lower_bound_interpolator(surf), grid.y, grid.z,
                          tol=0.02, bandwidth=0.1)
    _verdict("criterion-3",
             worst <= tol and rep.ok,
             f"table sup deviation={worst:.4f} (tol 2x grid spacing={tol:.4f}), "
             f"monotonicity check ok={rep.ok} "
             f"(worst violation={rep.worst_violation:.2e})")


def test_criterion_4_if_closed_form_vs_direct_search():
    rng = np.random.default_rng(44)
    worst = 0.0
    for rep in range(50):
        k = int(rng.integers(3, 10))
        z = np.sort(rng.uniform(0.0, 1.0, k)) + np.arange(k) * 1e-4
        m = rng.uniform(2.0, 12.0, k)
        p = np.round(rng.uniform(0.1, 0.9, k), 3)
        p[rng.random(k) < 0.2] = 0.0
        curve = if_bounds_from_moments(z, m, np.zeros(k), p)

        ref = np.zeros(k)
        for i in range(k):
            if p[i] <= 0.0:
                continue
            fut = m[i:].min()
            lo, hi = 0.0, max((m[i] - fut) / p[i] + 1.0, 1.0)
            # bisect the least constant cost aligning m with its future min
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if m[i] - p[i] * mid <= fut + 1e-12:
                    hi = mid
                else:
                    lo = mid
            ref[i] = hi
        worst = max(worst, float(np.max(np.abs(curve.Clow - ref))))
    _verdict("criterion-4",
             worst <= 1e-9,
             f"max |closed form - direct search|={worst:.2e} "
             f"(tol 1e-9, 50 fixtures)")


def test_criterion_5_makarov_bracket():
    dgp = quasi_dgp_spec()
    grid = interior_grid(dgp, n_y=60, n_z=4)
    rc = random_cost_bounds(population_tables(dgp, grid),
                            cost_grid=np.linspace(0.0, 2.0, 60))

    s = generate_sample(dgp, 50_000, seed=7)
    d1 = s.d == 1
    sub = ObservationSample(y=s.y[d1], d=s.d[d1], z=s.z[d1])
    costs = true_cost(dgp, sub.y, sub.z)

    worst_lo, worst_hi = 0.0, 0.0
    for iz, z0 in enumerate(grid.z):
        for ic, c in enumerate(rc.cost_grid):
            emp = conditional_mean(sub, (costs <= c).astype(float), [z0],
                                   bandwidth=0.08)[0]
            emp = min(max(emp, 0.0), 1.0)
            worst_lo = max(worst_lo, float(rc.FL[ic, iz]) - emp)
            worst_hi = max(worst_hi, emp - float(rc.FU[ic, iz]))
    _verdict("criterion-5",
             worst_lo <= 0.02 and worst_hi <= 0.02,
             f"worst FL - Fhat={worst_lo:.4f}, worst Fhat - FU={worst_hi:.4f} "
             f"(tol 0.02 each, n=50000)")


def test_criterion_6_uniform_band_coverage():
    t0 = time.monotonic()
    rep = run_coverage(quasi_dgp_spec(), reps=200, n=2000, alpha=0.05,
                       B=200, seed=20260815)
    dt = time.monotonic() - t0
    rate = rep.violations_vs_lower / 200.0
    _verdict("criterion-6",
             rate <= 0.07 and dt < 1200.0,
             f"uniform violation rate={rate:.3f} "
             f"({rep.violations_vs_lower}/200 reps, tol 0.07, alpha=0.05, "
             f"B=200, n=2000), elapsed={dt:.0f}s (< 20min)")


def _fuzz_table(rng, ny=6, nz=4):
    """Arbitrary monotone cdf decomposition with no model restrictions."""
    F = np.sort(rng.uniform(0.0, 1.0, (ny, nz)), axis=0)
    F[-1, :] = 1.0
    share = rng.uniform(0.2, 0.8, (ny, nz))
    F1 = np.minimum.accumulate((F * share)[::-1], axis=0)[::-1]
    F1 = np.maximum.accumulate(F1, axis=0)
    F0 = F - F1
    grid = EvaluationGrid(y=np.arange(1.0, ny + 1.0),
                          z=np.linspace(0.1, 0.1 * nz, nz))
    return ConditionalCdfTable(grid=grid, F=F, F0=F0, F1=F1, p=1.0 - F0[-1, :])


def test_criterion_7_envelope_algebra():
    rng = np.random.default_rng(77)
    idem_ok = True
    minimal_ok = True
    for _ in range(100):
        t = _fuzz_table(rng)
        low = lower_envelope(t)
        high = upper_envelope(t, 0.0)

        # idempotence: both operators fix their own output exactly
        t_low = ConditionalCdfTable(grid=t.grid, F=low, F0=np.zeros_like(low),
                                    F1=low, p=np.ones(low.shape[1]))
        t_high = ConditionalCdfTable(grid=t.grid, F=high, F0=high,
                                     F1=np.zeros_like(high),
                                     p=np.zeros(high.shape[1]))
        idem_ok &= np.array_equal(lower_envelope(t_low), low)
        idem_ok &= np.array_equal(upper_envelope(t_high, 0.0), high)

        # minimality: any dominating z-monotone matrix sits weakly above
        bump = rng.uniform(0.0, 0.3, t.F.shape)
        G = np.flip(np.maximum.accumulate(np.flip(t.F + bump, axis=1), axis=1),
                    axis=1)
        minimal_ok &= bool(np.all(low >= t.F - 1e-15))
        minimal_ok &= bool(np.all(np.diff(low, axis=1) <= 1e-15))
        minimal_ok &= bool(np.all(G >= low - 1e-12))

    # crossing must hold on population tables of every admissible model
    draws = [DgpSpec.pure_roy(mu=(0.0, 0.6), sigma=0.5)]
    rng2 = np.random.default_rng(20260815)
    for family in FAMILIES:
        draws.extend(_draw_family(family, rng2) for _ in range(3))
    n_rejected = 0
    for k, dgp in enumerate(draws):
        grid = interior_grid(dgp, n_y=30, n_z=5, seed=2000 + k)
        Flow, Fhigh = envelope_table(population_tables(dgp, grid), 0.0)
        n_rejected += int(crossing_test(Flow, Fhigh, tol=1e-9).rejected)
    _verdict("criterion-7",
             idem_ok and minimal_ok and n_rejected == 0,
             f"idempotence exact={idem_ok}, minimality={minimal_ok} "
             f"(100 fuzz tables), crossing rejections={n_rejected}/{len(draws)} "
             f"valid population tables")


def test_criterion_8_cli_bit_reproducibility(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dgp": quasi_dgp_spec().to_json()}))
    monkeypatch.chdir(tmp_path)

    commands = [
        ["simulate", "--config", "cfg.json", "--n", "400", "--seed", "3",
         "--output", "sample.csv"],
        ["estimate", "--input", "sample.csv", "--grid-y", "25",
         "--grid-z", "4", "--output", "tables.csv"],
        ["bounds", "--input", "sample.csv", "--mode", "all", "--grid-y", "25",
         "--grid-z", "4", "--seed", "3", "--output", "b.csv"],
        ["infer", "--input", "sample.csv", "--grid-y", "20", "--grid-z", "4",
         "--alpha", "0.1", "--bootstrap", "60", "--seed", "5",
         "--output", "band.csv"],
        ["coverage", "--config", "cfg.json", "--n", "300", "--reps", "2",
         "--bootstrap", "50", "--seed", "1", "--output", "cov.csv"],
    ]

    def snapshot():
        out = {}
        for name in sorted(os.listdir(tmp_path)):
            if name.endswith((".csv", ".json")) and name != "cfg.json":
                out[name] = (tmp_path / name).read_bytes()
        return out

    for args in commands:
        assert cli_main(args) == 0, args
    first = snapshot()
    for args in commands:
        assert cli_main(args) == 0, args
    second = snapshot()

    assert first.keys() == second.keys()
    bad = [n for n in first if first[n] != second[n]]
    _verdict("criterion-8",
             not bad and len(first) >= 10,
             f"{len(first)} artifacts bit-identical across repeat runs"
             + (f"; mismatched: {bad}" if bad else ""))
