"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 8 checks the
maximum of tau on the collider-geometry plane against a certified reference
rather than a fixed floor: tau is bounded pointwise by the minimum bipartite
negativity, whose largest value on the physical plane is 0.4492, so the ridge
maximum tau = 0.4278090 (within 1e-6) is asserted from both sides by the
solver's witness and dual certificates.
"""
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from triplecompton import amplitude as am
from triplecompton import cli
from triplecompton.constants import (ALPHA, ELECTRON_MASS_MEV as M,
                                     HBARC2_MEV2_BARN)
from triplecompton.cross_section import (sigma5, sigma5_panel_grids,
                                         spin_summed_sigma5,
                                         unpolarized_differential_batch,
                                         unpolarized_sigma5)
from triplecompton.entanglement import (density_from_amplitudes, ghz_state,
                                        gme_tau, negativity, product_state,
                                        tau_grid, w_state)
from triplecompton.integration import (BeamParameters, detector_average,
                                       event_rate, total_cross_section)
from triplecompton.kinematics import CollisionSetup, close_batch
from conftest import (MGBR_PHIS, MGBR_THETAS, XFEL_PHIS, XFEL_THETAS,
                      random_physical_configs)
from test_entanglement import W_STATE_TAU_REFERENCE, XFEL_RIDGE_TAU_REFERENCE


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_detector_average_reproduction(rest_setup):
    started = time.time()
    res = detector_average(rest_setup, MGBR_THETAS, MGBR_PHIS,
                           solid_angle_sr=0.378, threshold_eps=0.013,
                           budget=1 << 18, seed=20120)
    elapsed = time.time() - started
    target = 4.1e-9
    deviation = abs(res.value - target) / target
    ok = deviation <= 0.08 and elapsed <= 1800.0
    report(1, ok, f"<sigma> = {res.value:.3e} +- {res.statistical_error:.1e} "
                  f"b/sr^3 vs 4.1e-9 ({100 * deviation:.1f}% off, "
                  f"{elapsed:.0f} s)")
    assert deviation <= 0.08
    assert elapsed <= 1800.0


def klein_nishina_dcs(omega0, theta):
    ratio = 1.0 / (1.0 + omega0 / M * (1.0 - math.cos(theta)))
    return (0.5 * ALPHA ** 2 / (M * M) * ratio ** 2
            * (ratio + 1.0 / ratio - math.sin(theta) ** 2)
            * HBARC2_MEV2_BARN)


def test_criterion_02_klein_nishina_oracle():
    started = time.time()
    worst = 0.0
    thetas = np.linspace(0.05, math.pi - 0.05, 20)
    for omega0 in (0.1, 0.662, 10.0):
        setup = CollisionSetup.rest_frame(omega0)
        values = unpolarized_differential_batch(
            setup, thetas[None, :], np.zeros((1, 20)), np.zeros((0, 20)),
            0.0)
        expected = np.array([klein_nishina_dcs(omega0, t) for t in thetas])
        worst = max(worst, float(np.abs(values / expected - 1.0).max()))
    deterministic_elapsed = time.time() - started
    thomson = total_cross_section(CollisionSetup.rest_frame(1e-6), 0.0,
                                  "single", budget=1 << 14, seed=3)
    diff = abs(thomson.value - 0.6652)
    allowance = 3 * thomson.statistical_error + 3e-4
    ok = worst <= 1e-9 and diff <= allowance and deterministic_elapsed < 1.0
    report(2, ok, f"KN worst rel err {worst:.1e} (60 points, "
                  f"{deterministic_elapsed * 1e3:.0f} ms); Thomson "
                  f"{thomson.value:.4f} +- {thomson.statistical_error:.1e} b")
    assert worst <= 1e-9
    assert deterministic_elapsed < 1.0
    assert diff <= allowance


def _ward_ratio(setup, point, closed):
    photons, p_f = closed[:2]
    beam = am.beam_basis_arrays()[0]
    outgoing = am.outgoing_basis_arrays(np.array(point[0]),
                                        np.array(point[1]))
    eps = [beam[0]] + [outgoing[j, 0] for j in range(3)]
    scale = 0.0
    for labels in ((1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1),
                   (1, 1, 1, 2), (2, 2, 2, 2)):
        basis = [beam[labels[0] - 1]]
        basis += [outgoing[j, lab - 1] for j, lab in enumerate(labels[1:])]
        scale = max(scale, abs(am.point_amplitude(setup, photons, p_f,
                                                  tuple(basis))))
    worst = 0.0
    for j, k in enumerate((setup.k_0,) + photons):
        gauge = list(eps)
        gauge[j] = k
        amp = am.point_amplitude(setup, photons, p_f, tuple(gauge))
        worst = max(worst, abs(amp) / scale)
    return worst


def test_criterion_03_ward_identity(rest_setup, xfel_setup):
    rng = np.random.default_rng(303)
    worst = 0.0
    for point, closed in random_physical_configs(rest_setup, rng, 100):
        worst = max(worst, _ward_ratio(rest_setup, point, closed))
    # backscatter kinematics amplify double-precision rounding beyond 1e-9,
    # so the gauge cancellation there is verified in software precision
    from _highprec import amplitude_pair

    worst_back = 0.0
    for point, _ in random_physical_configs(xfel_setup, rng, 5):
        base, _, _, _, _ = amplitude_pair(
            xfel_setup.e_i_mev, xfel_setup.omega0_mev, *point, (1, 1, 1), 1,
            1, 1, dps=40)
        gauge, _, _, _, _ = amplitude_pair(
            xfel_setup.e_i_mev, xfel_setup.omega0_mev, *point, (1, 1, 1),
            "momentum", 1, 1, dps=40)
        worst_back = max(worst_back,
                         abs(complex(gauge)) / abs(complex(base)))
    ok = worst <= 1e-9 and worst_back <= 1e-9
    report(3, ok, f"worst |M(eps->k)| / max basis amplitude = {worst:.1e} "
                  f"over 100 points (+ {worst_back:.1e} on 5 backscatter "
                  "points in software precision)")
    assert worst <= 1e-9
    assert worst_back <= 1e-9


def test_criterion_04_infrared_scaling(rest_setup):
    products = []
    for frac in (1e-3, 1e-4, 1e-5):
        w1 = frac * 0.662
        value = unpolarized_sigma5(rest_setup, MGBR_THETAS, MGBR_PHIS,
                                   w1, 0.1, threshold_eps=0.0)
        products.append(w1 * value)
    r21 = products[1] / products[0] - 1.0
    r32 = products[2] / products[1] - 1.0
    ok = products[0] > 0 and abs(r21) < 0.01 and abs(r32) < 0.01
    report(4, ok, f"w1*sigma5 ratios deviate {abs(r21) * 100:.3f}% and "
                  f"{abs(r32) * 100:.3f}% across w1 = 1e-3..1e-5 w0")
    assert products[0] > 0
    assert abs(r21) < 0.01 and abs(r32) < 0.01


def test_criterion_05_collinear_null(rest_setup):
    collinear = sigma5(rest_setup, (1e-9, 1e-9, 1e-9), (0.0, 2.1, 4.2),
                       0.12, 0.2)
    nearby = sigma5(rest_setup, (0.4, 0.4, 0.4), (0.0, 2.1, 4.2), 0.12, 0.2)
    ratio = collinear / nearby
    ok = nearby > 0 and ratio <= 1e-12
    report(5, ok, f"sigma5(collinear)/sigma5(nearby) = {ratio:.1e}")
    assert nearby > 0
    assert ratio <= 1e-12


def test_criterion_06_xfel_totals(xfel_setup):
    sc = total_cross_section(xfel_setup, 50.0, "single", budget=1 << 16,
                             seed=7)
    dc = total_cross_section(xfel_setup, 50.0, "double", budget=1 << 17,
                             seed=7)
    tc = total_cross_section(xfel_setup, 50.0, "triple", budget=1 << 18,
                             seed=7)
    beams = BeamParameters(2e13, 1e9, 40.0, 120.0)
    rate = event_rate(tc.value, beams)
    ok = (2e-2 <= sc.value <= 4.5e-2 and 0.7e-3 <= dc.value <= 1.5e-3
          and 1.3e-5 <= tc.value <= 3.0e-5 and 1.5 <= rate <= 6.0)
    report(6, ok,
           f"sigma_SC = {sc.value:.2e} b, sigma_DC = {dc.value:.2e} b, "
           f"sigma_TC = {tc.value:.2e} b, rate = {rate:.2f}/s")
    assert 2e-2 <= sc.value <= 4.5e-2
    assert 0.7e-3 <= dc.value <= 1.5e-3
    assert 1.3e-5 <= tc.value <= 3.0e-5
    assert 1.5 <= rate <= 6.0


def test_criterion_07_entanglement_calibration():
    ghz = gme_tau(ghz_state())
    prod = gme_tau(product_state())
    wst = gme_tau(w_state())
    residual = max(r.witness.max_residual for r in (ghz, prod, wst))
    ok = (abs(ghz.tau - 0.5) <= 1e-4 and prod.tau <= 1e-6
          and abs(wst.tau - W_STATE_TAU_REFERENCE) <= 1e-4
          and residual <= 1e-6)
    report(7, ok, f"tau(GHZ) = {ghz.tau:.6f}, tau(product) = {prod.tau:.1e},"
                  f" tau(W) = {wst.tau:.6f} (oracle "
                  f"{W_STATE_TAU_REFERENCE}), max witness residual "
                  f"{residual:.1e}")
    assert abs(ghz.tau - 0.5) <= 1e-4
    assert prod.tau <= 1e-6
    assert abs(wst.tau - W_STATE_TAU_REFERENCE) <= 1e-4
    assert residual <= 1e-6


RIDGE_GRID = np.linspace(60.0, 1300.0, 12)


@pytest.fixture(scope="module")
def ridge_map(xfel_setup):
    """Criterion 8's 12x12 tau map across the collider ridge, (taus,
    masked, results), plus the ridge peak's state and its gme_tau result:
    the coarse grid undersamples the high-entanglement ridge, whose peak a
    fine minimum-negativity scan located."""
    taus, masked, results = tau_grid(xfel_setup, XFEL_THETAS, XFEL_PHIS,
                                     RIDGE_GRID, RIDGE_GRID, beam_pol=1,
                                     threshold_eps=50.0)
    ridge = density_from_amplitudes(xfel_setup, XFEL_THETAS, XFEL_PHIS,
                                    693.0, 413.0, beam_pol=1)
    return taus, masked, results, ridge, gme_tau(ridge)


def test_criterion_08_tau_grid_qualitative(ridge_map):
    taus, masked, results, ridge, res = ridge_map
    values = taus[~masked]
    grid_gap = max(r.upper_bound - r.tau for r in results[~masked])
    frac_entangled = float((values > 0.01).mean())
    gap = res.upper_bound - res.tau
    residual = res.witness.max_residual
    tau_max = max(float(values.max()), res.tau)
    # tau never exceeds the minimum bipartite negativity, which keeps the
    # ridge below 0.45; a change to the state that lifts it fails here
    negativity_bound = min(negativity(ridge, s) for s in (1, 2, 3))
    ok = (frac_entangled >= 0.90 and gap <= 1e-5 and grid_gap <= 1e-5
          and residual <= 1e-6
          and abs(tau_max - XFEL_RIDGE_TAU_REFERENCE) <= 1e-6
          and negativity_bound < 0.45)
    report(8, ok, f"{100 * frac_entangled:.0f}% of {values.size} unmasked "
                  f"cells have tau > 0.01; max tau = {tau_max:.6f} "
                  f"(reference {XFEL_RIDGE_TAU_REFERENCE}), ridge "
                  f"certificate gap {gap:.1e} (grid cells at most "
                  f"{grid_gap:.1e}), witness residual "
                  f"{residual:.1e}, ridge minimum negativity "
                  f"{negativity_bound:.5f} (must stay below 0.45)")
    assert frac_entangled >= 0.90
    assert gap <= 1e-5
    assert grid_gap <= 1e-5
    assert residual <= 1e-6
    assert tau_max == pytest.approx(XFEL_RIDGE_TAU_REFERENCE, abs=1e-6)
    assert negativity_bound < 0.45


def test_criterion_08_certificates_cross_check(xfel_setup, ridge_map):
    # the witness program's constraints do not depend on the state, so every
    # cell's witness W_j is feasible for every state rho_i, and
    # -tr(W_j rho_i) <= tau_i <= upper_bound_i must hold for each pair
    _, masked, results, ridge, res = ridge_map
    cells = np.argwhere(~masked)
    states = [density_from_amplitudes(xfel_setup, XFEL_THETAS, XFEL_PHIS,
                                      RIDGE_GRID[i], RIDGE_GRID[j],
                                      beam_pol=1) for i, j in cells]
    states.append(ridge)
    results = list(results[~masked]) + [res]
    witnesses = np.stack([r.witness.matrix for r in results])
    upper = np.array([r.upper_bound for r in results])
    taus = np.array([r.tau for r in results])
    # lower[i, j] = -tr(W_j rho_i), both real symmetric
    lower = -np.einsum("jab,iab->ij", witnesses, np.stack(states))
    excess = lower - upper[:, None]
    beaten = lower.max(axis=1) - taus
    report(8, excess.max() <= 1e-12,
           f"{len(states)}^2 witness/state pairs: worst -tr(W_j rho_i) - "
           f"upper_bound_i = {excess.max():.1e}, best foreign witness "
           f"beats a cell's own tau by {beaten.max():.1e}")
    assert len(states) >= 80
    assert excess.max() <= 1e-12


def test_criterion_09_determinism(tmp_path):
    seeds = ["--seed", "11", "--budget", "2048"]
    pairs = []
    for tag in ("a", "b"):
        out = tmp_path / f"avg_{tag}"
        assert cli.main(["mgbr1968", *seeds, "--out", str(out)]) == 0
        pairs.append(out)
    grid_cfg = tmp_path / "grid.cfg"
    grid_cfg.write_text("scenario = xfel\ngrid.n_omega1 = 3\n"
                        "grid.n_omega2 = 3\ngrid.omega1_max_mev = 1300\n"
                        "grid.omega2_max_mev = 1300\n")
    for tag in ("a", "b"):
        out = tmp_path / f"grid_{tag}"
        assert cli.main(["grid", "--config", str(grid_cfg), *seeds,
                         "--out", str(out)]) == 0
        pairs.append(out)
    tau_cfg = tmp_path / "tau.cfg"
    tau_cfg.write_text("scenario = xfel\ngrid.omega1_min_mev = 540\n"
                       "grid.omega1_max_mev = 540\ngrid.n_omega1 = 1\n"
                       "grid.omega2_min_mev = 410\n"
                       "grid.omega2_max_mev = 560\ngrid.n_omega2 = 2\n")
    for tag in ("a", "b"):
        out = tmp_path / f"tau_{tag}"
        assert cli.main(["grid", "--observable", "tau", "--config",
                         str(tau_cfg), "--out", str(out)]) == 0
        pairs.append(out)
    assert (pairs[4] / "tau_diagnostics.dat").is_file()
    mismatches = []
    for one, two in zip(pairs[::2], pairs[1::2]):
        for path in sorted(one.iterdir()):
            if (two / path.name).read_bytes() != path.read_bytes():
                mismatches.append(path.name)
    ok = not mismatches
    report(9, ok, "byte-identical outputs for repeated seeds"
           if ok else f"files differ: {mismatches}")
    assert not mismatches


def test_criterion_10_panel_properties(xfel_setup):
    w1 = np.linspace(55.0, 1350.0, 48)
    w2 = np.linspace(55.0, 1350.0, 48)
    panels, masked = sigma5_panel_grids(xfel_setup, XFEL_THETAS, XFEL_PHIS,
                                        w1, w2, beam_pol=1,
                                        threshold_eps=50.0)
    # non-negativity and mask correctness
    w1m, w2m = np.meshgrid(w1, w2, indexing="ij")
    th = np.repeat(np.array(XFEL_THETAS)[:, None], w1m.size, axis=1)
    ph = np.repeat(np.array(XFEL_PHIS)[:, None], w1m.size, axis=1)
    w3, _, _, _, physical = close_batch(xfel_setup, th, ph, w1m.ravel(),
                                        w2m.ravel())
    expected_mask = ~(physical & (w3 >= 50.0) & (w1m.ravel() >= 50.0)
                      & (w2m.ravel() >= 50.0))
    mask_ok = (masked.ravel() == expected_mask).all()
    nonneg_ok = all((p >= 0).all() for p in panels.values())
    # exchange symmetry of the panel pairs at transposed energies
    sym_worst = 0.0
    for a, b in (("211", "121"), ("212", "122"), ("111", "111"),
                 ("222", "222")):
        pa, pb = panels[a], panels[b].T
        both = ~masked & ~masked.T & (pa > 0)
        sym_worst = max(sym_worst,
                        float(np.abs(pa[both] / pb[both] - 1.0).max()))
    # dual-path equality on 1000 unmasked cells, in software precision so
    # the 1e-12 comparison is meaningful at backscatter conditioning
    from _highprec import amplitude_pair

    cells = np.argwhere(~masked)
    assert len(cells) >= 1000
    step = len(cells) // 1000
    dual_worst = 0.0
    for idx in cells[::step][:1000]:
        i, j = int(idx[0]), int(idx[1])
        fast, slow, _, _, _ = amplitude_pair(
            xfel_setup.e_i_mev, xfel_setup.omega0_mev, XFEL_THETAS,
            XFEL_PHIS, w1[i], w2[j], (1, 1, 1), 1, 1, 1, dps=40)
        dual_worst = max(dual_worst,
                         float(abs(complex(fast - slow))
                               / abs(complex(fast))))
    # sanity: the production double-precision panel value agrees with the
    # high-precision reference within the conditioning-limited noise
    from _highprec import spin_summed_sigma5 as mp_sigma5

    prod_worst = 0.0
    for idx in cells[:: max(len(cells) // 8, 1)][:8]:
        i, j = int(idx[0]), int(idx[1])
        reference = float(mp_sigma5(xfel_setup.e_i_mev,
                                    xfel_setup.omega0_mev, XFEL_THETAS,
                                    XFEL_PHIS, w1[i], w2[j]))
        prod_worst = max(prod_worst,
                         abs(panels["111"][i, j] / reference - 1.0))
    ok = (mask_ok and nonneg_ok and sym_worst < 1e-4 and dual_worst <= 1e-12
          and prod_worst < 1e-3)
    report(10, ok, f"mask ok = {mask_ok}, non-negative = {nonneg_ok}, "
                   f"exchange symmetry {sym_worst:.1e}, dual-path worst "
                   f"{dual_worst:.1e} over 1000 cells, production vs "
                   f"high-precision {prod_worst:.1e}")
    assert mask_ok and nonneg_ok
    assert sym_worst < 1e-4
    assert dual_worst <= 1e-12
    assert prod_worst < 1e-3
