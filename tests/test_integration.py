import math

import numpy as np
import pytest

from triplecompton.constants import ALPHA, ELECTRON_MASS_MEV as M, \
    HBARC2_MEV2_BARN
from triplecompton.integration import (BeamParameters, BudgetError,
                                       IntegrationResult, PhaseSpaceMap,
                                       WindowError, detector_average,
                                       event_rate, stratified_monte_carlo,
                                       substream, total_cross_section)
from triplecompton.kinematics import CollisionSetup
from conftest import MGBR_PHIS, MGBR_THETAS


def klein_nishina_total(setup):
    """Closed-form total one-photon cross section at the setup's invariant
    flux (oracle)."""
    kappa = 2.0 * setup.flux / (M * M)
    re2 = ALPHA ** 2 / (M * M) * HBARC2_MEV2_BARN
    return 2 * math.pi * re2 * (
        (1 - 4 / kappa - 8 / kappa ** 2) * math.log(1 + kappa) / kappa
        + 0.5 / kappa + 8 / kappa ** 2 - 1 / (2 * kappa * (1 + kappa) ** 2))


def test_substream_determinism():
    a = substream(42, 7).random(5)
    b = substream(42, 7).random(5)
    assert (a == b).all()
    c = substream(42, 8).random(5)
    assert (a != c).any()


def test_total_cross_section_deterministic(rest_setup):
    r1 = total_cross_section(rest_setup, 0.0, "single", budget=1 << 12,
                             seed=9)
    r2 = total_cross_section(rest_setup, 0.0, "single", budget=1 << 12,
                             seed=9)
    assert r1 == r2  # bit-identical dataclasses


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batching_does_not_change_result(rest_setup, seed):
    results = [total_cross_section(rest_setup, 0.0, "single",
                                   budget=1 << 14, seed=seed, batch=batch)
               for batch in (7, 100, 8192)]
    for res in results[1:]:
        assert res.value == results[0].value
        assert res.statistical_error == results[0].statistical_error


def test_thomson_limit():
    setup = CollisionSetup.rest_frame(1e-6)
    res = total_cross_section(setup, 0.0, "single", budget=1 << 14, seed=3)
    assert res.value == pytest.approx(0.6652, abs=3 * res.statistical_error
                                      + 2e-4)


def test_single_total_matches_closed_form(rest_setup):
    res = total_cross_section(rest_setup, 0.0, "single", budget=1 << 15,
                              seed=5)
    assert res.value == pytest.approx(klein_nishina_total(rest_setup),
                                      abs=3 * res.statistical_error)


def test_frame_consistency():
    # one-photon total at the same invariant s in the rest and collider frames
    collider = CollisionSetup(5000.0, 0.001)
    equivalent_omega0 = (collider.s_invariant - M * M) / (2 * M)
    rest = CollisionSetup.rest_frame(equivalent_omega0)
    r1 = total_cross_section(collider, 0.0, "single", budget=1 << 15, seed=2)
    r2 = total_cross_section(rest, 0.0, "single", budget=1 << 15, seed=4)
    err = math.hypot(r1.statistical_error, r2.statistical_error)
    assert abs(r1.value - r2.value) <= 3 * err + 1e-5 * r1.value


def test_monte_carlo_error_scaling(rest_setup):
    r1 = total_cross_section(rest_setup, 0.02, "double", budget=1 << 14,
                             seed=11)
    r2 = total_cross_section(rest_setup, 0.02, "double", budget=1 << 15,
                             seed=11)
    ratio = r1.statistical_error / r2.statistical_error
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.20)


def test_importance_sampling_unbiased_rest(rest_setup):
    # separable 1/(w1 w2) over the mapped domain has the closed form
    # (4 pi)^3 log(wmax/eps)^2; the log-uniform map makes it exactly flat
    eps = 0.013
    ps = PhaseSpaceMap(rest_setup, 3, eps)
    span = math.log(rest_setup.omega_max / eps)
    expected = (4 * math.pi) ** 3 * span ** 2

    def integrand(x):
        thetas, phis, omegas, weight = ps.map_points(x)
        return weight / (omegas[0] * omegas[1])

    value, error, _ = stratified_monte_carlo(integrand, ps.dim, (8, 8),
                                             1 << 12, seed=1)
    assert value == pytest.approx(expected, abs=3 * error + 1e-9 * expected)


def test_importance_sampling_unbiased_backscatter(xfel_setup):
    # the cone map deliberately starves the near-forward hemisphere (where
    # the physical integrand vanishes), so the separable test integrand is
    # restricted to the well-sampled backscatter cone delta < delta_c whose
    # angular volume 2 pi (1 - cos delta_c) is exact
    eps = 50.0
    ps = PhaseSpaceMap(xfel_setup, 2, eps)
    span = math.log(xfel_setup.omega_max / eps)
    delta_c = 20.0 * M / xfel_setup.e_i_mev
    cone = 2 * math.pi * (1 - math.cos(delta_c))
    expected = cone ** 2 * span

    def integrand(x):
        thetas, phis, omegas, weight = ps.map_points(x)
        inside = ((math.pi - thetas) < delta_c).all(axis=0)
        return np.where(inside, weight / omegas[0], 0.0)

    value, error, _ = stratified_monte_carlo(integrand, ps.dim, (8, 8),
                                             1 << 16, seed=6)
    assert error > 0
    assert value == pytest.approx(expected, abs=3 * error)


def test_budget_error():
    with pytest.raises(BudgetError):
        stratified_monte_carlo(lambda x: np.ones(x.shape[0]), 2, (8, 8),
                               budget=64, seed=0)


def test_total_requires_cutoff(rest_setup):
    with pytest.raises(ValueError):
        total_cross_section(rest_setup, 0.0, "double", budget=1 << 12)
    with pytest.raises(ValueError):
        total_cross_section(rest_setup, 1.0, "triple", budget=1 << 12)
    with pytest.raises(ValueError):
        total_cross_section(rest_setup, 0.0, "septuple", budget=1 << 12)


def test_detector_average_window_validation(rest_setup):
    with pytest.raises(WindowError):
        detector_average(rest_setup, (0.1, 1.5, 1.5), MGBR_PHIS, 0.378,
                         0.013, budget=1 << 10)
    with pytest.raises(WindowError):
        detector_average(rest_setup, MGBR_THETAS, MGBR_PHIS, 0.0, 0.013,
                         budget=1 << 10)
    with pytest.raises(ValueError):
        detector_average(rest_setup, MGBR_THETAS, MGBR_PHIS, 0.378, 0.0,
                         budget=1 << 10)
    with pytest.raises(ValueError):
        detector_average(rest_setup, MGBR_THETAS, MGBR_PHIS, 0.378, 10.0,
                         budget=1 << 10)


def test_detector_average_small_window_limit(rest_setup):
    """Omega -> 0 reduces the average to the energy-integrated integrand at
    the window centers (checked against an independent plain-MC estimate)."""
    omega_sr = 1e-3
    res = detector_average(rest_setup, MGBR_THETAS, MGBR_PHIS, omega_sr,
                           0.013, budget=1 << 15, seed=8)

    # independent 2-dim energy integration at fixed central angles
    from triplecompton.cross_section import unpolarized_sigma5_batch

    rng = np.random.default_rng(123)
    n = 1 << 15
    eps, wmax = 0.013, rest_setup.omega_max
    span = math.log(wmax / eps)
    w1 = eps * np.exp(span * rng.random(n))
    w2 = eps * np.exp(span * rng.random(n))
    th = np.repeat(np.array(MGBR_THETAS)[:, None], n, axis=1)
    ph = np.repeat(np.array(MGBR_PHIS)[:, None], n, axis=1)
    f = unpolarized_sigma5_batch(rest_setup, th, ph, w1, w2, 0.013)
    weights = f * w1 * span * w2 * span
    reference = weights.mean()
    ref_err = weights.std() / math.sqrt(n)
    combined = 3 * math.hypot(res.statistical_error, ref_err)
    assert res.value == pytest.approx(reference,
                                      abs=combined + 0.02 * reference)


def test_epsilon_sweep_monotonic(xfel_setup):
    values = []
    for eps in (25.0, 50.0, 100.0):
        res = total_cross_section(xfel_setup, eps, "triple",
                                  budget=1 << 14, seed=13)
        values.append(res.value)
    assert values[0] > values[1] > values[2]


def test_event_rate_examples():
    beams = BeamParameters(2e13, 1e9, 40.0, 120.0)
    rate = event_rate(2e-5, beams)
    assert rate == pytest.approx(3.8, rel=0.02)
    assert event_rate(0.0, beams) == 0.0
    assert event_rate(2e-5, BeamParameters(2e13, 1e9, 40.0, 0.0)) == 0.0
    doubled = BeamParameters(2e13, 2e9, 40.0, 120.0)
    assert event_rate(2e-5, doubled) == pytest.approx(2 * rate, rel=1e-12)
    with pytest.raises(ValueError):
        BeamParameters(-1.0, 1e9, 40.0, 120.0)
    # the rate divides by the overlap area, which a zero size makes zero
    for size in (0.0, -40.0, math.nan):
        with pytest.raises(ValueError, match="transverse_size_um"):
            BeamParameters(2e13, 1e9, size, 120.0)


def test_integration_result_fields(rest_setup):
    res = total_cross_section(rest_setup, 0.0, "single", budget=1 << 12,
                              seed=21)
    assert isinstance(res, IntegrationResult)
    assert res.statistical_error >= 0
    assert res.n_samples == (1 << 12) // 64 * 64
    assert res.seed == 21
