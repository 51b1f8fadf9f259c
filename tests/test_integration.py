import math
import tracemalloc

import numpy as np
import pytest

from triplecompton.constants import ALPHA, ELECTRON_MASS_MEV as M, \
    HBARC2_MEV2_BARN
from triplecompton import amplitude, integration
from triplecompton.integration import (BeamParameters, BudgetError,
                                       IntegrationResult, WindowError,
                                       detector_average,
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


def klein_nishina_above(setup, eps, nodes=32):
    """One-photon total in barns over lab energies of at least eps, for an
    electron moving faster than the photon (|p_i| > omega0, omega0 <= eps):
    Klein-Nishina in the electron's rest frame (oracle).

    With P = omega'/omega0' and kappa = omega0'/m = p_i.k_0/m^2, the rest
    frame gives 1 - cos(theta') = (1/P - 1)/kappa and dsigma/dP = pi r_e^2
    (P + 1/P - sin^2 theta')/kappa.  The lab energy is linear in P, omega =
    |p_i| - P (|p_i| - omega0), so eps bounds P from above, and P = 1/(1 +
    2 kappa) is backscatter.  Gauss-Legendre in ln P.
    """
    kappa = setup.flux / (M * M)
    lo = -math.log1p(2.0 * kappa)
    hi = math.log((setup.p_abs - eps) / (setup.p_abs - setup.omega0_mev))
    t, w = np.polynomial.legendre.leggauss(nodes)
    big_p = np.exp(lo + (hi - lo) * (t + 1.0) / 2.0)
    one_minus_cos = (1.0 / big_p - 1.0) / kappa
    sin2 = one_minus_cos * (2.0 - one_minus_cos)
    re2 = ALPHA ** 2 / (M * M) * HBARC2_MEV2_BARN
    return (math.pi * re2 / kappa * (hi - lo) / 2.0
            * float(w @ (big_p * big_p + 1.0 - big_p * sin2)))


def test_substream_determinism():
    a = substream(42, 7).random(5)
    b = substream(42, 7).random(5)
    assert (a == b).all()
    c = substream(42, 8).random(5)
    assert (a != c).any()
    assert (substream((1 << 64) - 1, 7).random(5) != a).all()
    # the seed fills 64 bits of the key: -1 used to alias 2^64 - 1, and
    # 2^64 aliased 0
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed"):
            substream(seed, 7)


def test_total_cross_section_deterministic(rest_setup):
    r1 = total_cross_section(rest_setup, 0.0, "single", budget=1 << 12,
                             seed=9)
    r2 = total_cross_section(rest_setup, 0.0, "single", budget=1 << 12,
                             seed=9)
    assert r1 == r2  # bit-identical dataclasses


# 7 and 100 divide no stratum's count below, so batches span strata; 256 is
# one stratum at 2^14 over 64 strata, 2048 the default, and 8192 holds 32
# of them
BATCH_SIZES = (7, 100, 256, 2048, 8192)


def _batched_results(monkeypatch, estimate):
    results = []
    for rows in BATCH_SIZES:
        monkeypatch.setattr(integration, "BATCH_ROWS", rows)
        results.append(estimate())
    return results


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batching_does_not_change_result(monkeypatch, rest_setup, seed):
    results = _batched_results(monkeypatch, lambda: total_cross_section(
        rest_setup, 0.0, "single", budget=1 << 14, seed=seed))
    for res in results[1:]:
        assert res.value == results[0].value
        assert res.statistical_error == results[0].statistical_error
        assert res == results[0]


def _estimator(case, budget, rest_setup, xfel_setup):
    if case == "detector_average":
        return lambda: detector_average(rest_setup, MGBR_THETAS, MGBR_PHIS,
                                        0.378, 0.013, budget=budget, seed=4)
    return lambda: total_cross_section(xfel_setup, 50.0, case,
                                       budget=budget, seed=4)


@pytest.mark.parametrize("case, budget", [
    ("single", 1000), ("triple", 1000), ("triple", 1 << 12),
    ("detector_average", 1000), ("detector_average", 1 << 12)])
def test_cross_strata_batching_does_not_change_result(
        monkeypatch, rest_setup, xfel_setup, case, budget):
    # budget 1000 over 64 strata is 15 samples per stratum, a multiple of
    # none of the batch sizes
    results = _batched_results(
        monkeypatch, _estimator(case, budget, rest_setup, xfel_setup))
    assert results[0].n_samples == budget // 64 * 64
    for res in results[1:]:
        assert res.value == results[0].value
        assert res.statistical_error == results[0].statistical_error
        assert res == results[0]


@pytest.mark.parametrize("case", ["single", "double", "triple",
                                  "detector_average"])
def test_kernel_chunks_do_not_change_result(monkeypatch, rest_setup,
                                            xfel_setup, case):
    # each integrand batch makes one amplitude kernel call on its kept rows,
    # which the kernel evaluates in passes of at most amplitude.KERNEL_ROWS:
    # the estimate keeps every bit, and every estimate sends the kernel the
    # same kept points, whatever the pass size
    kernel, kernel_pass = amplitude.amplitude_tensor, amplitude._kernel_pass
    estimate = _estimator(case, 1 << 12, rest_setup, xfel_setup)
    results, points = [], []
    for rows in (1, 7, 256, 10 ** 6):
        monkeypatch.setattr(amplitude, "KERNEL_ROWS", rows)
        calls, sizes = [], []

        def counted(setup, k_out, *args):
            calls.append(k_out.shape[1])
            return kernel(setup, k_out, *args)

        def counted_pass(setup, k_out, *args):
            sizes.append(k_out.shape[1])
            return kernel_pass(setup, k_out, *args)
        monkeypatch.setattr(amplitude, "amplitude_tensor", counted)
        monkeypatch.setattr(amplitude, "_kernel_pass", counted_pass)
        results.append(estimate())
        assert 0 < max(sizes) <= rows
        points.append(sum(sizes))
        assert len(calls) == -(-4096 // integration.BATCH_ROWS)
        assert sum(calls) == points[-1]
    for res in results[1:]:
        assert res == results[0]
    assert points == [points[0]] * 4
    assert results[0].n_nonzero <= points[0] < results[0].n_samples


def test_sampler_memory_does_not_grow_with_budget():
    # the per-stratum sums used to read Python float lists of every weight,
    # about 48 B per sample; the weights themselves are 8 B per sample
    budget = 1 << 18
    tracemalloc.start()
    try:
        stratified_monte_carlo(lambda x: x[:, 0], 2, (8, 8), budget, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * budget, peak / budget


@pytest.mark.parametrize("strata", [(0,), (8, 8), (-8, 8), (2.5,)],
                         ids=["zero", "too_many", "negative", "fractional"])
def test_bad_strata_raise(strata):
    # (0,) raised ZeroDivisionError, (8, 8) over one dimension IndexError
    # and (-8, 8) a BudgetError over "-64 strata"; (2.5,) ran 2 strata
    with pytest.raises(ValueError, match="strat"):
        stratified_monte_carlo(lambda x: x[:, 0], 1, strata, 1024, seed=0)


def test_integrand_calls_are_bounded_batches(monkeypatch):
    calls = []

    def integrand(x):
        calls.append(x.copy())
        return x[:, 0]

    # the smallest budget over 64 strata is one call, not one per stratum
    stratified_monte_carlo(integrand, 3, (8, 8), 128, seed=0)
    assert [len(x) for x in calls] == [128]
    for rows in BATCH_SIZES:
        monkeypatch.setattr(integration, "BATCH_ROWS", rows)
        calls.clear()
        stratified_monte_carlo(integrand, 3, (8, 8), 1000, seed=0)
        sizes = [len(x) for x in calls]
        assert max(sizes) <= rows
        assert sum(sizes) == 960
        assert len(sizes) == -(-960 // rows)
        # rows arrive stratum after stratum, 15 per stratum, whatever the
        # batch boundaries
        cells = (np.concatenate(calls)[:, :2] * 8).astype(int)
        assert np.array_equal(cells[:, 0] * 8 + cells[:, 1],
                              np.repeat(np.arange(64), 15))


def test_sampler_telemetry():
    # half the strata see weight 1 and half 0: no variance at all
    est = stratified_monte_carlo(lambda x: (x[:, 0] < 0.5) * 1.0, 2, (8,),
                                 1 << 10, seed=3.0)
    # the sampler returns the callers' result type: n_samples at index 2,
    # and the seed as the integer it names
    assert isinstance(est, IntegrationResult)
    assert est[2] == est.n_samples == 1 << 10
    assert type(est.seed) is int and est.seed == 3
    assert est.n_nonzero == 1 << 9
    assert est.ess == 1 << 9
    assert est.worst_stratum_var_share == 0.0
    # only the first stratum varies, so it carries all of the variance
    w = []

    def integrand(x):
        out = np.where(x[:, 0] < 1 / 8, x[:, 1], 0.5)
        w.append(out)
        return out

    est = stratified_monte_carlo(integrand, 2, (8,), 1 << 10, seed=3)
    w = np.concatenate(w)
    assert est.n_nonzero == 1 << 10
    assert est.ess == pytest.approx(math.fsum(w) ** 2 / math.fsum(w * w),
                                    rel=1e-14)
    assert est.worst_stratum_var_share == 1.0


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


@pytest.mark.parametrize("e_i, omega0", [(5.0, 0.001), (25.0, 0.001),
                                         (50.0, 0.01)],
                         ids=["gamma10", "gamma49", "gamma98"])
def test_single_total_at_intermediate_boost(e_i, omega0):
    # the photon leaves within ~m/E of the electron's direction; a uniform
    # cos(theta) map, which the totals used up to a Lorentz factor of 100,
    # read 5-24% errors here at the same budget
    setup = CollisionSetup(e_i, omega0)
    res = total_cross_section(setup, 0.0, "single", budget=1 << 15, seed=5)
    assert res.statistical_error <= 0.01 * res.value
    assert res.value == pytest.approx(klein_nishina_total(setup),
                                      abs=3 * res.statistical_error)


@pytest.mark.parametrize("e_i", [M, 25.0], ids=["rest", "gamma49"])
def test_sphere_jacobian_covers_full_sphere(e_i):
    # midpoints in the radial coordinate: the weight integrates to the
    # sphere's 4 pi, and the directions run from theta = pi to theta = 0
    n = 1 << 16
    x = np.column_stack([(np.arange(n) + 0.5) / n, np.full(n, 0.5)])
    weight = np.ones(n)
    angles = integration._sphere_angles(CollisionSetup(e_i, 0.001))
    thetas, _ = angles(x, weight)
    assert weight.mean() == pytest.approx(4 * math.pi, rel=1e-7)
    assert thetas.max() > math.pi - 1e-3 and thetas.min() < 1e-3


def test_collider_single_total_exact_above_threshold(xfel_setup):
    # the README totals run's single process, 5 GeV on 1 keV with every
    # photon above 50 MeV: the quadrature matches a 30-digit mpmath.quad of
    # the same rest-frame integral, 0.0306335386440682 b, and at the lab
    # threshold omega0 the closed-form Klein-Nishina total
    exact = klein_nishina_above(xfel_setup, 50.0)
    assert exact == pytest.approx(0.0306335386441, rel=1e-9)
    assert klein_nishina_above(xfel_setup, xfel_setup.omega0_mev) \
        == pytest.approx(klein_nishina_total(xfel_setup), rel=1e-12)
    for seed in (1, 2):
        res = total_cross_section(xfel_setup, 50.0, "single",
                                  budget=1 << 14, seed=seed)
        assert abs(res.value - exact) <= 4 * res.statistical_error, seed


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


def _separable(monkeypatch, f):
    """Replace the cross section the estimators integrate by f(thetas,
    omegas_free)."""
    monkeypatch.setattr(
        integration, "unpolarized_differential_batch",
        lambda setup, thetas, phis, omegas, eps: f(thetas, omegas))


def _inverse_energies(thetas, omegas):
    return 1.0 / (omegas[0] * omegas[1])


def test_importance_sampling_unbiased_rest(monkeypatch, rest_setup):
    # separable 1/(w1 w2) over the mapped domain has the closed form
    # (4 pi)^3 log(wmax/eps)^2 / 3!; the log-uniform map makes its energy
    # factor exactly flat, and the cone's angle weights carry the error
    eps = 0.013
    span = math.log(rest_setup.omega_max / eps)
    expected = (4 * math.pi) ** 3 * span ** 2 / 6
    _separable(monkeypatch, _inverse_energies)
    value, error = total_cross_section(rest_setup, eps, "triple",
                                       budget=1 << 12, seed=1)[:2]
    assert value == pytest.approx(expected, abs=3 * error + 1e-9 * expected)


def test_importance_sampling_unbiased_backscatter(monkeypatch, xfel_setup):
    # the cone map deliberately starves the near-forward hemisphere (where
    # the physical integrand vanishes), so the separable test integrand is
    # restricted to the well-sampled backscatter cone delta < delta_c whose
    # angular volume 2 pi (1 - cos delta_c) is exact
    eps = 50.0
    span = math.log(xfel_setup.omega_max / eps)
    delta_c = 20.0 * M / xfel_setup.e_i_mev
    cone = 2 * math.pi * (1 - math.cos(delta_c))
    expected = cone ** 2 * span / 2

    def integrand(thetas, omegas):
        inside = ((math.pi - thetas) < delta_c).all(axis=0)
        return np.where(inside, 1.0 / omegas[0], 0.0)

    _separable(monkeypatch, integrand)
    value, error = total_cross_section(xfel_setup, eps, "double",
                                       budget=1 << 16, seed=6)[:2]
    assert error > 0
    assert value == pytest.approx(expected, abs=3 * error)


def test_window_jacobian_exact(monkeypatch, rest_setup):
    # 1/(w1 w2) makes every weight the same constant: the energy span
    # squared times each window's (cos theta, phi) area, over Omega^3
    thetas, phis, omega, eps = (1.2, 2.0, 0.9), (0.4, 2.5, 4.4), 0.378, 0.013
    root = math.sqrt(omega)
    half = math.asin(root / 2)
    span = math.log(rest_setup.omega_max / eps)
    expected = span ** 2 * math.prod(
        (math.cos(t - half) - math.cos(t + half)) * root
        for t in thetas) / omega ** 3
    _separable(monkeypatch, _inverse_energies)
    res = detector_average(rest_setup, thetas, phis, omega, eps,
                           budget=1 << 10, seed=2)
    assert res.value == pytest.approx(expected, rel=1e-14)
    # the weights differ only by rounding, and so must the error estimate
    assert res.statistical_error <= 1e-14 * res.value


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
    # a NaN threshold used to return nan (triple) or 0.0 (single), and
    # -1.0 the single total at threshold 0
    for process in ("single", "double", "triple"):
        for eps in (math.nan, -1.0):
            with pytest.raises(ValueError, match="threshold"):
                total_cross_section(rest_setup, eps, process,
                                    budget=1 << 12)


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
    # NaN inputs used to return value=nan (a NaN phi gave 0.0), and two
    # thetas raised IndexError
    nan = math.nan
    for thetas, phis, omega, eps in (
            ((nan, 1.5, 1.5), MGBR_PHIS, 0.378, 0.013),
            (MGBR_THETAS, (nan, 1.0, 2.0), 0.378, 0.013),
            (MGBR_THETAS, (math.inf, 1.0, 2.0), 0.378, 0.013),
            (MGBR_THETAS, MGBR_PHIS, nan, 0.013),
            (MGBR_THETAS, MGBR_PHIS, 0.378, nan),
            (MGBR_THETAS[:2], MGBR_PHIS, 0.378, 0.013),
            (MGBR_THETAS, MGBR_PHIS + (0.0,), 0.378, 0.013)):
        with pytest.raises(ValueError):
            detector_average(rest_setup, thetas, phis, omega, eps,
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
    # a cross section that is not finite or is negative used to give a nan
    # or negative rate
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="sigma_barn"):
            event_rate(bad, beams)
    for bad in (-1.0, math.nan, math.inf):
        for k in (0, 1, 3):
            values = [2e13, 1e9, 40.0, 120.0]
            values[k] = bad
            with pytest.raises(ValueError):
                BeamParameters(*values)
    # the rate divides by the overlap area, which a zero size makes zero
    # and an infinite one (a rate of 0.0) makes infinite
    for size in (0.0, -40.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="transverse_size_um"):
            BeamParameters(2e13, 1e9, size, 120.0)


def test_fractional_seed_and_budget_rejected(rest_setup):
    # a fractional seed or budget used to be truncated silently: seed 1.5
    # ran as seed 1 and was recorded as 1.5, budget 4096.9 ran as 4096
    window = (MGBR_THETAS, MGBR_PHIS, 0.378, 0.013)
    assert total_cross_section(rest_setup, 0.0, "single", budget=4096.0,
                               seed=1.0) == total_cross_section(
        rest_setup, 0.0, "single", budget=4096, seed=1)
    assert detector_average(rest_setup, *window, budget=1024.0,
                            seed=2.0) == detector_average(
        rest_setup, *window, budget=1024, seed=2)
    for budget, seed in ((4096, 1.5), (4096.9, 1), (4096, math.nan),
                         (math.inf, 1)):
        with pytest.raises(ValueError, match="not an integer"):
            total_cross_section(rest_setup, 0.0, "single", budget=budget,
                                seed=seed)
        with pytest.raises(ValueError, match="not an integer"):
            detector_average(rest_setup, *window, budget=budget, seed=seed)
    # substream truncated as well: seed 1.5 drew seed 1's numbers
    for seed in (1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"seed {seed!r} is not an "
                           "integer"):
            substream(seed, 0)


def test_integration_result_fields(rest_setup):
    res = total_cross_section(rest_setup, 0.0, "single", budget=1 << 12,
                              seed=21)
    assert isinstance(res, IntegrationResult)
    assert res.statistical_error >= 0
    assert res.n_samples == (1 << 12) // 64 * 64
    assert res.seed == 21
    # every one-photon weight at rest is non-zero
    assert res.n_nonzero == res.n_samples
    assert 0 < res.ess < res.n_samples
    assert 0 < res.worst_stratum_var_share < 1
