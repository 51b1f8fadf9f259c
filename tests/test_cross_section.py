import itertools
import math

import numpy as np
import pytest

from triplecompton.constants import (ALPHA, ELECTRON_MASS_MEV as M,
                                     HBARC2_MEV2_BARN)
from triplecompton.cross_section import (PANEL_ORDER, _tensor_for_points,
                                         grid_tensor,
                                         sigma5, sigma5_panel_grids,
                                         spin_summed_sigma5,
                                         unpolarized_differential_batch,
                                         unpolarized_sigma5,
                                         unpolarized_sigma5_batch)
from triplecompton.kinematics import (CollisionSetup, _close_arrays,
                                      close_batch, threshold_boundary)
from conftest import (MGBR_PHIS, MGBR_THETAS, XFEL_PHIS, XFEL_THETAS,
                      close_point)


def klein_nishina_dcs(omega0, theta):
    """Closed-form unpolarized one-photon cross section, b/sr (oracle)."""
    ratio = 1.0 / (1.0 + omega0 / M * (1.0 - math.cos(theta)))
    return (0.5 * ALPHA ** 2 / (M * M) * ratio ** 2
            * (ratio + 1.0 / ratio - math.sin(theta) ** 2)
            * HBARC2_MEV2_BARN)


def klein_nishina_polarized_dcs(omega0, theta, cos_pol_angle):
    """Polarized closed form: (re^2/4)(w'/w)^2 (w'/w + w/w' - 2 + 4cos^2)."""
    ratio = 1.0 / (1.0 + omega0 / M * (1.0 - math.cos(theta)))
    re2 = ALPHA ** 2 / (M * M) * HBARC2_MEV2_BARN
    return (0.25 * re2 * ratio ** 2
            * (ratio + 1.0 / ratio - 2.0 + 4.0 * cos_pol_angle ** 2))


def test_klein_nishina_oracle_20x3():
    thetas = np.linspace(0.05, math.pi - 0.05, 20)
    for omega0 in (0.1, 0.662, 10.0):
        setup = CollisionSetup.rest_frame(omega0)
        values = unpolarized_differential_batch(
            setup, thetas[None, :], np.zeros((1, 20)), np.zeros((0, 20)),
            0.0)
        expected = np.array([klein_nishina_dcs(omega0, t) for t in thetas])
        assert np.abs(values / expected - 1.0).max() < 1e-9


def test_polarized_klein_nishina():
    from triplecompton import amplitude as am

    setup = CollisionSetup.rest_frame(0.662)
    for theta, phi in ((0.7, 0.0), (1.3, 0.9), (2.2, 4.0)):
        w_out, k_out, p_f, kfac, _ = _close_arrays(
            setup, np.array([[theta]]), np.array([[phi]]), np.zeros((0, 1)))
        eps = [am.beam_basis_arrays(),
               am.outgoing_basis_arrays(np.array([theta]), np.array([phi]))]
        tensor = am.amplitude_tensor(setup, k_out, p_f, eps)
        pref = (ALPHA ** 2 * w_out[0] / (p_f[0, 0] * setup.flux
                                         * abs(kfac[0])) * HBARC2_MEV2_BARN)
        for lam in (1, 2):
            msq = 0.5 * (np.abs(tensor[0, 0, lam - 1]) ** 2).sum()
            e_out = am.outgoing_basis_arrays(
                np.asarray(theta), np.asarray(phi))[lam - 1, 1:]
            cospol = float(np.dot([1.0, 0.0, 0.0], e_out))
            assert pref * msq == pytest.approx(
                klein_nishina_polarized_dcs(0.662, theta, cospol), rel=1e-9)


def test_forward_limit_is_classical_radius():
    setup = CollisionSetup.rest_frame(1e-6)
    value = unpolarized_differential_batch(
        setup, np.array([[1e-4]]), np.array([[0.0]]), np.zeros((0, 1)), 0.0)
    assert value[0] == pytest.approx(0.07941, rel=2e-4)


def test_collinear_null(rest_setup):
    tiny = sigma5(rest_setup, (1e-8, 1e-8, 1e-8), (0.0, 2.0, 4.0), 0.1, 0.2)
    nearby = sigma5(rest_setup, (0.3, 0.3, 0.3), (0.0, 2.0, 4.0), 0.1, 0.2)
    assert nearby > 0
    assert tiny <= 1e-12 * nearby


def test_threshold_clamp(rest_setup):
    point = (MGBR_THETAS, MGBR_PHIS, 0.01, 0.1)
    assert sigma5(rest_setup, *point, threshold_eps=0.013) == 0.0
    assert close_point(rest_setup, *point)[4]
    assert sigma5(rest_setup, *point, threshold_eps=0.0) > 0.0


def test_infrared_scaling(rest_setup):
    # w1 * sigma5 approaches a constant as w1 -> 0 at fixed directions
    products = []
    for frac in (1e-3, 1e-4, 1e-5):
        w1 = frac * 0.662
        value = unpolarized_sigma5(rest_setup, MGBR_THETAS, MGBR_PHIS,
                                   w1, 0.1, threshold_eps=0.0)
        products.append(w1 * value)
    assert products[0] > 0
    assert abs(products[1] / products[0] - 1.0) < 0.01
    assert abs(products[2] / products[1] - 1.0) < 0.01


def _null(theta, phi):
    return np.array([1.0, math.sin(theta) * math.cos(phi),
                     math.sin(theta) * math.sin(phi), math.cos(theta)])


def soft_photon_factor(setup, theta, phi, omega, p_f):
    """Soft-photon theorem (F. E. Low, Phys. Rev. 110 (1958) 974): emitting
    one more photon of energy omega -> 0 at (theta, phi) multiplies a cross
    section by (alpha/4 pi^2) S/omega per MeV sr, S = sum_eps (eps.J)^2 over
    both transverse polarizations and J = p_f/(n.p_f) - p_i/(n.p_i), with
    p_f the final electron without the soft photon (closed form)."""
    n = _null(theta, phi)
    j = np.subtract(*(p[1:] / (p[0] - p[1:] @ n[1:])
                      for p in (p_f, setup.p_i)))
    return ALPHA / (4.0 * math.pi ** 2) * (j @ j - (n[1:] @ j) ** 2) / omega


@pytest.mark.parametrize("process", ["double", "triple"])
def test_soft_photon_limit_pins_normalization(process):
    # r(x) = dsigma_{n+1} / (soft factor * dsigma_n) - 1 must fall to 0
    # linearly in x, the soft photon's energy over a hard scale: this ties
    # the two-photon normalization to Klein-Nishina and the three-photon one
    # to the two-photon engine.  At x = 1e-4, 1e-5 r reads -1.570e-4,
    # -1.570e-5 (double) and -9.303e-5, -9.303e-6 (triple); the Richardson
    # limit (10 r(x/10) - r(x))/9 reads 2.2e-9 and -4.6e-10
    setup = CollisionSetup.rest_frame(0.662)
    if process == "double":
        # soft photon at (1.1, 0.7), the Klein-Nishina photon at (2.3, 3.9)
        thetas, phis, scale = np.array([1.1, 2.3]), np.array([0.7, 3.9]), 0.662
        w_kn = scale / (1.0 + scale / M * (1.0 - math.cos(thetas[1])))
        p_f = setup.p_i + setup.k_0 - w_kn * _null(thetas[1], phis[1])
        hard = klein_nishina_dcs(scale, thetas[1])
    else:
        # soft photon 1 beside a double at omega2 = 0.1 MeV
        thetas, phis, scale = (np.array([1.2, 1.9, 2.6]),
                               np.array([0.4, 2.5, 4.4]), 0.1)
        p_f = _close_arrays(setup, thetas[1:, None], phis[1:, None],
                            [[scale]])[2][0]
        hard = unpolarized_differential_batch(
            setup, thetas[1:, None], phis[1:, None], [[scale]])[0]

    def r(x):
        omegas = [[x * scale]] + [[scale]] * (len(thetas) - 2)
        soft = unpolarized_differential_batch(
            setup, thetas[:, None], phis[:, None], omegas)[0]
        return soft / (soft_photon_factor(setup, thetas[0], phis[0],
                                          x * scale, p_f) * hard) - 1.0

    r4, r5 = r(1e-4), r(1e-5)
    assert abs(r4 / r5 - 10.0) < 0.01
    assert abs((10.0 * r5 - r4) / 9.0) < 1e-8


def test_spin_summed_unrolls(rest_setup):
    point = ((1.2, 2.0, 0.9), (0.4, 2.5, 4.4), 0.1, 0.15)
    total = 0.0
    for r_i, r_f in itertools.product((1, 2), repeat=2):
        total += sigma5(rest_setup, *point, beam_pol=1,
                        final_pols=(1, 2, 1), r_i=r_i, r_f=r_f)
    summed = spin_summed_sigma5(rest_setup, *point, beam_pol=1,
                                final_pols=(1, 2, 1))
    assert summed == pytest.approx(0.5 * total, rel=1e-10)


def test_unpolarized_unrolls(rest_setup):
    thetas, phis = (1.2, 2.0, 0.9), (0.4, 2.5, 4.4)
    total = 0.0
    for beam in (1, 2):
        for pols in itertools.product((1, 2), repeat=3):
            for r_i, r_f in itertools.product((1, 2), repeat=2):
                total += sigma5(rest_setup, thetas, phis, 0.1, 0.15, beam,
                                pols, r_i, r_f)
    value = unpolarized_sigma5(rest_setup, thetas, phis, 0.1, 0.15)
    assert value == pytest.approx(0.25 * total, rel=1e-10)


def test_beam_basis_independence(rest_setup):
    thetas, phis = (1.2, 2.0, 0.9), (0.4, 2.5, 4.4)
    reference = unpolarized_sigma5(rest_setup, thetas, phis, 0.1, 0.15)
    # any orthonormal transverse pair gives the same initial-state average
    for chi in (0.3, 1.1, 2.0):
        total = 0.0
        pair_a = (math.cos(chi), math.sin(chi))
        pair_b = (-math.sin(chi), math.cos(chi))
        for beam in (pair_a, pair_b):
            for pols in itertools.product((1, 2), repeat=3):
                total += spin_summed_sigma5(
                    rest_setup, thetas, phis, 0.1, 0.15, beam_pol=beam,
                    final_pols=pols)
        # the two spin_summed halves already carry the 1/2 spin average;
        # the beam average adds another factor 1/2
        assert 0.5 * total == pytest.approx(reference, rel=1e-10)


@pytest.mark.parametrize("frame", ["rest", "collider"])
def test_polarized_beam_bit_for_bit(rest_setup, xfel_setup, frame):
    # a beam label hands the kernel that one basis vector, and each
    # polarization entry is computed on its own: the polarized tensor is the
    # beam-summed tensor's slice to the bit, and a one-point spin sum is the
    # matching panel cell exactly
    rng = np.random.default_rng(61)
    if frame == "rest":
        setup, thetas, phis = rest_setup, (1.2, 2.0, 0.9), (0.4, 2.5, 4.4)
        th = np.arccos(rng.uniform(-1, 1, (3, 400)))
        grid = np.linspace(0.05, 0.3, 4)
    else:
        setup, thetas, phis = xfel_setup, XFEL_THETAS, XFEL_PHIS
        th = math.pi - rng.uniform(0.0, 3e-3, (3, 400))
        grid = np.linspace(200.0, 1200.0, 4)
    ph = rng.uniform(0, 2 * math.pi, (3, 400))
    w = rng.uniform(0.02, 0.4, (2, 400)) * setup.omega_max
    both, _, keep = _tensor_for_points(setup, th, ph, w)
    assert keep.sum() >= 100
    for label in (1, 2):
        tensor = _tensor_for_points(setup, th, ph, w, 0.0, label)[0]
        assert tensor.shape[1] == 1
        assert np.array_equal(tensor[:, 0], both[:, label - 1])
        panels, masked = sigma5_panel_grids(setup, thetas, phis, grid, grid,
                                            label)
        assert (~masked).sum() >= 4
        for i, j in np.argwhere(~masked):
            for pols in PANEL_ORDER:
                value = spin_summed_sigma5(
                    setup, thetas, phis, grid[i], grid[j], beam_pol=label,
                    final_pols=tuple(int(c) for c in pols))
                assert value == panels[pols][i, j]


def test_polarized_entry_points_reject_unset_beam(rest_setup):
    # beam_pol=None would evaluate both beam basis vectors, of which every
    # polarized entry point reads one
    from triplecompton.entanglement import density_from_amplitudes, tau_grid

    thetas, phis = (1.2, 2.0, 0.9), (0.4, 2.5, 4.4)
    calls = (
        lambda: sigma5(rest_setup, thetas, phis, 0.1, 0.15, beam_pol=None,
                       final_pols=(1, 2, 1), r_f=2),
        lambda: spin_summed_sigma5(rest_setup, thetas, phis, 0.1, 0.15,
                                   beam_pol=None),
        lambda: sigma5_panel_grids(rest_setup, thetas, phis, [0.1], [0.15],
                                   beam_pol=None),
        lambda: density_from_amplitudes(rest_setup, thetas, phis, 0.1, 0.15,
                                        beam_pol=None),
        lambda: tau_grid(rest_setup, thetas, phis, [0.1], [0.15],
                         beam_pol=None))
    for call in calls:
        with pytest.raises(ValueError, match="not None"):
            call()


def test_sigma5_nonnegative_everywhere(rest_setup):
    rng = np.random.default_rng(17)
    thetas = np.arccos(rng.uniform(-1, 1, (3, 64)))
    phis = rng.uniform(0, 2 * math.pi, (3, 64))
    w1 = rng.uniform(0.005, 0.5, 64)
    w2 = rng.uniform(0.005, 0.5, 64)
    values = unpolarized_sigma5_batch(rest_setup, thetas, phis, w1, w2,
                                      0.013)
    assert (values >= 0.0).all()
    _, _, _, _, physical = close_batch(rest_setup, thetas, phis, w1, w2)
    assert (values[~physical] == 0.0).all()


def test_sigma5_against_high_precision_reference(rest_setup):
    from _highprec import spin_summed_sigma5 as mp_sigma5

    thetas, phis = (1.2, 2.0, 0.9), (0.4, 2.5, 4.4)
    # every final polarization channel: each sums its insertion orders in
    # its own rounding order
    for pols in itertools.product((1, 2), repeat=3):
        mine = spin_summed_sigma5(rest_setup, thetas, phis, 0.1, 0.15,
                                  beam_pol=1, final_pols=pols)
        reference = float(mp_sigma5(M, 0.662, thetas, phis, 0.1, 0.15,
                                    pols=pols, beam_label=1))
        assert mine == pytest.approx(reference, rel=1e-10), pols


@pytest.fixture(scope="module")
def xfel_panels(xfel_setup):
    w1 = np.linspace(60.0, 1300.0, 14)
    w2 = np.linspace(60.0, 1300.0, 14)
    panels, masked = sigma5_panel_grids(xfel_setup, XFEL_THETAS, XFEL_PHIS,
                                        w1, w2, beam_pol=1,
                                        threshold_eps=50.0)
    return w1, w2, panels, masked


def test_panels_nonnegative_and_masked(xfel_setup, xfel_panels):
    w1, w2, panels, masked = xfel_panels
    for label in PANEL_ORDER:
        assert (panels[label] >= 0.0).all()
        assert (panels[label][masked] == 0.0).all()
    # mask is exactly the physical & threshold condition
    w1m, w2m = np.meshgrid(w1, w2, indexing="ij")
    th = np.repeat(np.array(XFEL_THETAS)[:, None], w1m.size, axis=1)
    ph = np.repeat(np.array(XFEL_PHIS)[:, None], w1m.size, axis=1)
    w3, _, _, _, physical = close_batch(xfel_setup, th, ph, w1m.ravel(),
                                        w2m.ravel())
    expected = ~(physical & (w3 >= 50.0)
                 & (w1m.ravel() >= 50.0) & (w2m.ravel() >= 50.0))
    assert (masked.ravel() == expected).all()


def test_panel_exchange_symmetry(xfel_panels):
    # photon 1 <-> 2 exchange maps panels b<->c and f<->g and fixes a,d,e,h;
    # with the reflection-symmetric detector triangle the grids transpose
    w1, w2, panels, masked = xfel_panels
    pairs = [("211", "121"), ("212", "122"), ("111", "111"), ("112", "112"),
             ("221", "221"), ("222", "222")]
    for a, b in pairs:
        pa, pb = panels[a], panels[b].T
        both = ~masked & ~masked.T & (pa > 0)
        assert both.any()
        # exact symmetry, observed up to the double-precision cancellation
        # noise of the small polarization channels (~1e-6 at backscatter)
        assert np.abs(pa[both] / pb[both] - 1.0).max() < 1e-4


def _closed_w3(setup, thetas, phis, w1, w2):
    th = np.array(thetas)[:, None]
    ph = np.array(phis)[:, None]
    w3, _, _, _, physical = close_batch(setup, th, ph, np.array([w1]),
                                        np.array([w2]))
    return w3[0], physical[0]


def test_threshold_boundary_on_curve(xfel_setup):
    pts = threshold_boundary(xfel_setup, XFEL_THETAS, XFEL_PHIS,
                             np.linspace(100, 1000, 5), 50.0)
    assert len(pts) == 5
    for w1, w2 in pts:
        w3, physical = _closed_w3(xfel_setup, XFEL_THETAS, XFEL_PHIS, w1, w2)
        assert physical
        assert w3 == pytest.approx(50.0, rel=1e-9)


def test_threshold_boundary_narrow_crossing(xfel_setup):
    # here w3 falls from the threshold to zero within 7 MeV of omega2, less
    # than one 9.7 MeV step of a 512-point scan over [0, omega_max]
    thetas = tuple(math.pi - np.array([1.6e-3, 1.0e-3, 0.5e-3]))
    phis = (5.6, 2.7, 0.9)
    pts = threshold_boundary(xfel_setup, thetas, phis, [900.0], 50.0)
    assert len(pts) == 1
    w1, w2 = pts[0]
    assert w1 == 900.0
    assert w2 == pytest.approx(1576.63666, rel=1e-8)
    w3, physical = _closed_w3(xfel_setup, thetas, phis, w1, w2)
    assert physical
    assert w3 == pytest.approx(50.0, rel=1e-9)
    w3_before, physical_before = _closed_w3(xfel_setup, thetas, phis, w1,
                                            w2 * (1.0 - 1e-6))
    assert physical_before
    assert w3_before > 50.0
    # a row whose derived photon never falls through the threshold
    assert threshold_boundary(xfel_setup, XFEL_THETAS, XFEL_PHIS, [1400.0],
                              50.0) == []


def test_unit_conversion_round_trip(rest_setup):
    # one named constant, applied once; barn <-> natural round trip is exact
    # to representation precision
    assert HBARC2_MEV2_BARN == pytest.approx(389.3793721, rel=1e-12)
    value_barn = unpolarized_sigma5(rest_setup, (1.2, 2.0, 0.9),
                                    (0.4, 2.5, 4.4), 0.1, 0.15)
    natural = value_barn / HBARC2_MEV2_BARN
    assert natural * HBARC2_MEV2_BARN == pytest.approx(value_barn,
                                                       rel=1e-15)


def test_unphysical_point_returns_zero(rest_setup):
    value = sigma5(rest_setup, MGBR_THETAS, MGBR_PHIS, 0.32, 0.32)
    assert type(value) is float
    assert value == 0.0
    assert not close_point(rest_setup, MGBR_THETAS, MGBR_PHIS, 0.32, 0.32)[4]


def test_non_finite_phase_space_input_raises(rest_setup, xfel_setup):
    # a NaN or infinite angle or free energy used to read as an ordinary
    # unphysical point: sigma5 0.0, a masked panel cell, no boundary row
    nan, inf = math.nan, math.inf
    thetas, phis = (1.2, 2.0, 0.9), (0.4, 2.5, 4.4)
    for bad in ((thetas, phis, nan, 0.15), (thetas, phis, 0.1, inf),
                ((1.2, nan, 0.9), phis, 0.1, 0.15),
                (thetas, (0.4, 2.5, -inf), 0.1, 0.15)):
        for evaluate in (
                lambda: sigma5(rest_setup, *bad),
                lambda: close_point(rest_setup, *bad),
                lambda: spin_summed_sigma5(rest_setup, *bad),
                lambda: unpolarized_sigma5(rest_setup, *bad),
                lambda: sigma5_panel_grids(rest_setup, bad[0], bad[1],
                                           [0.05, bad[2]], [bad[3], 0.2])):
            with pytest.raises(ValueError, match="finite"):
                evaluate()
    # a NaN threshold kept no row (sigma5 0.0 at a physical point), and -inf
    # and -1.0 read as no threshold
    for eps in (nan, inf, -inf, -1.0):
        for evaluate in (
                lambda: sigma5(rest_setup, thetas, phis, 0.1, 0.15,
                               threshold_eps=eps),
                lambda: spin_summed_sigma5(rest_setup, thetas, phis, 0.1,
                                           0.15, threshold_eps=eps),
                lambda: unpolarized_sigma5(rest_setup, thetas, phis, 0.1,
                                           0.15, threshold_eps=eps),
                lambda: sigma5_panel_grids(rest_setup, thetas, phis,
                                           [0.05, 0.1], [0.15, 0.2],
                                           threshold_eps=eps)):
            with pytest.raises(ValueError, match="finite"):
                evaluate()
    # the boundary solves for omega2 in closed form and never closes a row
    # with a bad entry: a NaN angle or threshold or a threshold of -1.0
    # used to give [], and a NaN omega1 entry was dropped from the rows
    for thetas, phis, w1s, eps in (
            ((nan,) + XFEL_THETAS[1:], XFEL_PHIS, [500.0], 50.0),
            (XFEL_THETAS, XFEL_PHIS[:2] + (inf,), [500.0], 50.0),
            (XFEL_THETAS, XFEL_PHIS, [100.0, nan, 1000.0], 50.0),
            (XFEL_THETAS, XFEL_PHIS, [500.0], nan),
            (XFEL_THETAS, XFEL_PHIS, [500.0], -1.0)):
        with pytest.raises(ValueError, match="finite"):
            threshold_boundary(xfel_setup, thetas, phis, w1s, eps)


def test_negative_free_energy_raises(rest_setup):
    # a negative free energy would close as a physical point
    point = ((1.2, 2.0, 0.9), (0.4, 2.5, 4.4), -0.05, 0.15)
    for evaluate in (lambda: close_point(rest_setup, *point),
                     lambda: sigma5(rest_setup, *point)):
        with pytest.raises(ValueError, match="negative"):
            evaluate()


@pytest.mark.parametrize("frame", ["rest", "xfel"])
def test_grid_tensor_equals_repeated_directions_bit_for_bit(
        rest_setup, xfel_setup, frame):
    # grid_tensor passes its three directions once, as (3, 1) arrays; the
    # closure, the kept rows and every amplitude must equal the per-point
    # evaluation with the directions repeated at every cell
    if frame == "rest":
        setup, thetas, phis = rest_setup, MGBR_THETAS, MGBR_PHIS
        w1s, w2s = np.linspace(0.013, 0.4, 7), np.linspace(0.013, 0.4, 6)
    else:
        setup, thetas, phis = xfel_setup, XFEL_THETAS, XFEL_PHIS
        w1s, w2s = np.linspace(50.0, 1400.0, 7), np.linspace(50.0, 1400.0, 6)
    n = w1s.size * w2s.size
    w = np.stack([a.ravel() for a in np.meshgrid(w1s, w2s, indexing="ij")])
    th = np.repeat(np.array(thetas)[:, None], n, axis=1)
    ph = np.repeat(np.array(phis)[:, None], n, axis=1)
    for beam_pol in (1, 2, (0.6, 0.8)):
        got = grid_tensor(setup, thetas, phis, w1s, w2s, beam_pol, 0.013)
        want = _tensor_for_points(setup, th, ph, w, 0.013, beam_pol)
        assert 0 < got[2].sum() < n
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("entry", [
    "close_batch", "sigma5_panel_grids", "spin_summed_sigma5",
    "unpolarized_sigma5", "density_from_amplitudes", "tau_grid",
    "threshold_boundary", "detector_average"])
def test_wrong_direction_count_raises(rest_setup, entry):
    # 3 thetas with 2 phis raised IndexError in the closure, and 2 or 4
    # directions a numpy reshape error from the grid entry points;
    # unpolarized_sigma5 took two directions as the two-photon process,
    # ignored omega2 and returned 2.2049e-05; threshold_boundary raised
    # "not enough values to unpack" on two directions
    from triplecompton.entanglement import density_from_amplitudes, tau_grid
    from triplecompton.integration import detector_average

    calls = {
        "close_batch": lambda th, ph: close_batch(
            rest_setup, np.array(th)[:, None], np.array(ph)[:, None],
            [0.1], [0.15]),
        "sigma5_panel_grids": lambda th, ph: sigma5_panel_grids(
            rest_setup, th, ph, [0.1], [0.15]),
        "spin_summed_sigma5": lambda th, ph: spin_summed_sigma5(
            rest_setup, th, ph, 0.1, 0.15),
        "unpolarized_sigma5": lambda th, ph: unpolarized_sigma5(
            rest_setup, th, ph, 0.1, 0.15),
        "density_from_amplitudes": lambda th, ph: density_from_amplitudes(
            rest_setup, th, ph, 0.1, 0.15),
        "tau_grid": lambda th, ph: tau_grid(rest_setup, th, ph, [0.1],
                                            [0.15]),
        "threshold_boundary": lambda th, ph: threshold_boundary(
            rest_setup, th, ph, [0.1], 0.013),
        "detector_average": lambda th, ph: detector_average(
            rest_setup, th, ph, 0.378, 0.013, budget=128),
    }
    thetas, phis = (1.2, 2.0, 0.9, 0.5), (0.4, 2.5, 4.4, 1.0)
    if entry == "close_batch":
        counts, match = ((3, 2), (2, 3)), "does not match"
        # two directions take one free energy per point, not omega1 and
        # omega2; that raised numpy's bare reshape error
        with pytest.raises(ValueError, match=r"n_out - 1 = 1 free photon "
                           r"energies per point, 1 values at 1 point\(s\), "
                           r"got 2"):
            calls[entry](thetas[:2], phis[:2])
    else:
        counts, match = ((2, 2), (4, 4), (3, 2), (3, 4)), "three thetas"
    for n_thetas, n_phis in counts:
        with pytest.raises(ValueError, match=match):
            calls[entry](thetas[:n_thetas], phis[:n_phis])


@pytest.mark.parametrize("entry", [sigma5, spin_summed_sigma5])
@pytest.mark.parametrize("final_pols", [(1, 1), (1, 2, 1, 2)],
                         ids=["two", "four"])
def test_wrong_photon_label_count_raises(rest_setup, entry, final_pols):
    # two labels raised a bare KeyError ('11') from spin_summed_sigma5 and
    # "not enough values to unpack" from sigma5
    with pytest.raises(ValueError, match="need three photon labels"):
        entry(rest_setup, (1.2, 2.0, 0.9), (0.4, 2.5, 4.4), 0.1, 0.15,
              final_pols=final_pols)


def test_grid_path_independent_of_kernel_rows(xfel_setup, monkeypatch):
    # the kernel evaluates the grid's kept rows in passes of at most
    # amplitude.KERNEL_ROWS; panels and tau states must not depend on the
    # pass size, and no pass may exceed it
    from triplecompton import amplitude, entanglement

    kernel_pass, rows = amplitude._kernel_pass, []

    def counted(setup, k_out, p_f, eps_arrays):
        rows.append(p_f.shape[0])
        return kernel_pass(setup, k_out, p_f, eps_arrays)

    class Cell:
        tau = 0.0

    states = []

    def state(rho):
        states.append(rho)
        return Cell()

    monkeypatch.setattr(amplitude, "_kernel_pass", counted)
    monkeypatch.setattr(entanglement, "gme_tau", state)
    w1s, w2s = np.linspace(50.0, 1400.0, 23), np.linspace(50.0, 1400.0, 19)
    runs = []
    for chunk in (1, 7, 256, 10 ** 6):
        monkeypatch.setattr(amplitude, "KERNEL_ROWS", chunk)
        rows.clear()
        states.clear()
        panels, masked = sigma5_panel_grids(xfel_setup, XFEL_THETAS,
                                            XFEL_PHIS, w1s, w2s, 1, 50.0)
        taus = entanglement.tau_grid(xfel_setup, XFEL_THETAS, XFEL_PHIS,
                                     w1s[::3], w2s[::3], 1, 50.0)
        kept = int((~masked).sum()) + int((~taus[1]).sum())
        assert max(rows) <= chunk and sum(rows) == kept
        runs.append((panels, masked, list(states)))
    assert 0 < len(runs[0][2]) and masked.any() and not masked.all()
    for panels, masked, states in runs[1:]:
        assert np.array_equal(masked, runs[0][1])
        for label in PANEL_ORDER:
            assert np.array_equal(panels[label], runs[0][0][label])
        assert len(states) == len(runs[0][2])
        for a, b in zip(states, runs[0][2]):
            assert np.array_equal(a, b)
