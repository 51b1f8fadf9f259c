import gc
import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest

from triplecompton import algebra as al
from triplecompton import amplitude as am
from triplecompton.constants import ELECTRON_MASS_MEV as M
from triplecompton.kinematics import CollisionSetup, _close_arrays
from conftest import (MGBR_PHIS, MGBR_THETAS, XFEL_PHIS, XFEL_THETAS,
                      close_point, random_physical_configs)
from _oracle import PERMUTATIONS4, naive_total_amplitude, propagator_momenta


def _beam_eps(label):
    return am.beam_basis_arrays()[0, label - 1]


def _eps(theta, phi, label):
    return am.outgoing_basis_arrays(np.asarray(theta),
                                    np.asarray(phi))[label - 1]


def _args(setup, point, closed, labels=(1, 1, 1, 1), r_i=1, r_f=1):
    """point_amplitude's arguments at a point and its closure (photons,
    p_f, ...), polarization labels beam first."""
    thetas, phis = point[:2]
    eps = [_beam_eps(labels[0])] + [
        _eps(t, p, lab) for t, p, lab in zip(thetas, phis, labels[1:])]
    return setup, closed[0], closed[1], tuple(eps), r_i, r_f


@pytest.fixture(scope="module")
def sample_point(rest_setup):
    point = ((1.2, 2.0, 0.9), (0.4, 2.5, 4.4), 0.1, 0.15)
    return point, close_point(rest_setup, *point)[:4]


def test_permutation_count():
    assert len(PERMUTATIONS4) == 24
    assert len(set(PERMUTATIONS4)) == 24


def test_propagator_momenta_identity_order(rest_setup, sample_point):
    _, (photons, _, _, _) = sample_point
    q1, q2, q3 = propagator_momenta((0, 1, 2, 3), rest_setup, photons)
    p_i, k0 = rest_setup.p_i, rest_setup.k_0
    assert np.allclose(q1, p_i + k0)
    assert np.allclose(q2, p_i + k0 - photons[0])
    assert np.allclose(q3, p_i + k0 - photons[0] - photons[1])


def test_propagator_momenta_emission_first(rest_setup, sample_point):
    _, (photons, _, _, _) = sample_point
    q1, _, _ = propagator_momenta((1, 0, 2, 3), rest_setup, photons)
    assert np.allclose(q1, rest_setup.p_i - photons[0])


def test_momentum_closure_every_permutation(rest_setup, sample_point):
    _, (photons, p_f, _, _) = sample_point
    ks = (rest_setup.k_0,) + photons
    for xi in PERMUTATIONS4:
        q3 = propagator_momenta(xi, rest_setup, photons)[2]
        last = ks[xi[3]]
        q4 = q3 + last if xi[3] == 0 else q3 - last
        assert np.abs(q4 - p_f).max() < 1e-12


def _max_basis_amplitude(setup, point, closed):
    return max(abs(am.point_amplitude(*_args(setup, point, closed, labels)))
               for labels in itertools.product((1, 2), repeat=4))


def test_ward_identity(rest_setup):
    rng = np.random.default_rng(21)
    for point, closed in random_physical_configs(rest_setup, rng, 5):
        setup, photons, p_f, base, r_i, r_f = _args(rest_setup, point,
                                                    closed)
        scale = _max_basis_amplitude(rest_setup, point, closed)
        ks = (rest_setup.k_0,) + photons
        for j in range(4):
            eps = list(base)
            eps[j] = ks[j]
            amp = am.point_amplitude(setup, photons, p_f, tuple(eps), r_i,
                                     r_f)
            assert abs(amp) <= 1e-9 * scale


def test_bose_symmetry_full_permutations(rest_setup):
    rng = np.random.default_rng(22)
    (thetas, phis, _, _), (photons, p_f, _, _) = random_physical_configs(
        rest_setup, rng, 1)[0]
    outgoing = list(zip(photons, thetas, phis, (1, 2, 1)))
    eps0 = _beam_eps(1)

    def amp_for(order):
        eps = [eps0] + [_eps(t, p, lab) for _, t, p, lab in order]
        # photons and their polarizations permuted coherently
        ks = tuple(k for k, *_ in order)
        return am.point_amplitude(rest_setup, ks, p_f, tuple(eps))

    reference = None
    for order in itertools.permutations(outgoing):
        amp = amp_for(list(order))
        if reference is None:
            reference = amp
        assert amp == pytest.approx(reference, rel=1e-12)


def test_dual_path_agreement(rest_setup, xfel_setup):
    rng = np.random.default_rng(23)
    # benign kinematics: the two strategies agree at double precision
    for point, closed in random_physical_configs(rest_setup, rng, 4):
        args = _args(rest_setup, point, closed)
        fast = am.point_amplitude(*args)
        slow = naive_total_amplitude(*args)
        assert fast == pytest.approx(slow, rel=1e-12)
    # backscatter kinematics amplify rounding by the internal cancellation
    # (up to ~1e9); double precision only supports a loose mutual bound here,
    # the strict 1e-12 comparison runs in software precision below
    for point, closed in random_physical_configs(xfel_setup, rng, 3):
        args = _args(xfel_setup, point, closed)
        fast = am.point_amplitude(*args)
        slow = naive_total_amplitude(*args)
        assert fast == pytest.approx(slow, rel=1e-5)


def test_dual_path_high_precision_backscatter(xfel_setup):
    from _highprec import amplitude_pair

    rng = np.random.default_rng(29)
    for point, (_, p_f, omega3, _) in random_physical_configs(xfel_setup,
                                                              rng, 2):
        fast, slow, w3, e_f, _ = amplitude_pair(
            xfel_setup.e_i_mev, xfel_setup.omega0_mev, *point, (1, 1, 1), 1,
            1, 1)
        assert abs(complex(fast - slow)) <= 1e-12 * abs(complex(fast))
        # the mp closure is an independent oracle for the float64 one
        assert float(w3) == pytest.approx(omega3, rel=1e-9)
        assert float(e_f) == pytest.approx(p_f[0], rel=1e-12)


@pytest.mark.parametrize("frame", ["rest", "xfel"])
def test_spin_flip_conjugation_in_the_oracle(rest_setup, xfel_setup, frame):
    # A = gamma^0 gamma^1 gamma^3 is real, A gamma^mu* A^-1 = gamma^mu and
    # A u_1(p)* = -u_2(p), A u_2(p)* = u_1(p), so with real momenta and
    # real polarizations M(2, 2) = conj M(1, 1) and M(2, 1) = -conj M(1, 2):
    # the identity amplitude_tensor builds its r_i = 2 half from, checked
    # here in 40-digit arithmetic without the engine
    from _highprec import _fast_chain
    from mpmath import mp

    setup = rest_setup if frame == "rest" else xfel_setup
    rng = np.random.default_rng(67)
    (point, _), = random_physical_configs(setup, rng, 1)
    with mp.workdps(40):
        for beam, pols in ((1, (1, 1, 1)), (1, (1, 2, 1)), (1, (2, 2, 2)),
                           (2, (2, 1, 2))):
            amp = {(r_i, r_f): _fast_chain(
                setup.e_i_mev, setup.omega0_mev, *point, pols, beam, r_i,
                r_f)[0] for r_i, r_f in itertools.product((1, 2), repeat=2)}
            scale = max(abs(a) for a in amp.values())
            assert scale > 0
            assert abs(amp[2, 2] - mp.conj(amp[1, 1])) <= 1e-30 * scale
            assert abs(amp[2, 1] + mp.conj(amp[1, 2])) <= 1e-30 * scale


def test_tensor_path_matches_scalar(rest_setup, sample_point):
    point, closed = sample_point
    th = np.array([[t] for t in point[0]])
    ph = np.array([[p] for p in point[1]])
    w3, k_out, p_f, K, phys = _close_arrays(
        rest_setup, th, ph, np.array([[point[2]], [point[3]]]))
    eps_arrays = [am.beam_basis_arrays()] + [
        am.outgoing_basis_arrays(th[j], ph[j]) for j in range(3)]
    tensor = am.amplitude_tensor(rest_setup, k_out, p_f, eps_arrays)
    for labels in itertools.product((1, 2), repeat=4):
        for r_i, r_f in itertools.product((1, 2), repeat=2):
            oracle = naive_total_amplitude(*_args(rest_setup, point, closed,
                                                  labels, r_i, r_f))
            indexed = tensor[0, labels[0] - 1, labels[1] - 1,
                             labels[2] - 1, labels[3] - 1, r_i - 1, r_f - 1]
            assert indexed == pytest.approx(oracle, rel=1e-12)


def test_squared_sum_is_real_nonnegative(rest_setup, sample_point):
    point, closed = sample_point
    total = 0.0
    for labels in itertools.product((1, 2), repeat=4):
        for r_i, r_f in itertools.product((1, 2), repeat=2):
            amp = am.point_amplitude(*_args(rest_setup, point, closed,
                                            labels, r_i, r_f))
            total += abs(amp) ** 2
    assert total > 0.0


def _single_closure(setup, theta, phi):
    w3, k_out, p_f, kfac, phys = _close_arrays(
        setup, np.array([[theta]]), np.array([[phi]]), np.zeros((0, 1)))
    return k_out[0, 0], p_f[0], float(w3[0]), float(kfac[0])


def test_single_compton_gauge(rest_setup):
    k1, p_f, w1, _ = _single_closure(rest_setup, 1.1, 0.7)
    eps_in = _beam_eps(1)
    amp = am.point_amplitude(rest_setup, (k1,), p_f, (eps_in, k1))
    scale = max(abs(am.point_amplitude(
        rest_setup, (k1,), p_f, (eps_in, _eps(1.1, 0.7, lab))))
        for lab in (1, 2))
    assert abs(amp) <= 1e-9 * scale
    amp2 = am.point_amplitude(rest_setup, (k1,), p_f,
                              (rest_setup.k_0, _eps(1.1, 0.7, 1)))
    assert abs(amp2) <= 1e-9 * scale


def _double_closure(setup, t1, p1, w1, t2, p2):
    w_last, k_out, p_f, kfac, phys = _close_arrays(
        setup, np.array([[t1], [t2]]), np.array([[p1], [p2]]),
        np.array([[w1]]))
    assert phys[0]
    return k_out[0, 0], k_out[1, 0], p_f[0]


def test_double_compton_gauge_and_bose(rest_setup):
    k1, k2, p_f = _double_closure(rest_setup, 1.0, 0.3, 0.15, 2.0, 2.8)
    eps0 = _beam_eps(1)
    e1 = _eps(1.0, 0.3, 1)
    e2 = _eps(2.0, 2.8, 2)
    base = am.point_amplitude(rest_setup, (k1, k2), p_f, (eps0, e1, e2))
    swapped = am.point_amplitude(rest_setup, (k2, k1), p_f, (eps0, e2, e1))
    assert swapped == pytest.approx(base, rel=1e-12)
    for j, vec in ((1, k1), (2, k2)):
        eps = [eps0, e1, e2]
        eps[j] = vec
        amp = am.point_amplitude(rest_setup, (k1, k2), p_f, tuple(eps))
        assert abs(amp) <= 1e-9 * abs(base)


def test_scalar_api_typed_errors(rest_setup, sample_point):
    point, closed = sample_point
    k1, p_f, _, _ = _single_closure(rest_setup, 1.1, 0.7)
    eps_in = _beam_eps(1)
    eps_out = _eps(1.1, 0.7, 1)
    off_shell = np.array([5.0, 0.0, 0.0, 1.0])
    with pytest.raises(al.OffShellError):
        am.point_amplitude(rest_setup, (k1,), off_shell, (eps_in, eps_out))
    setup, photons, p_f3, eps, r_i, r_f = _args(rest_setup, point, closed)
    with pytest.raises(al.OffShellError):
        am.point_amplitude(setup, photons, off_shell, eps, r_i, r_f)
    # a zero-momentum photon puts the internal line p_i - k on the pole
    k2, k3, p_f2 = _double_closure(rest_setup, 1.0, 0.3, 0.15, 2.0, 2.8)
    with pytest.raises(al.PropagatorPoleError):
        am.point_amplitude(setup, (np.zeros(4), k2, k3), p_f2, eps, r_i,
                           r_f)
    for r_i in (3, True):
        with pytest.raises(ValueError, match="labels must be 1 or 2"):
            am.point_amplitude(rest_setup, (k1,), p_f, (eps_in, eps_out),
                               r_i=r_i)
    # the r_i = 2 amplitudes are conjugates of the r_i = 1 ones only for
    # real polarization vectors, so a complex one, circular or not, raises
    circular = (eps_out + 1j * _eps(1.1, 0.7, 2)) / math.sqrt(2)
    for eps_c in (circular, eps_out + 0j):
        with pytest.raises(ValueError, match="must be real"):
            am.point_amplitude(rest_setup, (k1,), p_f, (eps_in, eps_c),
                               r_i=2)
        with pytest.raises(ValueError, match="must be real"):
            am.amplitude_tensor(rest_setup, k1[None, None], p_f[None],
                                [am.beam_basis_arrays(), eps_c[None, None]])
    # the kernel checks its own denominators, so a batch with one such
    # point raises too
    photons = np.stack([photons, (np.zeros(4), k2, k3)], axis=1)
    p_fs = np.stack([p_f3, p_f2])
    basis = [am.beam_basis_arrays()] + 3 * [np.tile(eps[1], (2, 1, 1))]
    with pytest.raises(al.PropagatorPoleError):
        am.amplitude_tensor(setup, photons, p_fs, basis)


@pytest.mark.parametrize("e_i", [5e4, 1e6])
def test_point_amplitude_at_high_energy(e_i):
    # E^2 - |p|^2 rounds at ~eps E^2, which exceeds 1e-6 m^2 here: the
    # setup's own p_i reads 2.1e-6 m^2 (50 GeV) and 5.1e-4 m^2 (1 TeV) off
    # shell, and closed p_f up to 1.1e-6 m^2 (1 TeV)
    setup = CollisionSetup(e_i, 0.001)
    rng = np.random.default_rng(1)
    for point, closed in random_physical_configs(setup, rng, 3):
        args = _args(setup, point, closed)
        amp = am.point_amplitude(*args)
        assert np.isfinite(amp) and amp != 0
    off_shell = args[2].copy()
    off_shell[0] = math.sqrt(args[2][0] ** 2 + 0.1 * M * M)
    with pytest.raises(al.OffShellError):
        am.point_amplitude(*args[:2], off_shell, *args[3:])


def test_beam_vector_linearity(rest_setup, sample_point):
    # the amplitude is linear in the beam polarization vector, so the beam's
    # own vector in the kernel combines the two basis amplitudes
    point, _ = sample_point
    th = np.array([[t] for t in point[0]])
    ph = np.array([[p] for p in point[1]])
    _, k_out, p_f, _, _ = _close_arrays(
        rest_setup, th, ph, np.array([[point[2]], [point[3]]]))
    outgoing = [am.outgoing_basis_arrays(th[j], ph[j]) for j in range(3)]
    tensor = am.amplitude_tensor(rest_setup, k_out, p_f,
                                 [am.beam_basis_arrays()] + outgoing)
    beam = am.beam_basis_arrays((0.6, 0.8))
    assert np.array_equal(beam, [[[0.0, 0.6, 0.8, 0.0]]])
    mixed = am.amplitude_tensor(rest_setup, k_out, p_f, [beam] + outgoing)
    expected = 0.6 * tensor[:, 0] + 0.8 * tensor[:, 1]
    assert np.allclose(mixed[:, 0], expected, rtol=1e-12)
    with pytest.raises(ValueError):
        am.beam_basis_arrays((0.0, 0.0))
    with pytest.raises(ValueError):
        am.beam_basis_arrays(3)


def test_beam_polarization_validated(rest_setup):
    from triplecompton.cross_section import spin_summed_sigma5
    from triplecompton.entanglement import density_from_amplitudes

    args = (rest_setup, (1.2, 2.0, 0.9), (0.4, 2.5, 4.4), 0.1, 0.15)
    # a numpy integer is a label like a Python int
    assert spin_summed_sigma5(*args, beam_pol=np.int64(2)) == \
        spin_summed_sigma5(*args, beam_pol=2)
    with pytest.raises(ValueError, match="labels must be 1 or 2"):
        spin_summed_sigma5(*args, beam_pol=np.int64(3))
    # True == 1 used to select the x vector
    with pytest.raises(ValueError, match="labels must be 1 or 2"):
        am.beam_basis_arrays(True)
    # a non-finite vector has no direction; it used to give sigma5 = nan.
    # A third component used to be dropped silently, one component raised
    # IndexError and a float label TypeError
    for bad in ((math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf),
                (0.6, 0.8, 7.0), (0.6,), 1.0):
        with pytest.raises(ValueError, match="beam polarization vector"):
            spin_summed_sigma5(*args, beam_pol=bad)
        with pytest.raises(ValueError, match="beam polarization vector"):
            density_from_amplitudes(*args, beam_pol=bad)


def _stacked_points(setup, n_out, n_pts, seed):
    """n_pts physical points with n_out emitted photons: (ks, p_f, eps),
    each photon line's momentum and basis, the beam photon's first."""
    rng = np.random.default_rng(seed)
    th = np.arccos(rng.uniform(-1, 1, (n_out, 8 * n_pts)))
    ph = rng.uniform(0, 2 * math.pi, (n_out, 8 * n_pts))
    w = rng.uniform(0.02, 0.3, (n_out - 1, 8 * n_pts)) * setup.omega_max
    w_last, k_out, p_f, _, phys = _close_arrays(setup, th, ph, w)
    rows = np.flatnonzero(phys & (w_last > 0))[:n_pts]
    assert rows.size == n_pts
    ks = np.concatenate([np.broadcast_to(setup.k_0, (1, n_pts, 4)),
                         k_out[:, rows]])
    eps = [am.beam_basis_arrays()] + [
        am.outgoing_basis_arrays(th[j, rows], ph[j, rows])
        for j in range(n_out)]
    return ks, p_f[rows], eps


@pytest.mark.parametrize("n_out,gauge", [
    (1, None), (2, None), (3, None), (3, 2),
    pytest.param(3, (1, slice(1, None, 2)), id="3-1-odd-rows")])
def test_tensor_rows_independent_bit_for_bit(rest_setup, n_out, gauge):
    # batch-size independence of every Monte Carlo sum rests on this: a
    # row's amplitudes must not depend on which rows share its batch
    ks, p_f, eps = _stacked_points(rest_setup, n_out, 37, 40 + n_out)
    if isinstance(gauge, tuple):
        # polarization 0 -> k on some rows only: the time component is
        # non-zero in part of the batch, so the kernel adds the diagonal
        # term there, and the other rows still match their lone evaluation
        j, rows = gauge
        eps[j][rows, 0] = ks[j][rows]
        assert eps[j][::2, :, 0].max() == 0.0 < eps[j][1::2, 0, 0].min()
    elif gauge is not None:
        eps[gauge] = ks[gauge][:, None]        # P = 1 axis, eps -> k
    # the kernel takes the emitted photons and reads k_0 from the setup
    tensor = am.amplitude_tensor(rest_setup, ks[1:], p_f, eps)
    assert tensor.shape == ((37,) + tuple(e.shape[1] for e in eps)
                            + (2, 2))
    for i in range(37):
        # the beam basis, (1, P, 4), is the same at every row
        alone = am.amplitude_tensor(
            rest_setup, ks[1:, i:i + 1], p_f[i:i + 1],
            [e[i:i + 1] if len(e) > 1 else e for e in eps])
        assert np.array_equal(tensor[i], alone[0])


def test_tensor_leaves_no_garbage(rest_setup):
    # reference cycles in the kernel would hold every call's arrays until
    # the cyclic collector runs
    ks, p_f, eps = _stacked_points(rest_setup, 3, 16, 47)
    gc.collect()
    gc.disable()
    try:
        am.amplitude_tensor(rest_setup, ks[1:], p_f, eps)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_five_photon_lines_against_oracle_and_ward(rest_setup):
    # four emitted photons: 120 insertion orders and currents four photons
    # deep, which no shipped process reaches
    ks, p_f, eps = _stacked_points(rest_setup, 4, 1, 53)
    ks, p_f, bases = ks[:, 0], p_f[0], [e[0] for e in eps]
    photons = tuple(ks[1:])
    scale = 0.0
    # every polarization label set once, the spin pairs taken in turn
    for index, labels in enumerate(itertools.product((0, 1), repeat=5)):
        pols = tuple(basis[lab] for basis, lab in zip(bases, labels))
        r_i, r_f = (1 + bit for bit in divmod(index % 4, 2))
        amp = am.point_amplitude(rest_setup, photons, p_f, pols, r_i, r_f)
        oracle = naive_total_amplitude(rest_setup, photons, p_f, pols, r_i,
                                       r_f)
        assert abs(amp - oracle) <= 1e-12 * abs(oracle)
        scale = max(scale, abs(amp))
    for j in range(5):
        for labels in itertools.product((0, 1), repeat=5):
            pols = [basis[lab] for basis, lab in zip(bases, labels)]
            pols[j] = ks[j]
            amp = am.point_amplitude(rest_setup, photons, p_f, tuple(pols))
            assert abs(amp) <= 1e-9 * scale


@pytest.mark.parametrize("n_out,beam_pol", [(1, None), (2, None), (3, None),
                                            (3, 1)])
def test_empty_batch_gives_empty_tensor(rest_setup, n_out, beam_pol):
    # rows are independent, so no rows is a valid batch; it used to raise
    # numpy's "cannot reshape array of size 0" at three emitted photons
    empty = np.empty(0)
    eps = [am.beam_basis_arrays(beam_pol)] + [
        am.outgoing_basis_arrays(empty, empty)] * n_out
    tensor = am.amplitude_tensor(rest_setup, np.empty((n_out, 0, 4)),
                                 np.empty((0, 4)), eps)
    n_beam = 2 if beam_pol is None else 1
    assert tensor.shape == (0, n_beam) + (2,) * n_out + (2, 2)


@pytest.mark.parametrize("n_out", [1, 2, 3])
@pytest.mark.parametrize("frame", ["rest", "xfel"])
def test_shared_polarizations_equal_repeated_bit_for_bit(
        rest_setup, xfel_setup, frame, n_out):
    # at fixed detector directions each photon's basis is the same at every
    # point and goes in once, with a point axis of 1; the kernel broadcasts
    # it and must give the same bits as the basis repeated at every point
    setup, thetas, phis = ((rest_setup, MGBR_THETAS, MGBR_PHIS)
                           if frame == "rest" else
                           (xfel_setup, XFEL_THETAS, XFEL_PHIS))
    th, ph = (np.array(a[:n_out])[:, None] for a in (thetas, phis))
    rng = np.random.default_rng(83)
    n_pts = 40 if n_out > 1 else 1
    w = rng.uniform(0.02, 0.4, (n_out - 1, n_pts)) * setup.omega_max
    _, k_out, p_f, _, physical = _close_arrays(
        setup, np.broadcast_to(th, (n_out, n_pts)),
        np.broadcast_to(ph, (n_out, n_pts)), w)
    k_out, p_f = k_out[:, physical], p_f[physical]
    if n_out == 1:
        k_out, p_f = np.repeat(k_out, 7, axis=1), np.repeat(p_f, 7, axis=0)
    assert p_f.shape[0] >= 7
    for beam_pol in (None, 1, (0.6, 0.8)):
        shared = [am.beam_basis_arrays(beam_pol)] + [
            am.outgoing_basis_arrays(t, p) for t, p in zip(th, ph)]
        for n in (p_f.shape[0], 0):
            repeated = [np.repeat(e, n, axis=0) for e in shared]
            want = am.amplitude_tensor(setup, k_out[:, :n], p_f[:n],
                                       repeated)
            # every photon shared, and the beam alone shared
            for eps in (shared, shared[:1] + repeated[1:]):
                got = am.amplitude_tensor(setup, k_out[:, :n], p_f[:n], eps)
                assert got.shape == ((n, shared[0].shape[1])
                                     + (2,) * (n_out + 2))
                assert np.array_equal(got, want)


def _currents(setup, n_pts, rng):
    """Random complex currents (4, 6, N) with exact zeros: u(p_i) (at rest
    its lower half is zero), three random columns and a zero column."""
    u = al.dirac_spinor_batch(setup.p_i)[..., None]
    noise = rng.normal(size=(2, 4, 3, n_pts)) * 10.0 ** rng.integers(
        -3, 4, (4, 3, n_pts))
    state = np.concatenate([np.broadcast_to(u, (4, 2, n_pts)),
                            noise[0] + 1j * noise[1],
                            np.zeros((4, 1, n_pts), complex)], axis=1)
    state[:, 2, ::3] = 0.0
    return state


@pytest.mark.parametrize("frame", ["rest", "xfel"])
def test_block_operators_equal_full_products_bit_for_bit(
        rest_setup, xfel_setup, frame):
    # the kernel writes each spinor, photon vertex, exit row and propagator
    # straight from the components of its four-vectors and applies them as
    # 2x2 blocks; every entry must be the same double as the 4x4 reference
    # forms' and every row must sum its non-zero terms in the order of the
    # full 4x4 product, so that amplitudes stay the same to the bit
    setup = rest_setup if frame == "rest" else xfel_setup
    rng = np.random.default_rng(61)
    n_pts, mass = 50, M
    state = _currents(setup, n_pts, rng)
    # polarization bases (t = 0) and internal momenta p_i + k_0 - k
    th = np.arccos(rng.uniform(-1, 1, n_pts))
    ph = rng.uniform(0, 2 * math.pi, n_pts)
    k = rng.uniform(0.0, 0.5, (n_pts, 3, 1)) * setup.omega_max * np.stack(
        [np.ones(n_pts), np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
         np.cos(th)], axis=-1)[:, None]
    qs = setup.p_i + setup.k_0 - k
    qs[:, 2] = setup.p_i - k[:, 2]
    # on-shell final momenta near p_i + k_0 - k
    p3 = qs[:, 0, 1:]
    e_f = np.sqrt(mass * mass + (p3 * p3).sum(axis=1))
    p_f = np.concatenate([e_f[:, None], p3], axis=1)
    # p_i runs along z in both frames; p_f[7] has transverse momentum
    for p_i in (setup.p_i, p_f[7]):
        u_1, ubar = am._spinors(p_i, p_f)
        assert u_1.shape == (4, 1, n_pts)
        assert np.array_equal(u_1[:, 0, 0], al.dirac_spinor_batch(p_i)[:, 0])
    assert np.array_equal(ubar,
                          al.dirac_spinor_bar_batch(p_f).transpose(1, 2, 0))
    # per-point bases (t = 0), per-point momenta (eps -> k, t != 0), the
    # beam photon's momentum and its shared (1, P, 4) basis
    for eps in (am.outgoing_basis_arrays(th, ph), k[:, :2],
                setup.k_0[None, None], am.beam_basis_arrays()):
        eslash = np.ascontiguousarray(
            al.slash_batch(eps).transpose(2, 3, 1, 0))
        vertex = am._vertex_op(eps, 0)
        blocks, diag = vertex
        for c, h, i in itertools.product((0, 1), repeat=3):
            assert np.array_equal(blocks[c, h, i, 0, :, 0],
                                  eslash[2 * h + i, 2 * (1 - h) + c])
        if eps[..., 0].any():
            assert np.array_equal(diag[:, 0, 0, :, 0],
                                  eslash[[0, 2], [0, 2]])
        else:
            assert diag is None
            # each side writes into a kept buffer of its own, so neither
            # overwrites the other before they are compared
            for before in (1, 2, 3):
                assert np.array_equal(
                    am._vertex(vertex, state, before, "sum"),
                    am._apply(eslash, state, before, "term"))
        n_vec = eslash.shape[2]
        assert np.array_equal(
            am._exit_op(ubar, vertex, 0),
            am._apply(ubar[:, :, None], eslash.reshape(4, 4 * n_vec, -1), 1,
                      "sum").reshape(2, 4, n_vec, -1))
    denom = al.minkowski_dot(qs, qs).T - mass * mass
    for col, prop in enumerate(am._propagators(qs, denom)):
        full = (al.slash_batch(qs[:, col]) + mass * al.IDENTITY4) / denom[
            col, :, None, None]
        assert np.array_equal(am._propagate(prop, state, "current"),
                              am._apply(full.transpose(1, 2, 0)[:, :, None],
                                        state, 1, "sum"))


def test_warm_call_allocates_little_beyond_its_output(rest_setup):
    # the kernel keeps its intermediates in per-thread buffers between
    # calls; once they are grown, a call allocates little more than the
    # tensor it returns (the allocate-per-operation kernel peaked at 9.6x)
    ks, p_f, eps = _stacked_points(rest_setup, 3, 256, 89)
    am.amplitude_tensor(rest_setup, ks[1:], p_f, eps)
    tracemalloc.start()
    try:
        out = am.amplitude_tensor(rest_setup, ks[1:], p_f, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes, peak / out.nbytes


def _buffer_cases(setup):
    """Kernel arguments (k_out, p_f, eps) of many shapes: 1-4 emitted
    photons, N = 0, 1, 7 and 256, per-point and shared bases, a polarized
    beam and a timelike eps (the diagonal path)."""
    cases = []
    for n_out, n_pts in itertools.product((1, 2, 3, 4), (0, 1, 7, 256)):
        if n_pts == 0:
            empty = np.empty(0)
            cases.append((np.empty((n_out, 0, 4)), np.empty((0, 4)),
                          [am.beam_basis_arrays()]
                          + [am.outgoing_basis_arrays(empty, empty)] * n_out))
            continue
        if n_out == 4 and n_pts == 256:
            continue
        ks, p_f, eps = _stacked_points(setup, n_out, n_pts, 7 * n_out + n_pts)
        timelike = list(eps)
        timelike[1] = ks[1][:, None]
        cases += [(ks[1:], p_f, eps),
                  (ks[1:], p_f, [eps[0]] + [e[:1] for e in eps[1:]]),
                  (ks[1:], p_f, [am.beam_basis_arrays(2)] + eps[1:]),
                  (ks[1:], p_f, timelike)]
    return cases


def test_kept_buffers_never_leak_into_results(rest_setup):
    # calls A, B, A with different shapes: the second A must give the bits
    # of the first, and the first A's tensor must not change, because the
    # kernel returns a fresh array and reads no buffer it did not write
    cases = _buffer_cases(rest_setup)
    first = [am.amplitude_tensor(rest_setup, *case) for case in cases]
    kept = [tensor.copy() for tensor in first]
    for order in (range(len(cases) - 1, -1, -1), range(0, len(cases), 3)):
        for i in order:
            again = am.amplitude_tensor(rest_setup, *cases[i])
            assert again.shape == kept[i].shape
            assert np.array_equal(again.view(np.int64),
                                  kept[i].view(np.int64))
    for tensor, copy in zip(first, kept):
        assert np.array_equal(tensor.view(np.int64), copy.view(np.int64))


def test_kernel_buffers_are_per_thread(rest_setup, monkeypatch):
    # thread A is paused inside the kernel while thread B runs a whole call
    # on other points of the same shapes; A's result must still be its
    # single-threaded one, which a buffer set shared by threads breaks
    ks_a, p_a, eps_a = _stacked_points(rest_setup, 3, 16, 97)
    ks_b, p_b, eps_b = _stacked_points(rest_setup, 3, 16, 98)
    want = am.amplitude_tensor(rest_setup, ks_a[1:], p_a, eps_a)
    paused, resume = threading.Event(), threading.Event()
    propagate = am._propagate

    def pausing(*args, **kwargs):
        if threading.current_thread().name == "A" and not paused.is_set():
            paused.set()
            assert resume.wait(60)
        return propagate(*args, **kwargs)

    monkeypatch.setattr(am, "_propagate", pausing)
    got = {}
    thread = threading.Thread(name="A", target=lambda: got.update(
        a=am.amplitude_tensor(rest_setup, ks_a[1:], p_a, eps_a)))
    thread.start()
    try:
        assert paused.wait(60)
        other = am.amplitude_tensor(rest_setup, ks_b[1:], p_b, eps_b)
    finally:
        resume.set()
        thread.join(60)
    assert not np.array_equal(other, want)
    assert np.array_equal(got["a"].view(np.int64), want.view(np.int64))


def _in_new_thread(run):
    """run() in a thread of its own, so on kernel buffers of its own."""
    got = {}
    thread = threading.Thread(target=lambda: got.update(value=run()))
    thread.start()
    thread.join(60)
    return got["value"]


def test_large_call_keeps_one_pass_of_buffers(rest_setup, monkeypatch):
    # a batch larger than KERNEL_ROWS is evaluated in passes of at most that
    # many rows: the kernel then keeps what one full pass keeps, and every
    # row has the bits of one pass over the whole batch
    ks, p_f, eps = _stacked_points(rest_setup, 3, 5 * 16 + 3, 101)
    whole = am.amplitude_tensor(rest_setup, ks[1:], p_f, eps)
    monkeypatch.setattr(am, "KERNEL_ROWS", 16)

    def kept_bytes(n):
        tensor = am.amplitude_tensor(rest_setup, ks[1:, :n], p_f[:n],
                                     [eps[0]] + [e[:n] for e in eps[1:]])
        return tensor, sum(b.nbytes for b in am._buffer.flat.values())

    def one_pass_then_whole():
        return kept_bytes(16), kept_bytes(p_f.shape[0])

    (_, one_pass), (tensor, after) = _in_new_thread(one_pass_then_whole)
    assert 0 < one_pass == after
    assert np.array_equal(tensor.view(np.int64), whole.view(np.int64))


def test_kept_views_stay_bounded(rest_setup, monkeypatch):
    # the buffers' views are cached by shape, and the pass size varies from
    # batch to batch: the cache is emptied before it outgrows _KEPT_VIEWS,
    # and every row keeps its bits across the refills
    ks, p_f, eps = _stacked_points(rest_setup, 2, 40, 103)
    whole = am.amplitude_tensor(rest_setup, ks[1:], p_f, eps)
    monkeypatch.setattr(am, "_KEPT_VIEWS", 128)

    def every_size():
        sizes = []
        for n in [40] + list(range(1, 41)):
            tensor = am.amplitude_tensor(rest_setup, ks[1:, :n], p_f[:n],
                                         [eps[0]] + [e[:n] for e in eps[1:]])
            assert np.array_equal(tensor.view(np.int64),
                                  whole[:n].view(np.int64))
            sizes.append(len(am._buffer.views))
        return sizes

    sizes = _in_new_thread(every_size)
    # the buffers grow on the first call alone, so only the bound drops views
    assert max(sizes) <= 128
    assert any(b < a for a, b in zip(sizes, sizes[1:]))
