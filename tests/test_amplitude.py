import gc
import itertools
import math

import numpy as np
import pytest

from triplecompton import algebra as al
from triplecompton import amplitude as am
from triplecompton.constants import ELECTRON_MASS_MEV as M
from triplecompton.kinematics import (CollisionSetup, FinalStateConfig,
                                      _close_arrays, close_final_state)
from conftest import (MGBR_PHIS, MGBR_THETAS, XFEL_PHIS, XFEL_THETAS,
                      random_physical_configs)
from _oracle import PERMUTATIONS4, naive_total_amplitude, propagator_momenta


def _beam_eps(label):
    return am.beam_basis_arrays(1)[0, label - 1]


def _eps(theta, phi, label):
    return am.outgoing_basis_arrays(np.asarray(theta),
                                    np.asarray(phi))[label - 1]


def _args(setup, cfg, state, beam_label=1):
    """point_amplitude's arguments at a closed state with cfg's labels."""
    eps = [_beam_eps(beam_label)] + [
        _eps(t, p, lab) for t, p, lab in zip(cfg.thetas, cfg.phis, cfg.pols)]
    return setup, state.photons, state.p_f, tuple(eps), cfg.r_i, cfg.r_f


@pytest.fixture(scope="module")
def sample_point(rest_setup):
    cfg = FinalStateConfig(thetas=(1.2, 2.0, 0.9), phis=(0.4, 2.5, 4.4),
                           omega1=0.1, omega2=0.15)
    return cfg, close_final_state(rest_setup, cfg)


def test_permutation_count():
    assert len(PERMUTATIONS4) == 24
    assert len(set(PERMUTATIONS4)) == 24


def test_propagator_momenta_identity_order(rest_setup, sample_point):
    cfg, state = sample_point
    q1, q2, q3 = propagator_momenta((0, 1, 2, 3), rest_setup, state.photons)
    p_i, k0 = rest_setup.p_i, rest_setup.k_0
    assert np.allclose(q1, p_i + k0)
    assert np.allclose(q2, p_i + k0 - state.k1)
    assert np.allclose(q3, p_i + k0 - state.k1 - state.k2)


def test_propagator_momenta_emission_first(rest_setup, sample_point):
    cfg, state = sample_point
    q1, _, _ = propagator_momenta((1, 0, 2, 3), rest_setup, state.photons)
    assert np.allclose(q1, rest_setup.p_i - state.k1)


def test_momentum_closure_every_permutation(rest_setup, sample_point):
    cfg, state = sample_point
    ks = (rest_setup.k_0,) + state.photons
    for xi in PERMUTATIONS4:
        q3 = propagator_momenta(xi, rest_setup, state.photons)[2]
        last = ks[xi[3]]
        q4 = q3 + last if xi[3] == 0 else q3 - last
        assert np.abs(q4 - state.p_f).max() < 1e-12


def _max_basis_amplitude(setup, cfg, state):
    best = 0.0
    for labels in itertools.product((1, 2), repeat=4):
        eps = [_beam_eps(labels[0])] + [
            _eps(t, p, lab)
            for t, p, lab in zip(cfg.thetas, cfg.phis, labels[1:])]
        amp = am.point_amplitude(setup, state.photons, state.p_f,
                                 tuple(eps), cfg.r_i, cfg.r_f)
        best = max(best, abs(amp))
    return best


def test_ward_identity(rest_setup):
    rng = np.random.default_rng(21)
    for cfg, state in random_physical_configs(rest_setup, rng, 5):
        setup, photons, p_f, base, r_i, r_f = _args(rest_setup, cfg, state)
        scale = _max_basis_amplitude(rest_setup, cfg, state)
        ks = (rest_setup.k_0,) + photons
        for j in range(4):
            eps = list(base)
            eps[j] = ks[j]
            amp = am.point_amplitude(setup, photons, p_f, tuple(eps), r_i,
                                     r_f)
            assert abs(amp) <= 1e-9 * scale


def test_bose_symmetry_full_permutations(rest_setup):
    rng = np.random.default_rng(22)
    cfg, state = random_physical_configs(rest_setup, rng, 1)[0]
    outgoing = [(state.k1, cfg.thetas[0], cfg.phis[0], 1),
                (state.k2, cfg.thetas[1], cfg.phis[1], 2),
                (state.k3, cfg.thetas[2], cfg.phis[2], 1)]
    eps0 = _beam_eps(1)

    def amp_for(order):
        eps = [eps0] + [_eps(t, p, lab) for _, t, p, lab in order]
        # photons and their polarizations permuted coherently
        ks = tuple(k for k, *_ in order)
        return am.point_amplitude(rest_setup, ks, state.p_f, tuple(eps),
                                  cfg.r_i, cfg.r_f)

    reference = None
    for order in itertools.permutations(outgoing):
        amp = amp_for(list(order))
        if reference is None:
            reference = amp
        assert amp == pytest.approx(reference, rel=1e-12)


def test_dual_path_agreement(rest_setup, xfel_setup):
    rng = np.random.default_rng(23)
    # benign kinematics: the two strategies agree at double precision
    for cfg, state in random_physical_configs(rest_setup, rng, 4):
        args = _args(rest_setup, cfg, state)
        fast = am.point_amplitude(*args)
        slow = naive_total_amplitude(*args)
        assert fast == pytest.approx(slow, rel=1e-12)
    # backscatter kinematics amplify rounding by the internal cancellation
    # (up to ~1e9); double precision only supports a loose mutual bound here,
    # the strict 1e-12 comparison runs in software precision below
    for cfg, state in random_physical_configs(xfel_setup, rng, 3):
        args = _args(xfel_setup, cfg, state)
        fast = am.point_amplitude(*args)
        slow = naive_total_amplitude(*args)
        assert fast == pytest.approx(slow, rel=1e-5)


def test_dual_path_high_precision_backscatter(xfel_setup):
    from _highprec import amplitude_pair

    rng = np.random.default_rng(29)
    for cfg, state in random_physical_configs(xfel_setup, rng, 2):
        fast, slow, w3, e_f, _ = amplitude_pair(
            xfel_setup.e_i_mev, xfel_setup.omega0_mev, cfg.thetas, cfg.phis,
            cfg.omega1, cfg.omega2, cfg.pols, 1, cfg.r_i, cfg.r_f)
        assert abs(complex(fast - slow)) <= 1e-12 * abs(complex(fast))
        # the mp closure is an independent oracle for the float64 one
        assert float(w3) == pytest.approx(state.omega3, rel=1e-9)
        assert float(e_f) == pytest.approx(state.e_f, rel=1e-12)


def test_tensor_path_matches_scalar(rest_setup, sample_point):
    cfg, state = sample_point
    th = np.array([[t] for t in cfg.thetas])
    ph = np.array([[p] for p in cfg.phis])
    w3, k_out, p_f, K, phys, _ = _close_arrays(
        rest_setup, th, ph, np.array([[cfg.omega1], [cfg.omega2]]))
    eps_arrays = [am.beam_basis_arrays(1)] + [
        am.outgoing_basis_arrays(th[j], ph[j]) for j in range(3)]
    tensor = am.amplitude_tensor(rest_setup, k_out, p_f, eps_arrays)
    for labels in itertools.product((1, 2), repeat=4):
        for r_i, r_f in itertools.product((1, 2), repeat=2):
            cfg2 = FinalStateConfig(cfg.thetas, cfg.phis, cfg.omega1,
                                    cfg.omega2, labels[1:], r_i, r_f)
            oracle = naive_total_amplitude(*_args(rest_setup, cfg2, state,
                                                  labels[0]))
            indexed = tensor[0, labels[0] - 1, labels[1] - 1,
                             labels[2] - 1, labels[3] - 1, r_i - 1, r_f - 1]
            assert indexed == pytest.approx(oracle, rel=1e-12)


def test_squared_sum_is_real_nonnegative(rest_setup, sample_point):
    cfg, state = sample_point
    total = 0.0
    for labels in itertools.product((1, 2), repeat=4):
        for r_i, r_f in itertools.product((1, 2), repeat=2):
            cfg2 = FinalStateConfig(cfg.thetas, cfg.phis, cfg.omega1,
                                    cfg.omega2, labels[1:], r_i, r_f)
            amp = am.point_amplitude(*_args(rest_setup, cfg2, state,
                                            labels[0]))
            total += abs(amp) ** 2
    assert total > 0.0


def _single_closure(setup, theta, phi):
    w3, k_out, p_f, kfac, phys, _ = _close_arrays(
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
    w_last, k_out, p_f, kfac, phys, _ = _close_arrays(
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
    cfg, state = sample_point
    k1, p_f, _, _ = _single_closure(rest_setup, 1.1, 0.7)
    eps_in = _beam_eps(1)
    eps_out = _eps(1.1, 0.7, 1)
    off_shell = np.array([5.0, 0.0, 0.0, 1.0])
    with pytest.raises(al.OffShellError):
        am.point_amplitude(rest_setup, (k1,), off_shell, (eps_in, eps_out))
    setup, photons, _, eps, r_i, r_f = _args(rest_setup, cfg, state)
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
    # the kernel checks its own denominators, so a batch with one such
    # point raises too
    photons = np.stack([state.photons, (np.zeros(4), k2, k3)], axis=1)
    p_fs = np.stack([state.p_f, p_f2])
    basis = [am.beam_basis_arrays(2)] + 3 * [np.tile(eps[1], (2, 1, 1))]
    with pytest.raises(al.PropagatorPoleError):
        am.amplitude_tensor(setup, photons, p_fs, basis)


@pytest.mark.parametrize("e_i", [5e4, 1e6])
def test_point_amplitude_at_high_energy(e_i):
    # E^2 - |p|^2 rounds at ~eps E^2, which exceeds 1e-6 m^2 here: the
    # setup's own p_i reads 2.1e-6 m^2 (50 GeV) and 5.1e-4 m^2 (1 TeV) off
    # shell, and closed p_f up to 1.1e-6 m^2 (1 TeV)
    setup = CollisionSetup(e_i, 0.001)
    rng = np.random.default_rng(1)
    for cfg, state in random_physical_configs(setup, rng, 3):
        args = _args(setup, cfg, state)
        amp = am.point_amplitude(*args)
        assert np.isfinite(amp) and amp != 0
    off_shell = state.p_f.copy()
    off_shell[0] = math.sqrt(state.p_f[0] ** 2 + 0.1 * M * M)
    with pytest.raises(al.OffShellError):
        am.point_amplitude(*args[:2], off_shell, *args[3:])


def test_beam_vector_linearity(rest_setup, sample_point):
    # the amplitude is linear in the beam polarization vector, so the beam's
    # own vector in the kernel combines the two basis amplitudes
    cfg, state = sample_point
    th = np.array([[t] for t in cfg.thetas])
    ph = np.array([[p] for p in cfg.phis])
    _, k_out, p_f, _, _, _ = _close_arrays(
        rest_setup, th, ph, np.array([[cfg.omega1], [cfg.omega2]]))
    outgoing = [am.outgoing_basis_arrays(th[j], ph[j]) for j in range(3)]
    tensor = am.amplitude_tensor(rest_setup, k_out, p_f,
                                 [am.beam_basis_arrays(1)] + outgoing)
    beam = am.beam_basis_arrays(1, (0.6, 0.8))
    assert np.array_equal(beam, [[[0.0, 0.6, 0.8, 0.0]]])
    mixed = am.amplitude_tensor(rest_setup, k_out, p_f, [beam] + outgoing)
    expected = 0.6 * tensor[:, 0] + 0.8 * tensor[:, 1]
    assert np.allclose(mixed[:, 0], expected, rtol=1e-12)
    with pytest.raises(ValueError):
        am.beam_basis_arrays(1, (0.0, 0.0))
    with pytest.raises(ValueError):
        am.beam_basis_arrays(1, 3)


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
        am.beam_basis_arrays(1, True)
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
    w_last, k_out, p_f, _, phys, _ = _close_arrays(setup, th, ph, w)
    rows = np.flatnonzero(phys & (w_last > 0))[:n_pts]
    assert rows.size == n_pts
    ks = np.concatenate([np.broadcast_to(setup.k_0, (1, n_pts, 4)),
                         k_out[:, rows]])
    eps = [am.beam_basis_arrays(n_pts)] + [
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
        alone = am.amplitude_tensor(rest_setup, ks[1:, i:i + 1],
                                    p_f[i:i + 1], [e[i:i + 1] for e in eps])
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
    eps = [am.beam_basis_arrays(0, beam_pol)] + [
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
    _, k_out, p_f, _, physical, _ = _close_arrays(
        setup, np.broadcast_to(th, (n_out, n_pts)),
        np.broadcast_to(ph, (n_out, n_pts)), w)
    k_out, p_f = k_out[:, physical], p_f[physical]
    if n_out == 1:
        k_out, p_f = np.repeat(k_out, 7, axis=1), np.repeat(p_f, 7, axis=0)
    assert p_f.shape[0] >= 7
    for beam_pol in (None, 1, (0.6, 0.8)):
        shared = [am.beam_basis_arrays(1, beam_pol)] + [
            am.outgoing_basis_arrays(t, p) for t, p in zip(th, ph)]
        for n in (p_f.shape[0], 0):
            repeated = [np.repeat(e, n, axis=0) for e in shared]
            got = am.amplitude_tensor(setup, k_out[:, :n], p_f[:n], shared)
            want = am.amplitude_tensor(setup, k_out[:, :n], p_f[:n],
                                       repeated)
            assert got.shape == (n, shared[0].shape[1]) + (2,) * (n_out + 2)
            assert np.array_equal(got, want)


def _currents(setup, n_pts, rng):
    """Random complex currents (4, 6, N) with exact zeros: u(p_i) (at rest
    its lower half is zero), three random columns and a zero column."""
    u = al.dirac_spinor_batch(setup.p_i, setup.mass)[..., None]
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
    # the kernel applies each photon vertex and each propagator as 2x2
    # blocks; every row must sum its non-zero terms in the order of the full
    # 4x4 product, so that amplitudes stay the same to the bit
    setup = rest_setup if frame == "rest" else xfel_setup
    rng = np.random.default_rng(61)
    n_pts, mass = 50, setup.mass
    state = _currents(setup, n_pts, rng)
    # polarization bases (t = 0) and internal momenta p_i + k_0 - k
    th = np.arccos(rng.uniform(-1, 1, n_pts))
    ph = rng.uniform(0, 2 * math.pi, n_pts)
    eps = am.outgoing_basis_arrays(th, ph)
    eslash = np.ascontiguousarray(al.slash_batch(eps).transpose(2, 3, 1, 0))
    for before in (1, 2, 3):
        assert np.array_equal(
            am._vertex(am._vertex_op(eslash, False), state, before),
            am._apply(eslash, state, before))
    k = rng.uniform(0.0, 0.5, (n_pts, 3, 1)) * setup.omega_max * np.stack(
        [np.ones(n_pts), np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
         np.cos(th)], axis=-1)[:, None]
    qs = setup.p_i + setup.k_0 - k
    qs[:, 2] = setup.p_i - k[:, 2]
    denom = al.minkowski_dot(qs, qs).T - mass * mass
    for col, prop in enumerate(am._propagators(qs, denom, mass)):
        full = (al.slash_batch(qs[:, col]) + mass * al.IDENTITY4) / denom[
            col, :, None, None]
        assert np.array_equal(am._propagate(prop, state),
                              am._apply(full.transpose(1, 2, 0)[:, :, None],
                                        state))
