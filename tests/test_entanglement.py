import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triplecompton import amplitude, cross_section, entanglement
from triplecompton.cross_section import _tensor_for_points, sigma5_panel_grids
from triplecompton.entanglement import (BIPARTITIONS, DegenerateStateError,
                                        InvalidDensityMatrix, SolverError,
                                        Witness, _HERMITIAN, _SVEC, _direction,
                                        _feasibilize,
                                        _max_steps, _newton_system,
                                        _witness_stack,
                                        basis_index, density_from_amplitudes,
                                        ghz_state, gme_tau,
                                        load_density_matrix, negativity,
                                        partial_transpose, product_state,
                                        save_density_matrix, tau_grid,
                                        w_state)
from triplecompton.kinematics import CollisionSetup
from conftest import (MGBR_PHIS, MGBR_THETAS, XFEL_PHIS, XFEL_THETAS,
                      random_physical_configs)

# Independent-solver oracle for the W state (computed once with two
# general-purpose SDP solvers, CLARABEL and SCS, which agree to 1e-9).
W_STATE_TAU_REFERENCE = 0.442809041

# tau of the collider ridge state: XFEL geometry (5 GeV electron on 1 keV
# photons, conftest XFEL_THETAS/XFEL_PHIS), omega1 = 693 MeV, omega2 = 413 MeV,
# beam_pol=1 (x).  gme_tau brackets it between its certified witness and its
# dual-split bound: [0.4278087843, 0.4278092520] for the state built from
# the 40-digit oracle's amplitudes (tests/_highprec._fast_chain, 8 channels
# x 4 spin pairs), [0.4278087771, 0.4278092448] for density_from_amplitudes'
# state, which differs from it by at most 1.5e-8 per entry.  The reference
# is read from the oracle state's bracket, and lies inside both.  The same
# bracket reproduces W_STATE_TAU_REFERENCE to 2e-9.  The state's minimum
# bipartite negativity, which bounds tau from above, is 0.44909.
XFEL_RIDGE_TAU_REFERENCE = 0.4278090


def test_basis_index_ordering():
    # |l1 l2 l3> with l3 fastest
    assert basis_index(1, 1, 1) == 0
    assert basis_index(1, 1, 2) == 1
    assert basis_index(1, 2, 1) == 2
    assert basis_index(2, 1, 1) == 4
    assert basis_index(2, 2, 2) == 7
    # a label outside {1, 2} raises instead of wrapping to another state
    # True == 1, so a bool used to pass for label 1: basis_index(True, 1, 1)
    # returned 0 and product_state(True, True, True) built |111>
    for labels in ((0, 1, 1), (1.5, 1, 1), (3, 1, 1), (1, 2, -1),
                   (True, 1, 1)):
        with pytest.raises(ValueError, match="labels must be 1 or 2"):
            basis_index(*labels)
    for labels in ((0, 1, 1), (3, 1, 1), (True, True, True)):
        with pytest.raises(ValueError, match="labels must be 1 or 2"):
            product_state(*labels)


def test_partial_transpose_identity_and_involution():
    eye8 = np.eye(8) / 8.0
    for s in (1, 2, 3):
        assert np.allclose(partial_transpose(eye8, s), eye8)
    rng = np.random.default_rng(2)
    mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    herm = (mat + mat.conj().T) / 2
    for s in (1, 2, 3):
        twice = partial_transpose(partial_transpose(herm, s), s)
        assert np.allclose(twice, herm)
    # photons are named by the integers 1-3 alone: the "2|13" synonym is
    # gone, True used to act as photon 1 and 1.0 raised TypeError
    for bad in (4, 0, "2|13", True, np.True_, 1.0, None):
        with pytest.raises(ValueError, match="subsystem must be 1, 2 or 3"):
            partial_transpose(herm, bad)
        with pytest.raises(ValueError, match="subsystem must be 1, 2 or 3"):
            negativity(ghz_state(), bad)
    assert np.array_equal(partial_transpose(herm, np.int64(2)),
                          partial_transpose(herm, 2))


def test_ghz_partial_transpose_spectrum():
    for s in (1, 2, 3):
        eigs = np.linalg.eigvalsh(partial_transpose(ghz_state(), s))
        assert eigs.min() == pytest.approx(-0.5, abs=1e-12)
        assert negativity(ghz_state(), s) == pytest.approx(0.5, abs=1e-12)


def _random_hermitian_stack(rng):
    mat = rng.normal(size=(7, 8, 8)) + 1j * rng.normal(size=(7, 8, 8))
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_witness_stack_meets_coupling_exactly(kind):
    # Q_s = (W - P_s)^{T_s} in floating point, so W = P_s + Q_s^{T_s} holds
    # bit for bit and the solver certifies its iterates with no projection
    rng = np.random.default_rng(7)
    for _ in range(5):
        y = rng.normal(size=(4, 8, 8))
        if kind == "complex":
            y = y + 1j * rng.normal(size=(4, 8, 8))
        stack = _witness_stack(y)
        assert stack.dtype == y.dtype
        assert np.array_equal(stack[0], y[0])
        for i, s in enumerate(BIPARTITIONS):
            assert np.array_equal(stack[1 + 2 * i], y[1 + i])
            resid = (stack[0] - stack[1 + 2 * i]
                     - partial_transpose(stack[2 + 2 * i], s))
            assert not resid.any()


def test_feasibilize_reports_its_shift():
    # an iterate inside every box needs no shift; one outside is shifted by
    # its worst violation, which the result reports
    eye = np.eye(8)
    y = np.stack([eye] + 3 * [0.5 * eye])
    witness, delta = _feasibilize(_witness_stack(y))
    assert delta == 0.0
    assert np.array_equal(witness.matrix, eye)
    y[1, 0, 0] = -0.01      # P_1 below 0, so Q_1 = (W - P_1)^{T_1} above 1
    witness, delta = _feasibilize(_witness_stack(y))
    assert delta == pytest.approx(0.01, rel=1e-12)
    assert witness.max_residual <= 1e-12


def test_witness_residual_reads_couplings_and_bounds():
    centre = np.stack([np.eye(8)] + 6 * [0.5 * np.eye(8)])
    assert Witness(centre).max_residual == 0.0
    # each case sets the [0, 0] entries of [W, P_1, Q_1, ..., P_3, Q_3] so
    # that one kind of residual reads 0.25: a coupling, P_s above 1, Q_s
    # below 0
    for entries in ([1.0, 0.75] + 5 * [0.5], [1.5] + 3 * [1.25, 0.25],
                    [0.5] + 3 * [0.75, -0.25]):
        blocks = centre.copy()
        blocks[:, 0, 0] = entries
        assert Witness(blocks).max_residual == pytest.approx(0.25,
                                                             rel=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_max_steps_matches_bisection(seed):
    # the largest a keeping mat + a * direction positive semidefinite,
    # against a bisection on the smallest eigenvalue
    rng = np.random.default_rng(seed)
    mats = _random_hermitian_stack(rng)
    mats = mats @ mats + 0.1 * np.eye(8)
    directions = _random_hermitian_stack(rng)
    directions[0] = np.eye(8)           # never leaves the cone
    steps = _max_steps(np.linalg.inv(np.linalg.cholesky(mats)), directions)
    assert steps[0] == math.inf

    def inside(k, a):
        return np.linalg.eigvalsh(mats[k] + a * directions[k]).min() >= 0.0

    for k in range(1, len(mats)):
        lo, hi = 0.0, 1.0
        while inside(k, hi):
            lo, hi = hi, 2.0 * hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if inside(k, mid) else (lo, mid)
        assert steps[k] == pytest.approx(lo, rel=1e-10)


def _xfel_state(omega1, omega2):
    return density_from_amplitudes(CollisionSetup(5000.0, 0.001),
                                   XFEL_THETAS, XFEL_PHIS, omega1, omega2, 1)


def _oracle_state(omega1, omega2):
    from _highprec import density_matrix
    return density_matrix(5000.0, 0.001, XFEL_THETAS, XFEL_PHIS, omega1,
                          omega2, 1)


# each case's state is built when the case runs; a partial, unlike a bare
# function, keeps the case ids state0-state5
@pytest.mark.parametrize("state, iterations, tau", [
    (partial(ghz_state), 7, 0.4999999365180704),
    (partial(w_state), 8, 0.442808961347266),
    (partial(product_state), 1, 0.0),
    # real production states, solved in the 36-dimensional svec basis: the
    # criterion 8 ridge state and the first cell of the benchmark's xfel_tau
    # map at placement 3, built from the 40-digit oracle's amplitudes so
    # that a change of the double-precision engine does not move them
    (partial(_oracle_state, 693.0, 413.0), 11, 0.42780878426873614),
    (partial(_oracle_state, 540.6, 260.36), 11, 0.11817071188186758),
    # the GHZ state cast to complex, solved in the 64-dimensional Hermitian
    # basis: the same steps and tau as the real state
    (partial(np.asarray, ghz_state(), complex), 7, 0.4999999365180704),
])
def test_solver_trajectory_pinned(state, iterations, tau):
    # the interior-point iteration itself, not only its limit: any change
    # to the starting point, the Newton system, the step control or the
    # stopping rule moves these
    res = gme_tau(state())
    assert res.iterations == iterations
    assert res.tau == pytest.approx(tau, abs=1e-12)


def _cone_blocks(rng, dtype):
    """Random positive definite cone blocks, their multipliers and a
    Hermitian right-hand side, as the Newton system takes them."""
    shape = (24, 8, 8)
    blocks = rng.normal(size=shape)
    rhs = rng.normal(size=(4, 8, 8))
    if dtype == complex:
        blocks = blocks + 1j * rng.normal(size=shape)
        rhs = rhs + 1j * rng.normal(size=(4, 8, 8))
    blocks = blocks @ blocks.conj().swapaxes(-1, -2) + 0.1 * np.eye(8)
    linv = np.linalg.inv(np.linalg.cholesky(blocks[:12]))
    sinv = linv.conj().swapaxes(-1, -2) @ linv
    rhs = (rhs + rhs.conj().swapaxes(-1, -2)).reshape(4, 64)
    return blocks[12:], sinv, rhs


def test_svec_newton_system_matches_full_basis():
    # svec is orthonormal, and every partial transpose permutes the svec
    # coordinates of a symmetric matrix, so the real Newton system closes
    # on the 36-dimensional symmetric matrices
    assert _SVEC.shape == (36, 64)
    assert np.allclose(_SVEC @ _SVEC.T, np.eye(36), rtol=0.0, atol=1e-15)
    rng = np.random.default_rng(11)
    sym = rng.normal(size=(8, 8))
    sym += sym.T
    coords = _SVEC @ sym.ravel()
    for s in BIPARTITIONS:
        moved = _SVEC @ partial_transpose(sym, s).ravel()
        assert np.array_equal(np.sort(moved), np.sort(coords))
        assert not np.array_equal(moved, coords)
    # the step from the 36-dimensional system against the 64-dimensional
    # one of the Hermitian basis, which the same inputs take when cast to
    # complex
    for _ in range(3):
        x, sinv, rhs = _cone_blocks(rng, float)
        step = _direction(_newton_system(x, sinv, _SVEC), rhs)
        full = _direction(_newton_system(x + 0j, sinv + 0j, _HERMITIAN),
                          rhs + 0j)
        assert step.dtype == float
        assert full.dtype == complex
        assert np.array_equal(step, step.swapaxes(-1, -2))
        assert np.abs(step - full).max() <= 1e-10 * np.abs(full).max()


def test_hermitian_basis_gives_exactly_hermitian_steps():
    # svec's 36 rows, then i(E_ij - E_ji)/sqrt(2) for i < j: orthonormal
    # under Re tr(A^H B), and a complex step mapped back from the real
    # 64-dimensional system is Hermitian to the bit, with no projection
    assert _HERMITIAN.shape == (64, 64)
    assert np.array_equal(_HERMITIAN[:36], _SVEC)
    gram = (_HERMITIAN.conj() @ _HERMITIAN.T).real
    assert np.allclose(gram, np.eye(64), rtol=0.0, atol=1e-15)
    for row in _HERMITIAN.reshape(64, 8, 8):
        assert np.array_equal(row, row.conj().T)
    rng = np.random.default_rng(12)
    for _ in range(3):
        x, sinv, rhs = _cone_blocks(rng, complex)
        system = _newton_system(x, sinv, _HERMITIAN)
        assert all(block.dtype == float for block in system[1:])
        step = _direction(system, rhs)
        assert step.dtype == complex
        assert np.abs(step.imag).max() > 1e-3 * np.abs(step).max()
        assert np.array_equal(step, step.conj().swapaxes(-1, -2))


def test_tau_ghz_calibration():
    res = gme_tau(ghz_state())
    assert res.tau == pytest.approx(0.5, abs=1e-4)
    assert res.upper_bound == pytest.approx(0.5, abs=1e-6)
    assert res.witness.max_residual <= 1e-6


def test_tau_product_state():
    res = gme_tau(product_state())
    assert res.tau <= 1e-6
    assert res.upper_bound <= 1e-6
    assert res.witness.max_residual <= 1e-6


def test_tau_w_state_against_independent_solver():
    res = gme_tau(w_state())
    assert res.tau == pytest.approx(W_STATE_TAU_REFERENCE, abs=1e-4)
    # the dual certificate pins the optimum far tighter than tau's tolerance
    assert res.upper_bound == pytest.approx(W_STATE_TAU_REFERENCE, abs=1e-6)
    assert res.witness.max_residual <= 1e-6


def test_tau_mixing_monotonic():
    previous = math.inf
    for p in (1.0, 0.8, 0.6, 0.4, 0.2):
        rho = p * ghz_state() + (1 - p) * np.eye(8) / 8.0
        tau = gme_tau(rho).tau
        assert tau <= previous + 1e-6
        previous = tau
    assert gme_tau(0.2 * ghz_state() + 0.8 * np.eye(8) / 8.0).tau == 0.0


@pytest.mark.parametrize("p", list(np.linspace(0.40, 1.0, 11))
                         + [3 / 7 - 1e-3, 3 / 7 + 1e-3],
                         ids=lambda p: f"{p:.5f}")
def test_tau_ghz_white_noise_closed_form(p):
    # p GHZ + (1 - p) I/8 is genuinely multipartite entangled exactly above
    # p = 3/7, where the PPT-mixer witness reaches tau = (7p - 3)/8 (O.
    # Guhne, M. Seevinck, New J. Phys. 12 (2010) 053002); the solver's
    # bracket [tau, upper_bound] must hold the closed form
    res = gme_tau(p * ghz_state() + (1 - p) * np.eye(8) / 8.0)
    exact = max(0.0, (7 * p - 3) / 8)
    assert res.tau - 1e-12 <= exact <= res.upper_bound + 1e-12


def test_tau_w_white_noise_threshold():
    # the PPT mixer finds p W + (1 - p) I/8 entangled from just below
    # p = 0.479 (B. Jungnitsch, T. Moroder, O. Guhne, Phys. Rev. Lett. 106
    # (2011) 190502)
    def mixed(p):
        return gme_tau(p * w_state() + (1 - p) * np.eye(8) / 8.0)
    below = mixed(0.45)
    assert below.tau == 0.0 and below.upper_bound <= 1e-12
    assert mixed(0.48).tau > 0.0


def test_tau_bounds_and_witness_feasibility():
    rng = np.random.default_rng(7)
    mats = rng.normal(size=(3, 8, 4)) + 1j * rng.normal(size=(3, 8, 4))
    for mat in mats:
        rho = mat @ mat.conj().T
        rho /= np.trace(rho).real
        res = gme_tau(rho)
        assert 0.0 <= res.tau <= 0.5 + 1e-6
        # the multiplier split is at least as tight as the trivial splits
        # L_s = rho, whose dual values are the bipartite negativities
        min_negativity = min(negativity(rho, s) for s in (1, 2, 3))
        assert res.tau <= res.upper_bound <= min_negativity + 1e-9
        assert res.witness.max_residual <= 1e-6


def _random_local_unitary(rng):
    mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(mat)
    return q


def test_tau_local_unitary_invariance():
    rng = np.random.default_rng(11)
    rho = w_state()
    base = gme_tau(rho).tau
    for _ in range(2):
        u = np.kron(np.kron(_random_local_unitary(rng),
                            _random_local_unitary(rng)),
                    _random_local_unitary(rng))
        rotated = u @ rho @ u.conj().T
        assert gme_tau(rotated).tau == pytest.approx(base, abs=1e-4)


def test_invalid_density_matrices():
    with pytest.raises(InvalidDensityMatrix):
        gme_tau(np.eye(4))
    not_herm = np.eye(8, dtype=complex)
    not_herm[0, 1] = 1.0
    with pytest.raises(InvalidDensityMatrix):
        gme_tau(not_herm)
    with pytest.raises(InvalidDensityMatrix):
        gme_tau(2.0 * np.eye(8) / 8.0)
    indefinite = np.eye(8) / 6.0
    indefinite[7, 7] = -1.0 / 6.0
    with pytest.raises(InvalidDensityMatrix):
        gme_tau(indefinite)


def test_solver_error_reports_residuals(monkeypatch):
    # the last step of the budget is always certified, so a budget that
    # ends early reports the last iterate's residuals and gap, all finite
    monkeypatch.setattr(entanglement, "MAX_NEWTON_STEPS", 2)
    with pytest.raises(SolverError, match="in 2 Newton steps") as err:
        gme_tau(ghz_state())
    found = re.search(r"primal=(\S+) dual=(\S+) gap=(\S+)$", str(err.value))
    assert all(0.0 < float(r) < math.inf for r in found.groups())
    # a gap below what double precision can certify ends in the same
    # typed error, never in a linear-algebra exception
    monkeypatch.undo()
    monkeypatch.setattr(entanglement, "CERTIFICATE_GAP", 1e-15)
    with pytest.raises(SolverError, match="primal="):
        gme_tau(w_state())


def test_solver_error_before_first_check_is_finite(monkeypatch):
    # the smallest budget ends at the first gap check: the message carries
    # that iterate's residuals and gap, never the inf placeholder of the
    # upper bound before any dual certificate exists
    monkeypatch.setattr(entanglement, "MAX_NEWTON_STEPS", 1)
    for state in (ghz_state(), w_state()):
        with pytest.raises(SolverError, match="in 1 Newton steps") as err:
            gme_tau(state)
        message = str(err.value)
        assert "inf" not in message
        found = re.search(r"primal=(\S+) dual=(\S+) gap=(\S+)$", message)
        assert all(0.0 < float(r) < math.inf for r in found.groups())


def _solver_failure(monkeypatch, steps, state):
    """(primal, dual, gap) from the SolverError of a budget of ``steps``."""
    monkeypatch.setattr(entanglement, "MAX_NEWTON_STEPS", steps)
    with pytest.raises(SolverError, match=f"in {steps} Newton steps") as err:
        gme_tau(state)
    found = re.search(r"primal=(\S+) dual=(\S+) gap=(\S+)$", str(err.value))
    return tuple(float(r) for r in found.groups())


def test_failure_path_certifies_the_last_step(monkeypatch):
    # step 2 of W lies far outside the certification gate, yet as the last
    # step of the budget it is certified: its gap is finite and narrower
    # than the one step 1 left
    _, dual, gap = _solver_failure(monkeypatch, 2, w_state())
    assert (8 * entanglement.CONES * dual
            > entanglement.CERTIFY_FACTOR * entanglement.CERTIFICATE_GAP)
    assert 0.0 < gap < math.inf
    assert gap < _solver_failure(monkeypatch, 1, w_state())[2]
    # a gap below what double precision can certify keeps the gate shut
    # until the Newton system breaks down; the iterate before the breakdown
    # is certified then, so the error reads as with every step certified
    monkeypatch.undo()
    monkeypatch.setattr(entanglement, "CERTIFICATE_GAP", 1e-15)
    messages = []
    for factor in (entanglement.CERTIFY_FACTOR, math.inf):
        monkeypatch.setattr(entanglement, "CERTIFY_FACTOR", factor)
        with pytest.raises(SolverError, match="broke down") as err:
            gme_tau(w_state())
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_certifying_every_step_changes_no_answer(monkeypatch):
    # the certificates run only at step 1, near convergence and at the last
    # step; with the gate always open they run at every step, and every
    # result is the same to the bit
    mat = np.random.default_rng(5).normal(size=(8, 2, 2)) @ [1.0, 1j]
    states = [ghz_state(), w_state(), product_state(),
              mat @ mat.conj().T / np.linalg.norm(mat) ** 2,
              _xfel_state(693.0, 413.0)]
    gated = [gme_tau(rho) for rho in states]
    monkeypatch.setattr(entanglement, "CERTIFY_FACTOR", math.inf)
    for rho, res in zip(states, gated):
        every = gme_tau(rho)
        for field in ("tau", "iterations", "primal_residual",
                      "dual_residual", "upper_bound", "feasibility_shift"):
            assert getattr(every, field) == getattr(res, field), field
        assert np.array_equal(every.witness.blocks, res.witness.blocks)


def test_certificates_built_at_step_one_and_near_convergence(monkeypatch):
    # on W the certificates run after the first Newton step and then on
    # fewer steps than the solve takes
    events = []

    def counted(name):
        original = getattr(entanglement, name)

        def wrapper(*args):
            events.append(name)
            return original(*args)
        monkeypatch.setattr(entanglement, name, wrapper)

    counted("_newton_step")
    counted("_dual_bound")
    res = gme_tau(w_state())
    assert events[:2] == ["_newton_step", "_dual_bound"]
    assert events.count("_newton_step") == res.iterations
    assert 1 < events.count("_dual_bound") < res.iterations
    assert events[-1] == "_dual_bound"


def test_gme_tau_degenerate_states():
    # rank-deficient, locally rotated and barely entangled states: the
    # interior-point steps must stay accurate all the way to the gap
    rng = np.random.default_rng(23)
    states = []
    for rank in (1, 1, 2, 2):
        mat = (rng.normal(size=(8, rank))
               + 1j * rng.normal(size=(8, rank)))
        states.append(mat @ mat.conj().T / np.linalg.norm(mat) ** 2)
    for base in (ghz_state(), w_state()):
        u = np.kron(np.kron(_random_local_unitary(rng),
                            _random_local_unitary(rng)),
                    _random_local_unitary(rng))
        states.append(u @ base @ u.conj().T)
    # white noise at p = 0.43 leaves tau = (7p - 3)/8 = 0.00125
    states.append(0.43 * ghz_state() + 0.57 * np.eye(8) / 8.0)
    results = [gme_tau(rho) for rho in states]
    for rho, res in zip(states, results):
        assert res.upper_bound - res.tau <= 5e-7
        assert res.witness.max_residual <= 1e-12
        assert res.tau <= min(negativity(rho, s) for s in (1, 2, 3)) + 1e-9
    assert results[-1].tau == pytest.approx(0.00125, abs=1e-6)


def test_non_finite_states_rejected():
    for bad in (math.nan, math.inf):
        rho = ghz_state()
        rho[0, 0] = bad
        with pytest.raises(InvalidDensityMatrix, match="non-finite"):
            gme_tau(rho)
        with pytest.raises(InvalidDensityMatrix, match="non-finite"):
            negativity(rho, 1)
    with pytest.raises(InvalidDensityMatrix):
        negativity(2.0 * ghz_state(), 1)


def test_density_from_amplitudes_properties(rest_setup):
    rng = np.random.default_rng(19)
    for point, _ in random_physical_configs(rest_setup, rng, 4):
        rho = density_from_amplitudes(rest_setup, *point, beam_pol=1)
        assert np.linalg.norm(rho - rho.conj().T) < 1e-12
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        eigs = np.linalg.eigvalsh(rho)
        assert eigs.min() > -1e-10
        # at most four spin configurations contribute
        assert (np.sort(eigs)[:4] < 1e-10).all()


def test_density_is_real_symmetric(rest_setup):
    # with both electron spins summed and real linear polarizations every
    # entry of rho is a real Dirac trace: the imaginary part of the complex
    # Gram matrix is rounding, and the state comes back as a real array
    rng = np.random.default_rng(29)
    for point, _ in random_physical_configs(rest_setup, rng, 40):
        thetas, phis, w1, w2 = point
        for beam_pol in (1, 2, (0.6, 0.8)):
            tensor = _tensor_for_points(
                rest_setup, np.array(thetas)[:, None],
                np.array(phis)[:, None], np.array([[w1], [w2]]), 0.0,
                beam_pol)[0]
            vecs = tensor[0, 0].reshape(8, 4)
            gram = vecs @ vecs.conj().T
            assert np.abs(gram.imag).max() <= 1e-13 * np.abs(gram).max()
            rho = density_from_amplitudes(rest_setup, *point, beam_pol)
            assert rho.dtype == np.float64
            assert np.abs(rho - gram.real / np.trace(gram).real).max() <= 1e-15


def test_density_degenerate_point(rest_setup):
    # collinear emission has vanishing amplitudes for every polarization
    with pytest.raises(DegenerateStateError):
        density_from_amplitudes(rest_setup, (1e-9, 1e-9, 1e-9),
                                (0.0, 0.0, 0.0), 0.2, 0.2)


def test_non_finite_phase_space_input_raises(rest_setup):
    # a NaN angle or energy used to come back as DegenerateStateError
    # ("unphysical") from the density and as a masked cell from the map
    thetas, phis = (1.2, 2.0, 0.9), (0.4, 2.5, 4.4)
    for th, ph, w1, w2 in (((1.2, math.nan, 0.9), phis, 0.1, 0.15),
                           (thetas, phis, math.nan, 0.15),
                           (thetas, (0.4, 2.5, math.inf), 0.1, 0.15)):
        with pytest.raises(ValueError, match="finite"):
            density_from_amplitudes(rest_setup, th, ph, w1, w2)
        with pytest.raises(ValueError, match="finite"):
            tau_grid(rest_setup, th, ph, [0.05, w1], [w2])
    for eps in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ValueError, match="finite"):
            tau_grid(rest_setup, thetas, phis, [0.05, 0.1], [0.15],
                     threshold_eps=eps)


def test_density_export_import_roundtrip(tmp_path, rest_setup):
    rho = density_from_amplitudes(rest_setup, (1.2, 2.0, 0.9),
                                  (0.4, 2.5, 4.4), 0.1, 0.15)
    path = tmp_path / "rho.txt"
    save_density_matrix(path, rho)
    loaded = load_density_matrix(path)
    assert np.array_equal(loaded, rho)
    save_density_matrix(tmp_path / "rho2.txt", loaded)
    assert (tmp_path / "rho2.txt").read_bytes() == path.read_bytes()
    # a real state read back used to load complex and take the 64-dimensional
    # Hermitian Newton path, moving tau in its last bits
    for state in (rho, w_state()):
        save_density_matrix(path, state)
        loaded = load_density_matrix(path)
        assert loaded.dtype == np.float64
        expected, got = gme_tau(state), gme_tau(loaded)
        assert (got.tau, got.iterations) == (expected.tau, expected.iterations)
    # (|111> + i|222>)/sqrt(2) keeps its imaginary coherences
    ghz_i = ghz_state().astype(complex)
    ghz_i[0, 7], ghz_i[7, 0] = 0.5j, -0.5j
    save_density_matrix(path, ghz_i)
    loaded = load_density_matrix(path)
    assert loaded.dtype == np.complex128 and np.array_equal(loaded, ghz_i)


def test_load_density_matrix_rejects_malformed_files(tmp_path):
    row = " ".join(["0.125 0.0"] + 7 * ["0.0 0.0"])
    good = "\n".join(8 * [row]) + "\n"
    path = tmp_path / "rho.txt"
    path.write_text(good)
    assert load_density_matrix(path).shape == (8, 8)
    # an odd token count used to raise IndexError, ragged rows numpy's
    # shape error, and a 1x1 file loaded silently
    for text, line in ((good.replace(row, row + " 0.5", 1), 1),
                       ("\n".join(4 * [row] + [row[:-8]] + 3 * [row]), 5),
                       ("0.5 0.0\n", 1),
                       ("\n".join(7 * [row]) + "\n", 8),
                       (good + row + "\n", 9),
                       (good.replace("0.125", "x", 1), 1),
                       ("", 1)):
        path.write_text(text)
        with pytest.raises(InvalidDensityMatrix, match=f"line {line}:"):
            load_density_matrix(path)


def test_tau_grid_masking_and_symmetry(rest_setup):
    omegas = np.linspace(0.05, 0.45, 4)
    taus, masked, results = tau_grid(
        rest_setup, MGBR_THETAS, MGBR_PHIS, omegas, omegas, beam_pol=1,
        threshold_eps=0.013)
    from triplecompton.kinematics import close_batch

    w1m, w2m = np.meshgrid(omegas, omegas, indexing="ij")
    th = np.repeat(np.array(MGBR_THETAS)[:, None], w1m.size, axis=1)
    ph = np.repeat(np.array(MGBR_PHIS)[:, None], w1m.size, axis=1)
    w3, _, _, _, physical = close_batch(rest_setup, th, ph, w1m.ravel(),
                                        w2m.ravel())
    expected_mask = ~(physical & (w3 >= 0.013) & (w1m.ravel() >= 0.013)
                      & (w2m.ravel() >= 0.013))
    assert (masked.ravel() == expected_mask).all()
    assert (taus[masked] == 0.0).all()
    assert all(r is None for r in results[masked])
    solved = results[~masked]
    assert all(r.tau == t for r, t in zip(solved, taus[~masked]))
    assert all(r.upper_bound - r.tau >= 0.0 for r in solved)
    # every solve takes at least one Newton step, and step 1 is certified
    assert all(r.iterations >= 1 for r in solved)
    assert all(r.primal_residual > 0.0 and r.dual_residual > 0.0
               for r in solved)
    assert all(r.witness.max_residual <= 1e-6 for r in solved)
    # the 120-degree detector triangle makes the grid symmetric in w1 <-> w2
    both = ~masked & ~masked.T
    assert np.abs(taus - taus.T)[both].max() < 1e-4


def test_tau_grid_reads_states_from_one_grid_evaluation(monkeypatch,
                                                        rest_setup,
                                                        xfel_setup):
    # the whole map is one closure and one amplitude call; each solved cell
    # gets exactly the state density_from_amplitudes gives at that cell
    calls = {"closure": 0, "amplitude": 0}
    states = []

    def counted(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(cross_section, "_close_arrays", "closure")
    counted(amplitude, "amplitude_tensor", "amplitude")
    solve = entanglement.gme_tau

    def recording_solve(rho):
        states.append(rho)
        return solve(rho)
    monkeypatch.setattr(entanglement, "gme_tau", recording_solve)
    w1s = np.linspace(300.0, 1500.0, 3)
    w2s = np.linspace(100.0, 900.0, 3)
    _, masked, _ = tau_grid(xfel_setup, XFEL_THETAS, XFEL_PHIS, w1s, w2s,
                            beam_pol=1, threshold_eps=150.0)
    assert calls == {"closure": 1, "amplitude": 1}
    # the grid crosses the threshold: some cells are masked, some solved
    assert 0 < masked.sum() < masked.size
    assert len(states) == (~masked).sum()
    _, panel_mask = sigma5_panel_grids(xfel_setup, XFEL_THETAS, XFEL_PHIS,
                                       w1s, w2s, 1, 150.0)
    assert np.array_equal(masked, panel_mask)
    for rho, (i, j) in zip(states, np.argwhere(~masked)):
        assert np.array_equal(rho, density_from_amplitudes(
            xfel_setup, XFEL_THETAS, XFEL_PHIS, w1s[i], w2s[j], 1))
    # collinear emission keeps every cell but its amplitudes vanish: the
    # cells are masked and nothing is solved
    states.clear()
    collinear = (rest_setup, (1e-9,) * 3, (0.0,) * 3, [0.1, 0.2], [0.2])
    assert cross_section.grid_tensor(*collinear, 1, 0.013)[2].all()
    taus, masked, results = tau_grid(*collinear, threshold_eps=0.013)
    assert masked.all() and not states
    assert (taus == 0.0).all() and all(r is None for r in results.ravel())
