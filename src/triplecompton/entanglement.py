"""Three-photon polarization density matrices and the genuine-multipartite
entanglement measure tau.

The 8x8 polarization state uses the product basis |l1 l2 l3> with l3 varying
fastest.  tau is obtained from the fully decomposable witness program

    minimize  tr(W rho)
    s.t. for every bipartition s in {1|23, 2|13, 3|12}:
         W = P_s + Q_s^{T_s},  0 <= P_s <= 1,  0 <= Q_s <= 1,

    tau = max(0, -optimum),

solved by a primal-dual interior-point method (Mehrotra predictor-corrector
steps along the HKM direction).  Its iterate is W and the P_s alone, with
Q_s = (W - P_s)^{T_s}, so every iterate meets the coupling constraints
exactly by construction and no projection step is needed; each P_s, Q_s
stays strictly inside [0, 1].  A returned witness is re-verified outside
the solver by explicit eigendecompositions, and a dual certificate built
from the solver's multipliers bounds tau from above; the solver stops once
the two bounds are within CERTIFICATE_GAP.

tau = 0 for biseparable states; the GHZ state reaches the maximum 1/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import check_labels, is_label
from .cross_section import grid_tensor
from .kinematics import CollisionSetup

BIPARTITIONS = (1, 2, 3)


class InvalidDensityMatrix(ValueError):
    """Input fails the density-matrix requirements."""


class DegenerateStateError(ValueError):
    """Every amplitude vanished; the polarization state is undefined."""


class SolverError(RuntimeError):
    """Witness optimization failed to reach the residual tolerance."""


def basis_index(l1: int, l2: int, l3: int) -> int:
    """Index of |l1 l2 l3> (labels in {1, 2}, l3 fastest); ValueError for
    any other label."""
    check_labels(l1, l2, l3)
    return 4 * (l1 - 1) + 2 * (l2 - 1) + (l3 - 1)


def _pure_state(*kets) -> np.ndarray:
    """Equal-weight superposition of the basis kets |l1 l2 l3> as a real
    density matrix."""
    psi = np.zeros(8)
    for labels in kets:
        psi[basis_index(*labels)] = 1.0
    psi /= math.sqrt(len(kets))
    return np.outer(psi, psi)


def ghz_state() -> np.ndarray:
    """(|111> + |222>)/sqrt(2) as a density matrix."""
    return _pure_state((1, 1, 1), (2, 2, 2))


def w_state() -> np.ndarray:
    """(|112> + |121> + |211>)/sqrt(3) as a density matrix."""
    return _pure_state((1, 1, 2), (1, 2, 1), (2, 1, 1))


def product_state(l1: int = 1, l2: int = 1, l3: int = 1) -> np.ndarray:
    """|l1 l2 l3> as a density matrix."""
    return _pure_state((l1, l2, l3))


def partial_transpose(rho: np.ndarray, subsystem: int) -> np.ndarray:
    """Transpose the indices of photon ``subsystem``, the integer 1, 2 or 3
    (not True, although True == 1); anything else raises ValueError."""
    if not is_label(subsystem, BIPARTITIONS):
        raise ValueError(f"subsystem must be 1, 2 or 3, got {subsystem!r}")
    t = np.asarray(rho).reshape(2, 2, 2, 2, 2, 2)
    t = t.swapaxes(subsystem - 1, subsystem + 2)
    return t.reshape(8, 8).copy()


# X^{T_s}.ravel() == X.ravel()[_PT_INDEX[s - 1]]; indexing a (3, 64) stack
# with [_PT_ROWS, _PT_INDEX] transposes row s - 1 on photon s
_PT_INDEX = np.stack([partial_transpose(np.arange(64).reshape(8, 8), s)
                      .ravel() for s in BIPARTITIONS])
_PT_ROWS = np.arange(len(BIPARTITIONS))[:, None]


def _bases():
    """svec, E_ii and (E_ij + E_ji)/sqrt(2) (i < j) as (36, 64) rows over
    raveled entries (M. J. Todd, K. C. Toh, R. H. Tutuncu, SIAM J. Optim. 8
    (1998) 769), and its completion by i(E_ij - E_ji)/sqrt(2) (i < j), (64,
    64) complex: bases of the real symmetric and of the Hermitian 8x8
    matrices over the reals, orthonormal under Re tr(A^H B)."""
    rows, cols = np.triu_indices(8)
    weight = np.where(rows == cols, 1.0, math.sqrt(0.5))
    svec = np.zeros((rows.size, 64))
    svec[np.arange(rows.size), 8 * rows + cols] = weight
    svec[np.arange(rows.size), 8 * cols + rows] = weight
    rows, cols = np.triu_indices(8, 1)
    imag = np.zeros((rows.size, 64), dtype=complex)
    imag[np.arange(rows.size), 8 * rows + cols] = 1j * math.sqrt(0.5)
    imag[np.arange(rows.size), 8 * cols + rows] = -1j * math.sqrt(0.5)
    return svec, np.concatenate([svec, imag])


_SVEC, _HERMITIAN = _bases()


def density_from_amplitudes(setup: CollisionSetup, thetas, phis, omega1,
                            omega2, beam_pol=1) -> np.ndarray:
    """rho_{l l'} = N sum_{spins} M(l1 l2 l3) M*(l1' l2' l3'), trace one.

    The state is returned real symmetric.  With both electron spins summed
    each entry is a Dirac trace of gamma matrices contracted with real
    momenta and real linear polarizations (the beam's included), with no
    gamma_5, so it is real.  The kernel writes the r_i = 2 amplitudes as
    conjugates of the r_i = 1 ones (``amplitude``), so the spin sum pairs
    each product with its conjugate and the imaginary part computed here is
    rounding of that sum alone: at most 6e-18 over the 48 x 48 XFEL panel
    grid and 3e-17 over the rest-frame one.
    """
    tensor, _, keep = grid_tensor(setup, thetas, phis, [float(omega1)],
                                  [float(omega2)], beam_pol)
    if not keep[0]:
        raise DegenerateStateError("phase-space point is unphysical")
    rho, norm, live = _states(tensor[:, 0])
    if not live[0]:
        raise DegenerateStateError(
            f"all amplitudes vanish at this point (sum |M|^2 = {norm[0]:.2e})")
    return rho[0]


def _states(amplitudes: np.ndarray):
    """(rho, norm, live) for a stack of cells' amplitudes, each (2, 2, 2,
    2, 2) with the photon labels before the electron spins: norm is each
    cell's sum |M|^2, live flags the cells whose amplitudes do not all
    vanish, and rho holds the trace-one real states of the live cells."""
    vecs = amplitudes.reshape(-1, 8, 4)     # spin configs as columns
    gram = vecs @ vecs.conj().swapaxes(-1, -2)
    norm = np.trace(gram, axis1=1, axis2=2).real
    # physical squared amplitudes are >~1e-10 everywhere sampled; collinear
    # zeros leave only double-precision noise (~1e-30)
    live = (norm > 1e-18) & np.isfinite(norm)
    return (gram[live] / norm[live, None, None]).real, norm, live


def _hermitize(mat: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix or of each matrix in a stack."""
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2))


def _validate_density(rho: np.ndarray) -> np.ndarray:
    """The checked state as a complex or, for real input, a float array."""
    rho = np.asarray(rho)
    rho = rho.astype(complex if np.iscomplexobj(rho) else float)
    if not np.isfinite(rho).all():
        raise InvalidDensityMatrix("matrix has non-finite entries")
    if rho.shape != (8, 8):
        raise InvalidDensityMatrix(f"expected 8x8, got {rho.shape}")
    if np.linalg.norm(rho - rho.conj().T) > 1e-10:
        raise InvalidDensityMatrix("matrix is not Hermitian")
    rho = _hermitize(rho)
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise InvalidDensityMatrix(f"trace {np.trace(rho).real} != 1")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise InvalidDensityMatrix("negative eigenvalue beyond tolerance")
    return rho


@dataclass(frozen=True)
class Witness:
    """Fully decomposable witness: the (7, 8, 8) stack [W, P_1, Q_1, P_2,
    Q_2, P_3, Q_3] with W = P_s + Q_s^{T_s} for each bipartition s."""

    blocks: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return self.blocks[0]

    @property
    def max_residual(self) -> float:
        """Worst coupling residual |W - P_s - Q_s^{T_s}| or box violation
        of any P_s, Q_s, checked by explicit eigendecomposition."""
        flat = self.blocks.reshape(7, 64)
        couplings = flat[0] - flat[1::2] - flat[2::2][_PT_ROWS, _PT_INDEX]
        ev = np.linalg.eigvalsh(_hermitize(self.blocks[1:]))
        return float(max(max(np.linalg.norm(row) for row in couplings),
                         -ev.min(), ev.max() - 1.0, 0.0))


@dataclass(frozen=True)
class TauResult:
    """tau with the optimizing witness and solver diagnostics."""

    tau: float
    witness: Witness
    iterations: int
    primal_residual: float
    dual_residual: float
    upper_bound: float
    feasibility_shift: float


# The witness program's slack cones, each an 8x8 block held positive
# definite: P_1, Q_1, P_2, Q_2, P_3, Q_3, then 1 minus each of them
CONES = 12
# fraction of the distance to the nearest cone boundary that a step covers
STEP_FRACTION = 0.95
# Newton steps gme_tau takes before it gives up with SolverError
MAX_NEWTON_STEPS = 100
# gme_tau stops once its certificate gap upper_bound - tau is at most this
CERTIFICATE_GAP = 5e-7
# gme_tau builds its certificates at step 1, at its last iterate and on
# every step whose duality gap 96 mu is at most this times CERTIFICATE_GAP;
# near the optimum the certificate gap runs at about half of 96 mu
CERTIFY_FACTOR = 10


def _witness_stack(y: np.ndarray) -> np.ndarray:
    """[W, P_1, Q_1, P_2, Q_2, P_3, Q_3] at the point y = [W, P_1, P_2, P_3]:
    Q_s = (W - P_s)^{T_s}, so every coupling holds by construction."""
    flat = y.reshape(4, 64)
    stack = np.empty((7, 64), dtype=y.dtype)
    stack[0] = flat[0]
    stack[1::2] = flat[1:]
    stack[2::2] = (flat[0] - flat[1:])[_PT_ROWS, _PT_INDEX]
    return stack.reshape(7, 8, 8)


def _slacks(y: np.ndarray, shift) -> np.ndarray:
    """The 12 cone blocks at y, the upper ones ``shift - lower``; a shift of
    0 maps a step in y to the step of the blocks."""
    lower = _witness_stack(y)[1:]
    return np.concatenate([lower, shift - lower])


def _adjoint(v: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`_slacks` (shift 0) on a stack of 12 cone matrices:
    rows W, P_1, P_2, P_3 of 64 raveled entries."""
    d = (v[:6] - v[6:]).reshape(6, 64)
    dq = d[1::2][_PT_ROWS, _PT_INDEX]
    out = np.empty((4, 64), dtype=v.dtype)
    out[0] = dq.sum(axis=0)
    out[1:] = d[0::2] - dq
    return out


def _max_steps(linv: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Per block, the largest a with mat + a * direction positive
    semidefinite (inf if every a >= 0 is), where ``linv`` is the inverse of
    the Cholesky factor of each block of mat."""
    low = -np.linalg.eigvalsh(
        linv @ direction @ linv.conj().swapaxes(-1, -2))[..., 0]
    return np.reciprocal(low, out=np.full_like(low, np.inf),
                         where=low > 0.0)


def _pair_operators(u: np.ndarray) -> np.ndarray:
    """(3, 64, 64) HKM operators from u[k, (i, j), (b, a)] = sum over a cone
    pair of X_ij (S^{-1})_ba: entry [(i, a), (j, b)] is (u[k, i, j, b, a] +
    u[k, b, a, i, j]) / 2."""
    u = u.reshape(3, 8, 8, 8, 8)
    op = np.add(u.transpose(0, 1, 4, 2, 3), u.transpose(0, 3, 2, 4, 1),
                order="C")
    op *= 0.5
    return op.reshape(3, 64, 64)


def _newton_system(x: np.ndarray, sinv: np.ndarray, basis: np.ndarray):
    """The HKM Newton system in y, in the coordinates of ``basis``, factored
    by block Cholesky.

    On raveled blocks the HKM operator of cone k, D -> sym(X_k D S_k^{-1}),
    is (X_k (x) S_k^{-T} + S_k^{-1} (x) X_k^T) / 2.  Summed over each pair
    of cones P_s, 1 - P_s it gives F_s, and over Q_s, 1 - Q_s, conjugated by
    the partial transpose of Q_s = (W - P_s)^{T_s}, it gives G_s.  The
    system is block arrow,

        [sum G_s   -G_s     ] [dW  ]   [r_W]
        [-G_s      F_s + G_s] [dP_s] = [r_s],

    and with F_s + G_s = L_s L_s^T the dP_s are eliminated through
    Y_s = L_s^{-1} G_s, leaving the Schur complement sum_s (G_s - Y_s^T Y_s)
    of W.  The steps lie in the real span of the rows B of ``basis`` (real
    symmetric for a real state, which the partial transpose keeps so, and
    Hermitian for a complex one), so F_s and G_s move there as Re(conj(B)
    F_s B^T): real blocks, 36x36 in svec, 64x64 in its Hermitian completion.
    Near the optimum of a rank-deficient state the system's condition number
    passes 1e14; eliminating through (F_s + G_s)^{-1} or an explicit
    L_s^{-1} instead of triangular solves then leaves residuals up to 1e-3
    in the step, and the dual certificate stalls above the tolerance.
    Returns (basis, L, Y, Schur complement).
    """
    # the cone pairs' X_ij (S^{-1})_ba summed, rows (i, j), columns (b, a)
    xp = x.reshape(2, 6, 64).transpose(1, 2, 0)
    sp = sinv.reshape(2, 6, 64).transpose(1, 0, 2)
    f, g = (_pair_operators(xp[k::2] @ sp[k::2]) for k in (0, 1))
    # conjugate G_s by the partial transpose of photon s
    g = g[_PT_ROWS[:, :, None], _PT_INDEX[:, :, None], _PT_INDEX[:, None, :]]
    f, g = ((basis.conj() @ op @ basis.T).real for op in (f, g))
    f += g
    chol = np.linalg.cholesky(f)
    y = np.linalg.solve(chol, g)
    g -= y.swapaxes(-1, -2) @ y
    return basis, chol, y, g.sum(axis=0)


def _direction(system, rhs: np.ndarray) -> np.ndarray:
    """The step in y = [W, P_1, P_2, P_3] for right-hand-side rows r_W, r_s,
    solved in the system's basis; mapped back, it is exactly real symmetric
    or Hermitian."""
    basis, chol, y, _ = system
    rhs = (rhs @ basis.conj().T).real
    t = np.linalg.solve(chol, rhs[1:, :, None])
    return _back_substitute(
        system, rhs[0] + (y.swapaxes(-1, -2) @ t).sum(axis=0)[:, 0], t)


def _back_substitute(system, rhs_w: np.ndarray, t=0.0) -> np.ndarray:
    """The step in y from the Schur complement's right-hand side ``rhs_w``
    and t = L_s^{-1} r_s, both in the system's basis: dW from the Schur
    complement, then each dP_s by back-substitution.  t is 0 where every
    r_s is, as in the predictor, which so skips the forward solve."""
    basis, chol, y, schur = system
    dy = np.empty((4,) + rhs_w.shape)
    dy[0] = np.linalg.solve(schur, rhs_w)
    dy[1:] = np.linalg.solve(chol.swapaxes(-1, -2),
                             t + y @ dy[0, :, None])[..., 0]
    return (dy @ basis).reshape(4, 8, 8)


def _measure(y: np.ndarray, x: np.ndarray, eye: np.ndarray,
             target: np.ndarray):
    """(cone blocks at y, duality measure sum_k tr(X_k S_k) / 96, norm of
    the residual of the multiplier equations)."""
    s = _slacks(y, eye)
    return (s, float(np.vdot(s, x).real) / (8 * CONES),
            float(np.linalg.norm(_adjoint(x) - target)))


def _newton_step(s: np.ndarray, x: np.ndarray, mu: float,
                 target: np.ndarray, basis: np.ndarray):
    """One Mehrotra predictor-corrector step (dy, dx), lengths included,
    from the cone blocks s, their multipliers x, the duality measure ``mu``,
    the multiplier equations' right-hand side ``target`` and the Newton
    system's ``basis``."""
    linv = np.linalg.inv(np.linalg.cholesky(np.concatenate([s, x])))
    sinv = linv[:CONES].conj().swapaxes(-1, -2) @ linv[:CONES]
    system = _newton_system(x, sinv, basis)
    # predictor: the affine-scaling step (mu = 0), whose r_s rows are 0
    ds = _slacks(_back_substitute(
        system, (-target @ basis.conj().T).real[0]), 0.0)
    dx = -x - _hermitize(x @ ds @ sinv)
    reach = np.minimum(1.0, _max_steps(linv, np.concatenate([ds, dx])))
    mu_aff = float(np.vdot(s + reach[:CONES].min() * ds,
                           x + reach[CONES:].min() * dx).real)
    sigma = (mu_aff / (8 * CONES * mu)) ** 3
    # corrector: centring at sigma * mu plus Mehrotra's second-order term
    centre = sigma * mu * sinv - _hermitize(dx @ ds @ sinv)
    dy = _direction(system, _adjoint(centre) - target)
    ds = _slacks(dy, 0.0)
    dx = _hermitize(centre - x @ ds @ sinv) - x
    reach = np.minimum(1.0, STEP_FRACTION
                       * _max_steps(linv, np.concatenate([ds, dx])))
    return reach[:CONES].min() * dy, reach[CONES:].min() * dx


def gme_tau(rho: np.ndarray) -> TauResult:
    """Genuine-multipartite-entanglement measure tau of an 8x8 state.

    Runs a primal-dual interior-point method on the witness program and
    stops once the certificate gap ``upper_bound - tau`` is at most
    ``CERTIFICATE_GAP``.  Both bounds are valid at every iterate, but they
    cost two eigendecompositions of their own, so the gap is checked only
    after step 1, after every step whose duality gap 96 mu
    (``dual_residual`` times 96) is at most ``CERTIFY_FACTOR *
    CERTIFICATE_GAP``, and at the last iterate: after step
    ``MAX_NEWTON_STEPS``, or before the Newton system breaks down.  On the
    benchmark's 72 collider cells the gap runs at 0.4-0.7 times 96 mu near
    the optimum, and both best bounds come from the last step.  Raises
    :class:`SolverError` with the last iterate's residuals and gap if
    ``MAX_NEWTON_STEPS`` Newton steps pass first or rounding breaks the
    Newton system down (a gap far below what double precision can
    certify).

    The iterate is y = [W, P_1, P_2, P_3] with Q_s = (W - P_s)^{T_s}, so it
    meets every coupling exactly, and its 12 cone blocks S_k (P_s, Q_s,
    1 - P_s, 1 - Q_s) stay positive definite.  Their multipliers X_k are
    the box duals; the coupling multipliers L_s = X[P_s] - X[1 - P_s] must
    equal (X[Q_s] - X[1 - Q_s])^{T_s} and sum to rho at the optimum.  Each
    step is a Mehrotra predictor-corrector step (Mehrotra, SIAM J. Optim. 2
    (1992) 575) along the HKM direction (Helmberg, Rendl, Vanderbei &
    Wolkowicz, SIAM J. Optim. 6 (1996) 342), its Newton system solved by
    block Cholesky in real arithmetic (:func:`_newton_system`), in a basis
    the state's dtype picks: 36x36 blocks for a real state, 64x64 for a
    complex one.  y and X each move ``STEP_FRACTION`` of the way to their
    cone boundary, at most a full step.  ``iterations`` counts Newton steps,
    ``primal_residual`` is the norm of the residual of the multiplier
    equations and ``dual_residual`` the duality measure sum_k tr(X_k S_k) /
    96, both at the returned iterate.

    The witness is certified outside the solver.  The coupling holds by
    construction: Q_s is the partial transpose of the rounded W - P_s, so
    W - P_s - Q_s^{T_s} is exactly 0 and no projection step is needed.
    With delta the worst eigenvalue violation of any P_s, Q_s, the shift

        P -> (P + delta)/(1 + 2 delta),  Q -> (Q + delta)/(1 + 2 delta),
        W -> (W + 2 delta)/(1 + 2 delta)

    preserves the shared decomposition for every bipartition, so the
    reported tau = max(0, -tr(W rho)) is a certified lower bound on the
    optimum rather than a solver estimate.  ``feasibility_shift`` is the
    delta that made the returned witness feasible (0 when the iterate
    already was).

    ``upper_bound`` certifies tau from the other side.  The Lagrange dual of
    the witness program is

        maximize  -sum_s [n(L_s) + n(L_s^{T_s})]  s.t.  L_1 + L_2 + L_3 = rho,

    with n(X) the sum of the absolute values of the negative eigenvalues of
    X, so every Hermitian split of rho gives tau <= sum_s n(L_s) +
    n(L_s^{T_s}).  The split is read from the box multipliers, L_1 and L_2
    as above and L_3 = rho - L_1 - L_2, which keeps the sum exact.  tau and
    ``upper_bound`` are the best of either bound over the checked iterates,
    and upper_bound - tau bounds the distance to the optimum.  The split
    L_s = rho gives the bipartite negativity n(rho^{T_s}), hence tau <=
    min_s negativity(rho, s) for every state.
    """
    rho = _validate_density(rho)
    basis = _SVEC if rho.dtype.kind == "f" else _HERMITIAN
    eye = np.eye(8, dtype=rho.dtype)
    # the centre of every box: W = 1, P_s = Q_s = 1/2, X_k = 1
    y = np.stack([eye] + 3 * [0.5 * eye])
    x = np.stack(CONES * [eye])
    target = np.zeros((4, 64), dtype=rho.dtype)
    target[0] = rho.ravel()
    s, mu, primal = _measure(y, x, eye, target)
    tau, upper_bound, witness, shift = 0.0, math.inf, None, 0.0

    def certify(step):
        """Build both certificates at the iterate as it stands, the one of
        Newton step ``step``; its TauResult once the gap has closed."""
        nonlocal tau, witness, shift, upper_bound
        polished, delta = _feasibilize(_witness_stack(y))
        lower = -float(np.trace(polished.matrix @ rho).real)
        if lower > tau or step == 1:
            tau, witness, shift = max(0.0, lower), polished, delta
        upper_bound = min(upper_bound,
                          _dual_bound(rho, (x[:6] - x[6:])[0:4:2]))
        if upper_bound - tau <= CERTIFICATE_GAP:
            return TauResult(tau, witness, step, primal, mu, upper_bound,
                             shift)
        return None

    for step in range(1, MAX_NEWTON_STEPS + 1):
        try:
            dy, dx = _newton_step(s, x, mu, target, basis)
        except np.linalg.LinAlgError:
            failure = f"Newton system broke down after {step - 1} steps"
            # the gate below may have skipped the last iterate; certifying
            # an iterate twice changes nothing
            if step > 1 and (result := certify(step - 1)):
                return result
            break
        y += dy
        x += dx
        s, mu, primal = _measure(y, x, eye, target)
        # certify step 1, the last step and the steps near convergence
        if (1 < step < MAX_NEWTON_STEPS
                and 8 * CONES * mu > CERTIFY_FACTOR * CERTIFICATE_GAP):
            continue
        if result := certify(step):
            return result
    else:
        failure = f"no convergence in {MAX_NEWTON_STEPS} Newton steps"
    raise SolverError(f"{failure}: primal={primal:.3e} dual={mu:.3e} "
                      f"gap={upper_bound - tau:.3e}")


def _negative_mass(mat: np.ndarray):
    """Sum of the absolute values of the negative eigenvalues, of a matrix
    or of each matrix in a stack."""
    ev = np.linalg.eigvalsh(_hermitize(mat))
    return np.maximum(-ev, 0.0).sum(axis=-1)


def negativity(rho: np.ndarray, subsystem) -> float:
    """Bipartite negativity of photon ``subsystem`` against the other two:
    the negative eigenvalue mass of the partial transpose."""
    return float(_negative_mass(partial_transpose(_validate_density(rho),
                                                  subsystem)))


def _dual_bound(rho: np.ndarray, lam: np.ndarray) -> float:
    """Upper bound sum_s n(L_s) + n(L_s^{T_s}) on tau from the split
    L_1, L_2 = lam, L_3 = rho - L_1 - L_2."""
    lam1, lam2 = _hermitize(lam)
    split = np.stack([lam1, lam2, rho - lam1 - lam2]).reshape(3, 64)
    transposed = split[_PT_ROWS, _PT_INDEX]
    return float(_negative_mass(
        np.concatenate([split, transposed]).reshape(6, 8, 8)).sum())


def _feasibilize(x: np.ndarray):
    """Shift-and-scale an affine-exact iterate into an exactly feasible
    witness (identity shifts commute with every partial transpose); returns
    the witness and the shift delta."""
    herm = _hermitize(x)
    ev = np.linalg.eigvalsh(herm[1:])
    delta = max(-float(ev.min()), float(ev.max()) - 1.0, 0.0)
    # W moves by 2 delta, each P_s and Q_s by delta
    shifts = delta * np.array([2.0] + 6 * [1.0])
    out = (herm + shifts[:, None, None] * np.eye(8)) / (1.0 + 2.0 * delta)
    return Witness(out), delta


def tau_grid(setup: CollisionSetup, thetas, phis, omega1_grid, omega2_grid,
             beam_pol=1, threshold_eps: float = 0.0):
    """tau over an (omega1, omega2) grid; masked (tau = 0) wherever the point
    is unphysical or any photon falls below the detector threshold.

    Returns (taus, masked, results), arrays of shape (len(w1), len(w2)):
    results[i, j] is the cell's :class:`TauResult`, which certifies its tau
    within ``upper_bound - tau``, or None on a masked cell.  One
    :func:`grid_tensor` evaluation gives every cell's state, and each
    unmasked cell is one :func:`gme_tau` call.
    """
    tensor, _, keep = grid_tensor(setup, thetas, phis, omega1_grid,
                                  omega2_grid, beam_pol, threshold_eps)
    cells = np.nonzero(keep)[0]
    states, _, live = _states(tensor[:, 0])
    masked = ~keep
    masked[cells[~live]] = True
    taus = np.zeros(keep.size)
    results = np.full(keep.size, None, dtype=object)
    for i, rho in zip(cells[live], states):
        results[i] = gme_tau(rho)
        taus[i] = results[i].tau
    shape = (np.size(omega1_grid), np.size(omega2_grid))
    return tuple(a.reshape(shape) for a in (taus, masked, results))


def save_density_matrix(path, rho: np.ndarray) -> None:
    """Write an 8x8 complex matrix as rows of 're im' pairs."""
    rho = np.asarray(rho, dtype=complex)
    with open(path, "w", encoding="ascii") as fh:
        for row in rho:
            fh.write(" ".join(f"{v.real:.17e} {v.imag:.17e}" for v in row))
            fh.write("\n")


def load_density_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`save_density_matrix`; a file that is
    not 8 lines of 8 're im' pairs raises :class:`InvalidDensityMatrix`
    naming the first bad line.  A file whose imaginary parts are all exactly
    0 loads as a real float array, so a saved real state is solved by
    :func:`gme_tau` on the same real path as the state that was saved."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    lines += [""] * (8 - len(lines))    # a short file fails on its end
    rows = []
    for number, line in enumerate(lines, 1):
        try:
            row = np.array(line.split(), dtype=float)
        except ValueError:
            row = np.empty(0)
        if number > 8 or row.shape != (16,):
            raise InvalidDensityMatrix(
                f"{path} line {number}: expected 8 lines of 8 're im' pairs")
        rows.append(row.view(complex))
    rho = np.array(rows)
    return rho.real.copy() if not rho.imag.any() else rho
