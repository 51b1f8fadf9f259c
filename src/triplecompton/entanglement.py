"""Three-photon polarization density matrices and the genuine-multipartite
entanglement measure tau.

The 8x8 polarization state uses the product basis |l1 l2 l3> with l3 varying
fastest.  tau is obtained from the fully decomposable witness program

    minimize  tr(W rho)
    s.t. for every bipartition s in {1|23, 2|13, 3|12}:
         W = P_s + Q_s^{T_s},  0 <= P_s <= 1,  0 <= Q_s <= 1,

    tau = max(0, -optimum),

solved by a first-order operator-splitting scheme (ADMM) whose two
projections are closed-form: the affine coupling constraints admit
an exact least-squares projection, and the [0, 1] operator intervals project
by eigenvalue clipping of 8x8 Hermitian matrices.  The ADMM map is
accelerated by safeguarded type-II Anderson mixing.  A returned witness is
re-verified outside the solver by explicit eigendecompositions, and a dual
certificate built from the solver's multipliers bounds tau from above; the
solver stops once the two bounds are within its tolerance.

tau = 0 for biseparable states; the GHZ state reaches the maximum 1/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import amplitude as amp
from .cross_section import _close_and_keep, _tensor_for_points
from .kinematics import CollisionSetup

BIPARTITIONS = (1, 2, 3)


class InvalidDensityMatrix(ValueError):
    """Input fails the density-matrix requirements."""


class DegenerateStateError(ValueError):
    """Every amplitude vanished; the polarization state is undefined."""


class SolverError(RuntimeError):
    """Witness optimization failed to reach the residual tolerance."""


def basis_index(l1: int, l2: int, l3: int) -> int:
    """Index of |l1 l2 l3> (labels in {1, 2}, l3 fastest)."""
    return 4 * (l1 - 1) + 2 * (l2 - 1) + (l3 - 1)


def ghz_state() -> np.ndarray:
    """(|111> + |222>)/sqrt(2) as a density matrix."""
    psi = np.zeros(8, dtype=complex)
    psi[basis_index(1, 1, 1)] = 1.0
    psi[basis_index(2, 2, 2)] = 1.0
    psi /= math.sqrt(2.0)
    return np.outer(psi, psi.conj())


def w_state() -> np.ndarray:
    """(|112> + |121> + |211>)/sqrt(3) as a density matrix."""
    psi = np.zeros(8, dtype=complex)
    for labels in ((1, 1, 2), (1, 2, 1), (2, 1, 1)):
        psi[basis_index(*labels)] = 1.0
    psi /= math.sqrt(3.0)
    return np.outer(psi, psi.conj())


def product_state(l1: int = 1, l2: int = 1, l3: int = 1) -> np.ndarray:
    psi = np.zeros(8, dtype=complex)
    psi[basis_index(l1, l2, l3)] = 1.0
    return np.outer(psi, psi.conj())


def partial_transpose(rho: np.ndarray, subsystem) -> np.ndarray:
    """Transpose the indices of one photon slot (1, 2 or 3).

    Accepts the bipartition labels "1|23", "2|13", "3|12" as synonyms for the
    transposed singleton side; transposing the complement instead gives the
    complex conjugate, which has the same spectrum.
    """
    if isinstance(subsystem, str):
        subsystem = int(subsystem.split("|")[0])
    if subsystem not in (1, 2, 3):
        raise ValueError("bipartition label must name photon 1, 2 or 3")
    t = np.asarray(rho).reshape(2, 2, 2, 2, 2, 2)
    t = t.swapaxes(subsystem - 1, subsystem + 2)
    return t.reshape(8, 8).copy()


# X^{T_s}.ravel() == X.ravel()[_PT_INDEX[s - 1]]; indexing a (3, 64) stack
# with [_PT_ROWS, _PT_INDEX] transposes row s - 1 on photon s
_PT_INDEX = np.stack([partial_transpose(np.arange(64).reshape(8, 8), s)
                      .ravel() for s in BIPARTITIONS])
_PT_ROWS = np.arange(len(BIPARTITIONS))[:, None]


def density_from_amplitudes(setup: CollisionSetup, thetas, phis, omega1,
                            omega2, beam_pol=1) -> np.ndarray:
    """rho_{l l'} = N sum_{spins} M(l1 l2 l3) M*(l1' l2' l3'), trace one."""
    tensor, _, _, physical = _tensor_for_points(
        setup, 3, np.array([[t] for t in thetas]),
        np.array([[p] for p in phis]),
        np.stack([np.atleast_1d(float(omega1)),
                  np.atleast_1d(float(omega2))]))
    if not physical[0]:
        raise DegenerateStateError("phase-space point is unphysical")
    beam = amp.contract_beam(tensor, beam_pol)[0]      # (2,2,2, r_i, r_f)
    vecs = beam.reshape(8, 4)                          # spin configs as columns
    rho = vecs @ vecs.conj().T
    norm = float(np.trace(rho).real)
    # physical squared amplitudes are >~1e-10 everywhere sampled; collinear
    # zeros leave only double-precision noise (~1e-30)
    if norm <= 1e-18 or not np.isfinite(norm):
        raise DegenerateStateError(
            f"all amplitudes vanish at this point (sum |M|^2 = {norm:.2e})")
    return rho / norm


def _hermitize(mat: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix or of each matrix in a stack."""
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2))


def _validate_density(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
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
    """Fully decomposable witness with its per-bipartition decompositions."""

    matrix: np.ndarray
    parts: dict  # subsystem -> (P, Q)

    def feasibility_residuals(self) -> dict:
        """Post-hoc feasibility check by explicit eigendecomposition."""
        parts = list(self.parts.items())
        evs = np.linalg.eigvalsh(_hermitize(np.array(
            [mat for _, pair in parts for mat in pair])))
        res = {}
        for k, (s, (p_mat, q_mat)) in enumerate(parts):
            affine = np.linalg.norm(
                self.matrix - p_mat - partial_transpose(q_mat, s))
            ev = evs[2 * k:2 * k + 2]
            bounds = max(-ev.min(), ev.max() - 1.0, 0.0)
            res[s] = {"affine": float(affine), "bounds": float(bounds)}
        return res

    @property
    def max_residual(self) -> float:
        res = self.feasibility_residuals()
        return max(max(r["affine"], r["bounds"]) for r in res.values())


@dataclass(frozen=True)
class TauResult:
    """tau with the optimizing witness and solver diagnostics."""

    tau: float
    witness: Witness
    iterations: int
    primal_residual: float
    dual_residual: float
    upper_bound: float

    @property
    def converged(self) -> bool:
        return math.isfinite(self.primal_residual)


def _project_affine(stack: np.ndarray) -> np.ndarray:
    """Least-squares projection onto {W = P_s + Q_s^{T_s} for all s}.

    stack rows: [W, P1, Q1, P2, Q2, P3, Q3].  With residuals
    R_s = W - P_s - Q_s^{T_s} the multipliers are L_s = R_s - (sum R)/5 and

        W -> W - (sum R)/5,  P_s -> P_s + L_s/2,  Q_s -> Q_s + L_s^{T_s}/2.

    All three bipartitions are handled at once on the flattened (7, 64)
    rows, with the partial transposes as the index map ``_PT_INDEX``.
    """
    flat = stack.reshape(7, 64)
    w, p, q = flat[0], flat[1::2], flat[2::2]
    resid = w - p - q[_PT_ROWS, _PT_INDEX]
    mean = resid.sum(axis=0) / 5.0
    lam = resid - mean
    out = np.empty_like(flat)
    out[0] = w - mean
    out[1::2] = p + 0.5 * lam
    out[2::2] = q + 0.5 * lam[_PT_ROWS, _PT_INDEX]
    return out.reshape(stack.shape)


def _project_box(stack: np.ndarray) -> np.ndarray:
    """Clip P, Q eigenvalues into [0, 1]; W stays free.

    ``eigh`` reads only the lower triangle of each block, so the blocks are
    taken as the Hermitian matrices their lower triangles define and need
    no explicit symmetrization.
    """
    out = np.empty_like(stack)
    out[0] = stack[0]
    vals, vecs = np.linalg.eigh(stack[1:])
    np.clip(vals, 0.0, 1.0, out=vals)
    np.matmul(vecs * vals[:, None, :], vecs.conj().swapaxes(-1, -2),
              out=out[1:])
    return out


# Anderson memory: how many past steps each mixed step combines
ANDERSON_MEMORY = 5
# Tikhonov weight of the mixing solve, relative to the trace of its Gram
# matrix; on the product state the unregularized matrix is singular
ANDERSON_REGULARIZATION = 1e-10
# accepted steps between certificate checks and step re-balancing
CHECK_EVERY = 25


def _admm_step(point: np.ndarray, cost: np.ndarray):
    """One ADMM map evaluation at the packed iterate ``point = [z, u]``,
    shape (14, 8, 8).

    Returns ``(pair, x)``: ``pair[0]`` is the image ``[z', u']``,
    ``pair[1]`` the fixed-point residual ``image - point``, and x the affine
    iterate the step passed through.  ``cost`` is ``step * rho``; the cost
    tr(W rho) touches only the W block.
    """
    z, u = point[:7], point[7:]
    v = z - u
    v[0] -= cost
    x = _project_affine(v)
    pair = np.empty((2,) + point.shape, dtype=complex)
    image = pair[0]
    image[:7] = _project_box(x + u)
    np.add(u, x, out=image[7:])
    image[7:] -= image[:7]
    np.subtract(image, point, out=pair[1])
    return pair, x


class _AndersonMixer:
    """Type-II Anderson mixing for a fixed-point map y -> g(y) with residual
    f = g(y) - y (Walker & Ni, SIAM J. Numer. Anal. 49 (2011) 1715).

    The differences of consecutive (image, residual) pairs over the last
    ``ANDERSON_MEMORY`` steps sit in a ring buffer; the Gram matrix of the
    residual differences gains one row per step, so a mixed point costs
    three small matrix-vector products and one tiny solve.
    """

    def __init__(self, size: int):
        self.diff = np.empty((ANDERSON_MEMORY, 2, size))
        self.gram = np.empty((ANDERSON_MEMORY, ANDERSON_MEMORY))
        self.eye = np.eye(ANDERSON_MEMORY)
        self.count = 0
        self.slot = 0

    def clear(self) -> None:
        self.count = self.slot = 0

    def push(self, old: np.ndarray, new: np.ndarray) -> None:
        """Record the step between two consecutive accepted (image,
        residual) pairs, each given as two real rows."""
        j = self.slot
        np.subtract(new, old, out=self.diff[j])
        self.count = min(self.count + 1, ANDERSON_MEMORY)
        row = self.diff[:self.count, 1] @ self.diff[j, 1]
        self.gram[j, :self.count] = row
        self.gram[:self.count, j] = row
        self.slot = (j + 1) % ANDERSON_MEMORY

    def mix(self, rows: np.ndarray):
        """``image - dG gamma`` with gamma the regularized least-squares fit
        of ``residual`` by the residual differences dF; None when the
        history is empty or the solve is singular or not finite."""
        n = self.count
        if not n:
            return None
        image, residual = rows
        gram = self.gram[:n, :n]
        reg = ANDERSON_REGULARIZATION * gram.trace()
        try:
            gamma = np.linalg.solve(gram + reg * self.eye[:n, :n],
                                    self.diff[:n, 1] @ residual)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(gamma).all():
            return None
        return image - gamma @ self.diff[:n, 0]


def gme_tau(rho: np.ndarray, tolerance: float = 5e-7,
            max_iterations: int = 200000) -> TauResult:
    """Genuine-multipartite-entanglement measure tau of an 8x8 state.

    Runs ADMM on the witness program and stops once the certificate gap
    ``upper_bound - tau`` is at most ``tolerance``; the gap is checked every
    25 accepted steps.  Raises :class:`SolverError` with the last accepted
    step's primal and dual residuals and the last checked gap (or that none
    was checked yet) if ``max_iterations`` map evaluations pass first, and
    ``ValueError`` for a ``tolerance`` that is not a positive number or a
    budget below one.
    The step size starts at 20 and is re-balanced (with the matching dual
    rescaling) when the primal and dual residuals drift apart, which rescues
    the nearly-pure rank-deficient states the amplitude construction
    produces.

    The ADMM map acts on the packed iterate y = (z, u) and is accelerated by
    safeguarded type-II Anderson mixing (Zhang, O'Donoghue & Boyd, SIAM J.
    Optim. 30 (2020) 3170): each step mixes the images of the last
    ``ANDERSON_MEMORY`` steps into the point whose fixed-point residual
    g(y) - y is smallest in the least-squares sense.  The mixed point is
    kept only if its residual does not grow; otherwise the plain ADMM step
    is taken and the history cleared, as it is at every step rescaling.
    ``iterations`` counts ADMM map evaluations, rejected mixed points
    included, so it is the number of 8x8 eigendecomposition stacks run.

    The returned witness is polished into an exactly feasible one: with
    delta the worst eigenvalue violation of any P_s, Q_s, the shift

        P -> (P + delta)/(1 + 2 delta),  Q -> (Q + delta)/(1 + 2 delta),
        W -> (W + 2 delta)/(1 + 2 delta)

    preserves the shared decomposition for every bipartition, so the
    reported tau = max(0, -tr(W rho)) is a certified lower bound on the
    optimum rather than a solver estimate.

    ``upper_bound`` certifies tau from the other side.  The Lagrange dual of
    the witness program is

        maximize  -sum_s [n(L_s) + n(L_s^{T_s})]  s.t.  L_1 + L_2 + L_3 = rho,

    with n(X) the sum of the absolute values of the negative eigenvalues of
    X, so every Hermitian split of rho gives tau <= sum_s n(L_s) +
    n(L_s^{T_s}).  The split is read from the exit iterate's box multipliers,
    L_s = -u[P_s] / step for s = 1, 2 and L_3 = rho - L_1 - L_2, which keeps
    the sum exact; upper_bound - tau bounds the distance to the optimum.  The
    split L_s = rho gives the bipartite negativity n(rho^{T_s}), hence
    tau <= min_s negativity(rho, s) for every state.
    """
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be a positive number, "
                         f"got {tolerance!r}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, "
                         f"got {max_iterations!r}")
    rho = _validate_density(rho)
    step = 20.0
    cost = step * rho
    trial = np.zeros((14, 8, 8), dtype=complex)
    mixer = _AndersonMixer(2 * trial.size)
    # plain: the trial is the last image (no safeguard needed);
    # restart: no accepted step yet under the current step size
    plain = restart = True
    accepted = 0
    for evaluations in range(1, max_iterations + 1):
        t_pair, t_x = _admm_step(trial, cost)
        t_rows = t_pair.view(np.float64).reshape(2, -1)
        t_norm = float(t_rows[1] @ t_rows[1])
        # a NaN residual fails this test too
        if not plain and not t_norm <= norm:
            mixer.clear()
            trial, plain = pair[0], True
            continue
        if not restart:
            mixer.push(rows, t_rows)
        pair, rows, x, norm = t_pair, t_rows, t_x, t_norm
        restart = False
        accepted += 1
        if accepted % CHECK_EVERY == 0:
            image, resid = pair
            u = image[7:]
            primal = float(np.linalg.norm(resid[7:]))
            dual = float(np.linalg.norm(resid[:7]) / step)
            witness = _feasibilize(x)
            tau = max(0.0, -float(np.trace(witness.matrix @ rho).real))
            upper_bound = _dual_bound(rho, u, step)
            gap = upper_bound - tau
            if gap <= tolerance:
                return TauResult(tau, witness, evaluations, primal, dual,
                                 upper_bound)
            # residual balancing: a larger step attacks a lagging dual
            # residual and vice versa; u is the step-scaled dual variable
            scale_p = max(1.0, float(np.linalg.norm(x)))
            scale_d = max(1.0, float(np.linalg.norm(u)) / step)
            factor = 1.0
            if dual / scale_d > 5.0 * primal / scale_p and step < 1e5:
                factor = 1.6
            elif primal / scale_p > 5.0 * dual / scale_d and step > 1e-4:
                factor = 1.0 / 1.6
            if factor != 1.0:
                step *= factor
                cost = step * rho
                trial = image.copy()
                trial[7:] *= factor
                mixer.clear()
                plain = restart = True
                continue
        mixed = mixer.mix(rows)
        plain = mixed is None
        trial = pair[0] if plain else mixed.view(complex).reshape(trial.shape)
    if accepted % CHECK_EVERY:
        # the last accepted step came after the last check (a check's own
        # residuals were taken before any rescaling it made)
        resid = pair[1]
        primal = float(np.linalg.norm(resid[7:]))
        dual = float(np.linalg.norm(resid[:7]) / step)
    checked = (f"gap={gap:.3e} at the last check" if accepted >= CHECK_EVERY
               else f"gap not yet checked (every {CHECK_EVERY} accepted "
                    f"steps)")
    raise SolverError(
        f"no convergence in {max_iterations} iterations: last accepted step "
        f"primal={primal:.3e} dual={dual:.3e}, {checked}")


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


def _dual_bound(rho: np.ndarray, u: np.ndarray, step: float) -> float:
    """Upper bound sum_s n(L_s) + n(L_s^{T_s}) on tau from the multiplier
    split L_1 = -u[P_1]/step, L_2 = -u[P_2]/step, L_3 = rho - L_1 - L_2."""
    lam1, lam2 = -_hermitize(u[1:4:2]) / step
    split = np.stack([lam1, lam2, rho - lam1 - lam2]).reshape(3, 64)
    transposed = split[_PT_ROWS, _PT_INDEX]
    return float(_negative_mass(
        np.concatenate([split, transposed]).reshape(6, 8, 8)).sum())


def _feasibilize(x: np.ndarray) -> Witness:
    """Shift-and-scale an affine-exact iterate into an exactly feasible
    witness (identity shifts commute with every partial transpose)."""
    herm = _hermitize(x)
    ev = np.linalg.eigvalsh(herm[1:])
    delta = max(-float(ev.min()), float(ev.max()) - 1.0, 0.0)
    scale = 1.0 + 2.0 * delta
    eye = np.eye(8)
    parts = {}
    for i, s in enumerate(BIPARTITIONS):
        parts[s] = ((herm[1 + 2 * i] + delta * eye) / scale,
                    (herm[2 + 2 * i] + delta * eye) / scale)
    return Witness((herm[0] + 2.0 * delta * eye) / scale, parts)


def tau_grid(setup: CollisionSetup, thetas, phis, omega1_grid, omega2_grid,
             beam_pol=1, threshold_eps: float = 0.0):
    """tau over an (omega1, omega2) grid; masked (tau = 0) wherever the point
    is unphysical or any photon falls below the detector threshold.

    Returns (tau array, masked boolean array, certificate gaps, solver
    iterations, witness residuals), shapes (len(w1), len(w2)); a cell's gap
    is its ``upper_bound - tau``, so every unmasked tau is certified within
    it, and its residual is its witness's ``max_residual``.  Gaps,
    iterations and residuals are zero on masked cells.  Each unmasked cell
    is one :func:`gme_tau` call.
    """
    w1g = np.asarray(omega1_grid, float)
    w2g = np.asarray(omega2_grid, float)
    w1m, w2m = np.meshgrid(w1g, w2g, indexing="ij")
    n = w1m.size
    th = np.repeat(np.asarray(thetas, float)[:, None], n, axis=1)
    ph = np.repeat(np.asarray(phis, float)[:, None], n, axis=1)
    keep = _close_and_keep(setup, th, ph, np.stack([w1m.ravel(),
                                                    w2m.ravel()]),
                           threshold_eps)[-1]
    taus = np.zeros(n)
    gaps = np.zeros(n)
    iterations = np.zeros(n, dtype=int)
    residuals = np.zeros(n)
    masked = ~keep
    for i in np.nonzero(keep)[0]:
        try:
            rho = density_from_amplitudes(
                setup, thetas, phis, w1m.ravel()[i], w2m.ravel()[i], beam_pol)
        except DegenerateStateError:
            masked[i] = True
            continue
        res = gme_tau(rho)
        taus[i] = res.tau
        gaps[i] = res.upper_bound - res.tau
        iterations[i] = res.iterations
        residuals[i] = res.witness.max_residual
    return tuple(a.reshape(w1m.shape)
                 for a in (taus, masked, gaps, iterations, residuals))


def save_density_matrix(path, rho: np.ndarray) -> None:
    """Write an 8x8 complex matrix as rows of 're im' pairs."""
    rho = np.asarray(rho, dtype=complex)
    with open(path, "w", encoding="ascii") as fh:
        for row in rho:
            fh.write(" ".join(f"{v.real:.17e} {v.imag:.17e}" for v in row))
            fh.write("\n")


def load_density_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`save_density_matrix`."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            nums = [float(tok) for tok in line.split()]
            rows.append([complex(nums[i], nums[i + 1])
                         for i in range(0, len(nums), 2)])
    return np.asarray(rows, dtype=complex)
