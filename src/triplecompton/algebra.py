"""Four-vectors, Dirac matrices, bispinors and photon polarization bases.

Metric signature is (+,-,-,-).  The gamma matrices are kept in the Dirac
representation (diagonal gamma^0); every squared amplitude is representation
independent, so one representation is pinned for reproducibility.  Bispinors
are positive-energy solutions normalized to ubar_r(p) u_s(p) = delta_rs.

Scalar operations work on :class:`LorentzVector`; the ``*_batch`` helpers do
the same algebra on stacked ``(..., 4)`` arrays and are used by the amplitude
and integration layers.  Everything here is a pure function of its inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ELECTRON_MASS_MEV


class OffShellError(ValueError):
    """Momentum violates its mass-shell requirement."""


class PropagatorPoleError(ValueError):
    """Virtual momentum is too close to the mass shell to form a propagator."""


@dataclass(frozen=True)
class LorentzVector:
    """Four-vector (t, x, y, z) with the time-like component first."""

    t: float
    x: float
    y: float
    z: float

    def __add__(self, other: "LorentzVector") -> "LorentzVector":
        return LorentzVector(self.t + other.t, self.x + other.x,
                             self.y + other.y, self.z + other.z)

    def __sub__(self, other: "LorentzVector") -> "LorentzVector":
        return LorentzVector(self.t - other.t, self.x - other.x,
                             self.y - other.y, self.z - other.z)

    def __neg__(self) -> "LorentzVector":
        return LorentzVector(-self.t, -self.x, -self.y, -self.z)

    def __mul__(self, scale: float) -> "LorentzVector":
        return LorentzVector(scale * self.t, scale * self.x,
                             scale * self.y, scale * self.z)

    __rmul__ = __mul__

    def dot(self, other: "LorentzVector") -> float:
        return minkowski_dot(self, other)

    @property
    def mass2(self) -> float:
        return minkowski_dot(self, self)

    def space(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z])


def minkowski_dot(a: LorentzVector, b: LorentzVector) -> float:
    """a.b = a^0 b^0 - a.b (three-vector part)."""
    return a.t * b.t - a.x * b.x - a.y * b.y - a.z * b.z


GAMMA0 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
GAMMA1 = np.array([[0, 0, 0, 1],
                   [0, 0, 1, 0],
                   [0, -1, 0, 0],
                   [-1, 0, 0, 0]], dtype=complex)
GAMMA2 = np.array([[0, 0, 0, -1j],
                   [0, 0, 1j, 0],
                   [0, 1j, 0, 0],
                   [-1j, 0, 0, 0]], dtype=complex)
GAMMA3 = np.array([[0, 0, 1, 0],
                   [0, 0, 0, -1],
                   [-1, 0, 0, 0],
                   [0, 1, 0, 0]], dtype=complex)
GAMMA = np.stack([GAMMA0, GAMMA1, GAMMA2, GAMMA3])
IDENTITY4 = np.eye(4, dtype=complex)

# Signs that lower the index before contracting with the gamma stack.
_METRIC = np.array([1.0, -1.0, -1.0, -1.0])


def slash(a: LorentzVector) -> np.ndarray:
    """Contraction a^mu gamma_mu = a^0 g^0 - a.gamma as a 4x4 complex matrix."""
    return (a.t * GAMMA0 - a.x * GAMMA1 - a.y * GAMMA2 - a.z * GAMMA3)


def slash_batch(a: np.ndarray) -> np.ndarray:
    """slash() for stacked four-vectors of shape (..., 4) -> (..., 4, 4)."""
    return np.einsum('...k,kab->...ab', np.asarray(a) * _METRIC, GAMMA)


@dataclass(frozen=True)
class Bispinor:
    """Positive-energy solution u_r(p) with ubar u = 1 normalization."""

    components: np.ndarray
    r: int
    p: LorentzVector

    def bar(self) -> np.ndarray:
        """Row vector ubar = u^dagger gamma^0."""
        return self.components.conj() @ GAMMA0


def check_spin_label(r: int) -> None:
    """Raise ValueError unless r is a spin label 1 or 2."""
    if r not in (1, 2):
        raise ValueError(f"spin label must be 1 or 2, got {r}")


def check_on_shell(p: LorentzVector, mass: float = ELECTRON_MASS_MEV) -> None:
    """Raise :class:`OffShellError` unless p has positive energy and lies
    within 1e-6 relative of the mass shell."""
    off = abs(p.mass2 - mass * mass) / (mass * mass)
    if off > 1e-6:
        raise OffShellError(
            f"momentum off-shell: |p^2 - m^2|/m^2 = {off:.3e} > 1e-6")
    if p.t <= 0:
        raise OffShellError("positive-energy spinor requires E > 0")


def dirac_spinor(p: LorentzVector, r: int,
                 mass: float = ELECTRON_MASS_MEV) -> Bispinor:
    """Positive-energy bispinor for on-shell momentum p and spin r in {1, 2}.

    Satisfies ubar_r u_s = delta_rs and u^dagger u = E/m.  Rejects momenta
    off the mass shell by more than 1e-6 relative.
    """
    check_spin_label(r)
    check_on_shell(p, mass)
    e_plus_m = p.t + mass
    norm = math.sqrt(e_plus_m / (2.0 * mass))
    if r == 1:
        comps = np.array([1.0, 0.0,
                          p.z / e_plus_m,
                          (p.x + 1j * p.y) / e_plus_m], dtype=complex)
    else:
        comps = np.array([0.0, 1.0,
                          (p.x - 1j * p.y) / e_plus_m,
                          -p.z / e_plus_m], dtype=complex)
    return Bispinor(norm * comps, r, p)


def dirac_spinor_batch(p: np.ndarray, mass: float = ELECTRON_MASS_MEV) -> np.ndarray:
    """Both spin columns u_1, u_2 for stacked momenta (..., 4) -> (..., 4, 2)."""
    p = np.asarray(p, dtype=float)
    e_plus_m = p[..., 0] + mass
    norm = np.sqrt(e_plus_m / (2.0 * mass))
    out = np.zeros(p.shape[:-1] + (4, 2), dtype=complex)
    out[..., 0, 0] = 1.0
    out[..., 2, 0] = p[..., 3] / e_plus_m
    out[..., 3, 0] = (p[..., 1] + 1j * p[..., 2]) / e_plus_m
    out[..., 1, 1] = 1.0
    out[..., 2, 1] = (p[..., 1] - 1j * p[..., 2]) / e_plus_m
    out[..., 3, 1] = -p[..., 3] / e_plus_m
    return norm[..., None, None] * out


def dirac_spinor_bar_batch(p: np.ndarray, mass: float = ELECTRON_MASS_MEV) -> np.ndarray:
    """Rows ubar_1, ubar_2 for stacked momenta (..., 4) -> (..., 2, 4)."""
    cols = dirac_spinor_batch(p, mass)
    return np.einsum('...ar,ab->...rb', cols.conj(), GAMMA0)


def propagator_denominator(q: LorentzVector, mass: float = ELECTRON_MASS_MEV,
                           pole_guard: float = 1e-12) -> float:
    """q^2 - m^2, raising :class:`PropagatorPoleError` when its magnitude is
    below pole_guard * m^2."""
    denom = minkowski_dot(q, q) - mass * mass
    if abs(denom) < pole_guard * mass * mass:
        raise PropagatorPoleError(
            f"propagator pole: q^2 - m^2 = {denom:.6e} MeV^2")
    return denom


def propagator(q: LorentzVector, mass: float = ELECTRON_MASS_MEV,
               pole_guard: float = 1e-12) -> np.ndarray:
    """Electron propagator numerator-over-denominator (qslash + m)/(q^2 - m^2).

    Raises :class:`PropagatorPoleError` when |q^2 - m^2| < pole_guard * m^2;
    the physical phase space of the photon-splitting processes never reaches
    the pole, so this only traps malformed input.
    """
    return (slash(q) + mass * IDENTITY4) / propagator_denominator(
        q, mass, pole_guard)


@dataclass(frozen=True)
class PolarizationPair:
    """Two linear polarization basis vectors for a photon direction."""

    eps1: LorentzVector
    eps2: LorentzVector

    def get(self, label: int) -> LorentzVector:
        if label == 1:
            return self.eps1
        if label == 2:
            return self.eps2
        raise ValueError(f"polarization label must be 1 or 2, got {label}")


def polarization_basis(theta: float, phi: float) -> PolarizationPair:
    """Transverse linear polarization basis for propagation direction (theta, phi).

    eps^1 = (cos t cos p, cos t sin p, -sin t), eps^2 = (-sin p, cos p, 0),
    both embedded as four-vectors with zero time component so eps.k = 0.
    """
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    return PolarizationPair(
        LorentzVector(0.0, ct * cp, ct * sp, -st),
        LorentzVector(0.0, -sp, cp, 0.0),
    )


def photon_momentum(omega: float, theta: float, phi: float) -> LorentzVector:
    """Null four-momentum omega * (1, n) for direction (theta, phi)."""
    st = math.sin(theta)
    return LorentzVector(omega, omega * st * math.cos(phi),
                         omega * st * math.sin(phi), omega * math.cos(theta))


def photon_direction(theta: float, phi: float) -> LorentzVector:
    """Unit direction four-vector (1, n) for (theta, phi)."""
    st = math.sin(theta)
    return LorentzVector(1.0, st * math.cos(phi), st * math.sin(phi),
                         math.cos(theta))
