"""Four-vectors, Dirac matrices, bispinors and propagator checks.

Metric signature is (+,-,-,-).  Four-vectors are float arrays ``(..., 4)``
ordered (t, x, y, z).  The gamma matrices are kept in the Dirac
representation (diagonal gamma^0); every squared amplitude is representation
independent, so one representation is pinned for reproducibility.  The
spinors are positive-energy solutions normalized to
ubar_r(p) u_s(p) = delta_rs.

Everything here is a pure function of its inputs.
"""
from __future__ import annotations

import numbers

import numpy as np

from .constants import ELECTRON_MASS_MEV as M

# |q^2 - m^2| below this many m^2 counts as the propagator pole
POLE_GUARD = 1e-12


class OffShellError(ValueError):
    """Momentum violates its mass-shell requirement."""


class PropagatorPoleError(ValueError):
    """Virtual momentum is too close to the mass shell to form a propagator."""


def minkowski_dot(a: np.ndarray, b: np.ndarray):
    """a.b = a^0 b^0 - a.b (three-vector part) over the last axis."""
    a, b = np.asarray(a), np.asarray(b)
    return (a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1]
            - a[..., 2] * b[..., 2] - a[..., 3] * b[..., 3])


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


def slash_batch(a: np.ndarray) -> np.ndarray:
    """a^mu gamma_mu for four-vectors (..., 4) -> (..., 4, 4) complex.

    The entries are written out (each is one component up to sign and a
    factor i), which is exact and far cheaper than summing over GAMMA.
    This is the reference form: the amplitude kernel builds its vertex
    blocks and exit rows from the components instead, and the tests and
    the term-by-term oracle check them against this matrix.
    """
    a = np.asarray(a)
    t, z = a[..., 0], a[..., 3]
    plus, minus = a[..., 1] + 1j * a[..., 2], a[..., 1] - 1j * a[..., 2]
    out = np.zeros(a.shape[:-1] + (4, 4), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = t
    out[..., 2, 2] = out[..., 3, 3] = -t
    out[..., 0, 2] = out[..., 3, 1] = -z
    out[..., 1, 3] = out[..., 2, 0] = z
    out[..., 0, 3], out[..., 1, 2] = -minus, -plus
    out[..., 2, 1], out[..., 3, 0] = minus, plus
    return out


def is_label(value, allowed) -> bool:
    """Whether value is an integer in allowed (any integral type; 1.0 is
    not, and neither is True, although True == 1)."""
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value in allowed)


def check_labels(*labels) -> None:
    """Raise ValueError unless every polarization or spin label is the
    integer 1 or 2, as :func:`is_label` reads it."""
    for label in labels:
        if not is_label(label, (1, 2)):
            raise ValueError(
                f"polarization and spin labels must be 1 or 2, got {label}")


def check_on_shell(p: np.ndarray) -> None:
    """Raise :class:`OffShellError` unless the four-vector p has positive
    energy and |p^2 - m^2| is within 1e-6 m^2 plus 8 eps p_0^2, the
    rounding of p_0^2 - |p|^2 at energy p_0."""
    off = abs(minkowski_dot(p, p) - M * M) / (M * M)
    bound = 1e-6 + 8.0 * np.finfo(float).eps * (p[0] / M) ** 2
    if not off <= bound:
        raise OffShellError(
            f"momentum off-shell: |p^2 - m^2|/m^2 = {off:.3e} > {bound:.3e}")
    if p[0] <= 0:
        raise OffShellError("positive-energy spinor requires E > 0")


def dirac_spinor_batch(p: np.ndarray) -> np.ndarray:
    """Both spin columns u_1, u_2 for momenta (..., 4) -> (..., 4, 2).

    Satisfies ubar_r u_s = delta_rs and u^dagger u = E/m for on-shell p;
    the mass shell is not checked here (see :func:`check_on_shell`).
    """
    p = np.asarray(p, dtype=float)
    e_plus_m = p[..., 0] + M
    norm = np.sqrt(e_plus_m / (2.0 * M))
    out = np.zeros(p.shape[:-1] + (4, 2), dtype=complex)
    out[..., 0, 0] = 1.0
    out[..., 2, 0] = p[..., 3] / e_plus_m
    out[..., 3, 0] = (p[..., 1] + 1j * p[..., 2]) / e_plus_m
    out[..., 1, 1] = 1.0
    out[..., 2, 1] = (p[..., 1] - 1j * p[..., 2]) / e_plus_m
    out[..., 3, 1] = -p[..., 3] / e_plus_m
    return norm[..., None, None] * out


def dirac_spinor_bar_batch(p: np.ndarray) -> np.ndarray:
    """Rows ubar_1, ubar_2 for momenta (..., 4) -> (..., 2, 4).

    Together with :func:`dirac_spinor_batch` this is the reference form:
    the amplitude kernel writes its spinor entries from the components
    instead, and the tests and the term-by-term oracle check them against
    these.
    """
    cols = dirac_spinor_batch(p)
    return np.einsum('...ar,ab->...rb', cols.conj(), GAMMA0)
