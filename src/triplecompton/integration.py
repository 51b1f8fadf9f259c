"""Phase-space Monte Carlo: detector-averaged cross sections, totals with an
infrared cutoff, and beam-collision event rates.

Sampling maps flatten the known structure of the integrand: photon energies
are drawn log-uniformly on [eps, w_max] (the soft divergence goes like 1/w),
and for a relativistic incoming electron the emission angles are drawn in the
backscatter cone theta = pi - (m/E_i) u with a heavy-tailed (Cauchy-like)
radial density in u that still covers the full sphere.

Reproducibility: every stratum owns a Philox counter-based substream with
key = (master_seed << 64) | stratum_index, and each stratum's weights and
squared weights are summed with correctly rounded summation (math.fsum) over
all of its samples, so results are bit-identical for a given (seed, budget,
config) regardless of batching; the per-stratum means are combined with
math.fsum as well.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cross_section import (unpolarized_differential_batch,
                            unpolarized_sigma5_batch)
from .constants import BARN_TO_CM2
from .kinematics import CollisionSetup

_MASK64 = (1 << 64) - 1

PROCESS_PHOTONS = {"single": 1, "double": 2, "triple": 3}
# Above the Lorentz factor E/m = BOOST_THRESHOLD, PhaseSpaceMap draws each
# photon in the backscatter cone: pi - theta = (m/E) CONE_SCALE tan(psi),
# psi uniform.
BOOST_THRESHOLD = 100.0
CONE_SCALE = 10.0


class BudgetError(RuntimeError):
    """Sampling budget too small for the requested estimate."""


class WindowError(ValueError):
    """Angular averaging window leaves the sphere."""


@dataclass(frozen=True)
class IntegrationResult:
    """Monte Carlo estimate with its statistical error (same unit)."""

    value: float
    statistical_error: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class BeamParameters:
    """Colliding-pulse parameters for event-rate estimates."""

    photons_per_pulse: float
    electrons_per_bunch: float
    transverse_size_um: float
    repetition_rate_hz: float

    def __post_init__(self):
        for name in ("photons_per_pulse", "electrons_per_bunch",
                     "repetition_rate_hz"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        # the rate divides by the overlap area pi (d/2)^2
        if not self.transverse_size_um > 0:
            raise ValueError("transverse_size_um must be positive")


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for one stratum."""
    key = ((int(seed) & _MASK64) << 64) | (int(index) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def stratified_monte_carlo(integrand, dim, strata, budget, seed,
                           batch: int = 8192):
    """Stratified mean of ``integrand`` over the unit cube [0,1)^dim.

    strata: tuple of cell counts applied to the leading dims (equal
    probability cells).  integrand maps (n, dim) -> (n,) weights already
    including all map Jacobians.  Returns (value, error, n_samples).
    """
    counts = tuple(int(c) for c in strata)
    n_cells = int(np.prod(counts)) if counts else 1
    n_per = int(budget) // n_cells
    if n_per < 2:
        raise BudgetError(
            f"budget {budget} gives {n_per} samples per stratum "
            f"({n_cells} strata); need at least 2")
    means, mean_vars = [], []
    for cell in range(n_cells):
        idx = []
        rem = cell
        for c in reversed(counts):
            idx.append(rem % c)
            rem //= c
        idx = idx[::-1]
        rng = substream(seed, cell)
        parts = []
        remaining = n_per
        while remaining > 0:
            nb = min(batch, remaining)
            x = rng.random((nb, dim))
            for axis, (i, c) in enumerate(zip(idx, counts)):
                x[:, axis] = (i + x[:, axis]) / c
            parts.append(np.asarray(integrand(x), float))
            remaining -= nb
        # correctly rounded sums over the whole stratum, so the batch
        # boundaries cannot change a bit of the result
        w = np.concatenate(parts)
        s1 = math.fsum(w)
        s2 = math.fsum(w * w)
        mean = s1 / n_per
        var = max(s2 / n_per - mean * mean, 0.0)
        means.append(mean)
        mean_vars.append(var / max(n_per - 1, 1))
    value = math.fsum(means) / n_cells
    error = math.sqrt(math.fsum(mean_vars)) / n_cells
    return value, error, n_per * n_cells


# ---------------------------------------------------------------------------
# coordinate maps

@dataclass(frozen=True)
class PhaseSpaceMap:
    """Unit-cube parameterization of the final-photon phase space.

    Coordinates are [energies (n_out - 1), then (radial, azimuth) per
    photon].  ``map_points`` returns detector angles, free energies and the
    product Jacobian so that mean(f * weight) over the cube estimates
    integral f dw_1..dw_{n-1} dOmega_1..dOmega_n.
    """

    setup: CollisionSetup
    n_out: int
    eps_mev: float

    @property
    def dim(self) -> int:
        return (self.n_out - 1) + 2 * self.n_out

    @property
    def backscatter(self) -> bool:
        return self.setup.e_i_mev / self.setup.mass > BOOST_THRESHOLD

    @property
    def log_range(self) -> float:
        return math.log(self.setup.omega_max / self.eps_mev)

    def map_points(self, x: np.ndarray):
        n_out = self.n_out
        n_free = n_out - 1
        weight = np.ones(x.shape[0])
        omegas = np.empty((n_free, x.shape[0]))
        span = self.log_range if n_free else 0.0
        for j in range(n_free):
            omegas[j] = self.eps_mev * np.exp(span * x[:, j])
            weight *= omegas[j] * span
        thetas = np.empty((n_out, x.shape[0]))
        phis = np.empty((n_out, x.shape[0]))
        for j in range(n_out):
            r = x[:, n_free + 2 * j]
            phis[j] = 2.0 * math.pi * x[:, n_free + 2 * j + 1]
            if self.backscatter:
                ratio = self.setup.mass / self.setup.e_i_mev
                u_max = math.pi / ratio
                psi_max = math.atan(u_max / CONE_SCALE)
                psi = r * psi_max
                u = CONE_SCALE * np.tan(psi)
                delta = ratio * u
                thetas[j] = math.pi - delta
                dtheta_dpsi = (ratio * CONE_SCALE
                               * (1.0 + (u / CONE_SCALE) ** 2))
                weight *= (np.sin(delta) * dtheta_dpsi * psi_max
                           * 2.0 * math.pi)
            else:
                cos_t = 2.0 * r - 1.0
                thetas[j] = np.arccos(np.clip(cos_t, -1.0, 1.0))
                weight *= 2.0 * 2.0 * math.pi
        return thetas, phis, omegas, weight


def total_cross_section(setup: CollisionSetup, threshold_eps: float,
                        process: str, budget: int = 1 << 19, seed: int = 1,
                        batch: int = 8192) -> IntegrationResult:
    """Total cross section in barns for 1, 2 or 3 emitted photons.

    Every detected photon must carry at least threshold_eps (mandatory for
    the two- and three-photon processes, whose soft divergence needs the
    cutoff).  The ordered-phase-space integral is divided by n_out! for the
    indistinguishable final photons.
    """
    if process not in PROCESS_PHOTONS:
        raise ValueError(f"unknown process {process!r}")
    n_out = PROCESS_PHOTONS[process]
    if n_out > 1 and threshold_eps <= 0.0:
        raise ValueError(
            "infrared cutoff threshold_eps > 0 is mandatory for the "
            "double and triple processes")
    if threshold_eps >= setup.omega_max:
        raise ValueError(
            f"threshold {threshold_eps} MeV is beyond the kinematic "
            f"maximum {setup.omega_max:.6g} MeV")
    ps = PhaseSpaceMap(setup, n_out, max(threshold_eps, 0.0))

    def integrand(x):
        thetas, phis, omegas, weight = ps.map_points(x)
        f = unpolarized_differential_batch(setup, n_out, thetas, phis,
                                           omegas, threshold_eps)
        return f * weight

    if n_out == 1:
        strata = (64,)
    else:
        strata = (8, 8)
    value, error, n = stratified_monte_carlo(integrand, ps.dim, strata,
                                             budget, seed, batch)
    sym = math.factorial(n_out)
    return IntegrationResult(value / sym, error / sym, n, seed)


def detector_average(setup: CollisionSetup, thetas, phis,
                     solid_angle_sr: float, threshold_eps: float,
                     budget: int = 1 << 20, seed: int = 1,
                     batch: int = 8192) -> IntegrationResult:
    """Unpolarized sigma5 averaged over three detector windows and integrated
    over photon energies above threshold, in b/sr^3.

    Each window spans phi_j +- sqrt(Omega)/2 and theta_j +-
    arcsin(sqrt(Omega)/2), the rectangle in (cos theta', phi') whose measure
    equals Omega at theta_j = pi/2; the result is normalized by Omega^3.
    """
    if solid_angle_sr <= 0:
        raise WindowError("solid angle must be positive")
    root = math.sqrt(solid_angle_sr)
    if root / 2.0 > 1.0:
        raise WindowError(f"solid angle {solid_angle_sr} sr too large")
    half_theta = math.asin(root / 2.0)
    thetas = [float(t) for t in thetas]
    phis = [float(p) for p in phis]
    for t in thetas:
        if t - half_theta <= 0.0 or t + half_theta >= math.pi:
            raise WindowError(
                f"theta window {t} +- {half_theta:.4f} leaves (0, pi)")
    if threshold_eps <= 0.0 or threshold_eps >= setup.omega_max:
        raise ValueError(
            f"threshold must lie in (0, {setup.omega_max:.6g}) MeV")
    span = math.log(setup.omega_max / threshold_eps)
    cos_hi = [math.cos(t - half_theta) for t in thetas]
    cos_lo = [math.cos(t + half_theta) for t in thetas]

    def integrand(x):
        w1 = threshold_eps * np.exp(span * x[:, 0])
        w2 = threshold_eps * np.exp(span * x[:, 1])
        weight = w1 * span * w2 * span
        th = np.empty((3, x.shape[0]))
        ph = np.empty((3, x.shape[0]))
        for j in range(3):
            c = cos_lo[j] + (cos_hi[j] - cos_lo[j]) * x[:, 2 + 2 * j]
            th[j] = np.arccos(np.clip(c, -1.0, 1.0))
            ph[j] = phis[j] + root * (x[:, 3 + 2 * j] - 0.5)
            weight = weight * (cos_hi[j] - cos_lo[j]) * root
        f = unpolarized_sigma5_batch(setup, th, ph, w1, w2, threshold_eps)
        return f * weight

    value, error, n = stratified_monte_carlo(integrand, 8, (8, 8), budget,
                                             seed, batch)
    norm = solid_angle_sr ** 3
    return IntegrationResult(value / norm, error / norm, n, seed)


def event_rate(sigma_barn: float, beams: BeamParameters) -> float:
    """Events per second for colliding pulses with perfect transverse overlap
    over an effective area pi (d/2)^2."""
    radius_cm = 0.5 * beams.transverse_size_um * 1e-4
    area_cm2 = math.pi * radius_cm * radius_cm
    return (sigma_barn * BARN_TO_CM2 * beams.photons_per_pulse
            * beams.electrons_per_bunch * beams.repetition_rate_hz
            / area_cm2)
