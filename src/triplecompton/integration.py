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
config) regardless of batching, including batches that span strata; the
per-stratum means are combined with math.fsum as well.

The integrand sees fixed batches of at most BATCH_ROWS rows, filled stratum
after stratum, so one batch may hold the tail of one stratum and the head of
the next.  Only one batch of points is alive at a time, so memory does not
grow with the budget, and a small budget costs one call rather than one per
stratum.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cross_section import (unpolarized_differential_batch,
                            unpolarized_sigma5_batch)
from .constants import BARN_TO_CM2
from .kinematics import CollisionSetup

_MASK64 = (1 << 64) - 1
# rows per integrand call, across stratum boundaries; the per-stratum sums do
# not depend on it
BATCH_ROWS = 256

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


class IntegrationResult(NamedTuple):
    """Monte Carlo estimate with its statistical error (same unit), and how
    well the sampler did: the number of non-zero weights, the effective
    sample size (sum w)^2 / sum w^2 and the largest stratum's share of the
    estimate's variance."""

    value: float
    statistical_error: float
    n_samples: int
    seed: int
    n_nonzero: int
    ess: float
    worst_stratum_var_share: float


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
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        # the rate divides by the overlap area pi (d/2)^2
        if not 0 < self.transverse_size_um < math.inf:
            raise ValueError("transverse_size_um must be finite and positive")


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for one stratum; the master seed
    must lie in [0, 2^64), the 64 bits of the key it fills."""
    seed = int(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed {seed} outside [0, 2^64)")
    key = (seed << 64) | (int(index) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def stratified_monte_carlo(integrand, dim, strata, budget,
                           seed) -> IntegrationResult:
    """Stratified mean of ``integrand`` over the unit cube [0,1)^dim.

    strata: tuple of cell counts applied to the leading dims (equal
    probability cells).  integrand maps (n, dim) -> (n,) weights already
    including all map Jacobians; it is called on batches of at most
    BATCH_ROWS rows that may span strata, so each row's weight must not
    depend on the other rows.  budget and seed must be integral (4096.0
    is, 4096.5 raises ValueError).
    """
    for name, value in (("budget", budget), ("seed", seed)):
        if not (isinstance(value, numbers.Integral)
                or float(value).is_integer()):
            raise ValueError(f"{name} {value!r} is not an integer")
    counts = tuple(int(c) for c in strata)
    n_cells = int(np.prod(counts)) if counts else 1
    n_per = int(budget) // n_cells
    if n_per < 2:
        raise BudgetError(
            f"budget {budget} gives {n_per} samples per stratum "
            f"({n_cells} strata); need at least 2")
    rows = BATCH_ROWS
    batch = np.empty((rows, dim))
    weights = np.empty(n_cells * n_per)
    done = filled = 0          # weights written, rows waiting in batch
    for cell in range(n_cells):
        idx = np.unravel_index(cell, counts)
        rng = substream(seed, cell)
        remaining = n_per
        while remaining > 0:
            nb = min(rows - filled, remaining)
            x = batch[filled:filled + nb]
            rng.random(out=x)
            for axis, (i, c) in enumerate(zip(idx, counts)):
                x[:, axis] = (i + x[:, axis]) / c
            filled += nb
            remaining -= nb
            if filled == rows or done + filled == weights.size:
                weights[done:done + filled] = integrand(batch[:filled])
                done += filled
                filled = 0
    # correctly rounded sums over each whole stratum, so the batch
    # boundaries cannot change a bit of the result
    cells = weights.reshape(n_cells, n_per)
    s1s = [math.fsum(w) for w in cells]
    s2s = [math.fsum(w * w) for w in cells]
    means = [s1 / n_per for s1 in s1s]
    mean_vars = [max(s2 / n_per - mean * mean, 0.0) / (n_per - 1)
                 for s2, mean in zip(s2s, means)]
    var_sum = math.fsum(mean_vars)
    s1, s2 = math.fsum(s1s), math.fsum(s2s)
    return IntegrationResult(
        math.fsum(means) / n_cells, math.sqrt(var_sum) / n_cells,
        weights.size, int(seed), int(np.count_nonzero(weights)),
        s1 * s1 / s2 if s2 > 0 else 0.0,
        max(mean_vars) / var_sum if var_sum > 0 else 0.0)


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
                        process: str, budget: int = 1 << 19,
                        seed: int = 1) -> IntegrationResult:
    """Total cross section in barns for 1, 2 or 3 emitted photons.

    Every detected photon must carry at least threshold_eps (mandatory for
    the two- and three-photon processes, whose soft divergence needs the
    cutoff).  The ordered-phase-space integral is divided by n_out! for the
    indistinguishable final photons.
    """
    if process not in PROCESS_PHOTONS:
        raise ValueError(f"unknown process {process!r}")
    n_out = PROCESS_PHOTONS[process]
    if n_out > 1 and not threshold_eps > 0.0:
        raise ValueError(
            "infrared cutoff threshold_eps > 0 is mandatory for the "
            "double and triple processes")
    if not threshold_eps < setup.omega_max:
        raise ValueError(
            f"threshold {threshold_eps} MeV is not below the kinematic "
            f"maximum {setup.omega_max:.6g} MeV")
    ps = PhaseSpaceMap(setup, n_out, max(threshold_eps, 0.0))

    def integrand(x):
        thetas, phis, omegas, weight = ps.map_points(x)
        f = unpolarized_differential_batch(setup, thetas, phis, omegas,
                                           threshold_eps)
        return f * weight

    if n_out == 1:
        strata = (64,)
    else:
        strata = (8, 8)
    est = stratified_monte_carlo(integrand, ps.dim, strata, budget, seed)
    scale = math.factorial(n_out)
    return est._replace(value=est.value / scale,
                        statistical_error=est.statistical_error / scale)


def detector_average(setup: CollisionSetup, thetas, phis,
                     solid_angle_sr: float, threshold_eps: float,
                     budget: int = 1 << 20,
                     seed: int = 1) -> IntegrationResult:
    """Unpolarized sigma5 averaged over three detector windows and integrated
    over photon energies above threshold, in b/sr^3.

    Each window spans phi_j +- sqrt(Omega)/2 and theta_j +-
    arcsin(sqrt(Omega)/2), the rectangle in (cos theta', phi') whose measure
    equals Omega at theta_j = pi/2; the result is normalized by Omega^3.
    """
    thetas = [float(t) for t in thetas]
    phis = [float(p) for p in phis]
    if len(thetas) != 3 or len(phis) != 3 \
            or not all(map(math.isfinite, thetas + phis)):
        raise ValueError("need three finite detector angles theta and phi")
    if not solid_angle_sr > 0:
        raise WindowError("solid angle must be positive")
    root = math.sqrt(solid_angle_sr)
    if not root / 2.0 <= 1.0:
        raise WindowError(f"solid angle {solid_angle_sr} sr too large")
    half_theta = math.asin(root / 2.0)
    for t in thetas:
        if not (t - half_theta > 0.0 and t + half_theta < math.pi):
            raise WindowError(
                f"theta window {t} +- {half_theta:.4f} leaves (0, pi)")
    if not 0.0 < threshold_eps < setup.omega_max:
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

    est = stratified_monte_carlo(integrand, 8, (8, 8), budget, seed)
    scale = solid_angle_sr ** 3
    return est._replace(value=est.value / scale,
                        statistical_error=est.statistical_error / scale)


def event_rate(sigma_barn: float, beams: BeamParameters) -> float:
    """Events per second for colliding pulses with perfect transverse overlap
    over an effective area pi (d/2)^2."""
    radius_cm = 0.5 * beams.transverse_size_um * 1e-4
    area_cm2 = math.pi * radius_cm * radius_cm
    return (sigma_barn * BARN_TO_CM2 * beams.photons_per_pulse
            * beams.electrons_per_bunch * beams.repetition_rate_hz
            / area_cm2)
