"""Phase-space Monte Carlo: detector-averaged cross sections, totals with an
infrared cutoff, and beam-collision event rates.

Both estimators run one sampler, _estimate, over the unit cube [free
energies, then (radial, azimuth) per photon].  Its one energy map draws the
free energies log-uniformly on [eps, omega_max] (the soft divergence goes
like 1/w).  Its angle map is one per geometry: the three detector windows,
or for totals the full sphere, drawn at every electron energy in the
backscatter cone theta = pi - (m/E_i) u with a heavy-tailed (Cauchy-like)
density in u that reaches theta = 0.

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

# unpolarized_sigma5_batch is not called here: perfbench/tracing.py patches
# it by this module's name
from .cross_section import (unpolarized_differential_batch,
                            unpolarized_sigma5_batch)
from .constants import BARN_TO_CM2
from .kinematics import CollisionSetup

_MASK64 = (1 << 64) - 1
# rows per integrand call, across stratum boundaries; the per-stratum sums do
# not depend on it
BATCH_ROWS = 256

PROCESS_PHOTONS = {"single": 1, "double": 2, "triple": 3}
# _sphere_angles draws each photon in the backscatter cone pi - theta =
# (m/E) CONE_SCALE tan(psi), psi uniform up to the angle where theta = 0.
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


def _check_integral(name: str, value) -> None:
    """ValueError unless value is integral (4096.0 is, 4096.5 is not)."""
    if not (isinstance(value, numbers.Integral)
            or float(value).is_integer()):
        raise ValueError(f"{name} {value!r} is not an integer")


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for one stratum; the master seed
    must be integral and lie in [0, 2^64), the 64 bits of the key it
    fills."""
    _check_integral("seed", seed)
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
    _check_integral("budget", budget)
    _check_integral("seed", seed)
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
    # boundaries cannot change a bit of the result; each variance sums the
    # squared deviations from the stratum's mean, which does not cancel
    # when the weights vary little against that mean; fsum reads Python
    # float lists faster than numpy rows
    cells = weights.reshape(n_cells, n_per)
    s1s = [math.fsum(w) for w in cells.tolist()]
    s2s = [math.fsum(w) for w in (cells * cells).tolist()]
    means = [s1 / n_per for s1 in s1s]
    deviations = (cells - np.array(means)[:, None]) ** 2
    mean_vars = [math.fsum(d) / n_per / (n_per - 1)
                 for d in deviations.tolist()]
    var_sum = math.fsum(mean_vars)
    s1, s2 = math.fsum(s1s), math.fsum(s2s)
    return IntegrationResult(
        math.fsum(means) / n_cells, math.sqrt(var_sum) / n_cells,
        weights.size, int(seed), int(np.count_nonzero(weights)),
        s1 * s1 / s2 if s2 > 0 else 0.0,
        max(mean_vars) / var_sum if var_sum > 0 else 0.0)


# ---------------------------------------------------------------------------
# one sampler: log-uniform free energies, one angle map per geometry

def _log_energies(x, eps, w_max):
    """Free photon energies (n_free, N), log-uniform on [eps, w_max], from
    the n_free columns of x, and their Jacobian prod_j w_j log(w_max/eps)."""
    weight = np.ones(x.shape[0])
    omegas = np.empty((x.shape[1], x.shape[0]))
    # the one-photon total has no free energy and may run at eps = 0
    if x.shape[1]:
        span = math.log(w_max / eps)
        for j in range(x.shape[1]):
            omegas[j] = eps * np.exp(span * x[:, j])
            weight *= omegas[j] * span
    return omegas, weight


def _sphere_angles(setup: CollisionSetup):
    """Angle map (x, weight) -> (thetas, phis) over the full sphere, one
    (radial, azimuth) column pair per photon: the backscatter cone
    pi - theta = (m/E) CONE_SCALE tan(psi) with psi uniform on [0, psi_max],
    where psi_max brings theta to exactly 0 at any E >= m."""
    ratio = setup.mass / setup.e_i_mev
    psi_max = math.atan(math.pi / ratio / CONE_SCALE)

    def angles(x, weight):
        thetas = np.empty((x.shape[1] // 2, x.shape[0]))
        phis = np.empty_like(thetas)
        for j in range(len(thetas)):
            u = CONE_SCALE * np.tan(x[:, 2 * j] * psi_max)
            delta = ratio * u
            thetas[j] = math.pi - delta
            phis[j] = 2.0 * math.pi * x[:, 2 * j + 1]
            dtheta_dpsi = ratio * CONE_SCALE * (1.0 + (u / CONE_SCALE) ** 2)
            weight *= (np.sin(delta) * dtheta_dpsi * psi_max
                       * 2.0 * math.pi)
        return thetas, phis
    return angles


def _window_angles(thetas, phis, root, half_theta):
    """Angle map over detector windows: photon j uniform in cos(theta') over
    theta_j +- half_theta and in phi' over phi_j +- root/2."""
    cos_hi = [math.cos(t - half_theta) for t in thetas]
    cos_lo = [math.cos(t + half_theta) for t in thetas]

    def angles(x, weight):
        th = np.empty((len(thetas), x.shape[0]))
        ph = np.empty_like(th)
        for j in range(len(thetas)):
            c = cos_lo[j] + (cos_hi[j] - cos_lo[j]) * x[:, 2 * j]
            th[j] = np.arccos(np.clip(c, -1.0, 1.0))
            ph[j] = phis[j] + root * (x[:, 2 * j + 1] - 0.5)
            weight *= cos_hi[j] - cos_lo[j]
            weight *= root
        return th, ph
    return angles


def _estimate(setup, n_out, eps, angles, strata, budget, seed, scale):
    """Stratified integral of the n_out-photon unpolarized differential cross
    section over the free energies above eps and the directions ``angles``
    maps, divided by ``scale``.  The cross section and the sampler are read
    from this module's globals at call time, where perfbench/tracing.py
    patches them."""
    n_free = n_out - 1
    w_max = setup.omega_max

    def integrand(x):
        omegas, weight = _log_energies(x[:, :n_free], eps, w_max)
        thetas, phis = angles(x[:, n_free:], weight)
        f = unpolarized_differential_batch(setup, thetas, phis, omegas, eps)
        return f * weight

    est = stratified_monte_carlo(integrand, 3 * n_out - 1, strata, budget,
                                 seed)
    return est._replace(value=est.value / scale,
                        statistical_error=est.statistical_error / scale)


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
    strata = (64,) if n_out == 1 else (8, 8)
    return _estimate(setup, n_out, threshold_eps, _sphere_angles(setup),
                     strata, budget, seed, math.factorial(n_out))


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
    return _estimate(setup, 3, threshold_eps,
                     _window_angles(thetas, phis, root, half_theta), (8, 8),
                     budget, seed, solid_angle_sr ** 3)


def event_rate(sigma_barn: float, beams: BeamParameters) -> float:
    """Events per second for colliding pulses with perfect transverse overlap
    over an effective area pi (d/2)^2; sigma_barn must be finite and
    non-negative."""
    if not 0 <= sigma_barn < math.inf:
        raise ValueError(
            f"sigma_barn must be finite and non-negative, got {sigma_barn!r}")
    radius_cm = 0.5 * beams.transverse_size_um * 1e-4
    area_cm2 = math.pi * radius_cm * radius_cm
    return (sigma_barn * BARN_TO_CM2 * beams.photons_per_pulse
            * beams.electrons_per_bunch * beams.repetition_rate_hz
            / area_cm2)
