"""Scenario configuration: file format, defaults and validation.

Config files are plain text ``key = value`` lines; dots in keys nest
(``grid.n_omega1 = 48``), ``#`` starts a comment, lists are comma separated
and every physical quantity carries its unit in the key name.  Command-line
flags override file values, which override the named scenario's defaults.

Schema (all keys optional once a scenario is chosen):

    scenario = mgbr1968 | xfel
    e_i_mev, omega0_mev                 -- beam energies
    theta_rad, phi_rad                  -- three detector angles each
    solid_angle_sr                      -- averaging window per detector
    threshold_mev                       -- detector energy threshold
    beam_polarization = x | y | <ex,ey>
    seed, budget                        -- reproducibility and sample count
    grid.omega1_min_mev, grid.omega1_max_mev, grid.n_omega1
    grid.omega2_min_mev, grid.omega2_max_mev, grid.n_omega2
    beams.photons_per_pulse, beams.electrons_per_bunch,
    beams.transverse_size_um, beams.repetition_rate_hz
    scan.omega0_min_mev, scan.omega0_max_mev, scan.n_points
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

from .constants import ELECTRON_MASS_MEV


class ConfigError(ValueError):
    """Validation failure; ``problems`` lists field-level messages."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass
class ScenarioConfig:
    scenario: str = "mgbr1968"
    e_i_mev: float = ELECTRON_MASS_MEV
    omega0_mev: float = 0.662
    theta_rad: tuple = (math.pi / 2, math.pi / 2, math.pi / 2)
    phi_rad: tuple = (2 * math.pi / 3, 4 * math.pi / 3, 0.0)
    solid_angle_sr: float = 0.378
    threshold_mev: float = 0.013
    beam_polarization: str = "x"
    seed: int = 20120
    budget: int = 1 << 18
    grid_omega1_min_mev: float = 0.013
    grid_omega1_max_mev: float = 0.55
    grid_n_omega1: int = 40
    grid_omega2_min_mev: float = 0.013
    grid_omega2_max_mev: float = 0.55
    grid_n_omega2: int = 40
    beams_photons_per_pulse: float = 2e13
    beams_electrons_per_bunch: float = 1e9
    beams_transverse_size_um: float = 40.0
    beams_repetition_rate_hz: float = 120.0
    scan_omega0_min_mev: float = 1e-2
    scan_omega0_max_mev: float = 1e2
    scan_n_points: int = 9

    def beam_pol_value(self):
        """Polarization label or transverse vector for the amplitude layer."""
        text = str(self.beam_polarization).strip()
        if text in ("x", "1"):
            return 1
        if text in ("y", "2"):
            return 2
        try:
            parts = [float(tok) for tok in text.split(",")]
        except ValueError:
            parts = []
        if len(parts) != 2 or not 0.0 < math.hypot(*parts) < math.inf:
            raise ConfigError(
                [f"beam_polarization: expected x, y or 'ex,ey', got {text!r}"])
        return tuple(parts)


# Field overrides per named scenario on top of the ScenarioConfig defaults,
# which are the mgbr1968 scenario.
SCENARIO_DEFAULTS = {
    "mgbr1968": {},
    "xfel": dict(
        e_i_mev=5000.0,
        omega0_mev=0.001,
        theta_rad=(math.pi - 1.5e-3, math.pi - 1.5e-3, math.pi - 1.5e-3),
        phi_rad=(2 * math.pi / 3, 4 * math.pi / 3, 0.0),
        solid_angle_sr=0.378,
        threshold_mev=50.0,
        grid_omega1_min_mev=50.0, grid_omega1_max_mev=1400.0,
        grid_n_omega1=40,
        grid_omega2_min_mev=50.0, grid_omega2_max_mev=1400.0,
        grid_n_omega2=40,
    ),
}

# dotted file keys ("grid.n_omega1") for the prefixed fields
_KEY_ALIASES = {f.name.replace("_", ".", 1): f.name
                for f in fields(ScenarioConfig)
                if f.name.startswith(("grid_", "beams_", "scan_"))}

_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def parse_config_file(path) -> dict:
    """Read key = value lines into a flat {field_name: raw_string} dict."""
    values = {}
    problems = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                problems.append(f"line {lineno}: expected 'key = value'")
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            name = _KEY_ALIASES.get(key, key)
            if name not in _FIELD_TYPES:
                problems.append(f"line {lineno}: unknown key {key!r}")
                continue
            values[name] = value.strip()
    if problems:
        raise ConfigError(problems)
    return values


def _coerce(name: str, raw, problems: list):
    """raw as the field's type; integer fields take any integral value,
    whatever type it arrives as (7, 7.0, "1e6")."""
    kind = str(_FIELD_TYPES[name])
    if "int" not in kind and not isinstance(raw, str):
        return raw
    try:
        if name in ("theta_rad", "phi_rad"):
            return tuple(float(tok) for tok in raw.split(","))
        if "int" in kind:
            if isinstance(raw, numbers.Integral):
                return int(raw)
            value = float(raw)
            if not value.is_integer():
                problems.append(f"{name}: {raw!r} is not an integer")
                return None
            return int(value)
        if "float" in kind:
            return float(raw)
        return raw
    except (TypeError, ValueError, OverflowError):
        problems.append(f"{name}: cannot parse {raw!r}")
        return None


def resolve_config(scenario=None, file_values=None, overrides=None
                   ) -> ScenarioConfig:
    """Merge scenario defaults, file values and flag overrides; validate."""
    problems = []
    file_values = dict(file_values or {})
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    name = (scenario or overrides.get("scenario")
            or file_values.get("scenario") or "mgbr1968")
    if name not in SCENARIO_DEFAULTS:
        raise ConfigError([f"scenario: unknown scenario {name!r}"])
    merged = dict(SCENARIO_DEFAULTS[name])
    merged["scenario"] = name
    for source in (file_values, overrides):
        for key, value in source.items():
            if key == "scenario":
                continue
            merged[key] = _coerce(key, value, problems)
    if problems:
        raise ConfigError(problems)
    cfg = ScenarioConfig(**merged)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ScenarioConfig) -> None:
    problems = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        entries = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(v) for v in entries
                   if isinstance(v, float)):
            problems.append(f"{f.name}: must be finite")
    if cfg.e_i_mev < ELECTRON_MASS_MEV:
        problems.append(f"e_i_mev: {cfg.e_i_mev} below the electron mass")
    if cfg.omega0_mev <= 0:
        problems.append("omega0_mev: must be positive")
    if len(cfg.theta_rad) != 3:
        problems.append("theta_rad: need exactly three angles")
    if len(cfg.phi_rad) != 3:
        problems.append("phi_rad: need exactly three angles")
    for t in cfg.theta_rad:
        if not 0.0 < t < math.pi:
            problems.append(f"theta_rad: {t} outside (0, pi)")
    if cfg.solid_angle_sr <= 0 or math.sqrt(cfg.solid_angle_sr) / 2 > 1:
        problems.append(
            f"solid_angle_sr: {cfg.solid_angle_sr} outside (0, 4]")
    if cfg.threshold_mev <= 0:
        problems.append("threshold_mev: must be positive")
    if cfg.budget < 128:
        problems.append(f"budget: {cfg.budget} too small (need >= 128)")
    if not 0 <= cfg.seed < 1 << 64:
        problems.append(f"seed: {cfg.seed} outside [0, 2^64)")
    for axis in ("omega1", "omega2"):
        lo = getattr(cfg, f"grid_{axis}_min_mev")
        hi = getattr(cfg, f"grid_{axis}_max_mev")
        n = getattr(cfg, f"grid_n_{axis}")
        if lo <= 0 or hi < lo or (n > 1 and hi == lo):
            problems.append(f"grid.{axis}: need 0 < min <= max, got [{lo}, {hi}]")
        if n < 1:
            problems.append(f"grid.n_{axis}: need at least 1 point")
    if cfg.scan_omega0_min_mev <= 0 \
            or cfg.scan_omega0_max_mev < cfg.scan_omega0_min_mev:
        problems.append("scan: need 0 < omega0_min_mev <= omega0_max_mev")
    if cfg.scan_n_points < 1:
        problems.append("scan.n_points: need at least 1 point")
    for name in ("beams_photons_per_pulse", "beams_electrons_per_bunch",
                 "beams_repetition_rate_hz"):
        if getattr(cfg, name) < 0:
            problems.append(f"{name.replace('_', '.', 1)}: must be >= 0")
    if not cfg.beams_transverse_size_um > 0:
        problems.append("beams.transverse_size_um: must be > 0")
    try:
        cfg.beam_pol_value()
    except ConfigError as exc:
        problems.extend(exc.problems)
    if problems:
        raise ConfigError(problems)


def config_lines(cfg: ScenarioConfig) -> list:
    """Canonical key = value rendering (sorted), for metadata records."""
    inverse = {v: k for k, v in _KEY_ALIASES.items()}
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ", ".join(f"{v:.12g}" for v in value)
        elif isinstance(value, float):
            value = f"{value:.12g}"
        lines.append(f"{inverse.get(f.name, f.name)} = {value}")
    return sorted(lines)
