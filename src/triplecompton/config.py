"""Scenario configuration: file format, defaults and validation.

``ScenarioConfig`` is the schema: each field is one file key, parsed as the
type of its default, an integer exactly.  README.md's "Config files" section
describes the file format and lists the keys.  ``validate_config`` asks the
engine's own checks for every rule the engine states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .amplitude import beam_basis_arrays
from .constants import ELECTRON_MASS_MEV
from .integration import BeamParameters, _integer, _window_width
from .kinematics import CollisionSetup, _check_directions


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
        """Label 1 (x) or 2 (y), or the (ex, ey) components, which the
        amplitude layer checks; ValueError for other text."""
        text = str(self.beam_polarization).strip()
        labels = {"x": 1, "1": 1, "y": 2, "2": 2}
        if text in labels:
            return labels[text]
        try:
            return tuple(float(tok) for tok in text.split(","))
        except ValueError:
            raise ValueError(
                f"expected x, y or 'ex,ey', got {text!r}") from None


# Field overrides per named scenario on top of the ScenarioConfig defaults,
# which are the mgbr1968 scenario.
SCENARIO_DEFAULTS = {
    "mgbr1968": {},
    "xfel": dict(
        e_i_mev=5000.0,
        omega0_mev=0.001,
        theta_rad=(math.pi - 1.5e-3, math.pi - 1.5e-3, math.pi - 1.5e-3),
        threshold_mev=50.0,
        grid_omega1_min_mev=50.0, grid_omega1_max_mev=1400.0,
        grid_omega2_min_mev=50.0, grid_omega2_max_mev=1400.0,
    ),
}

# the file key of each field: the grid_, beams_ and scan_ fields nest under
# their prefix ("grid.n_omega1"), the others are keyed by their name
_FILE_KEYS = {f.name: f.name.replace("_", ".", 1)
              if f.name.startswith(("grid_", "beams_", "scan_")) else f.name
              for f in fields(ScenarioConfig)}
_FIELD_NAMES = {key: name for name, key in _FILE_KEYS.items()}
_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig)}


def parse_config_file(path) -> dict:
    """Read key = value lines into a flat {field_name: raw_string} dict;
    an unknown key or one set twice is a ConfigError."""
    values = {}
    set_on = {}                 # field name -> line that set it
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
            if key not in _FIELD_NAMES:
                problems.append(f"line {lineno}: unknown key {key!r}")
                continue
            name = _FIELD_NAMES[key]
            if name in set_on:
                problems.append(f"line {lineno}: key {key!r} already set "
                                f"on line {set_on[name]}")
                continue
            values[name] = value.strip()
            set_on[name] = lineno
    if problems:
        raise ConfigError(problems)
    return values


def _coerce(name: str, raw):
    """raw as the type of the field's default, an integer read exactly
    (see integration._integer); ValueError if it does not parse."""
    kind = type(_DEFAULTS[name])
    if kind is int:
        return _integer(name, raw)
    if not isinstance(raw, str):
        return raw
    try:
        if kind is tuple:
            return tuple(float(tok) for tok in raw.split(","))
        return kind(raw)
    except ValueError:
        raise ValueError(f"cannot parse {raw!r}") from None


def resolve_config(scenario=None, file_values=None, overrides=None
                   ) -> ScenarioConfig:
    """Merge scenario defaults, file values and flag overrides; validate.
    A value that does not parse is reported with every other problem."""
    problems = []
    name = scenario or (file_values or {}).get("scenario") or "mgbr1968"
    if name not in SCENARIO_DEFAULTS:
        raise ConfigError([f"scenario: unknown scenario {name!r}"])
    merged = dict(SCENARIO_DEFAULTS[name])
    for source in (file_values or {}, overrides or {}):
        for key, value in source.items():
            if value is not None:
                try:
                    merged[key] = _coerce(key, value)
                except ValueError as exc:
                    problems.append(f"{key}: {exc}")
    merged["scenario"] = name
    cfg = ScenarioConfig(**merged)
    try:
        validate_config(cfg)
    except ConfigError as exc:
        problems += exc.problems
    if problems:
        raise ConfigError(problems)
    return cfg


def validate_config(cfg: ScenarioConfig) -> None:
    """ConfigError listing every problem with cfg.  Each engine check is
    asked of each finite field alone, its other fields at their defaults;
    the config states only what the engine cannot know."""
    non_finite = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        entries = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(v) for v in entries
                   if isinstance(v, float)):
            non_finite.append(f.name)
    problems = [f"{name}: must be finite" for name in non_finite]
    # the engine's own checks of config fields, each with the fields it takes
    checks = ((CollisionSetup, ("e_i_mev", "omega0_mev")),
              (_check_directions, ("theta_rad", "phi_rad")),
              (_window_width, ("solid_angle_sr",)),
              (BeamParameters, tuple("beams_" + f.name
                                     for f in fields(BeamParameters))))
    for check, names in checks:
        for name in [n for n in names if n not in non_finite]:
            try:
                check(*(getattr(cfg, n) if n == name else _DEFAULTS[n]
                        for n in names))
            except ValueError as exc:
                problems.append(f"{_FILE_KEYS[name]}: {exc}")
    try:
        beam_basis_arrays(cfg.beam_pol_value())
    except ValueError as exc:
        problems.append(f"beam_polarization: {exc}")
    # the config's own rules; a budget of 128 is 2 samples in each of the
    # sampler's 64 strata
    for t in cfg.theta_rad:
        if not 0.0 < t < math.pi:
            problems.append(f"theta_rad: {t} outside (0, pi)")
    if cfg.threshold_mev <= 0:
        problems.append("threshold_mev: must be positive")
    if cfg.budget < 128:
        problems.append(f"budget: {cfg.budget} too small (need >= 128)")
    for axis in ("omega1", "omega2"):
        lo = getattr(cfg, f"grid_{axis}_min_mev")
        hi = getattr(cfg, f"grid_{axis}_max_mev")
        n = getattr(cfg, f"grid_n_{axis}")
        if lo <= 0 or hi < lo or (n > 1 and hi == lo):
            problems.append(f"grid.{axis}: need 0 < min <= max, got [{lo}, {hi}]")
        if n < 1:
            problems.append(f"grid.n_{axis}: need at least 1 point")
    if not 0 < cfg.scan_omega0_min_mev <= cfg.scan_omega0_max_mev:
        problems.append("scan: need 0 < omega0_min_mev <= omega0_max_mev")
    if cfg.scan_n_points < 1:
        problems.append("scan.n_points: need at least 1 point")
    if problems:
        raise ConfigError(problems)


def config_lines(cfg: ScenarioConfig) -> list:
    """Sorted key = value lines, one per field, for metadata records.  Each
    value is written exactly (a float as its shortest round-trip repr), so
    the lines read back as a file give cfg itself."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ", ".join(map(str, value))
        lines.append(f"{_FILE_KEYS[f.name]} = {value}")
    return sorted(lines)
