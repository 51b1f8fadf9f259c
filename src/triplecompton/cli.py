"""Command-line front end: batch scenario runs with reproducible outputs.

Subcommands
    mgbr1968  detector-averaged cross section in the rest-frame coincidence
              geometry, with the reference theory/experiment lines
    grid      (omega1, omega2) maps of sigma5 (eight polarization panels)
              or of the entanglement measure tau
    totals    total cross sections for the one-, two- and three-photon
              processes plus beam-collision event rates
    scan      detector average versus incoming photon energy on a log grid

Every run writes its files and a ``metadata.txt`` through one function,
``_record``.  The record holds the command, the code version, every resolved
config value written exactly, the run's counts and the names of the files
written; less its command, version, count and files lines it is a config
that reproduces every file byte for byte.

Exit codes: 0 success, 2 config validation failure or an --out that
cannot be made a directory, 3 numerical non-convergence or insufficient
sampling budget.
"""
from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import SCENARIO_DEFAULTS, ConfigError, ScenarioConfig, \
    config_lines, parse_config_file, resolve_config
from .cross_section import PANEL_LETTERS, PANEL_ORDER, sigma5_panel_grids
from .entanglement import SolverError, tau_grid
from .integration import (PROCESS_PHOTONS, BeamParameters, BudgetError,
                          detector_average, event_rate, total_cross_section)
from .kinematics import CollisionSetup, threshold_boundary

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Published reference values, rendered in reports only, never used in any
# computation: the detector-averaged theory/measurement pair for the
# historical rest-frame coincidence experiment.
REFERENCE_THEORY_B_SR3 = 4.1e-9
REFERENCE_EXPERIMENT_B_SR3 = (8.1e-9, 2.4e-9)


def _setup_from_config(cfg: ScenarioConfig) -> CollisionSetup:
    return CollisionSetup(cfg.e_i_mev, cfg.omega0_mev)


def _record(out_dir: Path, cfg: ScenarioConfig, command: str, files: dict,
            extra=()) -> None:
    """Write each ``name: text`` entry of files into out_dir, which main
    has made, then the run's metadata.txt: command, version, config lines,
    extra and the file names."""
    lines = [f"command = {command}", f"version = {__version__}",
             *config_lines(cfg), *extra, f"files = {', '.join(files)}"]
    files = {**files, "metadata.txt": "\n".join(lines) + "\n"}
    for name, text in files.items():
        with open(out_dir / name, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _sampler_line(label: str, res) -> str:
    """How the sampler did on one estimate, on a line of its own."""
    return (f"  {label}: n_nonzero = {res.n_nonzero} of {res.n_samples}, "
            f"ess = {res.ess:.6g}, worst_stratum_var_share = "
            f"{res.worst_stratum_var_share:.4f}")


def run_mgbr1968(cfg: ScenarioConfig, out_dir: Path) -> str:
    setup = _setup_from_config(cfg)
    res = detector_average(setup, cfg.theta_rad, cfg.phi_rad,
                           cfg.solid_angle_sr, cfg.threshold_mev,
                           budget=cfg.budget, seed=cfg.seed)
    exp_val, exp_err = REFERENCE_EXPERIMENT_B_SR3
    pull = (exp_val - res.value) / exp_err
    lines = [
        "detector-averaged cross section",
        f"  omega0 = {cfg.omega0_mev:.6g} MeV on an electron at rest",
        f"  windows: Omega = {cfg.solid_angle_sr:.6g} sr per detector, "
        f"threshold = {cfg.threshold_mev * 1e3:.6g} keV",
        f"  <sigma> = {res.value:.6e} +- {res.statistical_error:.2e} b/sr^3"
        f"   (n = {res.n_samples}, seed = {res.seed})",
        _sampler_line("sampler", res),
        f"  reference theory:     {REFERENCE_THEORY_B_SR3:.1e} b/sr^3",
        f"  reference experiment: ({exp_val * 1e9:.1f} +- {exp_err * 1e9:.1f})"
        "e-09 b/sr^3",
        f"  experiment - this run: {pull:.2f} experimental standard "
        "deviations",
    ]
    report = "\n".join(lines) + "\n"
    _record(out_dir, cfg, "mgbr1968", {"report.txt": report},
            [f"n_samples = {res.n_samples}"])
    return report


def _grid_template(w1s, w2s, masked, columns, slot: str) -> str:
    """One grid's table as a %-format template, filled per table by
    :func:`_fill_grid` with the values of its unmasked cells.

    The header names the value columns between the coordinates and the mask
    flag.  Each row, omega1 major, holds its fixed "omega1\tomega2\t" text,
    its values and its fixed "\t1" or "\t0" mask flag.  An unmasked row's
    values are the slot, one format per value column ("%.10e", or for the
    tau diagnostics "%d" and five "\t%.10e"); a masked row's are the slot
    formatted at zero, written here once.  So only the unmasked cells'
    values are formatted per table.
    """
    zero = slot % ((0,) * slot.count("%"))
    w1_text = [f"{w1:.10e}\t" for w1 in w1s.tolist()]
    w2_text = [f"{w2:.10e}\t" for w2 in w2s.tolist()]
    lines = ["\t".join(("omega1_mev", "omega2_mev") + columns + ("masked",))]
    lines += [f"{w1}{w2}{zero if m else slot}\t{int(m)}"
              for (w1, w2), m in zip(itertools.product(w1_text, w2_text),
                                     masked.ravel().tolist())]
    return "\n".join(lines) + "\n"


def _fill_grid(template: str, values: np.ndarray, masked: np.ndarray) -> str:
    """template % the unmasked cells' values, (n1, n2) or (n1, n2, columns).

    A masked cell's row already reads zero, so its values must be +0.0, as
    they are by construction; any other value, -0.0 included, raises
    RuntimeError rather than be dropped from the table.
    """
    dropped = values[masked]
    if ((dropped != 0.0) | np.signbit(dropped)).any():
        raise RuntimeError("a masked grid cell holds a value other than +0.0")
    return template % tuple(values[~masked].ravel().tolist())


# the tau map's solver diagnostics, one row per cell; masked cells read zero
_DIAGNOSTICS = ("iterations", "certificate_gap", "witness_residual",
               "primal_residual", "dual_residual", "feasibility_shift")


def run_grid(cfg: ScenarioConfig, observable: str, out_dir: Path) -> str:
    setup = _setup_from_config(cfg)
    w1s = np.linspace(cfg.grid_omega1_min_mev, cfg.grid_omega1_max_mev,
                      cfg.grid_n_omega1)
    w2s = np.linspace(cfg.grid_omega2_min_mev, cfg.grid_omega2_max_mev,
                      cfg.grid_n_omega2)
    beam = cfg.beam_pol_value()
    if observable == "sigma5":
        panels, masked = sigma5_panel_grids(
            setup, cfg.theta_rad, cfg.phi_rad, w1s, w2s, beam,
            cfg.threshold_mev)
        template = _grid_template(w1s, w2s, masked, ("sigma5_b_mev2_sr3",),
                                  "%.10e")
        files = {f"sigma5_panel_{letter}_{label}.dat":
                 _fill_grid(template, panels[label], masked)
                 for letter, label in zip(PANEL_LETTERS, PANEL_ORDER)}
        boundary = threshold_boundary(setup, cfg.theta_rad, cfg.phi_rad,
                                      w1s, cfg.threshold_mev)
        rows = ["omega1_mev\tomega2_mev"]
        rows += [f"{a:.10e}\t{b:.10e}" for a, b in boundary]
        files["threshold_boundary.dat"] = "\n".join(rows) + "\n"
    else:
        taus, masked, results = tau_grid(
            setup, cfg.theta_rad, cfg.phi_rad, w1s, w2s, beam,
            cfg.threshold_mev)
        template = _grid_template(w1s, w2s, masked, ("tau",), "%.10e")
        files = {"tau_grid.dat": _fill_grid(template, taus, masked)}
        diagnostics = np.zeros(results.shape + (len(_DIAGNOSTICS),))
        for cell, res in np.ndenumerate(results):
            if res is not None:
                diagnostics[cell] = (
                    res.iterations, res.upper_bound - res.tau,
                    res.witness.max_residual, res.primal_residual,
                    res.dual_residual, res.feasibility_shift)
        template = _grid_template(w1s, w2s, masked, _DIAGNOSTICS,
                                  "%d" + "\t%.10e" * (len(_DIAGNOSTICS) - 1))
        files["tau_diagnostics.dat"] = _fill_grid(template, diagnostics,
                                                  masked)
    _record(out_dir, cfg, f"grid {observable}", files)
    return f"wrote {len(files)} file(s) to {out_dir}\n"


def run_totals(cfg: ScenarioConfig, processes, out_dir: Path) -> str:
    # each named process runs once, in the order first named
    processes = list(dict.fromkeys(processes))
    setup = _setup_from_config(cfg)
    beams = BeamParameters(cfg.beams_photons_per_pulse,
                           cfg.beams_electrons_per_bunch,
                           cfg.beams_transverse_size_um,
                           cfg.beams_repetition_rate_hz)
    lines = ["total cross sections",
             f"  E_i = {cfg.e_i_mev:.6g} MeV, omega0 = {cfg.omega0_mev:.6g} "
             f"MeV, threshold = {cfg.threshold_mev:.6g} MeV"]
    results = {}
    for process in processes:
        res = total_cross_section(setup, cfg.threshold_mev, process,
                                  budget=cfg.budget, seed=cfg.seed)
        results[process] = res
        rate = event_rate(res.value, beams)
        lines.append(
            f"  sigma_{process:<6s} = {res.value:.6e} +- "
            f"{res.statistical_error:.2e} b   rate = {rate:.3e} /s")
        lines.append(_sampler_line(f"sampler {process:<6s}", res))
    lines.append(
        f"  beams: {beams.photons_per_pulse:.3g} photons/pulse, "
        f"{beams.electrons_per_bunch:.3g} electrons/bunch, "
        f"d = {beams.transverse_size_um:.3g} um, "
        f"{beams.repetition_rate_hz:.3g} Hz")
    report = "\n".join(lines) + "\n"
    _record(out_dir, cfg, "totals " + ",".join(processes),
            {"totals.txt": report},
            [f"n_samples_{p} = {r.n_samples}" for p, r in results.items()])
    return report


def run_scan(cfg: ScenarioConfig, out_dir: Path) -> str:
    omega0s = np.geomspace(cfg.scan_omega0_min_mev, cfg.scan_omega0_max_mev,
                           cfg.scan_n_points)
    rows = ["omega0_mev\tavg_sigma_b_sr3\tstat_error_b_sr3"]
    for w0 in omega0s:
        setup = CollisionSetup(cfg.e_i_mev, float(w0))
        # where no photon can reach the threshold the average is exactly 0
        value = error = 0.0
        if cfg.threshold_mev < setup.omega_max:
            res = detector_average(setup, cfg.theta_rad, cfg.phi_rad,
                                   cfg.solid_angle_sr, cfg.threshold_mev,
                                   budget=cfg.budget, seed=cfg.seed)
            value, error = res.value, res.statistical_error
        rows.append(f"{w0:.10e}\t{value:.10e}\t{error:.10e}")
    table = "\n".join(rows) + "\n"
    _record(out_dir, cfg, "scan", {"scan.dat": table},
            [f"rows = {len(omega0s)}"])
    return table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triplecompton",
        description="Multi-photon Compton cross sections and photon-triplet "
                    "entanglement")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="key = value config file")
        p.add_argument("--scenario", choices=tuple(SCENARIO_DEFAULTS),
                       default=None, help="named defaults to start from")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--budget", type=int, default=None,
                       help="Monte Carlo sample budget")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory")

    common(sub.add_parser("mgbr1968",
                          help="rest-frame detector-averaged cross section"))
    g = sub.add_parser("grid", help="emit (omega1, omega2) grids")
    common(g)
    g.add_argument("--observable", choices=("sigma5", "tau"),
                   default="sigma5")
    t = sub.add_parser("totals", help="total cross sections and event rates")
    common(t)
    t.add_argument("--process", choices=tuple(PROCESS_PHOTONS),
                   action="append", default=None,
                   help="repeatable; default: all three")
    common(sub.add_parser("scan", help="detector average vs omega0"))
    return parser


# parsing leaves the parser unchanged, so every call shares one
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        overrides = {"seed": args.seed, "budget": args.budget}
        default_scenario = "xfel" if args.command == "totals" else None
        cfg = resolve_config(args.scenario or file_values.get("scenario")
                             or default_scenario, file_values, overrides)
        # an --out that cannot be a directory fails here, before the run
        args.out.mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "mgbr1968":
            report = run_mgbr1968(cfg, args.out)
        elif args.command == "grid":
            report = run_grid(cfg, args.observable, args.out)
        elif args.command == "totals":
            processes = args.process or list(PROCESS_PHOTONS)
            report = run_totals(cfg, processes, args.out)
        else:
            report = run_scan(cfg, args.out)
    except (BudgetError, SolverError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(report, end="")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
