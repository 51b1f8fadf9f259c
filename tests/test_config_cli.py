import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from triplecompton import cli
from triplecompton.config import (ConfigError, ScenarioConfig,
                                  config_lines, parse_config_file,
                                  resolve_config)
from triplecompton.constants import ELECTRON_MASS_MEV as M
from triplecompton.cross_section import (PANEL_LETTERS, PANEL_ORDER,
                                         sigma5_panel_grids)


def test_scenario_defaults():
    cfg = resolve_config("mgbr1968")
    assert cfg.e_i_mev == M
    assert cfg.omega0_mev == 0.662
    assert cfg.threshold_mev == 0.013
    assert cfg.solid_angle_sr == 0.378
    xfel = resolve_config("xfel")
    assert xfel.e_i_mev == 5000.0
    assert xfel.omega0_mev == 0.001
    assert xfel.threshold_mev == 50.0
    assert xfel.theta_rad[0] == pytest.approx(math.pi - 1.5e-3)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("""
# comment line
scenario = xfel
omega0_mev = 0.002   # inline comment
grid.n_omega1 = 7
beams.transverse_size_um = 25
theta_rad = 3.0, 3.1, 3.05
""")
    values = parse_config_file(path)
    cfg = resolve_config(None, values, {})
    assert cfg.scenario == "xfel"
    assert cfg.omega0_mev == 0.002
    assert cfg.grid_n_omega1 == 7
    assert cfg.beams_transverse_size_um == 25.0
    assert cfg.theta_rad == (3.0, 3.1, 3.05)


def test_flag_overrides_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 5\nbudget = 4096\n")
    cfg = resolve_config("mgbr1968", parse_config_file(path),
                         {"seed": 9, "budget": None})
    assert cfg.seed == 9
    assert cfg.budget == 4096


def test_unknown_key_rejected(tmp_path):
    # each key has one spelling: a grid., beams. or scan. key spelled with
    # an underscore used to be read as the dotted one
    path = tmp_path / "bad.cfg"
    for line in ("omega_zero = 0.5", "grid_n_omega1 = 7",
                 "beams_transverse_size_um = 25", "scan_n_points = 3"):
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match="line 1: unknown key"):
            parse_config_file(path)


def test_repeated_key_rejected(tmp_path):
    # the last value used to win silently
    path = tmp_path / "twice.cfg"
    path.write_text("omega0_mev = 0.5\n# again\nseed = 3\n"
                    "omega0_mev = 0.7\n")
    with pytest.raises(ConfigError) as info:
        parse_config_file(path)
    assert info.value.problems == [
        "line 4: key 'omega0_mev' already set on line 1"]


def test_validation_messages():
    with pytest.raises(ConfigError, match="solid_angle_sr"):
        resolve_config("mgbr1968", {"solid_angle_sr": "0"}, {})
    with pytest.raises(ConfigError, match="threshold_mev"):
        resolve_config("mgbr1968", {"threshold_mev": "-1"}, {})
    with pytest.raises(ConfigError, match="theta_rad"):
        resolve_config("mgbr1968", {"theta_rad": "0.5, 0.5"}, {})
    with pytest.raises(ConfigError, match="beam_polarization"):
        resolve_config("mgbr1968", {"beam_polarization": "diag"}, {})
    with pytest.raises(ConfigError, match="scenario"):
        resolve_config("nope")


# the file key of each field below whose key is not its name
FILE_KEYS = {"beams_photons_per_pulse": "beams.photons_per_pulse",
             "grid_omega1_min_mev": "grid.omega1_min_mev",
             "scan_omega0_max_mev": "scan.omega0_max_mev",
             "grid_n_omega1": "grid.n_omega1",
             "scan_n_points": "scan.n_points"}


@pytest.mark.parametrize("key, raw", [
    ("e_i_mev", "nan"), ("omega0_mev", "nan"), ("threshold_mev", "inf"),
    ("phi_rad", "0.5, nan, 1.0"), ("beams_photons_per_pulse", "nan"),
    ("budget", "inf"), ("beam_polarization", "nan, 1"),
    ("theta_rad", "nan, 1.0, 1.0"), ("threshold_mev", "-inf"),
    ("grid_omega1_min_mev", "inf"), ("scan_omega0_max_mev", "nan")])
def test_non_finite_values_rejected(key, raw):
    # one problem, named by the file key: a nan theta was also reported as
    # outside (0, pi), and a non-finite range end as a bad range
    with pytest.raises(ConfigError) as info:
        resolve_config("xfel", {key: raw}, {})
    assert len(info.value.problems) == 1, info.value.problems
    assert info.value.problems[0].startswith(f"{FILE_KEYS.get(key, key)}: ")


@pytest.mark.parametrize("key, raw", [
    ("seed", "1.5"), ("budget", "300.9"), ("grid.n_omega1", "40.7"),
    ("scan.n_points", "2.5")])
def test_fractional_integer_values_rejected(tmp_path, key, raw):
    # they used to be truncated: seed = 1.5 ran as seed 1
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {raw}\n")
    with pytest.raises(ConfigError, match="is not an integer"):
        resolve_config("mgbr1968", parse_config_file(path), {})


@pytest.mark.parametrize("key, value", [
    ("seed", 1.5), ("budget", 300.9), ("grid_n_omega1", 40.7),
    ("scan_n_points", np.float64(2.5)), ("seed", math.inf)])
def test_fractional_integer_overrides_rejected(key, value):
    # non-string values used to pass through unchecked: seed 1.5 stayed 1.5
    file_key = FILE_KEYS.get(key, key)
    with pytest.raises(ConfigError) as info:
        resolve_config("mgbr1968", {}, {key: value})
    assert info.value.problems == [
        f"{file_key}: {file_key} {value!r} is not an integer"]


def test_integral_overrides_accepted():
    cfg = resolve_config("mgbr1968", {}, {"seed": 4096.0, "budget": 1e6,
                                          "grid_n_omega1": np.int64(7)})
    assert (cfg.budget, cfg.seed, cfg.grid_n_omega1) == (10 ** 6, 4096, 7)
    assert all(type(v) is int for v in (cfg.budget, cfg.seed,
                                        cfg.grid_n_omega1))


def test_integral_spellings_accepted(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("budget = 1e6\nseed = 4096.0\ngrid.n_omega1 = 7\n")
    cfg = resolve_config("mgbr1968", parse_config_file(path), {})
    assert (cfg.budget, cfg.seed, cfg.grid_n_omega1) == (10 ** 6, 4096, 7)
    assert all(type(v) is int for v in (cfg.budget, cfg.seed,
                                        cfg.grid_n_omega1))


def test_config_integers_parse_exactly(tmp_path):
    # integer keys used to be read through a float: seed = 9007199254740993
    # ran as 9007199254740992, and 2^64 - 1 was refused as outside [0, 2^64)
    path = tmp_path / "run.cfg"
    for seed in (9007199254740993, (1 << 64) - 1):
        path.write_text(f"seed = {seed}\n")
        cfg = resolve_config("mgbr1968", parse_config_file(path), {})
        assert cfg.seed == seed and type(cfg.seed) is int
    path.write_text("seed = 18446744073709551616\n")
    with pytest.raises(ConfigError, match=r"seed 18446744073709551616 "
                       r"outside \[0, 2\^64\)"):
        resolve_config("mgbr1968", parse_config_file(path), {})


def test_engine_rules_reported_under_file_keys():
    # the config asks the engine's own checks: each bad value is reported
    # under its file key, all of them together, with the values that do
    # not parse (a fractional budget used to hide every other problem)
    values = {"seed": "-1", "budget": "1.5", "e_i_mev": "0.3",
              "omega0_mev": "-1", "phi_rad": "1, 2", "solid_angle_sr": "5",
              "beam_polarization": "0, 0", "beams_photons_per_pulse": "-1",
              "beams_transverse_size_um": "0"}
    with pytest.raises(ConfigError) as info:
        resolve_config("mgbr1968", values, {})
    keys = [problem.split(": ", 1)[0] for problem in info.value.problems]
    assert sorted(keys) == sorted(
        ["seed", "budget", "e_i_mev", "omega0_mev", "phi_rad",
         "solid_angle_sr", "beam_polarization", "beams.photons_per_pulse",
         "beams.transverse_size_um"])


def test_cli_zero_beam_size_exit_code(tmp_path, capsys):
    # event_rate divides by the beam area; a zero size used to run the
    # whole Monte Carlo and then die with ZeroDivisionError
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario = xfel\nbeams.transverse_size_um = 0\n")
    code = cli.main(["totals", "--config", str(bad), "--process", "single",
                     "--budget", "128", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "beams.transverse_size_um" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["omega0_mev = nan", "e_i_mev = nan"])
def test_cli_non_finite_energy_exit_code(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    code = cli.main(["totals", "--config", str(bad), "--process", "single",
                     "--budget", "128", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err


def test_config_lines_roundtrip(tmp_path):
    # every field of both scenarios is written under its one file key and
    # reads back exactly as itself: the lines used to carry 12 significant
    # digits, which moved the xfel theta pi - 1.5e-3
    path = tmp_path / "metadata.cfg"
    for scenario in ("mgbr1968", "xfel"):
        cfg = resolve_config(scenario)
        lines = config_lines(cfg)
        assert len(lines) == len(fields(ScenarioConfig))
        assert any(line.startswith("grid.n_omega1 = ") for line in lines)
        assert lines == sorted(lines)
        path.write_text("\n".join(lines) + "\n")
        back = resolve_config(None, parse_config_file(path))
        assert config_lines(back) == lines
        assert back == cfg, scenario


def test_cli_invalid_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("solid_angle_sr = 0\n")
    code = cli.main(["mgbr1968", "--config", str(bad),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "solid_angle_sr" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_cli_seed_outside_key_range_exit_code(tmp_path, capsys, seed):
    # the Philox key holds 64 bits of seed: -1 used to run as 2^64 - 1
    code = cli.main(["totals", "--process", "single", "--budget", "128",
                     "--seed", str(seed), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_missing_config_file(tmp_path, capsys):
    code = cli.main(["mgbr1968", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    from triplecompton.integration import BudgetError

    def boom(*args, **kwargs):
        raise BudgetError("budget too small for requested precision")

    monkeypatch.setattr(cli, "detector_average", boom)
    code = cli.main(["mgbr1968", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_cli_unusable_out_exit_code(tmp_path, monkeypatch, capsys, under):
    # an --out naming a file, or a path under one, used to fail only after
    # the whole computation, with a FileExistsError or NotADirectoryError
    # traceback and exit 1
    def estimator(*args, **kwargs):
        raise AssertionError("the estimator ran before --out was made")

    monkeypatch.setattr(cli, "detector_average", estimator)
    occupied = tmp_path / "occupied"
    occupied.write_text("kept\n")
    out = occupied / "out" if under else occupied
    assert cli.main(["mgbr1968", "--out", str(out)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert "Traceback" not in captured.err + captured.out
    assert occupied.read_text() == "kept\n"


def _recorded_files(out):
    """The names on metadata.txt's one files line, and the names of the
    other files in out, each sorted."""
    files = [line[len("files = "):].split(", ") for line in
             (out / "metadata.txt").read_text().splitlines()
             if line.startswith("files = ")]
    assert len(files) == 1, files
    return sorted(files[0]), sorted(p.name for p in out.iterdir()
                                    if p.name != "metadata.txt")


def test_cli_mgbr_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = cli.main(["mgbr1968", "--budget", "2048", "--seed", "7",
                         "--out", str(out)])
        assert code == cli.EXIT_OK
    for name in ("report.txt", "metadata.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert _recorded_files(out1) == (["report.txt"], ["report.txt"])
    report = (out1 / "report.txt").read_text()
    assert "4.1e-09" in report
    assert "8.1" in report and "2.4" in report
    assert "standard deviations" in report


def test_cli_grid_single_cell_matches_library(tmp_path, xfel_setup):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("""
scenario = xfel
grid.omega1_min_mev = 700
grid.omega1_max_mev = 700
grid.n_omega1 = 1
grid.omega2_min_mev = 400
grid.omega2_max_mev = 400
grid.n_omega2 = 1
""")
    out = tmp_path / "out"
    assert cli.main(["grid", "--config", str(cfg),
                     "--out", str(out)]) == cli.EXIT_OK
    from triplecompton.cross_section import spin_summed_sigma5
    from conftest import XFEL_PHIS, XFEL_THETAS

    line = (out / "sigma5_panel_a_111.dat").read_text().splitlines()[1]
    w1, w2, value, masked = line.split("\t")
    assert float(w1) == 700.0 and float(w2) == 400.0 and masked == "0"
    expected = spin_summed_sigma5(xfel_setup, XFEL_THETAS, XFEL_PHIS,
                                  700.0, 400.0, beam_pol=1,
                                  final_pols=(1, 1, 1), threshold_eps=50.0)
    assert float(value) == pytest.approx(expected, rel=1e-9)

    out_tau = tmp_path / "out_tau"
    assert cli.main(["grid", "--observable", "tau", "--config", str(cfg),
                     "--out", str(out_tau)]) == cli.EXIT_OK
    line = (out_tau / "tau_grid.dat").read_text().splitlines()[1]
    tau_value = float(line.split("\t")[2])
    from triplecompton.entanglement import density_from_amplitudes, gme_tau

    rho = density_from_amplitudes(xfel_setup, XFEL_THETAS, XFEL_PHIS,
                                  700.0, 400.0, 1)
    res = gme_tau(rho)
    assert tau_value == pytest.approx(res.tau, abs=1e-6)
    header, line = (out_tau / "tau_diagnostics.dat").read_text().splitlines()
    assert header.split("\t") == ["omega1_mev", "omega2_mev", "iterations",
                                   "certificate_gap", "witness_residual",
                                   "primal_residual", "dual_residual",
                                   "feasibility_shift", "masked"]
    (w1, w2, iterations, gap, residual, primal, dual, shift,
     masked) = line.split("\t")
    assert float(w1) == 700.0 and float(w2) == 400.0 and masked == "0"
    assert int(iterations) == res.iterations
    assert float(gap) == pytest.approx(res.upper_bound - res.tau, rel=1e-9)
    assert float(residual) == pytest.approx(res.witness.max_residual,
                                            rel=1e-9, abs=1e-300)
    assert float(primal) == pytest.approx(res.primal_residual, rel=1e-9)
    assert float(dual) == pytest.approx(res.dual_residual, rel=1e-9)
    assert float(shift) == pytest.approx(res.feasibility_shift, rel=1e-9,
                                         abs=1e-300)


def test_cli_tau_diagnostics_match_benchmark_iterations(tmp_path,
                                                       xfel_setup):
    # placement 0 of the benchmark's xfel_tau map: each cell's iterations are
    # the library solver's, and together at most half the count recorded in
    # the benchmark's references for the plain ADMM solver
    import json

    from conftest import XFEL_PHIS, XFEL_THETAS
    from triplecompton.entanglement import density_from_amplitudes, gme_tau

    refs = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                       / "references.json").read_text())
    place = refs["xfel_tau"]["placements"][0]
    cfg = tmp_path / "tau.cfg"
    cfg.write_text("""
scenario = xfel
grid.omega1_min_mev = 540
grid.omega1_max_mev = 840
grid.n_omega1 = 3
grid.omega2_min_mev = 260
grid.omega2_max_mev = 560
grid.n_omega2 = 3
""")
    out = tmp_path / "out"
    assert cli.main(["grid", "--observable", "tau", "--config", str(cfg),
                     "--out", str(out)]) == cli.EXIT_OK
    rows = [line.split("\t") for line in
            (out / "tau_diagnostics.dat").read_text().splitlines()[1:]]
    assert [int(r[-1]) for r in rows] == [m for row in place["masked"]
                                          for m in row]
    for r in rows:
        expected = 0 if r[-1] == "1" else gme_tau(density_from_amplitudes(
            xfel_setup, XFEL_THETAS, XFEL_PHIS, float(r[0]), float(r[1]),
            1)).iterations
        assert int(r[2]) == expected
    assert 2 * sum(int(r[2]) for r in rows) <= sum(place["iterations"])
    assert all(0.0 <= float(r[3]) <= 1e-5 for r in rows)


def test_cli_grid_outputs_roundtrip(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("""
scenario = xfel
grid.n_omega1 = 4
grid.n_omega2 = 4
grid.omega1_max_mev = 1300
grid.omega2_max_mev = 1300
""")
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    for out in (out1, out2):
        assert cli.main(["grid", "--config", str(cfg), "--seed", "3",
                         "--out", str(out)]) == cli.EXIT_OK
    names = sorted(p.name for p in out1.iterdir())
    assert len([n for n in names if n.startswith("sigma5_panel_")]) == 8
    assert "threshold_boundary.dat" in names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # re-reading and re-emitting a grid file is byte-identical
    table = (out1 / "sigma5_panel_a_111.dat").read_text()
    rows = [line.split("\t") for line in table.splitlines()[1:]]
    rebuilt = "omega1_mev\tomega2_mev\tsigma5_b_mev2_sr3\tmasked\n" + "\n".join(
        "\t".join((f"{float(r[0]):.10e}", f"{float(r[1]):.10e}",
                   f"{float(r[2]):.10e}", str(int(r[3])))) for r in rows) + "\n"
    assert rebuilt == table

    # on a non-square grid every row of every panel, omega1 major, carries
    # the value and mask sigma5_panel_grids gives at that row's coordinates
    cfg.write_text(cfg.read_text().replace("n_omega1 = 4", "n_omega1 = 3")
                   .replace("n_omega2 = 4", "n_omega2 = 5"))
    out3 = tmp_path / "g3"
    assert cli.main(["grid", "--config", str(cfg), "--seed", "3",
                     "--out", str(out3)]) == cli.EXIT_OK
    conf = resolve_config(None, parse_config_file(cfg))
    w1s = np.linspace(conf.grid_omega1_min_mev, conf.grid_omega1_max_mev,
                      conf.grid_n_omega1)
    w2s = np.linspace(conf.grid_omega2_min_mev, conf.grid_omega2_max_mev,
                      conf.grid_n_omega2)
    panels, masked = sigma5_panel_grids(
        cli._setup_from_config(conf), conf.theta_rad, conf.phi_rad, w1s, w2s,
        conf.beam_pol_value(), conf.threshold_mev)
    assert masked.shape == (3, 5) and masked.any() and not masked.all()
    cells = {(f"{w1:.10e}", f"{w2:.10e}"): (i, j)
             for i, w1 in enumerate(w1s) for j, w2 in enumerate(w2s)}
    for letter, label in zip(PANEL_LETTERS, PANEL_ORDER):
        lines = (out3 / f"sigma5_panel_{letter}_{label}.dat").read_text()
        rows = [line.split("\t") for line in lines.splitlines()[1:]]
        assert [tuple(r[:2]) for r in rows] == list(cells)
        for r in rows:
            i, j = cells[r[0], r[1]]
            assert r[2:] == [f"{panels[label][i, j]:.10e}",
                             str(int(masked[i, j]))]


def test_cli_tau_tables_exact_text(tmp_path, rest_setup):
    # both tau tables, line by line, against a per-cell rendering of what
    # tau_grid returns; the grid has masked and unmasked cells, and a masked
    # cell's diagnostics read 0 and five zeros
    from triplecompton.entanglement import tau_grid
    cfg = tmp_path / "tau.cfg"
    cfg.write_text("""
scenario = mgbr1968
theta_rad = 0.5707963267948966, 0.5707963267948966, 0.5707963267948966
grid.n_omega1 = 3
grid.n_omega2 = 4
grid.omega1_min_mev = 0.013
grid.omega1_max_mev = 0.60
grid.omega2_min_mev = 0.013
grid.omega2_max_mev = 0.60
""")
    out = tmp_path / "out"
    assert cli.main(["grid", "--observable", "tau", "--config", str(cfg),
                     "--out", str(out)]) == cli.EXIT_OK
    conf = resolve_config(None, parse_config_file(cfg))
    w1s = np.linspace(0.013, 0.60, 3)
    w2s = np.linspace(0.013, 0.60, 4)
    taus, masked, results = tau_grid(
        rest_setup, conf.theta_rad, conf.phi_rad, w1s, w2s,
        conf.beam_pol_value(), conf.threshold_mev)
    assert masked.any() and not masked.all()
    grid_lines = ["omega1_mev\tomega2_mev\ttau\tmasked"]
    diag_lines = ["omega1_mev\tomega2_mev\titerations\tcertificate_gap"
                  "\twitness_residual\tprimal_residual\tdual_residual"
                  "\tfeasibility_shift\tmasked"]
    for i, w1 in enumerate(w1s):
        for j, w2 in enumerate(w2s):
            res, flag = results[i, j], int(masked[i, j])
            coords = f"{w1:.10e}\t{w2:.10e}"
            grid_lines.append(f"{coords}\t{taus[i, j]:.10e}\t{flag}")
            if res is None:
                diag = "0" + "\t0.0000000000e+00" * 5
            else:
                diag = f"{res.iterations:d}" + "".join(
                    f"\t{v:.10e}" for v in (
                        res.upper_bound - res.tau, res.witness.max_residual,
                        res.primal_residual, res.dual_residual,
                        res.feasibility_shift))
            diag_lines.append(f"{coords}\t{diag}\t{flag}")
    assert (out / "tau_grid.dat").read_text().splitlines() == grid_lines
    assert (out / "tau_diagnostics.dat").read_text().splitlines() \
        == diag_lines
    assert (out / "tau_diagnostics.dat").read_text().endswith("\n")


def test_cli_totals_repeated_process_runs_once(tmp_path):
    out = tmp_path / "totals"
    assert cli.main(["totals", "--process", "single", "--process", "single",
                     "--budget", "128", "--seed", "2",
                     "--out", str(out)]) == cli.EXIT_OK
    lines = (out / "totals.txt").read_text().splitlines()
    assert sum(line.startswith("  sigma_single") for line in lines) == 1
    assert sum(line.startswith("  sampler single") for line in lines) == 1
    meta = (out / "metadata.txt").read_text().splitlines()
    assert "command = totals single" in meta
    assert sum(line.startswith("n_samples_") for line in meta) == 1


def test_cli_parser_calls_do_not_share_state(tmp_path, monkeypatch):
    # main parses with one parser built at import: the process list of one
    # call must not carry over into the next
    seen = []
    monkeypatch.setattr(cli, "run_totals",
                        lambda cfg, processes, out: seen.append(processes)
                        or "")
    for words in (["--process", "triple", "--process", "double"],
                  ["--process", "single"], []):
        assert cli.main(["totals", "--out", str(tmp_path)] + words) \
            == cli.EXIT_OK
    assert seen == [["triple", "double"], ["single"],
                    ["single", "double", "triple"]]


def test_cli_totals_report(tmp_path):
    out = tmp_path / "totals"
    code = cli.main(["totals", "--process", "single", "--budget", "4096",
                     "--seed", "2", "--out", str(out)])
    assert code == cli.EXIT_OK
    text = (out / "totals.txt").read_text()
    assert "sigma_single" in text and "rate" in text
    # the sampler figures follow their estimate on a line of their own
    lines = text.splitlines()
    row = next(k for k, line in enumerate(lines)
               if line.startswith("  sigma_single"))
    assert lines[row + 1].startswith(
        "  sampler single: n_nonzero = ")
    assert "ess = " in lines[row + 1]
    assert "worst_stratum_var_share = " in lines[row + 1]
    meta = (out / "metadata.txt").read_text()
    assert "n_samples_single = 4096" in meta
    assert _recorded_files(out) == (["totals.txt"], ["totals.txt"])


def test_cli_scan_rows(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("""
scan.omega0_min_mev = 0.4
scan.omega0_max_mev = 1.0
scan.n_points = 3
""")
    out = tmp_path / "scan"
    code = cli.main(["scan", "--config", str(cfg), "--budget", "2048",
                     "--seed", "5", "--out", str(out)])
    assert code == cli.EXIT_OK
    rows = (out / "scan.dat").read_text().splitlines()
    assert rows[0] == "omega0_mev\tavg_sigma_b_sr3\tstat_error_b_sr3"
    assert len(rows) == 4
    assert _recorded_files(out) == (["scan.dat"], ["scan.dat"])


def test_cli_reruns_from_its_own_metadata(tmp_path, capsys):
    # metadata.txt less its command, version, files and count lines is a
    # config that reproduces its run byte for byte, the record included;
    # the xfel theta pi - 1.5e-3 used to be recorded to 12 digits, which
    # moved the panel values
    grid = tmp_path / "grid.cfg"
    grid.write_text("scenario = xfel\ngrid.n_omega1 = 4\ngrid.n_omega2 = 4\n"
                    "grid.omega1_max_mev = 1300\ngrid.omega2_max_mev = 1300\n")
    # 2^53 + 1, which a float cannot hold
    scan = tmp_path / "scan.cfg"
    scan.write_text("seed = 9007199254740993\nscan.omega0_min_mev = 0.4\n"
                    "scan.omega0_max_mev = 1.0\nscan.n_points = 2\n")
    runs = {"grid": (["grid", "--observable", "sigma5"],
                     ["--config", str(grid)]),
            "totals": (["totals", "--process", "double"],
                       ["--budget", "1024", "--seed", "3"]),
            "mgbr1968": (["mgbr1968"], ["--budget", "256", "--seed", "5"]),
            "scan": (["scan"], ["--config", str(scan), "--budget", "256"])}
    for name, (command, flags) in runs.items():
        first, again = tmp_path / name, tmp_path / f"{name}_again"
        assert cli.main(command + flags + ["--out", str(first)]) \
            == cli.EXIT_OK
        record = tmp_path / f"{name}_record.cfg"
        record.write_text("".join(
            line for line in
            (first / "metadata.txt").read_text().splitlines(True)
            if not line.startswith(("command = ", "version = ", "files = ",
                                    "n_samples", "rows = "))))
        assert cli.main(command + ["--config", str(record),
                                   "--out", str(again)]) == cli.EXIT_OK
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        assert len(names) == (10 if name == "grid" else 2)
        for file in names:
            assert (again / file).read_bytes() == (first / file).read_bytes(), \
                (name, file)
    # the config file's seed runs and is recorded as written
    assert "seed = 9007199254740993" in \
        (tmp_path / "scan" / "metadata.txt").read_text().splitlines()


@pytest.mark.parametrize("command", [
    ["mgbr1968"], ["totals"], ["grid", "--observable", "sigma5"], ["scan"]],
    ids=["mgbr1968", "totals", "grid-sigma5", "scan"])
def test_cli_scenario_defaults_run(tmp_path, capsys, command):
    # the config's budget floor, 128, is the sampler's least: two samples in
    # each of its 64 strata (64 for one photon, 8 x 8 for more), for every
    # totals process; 127 is refused before anything runs
    out = tmp_path / "out"
    assert cli.main(command + ["--budget", "127", "--out", str(out)]) \
        == cli.EXIT_CONFIG
    assert "budget: 127 too small" in capsys.readouterr().err
    assert cli.main(command + ["--budget", "128", "--out", str(out)]) \
        == cli.EXIT_OK
    if command == ["scan"]:
        # the default scan starts at omega0 = 0.01 MeV, where no photon can
        # reach the 0.013 MeV threshold: the average there is exactly 0
        first = (out / "scan.dat").read_text().splitlines()[1].split("\t")
        assert [float(v) for v in first] == [0.01, 0.0, 0.0]


def test_cli_scan_single_point_degenerates_to_average(tmp_path):
    cfg = tmp_path / "scan1.cfg"
    cfg.write_text("""
scan.omega0_min_mev = 0.662
scan.omega0_max_mev = 0.662
scan.n_points = 1
""")
    out = tmp_path / "scan1"
    assert cli.main(["scan", "--config", str(cfg), "--budget", "2048",
                     "--seed", "7", "--out", str(out)]) == cli.EXIT_OK
    row = (out / "scan.dat").read_text().splitlines()[1].split("\t")
    out2 = tmp_path / "avg"
    assert cli.main(["mgbr1968", "--budget", "2048", "--seed", "7",
                     "--out", str(out2)]) == cli.EXIT_OK
    report = (out2 / "report.txt").read_text()
    assert f"{float(row[1]):.6e}" in report


def test_benchmark_tracer_patches_bound_names(monkeypatch, rest_setup):
    # a traced benchmark run replaces module attributes by name: deleting or
    # renaming one of them in the package must fail here, not in the bench
    import importlib

    from triplecompton import entanglement, integration

    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "perfbench"))
    tracing = importlib.import_module("tracing")
    patches = tracing.Patches()
    tracing.capture_tau_results(patches, [])
    tracer = tracing.Tracer(0)
    tracer.install(patches)
    originals = {}
    try:
        for module, name, value in patches._saved:
            originals.setdefault((module, name), value)
            assert getattr(module, name) is not value
        rng = np.random.default_rng(5)
        values = integration.unpolarized_sigma5_batch(
            rest_setup, np.arccos(rng.uniform(-1, 1, (3, 4))),
            rng.uniform(0, 2 * math.pi, (3, 4)), np.full(4, 0.1),
            np.full(4, 0.15))
        assert values.shape == (4,)
    finally:
        patches.restore()
    assert (entanglement, "gme_tau") in originals
    for (module, name), value in originals.items():
        assert getattr(module, name) is value
    names = {span.name for span in tracer.spans}
    assert {"cross_section.unpolarized_sigma5_batch",
            "kinematics._close_arrays", "amplitude.amplitude_tensor"} <= names
