"""Workload definitions: CLI arguments, generated configs and output checks.

Each workload is one ``triplecompton`` CLI command at a fixed size.  The
benchmark seed is the only input:

* Monte Carlo workloads (``rest_mgbr``, ``xfel_totals``) pass it as the
  Philox master seed;
* grid workloads (``xfel_tau``, ``xfel_panels``) use ``seed % PLACEMENTS`` to
  shift the grid end points by a whole number of small steps inside a fixed
  band, so every placement has a recorded reference in ``references.json``.

The checks read only the files the command wrote to its ``--out`` directory
(plus the solver results captured for ``xfel_tau``) and return a list of
mismatch messages; an empty list means the output is correct.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

from triplecompton.cross_section import PANEL_LETTERS, PANEL_ORDER

PLACEMENTS = 8

# Monte Carlo estimates must lie within MC_PULL_LIMIT combined standard
# errors (the run's reported error and the reference's, in quadrature) of
# the reference.  At the workloads' budget of 2^14 samples the pulls of 30
# seeds stayed within 2.9 on every estimate, while a triple cross section
# halved or set to zero gave pulls of 9.7 and 21.8.
MC_PULL_LIMIT = 5.0
# tau cells: absolute agreement with the reference, and every polished
# witness must be feasible to this residual.
TAU_ABS_TOL = 1e-6
WITNESS_RESIDUAL_MAX = 1e-6
# sigma5 panels: every cell's mask must match, and every unmasked cell must
# agree to PANEL_REL_TOL relative (the double-precision panels sit within
# ~2e-6 of the high-precision values, so a more accurate engine still
# passes).  The references hold, per panel, the sum of ln(value) over the
# unmasked cells of each row and of each column, which agrees to
# PANEL_REL_TOL times the number of cells summed when every cell does;
# boundary points and grid coordinates agree to the 11 digits the output
# files carry.
PANEL_REL_TOL = 1e-5
BOUNDARY_REL_TOL = 1e-9
COORD_REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: tuple          # CLI words before the common flags
    scenario_lines: tuple   # fixed config lines
    budget: int = 0         # Monte Carlo budget, 0 for grid workloads
    points: int = 0         # samples or grid cells per command
    grid: tuple = ()        # (w1_lo, w1_hi, n1, w2_lo, w2_hi, n2)
    grid_step: tuple = ()   # end-point shift per placement, (w1, w2) MeV
    warmup_grid: tuple = ()

    @property
    def monte_carlo(self) -> bool:
        return self.budget > 0

    def placement(self, seed: int) -> int:
        return seed % PLACEMENTS

    def grid_ends(self, seed: int, grid=None) -> tuple:
        """(w1_lo, w1_hi, n1, w2_lo, w2_hi, n2) at the seed's placement."""
        w1_lo, w1_hi, n1, w2_lo, w2_hi, n2 = grid or self.grid
        d1, d2 = (self.placement(seed) * s for s in self.grid_step)
        return w1_lo + d1, w1_hi + d1, n1, w2_lo + d2, w2_hi + d2, n2

    def config_text(self, seed: int, warmup: bool = False) -> str:
        lines = list(self.scenario_lines)
        if self.grid:
            w1_lo, w1_hi, n1, w2_lo, w2_hi, n2 = self.grid_ends(
                seed, self.warmup_grid if warmup else None)
            lines += [f"grid.omega1_min_mev = {w1_lo!r}",
                      f"grid.omega1_max_mev = {w1_hi!r}",
                      f"grid.n_omega1 = {n1}",
                      f"grid.omega2_min_mev = {w2_lo!r}",
                      f"grid.omega2_max_mev = {w2_hi!r}",
                      f"grid.n_omega2 = {n2}"]
        return "\n".join(lines) + "\n"

    def argv(self, config: Path, out: Path, seed: int, budget=None) -> list:
        words = list(self.command) + ["--config", str(config),
                                      "--out", str(out)]
        if self.monte_carlo:
            words += ["--seed", str(seed),
                      "--budget", str(budget or self.budget)]
        return words


XFEL_LINES = ("scenario = xfel",)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "rest_mgbr",
            "headline detector average at rest; amplitude-bound, many "
            "mid-size batches, ~53% non-zero weights, no SDP",
            ("mgbr1968",), ("scenario = mgbr1968",), budget=1 << 14,
            points=1 << 14),
        Workload(
            "xfel_totals",
            "1-, 2- and 3-photon totals at boost ~1e4; same amplitude "
            "engine at n_out=1,2,3 with 93/64/41% non-zero weights",
            ("totals", "--process", "single", "--process", "double",
             "--process", "triple"),
            XFEL_LINES, budget=1 << 14, points=3 << 14),
        Workload(
            "xfel_tau",
            "3x3 tau map across the collider ridge; witness SDP is ~99% "
            "of wall time, one amplitude point per cell",
            ("grid", "--observable", "tau"), XFEL_LINES, points=9,
            grid=(540.0, 840.0, 3, 260.0, 560.0, 3), grid_step=(0.2, 0.12),
            warmup_grid=(540.0, 540.0, 1, 560.0, 560.0, 1)),
        Workload(
            "xfel_panels",
            "48x48 sigma5 panels plus threshold boundary; one large "
            "amplitude batch and the scan-plus-bisection boundary",
            ("grid", "--observable", "sigma5"), XFEL_LINES, points=48 * 48,
            grid=(50.0, 1400.0, 48, 50.0, 1400.0, 48), grid_step=(0.5, 0.5),
            warmup_grid=(50.0, 1400.0, 4, 50.0, 1400.0, 4)),
    )
}


# ---------------------------------------------------------------------------
# output parsing

_MGBR_RE = re.compile(r"<sigma> = (\S+) \+- (\S+) b/sr\^3")
_TOTAL_RE = re.compile(r"sigma_(\w+)\s+= (\S+) \+- (\S+) b")


def mc_estimates(workload: Workload, out: Path) -> dict:
    """{label: (value, error)} from the command's report."""
    if workload.name == "rest_mgbr":
        m = _MGBR_RE.search((out / "report.txt").read_text())
        return {"detector_average": (float(m.group(1)), float(m.group(2)))}
    return {m.group(1): (float(m.group(2)), float(m.group(3)))
            for m in _TOTAL_RE.finditer((out / "totals.txt").read_text())}


def worst_rel_error(workload: Workload, out: Path) -> float:
    return max(err / abs(val) for val, err in
               mc_estimates(workload, out).values())


def read_grid_table(path: Path):
    """(w1s, w2s, values, masked) as nested lists indexed [i][j]."""
    rows = path.read_text().splitlines()[1:]
    cells = [tuple(row.split("\t")) for row in rows]
    w1s = sorted({float(c[0]) for c in cells})
    w2s = sorted({float(c[1]) for c in cells})
    n2 = len(w2s)
    values = [[0.0] * n2 for _ in w1s]
    masked = [[0] * n2 for _ in w1s]
    for k, c in enumerate(cells):
        i, j = divmod(k, n2)
        values[i][j] = float(c[2])
        masked[i][j] = int(c[3])
    return w1s, w2s, values, masked


def read_boundary(path: Path) -> list:
    rows = path.read_text().splitlines()[1:]
    return [[float(tok) for tok in row.split("\t")] for row in rows]


def panel_path(out: Path, label: str) -> Path:
    letter = PANEL_LETTERS[PANEL_ORDER.index(label)]
    return out / f"sigma5_panel_{letter}_{label}.dat"


def expected_axes(workload: Workload, seed: int):
    w1_lo, w1_hi, n1, w2_lo, w2_hi, n2 = workload.grid_ends(seed)

    def axis(lo, hi, n):
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    return axis(w1_lo, w1_hi, n1), axis(w2_lo, w2_hi, n2)


# ---------------------------------------------------------------------------
# checks

def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _check_axes(workload, seed, w1s, w2s) -> list:
    e1, e2 = expected_axes(workload, seed)
    if len(w1s) != len(e1) or len(w2s) != len(e2) or not all(
            _close(a, b, COORD_REL_TOL) for a, b in
            zip(w1s + w2s, e1 + e2)):
        return ["grid coordinates differ from the requested placement"]
    return []


def check_mc(workload: Workload, out: Path, ref: dict) -> list:
    problems = []
    got = mc_estimates(workload, out)
    for label, entry in ref["estimates"].items():
        if label not in got:
            problems.append(f"{label}: missing from the report")
            continue
        value, error = got[label]
        sigma = math.hypot(error, entry["error"])
        pull = abs(value - entry["value"]) / sigma
        if not math.isfinite(pull) or pull > MC_PULL_LIMIT:
            problems.append(
                f"{label}: {value:.6e} +- {error:.2e} is {pull:.1f} sigma "
                f"from the reference {entry['value']:.6e}")
    return problems


def check_tau(workload: Workload, out: Path, seed: int, ref: dict,
              residuals: list) -> list:
    place = ref["placements"][workload.placement(seed)]
    w1s, w2s, taus, masked = read_grid_table(out / "tau_grid.dat")
    problems = _check_axes(workload, seed, w1s, w2s)
    if problems:
        return problems
    unmasked = 0
    for i, row in enumerate(place["tau"]):
        for j, tau_ref in enumerate(row):
            if masked[i][j] != place["masked"][i][j]:
                problems.append(f"tau cell ({i},{j}): mask differs")
            elif abs(taus[i][j] - tau_ref) > TAU_ABS_TOL:
                problems.append(f"tau cell ({i},{j}): {taus[i][j]:.9f} vs "
                                f"reference {tau_ref:.9f}")
            unmasked += not masked[i][j]
    if len(residuals) != unmasked:
        problems.append(f"{len(residuals)} witnesses for {unmasked} cells")
    worst = max(residuals, default=0.0)
    if not worst <= WITNESS_RESIDUAL_MAX:
        problems.append(f"witness residual {worst:.2e} > "
                        f"{WITNESS_RESIDUAL_MAX:.0e}")
    return problems


def mask_rows(masked) -> list:
    """The mask as one string of 0/1 per row of omega1."""
    return ["".join(str(m) for m in row) for row in masked]


def line_log_sums(values, masked) -> tuple:
    """(rows, columns): for each row and each column, the sum of ln(value)
    over its unmasked cells and the number of those cells."""
    logs = [[None if m else math.log(v) for v, m in zip(vrow, mrow)]
            for vrow, mrow in zip(values, masked)]

    def summary(line):
        kept = [x for x in line if x is not None]
        return math.fsum(kept), len(kept)
    return ([summary(row) for row in logs],
            [summary(col) for col in zip(*logs)])


def check_panels(workload: Workload, out: Path, seed: int, ref: dict
                 ) -> list:
    place = ref["placements"][workload.placement(seed)]
    problems = []
    for label in PANEL_ORDER:
        w1s, w2s, values, masked = read_grid_table(panel_path(out, label))
        axes = _check_axes(workload, seed, w1s, w2s)
        if axes:
            return axes
        rows = mask_rows(masked)
        wrong = sum(a != b for got, want in zip(rows, place["mask"])
                    for a, b in zip(got, want))
        if wrong:
            problems.append(f"panel {label}: mask differs in {wrong} cells")
            continue
        if any(v <= 0.0 or not math.isfinite(v) for vrow, mrow in
               zip(values, masked) for v, m in zip(vrow, mrow) if not m):
            problems.append(f"panel {label}: an unmasked value is not a "
                            "positive number")
            continue
        differ = [f"{axis} {k}: {g:.9f} vs {w:.9f}"
                  for axis, got, want in zip(
                      ("row", "column"), line_log_sums(values, masked),
                      (place["log_rows"][label], place["log_cols"][label]))
                  for k, ((g, cells), w) in enumerate(zip(got, want))
                  if not abs(g - w) <= PANEL_REL_TOL * max(cells, 1)]
        if differ:
            problems.append(f"panel {label}: sum of ln(value) differs from "
                            f"the reference on {len(differ)} rows and "
                            f"columns, first {differ[0]}")
    boundary = read_boundary(out / "threshold_boundary.dat")
    if len(boundary) != len(place["boundary"]):
        problems.append(f"{len(boundary)} boundary points, reference has "
                        f"{len(place['boundary'])}")
    else:
        for got, want in zip(boundary, place["boundary"]):
            if not all(_close(g, w, BOUNDARY_REL_TOL)
                       for g, w in zip(got, want)):
                problems.append(f"boundary point {got} vs {want}")
    return problems


def check(workload: Workload, out: Path, seed: int, refs: dict,
          residuals: list) -> list:
    ref = refs[workload.name]
    if workload.monte_carlo:
        return check_mc(workload, out, ref)
    if workload.name == "xfel_tau":
        return check_tau(workload, out, seed, ref, residuals)
    return check_panels(workload, out, seed, ref)
