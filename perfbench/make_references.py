"""Regenerate ``references.json``: the values the benchmark checks against.

    python3 perfbench/make_references.py [workload ...]

Monte Carlo references run the workload's own command at a large budget with
a seed of their own; grid references run the command once per placement.
Takes about six minutes on a 2-core x86-64 machine for all four workloads.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from triplecompton import cli  # noqa: E402

import tracing  # noqa: E402
from run import run_command  # noqa: E402
from workloads import (PANEL_ORDER, PLACEMENTS, WORKLOADS,  # noqa: E402
                       line_log_sums, mask_rows, mc_estimates, panel_path,
                       read_boundary, read_grid_table)

REFERENCE_SEED = 987654321
REFERENCE_BUDGET = {"rest_mgbr": 1 << 18, "xfel_totals": 1 << 17}


def run(wl, seed, tmp: Path, budget=None, taus=None) -> Path:
    cfg = tmp / f"{wl.name}-{seed}.cfg"
    cfg.write_text(wl.config_text(seed))
    out = tmp / f"{wl.name}-{seed}"
    patches = tracing.Patches()
    if taus is not None:
        tracing.capture_tau_results(patches, taus)
    try:
        code, _, log = run_command(cli, wl.argv(cfg, out, seed,
                                                budget=budget))
    finally:
        patches.restore()
    if code != 0:
        raise SystemExit(f"{wl.name} seed {seed}: exit code {code}\n{log}")
    return out


def reference(wl, tmp: Path) -> dict:
    if wl.monte_carlo:
        budget = REFERENCE_BUDGET[wl.name]
        out = run(wl, REFERENCE_SEED, tmp, budget=budget)
        return {"seed": REFERENCE_SEED, "budget": budget, "estimates": {
            label: {"value": v, "error": e}
            for label, (v, e) in mc_estimates(wl, out).items()}}
    placements = []
    for k in range(PLACEMENTS):
        if wl.name == "xfel_tau":
            taus = []
            out = run(wl, k, tmp, taus=taus)
            _, _, values, masked = read_grid_table(out / "tau_grid.dat")
            placements.append({
                "tau": values, "masked": masked,
                "iterations": [t.iterations for t in taus],
                "max_witness_residual": max(t.witness.max_residual
                                            for t in taus)})
        else:
            out = run(wl, k, tmp)
            log_rows, log_cols = {}, {}
            for label in PANEL_ORDER:
                _, _, values, masked = read_grid_table(panel_path(out, label))
                rows, cols = line_log_sums(values, masked)
                log_rows[label] = [total for total, _ in rows]
                log_cols[label] = [total for total, _ in cols]
            # the mask is the same on every panel
            placements.append({
                "mask": mask_rows(masked),
                "log_rows": log_rows, "log_cols": log_cols,
                "boundary": read_boundary(out / "threshold_boundary.dat")})
        print(f"  {wl.name} placement {k} done", file=sys.stderr)
    return {"placements": placements}


def main(names) -> None:
    path = HERE / "references.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name in names or list(WORKLOADS):
            refs[name] = reference(WORKLOADS[name], Path(tmp))
            path.write_text(json.dumps(refs, indent=1) + "\n")
            print(f"{name} written", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
