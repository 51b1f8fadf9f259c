"""Run the committed mutant catalogue against the Tier-1 tests.

Each entry of MUTANTS is (file, old, new, origin): ``old`` is an exact
piece of text that occurs once in ``file`` (a path from the repository
root), ``new`` replaces it, and ``origin`` says what the mutant breaks and
where it was first reported.  The script unpacks ``git archive HEAD`` of
the repository into a temporary directory once, then for one mutant at a
time writes the mutated file, runs ``pytest -x`` over the test files in
TEST_ORDER (cheap, low-level files first, so most mutants die in seconds)
and restores the file.  The unmutated archive is run first and must pass,
so a failure under a mutant is the mutant's.  A mutant is killed when
pytest reports a failing test (exit code 1); any other non-zero exit code
stops the script.  The first failing test and the seconds the run took are
reported.  A survivor is a gap in the tests: report it, never drop it from
the catalogue.

    python scripts/mutants.py            # every mutant, at HEAD

The result is one JSON object per mutant on stdout, then a summary line.
Only the standard library and a local ``git`` are used.
``tests/test_mutants.py`` checks that every old text still occurs exactly
once in ``src/``, so a refactor that moves the code must update its
entries here.
"""
from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TEST_ORDER = ("algebra", "kinematics", "amplitude", "cross_section",
              "integration", "entanglement", "config_cli", "readme",
              "acceptance")


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    origin: str


CS = "src/triplecompton/cross_section.py"
AMP = "src/triplecompton/amplitude.py"
ENT = "src/triplecompton/entanglement.py"
INT = "src/triplecompton/integration.py"

MUTANTS = [
    Mutant(CS, "    return (ALPHA ** (n_out + 1)",
           "    return (1.1 if n_out == 2 else 1.0) * (ALPHA ** (n_out + 1)",
           "prefactor(2) x 1.1 (CHANGES.md, soft-photon normalization tests)"),
    Mutant(CS, "    return (ALPHA ** (n_out + 1)",
           "    return (1.001 if n_out == 3 else 1.0) * (ALPHA ** (n_out + 1)",
           "prefactor(3) x 1.001 (ROADMAP item 11)"),
    Mutant(CS, "            / ELECTRON_MASS_MEV ** (2 * (n_out - 1)))",
           "            / ELECTRON_MASS_MEV ** (2 * (n_out - 1))\n"
           "            / (2.0 * math.pi if n_out == 3 else 1.0))",
           "an extra 1/(2 pi) in prefactor(3) (ROADMAP item 11)"),
    Mutant(CS, "                 / np.abs(kfac[keep]) * HBARC2_MEV2_BARN)",
           "                 * HBARC2_MEV2_BARN)",
           "recoil Jacobian K set to 1 (ROADMAP item 11)"),
    Mutant(CS, "    msq[keep] = 0.25 * amps",
           "    msq[keep] = 0.5 * amps",
           "spin average 1/2 instead of 1/4 in the unpolarized sum"),
    Mutant(CS, "    msq[keep] = 0.25 * amps",
           "    msq[:len(amps)] = 0.25 * amps",
           "sampler |M|^2 scattered into the first K rows, not the kept "
           "ones"),
    Mutant(CS, "    msq[keep] = 0.5 * (np.abs(tensor[:, 0]) ** 2)",
           "    msq[:len(tensor)] = 0.5 * (np.abs(tensor[:, 0]) ** 2)",
           "panel spin sums scattered into the first K cells, not the kept "
           "ones"),
    Mutant(AMP, "        np.conjugate(tensor[..., 0, 0], "
           "out=tensor[..., 1, 1])",
           "        tensor[..., 1, 1] = tensor[..., 0, 0]",
           "dropped conj on the r_i = 2 (2, 2) fill (CHANGES.md)"),
    Mutant(AMP, "        np.negative(np.conjugate(tensor[..., 0, 1], "
           "out=tensor[..., 1, 0]),",
           "        np.positive(np.conjugate(tensor[..., 0, 1], "
           "out=tensor[..., 1, 0]),",
           "flipped sign on the r_i = 2 (2, 1) fill (CHANGES.md)"),
    Mutant(AMP, "    np.negative(plus, out=blocks[0, 0, 1])",
           "    np.positive(plus, out=blocks[0, 0, 1])",
           "dropped sign of a vertex block (CHANGES.md)"),
    Mutant(AMP, '    np.add(x, _product("i_y", _I, y), out=plus)\n'
           '    np.subtract(x, _product("i_y", _I, y), out=minus)',
           '    np.subtract(x, _product("i_y", _I, y), out=plus)\n'
           '    np.add(x, _product("i_y", _I, y), out=minus)',
           "x + iy swapped with x - iy in the vertex blocks (CHANGES.md)"),
    Mutant(AMP, "    rows[0, 2], rows[1, 3] = -c, c",
           "    rows[0, 2], rows[1, 3] = c, c",
           "dropped sign in the ubar rows (CHANGES.md)"),
    Mutant(AMP, "a[0] + 1j * b[0]", "a[0] - 1j * b[0]",
           "x + iy swapped with x - iy in u_1(p_i) (CHANGES.md)"),
    Mutant(ENT, "    transposed = split[_PT_ROWS, _PT_INDEX]",
           "    transposed = split[_PT_ROWS, _PT_INDEX[[1, 0, 2]]]",
           "wrong partial-transpose rows in _dual_bound (CHANGES.md)"),
    Mutant(ENT, "    stack[2::2] = (flat[0] - flat[1:])[_PT_ROWS, _PT_INDEX]",
           "    stack[2::2] = flat[0] - flat[1:]",
           "Q_s without its partial transpose in _witness_stack "
           "(ROADMAP item 11)"),
    Mutant(INT, "        mean_vars.append(math.fsum(((w - means[-1]) ** 2)"
           ".tolist())\n                         / n_per / (n_per - 1))",
           "        mean_vars.append((s2s[-1] / n_per - means[-1] ** 2)\n"
           "                         / (n_per - 1))",
           "one-pass stratum variance (CHANGES.md)"),
    Mutant(INT, "            weight *= root\n", "",
           "dropped sqrt(Omega) in the detector window weight (CHANGES.md)"),
]


def _test_files(tree: Path) -> list:
    """The test files in TEST_ORDER, then any others in name order."""
    files = sorted(p.name for p in (tree / "tests").glob("test_*.py"))
    first = [f"test_{name}.py" for name in TEST_ORDER
             if f"test_{name}.py" in files]
    return [f"tests/{name}" for name in first
            + [f for f in files if f not in first]]


def _unpack(into: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "HEAD"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def _pytest(tree: Path, tests: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p",
         "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True)


def run_mutant(tree: Path, mutant: Mutant, tests: list) -> dict:
    """Apply one mutant in tree, run pytest -x, restore the file."""
    path = tree / mutant.file
    original = path.read_text()
    if original.count(mutant.old) != 1:
        raise ValueError(f"old text of {mutant.origin!r} occurs "
                         f"{original.count(mutant.old)} times in "
                         f"{mutant.file}")
    path.write_text(original.replace(mutant.old, mutant.new))
    start = time.perf_counter()
    try:
        proc = _pytest(tree, tests)
    finally:
        path.write_text(original)
    seconds = time.perf_counter() - start
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {proc.returncode} under "
                           f"{mutant.origin!r}:\n{proc.stdout}{proc.stderr}")
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return {"origin": mutant.origin, "file": mutant.file,
            "killed": proc.returncode == 1,
            "by": failed.group(1) if failed else None,
            "seconds": round(seconds, 1)}


def main() -> int:
    start = time.perf_counter()
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _unpack(tree)
        tests = _test_files(tree)
        baseline = _pytest(tree, tests)
        if baseline.returncode != 0:
            raise RuntimeError(f"the unmutated tree fails (pytest exited "
                               f"{baseline.returncode}):\n"
                               f"{baseline.stdout}{baseline.stderr}")
        for index, mutant in enumerate(MUTANTS):
            result = {"index": index, **run_mutant(tree, mutant, tests)}
            survivors += not result["killed"]
            print(json.dumps(result), flush=True)
    print(json.dumps({"mutants": len(MUTANTS), "survived": survivors,
                      "seconds": round(time.perf_counter() - start, 1)}))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
