"""The documented library example runs as written, the README's names
and file layouts match the code, and its reproduction commands resolve."""
import re
import shlex
from pathlib import Path

import triplecompton
from triplecompton import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _section(text, heading):
    start = text.index(heading)
    end = text.find("\n## ", start + len(heading))
    return text[start:end if end >= 0 else len(text)]


def test_readme_library_example():
    section = _section(README.read_text(), "## Library entry points")
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    assert scope["point"] > 0
    assert 0 <= scope["tau"] <= 0.5


def test_readme_entry_point_names_resolve():
    # every dotted name in the section's prose is an attribute path from
    # the package, so a renamed or deleted entry point fails here
    section = _section(README.read_text(), "## Library entry points")
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    names = re.findall(r"`([A-Za-z_][\w.]*)`", prose)
    assert "point_amplitude" in names
    for name in names:
        obj = triplecompton
        for part in name.split("."):
            assert hasattr(obj, part), f"README names missing {name!r}"
            obj = getattr(obj, part)


def test_readme_tau_diagnostics_columns(tmp_path):
    text = README.read_text()
    match = re.search(r"`tau_diagnostics\.dat`, one row per cell:\s*`([^`]*)`",
                      text)
    assert match, "README lost the tau_diagnostics.dat column list"
    cfg = tmp_path / "one.cfg"
    cfg.write_text("scenario = xfel\n"
                   "grid.omega1_min_mev = 700\ngrid.omega1_max_mev = 700\n"
                   "grid.n_omega1 = 1\ngrid.omega2_min_mev = 400\n"
                   "grid.omega2_max_mev = 400\ngrid.n_omega2 = 1\n")
    out = tmp_path / "out"
    assert cli.main(["grid", "--observable", "tau", "--config", str(cfg),
                     "--out", str(out)]) == cli.EXIT_OK
    header = (out / "tau_diagnostics.dat").read_text().splitlines()[0]
    assert match.group(1).split() == header.split("\t")


def test_readme_reproduction_commands_resolve(monkeypatch, tmp_path):
    # each command goes through the real flag and config resolution; the
    # runners only record what they were given, so nothing is computed
    section = _section(README.read_text(), "## Reproducing the paper")
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line)[3:] for line in block.splitlines()
                if line.startswith("python -m triplecompton ")]
    assert len(commands) == 5
    calls = []
    for name in ("run_mgbr1968", "run_grid", "run_totals", "run_scan"):
        monkeypatch.setattr(cli, name,
                            lambda cfg, *rest: calls.append((cfg, rest[-1]))
                            or "")
    monkeypatch.chdir(ROOT)
    for words in commands:
        # main makes the --out directory before the run: keep it out of
        # the checkout
        at = words.index("--out") + 1
        words[at] = str(tmp_path / words[at])
        assert cli.main(words) == cli.EXIT_OK, words
    assert len(calls) == len(commands)
    assert len({out for _, out in calls}) == len(commands)
    named = {Path(words[words.index("--config") + 1])
             for words in commands if "--config" in words}
    assert set(Path("configs").glob("*.cfg")) <= named
