import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _catalogue():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_mutant_old_texts_occur_once_in_src():
    # scripts/mutants.py applies each mutant by replacing its old text: a
    # refactor that moves or duplicates that text must update the catalogue
    sources = {p.relative_to(ROOT).as_posix(): p.read_text()
               for p in (ROOT / "src").rglob("*.py")}
    mutants = _catalogue()
    assert len(mutants) >= 13
    for mutant in mutants:
        assert mutant.file in sources, mutant.origin
        assert mutant.old != mutant.new, mutant.origin
        assert sources[mutant.file].count(mutant.old) == 1, mutant.origin
        assert sum(text.count(mutant.old)
                   for text in sources.values()) == 1, mutant.origin
