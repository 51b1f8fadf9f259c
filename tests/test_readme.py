"""The documented library example runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example():
    text = README.read_text()
    section = text[text.index("## Library entry points"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    assert scope["point"].value > 0
    assert 0 <= scope["tau"] <= 0.5
