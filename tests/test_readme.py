"""The README's library example, run verbatim so it cannot drift from the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:Library use", "exec"), {})
