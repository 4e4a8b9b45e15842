"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under '## Library use'"
    return match.group(1)


def test_library_example_runs(capsys):
    exec(compile(_library_example(), str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()
