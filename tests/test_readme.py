"""The README's "Library use" example runs as written, so it cannot drift from the library's API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text()
    example = re.search(r"```python\n(.*?)```", text[text.index("## Library use"):], re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})
    before, arrow, after = capsys.readouterr().out.split()
    assert arrow == "->" and float(after) <= float(before)  # the line search never degrades the baseline
