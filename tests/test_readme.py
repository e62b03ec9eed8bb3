"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    # The first python block after the "## Library use" heading.
    text = README.read_text()
    section = text[text.index("\n## Library use\n"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md: Library use", "exec"), {})
