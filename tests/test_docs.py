"""The Python examples in the README and docs/ run as written."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PAGES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)

EXAMPLES = [
    pytest.param(code, id=f"{page.relative_to(ROOT)}:{n}")
    for page in PAGES
    for n, code in enumerate(PYTHON_BLOCK.findall(page.read_text(encoding="utf-8")), start=1)
]


def test_the_docs_have_python_examples():
    assert len(EXAMPLES) >= 2


@pytest.mark.parametrize("code", EXAMPLES)
def test_python_example_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # examples that write files write them here
    exec(compile(code, "<example>", "exec"), {"__name__": "example"})
