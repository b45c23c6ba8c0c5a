"""The Python examples in the README and docs/ run as written, their
``recollab`` command lines parse, and each refusal the log format lists is
tested."""

import re
import shlex
from pathlib import Path

import pytest

from recollab.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
PAGES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
SH_BLOCK = re.compile(r"^```sh\n(.*?)^```", re.MULTILINE | re.DOTALL)

EXAMPLES = [
    pytest.param(code, id=f"{page.relative_to(ROOT)}:{n}")
    for page in PAGES
    for n, code in enumerate(PYTHON_BLOCK.findall(page.read_text(encoding="utf-8")), start=1)
]

LOG_REFUSAL = re.compile(r"^- `([^`]+)`", re.MULTILINE)

COMMANDS = [
    pytest.param(line, id=f"{page.relative_to(ROOT)}:{line}")
    for page in PAGES
    for block in SH_BLOCK.findall(page.read_text(encoding="utf-8"))
    for line in block.splitlines()
    if line.startswith("recollab ")
]


def test_the_docs_have_python_examples():
    assert len(EXAMPLES) >= 2


@pytest.mark.parametrize("code", EXAMPLES)
def test_python_example_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # examples that write files write them here
    exec(compile(code, "<example>", "exec"), {"__name__": "example"})


def test_the_docs_have_command_lines():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("line", COMMANDS)
def test_documented_command_line_parses(line):
    try:
        build_parser().parse_args(shlex.split(line)[1:])
    except SystemExit as exc:
        pytest.fail(f"{line!r} does not parse (exit {exc.code})")


def test_each_refusal_of_the_log_format_is_matched_in_a_test():
    page = (ROOT / "docs" / "log_format.md").read_text(encoding="utf-8")
    refusals = LOG_REFUSAL.findall(page.partition("\n## Refusals\n")[2])
    tests = "".join(
        path.read_text(encoding="utf-8")
        for path in (ROOT / "tests").glob("test_*.py")
        if path.name != Path(__file__).name
    )
    assert len(refusals) >= 12
    assert [message for message in refusals if message not in tests] == []
