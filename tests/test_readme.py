"""Every ```python block of README.md runs as written, so that the examples
cannot go stale when the API they call changes."""

from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    """(section heading, code) of each ```python block, in file order."""
    blocks, heading, code = [], "top", None
    for line in text.splitlines(keepends=True):
        if code is not None:
            if line.startswith("```"):
                blocks.append((heading, "".join(code)))
                code = None
            else:
                code.append(line)
        elif line.startswith("```python"):
            code = []
        elif line.startswith("## "):
            heading = line[3:].strip()
    return blocks


BLOCKS = python_blocks(README.read_text())


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("code", [code for _, code in BLOCKS],
                         ids=[heading for heading, _ in BLOCKS])
def test_readme_example_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # whatever an example writes lands here
    exec(compile(code, str(README), "exec"), {"__name__": "__main__"})
