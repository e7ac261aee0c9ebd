"""The README's code examples print what their comments say."""

from __future__ import annotations

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def section_python_block(title: str) -> str:
    """The first ```python block under the README heading ``title``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {title}\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, f"no python block under {title!r}"
    return match.group(1)


def test_library_use_example_prints_its_comment(monkeypatch, capsys):
    code = section_python_block("Library use")
    last = code.rstrip("\n").splitlines()[-1]
    expected = last.split("#", 1)[1].strip()
    monkeypatch.chdir(ROOT)  # the example reads the sample data by relative path
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip() == expected
