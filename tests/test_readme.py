"""The README's examples print what the README says they print."""

from __future__ import annotations

import pathlib
import re
import shlex
import shutil

from spotar.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def section(title: str) -> str:
    """The text under the README heading ``title``, up to the next heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def section_python_block(title: str) -> str:
    """The first ```python block under the README heading ``title``."""
    match = re.search(r"```python\n(.*?)```", section(title), re.DOTALL)
    assert match is not None, f"no python block under {title!r}"
    return match.group(1)


def test_library_use_example_prints_its_comment(monkeypatch, capsys):
    code = section_python_block("Library use")
    last = code.rstrip("\n").splitlines()[-1]
    expected = last.split("#", 1)[1].strip()
    monkeypatch.chdir(ROOT)  # the example reads the sample data by relative path
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip() == expected


def shell_steps(title: str) -> list[tuple[list[str], list[str]]]:
    """Each ``$`` command in the ```sh blocks under ``title``, split into
    words with its continuation lines joined, and the lines printed after it."""
    steps: list[tuple[list[str], list[str]]] = []
    for block in re.findall(r"```sh\n(.*?)```", section(title), re.DOTALL):
        lines = iter(block.splitlines())
        for line in lines:
            if line.startswith("$ "):
                command = line[2:]
                while command.endswith("\\"):
                    command = command[:-1] + next(lines)
                steps.append((shlex.split(command), []))
            else:
                steps[-1][1].append(line)
    return steps


def run_step(argv: list[str], capsys) -> list[str]:
    """The lines one walkthrough command prints, run in the current directory."""
    program, *args = argv
    if program == "spotar":
        assert main(args) == 0
        return capsys.readouterr().out.splitlines()
    if program == "printf":
        text, redirect, target = args
        assert redirect == ">"
        pathlib.Path(target).write_text(text.replace("\\n", "\n"), encoding="utf-8")
        return []
    if program == "head":
        count, target = args
        return pathlib.Path(target).read_text(encoding="utf-8").splitlines()[: int(count.removeprefix("-"))]
    raise AssertionError(f"the walkthrough runs {program!r}, which this test cannot run")


def without_wall_time(argv: list[str], lines: list[str]) -> list[str]:
    """``lines`` with the ``wall_time_s`` values left out: the whole CSV
    column in what ``head`` prints, the value after the name elsewhere."""
    if argv[0] == "head":
        rows = [line.split(",") for line in lines]
        i = rows[0].index("wall_time_s")
        return [",".join(row[:i] + row[i + 1 :]) for row in rows]
    return ["wall_time_s" if line.startswith("wall_time_s ") else line for line in lines]


def test_command_line_walkthrough_prints_its_output(tmp_path, monkeypatch, capsys):
    shutil.copytree(ROOT / "tests" / "data", tmp_path / "tests" / "data")
    monkeypatch.chdir(tmp_path)  # the commands read the sample data by relative path
    steps = shell_steps("Command-line walkthrough")
    assert {argv[1] for argv, _ in steps if argv[0] == "spotar"} == {"build", "query", "bench", "verify"}
    for argv, printed in steps:
        got = run_step(argv, capsys)
        assert without_wall_time(argv, got) == without_wall_time(argv, printed), shlex.join(argv)
