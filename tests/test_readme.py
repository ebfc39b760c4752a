"""The README's command-line walkthrough runs as documented."""

import re
import shlex
from pathlib import Path

from catbound.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def walkthrough() -> list[str]:
    """The ``catbound`` lines of the README's first sh block that has any."""
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        lines = [line for line in block.splitlines() if line.startswith("catbound ")]
        if lines:
            return lines
    raise AssertionError("README has no sh block of catbound commands")


def test_readme_commands_run_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = walkthrough()
    assert len(lines) >= 20
    for line in lines:
        want = 2 if "exit code 2" in line else 0
        code = main(shlex.split(line, comments=True)[1:])
        err = capsys.readouterr().err
        assert code == want, f"{line!r} exited {code}: {err}"
