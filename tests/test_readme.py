"""README's command-line examples run and print what README shows.

The ```sh block under "## Command line" is run in order, each `$ gapdyn ...`
line through gapdyn.cli.main, in a temporary directory whose scenario.cfg is
empty, so every scenario key takes its default.  The lines README prints
under a command are its output, whole; up to a `...` line they are the
output's first lines.  Every command must exit 0.
"""

import shlex
from pathlib import Path

from gapdyn.cli import main

_README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[tuple[list[str], list[str]]]:
    """(argv, shown output lines) for each `$ gapdyn` line of the block."""
    text = _README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples: list[tuple[list[str], list[str]]] = []
    for line in block.splitlines():
        if line.startswith("$ gapdyn "):
            examples.append((shlex.split(line)[2:], []))
        elif line and not line.startswith("#"):
            examples[-1][1].append(line)
    return examples


def test_readme_examples_print_what_readme_shows(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.cfg").write_text("")
    examples = _examples()
    assert len(examples) == 6
    for argv, shown in examples:
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), argv
        printed = captured.out.splitlines()
        if shown[-1:] == ["..."]:
            assert printed[: len(shown) - 1] == shown[:-1], argv
        elif shown:
            assert printed == shown, argv
