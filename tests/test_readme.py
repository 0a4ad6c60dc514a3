"""The README's command-line examples, run through cli.main.

Each `$ curvecount ...` line of the "Command line" block is one example;
the lines after it, up to the next example, are its stdout.  A `...` line
elides the rest of the output.
"""

import shlex
from pathlib import Path

import pytest

from curvecount import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def command_examples():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            examples.append((line[2:], []))
        elif examples:
            examples[-1][1].append(line)
    return [(command, "\n".join(lines).strip("\n").splitlines())
            for command, lines in examples]


EXAMPLES = command_examples()


def test_readme_has_command_examples():
    assert EXAMPLES
    assert all(command.startswith("curvecount ") for command, _ in EXAMPLES)


@pytest.mark.parametrize(
    "command,expected", EXAMPLES, ids=[command for command, _ in EXAMPLES]
)
def test_readme_example(command, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # table writes its cache file here
    code = cli.main(shlex.split(command)[1:])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    elided = [i for i, line in enumerate(expected) if line.strip() == "..."]
    if elided:
        expected, out = expected[:elided[0]], out[:elided[0]]
    assert out == expected
