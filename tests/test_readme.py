"""Every example in README.md runs as written and prints what it shows.

`kitaev-chain ...` blocks run through `cli.main`: the CSV header must match
exactly, numeric fields to 1e-9, other fields exactly.  A `...` line ends
the shown rows early.  The Python block runs as a script.
"""

import shlex
from pathlib import Path

import pytest

from kitaevchain import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TOL = 1e-9


def _fenced_blocks():
    blocks, current, lang = [], None, None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            if current is None:
                current, lang = [], line[3:].strip()
            else:
                blocks.append((lang, current))
                current = None
        elif current is not None:
            current.append(line)
    return blocks


def _cli_examples():
    examples = []
    for lang, lines in _fenced_blocks():
        if lang or not lines or not lines[0].startswith("kitaev-chain "):
            continue
        command = lines[0]
        rest = lines[1:]
        while command.endswith("\\"):
            command = command[:-1] + " " + rest.pop(0).strip()
        examples.append((command, rest))
    return examples


CLI_EXAMPLES = _cli_examples()


def test_readme_has_examples():
    commands = {shlex.split(c)[1] for c, _ in CLI_EXAMPLES}
    assert commands == {"energy", "degeneracy", "entropy", "spectrum", "scan", "compare", "fit"}
    assert sum(lang == "python" for lang, _ in _fenced_blocks()) == 1


def _field_matches(shown: str, got: str) -> bool:
    try:
        return abs(float(shown) - float(got)) <= TOL
    except ValueError:
        return shown == got


@pytest.mark.parametrize("command,shown", CLI_EXAMPLES, ids=[c for c, _ in CLI_EXAMPLES])
def test_readme_cli_example(command, shown, capsys):
    code = cli.main(shlex.split(command)[1:])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == shown[0]
    rows = shown[1:]
    truncated = "..." in rows
    if truncated:
        rows = rows[: rows.index("...")]
    else:
        assert len(out) - 1 == len(rows), out
    for want, got in zip(rows, out[1:]):
        want_fields, got_fields = want.split(","), got.split(",")
        assert len(want_fields) == len(got_fields), (want, got)
        assert all(_field_matches(w, g) for w, g in zip(want_fields, got_fields)), (want, got)


def test_readme_python_example(capsys):
    [source] = [lines for lang, lines in _fenced_blocks() if lang == "python"]
    exec(compile("\n".join(source), str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
