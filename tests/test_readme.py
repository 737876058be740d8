"""README's library example runs as written, and every command of its
"Command line" block parses and validates, so the documented API and flags
cannot silently drift."""

import re
from pathlib import Path

from stochfeas import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["result"].trace.final_residual() < 1e-10
    assert capsys.readouterr().out


def test_command_line_examples_parse():
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line.split() for line in block.splitlines() if line.startswith("stochfeas ")]
    assert len(lines) == len(cli._COMMANDS)
    for argv in lines:
        assert cli.parse_and_validate(argv[1:]).command == argv[1]
