"""Byte-identical CLI output on the README examples.

``data/cli_golden.json`` holds, for each argv, the exact stdout and exit code
that ``logent.cli.main`` gave when the file was written.  A refactor must
leave every case unchanged; an intended output change edits the file by hand
and records why in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from logent.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_stdout_and_exit_code_match_the_recording(case, capsys):
    code = main(list(case["argv"]))
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit_code"]
