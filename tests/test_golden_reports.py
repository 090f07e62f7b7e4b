"""The CLI's reports are the committed ones, byte for byte.

``tests/golden`` holds the outputs of every CLI command of
``tests/report_bytes.py`` but the suite, and of the suite at seed 0, with
the environment that made them in ``manifest.json``.  Each is made again in
process through ``cli.main``: its stdout and a line with its exit code, as
the script writes them.  A change that moves a report on purpose
regenerates the files it moves (see ``tests/report_bytes.py``).
"""

import json
from pathlib import Path

import pytest

import report_bytes
from ginv import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = report_bytes.cli_commands()


def test_golden_holds_the_golden_names():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(report_bytes.golden_names())


@pytest.mark.parametrize("name", report_bytes.golden_names())
def test_report_bytes_are_the_golden_ones(name, capsysbinary):
    code = cli.main(COMMANDS[name])
    out = capsysbinary.readouterr().out + f"\nexit {code}\n".encode()
    assert out == (GOLDEN / f"{name}.out").read_bytes(), (
        f"{name} moved; golden made with {json.loads((GOLDEN / 'manifest.json').read_text())}, "
        f"run with {report_bytes.environment()}")
