"""Byte-for-byte guard on the benchmark's golden outputs, run in-process.

Each command of `perfbench/golden/cli.json` must exit with its recorded code
and print stdout with its recorded SHA-256, and the rendered `verify all`
JSON must equal `perfbench/golden/verify_all.json`.  The test only reads
those files.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pgturan import verify
from pgturan.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
CLI_GOLDEN = json.loads((GOLDEN / "cli.json").read_text())


@pytest.mark.parametrize("command", sorted(CLI_GOLDEN))
def test_cli_output_matches_golden(command, capsys):
    code = main(command.split())
    out = capsys.readouterr().out
    want = CLI_GOLDEN[command]
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (want["exit"], want["sha256"])


def test_verify_all_matches_golden():
    rendered = verify.render_claims(verify.run_all(budget=None)) + "\n"
    assert rendered == (GOLDEN / "verify_all.json").read_text(encoding="utf-8")
