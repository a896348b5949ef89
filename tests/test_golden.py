"""Golden CLI outputs: each command's stdout sha256 and exit code are locked.

``golden_cli.txt`` holds one ``sha256  exit-code  degbern ARGS...`` line per
command: `verify --all` (text and JSON), every `table` family at two
orders, and `expand` over a fixed corpus at orders 1-3 in every format,
with and without `--lambda` and `--crosscheck`. The commands run in
process through `cli.main`.
"""

import contextlib
import hashlib
import io
import shlex
from pathlib import Path

import degbern.cli as cli

GOLDEN = Path(__file__).with_name("golden_cli.txt")


def _corpus() -> list[tuple[str, int, list[str]]]:
    rows = []
    for line in GOLDEN.read_text().splitlines():
        digest, code, command = line.split("  ", 2)
        prog, *argv = shlex.split(command)
        assert prog == "degbern"
        rows.append((digest, int(code), argv))
    return rows


def test_cli_outputs_match_golden_hashes(monkeypatch):
    monkeypatch.delenv("DEGBERN_MAX_DEGREE", raising=False)
    corpus = _corpus()
    assert len(corpus) == 141
    mismatches = []
    for digest, code, argv in corpus:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
        got = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if (got, status) != (digest, code):
            mismatches.append((shlex.join(argv), status, got))
    assert not mismatches
