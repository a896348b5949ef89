"""Entry point of `python -m degbern` and of the `degbern` console script.

An argument list of exactly `--version` is answered here, from the
package's `__version__`, before any library module is imported: a fresh
process without compiled bytecode would otherwise compile every module that
`degbern.cli` imports (about 35-40 ms) to print one line. Every other list,
`--ver` or `--version` beside other arguments included, goes to
`degbern.cli.main`, whose argparse `--version` action prints the same line.
"""

from __future__ import annotations

import os
import sys

from . import __version__


def main(argv: list[str] | None = None) -> int:
    if list(sys.argv[1:] if argv is None else argv) == ["--version"]:
        try:
            print(f"degbern {__version__}")
            sys.stdout.flush()
        except BrokenPipeError:
            # as in cli.main: a reader that closed stdout early leaves exit 0
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
