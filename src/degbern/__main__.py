"""Entry point of `python -m degbern` and of the `degbern` console script.

``run`` is the process entry of both. It turns the cyclic garbage collector
off before any library module is imported, runs ``main``, and freezes every
object before the interpreter exits, so that neither the collections during
import nor the shutdown's final collection walk the process's objects: about a
tenth of a short command. It can, because a command makes O(1) cyclic garbage,
the couple of hundred objects of its argparse parser whatever the size of its
input, so nothing grows unreclaimed. Shutdown is otherwise the usual one:
atexit handlers run, so profilers and coverage still see the whole command.
``main`` called in-process leaves the collector as it finds it.

An argument list of exactly `--version` is answered here, from the
package's `__version__`, before any library module is imported: a fresh
process without compiled bytecode would otherwise compile every module that
`degbern.cli` imports (about 35-40 ms) to print one line. Every other list,
`--ver` or `--version` beside other arguments included, goes to
`degbern.cli.main`, whose argparse `--version` action prints the same line.
"""

from __future__ import annotations

import gc
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


def run() -> int:
    """main() on sys.argv in a process of its own, without the cyclic collector; its status."""
    gc.disable()
    status = main()
    gc.freeze()  # the final collections at shutdown skip every object
    return status


if __name__ == "__main__":
    sys.exit(run())
