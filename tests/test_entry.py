"""A degbern process runs without the cyclic garbage collector, and a command
makes only a constant handful of cyclic garbage, which is why it can; `main`
called in-process leaves the collector as it finds it. The process checks run
in a fresh interpreter, since this test session's collector state is its own."""

import contextlib
import gc
import io
import json
import subprocess
import sys

import pytest

import degbern.__main__ as entry
import degbern.cli as cli


def _fresh(script: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv, status", [(["expand", "--expr", "x^2"], 0), (["expand", "--expr", "x +"], 1)])
def test_the_process_entry_runs_main_without_the_collector_and_freezes_before_exit(argv, status):
    # `python -m degbern` as runpy runs it; the console script calls the same run()
    script = f"""
import atexit, gc, json, runpy, sys
import degbern.cli as cli

seen = []
main = cli.main
def watched(argv=None):
    seen.append(gc.isenabled())
    return main(argv)
cli.main = watched
atexit.register(lambda: print(json.dumps([seen, gc.isenabled(), gc.get_freeze_count() > 0])))
sys.argv = ["degbern", *{argv!r}]
runpy.run_module("degbern", run_name="__main__")
"""
    proc = _fresh(script)
    assert proc.returncode == status, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[False], False, True]


def test_main_in_process_keeps_the_collector_as_it_finds_it():
    for main in (entry.main, cli.main):
        for argv in (["expand", "--expr", "x^2"], ["expand", "--expr", "x +"], ["--version"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                main(argv)
            assert (gc.isenabled(), gc.get_freeze_count()) == (True, 0), (main, argv)


def test_a_command_leaves_the_same_few_cyclic_objects_whatever_its_size():
    # with the collector off, what gc.collect() finds after a command is all the
    # cyclic garbage that command made: the argparse parser's objects, the same
    # count for a degree-32 crosscheck, the identity sweep, a table, an exit-1
    # parse error and x^2
    script = """
import contextlib, gc, io, json
from degbern.cli import main

gc.disable()
found = []
for argv in (
    ["expand", "--expr", "(1+x+l)^32", "--order", "8", "--crosscheck"],
    ["verify", "--all"],
    ["table", "--family", "deg-bernoulli-order", "--n-max", "32", "--order", "8"],
    ["expand", "--expr", "x +"],
    ["expand", "--expr", "x^2"],
):
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
    found.append([status, gc.collect()])
print(json.dumps(found))
"""
    proc = _fresh(script)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout.splitlines()[-1])
    assert [status for status, _ in found] == [0, 0, 0, 1, 0]
    counts = {count for _, count in found}
    assert len(counts) == 1 and 0 < counts.pop() < 1000, found
