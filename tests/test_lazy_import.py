"""`import degbern` loads no submodule, and each command loads only the modules
it reads. Each check runs in a fresh interpreter, since this test session has
imported every module already."""

import json
import subprocess
import sys

import pytest


def _run(script: str):
    """The JSON value that script prints last, run by a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_degbern_loads_no_submodule():
    script = """
import json, sys
before = set(sys.modules)
import degbern
print(json.dumps(sorted(set(sys.modules) - before)))
"""
    assert _run(script) == ["degbern"]


@pytest.mark.parametrize(
    "argv, loads_corpus",
    [
        (["expand", "--expr", "x^3 - l*x", "--order", "2"], False),
        (["expand", "--expr", "x^3 - l*x", "--order", "2", "--crosscheck", "--format", "json"], False),
        (["table", "--family", "euler", "--n-max", "8"], False),
        (["verify", "miki", "--n", "2"], True),
        (["--version"], False),
    ],
)
def test_each_command_loads_the_identity_corpus_only_if_it_reads_it(argv, loads_corpus):
    # through the entry that `python -m degbern` and the console script run
    script = f"""
import contextlib, io, json, sys
from degbern.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main({argv!r})
print(json.dumps([status, sorted(m for m in sys.modules if m.startswith("degbern"))]))
"""
    status, loaded = _run(script)
    assert status == 0 and ("degbern.identities" in loaded) == loads_corpus
    if argv == ["--version"]:  # answered before any library module is imported
        assert loaded == ["degbern", "degbern.__main__"]


def test_every_public_name_is_its_home_modules_object_and_is_bound_on_first_read():
    script = """
import importlib, json
import degbern
wrong = []
for module, names in degbern._EXPORTS.items():
    for name in names:
        value = getattr(degbern, name)
        home = importlib.import_module("degbern." + module)
        if value is not getattr(home, name) or vars(degbern).get(name) is not value:
            wrong.append(name)
        elif getattr(value, "__module__", home.__name__) != home.__name__:
            wrong.append(name)
try:
    degbern.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
star = {}
exec("from degbern import *", star)
star.pop("__builtins__")
print(json.dumps({
    "all": degbern.__all__, "dir": dir(degbern), "wrong": wrong, "unknown": unknown, "star": sorted(star),
}))
"""
    out = _run(script)
    assert len(out["all"]) == 48 and out["all"] == sorted(out["all"]) and "__version__" in out["all"]
    assert out["dir"] == out["all"]
    assert out["wrong"] == []
    assert out["unknown"] is not None and "no_such_name" in out["unknown"]
    assert out["star"] == out["all"]


def test_threads_reading_every_name_at_once_share_one_import_of_each_module():
    # every module runs once, so the cache registry ends with its 17 entries
    script = """
import json, random, sys, threading
import degbern
sys.setswitchinterval(1e-6)
names = list(degbern.__all__)
barrier = threading.Barrier(8)
seen = [None] * 8

def read(i):
    order = random.Random(i).sample(names, len(names))
    barrier.wait()
    seen[i] = {name: getattr(degbern, name) for name in order}

threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
from degbern import core
print(json.dumps({
    "alive": sum(t.is_alive() for t in threads),
    "same": all(s is not None and all(s[n] is seen[0][n] for n in names) for s in seen),
    "caches": len(core._CACHES),
}))
"""
    assert _run(script) == {"alive": 0, "same": True, "caches": 17}
