"""Shared helpers: checkout layout, environment guards, statistics and output."""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TAIL_ABOVE = 10


class SetupError(Exception):
    """The checkout or the environment cannot run the benchmark."""


def check_checkout() -> None:
    """Refuse to run without the library sources or with a changed degree guard."""
    if not (SRC / "degbern" / "__init__.py").is_file():
        raise SetupError(f"no library sources at {SRC / 'degbern'}; run from a full checkout")
    if "DEGBERN_MAX_DEGREE" in os.environ:
        raise SetupError("DEGBERN_MAX_DEGREE is set; it changes which inputs are accepted")


def use_library() -> None:
    """Make `import degbern` load the checkout's sources, here and in child processes."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str]) -> tuple[float, int, float, str, str]:
    """Run one child process to completion in the checkout root.

    Returns (wall seconds, exit status, peak RSS in MB, stdout, stderr). The
    output goes through unnamed files, so no pipe can fill up, and the child
    is reaped with wait4, so the RSS is that process's own peak.
    """
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryFile("w+", dir=OUT_DIR) as out, tempfile.TemporaryFile("w+", dir=OUT_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return wall, proc.returncode, usage.ru_maxrss / 1024, out.read(), err.read()


def python_child(*args: str) -> list[str]:
    """argv for a benchmark-owned script under perfbench/."""
    return [sys.executable, str(BENCH_DIR / args[0]), *args[1:]]


def run_worker(*args: str) -> tuple[dict, float]:
    """Run one worker.py mode; returns its JSON result and its peak RSS in MB."""
    _, status, rss, out, err = run_child(python_child("worker.py", *args))
    if status != 0:
        raise RuntimeError(f"worker {args[0]} exited {status}: {err.strip()[-2000:]}")
    return last_json_line(out), rss


def last_json_line(text: str) -> dict:
    for line in reversed(text.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("child printed no JSON result")


# -- host speed -----------------------------------------------------------------

# A shared 2-vCPU host runs the same pure-Python work anywhere from 1x to
# 1.8x slower, in spells of one to a dozen seconds. Every op time is
# therefore put on one scale: a probe of fixed rational arithmetic runs
# between ops, and an op's time is multiplied by PROBE_REF_S over the mean
# of the probes just before and just after it. The probe uses only the
# standard library, so a change to degbern cannot change the probe.
PROBE_REF_S = 0.0005
PROBE_EVERY_S = 0.05
SETUP_PROBE_EVERY_S = 0.2


def probe() -> float:
    """Seconds for a fixed piece of rational arithmetic, best of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 200):
            total += Fraction(1, i)
        best = min(best, time.perf_counter() - start)
    return best


class Speed:
    """Probes taken between ops, and the scale factor they give each op."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.seconds: list[float] = []

    def probe(self, force: bool = False) -> None:
        """Probe now, unless a probe ended less than PROBE_EVERY_S ago."""
        if force or not self.ends or time.perf_counter() - self.ends[-1] >= PROBE_EVERY_S:
            self.seconds.append(probe())
            self.ends.append(time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.ends, end)
        around = [self.seconds[i] for i in (before, after) if 0 <= i < len(self.seconds)]
        return PROBE_REF_S / (sum(around) / len(around))


def scaled_child_walls(argv: list[str], count: int) -> list[float]:
    """Wall times of `count` fresh runs of argv, each put on the probe scale."""
    speed = Speed()
    spans = []
    for _ in range(count):
        speed.probe(force=True)
        start = time.perf_counter()
        wall, status, _, _, err = run_child(argv)
        if status != 0:
            raise RuntimeError(f"{argv[1:]} exited {status}: {err.strip()[-2000:]}")
        spans.append((start, start + wall))
    speed.probe(force=True)
    return [(b - a) * speed.factor(a, b) for a, b in spans]


def probed_wall(fn, since: float) -> tuple[float, float]:
    """Run fn while a thread probes every SETUP_PROBE_EVERY_S.

    Returns (wall seconds, the same on the probe scale), both counted from
    `since`; each stretch between two probes is scaled by their mean. The
    probe thread holds the interpreter lock for about a millisecond each time.
    """
    speed = Speed()
    stop = threading.Event()

    def loop() -> None:
        while not stop.wait(SETUP_PROBE_EVERY_S):
            speed.probe(force=True)

    speed.probe(force=True)
    thread = threading.Thread(target=loop)
    thread.start()
    try:
        fn()
    finally:
        stop.set()
        thread.join()
    speed.probe(force=True)
    ends, secs = [since] + speed.ends, speed.seconds[:1] + speed.seconds
    scaled = sum(
        (ends[k + 1] - ends[k]) * 2 * PROBE_REF_S / (secs[k] + secs[k + 1]) for k in range(len(ends) - 1)
    )
    return ends[-1] - since, scaled


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so probes and ops share it."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# -- statistics -----------------------------------------------------------------


def tail(values: list[float], above: int = TAIL_ABOVE) -> tuple[float, float, int]:
    """The highest percentile that still has at least `above` samples above it.

    Returns (value, percentile, sample count). The value is the sample with
    `above` samples ranked above it; with `above` or fewer samples no such
    percentile exists and the maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= above:
        return ordered[-1], 100.0, n
    index = n - above - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of its interval that its children cover.

    A span is a sequence (name, start, end, parent index or None, op id).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, lo, hi, _, _) in enumerate(spans):
        covered = 0.0
        cursor = lo
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                covered += end - start
                cursor = end
        out.append((hi - lo) - covered)
    return out


# -- provenance -----------------------------------------------------------------


def fingerprint(items) -> str:
    blob = json.dumps(items, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def machine_info() -> dict[str, str]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": str(os.cpu_count()),
        "cpu": cpu,
        "commit": commit,
    }


def write_record(name: str, record: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return path


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
