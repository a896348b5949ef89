"""In-memory spans around calls into the library's public functions.

The layers are the library's modules: core, families, umbral, expansion,
identities, parser and cli; a span's layer is the first part of its name.

A span is a list [name, start, end, parent index, op id]. Spans stay in
memory until the run ends. The library is instrumented only from outside:
`instrument` replaces a public function with a wrapper, in the module
namespaces that call it, for the life of the process that asked for it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from common import OUT_DIR, self_times

DUMPS = json.dumps  # bound before `instrument` wraps json.dumps for the cli layer


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None

    def add(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        """Record a finished span, e.g. one measured in another process."""
        self.spans.append([name, start, end, parent, self.op])
        return len(self.spans) - 1

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None, self.op])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None, self.op]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def dump(self, name: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / name, "w") as fh:
            for span in self.spans:
                fh.write(DUMPS(span) + "\n")


def instrument(tracer: Tracer):
    """Wrap the public calls at each layer boundary, where callers look them up.

    `from .x import f` binds f in the caller's namespace, so a function is
    wrapped in every module that imported it. Only public names are touched.
    Returns a function that puts the originals back.
    """
    import degbern.cli as cli
    import degbern.core as core
    import degbern.expansion as expansion
    import degbern.identities as identities
    import degbern.parser as parser
    import degbern.umbral as umbral

    targets: list[tuple[object, str, str]] = [
        (core.XPoly, "shift", "core.XPoly.shift"),
        (core.XPoly, "eval_x", "core.XPoly.eval_x"),
        (core.TruncSeries, "inverse", "core.TruncSeries.inverse"),
        (core.TruncSeries, "__pow__", "core.TruncSeries.pow"),
        (parser, "parse_poly", "parser.parse_poly"),
        (cli, "parse_poly", "parser.parse_poly"),
        (cli, "expand", "expansion.expand"),
        (cli, "crosscheck", "expansion.crosscheck"),
        (cli, "expansion_to_document", "cli.expansion_to_document"),
        (cli.json, "dumps", "cli.json_dumps"),
    ]
    for layer, users in (("families", (expansion, identities, parser, cli)), ("umbral", (expansion, identities, umbral))):
        for module in users:
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", "") == f"degbern.{layer}":
                    targets.append((module, attr, f"{layer}.{attr}"))
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    for owner, attr, name in targets:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    # cli's table command keeps the number families in a dict built at import.
    table = getattr(cli, "_NUMBER_FAMILIES", None)
    saved_table = dict(table) if isinstance(table, dict) else {}
    for key, fn in saved_table.items():
        table[key] = tracer.wrap(f"families.{getattr(fn, '__name__', key)}", fn)

    def restore() -> None:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
        if saved_table:
            table.update(saved_table)

    return restore


def self_ms_by(spans: list[list], key) -> dict[str, float]:
    """Self time in milliseconds, summed by key(span)."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[key(span)] += own * 1000
    return dict(totals)


def layer_of(span: list) -> str:
    return span[0].split(".", 1)[0]


def summarize(tracer: Tracer, filename: str, ops: int) -> dict:
    """Write the spans out and sum their self time by layer and by name."""
    tracer.dump(filename)
    return {
        "layer_self_ms": self_ms_by(tracer.spans, layer_of),
        "name_self_ms": self_ms_by(tracer.spans, lambda s: s[0]),
        "span_count": len(tracer.spans),
        "span_ops": ops,
    }
