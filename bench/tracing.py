"""In-memory spans around steppursuit's public functions, for the traced run.

A wrapper is installed at the module binding a caller actually uses (for
example `steppursuit.pursuit.best_window`, which `pursuit_step` calls), so
nothing under `src/` is edited. Each span records its name, its parent span
and its start and end; a layer's self time is its span time minus the time of
its child spans. Wrappers are installed only for a traced op and removed right
after it, so untraced ops run the program exactly as shipped.

When a wrapped name no longer exists (a later change inlined or renamed it),
the traced run warns and reports the layer metrics that depend on it as
absent instead of failing.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter


def _windows(args, out) -> int:
    n = len(args[0])
    return n * (n + 1) // 2


def _grid_unmodulated(args, out) -> int:
    return len(args[1]) * len(args[2])


def _grid_modulated(args, out) -> int:
    return len(args[1]) * len(args[2]) * len(args[3])


# (span name, module, attribute, work counted from (args, result)).
# Order matters: a later entry on the same binding wraps the earlier wrapper,
# so verify's oracle call to best_window is a "verify.oracle" span with a
# "maximizer.scan" child.
BINDINGS = (
    ("cli.ingest", "steppursuit.cli", "read_csv_column", lambda args, out: len(out)),
    ("pursuit.run", "steppursuit.cli", "run_pursuit", lambda args, out: len(out.terms)),
    ("maximizer.scan", "steppursuit.pursuit", "best_window", _windows),
    ("pursuit.reconstruct", "steppursuit.cli", "reconstruct", None),
    ("pursuit.reconstruct", "steppursuit.cli", "breakpoints", None),
    ("verify.suite", "steppursuit.cli", "run_suite", None),
    ("verify.grid_modulated", "steppursuit.verify", "grid_max_modulated", _grid_modulated),
    ("verify.grid_unmodulated", "steppursuit.verify", "grid_max_unmodulated", _grid_unmodulated),
    ("maximizer.scan", "steppursuit.verify", "best_window", _windows),
    ("maximizer.scan", "steppursuit.maximizer", "best_window", _windows),
    ("verify.oracle", "steppursuit.verify", "best_window", None),
    ("verify.oracle", "steppursuit.verify", "best_window_single_signed", None),
    ("verify.oracle", "steppursuit.verify", "inner_product", None),
)

ROOT_SPAN = "cli.main"


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    work: int = 0


class Tracer:
    """Collects the spans of one op; `take` hands them over and starts afresh."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name, fn, args, kwargs, work=None):
        span = Span(name, self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._open.pop()
        if work is not None:
            span.work = work(args, out)
        return out

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


class Installation:
    """Wrappers installed on the live steppursuit modules; `remove` undoes them."""

    def __init__(self, tracer: Tracer, bindings=BINDINGS):
        self.missing: set[str] = set()  # span names with a binding absent
        self.absent: list[str] = []  # those bindings, as module.attribute
        self._undo = []
        for name, modname, attr, work in bindings:
            module = sys.modules.get(modname)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.add(name)
                self.absent.append(f"{modname}.{attr}")
                continue
            self._undo.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, name, fn, work))

    def remove(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()


def _wrap(tracer, name, fn, work):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, work)

    return wrapper


@dataclass
class OpLayers:
    """Per-name totals over the spans of one op."""

    incl: dict
    own: dict
    calls: Counter
    work: dict
    out_bytes: int


def aggregate(spans: list[Span], out_bytes: int) -> OpLayers:
    incl, own, work = defaultdict(float), defaultdict(float), defaultdict(int)
    calls = Counter()
    child = defaultdict(float)
    for s in spans:
        d = s.end - s.start
        incl[s.name] += d
        calls[s.name] += 1
        work[s.name] += s.work
        if s.parent is not None:
            child[s.parent] += d
    for i, s in enumerate(spans):
        own[s.name] += (s.end - s.start) - child[i]
    return OpLayers(incl, own, calls, work, out_bytes)


def _median(f):
    return lambda ops: statistics.median(f(op) for op in ops)


def _rate(work, seconds):
    def rate(ops):
        busy = sum(seconds(op) for op in ops)
        return sum(work(op) for op in ops) / busy if busy > 0 else 0.0

    return rate


_GRID = ("verify.grid_modulated", "verify.grid_unmodulated")

# name -> (unit, span names it depends on, value from the traced ops' OpLayers).
# Times and counts are medians per op; rates are total work over total time.
LAYER_METRICS = {
    "maximizer.scan_s": ("s", {"maximizer.scan"}, _median(lambda o: o.incl["maximizer.scan"])),
    "maximizer.scan_calls": ("count", {"maximizer.scan"}, _median(lambda o: o.calls["maximizer.scan"])),
    "maximizer.windows": ("computed_count", {"maximizer.scan"}, _median(lambda o: o.work["maximizer.scan"])),
    "maximizer.windows_per_s": (
        "1/s", {"maximizer.scan"},
        _rate(lambda o: o.work["maximizer.scan"], lambda o: o.incl["maximizer.scan"]),
    ),
    "pursuit.self_s": ("s", {"pursuit.run", "maximizer.scan"}, _median(lambda o: o.own["pursuit.run"])),
    "pursuit.iterations": ("count", {"pursuit.run"}, _median(lambda o: o.work["pursuit.run"])),
    "pursuit.reconstruct_s": ("s", {"pursuit.reconstruct"}, _median(lambda o: o.incl["pursuit.reconstruct"])),
    "cli.ingest_s": ("s", {"cli.ingest"}, _median(lambda o: o.incl["cli.ingest"])),
    "cli.ingest_rows_per_s": (
        "1/s", {"cli.ingest"},
        _rate(lambda o: o.work["cli.ingest"], lambda o: o.incl["cli.ingest"]),
    ),
    "cli.report_s": (
        "s", {"cli.ingest", "pursuit.run", "pursuit.reconstruct", "verify.suite"},
        _median(lambda o: o.own[ROOT_SPAN]),
    ),
    "cli.report_bytes": ("bytes", set(), _median(lambda o: o.out_bytes)),
    "verify.grid_modulated_s": (
        "s", {"verify.grid_modulated"}, _median(lambda o: o.incl["verify.grid_modulated"]),
    ),
    "verify.grid_unmodulated_s": (
        "s", {"verify.grid_unmodulated"}, _median(lambda o: o.incl["verify.grid_unmodulated"]),
    ),
    "verify.grid_points": (
        "computed_count", set(_GRID), _median(lambda o: sum(o.work[n] for n in _GRID)),
    ),
    "verify.grid_points_per_s": (
        "1/s", set(_GRID),
        _rate(lambda o: sum(o.work[n] for n in _GRID), lambda o: sum(o.incl[n] for n in _GRID)),
    ),
    "verify.oracle_s": ("s", {"verify.oracle"}, _median(lambda o: o.incl["verify.oracle"])),
    "verify.self_s": (
        "s", {"verify.suite", "verify.oracle", *_GRID}, _median(lambda o: o.own["verify.suite"]),
    ),
}


def layer_metrics(ops: list[OpLayers], missing: set[str]) -> dict:
    """Every layer metric whose spans were all installed, as {name: {value, unit}}.

    Absent metrics are left out and named in a warning on stderr.
    """
    out, absent = {}, []
    for name, (unit, needs, value) in LAYER_METRICS.items():
        if needs & missing:
            absent.append(name)
        else:
            out[name] = {"value": value(ops), "unit": unit}
    if absent:
        print(f"warning: layer metrics absent: {', '.join(absent)}", file=sys.stderr)
    return out
