"""In-memory span tracing around roybounds' public functions, and the
per-layer metrics computed from the spans.

``Tracer.install`` replaces each traced function with a wrapper under every
name a ``roybounds`` module binds it to (``estimate_tables`` is looked up in
``roybounds.cli``, ``roybounds.inference`` and the package namespace, and a
wrapper only in ``estimation`` would miss the bootstrap's calls).  Each call
records a span: id, parent span, name, start, end, unit id, whether it
returned, and a little metadata.  Spans stay in memory until ``write``;
``uninstall`` restores every binding.  The package itself is not edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from typing import NamedTuple

MODULES = ("model", "estimation", "population", "envelopes", "bounds",
           "inference", "coverage", "reporting")
# per-value helpers run once per CSV cell or JSON leaf: a span each would
# cost more than the work it times
SKIP = {"reporting.fmt", "reporting.parse_float", "reporting.json_ready"}
# private functions that are layers of their own, traced under these names
PRIVATE = {"inference._theta": "inference.theta"}
# (module, class, staticmethod) traced as module.Class.method
METHODS = (("model", "EvaluationGrid", "from_sample"),)
ROOT = "cli"


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    unit: int | None
    ok: bool
    meta: dict | None

    @property
    def dur(self) -> float:
        return self.end - self.start


def traced_functions() -> dict:
    """{id(function): (span name, function)} for every traced module function."""
    found = {}
    for mod_name in MODULES:
        module = importlib.import_module(f"roybounds.{mod_name}")
        for attr, obj in vars(module).items():
            if not (inspect.isfunction(obj) and obj.__module__ == module.__name__):
                continue
            qual = f"{mod_name}.{attr}"
            name = PRIVATE.get(qual, None if attr.startswith("_") else qual)
            if name is not None and name not in SKIP:
                found[id(obj)] = (name, obj)
    return found


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._next = 0
        self._stack: list[int] = []
        self._unit = None
        self._sources: list = []
        self._patches: list = []

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {key: (fn, self._wrap(name, fn))
                    for key, (name, fn) in traced_functions().items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "roybounds"
                                      or mod_name.startswith("roybounds.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, obj, hit[1])
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"roybounds.{mod_name}"), cls_name)
            raw = cls.__dict__[attr]
            self._patch(cls, attr, raw, staticmethod(
                self._wrap(f"{mod_name}.{cls_name}.{attr}", raw.__func__)))

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        if name == "inference.bootstrap_errors":
            meta_of = self._replicate_meta(fn)
        else:
            meta_of = {"reporting.ingest_csv": self._source_meta,
                       "model.generate_sample": self._source_meta,
                       "estimation.estimate_tables": self._table_meta}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, meta_of, args, kwargs)

        return wrapper

    def _call(self, name, fn, meta_of, args, kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        result, ok = None, False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            meta = meta_of(args, kwargs, result) if meta_of and ok else None
            self.spans.append(Span(sid, parent, name, start, end, self._unit,
                                   ok, meta))

    def run_unit(self, unit: int, fn, *args):
        """Call ``fn(*args)`` as the root span of one unit."""
        self._unit = unit
        try:
            return self._call(ROOT, fn, None, args, {})
        finally:
            self._unit = None
            self._sources.clear()

    def _source_meta(self, args, kwargs, sample) -> dict:
        # samples read or drawn within a unit; tables on them are full-sample
        self._sources.append(sample)
        return {"rows": int(sample.n)}

    def _table_meta(self, args, kwargs, table) -> dict:
        sample = args[0] if args else kwargs.get("sample")
        for k, source in enumerate(self._sources):
            if source is sample:
                return {"source": k}
        return {"source": None}

    @staticmethod
    def _replicate_meta(fn):
        signature = inspect.signature(fn)

        def meta(args, kwargs, result) -> dict:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return {"B": int(bound.arguments["B"])}

        return meta

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


# -- per-layer metrics --------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class UnitStats:
    """Counts, self times and durations of one traced unit's spans."""

    def __init__(self, spans):
        child = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child[s.parent] += s.dur
        self.spans = spans
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.dur = defaultdict(float)
        for s in spans:
            self.calls[s.name] += 1
            self.self_s[s.name] += s.dur - child[s.id]
            self.dur[s.name] += s.dur
        self.wall = self.dur[ROOT]

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def prefixed(self, table, prefix) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def full_sample_tables(self) -> float:
        full = [s.meta["source"] for s in self.named("estimation.estimate_tables")
                if s.meta and s.meta["source"] is not None]
        return len(full) / len(set(full)) if full else 0.0

    def replicates(self) -> int:
        return sum(s.meta["B"] for s in self.named("inference.bootstrap_errors")
                   if s.meta)

    def replicate_ms(self) -> float:
        reps = self.replicates()
        return 1000.0 * self.dur["inference.bootstrap_errors"] / reps if reps else 0.0

    def rows_per_s(self) -> float:
        spans = self.named("reporting.ingest_csv")
        rows = sum(s.meta["rows"] for s in spans if s.meta)
        secs = sum(s.dur for s in spans)
        return rows / secs if secs > 0 else 0.0


def _calls(name):
    return lambda u: u.calls[name]


def _self(name):
    return lambda u: u.self_s[name]


# (metric, unit, better, per-unit value); the benchmark reports the median
# over traced units
PER_UNIT = [
    ("estimation.estimate_tables.calls", "count", "lower", _calls("estimation.estimate_tables")),
    ("estimation.estimate_tables.self_s", "s", "lower", _self("estimation.estimate_tables")),
    ("estimation.full_sample_tables_per_unit", "count", "lower", UnitStats.full_sample_tables),
    ("estimation.conditional_mean.calls", "count", "lower", _calls("estimation.conditional_mean")),
    ("estimation.conditional_mean.self_s", "s", "lower", _self("estimation.conditional_mean")),
    ("inference.bootstrap_errors.self_s", "s", "lower", _self("inference.bootstrap_errors")),
    ("inference.bootstrap_errors.replicates", "count", "higher", UnitStats.replicates),
    ("inference.replicate_ms", "ms", "lower", UnitStats.replicate_ms),
    ("inference.theta.calls", "count", "lower", _calls("inference.theta")),
    ("inference.theta.self_s", "s", "lower", _self("inference.theta")),
    ("inference.clr_band.self_s", "s", "lower", _self("inference.clr_band")),
    ("inference.confidence_band.self_s", "s", "lower", _self("inference.confidence_band")),
    ("inference.band_failures", "count", "lower",
     lambda u: sum(not s.ok for s in u.named("inference.confidence_band"))),
    ("envelopes.envelope_table.calls", "count", "lower", _calls("envelopes.envelope_table")),
    ("envelopes.envelope_table.self_s", "s", "lower", _self("envelopes.envelope_table")),
    ("bounds.cost_bounds_pf.self_s", "s", "lower", _self("bounds.cost_bounds_pf")),
    ("bounds.cost_bounds_if.self_s", "s", "lower", _self("bounds.cost_bounds_if")),
    ("bounds.random_cost_bounds.self_s", "s", "lower", _self("bounds.random_cost_bounds")),
    ("reporting.ingest_csv.self_s", "s", "lower", _self("reporting.ingest_csv")),
    ("reporting.ingest_csv.rows_per_s", "1/s", "higher", UnitStats.rows_per_s),
    ("reporting.write.self_s", "s", "lower",
     lambda u: u.prefixed(u.self_s, "reporting.write_")),
    ("reporting.cost_survival.self_s", "s", "lower", _self("reporting.cost_survival")),
    ("model.generate_sample.calls", "count", "lower", _calls("model.generate_sample")),
    ("model.generate_sample.self_s", "s", "lower", _self("model.generate_sample")),
    ("population.population_tables.self_s", "s", "lower", _self("population.population_tables")),
    ("coverage.run_coverage.self_s", "s", "lower", _self("coverage.run_coverage")),
] + [
    (f"{m}.{kind}", unit, "lower",
     (lambda u, m=m, t=table: u.prefixed(getattr(u, t), m + ".")))
    for m in MODULES
    for kind, unit, table in (("calls", "count", "calls"), ("self_s", "s", "self_s"))
] + [
    ("cli.self_s", "s", "lower", _self(ROOT)),
    ("trace.unit_wall_s", "s", "lower", lambda u: u.wall),
    ("trace.coverage_frac", "ratio", "higher",
     lambda u: 1.0 - u.self_s[ROOT] / u.wall if u.wall > 0 else 0.0),
]

# metrics over every call in the traced units, not per unit
PER_CALL = [
    ("estimation.estimate_tables.ms_p50", "ms", "lower", "estimation.estimate_tables", 1000.0),
    ("inference.confidence_band.s_p50", "s", "lower", "inference.confidence_band", 1.0),
]


def layer_metrics(spans) -> dict:
    """{metric: (value, unit)} from the spans of the traced units."""
    by_unit = defaultdict(list)
    for s in spans:
        if s.unit is not None:
            by_unit[s.unit].append(s)
    stats = [UnitStats(by_unit[k]) for k in sorted(by_unit)]
    out = {name: (_median([fn(u) for u in stats]), unit)
           for name, unit, _, fn in PER_UNIT}
    for name, unit, _, span_name, scale in PER_CALL:
        durs = [s.dur for s in spans if s.name == span_name]
        out[name] = (scale * _median(durs), unit)
    return out
