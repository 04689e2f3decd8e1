"""Spans around th4's layer boundaries, recorded from outside the package.

install() replaces each function in TRACED, in every th4 module
namespace that holds it, with a wrapper that records a span (name,
layer, start, end, CPU start and end, parent span, run id) and a few
exact counts taken from the call's arguments and result. Nothing in
th4 itself changes, and restore() puts the originals back.

The layers are the th4 modules. Only calls to the functions in TRACED
get a span; everything else a layer runs stays in its self time, so
infocalc's own marginalisation counts as infocalc, not tables. The
caller wraps each CLI command in a COMMAND span, which marks the
command's boundary but is no layer: the command time no traced call
covers (click, the command body, the harness) is reported as
trace.unaccounted_s.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import tracemalloc
from collections import Counter

# Per layer (th4 module): traced public function -> metric its self time is added to.
TRACED = {
    "ingest": {"load_dataset": "load_dataset_s", "drop_empty_labels": "drop_empty_s"},
    "tables": {"build_table": "build_table_s", "project": "project_s"},
    "infocalc": {"full_report": "full_report_s", "transmission": "transmission_s"},
    "maxent": {"ipf_fit": "ipf_fit_s", "krippendorff_interaction": "interaction_s"},
    "decompose": {"decompose_by_dimension": "by_dimension_s"},
    "cli": {
        "append_row": "append_row_s",
        "render_listing": "render_s",
        "report_json": "render_s",
        "decomposition_rows": "render_s",
    },
}
LAYERS = tuple(TRACED)
# Layer of the span around one whole CLI command; not one of LAYERS.
COMMAND = "command"
# Layers whose calls get a tracemalloc peak in a memory pass. Tracing
# only these calls keeps the pass short.
MEMORY_LAYERS = ("ingest", "maxent")
COUNTS = (
    "ingest.records",
    "tables.cells",
    "infocalc.marginal_cells",
    "maxent.iterations",
    "maxent.dense_cells",
    "decompose.groups",
    "cli.rows",
)


class Span:
    __slots__ = ("name", "layer", "parent", "run", "start", "end", "cpu_start", "cpu_end", "alloc")

    def __init__(self, name: str, layer: str, parent: int | None, run: int):
        self.name, self.layer, self.parent, self.run = name, layer, parent, run
        self.alloc = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.name, self.layer, self.start, self.end, self.parent, self.run]


class Tracer:
    """Spans and counts of one pass. With memory=True each span of a layer in
    MEMORY_LAYERS also records its tracemalloc peak: the most memory that
    objects allocated during the call held at any one time."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run = 0
        self._stack: list[int] = []

    def begin(self, layer: str, name: str) -> Span:
        span = Span(name, layer, self._stack[-1] if self._stack else None, self.run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        if self.memory and layer in MEMORY_LAYERS:
            tracemalloc.start()
        span.cpu_start = time.process_time()
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu_end = time.process_time()
        self._stack.pop()
        if self.memory and span.layer in MEMORY_LAYERS:
            span.alloc = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    def parent_layer(self, span: Span) -> str | None:
        return None if span.parent is None else self.spans[span.parent].layer


def _count(tracer: Tracer, span: Span, name: str, args: tuple, result) -> None:
    c = tracer.counts
    if name == "load_dataset":
        c["ingest.records"] += len(result.records)
    elif name == "build_table":
        c["tables.cells"] += len(result.counts)
        if tracer.parent_layer(span) == COMMAND:  # the table of a whole input file
            c["ingest.file_cells"] += len(result.counts)
            c["ingest.file_records"] += result.total
    elif name == "ipf_fit":
        table = args[0]
        dense = 1
        for alphabet in table.alphabets:
            dense *= len(alphabet)
        c["maxent.dense_cells"] += dense
        c["maxent.observed_cells"] += len(table.counts)
        c["maxent.iterations"] += result.iterations
    elif name == "decompose_by_dimension":
        c["decompose.groups"] += len(result.groups)
    elif name == "append_row":
        c["cli.rows"] += 1
    elif name == "decomposition_rows":
        c["cli.rows"] += len(result)


def _traced(tracer: Tracer, layer: str, fn):
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        _count(tracer, span, name, args, result)
        return result

    return wrapper


def _counting_marginal(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.counts["infocalc.marginal_cells"] += len(result.counts)
        return result

    return wrapper


def install(tracer: Tracer):
    """Route th4's traced functions through `tracer`; return a function that undoes it."""
    modules = [importlib.import_module(f"th4.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, functions in TRACED.items():
        home = importlib.import_module(f"th4.{layer}")
        for name in functions:
            fn = getattr(home, name, None)  # a function the program dropped reads 0
            if fn is not None:
                wrappers[id(fn)] = _traced(tracer, layer, fn)
    swaps = [
        (module, attr, value, wrappers[id(value)])
        for module in modules
        for attr, value in vars(module).items()
        if id(value) in wrappers
    ]
    infocalc = importlib.import_module("th4.infocalc")
    # Marginals infocalc computes are counted, not timed: their time is infocalc's.
    if hasattr(infocalc, "marginal"):
        swaps.append(
            (infocalc, "marginal", infocalc.marginal, _counting_marginal(tracer, infocalc.marginal))
        )
    for module, attr, _, wrapper in swaps:
        setattr(module, attr, wrapper)

    def restore():
        for module, attr, original, _ in swaps:
            setattr(module, attr, original)

    return restore


def self_times(tracer: Tracer) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [span.duration for span in tracer.spans]
    for span in tracer.spans:
        if span.parent is not None:
            out[span.parent] -= span.duration
    return out


def file_times(tracer: Tracer) -> list[float]:
    """Seconds per input file: from each load_dataset call a CLI command makes
    to the next one, or to the end of the command. A command that makes no
    such call counts as one file."""
    marks = {i: [] for i, span in enumerate(tracer.spans) if span.parent is None}
    for span in tracer.spans:
        if span.name == "load_dataset" and span.parent in marks:
            marks[span.parent].append(span.start)
    times = []
    for command, starts in marks.items():
        starts = starts or [tracer.spans[command].start]
        ends = starts[1:] + [tracer.spans[command].end]
        times.extend(end - start for start, end in zip(starts, ends))
    return times


def pass_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer self times and exact counts of one traced pass lasting `wall` seconds."""
    metrics = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for layer, functions in TRACED.items():
        for suffix in functions.values():
            metrics[f"{layer}.{suffix}"] = 0.0
    metrics["ingest.wait_s"] = 0.0
    accounted = 0.0
    for span, own in zip(tracer.spans, self_times(tracer)):
        if span.layer not in TRACED:
            continue
        accounted += own
        metrics[f"{span.layer}.self_s"] += own
        suffix = TRACED[span.layer].get(span.name)
        if suffix:
            metrics[f"{span.layer}.{suffix}"] += own
        if span.layer == "ingest":
            metrics["ingest.wait_s"] += span.duration - (span.cpu_end - span.cpu_start)
    c = tracer.counts
    for name in COUNTS:
        metrics[name] = float(c[name])
    metrics["ingest.distinct_ratio"] = c["ingest.file_cells"] / max(c["ingest.file_records"], 1)
    metrics["maxent.fill_ratio"] = c["maxent.observed_cells"] / max(c["maxent.dense_cells"], 1)
    metrics["trace.total_s"] = wall
    metrics["trace.unaccounted_s"] = wall - accounted
    return metrics


def peak_alloc_mb(tracer: Tracer, layer: str) -> float:
    """Largest tracemalloc peak of any call into `layer` in a memory pass, in MiB."""
    return max((s.alloc for s in tracer.spans if s.layer == layer), default=0) / 2**20


def tail(samples: list[float]) -> float:
    """The highest percentile with at least ten samples above it.

    Below 21 samples that percentile would not exceed the median, so
    the maximum is reported instead.
    """
    ordered = sorted(samples)
    return ordered[-11] if len(ordered) > 20 else ordered[-1]


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
