"""In-memory span recording around the package's public functions and classes.

The benchmark never edits ``src/``: a :class:`Tracer` patches the layer entry
points named in :func:`install_program_wrappers` and
:func:`install_serving_wrappers` with thin wrappers, records one span per call
(name, start, end, parent span, operation id), and restores the originals on
:meth:`Tracer.uninstall`.  Spans stay in memory until the run ends.

Self time follows the layer map: a span's self time is its duration minus the
time covered by its direct child spans *of other layers*.  Nested spans of the
same layer (``pipeline.assemble`` around ``pipeline.fingerprint``) are kept
inside their parent, so a stage's time includes its named sub-spans.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The eight layers, named after the package modules they wrap.
LAYERS = (
    "graphs",
    "grouping",
    "pipeline",
    "refresh",
    "store",
    "serving",
    "execution",
    "evaluation",
)

#: Backend methods timed by :func:`traced_backend`.
STORE_METHODS = ("put", "get_document", "get_answers", "fingerprint", "keys", "exists")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: int, parent: Optional[int], op: Any):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "op": self.op,
        }


class Tracer:
    """Records spans and counts; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: Any = None) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            op = getattr(self._local, "op", None)
        record = Span(name, time.perf_counter_ns(), parent, op)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter_ns()
            stack.pop()

    @contextmanager
    def operation(self, op_id: Any) -> Iterator[None]:
        """Root span of one benchmark operation; children inherit ``op_id``."""
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            with self.span("bench.op", op=op_id):
                yield
        finally:
            self._local.op = previous

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- wrappers ----------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_call: Optional[Callable[..., None]] = None,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a class or a module.  For a class the attribute is
        patched on the class in the MRO that defines it, so subclasses that
        inherit it are covered too.
        """
        if inspect.isclass(owner):
            owner = next(klass for klass in owner.__mro__ if attr in vars(klass))
            raw = vars(owner)[attr]
        else:
            raw = getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            with tracer.span(name):
                result = func(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- summaries ---------------------------------------------------------
    def export(self) -> dict:
        return {"spans": [span.to_dict() for span in self.spans], "counts": dict(self.counts)}


def summarize(
    spans: List[dict], keep: Callable[[Any], bool] = lambda op: True
) -> Dict[str, Dict[str, float]]:
    """Per span name: calls and total self ms; per layer: total self ms.

    Returns ``{"calls": {...}, "self_ms": {...}, "layer_self_ms": {...}}``.
    ``layer_self_ms`` counts each layer entry once (a span whose parent is in
    another layer) minus the time its first descendants of other layers take.
    Only spans whose operation id passes ``keep`` are counted.
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(index)

    def duration(index: int) -> int:
        return spans[index]["end_ns"] - spans[index]["start_ns"]

    def foreign_descendant_ns(index: int, layer: str) -> int:
        total = 0
        for child in children.get(index, ()):
            if layer_of(spans[child]["name"]) == layer:
                total += foreign_descendant_ns(child, layer)
            else:
                total += duration(child)
        return total

    calls: Counter = Counter()
    self_ns: Counter = Counter()
    layer_ns: Counter = Counter()
    for index, span in enumerate(spans):
        if not keep(span["op"]):
            continue
        name = span["name"]
        layer = layer_of(name)
        calls[name] += 1
        direct_foreign = sum(
            duration(child)
            for child in children.get(index, ())
            if layer_of(spans[child]["name"]) != layer
        )
        self_ns[name] += duration(index) - direct_foreign
        parent = span["parent"]
        if parent is None or layer_of(spans[parent]["name"]) != layer:
            layer_ns[layer] += duration(index) - foreign_descendant_ns(index, layer)
    return {
        "calls": dict(calls),
        "self_ms": {name: ns / 1e6 for name, ns in self_ns.items()},
        "layer_self_ms": {layer: ns / 1e6 for layer, ns in layer_ns.items()},
    }


def install_program_wrappers(tracer: Tracer) -> None:
    """Wrap the in-process layer entry points (load-process side)."""
    from repro.core import pipeline, refresh
    from repro.core.publisher import GraphPublisher
    from repro.evaluation.journal import RunJournal
    from repro.evaluation.snapshot import SnapshotRecorder, SweepSnapshot
    from repro.execution.executors import ProcessExecutor, SerialExecutor, ThreadExecutor
    from repro.graphs.arrays import GraphArrays
    from repro.grouping.specialization import Specializer

    def count_groups(result) -> None:
        hierarchy = result.hierarchy
        tracer.count(
            "grouping.groups",
            sum(hierarchy.partition_at(level).num_groups() for level in hierarchy.level_indices()),
        )

    def count_refresh(result) -> None:
        tracer.count("refresh.levels_reperturbed", len(result.affected_levels))
        tracer.count("refresh.levels_reused", len(result.reused_levels))

    def count_tasks(_executor, _fn, tasks, *args, **kwargs) -> None:
        # Every caller in the package passes a list; never consume an iterator.
        tracer.count("execution.tasks", len(tasks) if hasattr(tasks, "__len__") else 0)

    def count_retries(_recorder, keys) -> None:
        tracer.count("execution.retries", len(keys))

    tracer.wrap(GraphArrays, "compile", "graphs.compile")
    tracer.wrap(GraphArrays, "delta_compile", "graphs.delta_compile")
    tracer.wrap(Specializer, "build", "grouping.specialize", on_result=count_groups)
    tracer.wrap(pipeline.CompileStage, "run", "pipeline.compile")
    tracer.wrap(pipeline.CalibrateStage, "run", "pipeline.calibrate")
    tracer.wrap(pipeline.PerturbStage, "run", "pipeline.perturb")
    tracer.wrap(pipeline.AssembleStage, "run", "pipeline.assemble")
    # level_fingerprints_for is called by name from two modules: AssembleStage
    # (pipeline) and refresh_release (refresh), so both bindings are wrapped.
    tracer.wrap(pipeline, "level_fingerprints_for", "pipeline.fingerprint")
    tracer.wrap(refresh, "level_fingerprints_for", "pipeline.fingerprint")
    tracer.wrap(pipeline, "fingerprint_partition", "pipeline.fingerprint_partition")
    tracer.wrap(GraphPublisher, "release", "refresh.release")
    tracer.wrap(GraphPublisher, "refresh", "refresh.refresh", on_result=count_refresh)
    for executor in (SerialExecutor, ThreadExecutor, ProcessExecutor):
        tracer.wrap(executor, "map", "execution.map", on_call=count_tasks)
    tracer.wrap(SnapshotRecorder, "on_retrying", "execution.retry", on_call=count_retries)
    tracer.wrap(RunJournal, "flush", "evaluation.journal_write")
    tracer.wrap(SweepSnapshot, "record", "evaluation.snapshot_record")


def install_serving_wrappers(tracer: Tracer) -> None:
    """Wrap the serving layer's entry points (server-process side)."""
    from repro.serving import server
    from repro.serving.staleness import StalenessIndex

    tracer.wrap(StalenessIndex, "token", "serving.staleness.token")
    tracer.wrap(StalenessIndex, "staleness_for", "serving.staleness.staleness_for")
    tracer.wrap(StalenessIndex, "summary", "serving.staleness.summary")
    tracer.wrap(server, "canonical_json", "serving.serialize")


def traced_backend(inner, tracer: Tracer, label: str):
    """A delegating ``StoreBackend`` that records a span around every call.

    ``label`` is the backend name used in metric names (``dir``, ``sqlite``).
    """
    from repro.core.store import StoreBackend

    class TracedBackend(StoreBackend):
        def __init__(self) -> None:
            self.inner = inner
            self.root = getattr(inner, "root", None)

        def _call(self, method: str, *args):
            with tracer.span(f"store.{label}.{method}"):
                return getattr(self.inner, method)(*args)

        def put(self, key, document, answers):
            return self._call("put", key, document, answers)

        def get_document(self, key):
            return self._call("get_document", key)

        def get_answers(self, key):
            return self._call("get_answers", key)

        def exists(self, key):
            return self._call("exists", key)

        def delete(self, key):
            return self._call("delete", key)

        def keys(self):
            return self._call("keys")

        def fingerprint(self, key):
            return self._call("fingerprint", key)

        def describe(self):
            return self.inner.describe()

        def query_catalog(self, release_filter):
            return self._call("query_catalog", release_filter)

    if not hasattr(inner, "query_catalog"):
        # ReleaseCatalog probes for this method; only indexed backends have it.
        del TracedBackend.query_catalog
    return TracedBackend()
