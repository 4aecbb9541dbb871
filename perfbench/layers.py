"""Per-layer metrics of a traced run, computed from the recorded spans.

Conventions (see ``README.md``): ``*_ms`` is self time per operation,
``*_calls`` and the layer counts are per operation, and
``pipeline.fingerprint_partition_us`` is per call.  On ``serve-catalog`` an
operation is one HTTP request of the traced open loop; the server-side spans
are restricted to those requests, and ``store.calls_per_request.*`` come from
the sequential census requests only.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Optional

from common import PhaseResult, median
from metrics import PER_LAYER
from spans import LAYERS, STORE_METHODS, summarize

#: span name -> metric stem; the stem gets ``_ms`` and, for counted spans, ``_calls``.
TIMED = {
    "graphs.compile": ("graphs.compile", True),
    "graphs.delta_compile": ("graphs.delta_compile", True),
    "grouping.specialize": ("grouping.specialize", False),
    "pipeline.compile": ("pipeline.compile", False),
    "pipeline.calibrate": ("pipeline.calibrate", False),
    "pipeline.perturb": ("pipeline.perturb", False),
    "pipeline.assemble": ("pipeline.assemble", False),
    "pipeline.fingerprint": ("pipeline.fingerprint", True),
    "store.sqlite.query_catalog": ("store.sqlite.query_catalog", False),
    "serving.staleness.token": ("serving.staleness.token", False),
    "serving.staleness.staleness_for": ("serving.staleness.staleness_for", False),
    "serving.staleness.summary": ("serving.staleness.summary", False),
    "serving.serialize": ("serving.serialize", False),
    "execution.map": ("execution.map", False),
    "evaluation.journal_write": ("evaluation.journal_write", False),
}
for _backend in ("dir", "sqlite"):
    for _method in STORE_METHODS:
        TIMED[f"store.{_backend}.{_method}"] = (f"store.{_backend}.{_method}", True)

REQUEST_CLASSES = ("metadata", "healthz", "view_hot", "view_cold")


def calls_per_request(spans: list) -> Dict[str, float]:
    """Store-backend calls per census request, by request class."""
    requests: Dict[str, set] = defaultdict(set)
    calls: Counter = Counter()
    for span in spans:
        op = span["op"] or ""
        if not op.startswith("census:"):
            continue
        request_class = op.split(":")[1]
        requests[request_class].add(op)
        if span["name"].startswith("store."):
            calls[request_class] += 1
    return {
        name: calls[name] / len(requests[name]) if requests[name] else 0.0
        for name in REQUEST_CLASSES
    }


def layer_metrics(
    phase,
    untraced: PhaseResult,
    traced: PhaseResult,
    load: dict,
    server: dict,
    healthz: Optional[dict],
) -> Dict[str, float]:
    ops = max(1, len(traced.op_seconds))
    summaries = [summarize(load["spans"])]
    server_spans = server.get("spans", [])
    if server_spans:
        summaries.append(summarize(server_spans, keep=lambda op: (op or "").startswith("load:")))
    calls: Counter = Counter()
    self_ms: Counter = Counter()
    layer_ms: Counter = Counter()
    for summary in summaries:
        calls.update(summary["calls"])
        self_ms.update(summary["self_ms"])
        layer_ms.update(summary["layer_self_ms"])
    counts = Counter(load["counts"])

    values: Dict[str, float] = {name: 0.0 for name, _unit, _better in PER_LAYER}
    for span_name, (stem, counted) in TIMED.items():
        values[f"{stem}_ms"] = self_ms[span_name] / ops
        if counted:
            values[f"{stem}_calls"] = calls[span_name] / ops
    if calls["pipeline.fingerprint_partition"]:
        values["pipeline.fingerprint_partition_us"] = (
            self_ms["pipeline.fingerprint_partition"] * 1e3 / calls["pipeline.fingerprint_partition"]
        )
    values["grouping.groups"] = counts["grouping.groups"] / ops
    values["refresh.levels_reperturbed"] = counts["refresh.levels_reperturbed"] / ops
    values["refresh.levels_reused"] = counts["refresh.levels_reused"] / ops
    values["execution.tasks"] = counts["execution.tasks"] / ops
    values["execution.retries"] = counts["execution.retries"] / ops
    values["evaluation.journal_writes"] = calls["evaluation.journal_write"] / ops
    values["evaluation.snapshot_events"] = calls["evaluation.snapshot_record"] / ops
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = layer_ms[layer] / ops
    values["store.bytes_per_release"] = float(phase.store_bytes_per_release())
    values.update(traced.layer)

    if server_spans:
        for name, value in calls_per_request(server_spans).items():
            values[f"store.calls_per_request.{name}"] = value
    if healthz is not None:
        cache = healthz["cache"]
        values["store.release_cache.hit_ratio"] = cache["hits"] / max(1, cache["lookups"])
        respcache = healthz["response_cache"]
        values["serving.respcache.hit_ratio"] = respcache["hits"] / max(1, respcache["lookups"])
        values["serving.shed"] = float(healthz["fault_tolerance"]["shed"])
        statuses = phase.record.statuses
        values["serving.status_200"] = float(statuses.get(200, 0))
        values["serving.status_304"] = float(statuses.get(304, 0))
        values["bench.generator_late_ms"] = traced.notes["generator_late_p99_ms"]

    values["bench.tracing_overhead_ms"] = (
        median(traced.op_seconds) - median(untraced.op_seconds)
    ) * 1e3
    values["failed_frac"] = traced.failed / max(1, traced.attempted)
    return values
