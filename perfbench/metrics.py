"""Every metric the benchmark prints: ``(name, unit, better)``.

``BENCHMARK.json`` lists the end-to-end and per-layer names and units;
``selfcheck.py`` fails when the two drift apart.
"""

from __future__ import annotations

from spans import LAYERS, STORE_METHODS

#: Printed by every workload with ``--trace 0``; what an "operation" is
#: depends on the workload (README "End-to-end metrics").
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
)

#: The workload's own end-to-end figures, under the names the layer map in
#: the README uses.  They go into the ``record`` line, not the result line:
#: each exists on one workload only.
WORKLOAD_DETAIL = (
    ("disclose_s", "s", "lower"),
    ("refresh_p50_ms", "ms", "lower"),
    ("refresh_tail_ms", "ms", "lower"),
    ("republish_p50_ms", "ms", "lower"),
    ("serve_p50_ms", "ms", "lower"),
    ("serve_tail_ms", "ms", "lower"),
    ("serve_metadata_p50_ms", "ms", "lower"),
    ("serve_healthz_p50_ms", "ms", "lower"),
    ("serve_view_p50_ms", "ms", "lower"),
    ("serve_closed_rps", "1/s", "higher"),
    ("sweep_combos_per_s", "1/s", "higher"),
)


def _per_layer():
    rows = [
        ("graphs.compile_ms", "ms", "lower"),
        ("graphs.compile_calls", "count", "lower"),
        ("graphs.delta_compile_ms", "ms", "lower"),
        ("graphs.delta_compile_calls", "count", "lower"),
        ("grouping.specialize_ms", "ms", "lower"),
        ("grouping.groups", "count", "lower"),
        ("pipeline.compile_ms", "ms", "lower"),
        ("pipeline.calibrate_ms", "ms", "lower"),
        ("pipeline.perturb_ms", "ms", "lower"),
        ("pipeline.assemble_ms", "ms", "lower"),
        ("pipeline.fingerprint_ms", "ms", "lower"),
        ("pipeline.fingerprint_calls", "count", "lower"),
        ("pipeline.fingerprint_partition_us", "us", "lower"),
        ("refresh.levels_reperturbed", "count", "lower"),
        ("refresh.levels_reused", "count", "higher"),
    ]
    for backend in ("dir", "sqlite"):
        for method in STORE_METHODS:
            rows.append((f"store.{backend}.{method}_ms", "ms", "lower"))
            rows.append((f"store.{backend}.{method}_calls", "count", "lower"))
    rows += [
        ("store.sqlite.query_catalog_ms", "ms", "lower"),
        ("store.calls_per_request.metadata", "count", "lower"),
        ("store.calls_per_request.healthz", "count", "lower"),
        ("store.calls_per_request.view_hot", "count", "lower"),
        ("store.calls_per_request.view_cold", "count", "lower"),
        ("store.release_cache.hit_ratio", "ratio", "higher"),
        ("store.bytes_per_release", "bytes", "lower"),
        ("serving.respcache.hit_ratio", "ratio", "higher"),
        ("serving.status_200", "count", "higher"),
        ("serving.status_304", "count", "higher"),
        ("serving.staleness.token_ms", "ms", "lower"),
        ("serving.staleness.staleness_for_ms", "ms", "lower"),
        ("serving.staleness.summary_ms", "ms", "lower"),
        ("serving.serialize_ms", "ms", "lower"),
        ("serving.shed", "count", "lower"),
        ("execution.tasks", "count", "lower"),
        ("execution.retries", "count", "lower"),
        ("execution.map_ms", "ms", "lower"),
        ("evaluation.journal_writes", "count", "lower"),
        ("evaluation.journal_write_ms", "ms", "lower"),
        ("evaluation.snapshot_events", "count", "lower"),
        ("sweep.runner_busy_frac", "ratio", "higher"),
    ]
    rows += [(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS]
    rows += [
        ("bench.generator_late_ms", "ms", "lower"),
        ("bench.tracing_overhead_ms", "ms", "lower"),
        ("failed_frac", "ratio", "lower"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()
