"""The repository benchmark: one command, four workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload disclose-fresh --seed 1 --seconds 12 --trace 0

``--trace 0`` measures for ``--seconds`` and prints every end-to-end metric
(the workload's own figures go into the record line); ``--trace 1`` runs a fixed number of operations untraced and then
traced, and prints every per-layer metric plus the tracing overhead.
Correctness checks run in both modes; a failed check makes the run exit 1.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path[:0] = [str(HERE), str(CHECKOUT / "src")]

from common import CheckError, emit, eprint, host_facts, median, peak_rss_mb, pin  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOAD_DETAIL  # noqa: E402

#: Set-up runs at least ``SETUP_REPEATS`` times in an untraced run, and
#: again until ``SETUP_MIN_SECONDS`` have gone into it (at most
#: ``SETUP_MAX_REPEATS`` times), so a set-up of milliseconds still gives a
#: steady median; ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 10

#: A single-threaded workload's load process stays on this CPU, so the
#: scheduler does not migrate it mid-run (the sweep's process pool needs
#: both CPUs and is left unpinned).
LOAD_CPU = 0


def phase_classes():
    """Imported lazily: each phase imports ``repro``."""
    from churn import ChurnPhase
    from disclose import DisclosePhase
    from serve import ServePhase
    from sweep import SweepPhase

    return {"disclose": DisclosePhase, "churn": ChurnPhase, "serve": ServePhase, "sweep": SweepPhase}


#: Workload -> the phase that measures it.
WORKLOADS = {
    "disclose-fresh": "disclose",
    "republish-churn": "churn",
    "serve-catalog": "serve",
    "sweep-journaled": "sweep",
}


def run_untraced(workload: str, seed: int, seconds: float, workdir: Path, size: str = "full") -> dict:
    """Set the workload up several times, then measure the last set-up."""
    cls = phase_classes()[WORKLOADS[workload]]
    setup_times: list = []
    server_rss: list = []
    phase = None
    while len(setup_times) < SETUP_REPEATS or (
        sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
    ):
        repeat = len(setup_times)
        if phase is not None:
            phase.close()
            server_rss += getattr(phase, "server_rss", [])
            phase = None
            gc.collect()
        phase = cls(workdir / f"{cls.name}-{repeat}", seed, size)
        start = time.perf_counter()
        phase.setup()
        setup_times.append(time.perf_counter() - start)
    try:
        result = phase.run(seconds=seconds)
        phase.check()
    finally:
        phase.close()
        server_rss += getattr(phase, "server_rss", [])
    metrics = {name: result.metrics[name] for name in ("op_p50_ms", "ops_per_s")}
    metrics["setup_s"] = median(setup_times)
    metrics["peak_rss_mb"] = peak_rss_mb() + max(server_rss, default=0.0)
    return {
        "metrics": metrics,
        "detail": {name: result.metrics[name] for name, _u, _b in WORKLOAD_DETAIL if name in result.metrics},
        "result": result,
        "notes": {"setup_s_samples": setup_times, "server_peak_rss_mb": max(server_rss, default=None)},
    }


def run_traced(workload: str, seed: int, workdir: Path, size: str = "full") -> dict:
    from layers import layer_metrics
    from spans import Tracer, install_program_wrappers, traced_backend

    primary_name = WORKLOADS[workload]
    phase = phase_classes()[primary_name](workdir / primary_name, seed, size)
    ops = phase.size["trace_ops"]
    phase.setup()
    healthz = None
    server_spans: dict = {}
    try:
        untraced = phase.run(ops=ops)
        if primary_name == "serve":
            phase.relaunch(traced=True)
        tracer = Tracer()
        install_program_wrappers(tracer)
        wrapped = []
        for store, label in phase.stores():
            wrapped.append((store, store.backend))
            store.backend = traced_backend(store.backend, tracer, label)
        try:
            traced = phase.run(ops=ops, tracer=tracer)
        finally:
            for store, backend in wrapped:
                store.backend = backend
            tracer.uninstall()
        if primary_name == "serve":
            phase.census()
            healthz = phase.healthz()
        phase.check()
    finally:
        server_spans = phase.close() or {}
    values = layer_metrics(
        phase=phase,
        untraced=untraced,
        traced=traced,
        load=tracer.export(),
        server=server_spans,
        healthz=healthz,
    )
    op_ms = median(traced.op_seconds) * 1e3
    # What each workload was chosen for, read off the trace (README "Workloads").
    chosen_for = {
        "disclose": {
            "specialize_plus_fingerprint_share_of_op": (
                values["grouping.specialize_ms"] + values["pipeline.fingerprint_ms"]
            ) / op_ms
        },
        "churn": {"specialize_ms": values["grouping.specialize_ms"]},
        "serve": {
            "metadata_store_calls_exceed_view_hot": values["store.calls_per_request.metadata"]
            > values["store.calls_per_request.view_hot"]
        },
        "sweep": {
            "execution_evaluation_share_of_op": (
                values["execution.self_ms"] + values["evaluation.self_ms"]
            ) / op_ms
        },
    }[primary_name]
    return {
        "metrics": values,
        "result": traced,
        "notes": {"trace_ops": ops, "chosen_for": chosen_for},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import repro  # noqa: F401 - fail fast, before any work, when the program is absent
    except ImportError as error:
        eprint(f"perfbench: cannot import the program under {CHECKOUT / 'src'}: {error}")
        return 2

    if phase_classes()[WORKLOADS[args.workload]].pinned:
        pin(0, LOAD_CPU)
    workdir = CHECKOUT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    correct = True
    try:
        if args.trace:
            outcome = run_traced(args.workload, args.seed, workdir)
            names = PER_LAYER
        else:
            outcome = run_untraced(args.workload, args.seed, args.seconds, workdir)
            names = END_TO_END
    except CheckError as error:
        eprint(f"perfbench: correctness check failed: {error}")
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if not correct:
        emit({"correct": False, "attempted": 1, "failed": 1, "metrics": {}})
        return 1

    result = outcome["result"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts(CHECKOUT),
        "counts": {route: counts.to_dict() for route, counts in result.counts.items()},
        "notes": {**outcome["notes"], **result.notes},
    }
    units = {name: unit for name, unit, _b in WORKLOAD_DETAIL}
    detail = outcome.get("detail", {})
    record["workload_metrics"] = {name: {"value": value, "unit": units[name]} for name, value in detail.items()}
    emit({"record": record})
    for name, value in detail.items():
        emit(f"{name} = {value:.6g} {units[name]}")
    metrics = {}
    for name, unit, _better in names:
        value = float(outcome["metrics"][name])
        metrics[name] = {"value": value, "unit": unit}
        emit(f"{name} = {value:.6g} {unit}")
    emit({"correct": True, "attempted": result.attempted, "failed": result.failed, "metrics": metrics})
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report, print no result, exit non-zero
        traceback.print_exc()
        sys.exit(3)
