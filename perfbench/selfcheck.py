"""Fast self-check of the benchmark itself (tiny inputs, well under a minute).

Usage (from the repository root)::

    python3 perfbench/selfcheck.py

Proves two things and exits non-zero when either fails:

1. the metric names and units the benchmark prints match ``BENCHMARK.json``
   (both modes, every workload, at tiny sizes), and every workload reports
   every end-to-end metric with a positive value;
2. every correctness check fires on a deliberately corrupted output.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path[:0] = [str(HERE), str(CHECKOUT / "src")]

from common import CheckError  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOAD_DETAIL  # noqa: E402


def require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def declared() -> dict:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def check_names() -> None:
    import run

    spec = declared()
    require(spec["end_to_end"] == list(END_TO_END), "end_to_end in BENCHMARK.json drifted from metrics.py")
    require(spec["per_layer"] == list(PER_LAYER), "per_layer in BENCHMARK.json drifted from metrics.py")
    require(spec["workloads"] == list(run.WORKLOADS), "workloads in BENCHMARK.json drifted from run.py")
    workdir = CHECKOUT / ".bench_run" / "selfcheck"
    try:
        for workload in run.WORKLOADS:
            untraced = run.run_untraced(workload, 7, 1.0, workdir / workload, size="tiny")
            names = {name for name, _u, _b in END_TO_END}
            require(
                set(untraced["metrics"]) == names,
                f"{workload}: measured {sorted(untraced['metrics'])}, declared {sorted(names)}",
            )
            require(
                all(value > 0 for value in untraced["metrics"].values()),
                f"{workload}: an end-to-end metric is not positive: {untraced['metrics']}",
            )
            own = set(run.phase_classes()[run.WORKLOADS[workload]].metrics)
            require(
                set(untraced["detail"]) == own and own <= {name for name, _u, _b in WORKLOAD_DETAIL},
                f"{workload}: record figures {sorted(untraced['detail'])}, expected {sorted(own)}",
            )
            traced = run.run_traced(workload, 7, workdir / f"{workload}-traced", size="tiny")
            require(
                set(traced["metrics"]) == {name for name, _u, _b in PER_LAYER},
                f"{workload}: traced metric names differ from PER_LAYER",
            )
            print(f"selfcheck: {workload}: metric names and units match BENCHMARK.json", flush=True)
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)


def fires(label: str, check, *args) -> None:
    try:
        check(*args)
    except CheckError:
        print(f"selfcheck: {label}: fires on corrupted output", flush=True)
        return
    raise AssertionError(f"{label}: did not fire on corrupted output")


def check_checks() -> None:
    import churn
    import disclose
    import serve
    import sweep

    from repro import DisclosureConfig, MultiLevelDiscloser, generate_dblp_like
    from repro.core.access import AccessPolicy
    from repro.core.store import ReleaseStore

    graph = generate_dblp_like(num_authors=80, seed=3)
    release = MultiLevelDiscloser(DisclosureConfig.paper_defaults(epsilon_g=0.5), rng=5).disclose(graph)
    corrupt = copy.deepcopy(release)
    level = corrupt.level_releases[0]
    query = next(iter(level.answers))
    for name in level.answers[query]:
        level.answers[query][name] += 1.0
        break

    good = disclose.release_bytes(release)
    bad = disclose.release_bytes(corrupt)
    disclose.check_repeat(good, good, "x")
    fires("disclose-fresh repeat", disclose.check_repeat, good, bad, "x")
    fires("disclose-fresh round trip", disclose.check_round_trip, good, bad, "x")

    churn.check_refresh_parity(release, release)
    fires("republish-churn parity", churn.check_refresh_parity, release, corrupt)
    moved = copy.deepcopy(release)
    moved.provenance["level_fingerprints"] = {"0": "0" * 64}
    fires("republish-churn fingerprints", churn.check_refresh_parity, release, moved)
    fires("republish-churn live key", churn.check_live_key, release, corrupt)

    fires("serve-catalog byte-stable bodies", serve.check_stable_bodies, {"/r": {"a", "b"}})
    fires("serve-catalog empty 304", serve.check_empty_304, [0, 17])
    workdir = CHECKOUT / ".bench_run" / "selfcheck-store"
    try:
        store = ReleaseStore(workdir)
        store.save(release, key="k")
        policy = AccessPolicy.from_dict(serve.POLICY)
        expected = serve.expected_view(store, policy, "k", "analyst")
        serve.check_view_sample(expected, expected, "/releases/k/views/analyst")
        store.save(corrupt, key="k")
        served = serve.expected_view(store, policy, "k", "analyst")
        store.save(release, key="k")
        fires(
            "serve-catalog view sample",
            serve.check_view_sample,
            served,
            serve.expected_view(store, policy, "k", "analyst"),
            "/releases/k/views/analyst",
        )
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)

    rows = [{"epsilon_g": 0.1, "levels": 3, "store_key": "k", "levels_disclosed": 2, "elapsed_seconds": 1.0}]
    serial = [dict(rows[0], elapsed_seconds=2.0)]
    sweep.check_rows(rows, serial)
    fires("sweep-journaled rows", sweep.check_rows, rows, [dict(serial[0], levels_disclosed=3)])
    fires("sweep-journaled stored", sweep.check_stored, {"k": (b"a", b"b")}, {"k": (b"a", b"c")})


def main() -> int:
    try:
        check_checks()
        check_names()
    except AssertionError as error:
        print(f"selfcheck FAILED: {error}", file=sys.stderr, flush=True)
        return 1
    print("selfcheck: ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
