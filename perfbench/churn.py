"""``republish-churn``: the publisher's warm write path.

Set-up builds one DBLP-like graph, a ``GraphPublisher(total_budget=None)``
and its shared hierarchy (the first ``release()``), and pre-generates the
edge-mutation batches.  One operation applies a batch (adds and removes
balanced) and runs ``GraphPublisher.refresh(release=, store=, key=)`` into a
SQLite store; every ``republish_every``-th operation also runs a
``GraphPublisher.release`` over the shared hierarchy, saves it, and runs one
catalog query.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from common import (
    GRAPH_SEED,
    PhaseResult,
    check,
    derive_seed,
    fresh_dir,
    median,
    percentile,
    tail_percentile,
)

from repro import DisclosureConfig, GraphPublisher, MultiLevelDiscloser, ReleaseStore, generate_dblp_like
from repro.core.catalog import ReleaseCatalog, ReleaseFilter, system_clock
from repro.utils.rng import derive_rng
from repro.utils.serialization import canonical_json_bytes

SIZES = {
    # ``expected_ops``: refreshes a run is planned to make, which fixes the
    # tail percentile; ``plan_ops`` bounds how many batches are pre-generated;
    # ``trace_ops``: operations per pass of a traced run.
    "full": {"authors": 4000, "batch": 40, "republish_every": 5, "plan_ops": 1000,
             "expected_ops": 150, "trace_ops": 20},
    "tiny": {"authors": 150, "batch": 6, "republish_every": 3, "plan_ops": 600,
             "expected_ops": 6, "trace_ops": 6},
}

#: epsilon_g values the periodic republishes cycle through.
REPUBLISH_EPSILONS = (0.25, 0.5, 1.0)

Batch = List[Tuple[str, object, object]]


def plan_mutations(graph, batches: int, batch_size: int, seed: int) -> List[Batch]:
    """Balanced add/remove batches, simulated on an edge set so each applies cleanly."""
    rng = np.random.default_rng(seed)
    edges = sorted(graph.associations(), key=repr)
    present = set(edges)
    lefts = sorted(graph.left_nodes(), key=repr)
    rights = sorted(graph.right_nodes(), key=repr)
    plan: List[Batch] = []
    for _ in range(batches):
        batch: Batch = []
        for _ in range(batch_size // 2):
            index = int(rng.integers(len(edges)))
            edge = edges[index]
            edges[index] = edges[-1]
            edges.pop()
            present.discard(edge)
            batch.append(("remove", edge[0], edge[1]))
        added = 0
        while added < batch_size - batch_size // 2:
            edge = (lefts[int(rng.integers(len(lefts)))], rights[int(rng.integers(len(rights)))])
            if edge in present:
                continue
            present.add(edge)
            edges.append(edge)
            batch.append(("add", edge[0], edge[1]))
            added += 1
        plan.append(batch)
    return plan


def payload(release) -> bytes:
    """A release's content without provenance (refresh adds lineage keys)."""
    document = release.to_dict()
    document.pop("provenance")
    return canonical_json_bytes(document)


def check_refresh_parity(refreshed, scratch) -> None:
    check(
        payload(refreshed) == payload(scratch),
        "republish-churn: final refresh differs from a same-seed from-scratch disclosure",
    )
    check(
        refreshed.provenance["level_fingerprints"] == scratch.provenance["level_fingerprints"],
        "republish-churn: final refresh level fingerprints differ from a from-scratch disclosure",
    )


def check_live_key(refreshed, stored) -> None:
    check(
        payload(refreshed) == payload(stored),
        "republish-churn: the live store key does not hold the final refresh",
    )


class ChurnPhase:
    name = "churn"
    pinned = True
    metrics = ("refresh_p50_ms", "refresh_tail_ms", "republish_p50_ms")

    def __init__(self, workdir: Path, seed: int, size: str):
        self.workdir = workdir
        self.seed = seed
        self.size = SIZES[size]
        self.config = DisclosureConfig.paper_defaults(epsilon_g=0.5)
        self.publisher_seed = derive_seed(seed, "churn-publisher")

    def setup(self) -> None:
        fresh_dir(self.workdir)
        graph = generate_dblp_like(
            num_authors=self.size["authors"], seed=derive_seed(GRAPH_SEED, "churn-graph")
        )
        self.plan = plan_mutations(
            graph, self.size["plan_ops"], self.size["batch"], derive_seed(self.seed, "churn-mutations")
        )
        self.publisher = GraphPublisher(
            graph, total_budget=None, base_config=self.config, rng=self.publisher_seed
        )
        self.initial = self.publisher.release()
        self.store = ReleaseStore(self.workdir / "churn.db", clock=system_clock)
        self.store.save(self.initial, key="live")
        self.op_index = 0
        self.republishes = 0
        self.last_refresh = None

    def _apply(self, batch: Batch) -> None:
        graph = self.publisher.graph
        for op, left, right in batch:
            if op == "add":
                graph.add_association(left, right)
            else:
                graph.remove_association(left, right)

    def _republish(self) -> None:
        epsilon = REPUBLISH_EPSILONS[self.republishes % len(REPUBLISH_EPSILONS)]
        release = self.publisher.release(epsilon_g=epsilon)
        self.store.save(release, key=f"release-{self.republishes}")
        rows = ReleaseCatalog(self.store).rows(ReleaseFilter(epsilon=epsilon))
        check(rows, f"republish-churn: catalog query for epsilon {epsilon} found nothing")
        self.republishes += 1

    def run(self, seconds: Optional[float] = None, ops: Optional[int] = None, tracer=None) -> PhaseResult:
        result = PhaseResult()
        refreshes = result.route("refresh")
        republishes = result.route("republish")
        refresh_ms: List[float] = []
        republish_ms: List[float] = []
        deadline = time.perf_counter() + seconds if seconds is not None else None
        done = 0
        while (ops is not None and done < ops) or (deadline is not None and time.perf_counter() < deadline):
            if self.op_index >= len(self.plan):
                raise RuntimeError("republish-churn: mutation plan exhausted; raise plan_ops")
            batch = self.plan[self.op_index]
            republish = self.op_index % self.size["republish_every"] == self.size["republish_every"] - 1
            if tracer is not None:
                with tracer.operation(self.op_index):
                    elapsed = self._operation(batch, republish, refresh_ms, republish_ms)
            else:
                elapsed = self._operation(batch, republish, refresh_ms, republish_ms)
            result.op_seconds.append(elapsed)
            refreshes.add(True)
            if republish:
                republishes.add(True)
            self.op_index += 1
            done += 1
        pct = tail_percentile(self.size["expected_ops"])
        result.metrics["refresh_p50_ms"] = median(refresh_ms)
        result.metrics["refresh_tail_ms"] = percentile(refresh_ms, pct)
        result.metrics["op_p50_ms"] = result.metrics["refresh_p50_ms"]
        result.metrics["ops_per_s"] = len(result.op_seconds) / sum(result.op_seconds)
        if republish_ms:
            result.metrics["republish_p50_ms"] = median(republish_ms)
        result.notes["refresh_tail_percentile"] = pct
        result.notes["refresh_samples"] = len(refresh_ms)
        result.notes["republish_samples"] = len(republish_ms)
        return result

    def _operation(self, batch: Batch, republish: bool, refresh_ms: list, republish_ms: list) -> float:
        start = time.perf_counter()
        self._apply(batch)
        self.last_refresh = self.publisher.refresh(release=self.initial, store=self.store, key="live")
        middle = time.perf_counter()
        refresh_ms.append((middle - start) * 1e3)
        if republish:
            self._republish()
            republish_ms.append((time.perf_counter() - middle) * 1e3)
        return time.perf_counter() - start

    def check(self) -> None:
        """The final refresh equals a same-seed from-scratch disclosure (same hierarchy).

        The from-scratch discloser is seeded exactly as ``GraphPublisher``
        seeds its first release: the publisher stream (``graph-publisher``)
        draws once for specialization, then once for ``release-1``.
        """
        check(self.last_refresh is not None, "republish-churn: no refresh ran")
        publisher_rng = derive_rng(self.publisher_seed, "graph-publisher")
        derive_rng(publisher_rng, "specialization")
        scratch = MultiLevelDiscloser(
            config=self.config, rng=derive_rng(publisher_rng, "release-1")
        ).disclose(self.publisher.graph, hierarchy=self.publisher.hierarchy)
        check_refresh_parity(self.last_refresh.release, scratch)
        check_live_key(self.last_refresh.release, self.store.load("live"))

    def stores(self):
        return [(self.store, "sqlite")]

    def store_bytes_per_release(self) -> float:
        return (self.workdir / "churn.db").stat().st_size / max(1, len(self.store.keys()))

    def close(self) -> None:
        self.store.backend.close()
