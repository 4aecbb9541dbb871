"""``disclose-fresh``: the publisher's cold path.

One operation is ``MultiLevelDiscloser(paper_defaults(epsilon_g=0.5)).disclose``
of a freshly generated, not yet compiled DBLP-like graph, followed by
``ReleaseStore.save`` into a directory store.  Every operation builds its own
hierarchy, so specialization and cold partition fingerprinting dominate.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional

from common import (
    GRAPH_SEED,
    CheckError,
    PhaseResult,
    check,
    derive_seed,
    digest,
    fresh_dir,
    median,
    tree_bytes,
)

from repro import DisclosureConfig, MultiLevelDiscloser, ReleaseStore, generate_dblp_like
from repro.utils.serialization import canonical_json_bytes

SIZES = {
    # ``inputs`` distinct (graph, noise seed) pairs, cycled; operation i and
    # i + inputs disclose the same input, which the repeat check compares.
    # ``trace_ops``: operations per pass of a traced run (untraced, then traced).
    "full": {"authors": 4000, "inputs": 4, "trace_ops": 4},
    "tiny": {"authors": 150, "inputs": 2, "trace_ops": 2},
}


def release_bytes(release) -> bytes:
    return canonical_json_bytes(release.to_dict())


def check_repeat(first: bytes, again: bytes, label: str) -> None:
    check(
        first == again,
        f"disclose-fresh: repeated same-seed disclosure of {label} is not bit-identical",
    )


def check_round_trip(saved: bytes, loaded: bytes, key: str) -> None:
    check(saved == loaded, f"disclose-fresh: stored release {key!r} does not round-trip")


class DisclosePhase:
    name = "disclose"
    pinned = True
    metrics = ("disclose_s",)

    def __init__(self, workdir: Path, seed: int, size: str):
        self.workdir = workdir
        self.seed = seed
        self.size = SIZES[size]
        self.config = DisclosureConfig.paper_defaults(epsilon_g=0.5)

    def setup(self) -> None:
        fresh_dir(self.workdir)
        self.graphs = [
            generate_dblp_like(
                num_authors=self.size["authors"], seed=derive_seed(GRAPH_SEED, f"disclose-graph-{i}")
            )
            for i in range(self.size["inputs"])
        ]
        self.noise_seeds = [
            derive_seed(self.seed, f"disclose-noise-{i}") for i in range(self.size["inputs"])
        ]
        self.store = ReleaseStore(self.workdir / "store")
        self.digests: dict = {}
        self.op_index = 0

    def _operation(self, input_index: int) -> float:
        # The copy is input preparation: a fresh, uncompiled graph per operation.
        graph = self.graphs[input_index].copy()
        key = f"op-{self.op_index}"
        self.op_index += 1
        start = time.perf_counter()
        release = MultiLevelDiscloser(self.config, rng=self.noise_seeds[input_index]).disclose(graph)
        self.store.save(release, key=key)
        elapsed = time.perf_counter() - start
        produced = release_bytes(release)
        if input_index in self.digests:
            check_repeat(self.digests[input_index], digest(produced), f"input {input_index}")
        else:
            self.digests[input_index] = digest(produced)
            check_round_trip(produced, release_bytes(self.store.load(key)), key)
        return elapsed

    def run(self, seconds: Optional[float] = None, ops: Optional[int] = None, tracer=None) -> PhaseResult:
        result = PhaseResult()
        counts = result.route("disclose")
        if seconds is not None:
            # One untimed disclosure first: the first in a process runs cold
            # (allocator, NumPy), a cost a publisher pays once, not per release.
            self._operation(0)
        deadline = time.perf_counter() + seconds if seconds is not None else None
        done = 0
        while (ops is not None and done < ops) or (deadline is not None and time.perf_counter() < deadline):
            index = done % self.size["inputs"]
            if tracer is not None:
                with tracer.operation(done):
                    elapsed = self._operation(index)
            else:
                elapsed = self._operation(index)
            result.op_seconds.append(elapsed)
            counts.add(True)
            done += 1
        result.metrics["disclose_s"] = median(result.op_seconds)
        result.metrics["op_p50_ms"] = result.metrics["disclose_s"] * 1e3
        result.metrics["ops_per_s"] = len(result.op_seconds) / sum(result.op_seconds)
        return result

    def check(self) -> None:
        """Repeat input 0 outside the window when no operation repeated it."""
        if 0 not in self.digests:
            raise CheckError("disclose-fresh: no operation completed")
        if self.op_index <= self.size["inputs"]:
            again = MultiLevelDiscloser(self.config, rng=self.noise_seeds[0]).disclose(
                self.graphs[0].copy()
            )
            check_repeat(self.digests[0], digest(release_bytes(again)), "input 0")

    def stores(self):
        return [(self.store, "dir")]

    def store_bytes_per_release(self) -> float:
        return tree_bytes(self.workdir / "store") / max(1, len(self.store.keys()))

    def close(self) -> None:
        pass
