"""``sweep-journaled``: the ``repro sweep`` path.

One operation is ``ParameterSweep.run`` over an ``epsilon_g`` x levels grid
on a small DBLP graph, through ``SweepScheduler`` on a two-worker process
executor, with a journal, the task-event snapshot and a directory store, all
fresh for that operation.  The process pool is started (and warmed) in
set-up and shared by every operation, so pool start-up is not measured.
"""

from __future__ import annotations

import time
from functools import partial
from pathlib import Path
from typing import Optional

from common import GRAPH_SEED, PhaseResult, check, derive_seed, fresh_dir, median, tree_bytes

from repro import DisclosureConfig, MultiLevelDiscloser, ReleaseStore
from repro.datasets import load_dataset
from repro.evaluation.sweep import ParameterSweep
from repro.execution import SweepScheduler
from repro.execution.executors import ProcessExecutor
from repro.grouping.specialization import SpecializationConfig

SIZES = {
    # ``trace_ops``: sweeps per pass of a traced run.
    "full": {"epsilons": 16, "levels": (3, 5), "scale": "tiny", "trace_ops": 2},
    "tiny": {"epsilons": 2, "levels": (2, 3), "scale": "tiny", "trace_ops": 1},
}
WORKERS = 2


def sweep_runner(epsilon_g: float, levels: int, scale: str, seed: int, store: str) -> dict:
    """One combination: disclose, persist under a parameter key, summarise.

    Module-level so the process pool can pickle it.  The dataset is the same
    on every run; ``seed`` drives the disclosure, with its own stream per
    combination so one sweep averages over 32 specialization draws.
    """
    graph = load_dataset("dblp", scale=scale, seed=GRAPH_SEED)
    config = DisclosureConfig(
        epsilon_g=epsilon_g, specialization=SpecializationConfig(num_levels=levels)
    )
    rng = derive_seed(seed, f"sweep-combination-{epsilon_g}-{levels}")
    release = MultiLevelDiscloser(config=config, rng=rng).disclose(graph)
    key = f"sweep-dblp-{scale}-l{levels}-eps{epsilon_g}-seed{seed}"
    ReleaseStore(store).save(release, key=key)
    return {"store_key": key, "levels_disclosed": len(release.levels())}


def _warm(_index: int) -> int:
    return 0


def comparable_rows(rows) -> list:
    return [{k: v for k, v in row.items() if k != "elapsed_seconds"} for row in rows]


def stored_artifacts(store_dir: Path) -> dict:
    store = ReleaseStore(store_dir)
    return {
        key: (store.backend.get_document(key), store.backend.get_answers(key))
        for key in store.keys()
    }


def check_rows(rows, serial_rows) -> None:
    check(
        comparable_rows(rows) == comparable_rows(serial_rows),
        "sweep-journaled: sweep rows differ from a serial run of the same grid",
    )


def check_stored(stored: dict, serial_stored: dict) -> None:
    check(
        stored == serial_stored,
        "sweep-journaled: stored releases differ from a serial run of the same grid",
    )


class SweepPhase:
    name = "sweep"
    pinned = False
    metrics = ("sweep_combos_per_s",)

    def __init__(self, workdir: Path, seed: int, size: str):
        self.workdir = workdir
        self.seed = seed
        self.size = SIZES[size]
        self.noise_seed = derive_seed(seed, "sweep-noise") % 10_000
        self.epsilons = [round(0.1 + 0.1 * i, 2) for i in range(self.size["epsilons"])]
        self.pool: Optional[ProcessExecutor] = None

    def grid(self) -> dict:
        return {"epsilon_g": self.epsilons, "levels": list(self.size["levels"])}

    def setup(self) -> None:
        fresh_dir(self.workdir)
        self.pool = ProcessExecutor(max_workers=WORKERS)
        self.pool.map(_warm, range(WORKERS))
        self.scheduler = SweepScheduler(executor=self.pool, workers=WORKERS)
        self.op_index = 0
        self.last = None

    def _sweep(self, store_dir: Path) -> ParameterSweep:
        runner = partial(
            sweep_runner, scale=self.size["scale"], seed=self.noise_seed, store=str(store_dir)
        )
        return ParameterSweep(runner, self.grid(), name=f"bench-sweep-seed{self.noise_seed}")

    def _operation(self) -> tuple:
        run_dir = fresh_dir(self.workdir / f"op-{self.op_index}")
        self.op_index += 1
        sweep = self._sweep(run_dir / "store")
        start = time.perf_counter()
        result = sweep.run(
            record_time=True,
            scheduler=self.scheduler,
            journal=run_dir / "journal.json",
            snapshot=run_dir / "journal.json.events.jsonl",
        )
        elapsed = time.perf_counter() - start
        check(not result.errors, f"sweep-journaled: {len(result.errors)} combination(s) failed")
        self.last = (result.rows, run_dir / "store")
        return elapsed, result.rows

    def run(self, seconds: Optional[float] = None, ops: Optional[int] = None, tracer=None) -> PhaseResult:
        result = PhaseResult()
        counts = result.route("sweep")
        combos = len(self._sweep(self.workdir).combinations())
        deadline = time.perf_counter() + seconds if seconds is not None else None
        rates = []
        busy = []
        done = 0
        while (ops is not None and done < ops) or (deadline is not None and time.perf_counter() < deadline):
            if tracer is not None:
                with tracer.operation(done):
                    elapsed, rows = self._operation()
            else:
                elapsed, rows = self._operation()
            result.op_seconds.append(elapsed)
            rates.append(combos / elapsed)
            busy.append(sum(row["elapsed_seconds"] for row in rows) / (elapsed * WORKERS))
            counts.add(True)
            done += 1
        result.metrics["sweep_combos_per_s"] = median(rates)
        result.metrics["op_p50_ms"] = median(result.op_seconds) * 1e3
        result.metrics["ops_per_s"] = result.metrics["sweep_combos_per_s"]
        result.layer["sweep.runner_busy_frac"] = median(busy)
        result.notes["sweep_combinations"] = combos
        return result

    def check(self) -> None:
        """Rows and stored releases equal a serial run of the same grid."""
        check(self.last is not None, "sweep-journaled: no sweep ran")
        rows, store_dir = self.last
        serial_dir = fresh_dir(self.workdir / "serial")
        serial = self._sweep(serial_dir / "store").run(executor="serial")
        check_rows(rows, serial.rows)
        check_stored(stored_artifacts(store_dir), stored_artifacts(serial_dir / "store"))

    def stores(self):
        return []

    def store_bytes_per_release(self) -> float:
        if self.last is None:
            return 0.0
        store_dir = self.last[1]
        return tree_bytes(store_dir) / max(1, len(ReleaseStore(store_dir).keys()))

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
