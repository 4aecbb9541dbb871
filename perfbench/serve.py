"""``serve-catalog``: the consumer path, with writes next to reads.

Set-up discloses a handful of small datasets and saves each under many
revision keys (so staleness has siblings) into a directory store, launches
one server process through ``server_main.py`` (``create_server`` with default
caches) and warms the hot routes.  The load is a fixed request mix sent from
this process on at most two connections:

* an open loop at a fixed rate well under capacity, each request timed from
  the moment it was due (so a stall also counts against the requests queued
  behind it), with how late each request was sent recorded;
* then a closed loop on two connections, reported as requests per second.

Republishes (``ReleaseStore.save`` over an existing key) run in this process
against the same directory, next to the server's reads.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (
    GRAPH_SEED,
    PhaseResult,
    pin,
    check,
    derive_seed,
    digest,
    fresh_dir,
    median,
    percentile,
    tail_percentile,
    tree_bytes,
)

from repro import DisclosureConfig, MultiLevelDiscloser, ReleaseStore, generate_dblp_like
from repro.core.access import AccessPolicy
from repro.utils.serialization import canonical_json_bytes

HERE = Path(__file__).resolve().parent

SIZES = {
    # ``trace_ops``: open-loop requests per pass of a traced run;
    # ``census``: sequential requests per class counted for the trace.
    "full": {"datasets": 10, "revisions": 100, "authors": 120, "hot": 16, "rate": 20.0,
             "open_share": 0.4, "census": 8, "trace_ops": 300},
    "tiny": {"datasets": 2, "revisions": 30, "authors": 80, "hot": 2, "rate": 40.0,
             "open_share": 0.6, "census": 2, "trace_ops": 40},
}

#: The request mix: (kind, share).  ``republish`` runs locally, the rest are GETs.
MIX = (
    ("view_hot", 0.70),
    ("revalidate", 0.10),
    ("metadata", 0.10),
    ("healthz", 0.05),
    ("view_cold", 0.04),
    ("republish", 0.01),
)
HTTP_KINDS = tuple(kind for kind, _ in MIX if kind != "republish")
POLICY = {"top_level": 8, "role_levels": {"analyst": 0, "partner": 3, "public": 6}}
ROLES = tuple(POLICY["role_levels"])
REQUEST_TIMEOUT_S = 30.0
#: Latency recorded for a failed request: it misses every latency limit.
FAILED_LATENCY_MS = REQUEST_TIMEOUT_S * 1e3

Request = Tuple[str, str, Optional[str]]  # (kind, key, role)

#: The server process runs on the last CPU; ``run.py`` keeps the load
#: process on the first, so the load generator never queues behind the
#: server for a core.
SERVER_CPU = (os.cpu_count() or 1) - 1


def expected_view(store: ReleaseStore, policy: AccessPolicy, key: str, role: str) -> bytes:
    """The view body computed from the store directly, as the server should send it."""
    release = store.load(key)
    return canonical_json_bytes(
        {
            "key": key,
            "role": role,
            "information_level": policy.information_level(role).name,
            "dataset": release.dataset_name,
            "release": policy.view_for(role, release).to_dict(),
        }
    )


def check_stable_bodies(bodies: Dict[str, set]) -> None:
    for route, seen in bodies.items():
        check(len(seen) == 1, f"serve-catalog: {route} returned {len(seen)} different 200 bodies")


def check_empty_304(lengths: List[int]) -> None:
    check(all(length == 0 for length in lengths), "serve-catalog: a 304 response carried a body")


def check_view_sample(served: bytes, expected: bytes, route: str) -> None:
    check(served == expected, f"serve-catalog: {route} differs from the view computed from the store")


class Server:
    """One ``server_main.py`` process; stopped by closing its stdin."""

    def __init__(self, store_dir: Path, policy_file: Path, trace_out: Optional[Path], hot_file: Path):
        command = [sys.executable, str(HERE / "server_main.py"), "--store", str(store_dir),
                   "--policy", str(policy_file)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out), "--hot", str(hot_file)]
        self.trace_out = trace_out
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        pin(self.process.pid, SERVER_CPU)
        line = self.process.stdout.readline().strip()
        if not line.startswith("http://"):
            self.process.kill()
            self.process.wait(timeout=30)
            raise RuntimeError(f"server did not start (first line {line!r})")
        host, port = line[len("http://"):].split(":")
        self.host, self.port = host, int(port)
        self.peak_rss_mb: Optional[float] = None

    def stop(self) -> dict:
        """Stop the server; returns its exported spans when traced."""
        if self.process.poll() is None:
            try:
                tail, _ = self.process.communicate(timeout=60)  # closes its stdin
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.communicate()
                raise
            for line in tail.splitlines():
                if line.startswith("{"):
                    self.peak_rss_mb = json.loads(line)["peak_rss_mb"]
        if self.trace_out is not None and self.trace_out.exists():
            return json.loads(self.trace_out.read_text())
        return {}


def http_get(server: Server, path: str, headers: Optional[dict] = None) -> Tuple[int, bytes, Optional[str]]:
    """One GET the way the package's own client sends it.

    A new connection per request with ``Connection: close``, as
    ``repro.serving.client`` (urllib) does.  On a kept-alive connection this
    server's separate header and body writes meet the client's delayed ACK,
    which adds about 40 ms to every response (see ``README.md``).
    """
    conn = http.client.HTTPConnection(server.host, server.port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path, headers={**(headers or {}), "Connection": "close"})
        response = conn.getresponse()
        return response.status, response.read(), response.getheader("ETag")
    finally:
        conn.close()


class ServePhase:
    name = "serve"
    pinned = True
    metrics = (
        "serve_p50_ms",
        "serve_tail_ms",
        "serve_metadata_p50_ms",
        "serve_healthz_p50_ms",
        "serve_view_p50_ms",
        "serve_closed_rps",
    )

    def __init__(self, workdir: Path, seed: int, size: str):
        self.workdir = workdir
        self.seed = seed
        self.size = SIZES[size]
        self.server: Optional[Server] = None
        self.server_rss: List[float] = []

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        fresh_dir(self.workdir)
        self.store_dir = self.workdir / "store"
        self.store = ReleaseStore(self.store_dir)
        config = DisclosureConfig.paper_defaults(epsilon_g=0.5)
        self.keys: List[str] = []
        for dataset in range(self.size["datasets"]):
            graph = generate_dblp_like(
                num_authors=self.size["authors"],
                seed=derive_seed(GRAPH_SEED, f"serve-graph-{dataset}"),
                name=f"catalog-{dataset}",
            )
            release = MultiLevelDiscloser(config, rng=derive_seed(self.seed, f"serve-noise-{dataset}")).disclose(graph)
            base = int(release.provenance["graph_revision"])
            for revision in range(self.size["revisions"]):
                # Each key is one stored revision of the dataset; only the
                # newest is fresh, the rest are stale siblings.
                release.provenance["graph_revision"] = base + revision
                key = f"catalog-{dataset}-r{revision:03d}"
                self.store.save(release, key=key)
                self.keys.append(key)
        rng = np.random.default_rng(derive_seed(self.seed, "serve-hot"))
        self.hot = sorted(rng.choice(self.keys, size=self.size["hot"], replace=False).tolist())
        self.cold = [key for key in self.keys if key not in set(self.hot)]
        self.policy_file = self.workdir / "policy.json"
        self.policy_file.write_text(json.dumps(POLICY))
        self.hot_file = self.workdir / "hot.json"
        self.hot_file.write_text(json.dumps(self.hot))
        self.policy = AccessPolicy.from_dict(POLICY)
        self.republish_lock = threading.Lock()
        self.server = self._launch(traced=False)

    def _launch(self, traced: bool) -> Server:
        trace_out = self.workdir / "server-spans.json" if traced else None
        server = Server(self.store_dir, self.policy_file, trace_out, self.hot_file)
        # Warm the hot routes and learn their ETags for revalidation.
        self.etags: Dict[str, str] = {}
        for key in self.hot:
            for role in ROLES:
                path = f"/releases/{key}/views/{role}"
                status, _body, etag = http_get(server, path, {"X-Bench-Phase": "warm"})
                if status != 200 or etag is None:
                    raise RuntimeError(f"warm-up GET {path} answered {status}")
                self.etags[path] = etag
        return server

    def _stop_server(self) -> dict:
        spans = self.server.stop()
        if self.server.peak_rss_mb is not None:
            self.server_rss.append(self.server.peak_rss_mb)
        return spans

    # -- the request mix -----------------------------------------------------
    def make_requests(self, count: int, label: str) -> List[Request]:
        """``count`` requests in blocks of 100 that hold the mix exactly.

        Sampling each request's kind independently would let the share of
        the expensive kinds (metadata, ``/healthz``) drift by a few points
        from seed to seed, which moves every latency and the closed-loop
        rate; within a block the order is shuffled from the seed.
        """
        rng = np.random.default_rng(derive_seed(self.seed, f"serve-mix-{label}"))
        block = [kind for kind, share in MIX for _ in range(round(share * 100))]
        requests: List[Request] = []
        while len(requests) < count:
            for index in rng.permutation(len(block)):
                kind = block[int(index)]
                role = ROLES[int(rng.integers(len(ROLES)))]
                if kind in ("view_hot", "revalidate"):
                    key = self.hot[int(rng.integers(len(self.hot)))]
                elif kind in ("view_cold", "republish"):
                    key = self.cold[int(rng.integers(len(self.cold)))]
                else:
                    key = self.keys[int(rng.integers(len(self.keys)))]
                requests.append((kind, key, role))
        return requests[:count]

    def _send(self, request: Request, record: "Recorder") -> None:
        kind, key, role = request
        if kind == "republish":
            with self.republish_lock:
                self.store.save(self.store.load(key), key=key)
            return
        headers = {}
        if kind == "healthz":
            path = "/healthz"
        elif kind == "metadata":
            path = f"/releases/{key}"
        else:
            path = f"/releases/{key}/views/{role}"
            if kind == "revalidate":
                headers["If-None-Match"] = self.etags[path]
        status, body, _etag = http_get(self.server, path, headers)
        record.response(kind, path, status, body)

    def _attempt(self, request: Request, record: "Recorder") -> bool:
        try:
            self._send(request, record)
        except Exception as error:  # noqa: BLE001 - a failed request is counted, not fatal
            record.error(request[0], error)
            return False
        return True

    # -- load loops ------------------------------------------------------------
    def open_loop(self, requests: List[Request], rate: float, record: "Recorder") -> None:
        """Send ``requests`` on a fixed schedule from two connections.

        Each connection takes the next request due and sleeps until its due
        time itself, so a request waits for one thread wake-up only; when
        both connections are busy, the next request starts late and its
        latency, timed from its due time, counts the wait.
        """
        start = time.perf_counter() + 0.05
        schedule = iter(enumerate(requests))
        take = threading.Lock()

        def worker() -> None:
            while True:
                with take:
                    index, request = next(schedule, (None, None))
                if request is None:
                    return
                due = start + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                record.late((time.perf_counter() - due) * 1e3)
                ok = self._attempt(request, record)
                record.latency(request[0], (time.perf_counter() - due) * 1e3, ok)

        threads = [threading.Thread(target=worker, daemon=True) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=REQUEST_TIMEOUT_S * 4)
            if thread.is_alive():
                raise RuntimeError("serve-catalog: an open-loop worker did not finish")

    def closed_loop(self, seconds: float, record: "Recorder") -> float:
        deadline = time.perf_counter() + seconds
        completed = [0, 0]
        sequences = [self.make_requests(20000, f"closed-{n}") for n in range(2)]

        def worker(n: int) -> None:
            for request in sequences[n]:
                if time.perf_counter() >= deadline:
                    return
                ok = self._attempt(request, record)
                record.count(f"closed.{request[0]}", ok)
                if ok and request[0] != "republish":
                    completed[n] += 1

        began = time.perf_counter()
        threads = [threading.Thread(target=worker, args=(n,), daemon=True) for n in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + REQUEST_TIMEOUT_S * 2)
            if thread.is_alive():
                raise RuntimeError("serve-catalog: a closed-loop worker did not finish")
        return sum(completed) / (time.perf_counter() - began)

    # -- the phase -------------------------------------------------------------
    def run(self, seconds: Optional[float] = None, ops: Optional[int] = None, tracer=None) -> PhaseResult:
        """Open loop then closed loop for ``seconds``; or ``ops`` open-loop requests.

        With ``ops`` (traced runs) the schedule is a fixed request count and
        no closed loop runs, so two runs with one seed send the same requests.
        """
        rate = self.size["rate"]
        if ops is None:
            open_seconds = seconds * self.size["open_share"]
            count = int(rate * open_seconds)
        else:
            count = ops
        record = self.record = Recorder(PhaseResult())
        self.open_requests = self.make_requests(count, "open")
        self.open_loop(self.open_requests, rate, record)
        result = record.result
        lat = record.latencies
        http_ms = [value for kind in HTTP_KINDS for value in lat[kind]]
        pct = tail_percentile(int(count * (1 - dict(MIX)["republish"])))
        result.metrics["serve_p50_ms"] = median(http_ms)
        result.metrics["op_p50_ms"] = result.metrics["serve_p50_ms"]
        result.metrics["serve_tail_ms"] = percentile(http_ms, pct)
        result.metrics["serve_metadata_p50_ms"] = median(lat["metadata"])
        result.metrics["serve_healthz_p50_ms"] = median(lat["healthz"])
        result.metrics["serve_view_p50_ms"] = median(lat["view_hot"] + lat["view_cold"])
        result.op_seconds = [value / 1e3 for value in http_ms]
        result.notes.update(
            {
                "serve_tail_percentile": pct,
                "open_loop_rate_per_s": rate,
                "open_loop_requests": count,
                "generator_late_p99_ms": percentile(record.lateness, 99.0),
                "catalog_releases": len(self.keys),
                "first_errors": record.errors[:5],
            }
        )
        if ops is None:
            closed_seconds = seconds - open_seconds
            result.metrics["serve_closed_rps"] = self.closed_loop(closed_seconds, record)
            result.metrics["ops_per_s"] = result.metrics["serve_closed_rps"]
            result.notes["closed_loop_seconds"] = closed_seconds
            result.notes["first_errors"] = record.errors[:5]
        return result

    def census(self) -> None:
        """Sequential requests per class, tagged ``census`` for the trace.

        Two ``prime`` requests first bring the staleness index up to date
        after the open loop's republishes; the census then uses keys the open
        loop never touched, so the store calls each class makes are the same
        on every run of a seed.
        """
        prime = {"X-Bench-Phase": "prime"}
        http_get(self.server, "/healthz", prime)
        http_get(self.server, f"/releases/{self.keys[0]}", prime)
        touched = {key for _kind, key, _role in self.open_requests}
        fresh = [key for key in self.cold if key not in touched and key != self.keys[0]]
        picks = np.random.default_rng(derive_seed(self.seed, "serve-census")).permutation(len(fresh))
        n = self.size["census"]
        census = {"X-Bench-Phase": "census"}
        for i in range(n):
            role = ROLES[i % len(ROLES)]
            http_get(self.server, "/healthz", census)
            http_get(self.server, f"/releases/{fresh[int(picks[i])]}", census)
            http_get(self.server, f"/releases/{self.hot[i % len(self.hot)]}/views/{role}", census)
            http_get(self.server, f"/releases/{fresh[int(picks[n + i])]}/views/{role}", census)

    def check(self) -> None:
        record = self.record
        check_stable_bodies(record.bodies)
        check_empty_304(record.not_modified_lengths)
        check(record.view_samples, "serve-catalog: no view body was sampled")
        for route, body in sorted(record.view_samples.items()):
            _, _, key, _, role = route.split("/")
            check_view_sample(body, expected_view(self.store, self.policy, key, role), route)

    def relaunch(self, traced: bool) -> None:
        self._stop_server()
        self.server = self._launch(traced=traced)

    def stores(self):
        return [(self.store, "dir")]

    def store_bytes_per_release(self) -> float:
        return tree_bytes(self.store_dir) / max(1, len(self.keys))

    def healthz(self) -> dict:
        _status, body, _etag = http_get(self.server, "/healthz", {"X-Bench-Phase": "report"})
        return json.loads(body)

    def close(self) -> dict:
        spans: dict = {}
        if self.server is not None:
            spans = self._stop_server()
            self.server = None
        return spans


class Recorder:
    """Thread-safe collection of one run's latencies, counts and bodies."""

    VIEW_SAMPLES = 24

    def __init__(self, result: PhaseResult):
        self.result = result
        self.lock = threading.Lock()
        self.latencies: Dict[str, List[float]] = defaultdict(list)
        self.lateness: List[float] = []
        self.bodies: Dict[str, set] = defaultdict(set)
        self.not_modified_lengths: List[int] = []
        self.view_samples: Dict[str, bytes] = {}
        self.statuses: Dict[int, int] = defaultdict(int)
        self.errors: List[str] = []

    def late(self, ms: float) -> None:
        self.lateness.append(ms)

    def latency(self, kind: str, ms: float, ok: bool) -> None:
        with self.lock:
            self.result.route(f"open.{kind}").add(ok)
            if kind != "republish":
                self.latencies[kind].append(ms if ok else FAILED_LATENCY_MS)

    def count(self, route: str, ok: bool) -> None:
        with self.lock:
            self.result.route(route).add(ok)

    def error(self, kind: str, error: Exception) -> None:
        with self.lock:
            self.errors.append(f"{kind}: {type(error).__name__}: {error}")

    def response(self, kind: str, path: str, status: int, body: bytes) -> None:
        with self.lock:
            self.statuses[status] += 1
            if status == 304:
                self.not_modified_lengths.append(len(body))
                return
            if status != 200:
                raise RuntimeError(f"GET {path} answered {status}")
            if kind == "healthz":
                return  # live counters: legitimately different on every call
            self.bodies[path].add(digest(body))
            if kind.startswith("view") and len(self.view_samples) < self.VIEW_SAMPLES:
                self.view_samples.setdefault(path, body)
