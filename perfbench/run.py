"""End-to-end benchmark of the served ownership graph.

Run from the repository root::

    python3 perfbench/run.py --workload cold_build --seed 1 --seconds 6 --trace 0

Each workload runs a few rounds of one user session against real
``repro serve`` processes: boot -> read phase -> write phase -> stop ->
restart by attach.  With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics; with ``--trace 1`` one more session
runs with layer spans installed (``serve_traced.py``) and the line
carries the per-layer metrics, the share of set-up and publish time
they account for, and the tracing overhead.  Without ``--workload``
every workload runs in turn.  See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, count, islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
from session import (  # noqa: E402
    BenchError,
    Client,
    Connection,
    ReadLog,
    Server,
    peak_rss_kb,
    pin_tree,
    python_env,
    placed_connections,
    read_loop,
    serve_argv,
)

#: point-lookup bodies of a round checked against the oracle per version
#: (the rest are checked for consistency with the first body of their
#: path); at least 300 a run, with two rounds or more
CHECK_SAMPLE = 150
#: 400 custom thresholds for ``cold_build`` and ``read_mix``: almost
#: every custom read is a new cache key, so 2% of their reads are solves
#: and p99 measures them; with only cache hits, cold_build's
#: sub-millisecond p99 was scheduling noise and moved threefold between runs
FRESH_THRESHOLDS = tuple(round(0.05 + i / 1000, 3) for i in range(400))
#: ``repro serve --cache-capacity`` default
SERVED_CACHE_CAPACITY = 1024
#: untimed reads of each connection before the read phase when the key
#: space exceeds the cache: a count, not a time, so a faster host does
#: not start the phase with a warmer cache
WARMUP_READS = 1000
#: skew of key popularity.  At 1.1, a quarter of read_mix's reads missed
#: the cache, and misses (a depth-2 /neighbors of a hub takes up to 0.2 s)
#: and the reads queued behind them put the median on the steep edge
#: between hits and misses (p40 0.42 ms, p60 0.74 ms); at 1.3 it sits
#: among the hits (p40 0.27 ms, p60 0.37 ms)
ZIPF_EXPONENT = 1.3
#: generator seed of every workload's extract.  The graph is the same for
#: every ``--seed``, which drives the traffic instead (key popularity,
#: request order, mutation batches): graph shape alone moved read
#: throughput 2.4x and store size 1.5x between generator seeds, which
#: would drown any change a commit makes
GRAPH_SEED = 1
#: planted-truth floors for the served family links.  Measured (precision,
#: recall) at the last version: cold_build 0.67-0.71, 0.31-0.37 (its
#: --clusters 4 blocking loses pairs, so its recall is 0.1 above the
#: floor); read_mix 0.37, 0.92; write_pool 0.74, 0.90
MIN_FAMILY_RECALL = 0.2
MIN_FAMILY_PRECISION = 0.1


@dataclass(frozen=True)
class ReadMix:
    """The reads of one connection.  Those that are neither list nor
    custom-threshold reads are point lookups, ``/ubo/{id}``,
    ``/neighbors/{id}?depth=2`` and ``/control?source={id}`` with equal
    weights."""

    #: every n-th read is a list endpoint (/control, /close-links, /family in turn)
    list_every: int
    #: every n-th read is /ubo/{id}?threshold= off the default
    custom_every: int
    #: the thresholds custom reads draw from
    custom_thresholds: tuple[float, ...] = (0.1, 0.15, 0.3)


@dataclass(frozen=True)
class Workload:
    name: str
    persons: int
    companies: int
    density: str
    #: "cold": every boot builds from the extract; "attach": every boot
    #: attaches a store persisted in an untimed preparation step
    boot: str
    #: "persons", "shareholdings" or "pool" (see ``next_batch``)
    writes: str
    #: sessions of one run, each with its own boot, a 1/rounds share of
    #: the read time, its publishes and a restart.  The read and publish
    #: metrics pool the rounds' samples, the others are medians over the
    #: rounds, so each samples the host at moments spread over the run:
    #: the shared host's speed drifts by a fifth over tens of seconds,
    #: and the same samples taken back to back moved every timing metric
    #: with it
    rounds: int
    #: publishes of each round's write phase
    publishes: int
    mix: ReadMix
    #: ``repro serve --clusters``; the incremental = cold check builds with it too
    clusters: int = 1
    #: ``repro serve --workers``
    workers: int = 1

    @property
    def serve_args(self) -> list[str]:
        return ["--clusters", str(self.clusters), "--workers", str(self.workers)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cold_build", persons=200, companies=100, density="sparse",
            boot="cold", writes="persons", rounds=4, publishes=1, clusters=4,
            mix=ReadMix(list_every=10, custom_every=50, custom_thresholds=FRESH_THRESHOLDS),
        ),
        # fresh custom thresholds every 50th read: with 0.1/0.15/0.3 every
        # 100th read (one solve per threshold, then cache hits), p99 sat
        # among depth-2 /neighbors misses of hubs alone and spread 0.27
        # (IQR/median) over ten seeds; with 2% of the reads integrated
        # solves of 60-90 ms beside them, it spread 0.12 over five.  Two
        # rounds: a round takes about 20 s (a publish persists 11 MB), and
        # with three, 22 runs of each workload took about 3,200 s
        Workload(
            "read_mix", persons=50, companies=1500, density="normal",
            boot="attach", writes="shareholdings", rounds=2, publishes=1,
            mix=ReadMix(list_every=50, custom_every=50, custom_thresholds=FRESH_THRESHOLDS),
        ),
        # lists every 10th read: /close-links is then the slowest 3% of
        # the reads and p99 falls inside its latencies; with a list every
        # 50th read, p99 sat where /close-links met depth-2 /neighbors
        # misses and spread 0.33 (IQR/median) over five seeds
        Workload(
            "write_pool", persons=60, companies=600, density="normal",
            boot="cold", writes="pool", rounds=3, publishes=2, workers=2,
            mix=ReadMix(list_every=10, custom_every=100),
        ),
    )
}

OP_KINDS = ("boot", "read", "mutation", "restart", "check")


class Ops:
    """Attempted / failed operations per kind, plus check messages."""

    def __init__(self) -> None:
        self.counts = {kind: [0, 0] for kind in OP_KINDS}
        self.errors: list[str] = []

    def add(self, kind: str, attempted: int = 1, failed: int = 0) -> None:
        self.counts[kind][0] += attempted
        self.counts[kind][1] += failed

    def check(self, errors: list[str]) -> bool:
        self.add("check", 1, 1 if errors else 0)
        self.errors.extend(errors[:3])
        return not errors

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.counts.values())


# ----------------------------------------------------------------------
# inputs from the seed
# ----------------------------------------------------------------------


def zipf_picker(ranking: random.Random, rng: random.Random, items: list[str]):
    """Zipf-skewed draws from ``rng`` over ``items`` ranked by ``ranking``."""
    ranked = list(items)
    ranking.shuffle(ranked)
    cumulative = list(accumulate(1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(len(ranked))))
    total = cumulative[-1]
    return lambda: ranked[min(bisect_left(cumulative, rng.random() * total), len(ranked) - 1)]


def read_paths(seed: int, stream: int, model: oracle.Model, mix: "ReadMix"):
    """The endless read sequence of one connection.

    Key popularity (which node holds which Zipf rank) is part of the
    workload and fixed; the seed draws the sequence.  With a seeded
    ranking, whether a hub landed among the hottest keys moved read
    throughput by a third between seeds.  List and custom-threshold
    reads, which cost 10-100x a point lookup, come at fixed positions
    of the sequence: drawn at random, their count alone moved p99 and
    throughput by a fifth between seeds.
    """
    rng = random.Random(seed * 1009 + stream)
    company = zipf_picker(random.Random(GRAPH_SEED), rng, model.companies())
    node = zipf_picker(random.Random(GRAPH_SEED + 1), rng, list(model.nodes))
    lists = ("/control", "/close-links", "/family")
    for position in count(1):
        if position % mix.list_every == 0:
            yield lists[(position // mix.list_every + stream) % len(lists)]
        elif position % mix.custom_every == mix.custom_every // 2:
            yield f"/ubo/{company()}?threshold={rng.choice(mix.custom_thresholds)}"
        else:
            kind = rng.randrange(3)
            if kind == 0:
                yield f"/ubo/{company()}"
            elif kind == 1:
                yield f"/neighbors/{node()}?depth=2"
            else:
                yield f"/control?source={node()}"


def point_paths(model: oracle.Model) -> list[str]:
    """Every distinct path a read phase can request at the default threshold."""
    return (
        ["/control", "/close-links", "/family"]
        + [f"/ubo/{c}" for c in model.companies()]
        + [f"/neighbors/{n}?depth=2" for n in model.nodes]
        + [f"/control?source={n}" for n in model.nodes]
    )


def next_batch(workload: Workload, rng: random.Random, model: oracle.Model,
               truth: dict, number: int) -> list[dict]:
    """One mutation batch that is valid against the current ``model``."""
    if workload.writes == "persons":
        # a new member of an existing family: the family's surname,
        # address and father name, so the family-link rules re-derive
        families = sorted(k for k, v in truth["families"].items() if len(v) > 1)
        members = truth["families"][rng.choice(families)]
        props = dict(model.nodes[rng.choice(members)][1])
        props["name"] = rng.choice(("Luca", "Marta", "Giulia", "Paolo", "Sara", "Enzo"))
        props["sex"] = "M" if props["name"] in ("Luca", "Paolo", "Enzo") else "F"
        props["birth_date"] = f"{rng.randint(1960, 2000)}-0{rng.randint(1, 9)}-1{rng.randint(0, 9)}"
        return [{"op": "add_person", "id": f"PB{number:05d}", "properties": props}]
    companies = model.companies()
    inflow: dict[str, float] = {}
    for _owner, target, w, _ in model.edges:
        inflow[target] = inflow.get(target, 0.0) + w
    target = rng.choice([c for c in companies if inflow.get(c, 0.0) <= 0.6])
    owner = rng.choice([n for n in model.nodes if n != target])
    share = round(rng.uniform(0.05, min(0.3, 0.95 - inflow.get(target, 0.0))), 4)
    removed = rng.choice(model.edges)
    batch = [
        {"op": "add_shareholding", "owner": owner, "company": target, "share": share},
        {"op": "remove_shareholding", "owner": removed[0], "company": removed[1]},
    ]
    if workload.writes == "pool":
        batch.append({"op": "set_property", "id": rng.choice(companies),
                      "name": "name", "value": f"Renamed {number} SRL"})
    return batch


@contextmanager
def quiet_gc():
    """No cyclic garbage collection in the client while it times requests:
    a full collection over the client's own heap added milliseconds to
    whichever request was in flight."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# one session
# ----------------------------------------------------------------------


class Session:
    """boot -> reads -> writes -> stop -> restart, against one workload."""

    def __init__(self, root: Path, work: Path, workload: Workload, seed: int,
                 seconds: float, ops: Ops, traced: bool, number: int):
        self.root, self.work, self.workload = root, work, workload
        self.seed, self.seconds, self.ops, self.traced = seed, seconds, ops, traced
        self.number = number
        self.extract = work / "extract"
        # stores, logs and span files of this session only
        self.dir = work / ("traced" if traced else f"round{number}")
        self.store = self.dir / "store"
        self.trace_dir = self.dir / "spans"
        self.trace_dir.mkdir(parents=True)
        self.env = python_env(root, {"PERFBENCH_TRACE_DIR": str(self.trace_dir)})
        self.servers: list[Server] = []
        self.boot_s = 0.0
        self.restart_s = 0.0
        self.stop_s = 0.0
        self.publish: list[tuple[float, float]] = []  # (sent, answered)
        self.replies: list[tuple[dict, int]] = []  # (reply, version it should carry)
        self.versions: dict[int, oracle.Model] = {}
        self.batches: list[list[dict]] = []
        self.reads = ReadLog()
        self.read_window = (0.0, 0.0)
        self.cache: dict = {}
        self.store_bytes = 0
        self.peak_rss_kb = 0
        self.boot_window = (0.0, 0.0)
        self.boot_pid = 0

    # -- processes -------------------------------------------------------

    def _spawn(self, args: list[str], traced: bool | None = None) -> Server:
        traced = self.traced if traced is None else traced
        server = Server(
            serve_argv(self.root, traced, [*args, "--port", "0"]),
            self.env, self.dir / "server.log",
        )
        self.servers.append(server)
        return server

    def _stop(self, server: Server) -> None:
        server.stop()
        self.servers.remove(server)

    def close(self) -> None:
        for server in list(self.servers):
            server.kill()
        self.servers.clear()

    # -- phases ----------------------------------------------------------

    def boot(self, model: oracle.Model) -> Server:
        w = self.workload
        if w.boot == "attach":
            # a copy of the store persisted once per run, untimed
            shutil.copytree(self.work / "prepared", self.store)
            args = ["--store", str(self.store)]
        else:
            args = [str(self.extract), "--store", str(self.store)]
        self.ops.add("boot")
        try:
            server = self._spawn([*args, *w.serve_args])
        except BenchError:
            self.ops.add("boot", 0, 1)
            raise
        self.boot_s = server.boot_s
        self.boot_window = (server.spawned_at, server.spawned_at + server.boot_s)
        self.boot_pid = server.pid
        self.ops.check(version_errors("boot", server.version, 1))
        self.versions[1] = model
        return server

    def read_phase(self, server: Server) -> None:
        mix, model = self.workload.mix, self.versions[1]
        streams = [read_paths(self.seed, 2 * self.number + i, model, mix) for i in range(2)]
        keys = point_paths(model)
        warmup = ReadLog()

        async def reads() -> None:
            # the same two connections warm up and then read, each on a
            # serving process of its own: placed at random, both readers
            # sometimes shared one pool worker, and the share of reads
            # queued behind a list read moved p90 from 1.1 to 2.9 ms
            conns = await placed_connections(server.port, self.workload.workers, len(streams))
            try:
                if len(keys) > SERVED_CACHE_CAPACITY:
                    # the cache cannot hold every key: run the same
                    # traffic untimed until the LRU has turned over, else
                    # the timed phase measured how far the cold cache had
                    # filled
                    await asyncio.gather(*(
                        read_loop(conn, islice(paths, WARMUP_READS), warmup, float("inf"))
                        for conn, paths in zip(conns, streams)
                    ))
                start = time.monotonic()
                try:
                    await asyncio.gather(*(
                        read_loop(conn, paths, self.reads, start + self.seconds)
                        for conn, paths in zip(conns, streams)
                    ))
                finally:
                    self.read_window = (start, time.monotonic())
            finally:
                for conn in conns:
                    await conn.close()

        # client and every serving process on one CPU, for the warm-up
        # too.  Left to the scheduler, they shared a CPU in some runs and
        # not in others, which doubled the median read latency between
        # runs; on CPUs of their own, every request crossed CPUs, and in
        # three or four runs of ten the pool read at half its usual rate
        cpus = os.sched_getaffinity(0)
        one = {min(cpus)}
        os.sched_setaffinity(0, one)
        pin_tree(server.pid, one)
        try:
            if len(keys) <= SERVED_CACHE_CAPACITY:
                self._warm(server, keys)
            with quiet_gc():
                asyncio.run(reads())
            self.ops.add("read", warmup.attempted, warmup.failed)
        finally:
            os.sched_setaffinity(0, cpus)
            pin_tree(server.pid, cpus)
        if self.traced:
            self.cache = self._cache_counters(server)

    def _warm(self, server: Server, paths: list[str]) -> None:
        """Read every key once, untimed: when the whole key space fits the
        cache, the phase then times the steady state.  Otherwise each
        key's first miss (about 1% of the phase's reads) sat right at the
        99th percentile and moved it threefold between runs."""
        client = Client(server.port)
        try:
            for path in paths:
                status, _body = client.get(path)
                self.ops.add("read", 1, 0 if status == 200 else 1)
        finally:
            client.close()

    def _cache_counters(self, server: Server) -> dict:
        """The ``cache`` counters of ``/metrics``, summed over the serving
        processes (each pool worker answers for its own cache, so fresh
        connections are opened until every worker has answered)."""
        workers = self.workload.workers
        caches: dict = {}
        for _attempt in range(50):
            client = Client(server.port)
            try:
                payload = json.loads(client.get("/metrics")[1])
            finally:
                client.close()
            caches[payload.get("worker_id")] = payload["cache"]
            if len(caches) == workers:
                break
        return {k: sum(c[k] for c in caches.values()) for k in ("hits", "misses", "leaders")}

    def write_phase(self, server: Server, truth: dict) -> None:
        """Sequential publishes on one connection."""
        w = self.workload
        rng = random.Random(self.seed * 7919 + 1 + 104729 * self.number)
        self.last_version = 1

        async def writes() -> None:
            model = self.versions[1]
            conn = Connection(server.port)
            try:
                for number in range(w.publishes):
                    batch = next_batch(w, rng, model, truth, number)
                    model = model.copy()
                    model.apply(batch)
                    if not await self._publish(conn, batch, model):
                        break
            finally:
                await conn.close()

        with quiet_gc():
            asyncio.run(writes())

    async def _publish(self, conn: Connection, batch: list[dict], model) -> bool:
        version = self.last_version + 1
        self.ops.add("mutation")
        sent = time.monotonic()
        status, body = await conn.request("POST", "/mutations?wait=1", {"deltas": batch})
        answered = time.monotonic()
        if status != 200:
            self.ops.add("mutation", 0, 1)
            self.ops.errors.append(f"mutation answered {status}: {body[:200]!r}")
            return False
        reply = json.loads(body)
        if not self.ops.check(publish_errors(reply, version, self.workload.workers)):
            return False
        self.replies.append((reply, version))
        self.last_version = version
        self.versions[version] = model
        self.batches.append(batch)
        self.publish.append((sent, answered))
        return True

    def probes(self, server: Server, model: oracle.Model) -> dict[str, bytes]:
        rng = random.Random(self.seed * 31 + 7)
        companies, nodes = model.companies(), list(model.nodes)
        paths = ["/control", "/close-links", "/family"]
        paths += [f"/ubo/{c}" for c in rng.sample(companies, 3)]
        paths += [f"/ubo/{rng.choice(companies)}?threshold=0.1"]
        paths += [f"/neighbors/{n}?depth=2" for n in rng.sample(nodes, 3)]
        paths += [f"/control?source={n}" for n in rng.sample(nodes, 3)]
        client = Client(server.port)
        bodies = {}
        try:
            for path in paths:
                self.ops.add("read")
                status, body = client.get(path)
                if status != 200:
                    self.ops.add("read", 0, 1)
                bodies[path] = body
        finally:
            client.close()
        return bodies

    def restart(self, server: Server) -> tuple[Server, dict, dict]:
        """SIGTERM -> ``serve --store`` by attach; the probes served
        before the stop and after it."""
        w = self.workload
        final = self.versions[self.last_version]
        before = self.probes(server, final)
        self.peak_rss_kb = peak_rss_kb(server.pid)
        self.ops.add("restart")
        started = time.monotonic()
        self._stop(server)
        self.stop_s = time.monotonic() - started
        try:
            server = self._spawn(["--store", str(self.store), *w.serve_args])
        except BenchError:
            self.ops.add("restart", 0, 1)
            raise
        self.restart_s = time.monotonic() - started
        self.ops.check(version_errors("restart", server.version, self.last_version))
        after = self.probes(server, final)
        self.store_bytes = sum(
            f.stat().st_size for f in self.store.rglob("*") if f.is_file()
        )
        return server, before, after

    def run(self, truth: dict, model: oracle.Model):
        marks = [("start", time.monotonic())]
        server = self.boot(model)
        marks.append(("boot", time.monotonic()))
        self.read_phase(server)
        marks.append(("read", time.monotonic()))
        self.write_phase(server, truth)
        marks.append(("write", time.monotonic()))
        server, before, after = self.restart(server)
        self._stop(server)
        marks.append(("restart", time.monotonic()))
        print(f"# round {self.number} phases (wall s): " + ", ".join(
            f"{name} {end - begin:.1f}" for (_, begin), (name, end) in zip(marks, marks[1:])
        ))
        return before, after


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


def check_restart(before: dict, after: dict, version: int) -> list[str]:
    errors = []
    for path, body in before.items():
        if oracle.body_version(after.get(path, b"")) != version:
            errors.append(f"restart: {path} not served at v{version}")
        elif after.get(path) != body:
            errors.append(f"restart: {path} differs from the body served before shutdown")
    return errors


def run_checks(session: Session, truth: dict, ops: Ops, cold_links: list | None,
               oracles: dict) -> None:
    """Every output check, with a self-test per check kind.  ``oracles``
    keeps the oracle of each model across the rounds of a run, which all
    start from the same first version."""
    rng = random.Random(session.seed * 131 + 3)
    reads = session.reads
    ops.add("read", reads.attempted, reads.failed)
    inconsistent = reads.inconsistent()
    ops.check([f"{path} at v{v}: more than one body" for path, v in inconsistent])

    by_version: dict[int, list[tuple[str, bytes]]] = {}
    for (path, version), body in reads.bodies.items():
        by_version.setdefault(version, []).append((path, body))
    final_version = session.last_version
    before, after = session.before, session.after
    by_version.setdefault(final_version, []).extend(before.items())
    tested: set[str] = set()
    planted = {p for p in session.versions[1].persons()}
    for version, items in sorted(by_version.items()):
        model = session.versions.get(version)
        if model is None:
            ops.check([f"read answered from unpublished version {version}"])
            continue
        if id(model) not in oracles:
            oracles[id(model)] = (model, oracle.Oracle(model))
        check = oracles[id(model)][1]
        points = [i for i in items if i[0].startswith(("/ubo/", "/neighbors/", "/control?"))
                  and "threshold" not in i[0]]
        others = [i for i in items if i not in points]
        sample = rng.sample(points, min(CHECK_SAMPLE, len(points))) + others
        for path, body in sample:
            payload = json.loads(body)
            errors = oracle.check_body(path, payload, check, version)
            ops.check(errors)
            kind = check_kind(path)
            if not errors and kind not in tested:
                tested.add(kind)
                ops.check(oracle.self_test(path, payload, check, version))
            if path == "/family":
                ops.check(family_truth(payload, truth, planted))
    for kind in ("ubo", "ubo?threshold", "neighbors", "control?source", "control",
                 "close-links", "family"):
        if kind not in tested:
            ops.check([f"self-test: no passing {kind} body was available"])

    ops.check(check_restart(before, after, final_version))
    stale = {p: _with_version(b, final_version - 1) for p, b in after.items()}
    ops.check(rejects(check_restart(before, stale, final_version),
                      "restart check accepted a stale version"))
    if cold_links is not None:
        served = json.loads(after["/family"])["links"]
        ops.check(incremental_equals_cold(served, cold_links))
        if served:
            ops.check(rejects(incremental_equals_cold(served[1:], cold_links),
                              "incremental=cold check accepted a dropped pair"))
    links = json.loads(before["/family"])["links"]
    precision, recall = oracle.family_quality(links, truth["links"], planted)
    print(f"# family links at v{final_version}: {len(links)}, precision {precision:.2f}, "
          f"recall {recall:.2f}")
    for verdict in session_self_tests(session, truth, planted, links):
        ops.check(verdict)


def session_self_tests(session: Session, truth: dict, planted: set, links: list):
    """Self-tests of the checks that do not look at one response body,
    one verdict each."""
    (path, version), body = next(iter(session.reads.bodies.items()))
    log = ReadLog()
    log.add(path, 200, body, 0.0)
    log.add(path, 200, body[:-1] + b', "extra": 1}', 0.0)
    yield rejects(log.inconsistent(),
                  f"consistency check accepted two bodies of {path} at v{version}")
    yield rejects(leak_errors(set(), {"rkgs_left_over"}),
                  "leak check accepted a left-over segment")
    yield rejects(family_truth({"links": []}, truth, planted),
                  "family floor accepted no links")
    classes = oracle.FAMILY_CLASSES
    swap = dict(zip(classes, classes[1:] + classes[:1]))
    yield rejects(family_truth({"links": [[x, y, swap[c]] for x, y, c in links]}, truth,
                               planted),
                  "family floor accepted links of the wrong class")
    if not session.replies:
        yield ["self-test: no publish reply was available"]
        return
    reply, version = session.replies[0]
    workers = session.workload.workers
    yield rejects(publish_errors({**reply, "version": version - 1}, version, workers),
                  "publish check accepted a stale version")
    if workers > 1:
        yield rejects(publish_errors({**reply, "workers_attached": [0]}, version, workers),
                      "publish check accepted a version only worker 0 attached")


def rejects(errors: list[str], what: str) -> list[str]:
    """A self-test's verdict: the check must reject its corrupted input."""
    return [] if errors else [f"self-test: {what}"]


def version_errors(what: str, served: int | None, expected: int) -> list[str]:
    if served != expected:
        return [f"{what} served v{served}, expected v{expected}"]
    return []


def publish_errors(reply: dict, version: int, workers: int) -> list[str]:
    """The version a publish reply carries and, on a pool, that every
    worker attached it."""
    errors = version_errors("mutation", reply.get("version"), version)
    if workers > 1 and reply.get("workers_attached") != list(range(workers)):
        errors.append(f"v{version} attached by workers {reply.get('workers_attached')}")
    return errors


def leak_errors(before: set[str], after: set[str]) -> list[str]:
    return [f"leaked shared-memory segment {n}" for n in sorted(after - before)]


def check_kind(path: str) -> str:
    kind = path.split("?")[0].split("/")[1]
    for param in ("source", "threshold"):
        if f"{param}=" in path:
            kind += f"?{param}"
    return kind


def _with_version(body: bytes, version: int) -> bytes:
    payload = json.loads(body)
    payload["version"] = version
    return json.dumps(payload).encode()


def family_truth(payload: dict, truth: dict, planted: set) -> list[str]:
    precision, recall = oracle.family_quality(payload["links"], truth["links"], planted)
    if precision < MIN_FAMILY_PRECISION or recall < MIN_FAMILY_RECALL:
        return [f"family links: precision {precision:.2f}, recall {recall:.2f} below floor"]
    return []


def incremental_equals_cold(served: list, cold: list) -> list[str]:
    served_set, cold_set = {tuple(x) for x in served}, {tuple(x) for x in cold}
    if served_set != cold_set:
        return [
            f"family links after incremental publishes ({len(served_set)}) differ from a "
            f"cold build ({len(cold_set)}): {len(served_set - cold_set)} extra, "
            f"{len(cold_set - served_set)} missing"
        ]
    return []


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(sessions: list[Session]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of a run's rounds.  Reads and publishes are
    pooled over the rounds; set-up, restart, memory and store size are
    medians over them.  A round's read rate and median latency moved by
    a fifth between the rounds of one run, and the median of three such
    figures spread up to 0.25 (IQR/median) over seven seeds, where their
    mean spread 0.11 or less."""
    latencies = [x for s in sessions for x in s.reads.latencies_s]
    read_s = sum(end - start for start, end in (s.read_window for s in sessions))
    rps, p50 = [], []
    for s in sessions:
        start, end = s.read_window
        rps.append(len(s.reads.latencies_s) / (end - start))
        p50.append(statistics.median(s.reads.latencies_s))
    print("# rounds: read_rps " + " ".join(f"{x:.0f}" for x in rps)
          + "; read_p50_ms " + " ".join(f"{1000 * x:.3f}" for x in p50)
          + "; setup_s " + " ".join(f"{s.boot_s:.3f}" for s in sessions)
          + "; restart_s " + " ".join(f"{s.restart_s:.3f}" for s in sessions)
          + " (stop " + " ".join(f"{s.stop_s:.3f}" for s in sessions) + ")")
    print("# read latency ms: " + " ".join(
        f"p{q}={1000 * percentile(latencies, q / 100):.3f}"
        for q in (10, 30, 50, 70, 80, 90, 95, 97, 98, 99)))
    # which reads make the tail: p99 is steady only inside one kind's mode
    kinds = Counter(check_kind(p) for s in sessions for p in s.reads.paths)
    cut = percentile(latencies, 0.99)
    slow = Counter(check_kind(p) for s in sessions
                   for p, x in zip(s.reads.paths, s.reads.latencies_s) if x >= cut)
    print("# reads at or above p99 by kind: " + ", ".join(
        f"{kind} {n}/{kinds[kind]}" for kind, n in slow.most_common()))
    return {
        "setup_s": (statistics.median(s.boot_s for s in sessions), "s"),
        "read_rps": (len(latencies) / read_s, "req/s"),
        "read_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "read_p99_ms": (1000 * percentile(latencies, 0.99), "ms"),
        "publish_p50_ms": (
            1000 * statistics.median(a - b for s in sessions for b, a in s.publish), "ms"
        ),
        "restart_s": (statistics.median(s.restart_s for s in sessions), "s"),
        "peak_rss_mb": (statistics.median(s.peak_rss_kb for s in sessions) / 1024, "MB"),
        "store_kb_per_version": (
            statistics.median(s.store_bytes / 1024 / s.last_version for s in sessions), "KB"
        ),
    }


# ----------------------------------------------------------------------
# host facts
# ----------------------------------------------------------------------


def host_facts(path: Path) -> dict:
    import numpy
    import scipy

    model = "unknown"
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    fs, best = "unknown", ""
    resolved = str(path.resolve())
    with open("/proc/mounts") as handle:
        for line in handle:
            fields = line.split()
            mount = fields[1]
            if (resolved == mount or resolved.startswith(mount.rstrip("/") + "/")) and len(
                mount
            ) > len(best):
                best, fs = mount, fields[2]
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "store_fs": fs,
    }


def shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(("rkgs_", "psm_"))}
    except FileNotFoundError:
        return set()


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------


def prepare(root: Path, work: Path, workload: Workload) -> tuple[oracle.Model, dict]:
    extract = work / "extract"
    subprocess.run(
        [sys.executable, "-m", "repro", "generate", str(extract),
         "--persons", str(workload.persons), "--companies", str(workload.companies),
         "--density", workload.density, "--seed", str(GRAPH_SEED)],
        env=python_env(root), check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    truth = json.loads((extract / "ground_truth.json").read_text())
    if workload.boot == "attach":
        # the store every round boots from, persisted untimed
        server = Server(serve_argv(root, False, [str(extract), "--store", str(work / "prepared"),
                                                 "--port", "0"]),
                        python_env(root), work / "prepare.log")
        server.stop()
    return oracle.Model.from_extract(extract), truth


def cold_family_links(root: Path, work: Path, session: Session) -> list:
    batches = work / "batches.json"
    batches.write_text(json.dumps(session.batches))
    out = subprocess.run(
        [sys.executable, str(root / "perfbench" / "cold_family.py"),
         str(work / "extract"), str(batches), str(session.workload.clusters)],
        env=python_env(root), check=True, capture_output=True, text=True, timeout=170,
    )
    return json.loads(out.stdout)


def run_session(root, work, workload, seed, seconds, ops, truth, model, traced, number):
    session = Session(root, work, workload, seed, seconds, ops, traced, number)
    leaked_before = shm_segments()
    try:
        session.before, session.after = session.run(truth, model)
    finally:
        session.close()
        after = shm_segments()
        ops.check(leak_errors(leaked_before, after))
        for name in after - leaked_before:
            try:
                os.unlink(f"/dev/shm/{name}")
            except FileNotFoundError:
                pass
    return session


def run_workload(root: Path, name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = root / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = Ops()
    try:
        print(f"# workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
        print(f"# host {json.dumps(host_facts(work))}")
        model, truth = prepare(root, work, workload)
        print(f"# inputs: {len(model.persons())} persons, {len(model.companies())} "
              f"companies, {len(model.edges)} shareholdings ({workload.density})")
        # a traced run compares one traced round with one plain round
        count = 1 if trace else workload.rounds
        share = seconds / workload.rounds
        rounds: list[Session] = []
        oracles: dict = {}
        for number in range(count):
            plain = run_session(root, work, workload, seed, share, ops, truth, model, False,
                                number)
            started = time.monotonic()
            # a cold build per run: the last round's publishes against it
            last = number == count - 1
            cold = (cold_family_links(root, work, plain)
                    if workload.writes == "persons" and last else None)
            run_checks(plain, truth, ops, cold, oracles)
            print(f"# round {number} checks (wall s): {time.monotonic() - started:.1f}")
            rounds.append(plain)
        e2e = end_to_end(rounds)
        print(f"# read samples: {sum(len(r.reads.latencies_s) for r in rounds)}; "
              f"publishes: {sum(len(r.publish) for r in rounds)}")
        for metric, (value, unit) in e2e.items():
            print(f"{name} {metric} {value:.6g} {unit}")
        metrics = e2e
        if trace:
            import layers

            traced_ops = Ops()
            traced = run_session(root, work, workload, seed, share, traced_ops, truth,
                                 model, True, 0)
            run_checks(traced, truth, traced_ops, None, oracles)
            metrics = layers.per_layer(traced, e2e, end_to_end([traced]))
            for metric, (value, unit) in metrics.items():
                print(f"{name} {metric} {value:.6g} {unit}")
            for kind, (attempted, failed) in traced_ops.counts.items():
                ops.add(kind, attempted, failed)
            ops.errors.extend(traced_ops.errors)
        for kind, (attempted, failed) in ops.counts.items():
            print(f"# ops {kind}: attempted {attempted}, failed {failed}")
        for error in ops.errors[:20]:
            print(f"# FAILED {error}")
        check_failed = ops.counts["check"][1]
        return {
            "correct": check_failed == 0,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=6)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops its servers (the finally blocks run)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, subprocess.SubprocessError, OSError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
