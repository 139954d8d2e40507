"""Spans around calls into each ``repro`` layer, recorded from outside.

:func:`install` replaces public functions and methods of the ``repro``
packages with timing wrappers; ``repro`` itself is not edited.  A
wrapped call becomes a span ``(name, start, end, self_s, calls)`` on the
shared ``time.monotonic`` clock, so spans of the server, its pool
workers and the benchmark client line up on one time axis.

Three kinds of wrapper:

* ``span``  — a synchronous call; nests on a per-thread stack so each
  span knows its *self* time (its duration minus its children's).  A
  call re-entering a span of the same name is not recorded twice.
* ``leaf``  — a hot call (hundreds of thousands per build); its time is
  summed into the enclosing span and emitted once per enclosing span.
  Wrapped calls inside a leaf are not recorded on their own.
* ``async`` — a coroutine; recorded by duration only, off the stack,
  since coroutines of one thread interleave.

Counters and sampled values ride along (rule firings, fsyncs, segment
sizes, bytes persisted).  :meth:`Recorder.dump` writes everything as
JSON; the serving entry point calls it at shutdown.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from pathlib import Path


class Recorder:
    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.values: dict[str, list[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.values.setdefault(name, []).append(value)

    def record(self, name: str, start: float, end: float, self_s: float, calls: int = 1):
        with self._lock:
            self.spans.append((name, start, end, self_s, calls))

    # -- wrapper factories ----------------------------------------------

    def span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if getattr(self._local, "in_leaf", False) or any(
                frame[0] == name for frame in stack
            ):
                return fn(*args, **kwargs)
            frame = [name, 0.0, {}]  # name, child seconds, leaf aggregates
            stack.append(frame)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                duration = end - start
                self.record(name, start, end, duration - frame[1])
                for leaf, (seconds, calls) in frame[2].items():
                    self.record(leaf, start, end, seconds, calls)
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def leaf(self, name: str, fn, before=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            # spans inside a leaf are part of its time, not recorded apart
            self._local.in_leaf = True
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                self._local.in_leaf = False
                stack = self._stack()
                if stack:
                    parent = stack[-1]
                    parent[1] += end - start
                    seconds, calls = parent[2].get(name, (0.0, 0))
                    parent[2][name] = (seconds + end - start, calls + 1)
                else:
                    self.record(name, start, end, end - start)

        return wrapper

    def coroutine(self, name_of, fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = time.monotonic()
            result = await fn(*args, **kwargs)
            end = time.monotonic()
            self.record(name_of(result), start, end, end - start)
            return result

        return wrapper

    def dump(self, path: Path, role: str) -> None:
        payload = {
            "pid": os.getpid(),
            "role": role,
            "spans": self.spans,
            "counters": self.counters,
            "values": self.values,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.rename(path)


def _replace_function(module_name: str, attr: str, wrapper_of) -> None:
    """Swap a module-level function everywhere ``repro`` imported it."""
    original = getattr(sys.modules[module_name], attr)
    wrapped = wrapper_of(original)
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def _replace_method(cls, attr: str, wrapper_of) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrapper_of(raw.__func__)))
    else:
        setattr(cls, attr, wrapper_of(raw))


def _tree_bytes(root: Path) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.stat(os.path.join(dirpath, name)).st_size
            except FileNotFoundError:
                pass
    return total


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.cli  # noqa: F401  (imports the whole serving stack)
    from repro.core.pipeline import ReasoningPipeline
    from repro.datalog.engine import Engine
    from repro.embeddings.incremental import IncrementalEmbedder
    from repro.embeddings.walks import RandomWalker
    from repro.graph.columnar import GraphFrame
    from repro.graph.property_graph import PropertyGraph
    from repro.graph.store import GraphStore
    from repro.linkage.bayes import BayesianLinkClassifier
    from repro.service import workers
    from repro.service.server import ReasoningService
    from repro.service.snapshot import Snapshot, SnapshotBuilder
    from repro.service.updates import GraphUpdater
    from repro.storage.store import FrameStore
    import repro.embeddings.kmeans  # noqa: F401
    import repro.embeddings.skipgram  # noqa: F401
    import repro.linkage.training  # noqa: F401
    import repro.ownership.close_links  # noqa: F401
    import repro.ownership.matrix  # noqa: F401
    import repro.ownership.ubo  # noqa: F401
    import repro.service.incremental  # noqa: F401
    import repro.service.shm  # noqa: F401
    import repro.service.updates  # noqa: F401

    span, leaf = rec.span, rec.leaf

    # datalog + core + linkage
    _replace_method(
        Engine, "run",
        lambda fn: span("datalog.engine_run", fn, after=lambda a, k, r: rec.count(
            "datalog.rule_firings", a[0].stats.rule_firings)),
    )
    distinct: set = set()

    def fresh_pairs(_args) -> None:
        rec.count("linkage.distinct_pairs", len(distinct))
        distinct.clear()

    def family_links(fn):
        inner = span("core.family_links", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            finally:
                fresh_pairs(args)

        return wrapper

    _replace_method(ReasoningPipeline, "family_links", family_links)

    def note_pair(args) -> None:
        rec.counters["linkage.probability_calls"] = (
            rec.counters.get("linkage.probability_calls", 0) + 1
        )
        distinct.add((id(args[0]), id(args[1]), id(args[2])))

    _replace_method(
        BayesianLinkClassifier, "probability",
        lambda fn: leaf("linkage.probability", fn, before=note_pair),
    )
    _replace_function(
        "repro.linkage.training", "train_classifiers",
        lambda fn: span("linkage.train", fn),
    )

    # embeddings
    _replace_method(IncrementalEmbedder, "embed", lambda fn: span("embeddings.embed", fn))
    _replace_method(RandomWalker, "walks", lambda fn: span("embeddings.walks", fn))
    for attr in ("train_skipgram", "update_skipgram"):
        _replace_function(
            "repro.embeddings.skipgram", attr, lambda fn: span("embeddings.sgns", fn)
        )
    _replace_function("repro.embeddings.kmeans", "kmeans", lambda fn: span("embeddings.kmeans", fn))

    # graph
    _replace_function("repro.graph.io", "read_company_csv", lambda fn: span("graph.load_extract", fn))
    _replace_method(PropertyGraph, "copy", lambda fn: span("graph.copy", fn))
    for attr in ("__init__", "ensure_index"):
        _replace_method(GraphStore, attr, lambda fn: span("graph.store_index", fn))
    _replace_method(GraphFrame, "of", lambda fn: span("graph.frame", fn))

    # ownership
    for module, attr in (
        ("repro.service.incremental", "control_rows"),
        ("repro.service.incremental", "phi_rows"),
        ("repro.ownership.ubo", "beneficial_owner_rows"),
        ("repro.service.incremental", "patch_control_rows"),
        ("repro.service.incremental", "patch_phi_rows"),
        ("repro.service.incremental", "patch_ubo_rows"),
    ):
        _replace_function(module, attr, lambda fn: span("ownership.rows", fn))
    _replace_function(
        "repro.ownership.close_links", "links_from_phi",
        lambda fn: span("ownership.close_link_extract", fn),
    )

    def low_rank(args, kwargs, adopted) -> None:
        rec.count("ownership.low_rank_calls")
        rec.count("ownership.low_rank_adopted", 1 if adopted else 0)

    _replace_function(
        "repro.ownership.matrix", "try_low_rank_update",
        lambda fn: span("ownership.low_rank_update", fn, after=low_rank),
    )
    _replace_function(
        "repro.ownership.matrix", "integrated_ownership_from",
        lambda fn: leaf("ownership.integrated_solve", fn),
    )

    def custom_threshold(fn, position: int):
        inner = span("ownership.custom_threshold", fn)

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            threshold = kwargs.get("threshold", args[position] if len(args) > position else None)
            if threshold is None:
                return fn(self, *args, **kwargs)
            return inner(self, *args, **kwargs)

        return wrapper

    # the wrapper sees threshold=None (the default) as a precomputed read;
    # an explicit threshold equal to the default is still a custom query
    _replace_method(Snapshot, "ubo_payloads", lambda fn: custom_threshold(fn, 1))
    _replace_method(Snapshot, "control_payload", lambda fn: custom_threshold(fn, 1))
    _replace_method(Snapshot, "close_links_payload", lambda fn: custom_threshold(fn, 0))

    # service
    _replace_method(SnapshotBuilder, "build", lambda fn: span("service.snapshot_build", fn))
    _replace_function(
        "repro.service.updates", "apply_deltas", lambda fn: span("service.apply_deltas", fn)
    )
    _replace_method(
        ReasoningService, "handle_request",
        lambda fn: rec.coroutine(lambda result: f"service.request.{result[0]}", fn),
    )
    _replace_method(
        GraphUpdater, "apply",
        lambda fn: rec.coroutine(lambda result: "service.updater_apply", fn),
    )
    _replace_method(workers.ServicePool, "mutate", lambda fn: span("service.pool_mutate", fn))
    _replace_function(
        "repro.service.shm", "encode_snapshot",
        lambda fn: span("service.shm_encode", fn, after=lambda a, k, segment: rec.sample(
            "service.shm_segment_bytes", segment.size)),
    )
    _replace_function(
        "repro.service.shm", "attach_snapshot", lambda fn: span("service.shm_attach", fn)
    )

    # storage
    fsync = os.fsync
    persisting = threading.Event()

    def counted_fsync(fd):
        if persisting.is_set():
            rec.count("storage.fsyncs")
        return fsync(fd)

    os.fsync = counted_fsync

    def persist(fn):
        inner = span("storage.persist", fn)

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            before = _tree_bytes(self.root)
            persisting.set()
            try:
                return inner(self, *args, **kwargs)
            finally:
                persisting.clear()
                rec.sample("storage.persist_bytes", _tree_bytes(self.root) - before)

        return wrapper

    _replace_method(FrameStore, "persist", persist)
    _replace_method(FrameStore, "attach_latest", lambda fn: span("storage.attach", fn))

    # pool workers fork from the wrapped parent: start each with an empty
    # record and write it out when the worker returns
    trace_dir = Path(os.environ["PERFBENCH_TRACE_DIR"])
    worker_main = workers._worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(*args, **kwargs):
        rec.reset()
        try:
            return worker_main(*args, **kwargs)
        finally:
            rec.dump(trace_dir / f"worker-{os.getpid()}.json", "worker")

    workers._worker_main = traced_worker_main
