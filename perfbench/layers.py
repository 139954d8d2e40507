"""Per-layer metrics of a traced session, and what they account for.

Reads the span files the traced server processes wrote at shutdown
(``tracing.Recorder.dump``) and turns them into the ``per_layer``
metrics of ``BENCHMARK.json``.  Two end-to-end figures are then split
by layer *self* time:

* ``setup_s`` — the spans of the booting server process inside
  spawn -> first ``/healthz`` 200 (interpreter start-up is the gap
  between spawn and the entry point's first instruction);
* ``publish_p50_ms`` — the spans of every server process inside each
  ``POST /mutations?wait=1`` round trip, averaged per publish.

What no span covers is reported as the unattributed remainder, and the
traced minus the untraced end-to-end figure as the tracing overhead.
Spans of pool workers run beside the builder; they are listed, not
summed, because the builder's own spans already cover that wall time.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

#: aggregated per enclosing span: inclusive time is the record's self time
LEAVES = {"linkage.probability", "ownership.integrated_solve"}
#: coroutine records overlap their threads' sync spans: never summed
ASYNC_PREFIXES = ("service.request.", "service.updater_apply")

SECONDS = {
    "datalog.engine_run_s": "datalog.engine_run",
    "core.family_links_s": "core.family_links",
    "linkage.probability_s": "linkage.probability",
    "linkage.train_s": "linkage.train",
    "embeddings.embed_s": "embeddings.embed",
    "embeddings.walks_s": "embeddings.walks",
    "embeddings.sgns_s": "embeddings.sgns",
    "embeddings.kmeans_s": "embeddings.kmeans",
    "graph.load_extract_s": "graph.load_extract",
    "graph.copy_s": "graph.copy",
    "graph.store_index_s": "graph.store_index",
    "graph.frame_s": "graph.frame",
    "ownership.rows_s": "ownership.rows",
    "ownership.close_link_extract_s": "ownership.close_link_extract",
    "ownership.custom_threshold_s": "ownership.custom_threshold",
    "service.snapshot_build_s": "service.snapshot_build",
    "service.apply_deltas_s": "service.apply_deltas",
    "service.updater_apply_s": "service.updater_apply",
    "service.pool_mutate_s": "service.pool_mutate",
    "service.shm_encode_s": "service.shm_encode",
    "service.shm_attach_s": "service.shm_attach",
    "storage.persist_s": "storage.persist",
    "storage.attach_s": "storage.attach",
}
ENDPOINTS = ("ubo", "neighbors", "control", "close-links", "family")


def load(trace_dir) -> list[dict]:
    return [json.loads(path.read_text()) for path in sorted(trace_dir.glob("*.json"))]


def _inclusive(span) -> float:
    name, start, end, self_s, _calls = span
    return self_s if name in LEAVES else end - start


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def per_layer(session, plain: dict, traced: dict) -> dict[str, tuple[float, str]]:
    dumps = load(session.trace_dir)
    spans = [tuple(s) for d in dumps for s in d["spans"]]
    counters: dict[str, float] = defaultdict(float)
    values: dict[str, list[float]] = defaultdict(list)
    for dump in dumps:
        for key, value in dump["counters"].items():
            counters[key] += value
        for key, items in dump["values"].items():
            values[key].extend(items)
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        totals[span[0]] += _inclusive(span)
        calls[span[0]] += span[4]
        durations[span[0]].append(span[2] - span[1])

    metrics: dict[str, tuple[float, str]] = {}
    for metric, name in SECONDS.items():
        metrics[metric] = (totals[name], "s")
    metrics["datalog.rule_firings"] = (counters["datalog.rule_firings"], "count")
    probability_calls = counters["linkage.probability_calls"]
    metrics["linkage.probability_calls"] = (probability_calls, "count")
    metrics["linkage.distinct_pair_ratio"] = (
        _ratio(counters["linkage.distinct_pairs"], probability_calls), "ratio"
    )
    metrics["ownership.low_rank_adopted_ratio"] = (
        _ratio(counters["ownership.low_rank_adopted"], counters["ownership.low_rank_calls"]),
        "ratio",
    )
    metrics["ownership.integrated_solves"] = (calls["ownership.integrated_solve"], "count")
    for endpoint in ENDPOINTS:
        samples = durations[f"service.request.{endpoint}"]
        metrics[f"service.request_ms.{endpoint}"] = (
            1000 * statistics.median(samples) if samples else 0.0, "ms"
        )
    cache = session.cache
    metrics["service.cache_hit_ratio"] = (
        _ratio(cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)), "ratio"
    )
    metrics["service.cache_computations"] = (cache.get("leaders", 0), "count")
    metrics["service.shm_segment_mb"] = (_mean(values["service.shm_segment_bytes"]) / 1e6, "MB")
    metrics["storage.fsyncs"] = (counters["storage.fsyncs"], "count")
    metrics["storage.persist_mb"] = (_mean(values["storage.persist_bytes"]) / 1e6, "MB")

    setup_split, setup_rest = account_setup(session, dumps)
    publish_split, publish_rest, concurrent = account_publish(session, dumps)
    print_split(f"setup_s {traced['setup_s'][0]:.3f} s (traced boot)", setup_split,
                setup_rest, "s", 1.0)
    if session.publish:
        print_split(f"publish mean {publish_mean_ms(session):.1f} ms (traced)",
                    publish_split, publish_rest, "ms", 1000.0)
        for name, seconds in sorted(concurrent.items(), key=lambda kv: -kv[1]):
            print(f"#   beside it in pool workers: {name} {1000 * seconds:.1f} ms")
    metrics["trace.setup_unattributed_s"] = (setup_rest, "s")
    metrics["trace.publish_unattributed_ms"] = (1000 * publish_rest, "ms")
    metrics["trace.overhead_setup_s"] = (traced["setup_s"][0] - plain["setup_s"][0], "s")
    metrics["trace.overhead_publish_ms"] = (
        traced["publish_p50_ms"][0] - plain["publish_p50_ms"][0], "ms"
    )
    return metrics


def _self_in(spans, start: float, end: float) -> dict[str, float]:
    split: dict[str, float] = defaultdict(float)
    for name, s_start, s_end, self_s, _calls in spans:
        if s_start >= start and s_end <= end and not name.startswith(ASYNC_PREFIXES):
            split[name] += self_s
    return split


def account_setup(session, dumps) -> tuple[dict[str, float], float]:
    start, end = session.boot_window
    (boot,) = [d for d in dumps if d["pid"] == session.boot_pid]
    split = _self_in(boot["spans"], start, end)
    entry = min(s[1] for s in boot["spans"] if s[0] == "python.import")
    split["python.startup"] = entry - start
    return split, (end - start) - sum(split.values())


def publish_mean_ms(session) -> float:
    return 1000 * _mean([a - s for s, a in session.publish])


def account_publish(session, dumps) -> tuple[dict, float, dict]:
    servers = [d for d in dumps if d["role"] == "server"]
    workers = [d for d in dumps if d["role"] == "worker"]
    split: dict[str, float] = defaultdict(float)
    beside: dict[str, float] = defaultdict(float)
    count = len(session.publish) or 1
    for sent, answered in session.publish:
        for dump in servers:
            for name, seconds in _self_in(dump["spans"], sent, answered).items():
                split[name] += seconds / count
        for dump in workers:
            for name, seconds in _self_in(dump["spans"], sent, answered).items():
                beside[name] += seconds / count
    rest = publish_mean_ms(session) / 1000 - sum(split.values())
    return split, rest, beside


def print_split(title: str, split: dict[str, float], rest: float, unit: str, scale: float):
    whole = sum(split.values()) + rest
    print(f"# {title}, split by layer self time:")
    for name, seconds in sorted(split.items(), key=lambda kv: -kv[1]):
        print(f"#   {name:32s} {scale * seconds:10.3f} {unit}  {100 * _ratio(seconds, whole):5.1f}%")
    print(f"#   {'(unattributed)':32s} {scale * rest:10.3f} {unit}  {100 * _ratio(rest, whole):5.1f}%")
