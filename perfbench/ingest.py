"""The embedded workload ``ingest_mixed``: writes beside reads, in-process.

One thread drives a :class:`~repro.lifecycle.LifecycleEngine` over a
disk-backed :class:`~repro.lifecycle.SegmentedIndex` with a view catalog
attached.  Half the corpus is committed in the set-up; the other half
then streams in as fixed-size write steps:

* every step ingests ``BATCH_DOCS`` documents (``auto_flush`` seals the
  memtable at ``FLUSH_THRESHOLD`` documents, inside the call);
* every ``DELETE_EVERY``-th step also deletes ``DELETE_DOCS`` documents;
* every ``COMPACT_EVERY``-th step also compacts, in the foreground;
* after every step one fixed probe query runs over the new version (it
  pays the snapshot rebuild and times visibility), then
  ``STEADY_QUERIES`` Figure 7/8 queries over the same version, each in
  its mode (see ``MODE_MIX``);
* after the stream, ``CYCLES`` cycles each run one more timed set-up
  (in its own directory, closed at once) and then ``ROUNDS_PER_CYCLE``
  closed-loop passes over the query pool, in the pool's fixed order and
  each query's mode, on the streamed engine's final state.  Each
  query's latency is its fastest over all passes, for the reason given
  at :data:`common.WINDOW_ANSWERS`; spreading the passes between the
  set-ups spreads them over the whole run, so one slow stretch of the
  host cannot cover all of them.

The WAL policy is the system's default: each record is ``flush()``ed to
the OS, never fsynced.  At the end a sample of queries must rank exactly
as a from-scratch :class:`~repro.ContextSearchEngine` over the surviving
documents does.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import common
from common import percentile

INITIAL_DOCS = common.NUM_DOCS // 2
BATCH_DOCS = 250
FLUSH_THRESHOLD = 1000
DELETE_EVERY = 2
DELETE_DOCS = 25
COMPACT_EVERY = 8
STEADY_QUERIES = 12
T_C_SHARE = 0.01
T_V = 4096
QUERIES_PER_COUNT = 40
CHECK_QUERIES = 40
CYCLES = 5
ROUNDS_PER_CYCLE = 8
# The paper gives no query log, so the queries' mode mix is an
# assumption: mostly context, some disjunctive, a few conventional.
# Each pool query's mode is drawn once, with the corpus seed, and the
# query always runs in it.
MODE_MIX = (("context", 0.85), ("disjunctive", 0.10), ("conventional", 0.05))
MODES = tuple(m for m, _ in MODE_MIX)


def with_modes(corpus, queries: List[str]) -> List[Tuple[str, str]]:
    modes, weights = zip(*MODE_MIX)
    drawn = random.Random(corpus.config.seed).choices(modes, weights, k=len(queries))
    return list(zip(queries, drawn))


def search(engine, query: str, mode: str):
    if mode == "disjunctive":
        return engine.search_disjunctive(query, top_k=common.TOP_K)
    if mode == "conventional":
        return engine.search_conventional(query, top_k=common.TOP_K)
    return engine.search(query, top_k=common.TOP_K)


@dataclass
class StreamPass:
    """One full ingest stream and what it measured."""

    timings: Dict[str, float]
    acks_ms: List[float] = field(default_factory=list)
    visible_ms: List[float] = field(default_factory=list)
    query_ms: List[float] = field(default_factory=list)  # steady queries
    reports: List[dict] = field(default_factory=list)  # every query in the steps
    modes: List[str] = field(default_factory=list)  # of the steady queries
    query_busy_ms: float = 0.0  # wall time of every query in the steps
    ingested: int = 0
    ingest_seconds: float = 0.0
    # Each pool query's fastest latency (ms) over the closed-loop passes,
    # and the queries per second of each pass.
    best_ms: List[float] = field(default_factory=list)
    round_qps: List[float] = field(default_factory=list)
    rss_mb: float = 0.0
    dropped: int = 0
    segments: int = 0
    disk_bytes: int = 0
    live_docs: int = 0
    operations: int = 0
    live_ids: List[str] = field(default_factory=list)
    window: tuple = (0.0, 0.0)  # monotonic bounds of the write/read steps
    spans: List[dict] = field(default_factory=list)


def set_up(corpus, directory: Path):
    """Commit the first half (index build + v4 segment save) and select
    views over it.  Returns (engine, timings)."""
    from repro import select_views
    from repro.lifecycle import LifecycleEngine, SegmentedIndex

    timings = {}
    started = time.perf_counter()
    index = SegmentedIndex.open(directory, flush_threshold=FLUSH_THRESHOLD)
    engine = LifecycleEngine(index)
    engine.ingest(corpus.documents[:INITIAL_DOCS])
    timings["index_build"] = time.perf_counter() - started
    started = time.perf_counter()
    engine.flush()
    timings["save"] = time.perf_counter() - started
    started = time.perf_counter()
    catalog, _ = select_views(
        index.snapshot(), t_c=int(INITIAL_DOCS * T_C_SHARE), t_v=T_V, strategy="hybrid"
    )
    engine.install_catalog(catalog)
    timings["select_views"] = time.perf_counter() - started
    return engine, timings


def stream(corpus, engine, timings, probe: str, items: List[Tuple[str, str]],
           seed: int) -> StreamPass:
    """The measured write/read stream over the set-up's engine."""
    rng = random.Random(seed)
    result = StreamPass(timings)
    steady = list(items)
    rng.shuffle(steady)
    queries = itertools.cycle(steady)
    live = [d.doc_id for d in corpus.documents[:INITIAL_DOCS]]

    rest = corpus.documents[INITIAL_DOCS:]
    window_start = time.monotonic()
    for step, lo in enumerate(range(0, len(rest), BATCH_DOCS), start=1):
        batch = rest[lo: lo + BATCH_DOCS]
        started = time.perf_counter()
        engine.ingest(batch, auto_flush=True)
        result.operations += 1
        if step % DELETE_EVERY == 0:
            victims = rng.sample(live, DELETE_DOCS)
            engine.delete(victims)
            dead = set(victims)
            live = [d for d in live if d not in dead]
            result.operations += 1
        if step % COMPACT_EVERY == 0:
            result.dropped += engine.compact().dropped_documents
            result.operations += 1
        acked = time.perf_counter()
        live.extend(d.doc_id for d in batch)
        result.acks_ms.append((acked - started) * 1000.0)
        result.ingest_seconds += acked - started
        result.ingested += len(batch)
        probe_started = time.perf_counter()
        answer = engine.search(probe, top_k=common.TOP_K)
        done = time.perf_counter()
        result.visible_ms.append((done - started) * 1000.0)
        result.reports.append(answer.report.to_dict())
        result.query_busy_ms += (done - probe_started) * 1000.0
        result.operations += 1
        for _ in range(STEADY_QUERIES):
            query, mode = next(queries)
            q_started = time.perf_counter()
            answer = search(engine, query, mode)
            result.query_ms.append((time.perf_counter() - q_started) * 1000.0)
            result.reports.append(answer.report.to_dict())
            result.query_busy_ms += result.query_ms[-1]
            result.modes.append(mode)
            result.operations += 1

    result.window = (window_start, time.monotonic())
    result.segments = engine.index.num_segments
    result.live_docs = engine.index.num_docs
    result.live_ids = live
    # Peak memory of the set-up and the stream, read before the extra
    # set-ups and the correctness check allocate their own indexes.
    result.rss_mb = common.peak_rss_mb()
    return result


def query_rounds(engine, items: List[Tuple[str, str]], rounds: int,
                 result: StreamPass) -> None:
    """``rounds`` closed-loop passes over the pool in its fixed order (the
    same work on every run), keeping each query's fastest latency."""
    if not result.best_ms:
        result.best_ms = [float("inf")] * len(items)
    for _ in range(rounds):
        began = time.perf_counter()
        for i, (query, mode) in enumerate(items):
            q_started = time.perf_counter()
            search(engine, query, mode)
            result.best_ms[i] = min(result.best_ms[i],
                                    (time.perf_counter() - q_started) * 1000.0)
        result.round_qps.append(len(items) / (time.perf_counter() - began))
    result.operations += rounds * len(items)


def check(corpus, engine, live_ids: List[str], pool: List[str]) -> List[str]:
    """Rankings over the final state, in every mode, must equal a
    from-scratch engine's."""
    from repro import ContextSearchEngine, InvertedIndex

    alive = set(live_ids)
    fresh_index = InvertedIndex()
    fresh_index.add_all(d for d in corpus.documents if d.doc_id in alive)
    fresh_index.commit()
    fresh = ContextSearchEngine(fresh_index)
    if fresh_index.num_docs != engine.index.num_docs:
        return [f"live documents {engine.index.num_docs} != {fresh_index.num_docs}"]
    mismatches = []
    for query in pool[:CHECK_QUERIES]:
        for mode in MODES:
            got = [(h.external_id, h.score) for h in search(engine, query, mode).hits]
            want = [(h.external_id, h.score) for h in search(fresh, query, mode).hits]
            if got != want:
                mismatches.append(f"{mode} {query!r}: lifecycle {got} != fresh {want}")
    fresh.close()
    return mismatches


def timed_set_up(corpus, directory: Path, pool=None):
    """One set-up up to its first answered query.  Returns (engine,
    timings, pool); the pool is generated on the first call."""
    engine, timings = set_up(corpus, directory)
    if pool is None:
        pool = common.paper_queries(corpus, engine.index.snapshot(), QUERIES_PER_COUNT,
                                    int(INITIAL_DOCS * T_C_SHARE))
    started = time.perf_counter()
    engine.search(pool[0], top_k=common.TOP_K)
    timings["server_ready"] = time.perf_counter() - started
    return engine, timings, pool


def one_pass(corpus, workdir: Path, seed: int, extra_setups: bool, recorder=None):
    """A set-up and the stream over it, then ``CYCLES`` cycles of (an
    extra timed set-up, when ``extra_setups``) and query passes over the
    streamed engine.  Returns (pass, set-up totals, mismatches)."""
    engine, timings, pool = timed_set_up(corpus, workdir / "rep0")
    totals = [sum(timings.values())]
    try:
        if recorder is not None:
            from spans import install

            install(recorder)
        items = with_modes(corpus, pool[1:])
        result = stream(corpus, engine, timings, pool[0], items, seed)
        result.disk_bytes = common.disk_bytes([workdir / "rep0"])
        for cycle in range(CYCLES):
            if extra_setups:
                other, other_timings, _ = timed_set_up(
                    corpus, workdir / f"rep{cycle + 1}", pool)
                other.close()
                totals.append(sum(other_timings.values()))
            query_rounds(engine, items, ROUNDS_PER_CYCLE, result)
        mismatches = check(corpus, engine, result.live_ids, pool)
    finally:
        engine.close()
    return result, totals, mismatches


def run(corpus_seed: int, seed: int, seconds: float, trace: bool) -> dict:
    """``seconds`` does not apply: the stream is fixed work, so every
    commit ingests and queries the same documents."""
    workdir = common.work_dir("ingest_mixed")
    clock = common.Stages()
    corpus = common.make_corpus(corpus_seed)
    common.reset_peak_rss()
    clock.mark("corpus")
    untraced, totals, mismatches = one_pass(
        corpus, workdir / "plain", seed, not trace)
    passes = [untraced]
    if trace:
        from spans import FIELDS, SpanRecorder

        recorder = SpanRecorder()
        traced, _, traced_mismatches = one_pass(
            corpus, workdir / "traced", seed, False, recorder)
        low, high = traced.window
        traced.spans = [dict(zip(FIELDS, s)) for s in recorder.spans
                        if low <= s[1] <= high]
        mismatches += traced_mismatches
        passes.append(traced)
    clock.mark("set-up, stream and check")
    attempted = sum(p.operations for p in passes)
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": 0,
        "mismatches": mismatches[:5],
        "checked": CHECK_QUERIES * len(MODES) * len(passes),
        "stages": clock.seconds,
        "phases": [phase_summary(p, i) for i, p in enumerate(passes)],
    }
    if trace:
        result["metrics"] = layer_metrics(untraced, passes[1])
    else:
        result["metrics"] = end_to_end(untraced, totals)
    return result


def phase_summary(p: StreamPass, i: int) -> dict:
    return {
        "phase": "stream" + (" (traced)" if i else ""),
        "steps": len(p.acks_ms),
        "queries": len(p.query_ms),
        "ingest_seconds": round(p.ingest_seconds, 3),
        "docs_per_s": round(p.ingested / p.ingest_seconds, 1),
        "ack_p50_ms": round(percentile(p.acks_ms, 50), 3),
        "visible_p50_ms": round(percentile(p.visible_ms, 50), 3),
        "pool_passes": len(p.round_qps),
        "segments": p.segments,
    }


def pool_qps(p: StreamPass) -> float:
    """Queries per second of one pass over the pool with every query at
    its fastest (one thread, so the inverse of the mean latency)."""
    return len(p.best_ms) / (sum(p.best_ms) / 1000.0)


def end_to_end(p: StreamPass, totals: List[float]) -> dict:
    """Latency percentiles are over the pool queries' fastest latencies,
    and throughput is :func:`pool_qps`; the sample count given for them
    is the number of pool queries."""
    return {
        "setup_s": (common.median(totals), "s", len(totals)),
        "query_p50_ms": (percentile(p.best_ms, 50), "ms", len(p.best_ms)),
        "query_p90_ms": (percentile(p.best_ms, 90), "ms", len(p.best_ms)),
        "throughput_qps": (pool_qps(p), "1/s", len(p.best_ms)),
        "ok_share": (1.0, "share", p.operations),
        "rss_mb": (p.rss_mb, "MB", 1),
        "bytes_per_doc": (p.disk_bytes / p.live_docs, "B", 1),
    }


def layer_metrics(untraced: StreamPass, traced: StreamPass) -> dict:
    import layers

    out = layers.span_metrics(traced.spans, queries=len(traced.reports),
                              ingests=len(traced.acks_ms))
    out.update(layers.report_metrics(traced.reports))
    out.update(layers.coverage(
        traced.spans,
        sum(r["elapsed_seconds"] for r in traced.reports) * 1000.0,
        traced.query_busy_ms,
    ))
    out.update(layers.mode_mix(traced.modes))
    out.update(layers.setup_metrics(traced.timings))
    out.update(layers.overhead(percentile(untraced.best_ms, 50),
                               percentile(traced.best_ms, 50),
                               pool_qps(untraced), pool_qps(traced)))
    # The write path as a user of the embedded engine sees it, from the
    # untraced pass.
    out.update({
        "ingest.docs_per_s": untraced.ingested / untraced.ingest_seconds,
        "ingest.ack_p50_ms": percentile(untraced.acks_ms, 50),
        "ingest.ack_p90_ms": percentile(untraced.acks_ms, 90),
        "ingest.visible_p50_ms": percentile(untraced.visible_ms, 50),
    })
    out["lifecycle.compact.docs_dropped"] = traced.dropped
    out["lifecycle.segments"] = traced.segments
    return out
