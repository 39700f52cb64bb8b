"""The served workload ``hot_contexts``.

Each run builds its artefacts from the seeded corpus, starts the real
server process (``python -m repro serve``), drives it from the asyncio
load generator, and checks every kept response against the in-process
engine over the same artefacts once the server is down.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import common
from common import BenchError, ServerProcess, mean, percentile, share
from loadgen import LoadGenerator, Phase
from spans import load_spans

# Fixed workload parameters (recorded in perfbench/README.md).
HOT_CONTEXTS = 3
# The server's result cache (the CLI default).  A cycle sends more
# distinct requests than it holds, and each only once, so an LRU cache
# replaying the cycle never hits.
CACHE_ENTRIES = 1024
# Responses kept for the bit-identity check per pass.
CHECK_LIMIT = 150


# One server process gets a closed-loop warm-up and then CYCLES cycles
# of the same two loops: an open loop of --seconds / CYCLES at RATE, and
# a closed loop of CLOSED requests with DEPTH in flight per connection.
# The warm-up sends the closed loop's requests, so every open loop starts
# from the caches the closed loop leaves, and every cycle repeats the
# same work: each request's and each throughput window's best figure
# over the cycles counts (see common.WINDOW_ANSWERS).
CYCLES = 6
RATE = 100.0
DEPTH = 4
CLOSED = 1200
# Worker threads of the server.  With more than one, concurrent batches
# race on the unlocked LRU caches of decoded blocks
# (repro.index.blockstore._BlockCache) and context statistics
# (repro.core.stats_cache): a lookup's move_to_end can miss a key another
# thread just evicted, and the KeyError drops the whole coalesced batch
# without a response.  Until that is fixed the benchmark serves from one
# worker thread, so every request is answered and runs agree.
SERVER_WORKERS = 1
# Index build and save repeat this often per run and their median
# counts.
SETUP_REPS = 3


# -- query streams --------------------------------------------------------


def hot_items(index, seed: int) -> List[Tuple[str, str]]:
    """Distinct mid-frequency keywords over a few shared heavy contexts
    of three predicates: every (keyword, context) pair appears once, so
    the result cache never hits."""
    predicates = sorted(index.predicate_vocabulary, key=index.predicate_frequency)
    heavy = predicates[-(HOT_CONTEXTS + 2):]
    contexts = [f"{heavy[-1]} {heavy[-2]} {heavy[i]}" for i in range(HOT_CONTEXTS)]
    terms = sorted(
        (t for t in index.vocabulary if index.document_frequency(t) >= 2),
        key=lambda t: (index.document_frequency(t), t),
    )
    band = terms[len(terms) // 10: 9 * len(terms) // 10]
    pairs = [(kw, ctx) for kw in band for ctx in contexts]
    random.Random(seed).shuffle(pairs)
    return [(f"{kw} | {ctx}", "context") for kw, ctx in pairs]


# -- deployment -----------------------------------------------------------


@dataclass
class Deployment:
    """Artefacts on disk plus the set-up timings of one build."""

    workdir: Path
    index_path: Path
    timings: Dict[str, float] = field(default_factory=dict)


def build_artefacts(corpus, workdir: Path) -> Tuple[Deployment, object]:
    """Index build and v4 save."""
    from repro.storage import save_index

    dep = Deployment(workdir, workdir / "index.bin")
    started = time.perf_counter()
    index = corpus.build_index()
    dep.timings["index_build"] = time.perf_counter() - started

    started = time.perf_counter()
    save_index(index, dep.index_path)
    dep.timings["save"] = time.perf_counter() - started
    return dep, index


def start_server(dep: Deployment, probe: Tuple[str, str],
                 trace_out: Optional[Path] = None) -> Tuple[ServerProcess, float]:
    """Spawn ``repro serve`` and wait for the first answered query.
    Returns the server and the seconds until that answer."""
    from repro.service import ServiceClient

    started = time.perf_counter()
    argv = ["serve", "--index", str(dep.index_path), "--port", "0",
            "--workers", str(SERVER_WORKERS), "--cache-entries", str(CACHE_ENTRIES)]
    server = ServerProcess(argv, trace_out)
    try:
        with ServiceClient(*server.address) as client:
            answer = client.query(probe[0], top_k=common.TOP_K, mode=probe[1])
        if answer.get("status") not in ("ok", "error"):
            raise BenchError(f"first query was not answered: {answer}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def reference_engine(dep: Deployment):
    """The in-process engine the served rankings must equal, bit for bit."""
    from repro import ContextSearchEngine
    from repro.storage import load_index

    return ContextSearchEngine(load_index(dep.index_path))


def expected(engine, query: str, mode: str) -> dict:
    from repro import ReproError

    try:
        if mode == "disjunctive":
            results = engine.search_disjunctive(query, top_k=common.TOP_K)
        elif mode == "conventional":
            results = engine.search_conventional(query, top_k=common.TOP_K)
        else:
            results = engine.search(query, top_k=common.TOP_K)
    except ReproError as exc:
        return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
    return {
        "status": "ok",
        "hits": [(h.external_id, h.score) for h in results.hits],
    }


def check_responses(engine, responses: Sequence[Tuple[Tuple[str, str], dict]]) -> List[str]:
    """Compare kept responses with the reference engine; returns mismatches."""
    mismatches = []
    for (query, mode), response in responses:
        want = expected(engine, query, mode)
        got = {"status": response.get("status")}
        if got["status"] == "ok":
            got["hits"] = [(h["doc"], h["score"]) for h in response.get("hits", [])]
        else:
            got["error"] = response.get("error")
        if got != want:
            mismatches.append(f"{mode} {query!r}: served {got} != in-process {want}")
    return mismatches


# -- one measured pass ----------------------------------------------------


@dataclass
class Pass:
    """The phases of one pass against one server process."""

    warmup: Phase
    opens: List[Phase]
    closeds: List[Phase]
    # metrics op before each open loop, after it, and after the last
    # closed loop: open loop c runs between snapshots 2c and 2c+1, the
    # closed loop after it between 2c+1 and 2c+2.
    snapshots: List[dict]
    ready_s: float = 0.0
    rss_mb: float = 0.0
    spans: List[dict] = field(default_factory=list)

    @property
    def phases(self) -> List[Phase]:
        return [self.warmup, *self.opens, *self.closeds]

    def open_diff(self, *path) -> float:
        """A ``metrics`` counter's growth over the open loops."""
        return sum(_diff(self.snapshots[2 * c + 1], self.snapshots[2 * c], *path)
                   for c in range(len(self.opens)))

    def closed_diff(self, *path) -> float:
        """A ``metrics`` counter's growth over the closed loops."""
        return sum(_diff(self.snapshots[2 * c + 2], self.snapshots[2 * c + 1], *path)
                   for c in range(len(self.closeds)))

    def best_latencies(self) -> List[float]:
        """Each open-loop request's lowest latency over the cycles, which
        send the same requests in the same order; requests never
        answered are left out."""
        per_cycle = [[s.latency_ms if s.response is not None else float("inf")
                      for s in ph.samples] for ph in self.opens]
        best = [min(column) for column in zip(*per_cycle)]
        return [ms for ms in best if ms != float("inf")]

    def best_throughput(self) -> Tuple[float, int]:
        """``ok`` answers per second of the closed loop with each window
        of ``WINDOW_ANSWERS`` answers at its fastest over the cycles;
        returns (answers per second, windows)."""
        per_cycle = [common.window_seconds(
            [s.received for s in ph.samples if s.status == "ok"], ph.started)
            for ph in self.closeds]
        best = [min(column) for column in zip(*per_cycle)]
        return len(best) * common.WINDOW_ANSWERS / sum(best), len(best)


def measure(address, stream, cycles: int) -> Pass:
    opened, closed = stream

    async def drive() -> Pass:
        gen = LoadGenerator(address, common.TOP_K)
        await gen.connect()
        try:
            warmup = await gen.closed_loop("warmup", closed, DEPTH)
            opens, closeds, snapshots = [], [], []
            for c in range(cycles):
                snapshots.append(await gen.metrics())
                opens.append(await gen.open_loop(f"open{c}", opened, RATE))
                snapshots.append(await gen.metrics())
                closeds.append(await gen.closed_loop(f"closed{c}", closed, DEPTH))
            snapshots.append(await gen.metrics())
        finally:
            await gen.close()
        return Pass(warmup, opens, closeds, snapshots)

    return asyncio.run(drive())


def kept_responses(passes: Sequence[Pass], limit: int) -> List[Tuple[Tuple[str, str], dict]]:
    """Up to ``limit`` distinct (query, mode) responses per pass, spread
    evenly over its samples, plus every non-ok response."""
    kept: Dict[Tuple[str, str], dict] = {}
    for p in passes:
        samples = [s for ph in p.phases for s in ph.completed()]
        stride = max(1, len(samples) // limit)
        for i, s in enumerate(samples):
            if i % stride == 0 or s.status != "ok":
                kept.setdefault(s.item, s.response)
    return list(kept.items())


# -- the workload ---------------------------------------------------------


def stream_for(index, seed: int, seconds: float):
    """The probe query and the (open, closed) item lists every cycle
    sends, drawn with ``seed``."""
    n_open = int(RATE * seconds / CYCLES)
    wanted = 1 + n_open + CLOSED
    if wanted - 1 <= CACHE_ENTRIES:
        raise BenchError(f"a cycle of {wanted - 1} requests fits the result cache")
    items = hot_items(index, seed)
    if len(items) < wanted:
        raise BenchError(f"query stream too short ({len(items)} < {wanted})")
    probe, rest = items[0], items[1:]
    return probe, (rest[:n_open], rest[n_open:wanted - 1])


def run(corpus_seed: int, seed: int, seconds: float, trace: bool) -> dict:
    """One server for ``CYCLES`` cycles; with ``trace``, an untraced
    and a traced server for one cycle each."""
    workdir = common.work_dir("hot_contexts")
    clock = common.Stages()
    corpus = common.make_corpus(corpus_seed)
    clock.mark("corpus")
    setups: List[Deployment] = []
    for rep in range(1 if trace else SETUP_REPS):
        rep_dir = workdir / f"rep{rep}"
        rep_dir.mkdir()
        dep, index = build_artefacts(corpus, rep_dir)
        setups.append(dep)
    probe, stream = stream_for(index, seed, seconds)
    del index
    clock.mark("set-up")

    passes: List[Pass] = []
    for i in range(2 if trace else 1):
        trace_out = workdir / "spans-server.json" if i == 1 else None
        server, ready_s = start_server(dep, probe, trace_out)
        try:
            p = measure(server.address, stream, 1 if trace else CYCLES)
            p.ready_s = ready_s
            p.rss_mb = server.peak_rss_mb()
        finally:
            server.stop()
        if trace_out is not None:
            p.spans = load_spans(server.spans())
        passes.append(p)
    clock.mark("measure")

    engine = reference_engine(dep)
    try:
        responses = kept_responses(passes, CHECK_LIMIT)
        mismatches = check_responses(engine, responses)
    finally:
        engine.close()
    clock.mark("check")
    attempted = sum(len(ph.samples) for p in passes for ph in p.phases)
    ok = sum(1 for p in passes for ph in p.phases for s in ph.samples if s.status == "ok")
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": attempted - ok,
        "mismatches": mismatches[:5],
        "checked": len(responses),
        "stages": clock.seconds,
        "phases": [
            phase_summary(p, ph) for p in passes for ph in p.phases
        ],
    }
    dep.timings["server_ready"] = passes[-1].ready_s
    if trace:
        result["metrics"] = layer_metrics(dep, passes[0], passes[1])
    else:
        result["metrics"] = end_to_end(setups, passes[0], ok, attempted)
    return result


def phase_summary(p: Pass, ph: Phase) -> dict:
    lat = [s.latency_ms for s in ph.completed()]
    late = [s.late_ms for s in ph.samples]
    return {
        "phase": ph.name + (" (traced)" if p.spans else ""),
        "samples": len(ph.samples),
        "seconds": round(ph.seconds, 3),
        "p50_ms": round(percentile(lat, 50), 3),
        "late_p50_ms": round(percentile(late, 50), 3),
        "late_max_ms": round(max(late) if late else 0.0, 3),
    }


def end_to_end(setups: Sequence[Deployment], p: Pass, ok: int, attempted: int) -> dict:
    """Set-up is the median build-and-save plus the server start; latency and throughput are best-of-cycles figures (see
    :meth:`Pass.best_latencies`, :meth:`Pass.best_throughput`); the
    sample count given is the requests' or the windows'."""
    last = setups[-1].timings
    builds = [d.timings["index_build"] + d.timings["save"] for d in setups]
    setup_s = common.median(builds) + last["server_ready"]
    latencies = p.best_latencies()
    qps, windows = p.best_throughput()
    return {
        "setup_s": (setup_s, "s", len(builds)),
        "query_p50_ms": (percentile(latencies, 50), "ms", len(latencies)),
        "query_p90_ms": (percentile(latencies, 90), "ms", len(latencies)),
        "throughput_qps": (qps, "1/s", windows),
        "ok_share": (share(ok, attempted), "share", attempted),
        "rss_mb": (p.rss_mb, "MB", 1),
        "bytes_per_doc": (common.disk_bytes([setups[-1].index_path]) / common.NUM_DOCS, "B", 1),
    }


def _diff(after: dict, before: dict, *path) -> float:
    def get(d):
        for key in path:
            d = d.get(key, {}) if isinstance(d, dict) else {}
        return d if isinstance(d, (int, float)) else 0
    return get(after) - get(before)


def layer_metrics(dep: Deployment, untraced: Pass, traced: Pass) -> dict:
    """Per-layer metrics from the traced pass's open loops."""
    import layers

    done = [s for ph in traced.opens for s in ph.completed()]
    executed = [s.response for s in done
                if s.status == "ok" and not s.response.get("cached")]
    reports = [r.get("report") or {} for r in executed]
    requests = traced.open_diff("requests")
    ran = (traced.open_diff("ok") - traced.open_diff("cache_hits")
           + traced.open_diff("errors") + traced.open_diff("timeouts"))
    closed_ran = traced.closed_diff("ok") - traced.closed_diff("cache_hits")
    engine_ms = [r.get("elapsed_seconds", 0.0) * 1000.0 for r in reports]
    server_ms = [s.response.get("elapsed_ms", 0.0) for s in done]
    in_window = [sp for sp in traced.spans
                 if any(ph.started <= sp["start"] <= ph.ended for ph in traced.opens)]
    sent = [s for ph in traced.opens for s in ph.samples]

    out = layers.span_metrics(in_window, queries=len(executed), ingests=0)
    out.update(layers.report_metrics(reports))
    out.update(layers.coverage(in_window, sum(engine_ms), sum(server_ms)))
    out.update({
        "service.queue_wait.ms": mean([
            r["elapsed_ms"] - r["report"]["elapsed_seconds"] * 1000.0
            for r in executed if r["report"].get("elapsed_seconds")
        ]),
        "service.wire.ms": mean([
            (s.received - s.sent) * 1000.0 - s.response.get("elapsed_ms", 0.0)
            for s in done
        ]),
        "service.batch.mean_size": share(ran, traced.open_diff("batches", "count")),
        "service.batch.mean_size_saturated": share(
            closed_ran, traced.closed_diff("batches", "count")),
        "service.cache.hit_share": share(traced.open_diff("cache_hits"), requests),
        "service.shed_share": share(traced.open_diff("shed"), requests),
        "loadgen.late_p99_ms": percentile([s.late_ms for s in sent], 99),
    })
    out.update(layers.mode_mix([s.item[1] for s in sent]))
    out.update(layers.setup_metrics(dep.timings))
    out.update(layers.overhead(
        percentile(untraced.best_latencies(), 50), percentile(traced.best_latencies(), 50),
        untraced.best_throughput()[0], traced.best_throughput()[0],
    ))
    return out
