"""Serving benchmark: coalesced concurrent queries vs serial execution.

Standalone script (not a pytest bench) so CI and operators can run it
without the benchmark plugin::

    PYTHONPATH=src python benchmarks/bench_serving.py           # full
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke   # CI

The workload is the serving shape the coalescer exists for: many
concurrent queries with *distinct keywords* over a handful of *shared
heavy contexts*.  Context materialisation dominates per-query cost on
the straightforward path (no catalog is loaded), so a coalesced batch
pays it once per distinct context while serial execution pays it per
query.  Keywords are distinct per query precisely so the serving cache
cannot hit — the measured speedup is the coalescer's, not the cache's.

Three arms, all over real sockets against a :class:`ServerThread`:

* **serial** — coalescing off (batches of one), one worker: every
  request materialises its own context;
* **coalesced** — coalescing on, same single worker and identical
  offered load: concurrent requests batch through the
  :class:`~repro.core.engine.BatchExecutor` and share materialisations.
  One worker in both arms isolates sharing from thread parallelism;
* **overload** — a tiny admission cap under heavy offered load:
  demonstrates load shedding (non-zero shed count, zero errors) and
  that the p99 latency of answered requests stays bounded by the queue
  cap rather than the offered load.

Before any timing is trusted, every coalesced response is asserted
bit-identical (external ids + float scores) to a direct
``engine.search`` of the same query.  Full runs write
``BENCH_serving.json`` at the repo root and exit 1 if the coalesced
arm's throughput falls below 2x serial; ``--smoke`` shrinks the corpus
and checks agreement, non-zero throughput, zero errors, and clean
shutdown only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import ContextSearchEngine, CorpusConfig, generate_corpus  # noqa: E402
from repro.service import ServerThread, ServiceConfig, run_load  # noqa: E402

FULL_DOCS = 8_000
SMOKE_DOCS = 1_200
MIN_SPEEDUP = 2.0
TOP_K = 10


def build_workload(num_docs: int, num_queries: int, num_contexts: int):
    """An engine plus queries: distinct keywords over shared heavy contexts.

    Contexts pair the collection's most frequent predicates (expensive to
    materialise); keywords are distinct mid-frequency terms (cheap to
    score, and they defeat the serving cache by construction).
    """
    corpus = generate_corpus(CorpusConfig(num_docs=num_docs, seed=42))
    index = corpus.build_index()

    predicates = sorted(
        index.predicate_vocabulary, key=index.predicate_frequency
    )
    heavy = predicates[-(num_contexts + 2):]
    # Three heavy predicates per context: the materialisation (the cost
    # coalescing shares) is two intersections over the fattest posting
    # lists in the collection.
    contexts = [
        f"{heavy[-1]} {heavy[-2]} {heavy[i]}" for i in range(num_contexts)
    ]

    terms = [
        t
        for t in sorted(index.vocabulary, key=index.document_frequency)
        if index.document_frequency(t) >= 2
    ]
    # Mid-frequency band: present in the collection, cheap to score.
    band = terms[len(terms) // 2: len(terms) // 2 + num_queries]
    if len(band) < num_queries:
        band = terms[-num_queries:]
    queries = [
        f"{kw} | {contexts[i % len(contexts)]}" for i, kw in enumerate(band)
    ]
    return ContextSearchEngine(index), queries


def serve_and_load(engine, config, queries, threads, repeat,
                   keep_responses=False, timeout_ms=None):
    with ServerThread(engine, config) as st:
        report = run_load(
            st.address,
            queries,
            threads=threads,
            top_k=TOP_K,
            repeat=repeat,
            keep_responses=keep_responses,
            timeout_ms=timeout_ms,
        )
        snapshot = st.service.metrics.snapshot()
    return report, snapshot


def assert_bit_identical(engine, queries, repeat, responses):
    """Every served ranking must equal a direct engine.search, exactly."""
    workload = list(queries) * repeat
    checked = 0
    for i, query in enumerate(workload):
        response = responses.get(i)
        if response is None:
            raise AssertionError(f"query {i} has no ok response")
        serial = engine.search(query, top_k=TOP_K)
        got = [(h["doc"], h["score"]) for h in response["hits"]]
        want = [(h.external_id, h.score) for h in serial.hits]
        if got != want:
            raise AssertionError(
                f"served ranking differs from serial for {query!r}:\n"
                f"  served: {got}\n  serial: {want}"
            )
        checked += 1
    return checked


def run(num_docs, num_queries, num_contexts, threads, repeat):
    print(f"corpus: {num_docs} docs ...", flush=True)
    engine, queries = build_workload(num_docs, num_queries, num_contexts)
    print(
        f"workload: {len(queries)} distinct-keyword queries over "
        f"{num_contexts} shared contexts, {threads} clients, "
        f"repeat={repeat}",
        flush=True,
    )

    # One worker in both arms: the comparison isolates shared context
    # materialisation, not thread parallelism.
    serial_config = ServiceConfig(
        workers=1, max_batch=1, cache_enabled=False
    )
    # max_batch == client concurrency: a closed loop of N clients fills
    # the bucket in one round-trip, so batches flush on size and the
    # timer only backstops stragglers.
    coalesced_config = ServiceConfig(
        workers=1, max_batch=threads, max_wait_ms=10.0,
        cache_enabled=False,
    )

    serial, serial_snap = serve_and_load(
        engine, serial_config, queries, threads, repeat
    )
    if serial.errors or serial.ok != serial.sent:
        raise AssertionError(f"serial arm had failures: {serial.to_dict()}")
    print(
        f"serial:    {serial.qps:.1f} qps "
        f"(p50={serial.latency_ms(50):.1f}ms p99={serial.latency_ms(99):.1f}ms, "
        f"mean batch={serial_snap['batches']['mean_size']:.2f})",
        flush=True,
    )

    coalesced, coalesced_snap = serve_and_load(
        engine, coalesced_config, queries, threads, repeat,
        keep_responses=True,
    )
    if coalesced.errors or coalesced.ok != coalesced.sent:
        raise AssertionError(
            f"coalesced arm had failures: {coalesced.to_dict()}"
        )
    checked = assert_bit_identical(
        engine, queries, repeat, coalesced.responses
    )
    print(
        f"coalesced: {coalesced.qps:.1f} qps "
        f"(p50={coalesced.latency_ms(50):.1f}ms "
        f"p99={coalesced.latency_ms(99):.1f}ms, "
        f"mean batch={coalesced_snap['batches']['mean_size']:.2f}, "
        f"max batch={coalesced_snap['batches']['max_size']}); "
        f"{checked} rankings bit-identical to serial",
        flush=True,
    )

    speedup = coalesced.qps / serial.qps if serial.qps else float("inf")
    print(f"coalescing speedup: {speedup:.2f}x", flush=True)

    # Overload arm: tiny admission cap, heavy offered load.  p99 of
    # answered requests must track the cap, not the offered load: every
    # admitted request waits behind at most max_pending others, so
    # max_pending times the worst single-query latency bounds it (with
    # 3x slack for scheduling noise).
    overload_config = ServiceConfig(
        workers=1, max_batch=8, max_wait_ms=5.0,
        cache_enabled=False, max_pending=8,
    )
    overload, overload_snap = serve_and_load(
        engine, overload_config, queries, threads=max(threads * 2, 16),
        repeat=repeat,
    )
    worst_query_ms = serial.latency_ms(100)
    p99_bound_ms = 3.0 * overload_config.max_pending * worst_query_ms
    overload_p99 = overload.latency_ms(99)
    print(
        f"overload:  {overload.ok} ok / {overload.shed} shed / "
        f"{overload.errors} errors; p99={overload_p99:.1f}ms "
        f"(bound {p99_bound_ms:.1f}ms)",
        flush=True,
    )
    if overload.errors:
        raise AssertionError("overload arm produced errors (expected sheds)")
    if overload.shed == 0:
        raise AssertionError("overload arm shed nothing; cap not exercised")
    if overload_p99 > p99_bound_ms:
        raise AssertionError(
            f"overload p99 {overload_p99:.1f}ms exceeds the admission-cap "
            f"bound {p99_bound_ms:.1f}ms"
        )

    return {
        "serial": {**serial.to_dict(), "batches": serial_snap["batches"]},
        "coalesced": {
            **coalesced.to_dict(),
            "batches": coalesced_snap["batches"],
        },
        "overload": {
            **overload.to_dict(),
            "max_pending": overload_config.max_pending,
            "p99_bound_ms": p99_bound_ms,
            "shed_by_server": overload_snap["shed"],
        },
        "speedup": speedup,
        "rankings_checked": checked,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small corpus, no JSON write, no 2x gate (CI correctness check)",
    )
    parser.add_argument(
        "--threads", type=int, default=8, help="concurrent load clients"
    )
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_serving.json"),
        help="JSON output path (full mode only)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        results = run(
            SMOKE_DOCS, num_queries=16, num_contexts=2,
            threads=min(args.threads, 4), repeat=1,
        )
        if results["serial"]["qps"] <= 0 or results["coalesced"]["qps"] <= 0:
            print("FAIL: zero throughput", file=sys.stderr)
            return 1
        print(
            "smoke mode: non-zero throughput, zero errors, rankings "
            "bit-identical, servers shut down cleanly; JSON not written"
        )
        return 0

    results = run(
        FULL_DOCS, num_queries=48, num_contexts=3,
        threads=args.threads, repeat=3,
    )

    payload = {
        "benchmark": "query service: coalesced vs serial over shared contexts",
        "python": platform.python_version(),
        "host_cpu_cores": os.cpu_count() or 1,
        "num_docs": FULL_DOCS,
        "num_queries": 48,
        "num_contexts": 3,
        "threads": args.threads,
        "repeat": 3,
        "top_k": TOP_K,
        "workers_per_arm": 1,
        "rankings_bit_identical_to_serial": True,
        "min_required_speedup": MIN_SPEEDUP,
        "coalescing_speedup": results["speedup"],
        "arms": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if results["speedup"] < MIN_SPEEDUP:
        print(
            f"FAIL: coalescing speedup {results['speedup']:.2f}x "
            f"< required {MIN_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
