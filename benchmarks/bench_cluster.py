"""Cluster benchmark: router + subprocess shard workers vs single node.

Standalone script (not a pytest bench) so CI and operators can run it
without the benchmark plugin::

    PYTHONPATH=src python benchmarks/bench_cluster.py           # full
    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke   # CI

Every arm serves the same workload of heavy-context queries over real
sockets.  The workers are genuine ``python -m repro worker`` subprocesses
on localhost — separate interpreters, separate GILs — loading per-shard
v4 artefacts written by ``save_sharded_index``; the router runs
in-process so its metrics are directly inspectable.

Arms:

* **single** — one :class:`ServerThread` over the flat engine: the
  baseline the cluster has to justify itself against;
* **cluster-2 / cluster-4** — a router scatter-gathering over 2 and 4
  subprocess workers (replication 1): throughput scaling across
  processes;
* **kill-replica** — 2 shards x 2 replicas; one replica of shard 0 is
  SIGTERMed between two timed passes of the same workload, with health
  probes off so it stays in rotation and every routed attempt at the
  corpse must fail over in-flight.  Gates: **zero** query errors or
  sheds, at least
  one failover counted in router metrics, rankings still bit-identical,
  and p99 bounded by one failed attempt plus a normal query (with
  slack) — failover must cost a retry, not a timeout storm.
* **adaptive** — a drifting workload (two phases over disjoint context
  bands) against a live 2-shard cluster.  The router reselects view
  catalogs against the whole-collection reference index and *ships*
  them to the workers (crc-verified ``install_catalog`` frames; each
  worker re-materialises the views over its own shard slice and acks
  with its version vector).  Gates: the shipped catalog lifts the
  drifted phase's view-hit rate over the stale phase-A catalog, every
  worker acks the router's generation, and rankings stay bit-identical
  through **every** swap — checked before any rate or timing is
  trusted.

Before any timing is trusted, every workload query is issued once
through the router in each of the three modes and asserted bit-identical
(external ids + float scores, and error strings for failing queries)
to the in-process engine; the timed runs then re-check every kept
response.  Full runs write ``BENCH_cluster.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import (  # noqa: E402
    ContextSearchEngine,
    CorpusConfig,
    IncrementalReselector,
    generate_corpus,
)
from repro.core.query import parse_query  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.index.sharded import ShardedInvertedIndex  # noqa: E402
from repro.selection import workload_from_queries  # noqa: E402
from repro.views import ViewSizeEstimator, WideSparseTable  # noqa: E402
from repro.service import (  # noqa: E402
    ServerThread,
    ServiceClient,
    ServiceConfig,
    run_load,
)
from repro.service.cluster import ClusterConfig, router_thread  # noqa: E402
from repro.storage import save_sharded_index  # noqa: E402

FULL_DOCS = 8_000
SMOKE_DOCS = 1_200
TOP_K = 10
MODES = ("context", "conventional", "disjunctive")
ATTEMPT_TIMEOUT_MS = 2000.0
WORKER_STARTUP_S = 60.0


def build_workload(num_docs: int, num_queries: int, num_contexts: int):
    """A flat engine plus heavy-context queries (the serving shape the
    cluster exists for: context materialisation dominates, so shard
    parallelism has something to split)."""
    corpus = generate_corpus(CorpusConfig(num_docs=num_docs, seed=42))
    index = corpus.build_index()
    predicates = sorted(
        index.predicate_vocabulary, key=index.predicate_frequency
    )
    heavy = predicates[-(num_contexts + 2):]
    contexts = [
        f"{heavy[-1]} {heavy[-2]} {heavy[i]}" for i in range(num_contexts)
    ]
    terms = [
        t
        for t in sorted(index.vocabulary, key=index.document_frequency)
        if index.document_frequency(t) >= 2
    ]
    band = terms[len(terms) // 2: len(terms) // 2 + num_queries]
    if len(band) < num_queries:
        band = terms[-num_queries:]
    queries = [
        f"{kw} | {contexts[i % len(contexts)]}" for i, kw in enumerate(band)
    ]
    return ContextSearchEngine(index), index, queries


def build_drift_phases(engine, index, num_queries: int, num_contexts: int):
    """Two query phases over disjoint context bands — phase B is genuine
    workload drift (none of its context sets appear in phase A), so a
    catalog trained on phase A cannot answer phase B from views."""
    predicates = sorted(
        index.predicate_vocabulary, key=index.predicate_frequency
    )
    width = num_contexts + 2
    if len(predicates) < 2 * width:
        raise RuntimeError(
            f"corpus has {len(predicates)} predicates, need {2 * width} "
            "for two disjoint context bands"
        )
    bands = [predicates[-width:], predicates[-2 * width: -width]]
    terms = [
        t
        for t in sorted(index.vocabulary, key=index.document_frequency)
        if index.document_frequency(t) >= 2
    ]
    mid = len(terms) // 2
    phases = []
    for band_id, heavy in enumerate(bands):
        contexts = [
            f"{heavy[-1]} {heavy[-2]} {heavy[i]}"
            for i in range(num_contexts)
        ]
        lo = mid + band_id * num_queries
        keywords = terms[lo: lo + num_queries]
        if len(keywords) < num_queries:
            keywords = terms[-num_queries:]
        candidates = [
            f"{kw} | {contexts[i % len(contexts)]}"
            for i, kw in enumerate(keywords)
        ]
        # Keep only queries the reference engine answers: the view-hit
        # gate needs servable queries (failing ones are covered by the
        # bit-identity arms, error strings and all).
        queries = [
            q
            for q in candidates
            if reference_outcome(engine, q, "context")[0] == "ok"
        ]
        if len(queries) < max(4, num_contexts):
            raise RuntimeError(
                f"drift band {band_id} kept {len(queries)}/"
                f"{len(candidates)} servable queries — corpus too sparse"
            )
        phases.append(queries)
    return phases


# ---------------------------------------------------------------------------
# Subprocess worker management


def wait_for_worker(host: str, port: int, proc) -> None:
    deadline = time.monotonic() + WORKER_STARTUP_S
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            out, err = proc.communicate()
            raise RuntimeError(
                f"worker on port {port} exited {proc.returncode}: {err}"
            )
        try:
            client = ServiceClient(host, port, timeout=5.0)
        except OSError:
            time.sleep(0.1)
            continue
        try:
            health = client.request({"op": "healthz"})
        finally:
            client.close()
        if health.get("status") == "ok":
            return
        time.sleep(0.1)
    raise RuntimeError(f"worker on port {port} never became healthy")


class ClusterArm:
    """Subprocess workers + an in-process router, started and torn down
    around one arm of the benchmark."""

    def __init__(self, shard_files, replication: int):
        self.shard_files = shard_files
        self.replication = replication
        self.procs = []
        self.router = None

    def __enter__(self):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        groups = []
        try:
            for shard_id, shard_file in enumerate(self.shard_files):
                replicas = []
                for _ in range(self.replication):
                    proc = subprocess.Popen(
                        [
                            sys.executable, "-u", "-m", "repro", "worker",
                            "--index", str(shard_file),
                            "--shard-id", str(shard_id),
                            "--port", "0",
                        ],
                        env=env,
                        stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE,
                        text=True,
                    )
                    # The worker prints "... on host:port" once bound.
                    banner = proc.stdout.readline()
                    try:
                        address = banner.rsplit("on ", 1)[1].strip()
                        host, port = address.rsplit(":", 1)
                        port = int(port)
                    except (IndexError, ValueError):
                        proc.terminate()
                        _, err = proc.communicate()
                        raise RuntimeError(
                            f"worker printed no address: {banner!r} {err}"
                        ) from None
                    wait_for_worker(host, port, proc)
                    self.procs.append(proc)
                    replicas.append(f"{host}:{port}")
                groups.append({"shard": shard_id, "replicas": replicas})
            cluster = ClusterConfig.from_payload(
                {
                    "kind": "cluster",
                    "num_shards": len(self.shard_files),
                    "replication": self.replication,
                    "groups": groups,
                    "router": {
                        # No probe sweep mid-arm: failovers in the kill
                        # arm must come from in-flight retries, and a
                        # probe marking the dead replica down first
                        # would hide them.
                        "health_interval_s": 300.0,
                        "fail_threshold": 2,
                        "attempt_timeout_ms": ATTEMPT_TIMEOUT_MS,
                    },
                }
            )
            self.router = router_thread(
                cluster,
                # Result cache off: timed arms must measure scatter-
                # gather, not cache hits, and the kill arm's failover
                # gate needs every repeat to reach a shard.
                ServiceConfig(
                    workers=1, drain_timeout=0.5, cache_enabled=False
                ),
            )
            self.router.start()
            return self
        except BaseException:
            self.__exit__(None, None, None)
            raise

    def __exit__(self, *exc_info):
        if self.router is not None:
            self.router.stop(timeout=15.0)
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.communicate(timeout=15.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()

    @property
    def address(self):
        return self.router.address

    def kill_worker(self, index: int) -> None:
        self.procs[index].send_signal(signal.SIGTERM)

    def metrics(self) -> dict:
        client = ServiceClient(*self.router.address)
        try:
            return client.request({"op": "metrics"})
        finally:
            client.close()


# ---------------------------------------------------------------------------
# Bit-identity


def reference_outcome(engine, query: str, mode: str):
    try:
        if mode == "conventional":
            results = engine.search_conventional(query, top_k=TOP_K)
        elif mode == "disjunctive":
            results = engine.search_disjunctive(query, top_k=TOP_K)
        else:
            results = engine.search(query, top_k=TOP_K)
    except ReproError as exc:
        return "error", f"{type(exc).__name__}: {exc}"
    return "ok", [(h.external_id, h.score) for h in results.hits]


def assert_identical_before_timing(engine, address, queries) -> int:
    """Issue every query in every mode through the router once and
    compare against the in-process engine, before any timed run."""
    checked = 0
    client = ServiceClient(*address)
    try:
        for mode in MODES:
            for query in queries:
                response = client.request(
                    {"op": "query", "query": query, "mode": mode,
                     "top_k": TOP_K}
                )
                status, want = reference_outcome(engine, query, mode)
                if response["status"] != status:
                    raise AssertionError(
                        f"router status {response['status']!r} != "
                        f"{status!r} for {query!r} ({mode})"
                    )
                if status == "ok":
                    got = [(h["doc"], h["score"]) for h in response["hits"]]
                    if got != want:
                        raise AssertionError(
                            f"router ranking differs for {query!r} ({mode}):"
                            f"\n  router: {got}\n  serial: {want}"
                        )
                elif response["error"] != want:
                    raise AssertionError(
                        f"router error differs for {query!r} ({mode}): "
                        f"{response['error']!r} != {want!r}"
                    )
                checked += 1
    finally:
        client.close()
    return checked


def assert_responses_identical(engine, queries, repeat, responses) -> int:
    workload = list(queries) * repeat
    for i, query in enumerate(workload):
        response = responses.get(i)
        if response is None:
            raise AssertionError(f"query {i} has no ok response")
        _, want = reference_outcome(engine, query, "context")
        got = [(h["doc"], h["score"]) for h in response["hits"]]
        if got != want:
            raise AssertionError(
                f"served ranking differs from serial for {query!r}:\n"
                f"  served: {got}\n  serial: {want}"
            )
    return len(workload)


# ---------------------------------------------------------------------------
# Arms


def run_single(engine, queries, threads, repeat):
    config = ServiceConfig(workers=1, max_batch=1, cache_enabled=False)
    with ServerThread(engine, config) as st:
        report = run_load(
            st.address, queries, threads=threads, top_k=TOP_K,
            repeat=repeat, keep_responses=True,
        )
    if report.errors or report.ok != report.sent:
        raise AssertionError(f"single arm had failures: {report.to_dict()}")
    checked = assert_responses_identical(
        engine, queries, repeat, report.responses
    )
    print(
        f"single:    {report.qps:.1f} qps "
        f"(p50={report.latency_ms(50):.1f}ms "
        f"p99={report.latency_ms(99):.1f}ms); "
        f"{checked} rankings bit-identical",
        flush=True,
    )
    return report


def run_cluster(engine, shard_files, queries, threads, repeat):
    with ClusterArm(shard_files, replication=1) as arm:
        checked = assert_identical_before_timing(engine, arm.address, queries)
        report = run_load(
            arm.address, queries, threads=threads, top_k=TOP_K,
            repeat=repeat, keep_responses=True,
        )
        if report.errors or report.shed or report.ok != report.sent:
            raise AssertionError(
                f"cluster-{len(shard_files)} arm had failures: "
                f"{report.to_dict()}"
            )
        assert_responses_identical(engine, queries, repeat, report.responses)
        metrics = arm.metrics()
    print(
        f"cluster-{len(shard_files)}: {report.qps:.1f} qps "
        f"(p50={report.latency_ms(50):.1f}ms "
        f"p99={report.latency_ms(99):.1f}ms); "
        f"{checked} pre-timing checks + "
        f"{report.ok} timed rankings bit-identical",
        flush=True,
    )
    return report, metrics


def run_kill_replica(engine, shard_files, queries, threads, repeat,
                     baseline_p99_ms):
    """2 shards x 2 replicas; SIGTERM one replica of shard 0 mid-workload.

    The workload runs in two timed passes: all replicas up, then — with
    the first replica of shard 0 dead but still in rotation (probes are
    effectively off, see ``health_interval_s``) — a second pass where the
    router keeps routing attempts at the corpse and must fail over to
    its sibling, in-flight, on every hit.  That makes the failover gate
    deterministic instead of racing a wall-clock timer against how fast
    the load happens to drain.
    """
    with ClusterArm(shard_files, replication=2) as arm:
        assert_identical_before_timing(engine, arm.address, queries)
        before = run_load(
            arm.address, queries, threads=threads, top_k=TOP_K,
            repeat=repeat, keep_responses=True,
        )
        arm.kill_worker(0)
        arm.procs[0].wait(timeout=15.0)
        after = run_load(
            arm.address, queries, threads=threads, top_k=TOP_K,
            repeat=repeat, keep_responses=True,
        )
        metrics = arm.metrics()
    for label, report in (("pre-kill", before), ("post-kill", after)):
        if report.errors or report.shed or report.timeouts:
            raise AssertionError(
                f"kill arm had {label} failures: {report.to_dict()}"
            )
        if report.ok != report.sent:
            raise AssertionError(
                f"kill arm answered {report.ok}/{report.sent} {label}"
            )
        assert_responses_identical(engine, queries, repeat, report.responses)
    failovers = metrics["router"]["failovers"]
    if failovers < 1:
        raise AssertionError(
            "kill arm counted no failovers — the dead replica was never "
            "retried despite staying in rotation"
        )
    # A failed-over query pays at most one failed attempt (bounded by
    # the per-attempt deadline; a refused localhost connect is far
    # cheaper) plus one normal query; 3x baseline covers queueing noise.
    p99 = after.latency_ms(99)
    bound = ATTEMPT_TIMEOUT_MS + 3.0 * max(baseline_p99_ms, 1.0)
    if p99 > bound:
        raise AssertionError(
            f"kill arm post-kill p99 {p99:.1f}ms exceeds failover bound "
            f"{bound:.1f}ms"
        )
    print(
        f"kill-replica: {before.ok + after.ok}/{before.sent + after.sent} "
        f"ok, 0 errors, {failovers} failovers, "
        f"post-kill p99={p99:.1f}ms (bound {bound:.1f}ms); "
        "rankings bit-identical",
        flush=True,
    )
    return after, metrics


def run_adaptive(engine, index, shard_files, phases, threads, repeat):
    """Drifting workload against a live 2-shard cluster, static vs
    shipped-catalog (see the module docstring's adaptive bullet)."""
    queries_a, queries_b = phases
    contexts = {
        frozenset(parse_query(q).predicates) for q in queries_a + queries_b
    }
    estimator = ViewSizeEstimator(WideSparseTable.from_index(index), seed=0)
    # Enough budget to cover either phase outright (plus headroom):
    # the gate measures adaptivity, not budget pressure.
    budget = int(1.2 * sum(estimator.exact(c) for c in contexts)) + 1
    reselector = IncrementalReselector(storage_budget=budget)

    def reselect(queries, trigger):
        workload = workload_from_queries(
            [parse_query(q) for q in queries]
        )
        return reselector.reselect(index, workload, trigger=trigger)

    with ClusterArm(shard_files, replication=1) as arm:
        service = arm.router.service

        def view_hit_rate(queries) -> float:
            client = ServiceClient(*arm.address)
            hits = 0
            try:
                for query in queries:
                    response = client.request(
                        {"op": "query", "query": query, "top_k": TOP_K}
                    )
                    if response["status"] != "ok":
                        raise AssertionError(
                            f"adaptive arm query failed: {response}"
                        )
                    path = (
                        (response.get("report") or {})
                        .get("resolution", {})
                        .get("path")
                    ) or ""
                    # Any shard answering from views counts; shards
                    # whose slice has no matching docs fall back per
                    # shard ("sharded-mixed").
                    hits += path in ("sharded-views", "sharded-mixed")
            finally:
                client.close()
            return hits / len(queries)

        def timed(queries):
            report = run_load(
                arm.address, queries, threads=threads, top_k=TOP_K,
                repeat=repeat, keep_responses=True,
            )
            if report.errors or report.shed or report.ok != report.sent:
                raise AssertionError(
                    f"adaptive arm had failures: {report.to_dict()}"
                )
            assert_responses_identical(
                engine, queries, repeat, report.responses
            )
            return report

        everything = queries_a + queries_b
        checked = assert_identical_before_timing(
            engine, arm.address, everything
        )

        # Swap 1: train on phase A, ship to the workers.
        catalog_a, report_a = reselect(queries_a, "train")
        generation = service.install_catalog(
            catalog_a, info=report_a.to_dict()
        )
        assert generation == 1, generation
        checked += assert_identical_before_timing(
            engine, arm.address, everything
        )
        hit_a_on_a = view_hit_rate(queries_a)
        static_hit = view_hit_rate(queries_b)
        static_load = timed(queries_b)

        # The workload drifts to phase B; swap 2 ships the reselection.
        catalog_b, report_b = reselect(queries_b, "drift")
        generation = service.install_catalog(
            catalog_b, info=report_b.to_dict()
        )
        assert generation == 2, generation
        checked += assert_identical_before_timing(
            engine, arm.address, queries_b
        )
        adaptive_hit = view_hit_rate(queries_b)
        adaptive_load = timed(queries_b)

        # Swap 3: dropping every catalog is just as rank-safe.
        assert service.install_catalog(None) == 3
        checked += assert_identical_before_timing(
            engine, arm.address, queries_b
        )

        # Every worker acked the router's final generation.
        client = ServiceClient(*arm.address)
        try:
            health = client.request({"op": "healthz"})
        finally:
            client.close()
        for group in health["groups"]:
            for replica in group["replicas"]:
                acked = (replica.get("version_vector") or {}).get(
                    "catalog_generation"
                )
                if acked != 3:
                    raise AssertionError(
                        f"worker {replica['address']} acked catalog "
                        f"generation {acked}, router is at 3"
                    )

    if hit_a_on_a < 0.9:
        raise AssertionError(
            f"phase-A catalog missed its own workload: "
            f"view-hit rate {hit_a_on_a:.2f}"
        )
    if adaptive_hit <= static_hit:
        raise AssertionError(
            f"shipped catalog did not lift the drifted view-hit rate: "
            f"static {static_hit:.2f}, adaptive {adaptive_hit:.2f}"
        )
    if adaptive_hit < 0.9:
        raise AssertionError(
            f"shipped catalog view-hit rate {adaptive_hit:.2f} < 0.9 on "
            "the workload it was selected for"
        )
    print(
        f"adaptive:  drifted view-hit rate {static_hit:.2f} -> "
        f"{adaptive_hit:.2f} after shipping "
        f"({report_b.built_views} built, {report_b.reused_views} reused); "
        f"static {static_load.qps:.1f} qps vs shipped "
        f"{adaptive_load.qps:.1f} qps; {checked} rankings bit-identical "
        "across 3 swaps",
        flush=True,
    )
    return {
        "phase_a_queries": len(queries_a),
        "phase_b_queries": len(queries_b),
        "storage_budget": budget,
        "view_hit_rate_phase_a": hit_a_on_a,
        "view_hit_rate_drifted_static": static_hit,
        "view_hit_rate_drifted_shipped": adaptive_hit,
        "drift_reselection": report_b.to_dict(),
        "static": static_load.to_dict(),
        "shipped": adaptive_load.to_dict(),
        "swaps": 3,
        "rankings_bit_identical_across_swaps": True,
    }


# ---------------------------------------------------------------------------


def shard_artifacts(index, num_shards: int, directory: Path):
    """Write per-shard v4 artefacts for subprocess workers to load."""
    sharded = ShardedInvertedIndex.from_index(
        index, num_shards, partitioner="hash"
    )
    manifest = directory / f"c{num_shards}.bin"
    save_sharded_index(sharded, manifest, format=4)
    files = [
        directory / f"c{num_shards}.shard{i}.bin" for i in range(num_shards)
    ]
    for path in files:
        if not path.exists():
            raise RuntimeError(f"expected shard artefact {path} missing")
    return files


def run(num_docs, num_queries, num_contexts, threads, repeat):
    print(f"corpus: {num_docs} docs ...", flush=True)
    engine, index, queries = build_workload(
        num_docs, num_queries, num_contexts
    )
    print(
        f"workload: {len(queries)} heavy-context queries, "
        f"{threads} clients, repeat={repeat}",
        flush=True,
    )
    results = {}
    with tempfile.TemporaryDirectory(prefix="bench_cluster_") as tmp:
        tmp = Path(tmp)
        two = shard_artifacts(index, 2, tmp)
        four = shard_artifacts(index, 4, tmp)

        single = run_single(engine, queries, threads, repeat)
        results["single"] = single.to_dict()

        cluster2, metrics2 = run_cluster(engine, two, queries, threads, repeat)
        results["cluster_2"] = {
            **cluster2.to_dict(),
            "router": metrics2["router"],
        }
        cluster4, metrics4 = run_cluster(
            engine, four, queries, threads, repeat
        )
        results["cluster_4"] = {
            **cluster4.to_dict(),
            "router": metrics4["router"],
        }
        for count, report in (("2", cluster2), ("4", cluster4)):
            speedup = report.qps / single.qps if single.qps else float("inf")
            results[f"cluster_{count}"]["speedup_vs_single"] = speedup
            print(f"cluster-{count} vs single: {speedup:.2f}x", flush=True)

        kill, kill_metrics = run_kill_replica(
            engine, two, queries, threads, repeat,
            baseline_p99_ms=cluster2.latency_ms(99),
        )
        results["kill_replica"] = {
            **kill.to_dict(),
            "router": kill_metrics["router"],
        }

        phases = build_drift_phases(
            engine, index,
            num_queries=max(6, len(queries) // 2),
            num_contexts=2,
        )
        results["adaptive"] = run_adaptive(
            engine, index, two, phases, threads, repeat
        )
    engine.close()
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small corpus, no JSON write (CI correctness check: "
        "bit-identity, zero-error failover, clean shutdown)",
    )
    parser.add_argument(
        "--threads", type=int, default=8, help="concurrent load clients"
    )
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_cluster.json"),
        help="JSON output path (full mode only)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        run(
            SMOKE_DOCS, num_queries=12, num_contexts=2,
            threads=min(args.threads, 4), repeat=2,
        )
        print(
            "smoke mode: rankings bit-identical through subprocess workers "
            "in all modes, kill arm zero-error with counted failovers, "
            "shipped catalogs lift the drifted view-hit rate rank-safely, "
            "clean shutdown; JSON not written"
        )
        return 0

    results = run(
        FULL_DOCS, num_queries=48, num_contexts=3,
        threads=args.threads, repeat=3,
    )
    payload = {
        "benchmark": "distributed serving: router + subprocess shard "
        "workers vs single node",
        "python": platform.python_version(),
        "host_cpu_cores": os.cpu_count() or 1,
        "num_docs": FULL_DOCS,
        "num_queries": 48,
        "num_contexts": 3,
        "threads": args.threads,
        "repeat": 3,
        "top_k": TOP_K,
        "attempt_timeout_ms": ATTEMPT_TIMEOUT_MS,
        "rankings_bit_identical_to_single_node": True,
        "kill_arm_zero_errors": True,
        "adaptive_arm_rank_safe_swaps": True,
        "arms": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
