"""Per-layer metrics shared by the served and embedded workloads.

Span-derived times are self times (see :mod:`spans`), in milliseconds
per query for the query layers (``index``, ``core``) and per ingest call
for the write layers (``views.maintain``, ``lifecycle``).  Report-derived
values are means over executed (not cache-answered) queries.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Sequence

from common import mean, share

QUERY_SPANS = (
    "index.intersect", "index.aggregate", "index.block_decode",
    "core.plan", "core.view_scan", "core.straightforward", "core.topk",
    "core.score",
)
INGEST_SPANS = (
    "views.maintain", "lifecycle.wal", "lifecycle.add", "lifecycle.snapshot",
    "lifecycle.flush", "lifecycle.compact",
)
MODES = ("context", "disjunctive", "conventional")


def span_metrics(spans: Iterable[dict], queries: int, ingests: int) -> Dict[str, float]:
    busy: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        busy[span["name"]] += span["self"] * 1000.0
        calls[span["name"]] += 1
    out = {f"{name}.ms": share(busy[name], queries) for name in QUERY_SPANS}
    out.update({f"{name}.ms": share(busy[name], ingests) for name in INGEST_SPANS})
    out["index.intersect.calls"] = share(calls["index.intersect"], queries)
    out["index.block_decode.calls"] = share(calls["index.block_decode"], queries)
    return out


def report_metrics(reports: Sequence[dict]) -> Dict[str, float]:
    """Means over execution reports (the ``report`` of each response)."""
    counters = [r.get("counter") or {} for r in reports]
    resolutions = [r.get("resolution") or {} for r in reports]
    ranked = [res for res in resolutions if res.get("path") != "conventional"]
    from_views = sum(res.get("specs_from_views", 0) for res in ranked)
    fallback = sum(res.get("specs_from_fallback", 0) for res in ranked)
    topk = [r["topk"] for r in reports if r.get("topk")]
    return {
        "core.engine.ms": mean([r.get("elapsed_seconds", 0.0) * 1000.0 for r in reports]),
        "core.model_cost": mean([c.get("model_cost", 0) for c in counters]),
        "index.entries_scanned": mean([c.get("entries_scanned", 0) for c in counters]),
        "index.segments_skipped": mean([c.get("segments_skipped", 0) for c in counters]),
        "core.views_path_share": share(
            sum(1 for res in ranked if str(res.get("path", "")).endswith("views")),
            len(ranked)),
        "views.tuples_scanned": mean([res.get("view_tuples_scanned", 0) for res in ranked]),
        "views.fallback_share": share(fallback, from_views + fallback),
        "core.topk.blocks_skipped_share": share(
            sum(t.get("blocks_skipped", 0) for t in topk),
            sum(t.get("blocks_considered", 0) for t in topk)),
    }


def coverage(spans: Sequence[dict], engine_ms: float, server_ms: float) -> Dict[str, float]:
    """What share of engine time and of server time the named query-layer
    spans cover; the rest is unaccounted, not hidden."""
    covered = sum(s["self"] for s in spans if s["name"] in QUERY_SPANS) * 1000.0
    return {
        "trace.covered_engine_share": share(covered, engine_ms),
        "trace.covered_server_share": share(covered, server_ms),
    }


def mode_mix(modes: Sequence[str]) -> Dict[str, float]:
    return {f"mix.{m}_share": share(sum(1 for x in modes if x == m), len(modes))
            for m in MODES}


def setup_metrics(timings: Dict[str, float]) -> Dict[str, float]:
    return {f"setup.{k}.s": timings.get(k, 0.0)
            for k in ("index_build", "save", "select_views", "server_ready")}


def overhead(untraced_p50_ms: float, traced_p50_ms: float,
             untraced_qps: float, traced_qps: float) -> Dict[str, float]:
    """Traced minus untraced end-to-end numbers on the same workload."""
    return {
        "trace.overhead.query_p50_ms": traced_p50_ms - untraced_p50_ms,
        "trace.overhead.throughput_qps": traced_qps - untraced_qps,
    }

