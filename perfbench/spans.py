"""The span recorder: wraps each layer's public functions from outside.

``install(recorder)`` replaces every binding of the traced functions that
callers actually look up: a method on its class, and a module-level
function in *every* loaded ``repro`` module that bound it with
``from x import f`` (that binding is made at import time, so patching
only the defining module would miss it).  Each call records one span:
name, start, end, self time, parent span and request id.

Spans nest per thread.  Self time is the span's duration minus the
durations of its direct children, so the self times of one thread's
spans add up to the time covered by its outermost spans.  Spans stay in
memory until :meth:`SpanRecorder.dump`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import List, Tuple

# (span name, module, attribute path).  The span name's first component
# is the layer.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("index.intersect", "repro.index.intersection", "intersect"),
    ("index.intersect", "repro.index.intersection", "intersect_skip_merge"),
    ("index.intersect", "repro.index.intersection", "intersect_ids"),
    ("index.intersect", "repro.index.intersection", "intersect_many"),
    ("index.intersect", "repro.index.kernels", "adaptive_intersect"),
    ("index.intersect", "repro.index.kernels", "intersect_ids_with_tfs"),
    ("index.aggregate", "repro.index.aggregation", "aggregate_count"),
    ("index.aggregate", "repro.index.aggregation", "aggregate_sum"),
    ("index.aggregate", "repro.index.aggregation", "aggregate_generic"),
    ("index.block_decode", "repro.index.compression", "decode_block"),
    ("core.plan", "repro.core.optimizer", "Optimizer.plan"),
    ("core.view_scan", "repro.core.operators", "ViewScan.run"),
    ("core.straightforward", "repro.core.operators", "StraightforwardResolve.run"),
    ("core.topk", "repro.core.operators", "MaxScoreTopK.run"),
    ("core.score", "repro.core.scoring", "score_candidates"),
    ("core.score", "repro.core.scoring", "rank_candidates"),
    ("views.maintain", "repro.views.maintenance", "maintain_catalog"),
    ("views.maintain", "repro.views.maintenance", "retract_catalog"),
    ("lifecycle.wal", "repro.lifecycle.wal", "WriteAheadLog.log_add"),
    ("lifecycle.wal", "repro.lifecycle.wal", "WriteAheadLog.log_delete"),
    ("lifecycle.add", "repro.lifecycle.index", "SegmentedIndex.add_documents"),
    ("lifecycle.add", "repro.lifecycle.index", "SegmentedIndex.delete_documents"),
    ("lifecycle.snapshot", "repro.lifecycle.engine", "LifecycleEngine.current_engine"),
    ("lifecycle.flush", "repro.lifecycle.index", "SegmentedIndex.flush"),
    ("lifecycle.compact", "repro.lifecycle.index", "SegmentedIndex.compact"),
)

# Modules whose import completes the set of bindings to patch.
PRELOAD = ("repro", "repro.cli", "repro.lifecycle", "repro.service")

# Field order of one recorded span.
FIELDS = ("name", "start", "end", "self", "id", "parent", "rid")


class SpanRecorder:
    """In-memory spans with per-thread nesting."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            span_id = next(recorder._ids)
            # frame: [span id, children's total duration, request id].
            # The request id is the outermost span's id on this thread:
            # one layer call tree per query step or ingest call.
            frame = [span_id, 0.0, parent[2] if parent else span_id]
            stack.append(frame)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                recorder.spans.append((
                    name, start, end, duration - frame[1], span_id,
                    parent[0] if parent else None, frame[2],
                ))

        traced.__wrapped_by_perfbench__ = True
        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": FIELDS, "spans": self.spans}))


def _resolve(module_name: str, attr_path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: SpanRecorder) -> None:
    """Wrap every target binding with ``recorder``'s spans."""
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    for name, module_name, attr_path in TARGETS:
        owner, attr = _resolve(module_name, attr_path)
        original = getattr(owner, attr)
        if getattr(original, "__wrapped_by_perfbench__", False):
            continue
        traced = recorder.wrap(name, original)
        if isinstance(owner, type):
            setattr(owner, attr, traced)
            continue
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


def load_spans(payload: dict) -> List[dict]:
    fields = payload["fields"]
    return [dict(zip(fields, row)) for row in payload["spans"]]
