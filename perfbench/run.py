"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload hot_contexts --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all            # every workload, a table each

Run it from the root of a checkout.  Workloads, metrics, units and
bounds are defined in ``BENCHMARK.json``; this script fails if a
workload's output drifts from that list.  With ``--trace 0`` the last
line of standard output is one JSON object carrying every end-to-end
metric; with ``--trace 1`` it carries every per-layer metric, taken from
a traced pass next to an untraced one.  A ranking mismatch against the
in-process engine prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Dict, Tuple

import common
from common import BenchError


def load_spec() -> dict:
    path = common.ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no BENCHMARK.json at {common.ROOT}")
    return json.loads(path.read_text())


def run_workload(name: str, corpus_seed: int, seed: int, seconds: float,
                 trace: bool) -> dict:
    if name == "ingest_mixed":
        import ingest

        return ingest.run(corpus_seed, seed, seconds, trace)
    import served

    return served.run(corpus_seed, seed, seconds, trace)


def shape_metrics(spec: dict, raw: Dict, trace: bool) -> Tuple[dict, list]:
    """Order and label the workload's metrics exactly as BENCHMARK.json
    lists them.  End-to-end metrics arrive as (value, unit, samples); a
    per-layer metric the workload does not exercise reads 0."""
    declared = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    unknown = sorted(set(raw) - names)
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics, rows = {}, []
    for m in declared:
        name, unit = m["name"], m["unit"]
        if trace:
            value, samples = float(raw.get(name, 0.0)), None
        else:
            if name not in raw:
                raise BenchError(f"workload did not measure {name}")
            value, got_unit, samples = raw[name]
            if got_unit != unit:
                raise BenchError(f"{name}: measured in {got_unit}, declared {unit}")
        metrics[name] = {"value": float(value), "unit": unit}
        rows.append((name, float(value), unit, samples))
    return metrics, rows


def print_table(name: str, result: dict, rows: list) -> None:
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} checked={result.get('checked', 0)}")
    print("   stages " + " ".join(f"{k}={v}s" for k, v in result.get("stages", {}).items()))
    for phase in result.get("phases", []):
        print("   phase " + " ".join(f"{k}={v}" for k, v in phase.items()))
    for mismatch in result.get("mismatches", []):
        print(f"   MISMATCH {mismatch}")
    for metric, value, unit, samples in rows:
        count = f"  (n={samples})" if samples is not None else ""
        print(f"   {metric:<36} {value:>14.4f} {unit}{count}")


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != common.HASH_SEED:
        # Start over under the fixed hash salt (see common.HASH_SEED).
        env = {**os.environ, "PYTHONHASHSEED": common.HASH_SEED}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--corpus-seed", type=int, default=42,
                        help="seed of the shared synthetic corpus")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the query streams, modes and deletes")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Servers stop on SIGINT (the CLI's clean shutdown).  A parent that
    # ignores SIGINT, as shells do for background jobs, would pass the
    # ignore on to them; restore the default before starting any.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # A SIGTERM unwinds like an error, so the servers still get stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        common.require_source()
        spec = load_spec()
        known = [w["name"] for w in spec["workloads"]]
        names = known if args.workload == "all" else [args.workload]
        if any(n not in known for n in names):
            raise BenchError(f"unknown workload {args.workload!r} (have {known})")
        seconds = args.seconds or spec["run_seconds"]
        results = {}
        try:
            for name in names:
                result = run_workload(name, args.corpus_seed, args.seed, seconds,
                                      bool(args.trace))
                metrics, rows = shape_metrics(spec, result["metrics"], bool(args.trace))
                print_table(name, result, rows)
                results[name] = {k: result[k] for k in ("correct", "attempted", "failed")}
                results[name]["metrics"] = metrics
        finally:
            common.clean_work()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
