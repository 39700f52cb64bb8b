"""Shared plumbing: the checkout layout, the corpus fixture, statistics,
and the server process the served workloads drive.

Everything here reads and writes inside the checkout the benchmark runs
from; artefacts go under ``.bench_build/perfbench``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import re
import signal
import statistics
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

NUM_DOCS = 8000
TOP_K = 10
STOP_TIMEOUT_S = 15.0
# Python salts str hashes per process, and the system's set and dict
# iteration orders, hence the order of a saved catalog's views and the
# server's speed, follow the salt: servers of one build given the same
# requests differed by up to 1.7x in closed-loop throughput.  The
# benchmark runs itself (see run.py) and its servers under this fixed
# salt, so every run measures the same processes.
HASH_SEED = "0"
# Every server banner names its address as "... on host:port ...".
BANNER_ADDRESS = re.compile(r" on ([\w.\-]+):(\d+)")


class BenchError(Exception):
    """A benchmark run that cannot produce a trustworthy result."""


def require_source() -> None:
    """Fail fast when the checkout carries no ``src/repro`` package."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def work_dir(workload: str) -> Path:
    """This run's scratch directory (removed by :func:`clean_work`)."""
    path = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def clean_work() -> None:
    """Remove the scratch directories this process made."""
    for path in WORK_ROOT.glob(f"*-{os.getpid()}"):
        shutil.rmtree(path, ignore_errors=True)


def make_corpus(seed: int, num_docs: int = NUM_DOCS):
    """The synthetic corpus fixture (not part of any timed set-up).

    Generated corpora are cached under ``WORK_ROOT``, keyed by seed, size
    and every source file of the package (the generator draws on modules
    outside ``repro.data``), so later runs of the same code load it
    instead of regenerating it.  The fixture is then moved out of the
    garbage collector's reach: otherwise every full collection during a
    timed step would also traverse it, and the benchmark's own memory
    would weigh on the system's timings.
    """
    from repro import CorpusConfig, generate_corpus

    digest = hashlib.sha256()
    for source in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(source.relative_to(SRC)).encode())
        digest.update(source.read_bytes())
    cache = WORK_ROOT / f"corpus-{seed}-{num_docs}-{digest.hexdigest()[:16]}.pickle"
    if cache.is_file():
        corpus = pickle.loads(cache.read_bytes())
    else:
        corpus = generate_corpus(CorpusConfig(num_docs=num_docs, seed=seed))
        WORK_ROOT.mkdir(parents=True, exist_ok=True)
        partial = cache.with_name(f"{cache.name}.{os.getpid()}")
        partial.write_bytes(pickle.dumps(corpus, protocol=pickle.HIGHEST_PROTOCOL))
        os.replace(partial, cache)
    gc.collect()
    gc.freeze()
    return corpus


# Keyword counts of the Figure 7/8 query buckets.
PAPER_KEYWORD_COUNTS = (2, 3, 4, 5)


def paper_queries(corpus, index, per_count: int, t_c: int) -> List[str]:
    """Figure 7 (large) and Figure 8 (small) context queries, 2-5
    keywords, generated from the corpus (its seed, not the run's)."""
    from repro.data.workloads import generate_performance_workload

    queries: List[str] = []
    for kind in ("large", "small"):
        workload = generate_performance_workload(
            corpus, index, t_c=t_c, kind=kind, keyword_counts=PAPER_KEYWORD_COUNTS,
            queries_per_count=per_count, seed=corpus.config.seed,
        )
        queries.extend(
            f"{' '.join(q.query.keywords)} | {' '.join(q.query.predicates)}"
            for bucket in workload.queries.values() for q in bucket
        )
    return list(dict.fromkeys(queries))


# -- statistics ---------------------------------------------------------


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (0..100); 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(p / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def median(samples: Sequence[float]) -> float:
    """The middle value (the mean of the two middle ones for an even count)."""
    return statistics.median(samples) if samples else 0.0


# Host speed on the shared reference host (2 vCPUs) drifts by up to
# 1.6x for stretches of seconds to a minute: over four minutes, a fixed
# CPU loop's mean over 10-second spans spread 0.35 (interquartile range
# over median), while its fastest 0.5-second window in each span spread
# 0.10.  A run therefore repeats the same work several times, spread
# over the whole run, and reports each piece of work at its fastest, as
# ``timeit`` reports the best repeat: the figure is what the code costs
# while the host is not slowing it, and it moves when the code does.
# Throughput is timed per window of this many consecutive answers.
WINDOW_ANSWERS = 50


def window_seconds(times: Sequence[float], start: float) -> List[float]:
    """Seconds each window of ``WINDOW_ANSWERS`` consecutive events after
    ``start`` took; the ragged tail is left out."""
    ordered = [start] + sorted(times)
    spans = [ordered[i + WINDOW_ANSWERS] - ordered[i]
             for i in range(0, len(ordered) - WINDOW_ANSWERS, WINDOW_ANSWERS)]
    if not spans:
        raise BenchError("phase shorter than one measurement window")
    return spans


def mean(samples: Sequence[float]) -> float:
    return sum(samples) / len(samples) if samples else 0.0


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a live process (default: this one) in MiB."""
    status = Path(f"/proc/{pid or 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in {status}")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident size,
    so a later :func:`peak_rss_mb` covers only what ran in between."""
    Path("/proc/self/clear_refs").write_text("5")


def disk_bytes(paths: Sequence[Path]) -> int:
    total = 0
    for path in paths:
        if path.is_dir():
            total += sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
        else:
            total += path.stat().st_size
    return total


# -- server processes ---------------------------------------------------


class ServerProcess:
    """One ``repro serve`` subprocess.

    Untraced servers run ``python -m repro <argv>``; traced ones run the
    benchmark's launcher, which installs the span recorder and then calls
    the same ``repro.cli.main``.  Either way the process prints one
    banner line ending in ``on host:port``.
    """

    def __init__(self, argv: List[str], trace_out: Optional[Path] = None):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = HASH_SEED
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONUNBUFFERED"] = "1"
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, str(LAUNCHER), str(trace_out), *argv]
        self.trace_out = trace_out
        self.proc = subprocess.Popen(
            cmd,
            cwd=str(ROOT),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = self.proc.stdout.readline()
            match = BANNER_ADDRESS.search(banner)
            if match is None:
                raise BenchError(f"server {argv[0]} printed no address: {banner!r}")
        except BaseException as exc:
            err = self.stop()
            if isinstance(exc, BenchError):
                raise BenchError(f"{exc} {err.strip()}") from None
            raise
        self.address = (match.group(1), int(match.group(2)))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> str:
        """SIGINT (the CLI's clean shutdown), then SIGKILL; always reaps.
        Returns whatever the process wrote to stderr."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            _, err = self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            _, err = self.proc.communicate()
        return err or ""

    def spans(self) -> dict:
        """The span dump a traced server wrote at exit (after :meth:`stop`)."""
        if self.trace_out is None or not self.trace_out.exists():
            raise BenchError(f"traced server wrote no spans to {self.trace_out}")
        return json.loads(self.trace_out.read_text())


class Stages:
    """Wall-clock seconds of a run's stages, for the run's own report."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self._last = time.perf_counter()

    def mark(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] = round(now - self._last, 2)
        self._last = now
