"""Shared fixtures: a handmade mini-collection and a synthetic corpus.

The handmade collection keeps statistics small enough to verify by hand;
the synthetic corpus (session-scoped — generation costs a second or two)
exercises realistic scale and distributions.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import (
    ContextSearchEngine,
    CorpusConfig,
    Document,
    InvertedIndex,
    build_index,
    generate_corpus,
)
from repro.selection import TransactionDatabase
from repro.views import ViewSizeEstimator, WideSparseTable

# The running example of Section 1.1: pancreas/leukemia in a digestive-
# system context, plus filler documents that shape the statistics.
HANDMADE_DOCS = [
    Document(
        "C1",
        {
            "title": "Complications following pancreas transplant",
            "abstract": "pancreas transplant outcomes and pancreas grafts",
            "mesh": "Diseases DigestiveSystem Neoplasms",
        },
    ),
    Document(
        "C2",
        {
            "title": "Organ failure with acute leukemia",
            "abstract": "leukemia treatment and organ failure outcomes",
            "mesh": "Diseases DigestiveSystem",
        },
    ),
    Document(
        "C3",
        {
            "title": "leukemia leukemia studies in cancer research",
            "abstract": "leukemia is common in cancer cohorts leukemia",
            "mesh": "Diseases Neoplasms",
        },
    ),
    Document(
        "C4",
        {
            "title": "gastric cancer and pancreas function",
            "abstract": "pancreas pancreatic enzyme levels",
            "mesh": "Diseases DigestiveSystem",
        },
    ),
    Document(
        "C5",
        {
            "title": "blood disorders overview",
            "abstract": "leukemia lymphoma and anemia incidence",
            "mesh": "Diseases Neoplasms Blood",
        },
    ),
    Document(
        "C6",
        {
            "title": "dietary fiber and digestion",
            "abstract": "fiber intake improves digestion outcomes",
            "mesh": "Diseases DigestiveSystem Nutrition",
        },
    ),
]


@pytest.fixture(scope="session")
def handmade_index() -> InvertedIndex:
    return build_index(HANDMADE_DOCS)


@pytest.fixture(scope="session")
def handmade_engine(handmade_index) -> ContextSearchEngine:
    return ContextSearchEngine(handmade_index)


@pytest.fixture(scope="session")
def corpus():
    """A small but realistic synthetic corpus (deterministic)."""
    return generate_corpus(CorpusConfig(num_docs=1500, seed=101))


@pytest.fixture(scope="session")
def corpus_index(corpus) -> InvertedIndex:
    return corpus.build_index()


@pytest.fixture(scope="session")
def corpus_engine(corpus_index) -> ContextSearchEngine:
    return ContextSearchEngine(corpus_index)


@pytest.fixture(scope="session")
def corpus_table(corpus_index) -> WideSparseTable:
    return WideSparseTable.from_index(corpus_index)


@pytest.fixture(scope="session")
def corpus_db(corpus_table) -> TransactionDatabase:
    return TransactionDatabase(corpus_table.predicate_sets())


@pytest.fixture(scope="session")
def corpus_estimator(corpus_table) -> ViewSizeEstimator:
    return ViewSizeEstimator(corpus_table, seed=7)


def hammer(work, threads: int, seconds: float = 1.0) -> list:
    """Call ``work(thread_no, i)`` in a loop on ``threads`` threads for
    ``seconds`` under a 1µs switch interval (so unlocked check-then-act
    sequences interleave); returns the exceptions the threads raised."""
    errors: list = []
    stop = time.monotonic() + seconds

    def run(thread_no: int) -> None:
        i = 0
        try:
            while time.monotonic() < stop:
                work(thread_no, i)
                i += 1
        except Exception as exc:  # noqa: BLE001 - reported to the test
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=run, args=(n,), daemon=True)
            for n in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=seconds + 30.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(worker.is_alive() for worker in workers)
    return errors
