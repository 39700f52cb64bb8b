"""Tests for the collection-statistics cache."""

import pytest

from repro import ContextSearchEngine
from repro.core.stats_cache import CachingSearchEngine, StatisticsCache
from repro.core.statistics import cardinality_spec, df_spec

from .conftest import hammer


class TestStatisticsCache:
    def test_lookup_miss_then_hit(self):
        cache = StatisticsCache()
        key = frozenset({"m1"})
        specs = [cardinality_spec(), df_spec("w")]
        found, missing = cache.lookup(key, specs)
        assert not found and len(missing) == 2
        cache.store(key, {cardinality_spec(): 10})
        found, missing = cache.lookup(key, specs)
        assert found == {cardinality_spec(): 10}
        assert missing == [df_spec("w")]
        assert cache.metrics.spec_hits == 1
        assert cache.metrics.spec_misses == 3

    def test_lru_eviction(self):
        cache = StatisticsCache(max_contexts=2)
        for name in ("a", "b", "c"):
            cache.store(frozenset({name}), {cardinality_spec(): 1})
        assert len(cache) == 2
        assert cache.metrics.evictions == 1
        # "a" was evicted; "b" and "c" remain.
        found, _ = cache.lookup(frozenset({"a"}), [cardinality_spec()])
        assert not found

    def test_concurrent_lookup_and_store_never_raise(self):
        """Batch threads share one cache: an eviction landing between a
        lookup and its LRU refresh must not raise ``KeyError``."""
        cache = StatisticsCache(max_contexts=2)
        spec = cardinality_spec()

        def work(thread_no, i):
            key = (f"p{(thread_no + i) % 4}",)
            cache.store(key, {spec: i})
            cache.lookup(key, [spec])

        assert hammer(work, threads=2) == []
        assert len(cache) <= 2

    def test_lru_refresh_on_lookup(self):
        cache = StatisticsCache(max_contexts=2)
        cache.store(frozenset({"a"}), {cardinality_spec(): 1})
        cache.store(frozenset({"b"}), {cardinality_spec(): 2})
        cache.lookup(frozenset({"a"}), [cardinality_spec()])  # refresh a
        cache.store(frozenset({"c"}), {cardinality_spec(): 3})  # evicts b
        assert cache.lookup(frozenset({"a"}), [cardinality_spec()])[0]
        assert not cache.lookup(frozenset({"b"}), [cardinality_spec()])[0]

    def test_invalidate(self):
        cache = StatisticsCache()
        cache.store(frozenset({"a"}), {cardinality_spec(): 1})
        cache.invalidate()
        assert len(cache) == 0
        assert cache.metrics.invalidations == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            StatisticsCache(max_contexts=0)


class TestCachingSearchEngine:
    @pytest.fixture
    def engines(self, handmade_index):
        cached = CachingSearchEngine(ContextSearchEngine(handmade_index))
        reference = ContextSearchEngine(handmade_index)
        return cached, reference

    def test_cache_never_changes_answers(self, engines):
        cached, reference = engines
        queries = [
            "leukemia | DigestiveSystem",
            "pancreas | Diseases",
            "leukemia | DigestiveSystem",  # repeat: served from cache
            "cancer | Neoplasms",
            "leukemia | DigestiveSystem",
        ]
        for text in queries:
            a = cached.search(text)
            b = reference.search(text)
            assert a.external_ids() == b.external_ids()
            for ha, hb in zip(a.hits, b.hits):
                assert ha.score == pytest.approx(hb.score, abs=1e-12)

    def test_repeat_queries_hit_cache(self, engines):
        cached, _ = engines
        cached.search("leukemia | DigestiveSystem")
        assert cached.metrics.spec_hits == 0
        result = cached.search("leukemia | DigestiveSystem")
        assert cached.metrics.spec_hits > 0
        assert result.report.resolution.path == "cache"

    def test_same_context_different_keywords_partial_hit(self, engines):
        cached, _ = engines
        cached.search("leukemia | DigestiveSystem")
        before = cached.metrics.spec_hits
        # Same context: cardinality/total_length hit; df(pancrea) misses.
        cached.search("pancreas | DigestiveSystem")
        assert cached.metrics.spec_hits > before
        assert cached.metrics.spec_misses > 0

    def test_invalidation_after_ingest(self):
        from repro.index import Document, build_index

        from .conftest import HANDMADE_DOCS

        # A private index: ingestion must not touch the shared fixture.
        index = build_index(HANDMADE_DOCS)
        cached = CachingSearchEngine(ContextSearchEngine(index))
        cached.search("leukemia | DigestiveSystem")
        stats_before = cached.search("leukemia | DigestiveSystem")

        index.append_documents(
            [
                Document(
                    "NEWDOC",
                    {
                        "title": "leukemia in digestive tissue",
                        "abstract": "leukemia study",
                        "mesh": "Diseases DigestiveSystem",
                    },
                )
            ]
        )
        cached.invalidate()
        after = cached.search("leukemia | DigestiveSystem")
        assert after.report.context_size == stats_before.report.context_size + 1

    def test_conventional_unaffected(self, engines):
        cached, reference = engines
        a = cached.search_conventional("leukemia | Diseases")
        b = reference.search_conventional("leukemia | Diseases")
        assert a.external_ids() == b.external_ids()
