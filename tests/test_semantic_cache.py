"""The result cache's semantic (normalized-key) lookup level.

Unit tests cover the two-level :meth:`ResultCache.lookup` mechanics —
exact-first probing, separate hit counters, pointer persistence and
dangling pointers after eviction — and the invariant the tier was designed
around: the exact tier's on-disk layout and counters are untouched by
semantic entries.

The differential class is the acceptance check from the other side: for
each fast bundled model, a semantically respelled variant (renamed
parameters, reordered commutative operands, respelled literals) must be
served from the warm cache at the semantic level with a byte-identical
payload.
"""

import json

import pytest

from repro.benchsuite.suite import get_benchmark
from repro.benchsuite.table1 import run_table1_batch
from repro.benchsuite.variants import semantic_variant
from repro.core.config import SynthesisConfig
from repro.csg.build import cube, sphere, union
from repro.service.cache import ResultCache, cache_key, semantic_cache_key

#: Quick models (the batch differential suite's blocking subset).
_FAST_SUBSET = ["sander", "soldering", "hc-bits", "relay-box", "compose"]


@pytest.fixture
def keys():
    """Exact + semantic keys for a term and a semantically equal respelling."""
    config = SynthesisConfig()
    original = union(cube(), sphere())
    respelled = union(sphere(), cube())
    assert original != respelled
    assert semantic_cache_key(original, config) == semantic_cache_key(respelled, config)
    return {
        "exact": cache_key(original, config),
        "exact_respelled": cache_key(respelled, config),
        "semantic": semantic_cache_key(original, config),
    }


class TestTwoLevelLookup:
    def test_exact_key_is_the_fast_path(self, keys, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(keys["exact"], {"v": 1}, keys["semantic"])
        payload, tier = cache.lookup(keys["exact"], keys["semantic"])
        assert payload == {"v": 1} and tier == "exact"
        assert cache.exact_hits == 1 and cache.semantic_hits == 0

    def test_respelled_input_hits_at_the_semantic_level(self, keys, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(keys["exact"], {"v": 1}, keys["semantic"])
        payload, tier = cache.lookup(keys["exact_respelled"], keys["semantic"])
        assert payload == {"v": 1} and tier == "semantic"
        assert cache.exact_hits == 0 and cache.semantic_hits == 1
        assert cache.hits == 1 and cache.misses == 0

    def test_semantic_pointers_persist_on_disk(self, keys, tmp_path):
        ResultCache(tmp_path).put(keys["exact"], {"v": 1}, keys["semantic"])
        fresh = ResultCache(tmp_path)
        payload, tier = fresh.lookup(keys["exact_respelled"], keys["semantic"])
        assert payload == {"v": 1} and tier == "semantic"

    def test_miss_counts_once(self, keys, tmp_path):
        cache = ResultCache(tmp_path)
        payload, tier = cache.lookup(keys["exact"], keys["semantic"])
        assert payload is None and tier is None
        assert cache.misses == 1 and cache.hits == 0

    def test_dangling_pointer_is_a_miss_and_is_dropped(self, keys, tmp_path):
        cache = ResultCache(tmp_path, memory_capacity=0)
        cache.put(keys["exact"], {"v": 1}, keys["semantic"])
        # Remove the exact entry out from under the pointer (what eviction
        # does; pointers are invisible to the eviction globs).
        exact_path = tmp_path / keys["exact"][:2] / f"{keys['exact']}.json"
        exact_path.unlink()
        payload, tier = cache.lookup(keys["exact_respelled"], keys["semantic"])
        assert payload is None and tier is None
        assert not list(tmp_path.glob("sem/*/*.json")), "pointer must be dropped"

    def test_corrupt_pointer_is_a_miss(self, keys, tmp_path):
        cache = ResultCache(tmp_path, memory_capacity=0)
        cache.put(keys["exact"], {"v": 1}, keys["semantic"])
        pointer = tmp_path / "sem" / keys["semantic"][:2] / f"{keys['semantic']}.json"
        pointer.write_text("{torn")
        payload, tier = cache.lookup(keys["exact_respelled"], keys["semantic"])
        assert payload is None and tier is None
        assert not pointer.exists()

    def test_rebound_after_dangle(self, keys, tmp_path):
        cache = ResultCache(tmp_path, memory_capacity=0)
        cache.put(keys["exact"], {"v": 1}, keys["semantic"])
        (tmp_path / keys["exact"][:2] / f"{keys['exact']}.json").unlink()
        assert cache.lookup(keys["exact_respelled"], keys["semantic"]) == (None, None)
        cache.put(keys["exact_respelled"], {"v": 2}, keys["semantic"])
        payload, tier = cache.lookup(keys["exact"], keys["semantic"])
        assert payload == {"v": 2} and tier == "semantic"

    def test_stats_expose_the_tier_split(self, keys, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(keys["exact"], {"v": 1}, keys["semantic"])
        cache.lookup(keys["exact"], keys["semantic"])
        cache.lookup(keys["exact_respelled"], keys["semantic"])
        stats = cache.stats()
        assert stats["exact_hits"] == 1
        assert stats["semantic_hits"] == 1
        assert stats["hits"] == 2


def _stored_result():
    """A real answer, decoded from its payload as a worker's is, and the payload."""
    from repro.core.pipeline import SynthesisResult, synthesize

    result = SynthesisResult.from_dict(synthesize(union(cube(), sphere())).to_dict())
    return result, result.to_dict()


class TestDecodedLookup:
    def test_a_put_result_is_shared_by_every_hit(self, keys, tmp_path):
        result, payload = _stored_result()
        cache = ResultCache(tmp_path)
        cache.put(keys["exact"], payload, keys["semantic"], result=result)
        assert cache.lookup(keys["exact"], decoded=True) == (result, "exact")
        served, tier = cache.lookup(keys["exact_respelled"], keys["semantic"], decoded=True)
        assert served is result and tier == "semantic"
        assert cache.lookup(keys["exact"]) == (payload, "exact")
        assert cache.decodes == 0 and cache.stats()["decodes"] == 0

    def test_put_never_decodes_and_a_plain_lookup_never_does(self, keys, tmp_path):
        _, payload = _stored_result()
        cache = ResultCache(tmp_path)
        cache.put(keys["exact"], payload, keys["semantic"])
        for _ in range(3):
            assert cache.lookup(keys["exact"], keys["semantic"]) == (payload, "exact")
        assert cache.decodes == 0

    def test_a_disk_promotion_decodes_once(self, keys, tmp_path):
        result, payload = _stored_result()
        ResultCache(tmp_path).put(keys["exact"], payload, keys["semantic"], result=result)
        fresh = ResultCache(tmp_path)
        first, _ = fresh.lookup(keys["exact"], decoded=True)
        again, _ = fresh.lookup(keys["exact_respelled"], keys["semantic"], decoded=True)
        assert fresh.disk_hits == 1 and fresh.memory_hits == 1 and fresh.decodes == 1
        assert again is first and first is not result
        assert [(c.cost, c.term) for c in first.candidates] == [
            (c.cost, c.term) for c in result.candidates
        ]
        # The payload read back from disk is what was stored.
        assert fresh.lookup(keys["exact"]) == (payload, "exact")


class TestExactTierUnchanged:
    """Semantic entries must be invisible to the exact tier's machinery."""

    def test_exact_keys_and_fingerprints_are_unchanged(self):
        # The exact key derivation must not involve normalization at all:
        # two spellings the semantic tier identifies keep distinct exact keys.
        config = SynthesisConfig()
        assert cache_key(union(cube(), sphere()), config) != cache_key(
            union(sphere(), cube()), config
        )

    def test_pointers_do_not_count_as_disk_entries(self, keys, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(keys["exact"], {"v": 1}, keys["semantic"])
        assert cache.disk_entries() == 1
        assert len(list(tmp_path.glob("sem/*/*.json"))) == 1

    def test_bounded_eviction_never_touches_pointers(self, keys, tmp_path):
        entry = len(json.dumps({"v": 1}).encode())
        cache = ResultCache(tmp_path, max_bytes=entry, memory_capacity=0)
        cache.put(keys["exact"], {"v": 1}, keys["semantic"])
        # Overflow the exact tier with unrelated entries.
        for i in range(4):
            cache.put("ab" + f"{i:062d}", {"v": i})
        assert cache.disk_entries() == 1
        assert len(list(tmp_path.glob("sem/*/*.json"))) == 1, (
            "eviction must not delete (or count) semantic pointers"
        )

    def test_lookup_without_a_semantic_key_is_exact_only(self, keys, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(keys["exact"], {"v": 1}, keys["semantic"])
        assert cache.lookup(keys["exact_respelled"]) == (None, None)
        assert cache.lookup(keys["exact"]) == ({"v": 1}, "exact")
        assert cache.exact_hits == 1 and cache.semantic_hits == 0


class TestSemanticCacheDifferential:
    """Variant inputs must be served warm, byte-identically, semantically."""

    def _payloads(self, report):
        return [
            json.dumps(r.result.to_dict(), sort_keys=True) for r in report.batch.results
        ]

    @pytest.mark.parametrize("name", _FAST_SUBSET)
    def test_variant_is_a_semantic_hit_with_identical_result(self, name, tmp_path):
        benchmark = get_benchmark(name)
        cold = run_table1_batch([benchmark], cache=ResultCache(tmp_path))
        assert not cold.failures and cold.batch.cache_hits == 0

        warm = run_table1_batch(
            [benchmark], cache=ResultCache(tmp_path), mutate=semantic_variant
        )
        assert not warm.failures
        assert warm.batch.semantic_hits == 1 and warm.batch.exact_hits == 0
        assert warm.batch.results[0].cache_tier == "semantic"
        assert self._payloads(warm) == self._payloads(cold), (
            "semantic hit must serve the byte-identical stored result"
        )
