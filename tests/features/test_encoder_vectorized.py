"""Equivalence and caching tests for the vectorised pair-encoding hot path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.records import EntityPair, Record
from repro.data.schema import Schema
from repro.features import EncodingCache, PairEncoder, get_default_cache
from repro.text import HashedEmbedder, Tokenizer

from encode_oracle import stacked_encode_pair


@pytest.fixture(scope="module")
def scenario_pairs(music_scenario):
    scenario = music_scenario.align()
    pairs = (list(scenario.source.pairs) + list(scenario.target.pairs)
             + list(scenario.test.pairs))
    return scenario.aligned_schema(), pairs


def make_encoder(schema, dim=16, crop=6, cache=None, use_cache=True, kinds=("shared", "unique")):
    tokenizer = Tokenizer(crop_size=crop)
    embedder = HashedEmbedder(dim=dim, tokenizer=tokenizer)
    return PairEncoder(schema, embedder=embedder, tokenizer=tokenizer,
                       feature_kinds=kinds, cache=cache, use_cache=use_cache)


class TestVectorizedEquivalence:
    def test_encode_matches_reference_bit_exactly(self, scenario_pairs):
        """The vectorised encoder is bit-identical to the seed per-pair path."""
        schema, pairs = scenario_pairs
        encoder = make_encoder(schema, cache=EncodingCache())
        reference = stacked_encode_pair(encoder, pairs)
        vectorized = encoder.encode(pairs)
        assert np.array_equal(reference.features, vectorized.features)
        assert np.array_equal(reference.feature_mask, vectorized.feature_mask)
        assert np.array_equal(reference.labels, vectorized.labels)

    def test_encode_matches_reference_without_cache(self, scenario_pairs):
        schema, pairs = scenario_pairs
        encoder = make_encoder(schema, use_cache=False)
        assert encoder.cache is None
        reference = stacked_encode_pair(encoder, pairs)
        vectorized = encoder.encode(pairs)
        assert np.array_equal(reference.features, vectorized.features)

    @pytest.mark.parametrize("kinds", [("shared",), ("unique",)])
    def test_single_kind_encoders_equivalent(self, scenario_pairs, kinds):
        schema, pairs = scenario_pairs
        encoder = make_encoder(schema, cache=EncodingCache(), kinds=kinds)
        reference = stacked_encode_pair(encoder, pairs[:50])
        vectorized = encoder.encode(pairs[:50])
        assert np.array_equal(reference.features, vectorized.features)
        assert np.array_equal(reference.feature_mask, vectorized.feature_mask)

    def test_encode_pair_matches_batch_row(self, scenario_pairs):
        schema, pairs = scenario_pairs
        encoder = make_encoder(schema, cache=EncodingCache())
        batch = encoder.encode(pairs[:10])
        for i, pair in enumerate(pairs[:10]):
            single = encoder.encode_pair(pair)
            assert np.array_equal(single.features, batch.features[i])
            assert np.array_equal(single.feature_mask, batch.feature_mask[i])

    def test_empty_batch(self, scenario_pairs):
        schema, _ = scenario_pairs
        encoder = make_encoder(schema)
        batch = encoder.encode([])
        assert len(batch) == 0
        assert batch.features.shape == (0, encoder.num_features, encoder.embedding_dim)

    def test_plan_holds_each_distinct_slot_once(self, scenario_pairs):
        schema, pairs = scenario_pairs
        encoder = make_encoder(schema, use_cache=False)
        batch = encoder.encode(pairs)
        slots = {(a, pair.left.value(attribute), pair.right.value(attribute))
                 for pair in pairs for a, attribute in enumerate(schema.attributes)}
        assert len(batch.plan.rows) == len(slots) < len(pairs) * len(schema.attributes)
        # Attribute-major: attribute a's slots are rows[offsets[a]:offsets[a + 1]].
        index, offsets = batch.plan.index, batch.plan.offsets
        assert np.all((index >= offsets[:-1]) & (index < offsets[1:]))

    def test_subset_equals_encoding_the_subset(self, scenario_pairs):
        """The trainer takes the support batch as a subset of the labeled one."""
        schema, pairs = scenario_pairs
        encoder = make_encoder(schema, use_cache=False)
        head, tail = pairs[:30], pairs[30:45]
        subset = encoder.encode(head + tail).subset(np.arange(len(head), len(head) + len(tail)))
        alone = encoder.encode(tail)
        assert np.array_equal(subset.features, alone.features)
        assert np.array_equal(subset.feature_mask, alone.feature_mask)
        assert np.array_equal(subset.labels, alone.labels)


class TestEncodingCache:
    def test_cache_hits_return_identical_arrays(self, scenario_pairs):
        schema, pairs = scenario_pairs
        cache = EncodingCache()
        encoder = make_encoder(schema, cache=cache)
        cold = encoder.encode(pairs)
        assert cache.hits == 0
        slots = cache.misses
        assert slots == len(cold.plan.rows)
        warm = encoder.encode(pairs)
        assert cache.lookup_counts() == (slots, slots)
        assert np.array_equal(cold.features, warm.features)
        assert np.array_equal(cold.feature_mask, warm.feature_mask)

    def test_hit_rate(self, scenario_pairs):
        schema, pairs = scenario_pairs
        cache = EncodingCache()
        assert cache.hit_rate() == 0.0
        encoder = make_encoder(schema, cache=cache)
        encoder.encode(pairs)
        assert cache.hit_rate() == 0.0
        encoder.encode(pairs)
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_cache_shared_across_encoder_instances(self, scenario_pairs):
        """Fresh encoders with the same configuration reuse cached rows."""
        schema, pairs = scenario_pairs
        cache = EncodingCache()
        first = make_encoder(schema, cache=cache)
        second = make_encoder(schema, cache=cache)
        assert first.fingerprint == second.fingerprint
        cold = first.encode(pairs[:40])
        warm = second.encode(pairs[:40])
        assert cache.hits == len(cold.plan.rows)
        assert np.array_equal(cold.features, warm.features)

    def test_a_value_pair_is_one_row_across_attributes(self):
        """Slots of different attributes with the same two texts share a row."""
        schema = Schema(("name", "alias", "title"))
        cache = EncodingCache()
        encoder = make_encoder(schema, cache=cache)
        left = Record("l", "s1", {"name": "neil diamond", "alias": "neil diamond", "title": ""})
        right = Record("r", "s2", {"name": "n. diamond", "alias": "n. diamond", "title": ""})
        batch = encoder.encode([EntityPair(left, right, pair_id="p")])
        assert len(batch.plan.rows) == 3
        assert len(cache) == 2
        assert np.array_equal(batch.features,
                              stacked_encode_pair(encoder, [EntityPair(left, right)]).features)

    def test_different_configs_never_collide(self, scenario_pairs):
        schema, pairs = scenario_pairs
        cache = EncodingCache()
        a = make_encoder(schema, dim=16, cache=cache)
        b = make_encoder(schema, dim=24, cache=cache)
        assert a.fingerprint != b.fingerprint
        batch_a = a.encode(pairs[:10])
        batch_b = b.encode(pairs[:10])
        assert cache.hits == 0
        assert batch_a.embedding_dim == 16
        assert batch_b.embedding_dim == 24

    def test_same_pair_id_different_content_no_stale_hit(self):
        """Cache keys include record values, not just pair ids."""
        schema = Schema(("name",))
        cache = EncodingCache()
        encoder = make_encoder(schema, cache=cache)
        pair_v1 = EntityPair(left=Record("l", "s1", {"name": "neil diamond"}),
                             right=Record("r", "s2", {"name": "n. diamond"}),
                             label=1, pair_id="shared-id")
        pair_v2 = EntityPair(left=Record("l", "s1", {"name": "tom waits"}),
                             right=Record("r", "s2", {"name": "t. waits"}),
                             label=1, pair_id="shared-id")
        batch_v1 = encoder.encode([pair_v1])
        batch_v2 = encoder.encode([pair_v2])
        assert cache.hits == 0
        assert not np.array_equal(batch_v1.features, batch_v2.features)
        assert np.array_equal(batch_v2.features,
                              stacked_encode_pair(encoder, [pair_v2]).features)

    @staticmethod
    def row_bytes(encoder):
        kinds = len(encoder.extractor.feature_kinds)
        return (kinds * encoder.embedding_dim + kinds) * 8

    def test_eviction_respects_byte_budget(self, scenario_pairs):
        schema, pairs = scenario_pairs
        probe = make_encoder(schema, use_cache=False)
        cache = EncodingCache(max_bytes=self.row_bytes(probe) * 40)
        encoder = make_encoder(schema, cache=cache)
        for start in range(0, 60, 3):
            batch = encoder.encode(pairs[start:start + 3])
            assert np.array_equal(batch.features,
                                  stacked_encode_pair(probe, pairs[start:start + 3]).features)
            assert len(cache) <= 40
            assert cache.current_bytes == len(cache) * self.row_bytes(probe) <= cache.max_bytes
        assert cache.evictions > 0

    def test_oversized_entry_does_not_flush_cache(self, scenario_pairs):
        """Regression: rows that can never fit must be rejected up front, not
        after evicting everything already cached."""
        schema, pairs = scenario_pairs
        probe = make_encoder(schema, use_cache=False)
        cache = EncodingCache(max_bytes=self.row_bytes(probe) * 30)
        encoder = make_encoder(schema, cache=cache)
        encoder.encode(pairs[:1])
        held = len(cache)
        assert 0 < held <= 30
        encoder.encode(pairs[1:200])  # far more than 30 new slot rows in one call
        assert len(cache) == held
        assert cache.evictions == 0
        hits = cache.hits
        again = encoder.encode(pairs[:1])
        assert cache.hits - hits == len(again.plan.rows)  # still cached

    def test_clear_resets_counters(self, scenario_pairs):
        schema, pairs = scenario_pairs
        cache = EncodingCache()
        encoder = make_encoder(schema, cache=cache)
        encoder.encode(pairs[:5])
        encoder.encode(pairs[:5])
        assert len(cache) > 0 and cache.hits > 0
        cache.clear()
        assert len(cache) == 0
        assert cache.current_bytes == 0
        assert cache.stats() == {"entries": 0, "bytes": 0, "hits": 0, "misses": 0,
                                 "evictions": 0}

    def test_default_cache_used_when_none_given(self, scenario_pairs):
        schema, _ = scenario_pairs
        encoder = make_encoder(schema)
        assert encoder.cache is get_default_cache()

    def test_cached_entries_survive_batch_mutation(self, scenario_pairs):
        """Mutating a returned batch must not corrupt later encodes."""
        schema, pairs = scenario_pairs
        cache = EncodingCache()
        encoder = make_encoder(schema, cache=cache)
        first = encoder.encode(pairs[:5])
        clean = first.features.copy()
        first.features[:] = -1.0
        first.plan.rows[:] = -1.0
        second = encoder.encode(pairs[:5])
        assert np.array_equal(second.features, clean)
        third = encoder.encode(pairs[:5])  # every slot a hit, read from the arena
        assert np.array_equal(third.features, clean)
