"""Property-based tests (hypothesis) on core invariants.

These cover the numerical substrate (autograd, softmax, metrics), the text
pipeline (tokenisation, similarity bounds, hashing determinism) and the data
structures (schema alignment, contrastive features), the flat pair encoder,
the trainer's per-domain attention plan and the entity store's incremental
clustering.
"""

from zlib import crc32

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import AdaMELConfig
from repro.core.model import AdaMELNetwork, DomainAttention
from repro.data import EntityPair, Record, Schema, align_pairs
from repro.eval.metrics import average_precision, best_f1, precision_recall_curve
from repro.features import EncodingCache, PairEncoder
from repro.features.relational import extract_relational_features
from repro.nn import Adam, Tensor, no_grad, using_dtype
from repro.nn import functional as F
from repro.serve import EntityStore, StoreConfig
from repro.text import (
    HashedEmbedder,
    Tokenizer,
    jaccard_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    tokenize,
)

from features.encode_oracle import stacked_encode_pair
from pipeline.blocking_oracle import store_buckets
from serve.resolve_oracle import resolve_from_singletons

TEXT = st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd", "Zs")), max_size=40)
SMALL_FLOATS = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


# --------------------------------------------------------------------------- #
# Autograd / numerical substrate
# --------------------------------------------------------------------------- #
@given(arrays(np.float64, (4, 5), elements=SMALL_FLOATS))
@settings(max_examples=30, deadline=None)
def test_softmax_is_probability_distribution(values):
    out = F.softmax(Tensor(values), axis=-1).data
    assert np.all(out >= 0)
    assert np.allclose(out.sum(axis=-1), 1.0)


@given(arrays(np.float64, (3, 4), elements=SMALL_FLOATS),
       arrays(np.float64, (3, 4), elements=SMALL_FLOATS))
@settings(max_examples=30, deadline=None)
def test_addition_gradient_is_ones(a_values, b_values):
    a = Tensor(a_values, requires_grad=True)
    b = Tensor(b_values, requires_grad=True)
    (a + b).sum().backward()
    assert np.allclose(a.grad, 1.0)
    assert np.allclose(b.grad, 1.0)


@given(arrays(np.float64, (6,), elements=st.floats(0.01, 0.99)))
@settings(max_examples=30, deadline=None)
def test_sigmoid_logit_roundtrip(probabilities):
    logits = np.log(probabilities / (1 - probabilities))
    assert np.allclose(Tensor(logits).sigmoid().data, probabilities, atol=1e-9)


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
@given(st.lists(st.tuples(st.integers(0, 1), st.floats(0, 1, allow_nan=False)),
                min_size=2, max_size=60))
@settings(max_examples=50, deadline=None)
def test_average_precision_bounded(pairs):
    labels = [label for label, _ in pairs]
    scores = [score for _, score in pairs]
    value = average_precision(labels, scores)
    assert 0.0 <= value <= 1.0


@given(st.lists(st.tuples(st.integers(0, 1), st.floats(0, 1, allow_nan=False)),
                min_size=2, max_size=60).filter(lambda items: any(l for l, _ in items)))
@settings(max_examples=50, deadline=None)
def test_best_f1_bounded_and_recall_monotone(pairs):
    labels = [label for label, _ in pairs]
    scores = [score for _, score in pairs]
    f1, threshold = best_f1(labels, scores)
    assert 0.0 <= f1 <= 1.0
    _, recall, _ = precision_recall_curve(labels, scores)
    assert np.all(np.diff(recall) >= -1e-12)


@given(st.lists(st.floats(0.05, 0.95, allow_nan=False), min_size=3, max_size=40),
       st.integers(1, 10))
@settings(max_examples=30, deadline=None)
def test_perfectly_separated_scores_have_ap_one(negative_scores, num_positive):
    labels = [0] * len(negative_scores) + [1] * num_positive
    scores = list(np.array(negative_scores) * 0.5) + [0.99] * num_positive
    assert average_precision(labels, scores) == 1.0


# --------------------------------------------------------------------------- #
# Text pipeline
# --------------------------------------------------------------------------- #
@given(TEXT)
@settings(max_examples=60, deadline=None)
def test_tokenize_is_idempotent_and_lowercase(text):
    tokens = tokenize(text)
    assert tokenize(" ".join(tokens)) == tokens
    assert all(token == token.lower() for token in tokens)


@given(TEXT, TEXT)
@settings(max_examples=60, deadline=None)
def test_similarity_measures_bounded_and_symmetric(a, b):
    for measure in (jaccard_similarity, jaro_winkler_similarity):
        value_ab = measure(a, b)
        value_ba = measure(b, a)
        assert 0.0 <= value_ab <= 1.0 + 1e-9
        assert abs(value_ab - value_ba) < 1e-9


@given(TEXT, TEXT)
@settings(max_examples=40, deadline=None)
def test_levenshtein_triangle_inequality_with_empty(a, b):
    assert levenshtein_distance(a, b) <= len(a) + len(b)
    assert levenshtein_distance(a, a) == 0


@given(st.text(alphabet=st.characters(whitelist_categories=("Ll",)), min_size=1, max_size=15))
@settings(max_examples=40, deadline=None)
def test_hashed_embedder_deterministic_and_finite(token):
    embedder = HashedEmbedder(dim=16)
    vector = embedder.embed_token(token)
    assert vector.shape == (16,)
    assert np.all(np.isfinite(vector))
    assert np.allclose(vector, HashedEmbedder(dim=16).embed_token(token))


# --------------------------------------------------------------------------- #
# Data structures
# --------------------------------------------------------------------------- #
_ATTR_VALUES = st.dictionaries(st.sampled_from(["title", "artist", "album", "genre"]),
                               TEXT, min_size=1, max_size=4)


@given(_ATTR_VALUES, _ATTR_VALUES)
@settings(max_examples=50, deadline=None)
def test_alignment_produces_full_schema(left_attrs, right_attrs):
    left = Record("l", "s1", left_attrs)
    right = Record("r", "s2", right_attrs)
    pair = EntityPair(left, right, label=1)
    schema = Schema(("title", "artist", "album", "genre", "extra"))
    aligned = align_pairs([pair], schema)[0]
    assert set(aligned.left.attribute_names()) == set(schema)
    assert set(aligned.right.attribute_names()) == set(schema)
    # Values that existed are preserved.
    for attribute, value in left_attrs.items():
        assert aligned.left.value(attribute) == value


@given(_ATTR_VALUES, _ATTR_VALUES)
@settings(max_examples=50, deadline=None)
def test_contrastive_features_partition_tokens(left_attrs, right_attrs):
    """sim(A) and uni(A) are disjoint and cover the union of the pair's tokens."""
    schema = Schema(("title", "artist"))
    left = Record("l", "s1", {k: left_attrs.get(k, "") for k in schema})
    right = Record("r", "s2", {k: right_attrs.get(k, "") for k in schema})
    pair = EntityPair(left, right, label=0)
    tokenizer = Tokenizer(crop_size=50)
    features = extract_relational_features(pair, schema, tokenizer)
    by_name = {feature.name: set(feature.tokens) for feature in features}
    for attribute in schema:
        shared = by_name[f"{attribute}_shared"]
        unique = by_name[f"{attribute}_unique"]
        left_tokens = set(tokenizer(left.value(attribute)))
        right_tokens = set(tokenizer(right.value(attribute)))
        assert shared.isdisjoint(unique)
        assert shared == left_tokens & right_tokens
        assert shared | unique == left_tokens | right_tokens


# --------------------------------------------------------------------------- #
# Pair encoding: the flat, segmented path against its per-pair definition
# --------------------------------------------------------------------------- #
_ATTRIBUTES = ("name", "title", "genre", "notes")
# Few distinct words, so values repeat tokens, attributes share them and
# records share whole values; accents, a non-BMP letter, an emoji and bare
# punctuation exercise normalisation and the punctuation filter.
_WORDS = st.sampled_from(["neil", "Neil", "diamond", "n.", "café", "cafe", "naïve", "remix",
                          "original", "ebay.com", "1989", "𝔘nit", "😀", "&", "-", "the"])
_VALUE = st.one_of(
    st.none(),                                             # attribute missing
    st.just(""),
    st.lists(_WORDS, min_size=1, max_size=9).map(" ".join),  # often longer than the crop
    st.text(max_size=12),
)
_RECORD_VALUES = st.fixed_dictionaries({}, optional={name: _VALUE for name in _ATTRIBUTES})
# Whole texts shared across records and attributes, so one value pair fills
# slots of several attributes and records.
_SHARED_TEXTS = st.sampled_from(["", "neil diamond", "n. diamond", "the remix", "remix the",
                                 "café 1989", "😀"])
_SHARED_RECORD_VALUES = st.fixed_dictionaries({name: _SHARED_TEXTS for name in _ATTRIBUTES})


@st.composite
def _encoding_cases(draw):
    attributes = draw(st.lists(st.sampled_from(_ATTRIBUTES), min_size=1, max_size=4,
                               unique=True))
    values = st.one_of(_RECORD_VALUES, _SHARED_RECORD_VALUES)
    records = [Record(f"r{i}", f"s{i % 3}",
                      {key: value for key, value in values.items() if value is not None})
               for i, values in enumerate(draw(st.lists(values, min_size=1, max_size=6)))]
    sides = st.integers(0, len(records) - 1)
    # Free index pairs: left is right (equal texts on both sides), one record
    # in many pairs, repeated pairs and any order all occur; the list length
    # is the batch size, down to one pair.
    index_pairs = draw(st.lists(st.tuples(sides, sides), min_size=1, max_size=12))
    pairs = [EntityPair(records[i], records[j], label=draw(st.sampled_from([0, 1, None])))
             for i, j in index_pairs]
    kinds = draw(st.sampled_from([("shared", "unique"), ("unique", "shared"),
                                  ("shared",), ("unique",)]))
    # A warm-up call over some of the pairs makes the checked call mix hits
    # and misses (all hits when it covers them all).
    warm = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return Schema(tuple(attributes)), pairs, kinds, draw(st.integers(1, 4)), warm


@given(_encoding_cases())
@settings(deadline=None)
def test_encode_equals_stacked_encode_pair(case):
    schema, pairs, kinds, crop_size, warm = case
    for cache in (None, EncodingCache()):
        tokenizer = Tokenizer(crop_size=crop_size)
        encoder = PairEncoder(schema, embedder=HashedEmbedder(dim=8, tokenizer=tokenizer),
                              tokenizer=tokenizer, feature_kinds=kinds, cache=cache,
                              use_cache=cache is not None)
        expected = stacked_encode_pair(encoder, pairs)
        if cache is not None and warm:
            encoder.encode(warm)
        hits, misses = cache.lookup_counts() if cache is not None else (0, 0)
        # Twice with a cache: the second pass is served from it.
        for _ in range(1 if cache is None else 2):
            batch = encoder.encode(pairs)
            assert np.array_equal(batch.features, expected.features)
            assert np.array_equal(batch.feature_mask, expected.feature_mask)
            assert np.array_equal(batch.labels, expected.labels)
        if cache is not None:
            # One lookup per distinct slot and call; the second call hits all.
            slots = len(batch.plan.rows)
            hits_after, misses_after = cache.lookup_counts()
            assert (hits_after - hits) + (misses_after - misses) == 2 * slots
            assert hits_after - hits >= slots


# --------------------------------------------------------------------------- #
# Domain attention: priced by distinct (feature, vector) rows, equal to the
# whole-set forward
# --------------------------------------------------------------------------- #
@st.composite
def _domain_features(draw):
    """``(N, F, D)`` features whose columns repeat rows in a drawn pattern."""
    pairs, features, dim = draw(st.integers(1, 12)), draw(st.integers(1, 4)), draw(
        st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    out = np.empty((pairs, features, dim))
    for j in range(features):
        pattern = draw(st.sampled_from(["duplicates", "all-distinct", "one-row", "signed-zero"]))
        if pattern == "all-distinct":
            out[:, j, :] = rng.normal(size=(pairs, dim))
            continue
        pool = rng.normal(size=(1 if pattern == "one-row" else draw(st.integers(1, 3)), dim))
        if pattern == "signed-zero":   # equal as numbers, distinct as bytes
            pool = np.concatenate([pool, np.zeros((1, dim)), -np.zeros((1, dim))])
        out[:, j, :] = pool[rng.integers(0, len(pool), size=pairs)]
    return out, draw(st.sampled_from(["float32", "float64"])), rng


@given(_domain_features())
@settings(max_examples=150, deadline=None)
def test_domain_attention_equals_whole_set_forward_on_distinct_rows_only(case):
    features, dtype, rng = case
    with using_dtype(dtype):
        network = AdaMELNetwork(features.shape[1], features.shape[2],
                                AdaMELConfig(embedding_dim=features.shape[2], hidden_dim=4,
                                             attention_dim=3, classifier_hidden_dim=2), rng=rng)
    plan = DomainAttention(network, features)
    # Count guard: the work is proportional to the distinct rows, not to N*F.
    distinct = sum(len({row.tobytes() for row in features[:, j, :].astype(dtype)})
                   for j in range(features.shape[1]))
    assert len(plan.slots.rows) == distinct
    tolerance = 4 * np.finfo(dtype).eps

    def assert_equal_to_whole_set_forward():
        attention = plan()
        assert attention.dtype == np.dtype(dtype)
        with no_grad():
            whole_set = network.forward(features).attention.data
        assert np.abs(attention - whole_set).max() <= tolerance
        assert np.abs(attention.sum(axis=1) - 1.0).max() <= features.shape[1] * tolerance

    assert_equal_to_whole_set_forward()
    # No stale capture: the optimiser rebinds every ``param.data`` to a view of
    # its flat buffer, then parameters move in place.
    Adam(network.parameters())
    assert_equal_to_whole_set_forward()
    for param in network.parameters():
        param.data += rng.normal(scale=0.3, size=param.shape).astype(dtype)
    assert_equal_to_whole_set_forward()


# --------------------------------------------------------------------------- #
# Entity store: rewind-and-replay against resolving everything from singletons
# --------------------------------------------------------------------------- #
# Few words and tiny bucket caps: records collide, buckets overflow mid-stream,
# candidate pairs (and the match edges among them) are retracted and entities
# split.  Few score levels: ties are common and settled by record id, which is
# drawn apart from arrival order.
_STREAM_WORDS = st.sampled_from(["alpha", "bravo", "charlie", "delta", "echo",
                                 "foxtrot", "golf", "hotel"])
_SCORE_LEVELS = [0.2, 0.55, 0.7, 0.85, 0.95]
_BUCKET_CAP = st.integers(2, 4)


@st.composite
def _store_streams(draw):
    num_sources = draw(st.integers(2, 5))
    records = [Record(f"r{draw(st.integers(0, 99)):02d}-{index}",
                      f"s{draw(st.integers(1, num_sources))}",
                      {"name": " ".join(draw(st.lists(_STREAM_WORDS, min_size=1,
                                                      max_size=3, unique=True)))})
               for index in range(draw(st.integers(2, 24)))]
    config = StoreConfig(lsh_max_bucket_size=draw(_BUCKET_CAP),
                         max_postings=draw(_BUCKET_CAP),
                         initials_max_bucket_size=draw(_BUCKET_CAP),
                         source_consistent=draw(st.booleans()),
                         cross_source_only=draw(st.booleans()))
    levels = draw(st.lists(st.sampled_from(_SCORE_LEVELS), min_size=1, max_size=5,
                           unique=True))
    salt = draw(st.integers(0, 2 ** 16))

    def score_fn(pairs):
        return np.array([levels[crc32(f"{salt}|{pair.pair_id}".encode()) % len(levels)]
                         for pair in pairs])

    return records, config, score_fn, draw(st.integers(0, len(records) - 1))


@given(_store_streams())
@settings(max_examples=120, deadline=None)
def test_store_upserts_equal_resolving_from_singletons(case):
    records, config, score_fn, restore_at = case
    store = EntityStore(score_fn=score_fn, config=config)
    restored = None
    for index, record in enumerate(records):
        if index == restore_at:
            restored = EntityStore.from_state_dict(store.state_dict(), score_fn=score_fn)
        store.upsert(record)
        assert store.clusters() == resolve_from_singletons(store)
        if restored is not None:
            # A store rebuilt mid-stream stays the uninterrupted one, merge
            # logs (which no state dict carries) included.
            restored.upsert(record)
            assert restored.state_dict() == store.state_dict()
            assert store_buckets(restored) == store_buckets(store)
            assert restored._clusters.merge_logs == store._clusters.merge_logs
