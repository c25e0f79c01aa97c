"""Hypothesis properties of the slot path: the numpy forward over a slot plan
equals the Tensor forward, and the slot arena returns every key's rows within
its budget.  (The encoder's own property, ``encode`` ≡ stacked
``encode_pair``, is ``tests/test_properties.py::test_encode_equals_stacked_encode_pair``.)

Example counts follow the Hypothesis profile: CI runs this module with
``--hypothesis-profile=ci`` (ten times the default).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdaMELConfig
from repro.core.model import AdaMELNetwork
from repro.data import EntityPair, Record, Schema
from repro.features import EncodingCache, PairEncoder
from repro.nn import no_grad, using_dtype
from repro.text import HashedEmbedder, Tokenizer

from arena_oracle import cache_invariants_hold, fetch_checked

# Set before any run from the dtype: float64 sums in another order agree to a
# few ulps of O(1) values; float32 GEMMs of these sizes to a few 1e-7.
TOLERANCE = {"float64": 1e-12, "float32": 1e-5}


def make_network(num_features, dim, dtype, rng, dropout=0.0):
    config = AdaMELConfig(embedding_dim=dim, hidden_dim=4, attention_dim=3,
                          classifier_hidden_dim=5, dropout=dropout)
    with using_dtype(dtype):
        return AdaMELNetwork(num_features, dim, config, rng=rng)


def assert_equals_tensor_forward(network, inputs, features, dtype):
    """``forward_numpy(inputs)`` against the Tensor forward of ``features``
    in eval mode; the network is left in training mode (dropout live)."""
    network.train()
    probabilities, attention = network.forward_numpy(inputs)
    network.eval()
    with no_grad():
        expected = network.forward(features)
    network.train()
    assert probabilities.dtype == attention.dtype == np.dtype(dtype)
    assert probabilities.shape == (len(features),)
    assert np.abs(probabilities - expected.probabilities.data).max() <= TOLERANCE[dtype]
    assert np.abs(attention - expected.attention.data).max() <= TOLERANCE[dtype]


@st.composite
def _dense_cases(draw):
    """``(N, F, D)`` features whose columns repeat rows in a drawn pattern."""
    pairs, features, dim = (draw(st.integers(1, 12)), draw(st.integers(1, 5)),
                            draw(st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    out = np.empty((pairs, features, dim))
    for j in range(features):
        pool = rng.normal(size=(draw(st.integers(1, pairs)), dim))
        out[:, j, :] = pool[rng.integers(0, len(pool), size=pairs)]
    return out, draw(st.sampled_from(["float32", "float64"])), draw(st.sampled_from([0.0, 0.5])), rng


@given(_dense_cases())
@settings(deadline=None)
def test_forward_numpy_on_dense_features_equals_the_tensor_forward(case):
    features, dtype, dropout, rng = case
    network = make_network(features.shape[1], features.shape[2], dtype, rng, dropout)
    assert_equals_tensor_forward(network, features, features, dtype)


_WORDS = st.sampled_from(["neil", "diamond", "n.", "remix", "original", "1989", "the", ""])
_TEXT = st.lists(_WORDS, max_size=4).map(" ".join)


@st.composite
def _encoded_cases(draw):
    attributes = draw(st.lists(st.sampled_from(["name", "title", "genre", "year"]),
                               min_size=1, max_size=4, unique=True))
    records = [Record(f"r{i}", "s", {a: draw(_TEXT) for a in attributes})
               for i in range(draw(st.integers(1, 6)))]
    sides = st.integers(0, len(records) - 1)
    pairs = [EntityPair(records[i], records[j])
             for i, j in draw(st.lists(st.tuples(sides, sides), min_size=1, max_size=10))]
    kinds = draw(st.sampled_from([("shared", "unique"), ("unique",), ("shared",)]))
    return (Schema(tuple(attributes)), pairs, kinds, draw(st.sampled_from(["float32", "float64"])),
            np.random.default_rng(draw(st.integers(0, 2 ** 16))))


@given(_encoded_cases())
@settings(deadline=None)
def test_forward_numpy_on_a_slot_plan_equals_the_tensor_forward(case):
    schema, pairs, kinds, dtype, rng = case
    tokenizer = Tokenizer(crop_size=3)
    encoder = PairEncoder(schema, embedder=HashedEmbedder(dim=6, tokenizer=tokenizer),
                          tokenizer=tokenizer, feature_kinds=kinds, use_cache=False)
    batch = encoder.encode(pairs)
    network = make_network(encoder.num_features, encoder.embedding_dim, dtype, rng, 0.5)
    assert_equals_tensor_forward(network, batch, batch.features, dtype)


_KEYS = st.lists(st.tuples(st.integers(0, 9).map("l{}".format),
                           st.integers(0, 3).map("r{}".format)), min_size=1, max_size=8)
# Two encoder configurations with different row shapes share one budget.
_SHAPES = {"a": (2, 4), "b": (1, 3)}
_ROW_BYTES = {name: (kinds * dim + kinds) * 8 for name, (kinds, dim) in _SHAPES.items()}


@given(st.integers(1, 12), st.lists(st.tuples(st.sampled_from(sorted(_SHAPES)), _KEYS),
                                    min_size=1, max_size=12))
@settings(deadline=None)
def test_arena_returns_every_key_row_within_its_budget(budget_rows, calls):
    cache = EncodingCache(max_bytes=budget_rows * _ROW_BYTES["a"])
    lookups = 0
    for fingerprint, keys in calls:
        evictions = cache.evictions
        fetch_checked(cache, keys, fingerprint, *_SHAPES[fingerprint])
        lookups += len(keys)
        assert cache_invariants_hold(cache)
        hits, misses = cache.lookup_counts()
        assert hits + misses == lookups
        # A call that evicted nothing leaves all its keys held, if they fit.
        if (cache.evictions == evictions
                and len(set(keys)) * _ROW_BYTES[fingerprint] <= cache.max_bytes):
            fetch_checked(cache, keys, fingerprint, *_SHAPES[fingerprint])
            lookups += len(keys)
            assert cache.lookup_counts()[0] - hits == len(keys)
