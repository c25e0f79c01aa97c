"""Workload for the crash harness (run as a subprocess, or imported
by the parent test for the *identical* corpus / scoring / configs).

Deterministic across processes by construction: the corpus generator is
seeded, the shuffle rng is seeded, and scoring hashes the pair id with the
process-stable FNV hash (``repro.text.hashing.stable_hash``) — no model, no
``PYTHONHASHSEED`` dependence.  The parent arms a ``kill`` fault at one
``storage.*`` site through the ``REPRO_FAULT_PLAN`` environment variable and
expects this process to die mid-upsert with
``repro.resilience.faults.KILL_EXIT_CODE``.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.data.generators import (MusicCorpusGenerator,  # noqa: E402
                                   MusicGeneratorConfig)
from repro.serve.store import StoreConfig  # noqa: E402
from repro.storage import Storage, StorageConfig  # noqa: E402
from repro.text.hashing import stable_hash  # noqa: E402

SNAPSHOT_EVERY = 10
SEGMENT_MAX_ENTRIES = 8


def build_records(num_entities: int = 12, seed: int = 11):
    corpus = MusicCorpusGenerator(
        "artist", MusicGeneratorConfig(num_entities=num_entities),
        seed=seed).generate()
    records = list(corpus.records)
    np.random.default_rng(3).shuffle(records)
    return records


def score_fn(pairs):
    return np.array([(stable_hash(pair.pair_id) % 1000) / 999.0
                     for pair in pairs])


class HashPredictor:
    """The BatchedPredictor surface LinkagePipeline needs, over score_fn —
    so batch-parity checks run without training a model."""

    micro_batch_size = 64

    class _Encoder:
        cache = None

    encoder = _Encoder()

    def predict_proba(self, pairs):
        return score_fn(pairs)

    def stats(self):
        return {}


def store_config() -> StoreConfig:
    # Tiny caps put the stream deep into the overflow/retraction regime.
    return StoreConfig(lsh_max_bucket_size=2, max_postings=2,
                       initials_max_bucket_size=2)


def storage_config() -> StorageConfig:
    return StorageConfig(snapshot_every=SNAPSHOT_EVERY,
                         wal_segment_max_entries=SEGMENT_MAX_ENTRIES)


def run(data_dir: str) -> None:
    storage = Storage(Path(data_dir), score_fn=score_fn,
                      store_config=store_config(), config=storage_config())
    for record in build_records():
        storage.upsert(record)
    storage.close()


if __name__ == "__main__":
    run(sys.argv[1])
