"""Persistence of trained AdaMEL models.

A model bundle is a directory with two files:

* ``model.json`` — the variant name, hyperparameter config, aligned schema and
  the embedder/tokenizer configuration needed to rebuild the encoder;
* ``weights.npz`` — the network ``state_dict`` (float64, lossless).

``load_model`` reconstructs a fitted trainer whose predictions are bit-exact
with the trainer that was saved: the hashed embeddings are a pure function of
their configuration, and the weights round-trip through npz without loss.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from pathlib import Path
from typing import Optional, Union

from ..core.config import AdaMELConfig
from ..core.model import AdaMELNetwork
from ..core.trainer import AdaMELTrainer
from ..core.variants import create_variant
from ..data.schema import Schema
from ..features.cache import EncodingCache
from ..nn.dtypes import using_dtype
from ..features.encoder import PairEncoder
from ..text.embeddings import HashedEmbedder
from ..text.tokenizer import Tokenizer
from ..utils.serialization import load_json, load_npz, save_json, save_npz

__all__ = ["MODEL_FORMAT_VERSION", "save_model", "load_model"]

# 2: AdaMELConfig lost its ``execution`` field, which every version-1 bundle
# carries.
MODEL_FORMAT_VERSION = 2

_META_FILE = "model.json"
_WEIGHTS_FILE = "weights.npz"


def save_model(trainer: AdaMELTrainer, path: Union[str, Path]) -> Path:
    """Save a fitted AdaMEL trainer as a model bundle directory.

    Only trainers using the default :class:`HashedEmbedder` can be saved: its
    embeddings are reproducible from configuration alone.  Trainers fitted
    with a custom external embedder must persist that embedder themselves.
    """
    if trainer.network is None or trainer.encoder is None or trainer.schema is None:
        raise ValueError("cannot save an unfitted trainer; call fit() first")
    embedder = trainer.encoder.embedder
    if type(embedder) is not HashedEmbedder:
        # Exact type: a subclass may change embedding behaviour that the
        # recorded configuration cannot reproduce, and load_model rebuilds
        # the base class — the round-trip would silently differ.
        raise TypeError(
            f"save_model supports the built-in HashedEmbedder; got "
            f"{type(embedder).__name__} (persist custom embedders separately)"
        )
    tokenizer = trainer.encoder.tokenizer
    if type(tokenizer) is not Tokenizer:
        raise TypeError(
            f"save_model supports the built-in Tokenizer; got "
            f"{type(tokenizer).__name__} (its behaviour cannot be rebuilt "
            f"from crop_size/keep_punctuation alone)"
        )
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meta = {
        "format_version": MODEL_FORMAT_VERSION,
        "variant": trainer.variant,
        "config": asdict(trainer.config),
        "schema": list(trainer.schema.attributes),
        "feature_kinds": list(trainer.encoder.extractor.feature_kinds),
        "embedder": {
            "dim": embedder.dim,
            "min_n": embedder.min_n,
            "max_n": embedder.max_n,
            "seed": embedder.table.seed,
            "num_buckets": embedder.table.num_buckets,
        },
        "tokenizer": {
            "crop_size": tokenizer.crop_size,
            "keep_punctuation": tokenizer.keep_punctuation,
        },
        "num_features": trainer.encoder.num_features,
        "embedding_dim": trainer.encoder.embedding_dim,
    }
    save_json(meta, path / _META_FILE)
    save_npz(trainer.network.state_dict(), path / _WEIGHTS_FILE)
    return path


def load_model(path: Union[str, Path],
               cache: Optional[EncodingCache] = None) -> AdaMELTrainer:
    """Load a model bundle into a fitted trainer ready for inference.

    The returned trainer's network is switched to eval mode (inference
    semantics); its predictions match the saved trainer bit-exactly.
    """
    path = Path(path)
    meta = load_json(path / _META_FILE)
    version = meta.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {version!r}; "
            f"this build reads version {MODEL_FORMAT_VERSION}"
        )
    config_payload = dict(meta["config"])
    known = {spec.name for spec in fields(AdaMELConfig)}
    unknown = sorted(set(config_payload) - known)
    missing = sorted(known - set(config_payload))
    if unknown or missing:
        raise ValueError(
            f"model bundle {path} has a config this build cannot read "
            f"(unknown keys: {unknown}, missing keys: {missing}); "
            f"re-save the bundle with this build's save_model"
        )
    config_payload["feature_kinds"] = tuple(config_payload["feature_kinds"])
    config = AdaMELConfig(**config_payload)

    trainer = create_variant(meta["variant"], config=config)
    schema = Schema(tuple(meta["schema"]))
    tokenizer = Tokenizer(crop_size=meta["tokenizer"]["crop_size"],
                          keep_punctuation=meta["tokenizer"]["keep_punctuation"])
    embedder_meta = meta["embedder"]
    embedder = HashedEmbedder(dim=embedder_meta["dim"], min_n=embedder_meta["min_n"],
                              max_n=embedder_meta["max_n"], seed=embedder_meta["seed"],
                              tokenizer=tokenizer)
    if embedder_meta["num_buckets"] != embedder.table.num_buckets:
        # The hashed vectors depend on the bucket count; a silent mismatch
        # would load a model whose embeddings differ from the saved ones.
        raise ValueError(
            f"bundle was saved with num_buckets={embedder_meta['num_buckets']} but "
            f"this build hashes into {embedder.table.num_buckets} buckets"
        )
    encoder = PairEncoder(schema, embedder=embedder, tokenizer=tokenizer,
                          feature_kinds=tuple(meta["feature_kinds"]), cache=cache)
    if encoder.num_features != meta["num_features"]:
        raise ValueError(
            f"schema mismatch: bundle declares {meta['num_features']} features, "
            f"rebuilt encoder has {encoder.num_features}"
        )

    # Rebuild under the bundle's compute-dtype policy so a float32-trained
    # model loads as a float32 network and round-trips bit-exactly.
    with using_dtype(config.dtype):
        network = AdaMELNetwork(encoder.num_features, config.embedding_dim, config=config)
    network.load_state_dict(load_npz(path / _WEIGHTS_FILE))
    network.eval()

    trainer.schema = schema
    trainer.encoder = encoder
    trainer.network = network
    return trainer
