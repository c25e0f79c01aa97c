"""Oracle for ``PairEncoder.encode``: the per-pair definition, stacked."""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.data.records import EntityPair
from repro.features import PairEncoder


class StackedPairs(NamedTuple):
    """What ``encode`` must reproduce: features, labels and masks."""

    features: np.ndarray  # (N, F, D)
    labels: np.ndarray  # (N,), -1 for unlabeled
    feature_mask: np.ndarray  # (N, F)


def stacked_encode_pair(encoder: PairEncoder, pairs: Sequence[EntityPair]) -> StackedPairs:
    """``encode_pair`` over a non-empty ``pairs``; ``encode`` must equal it bit for bit."""
    encoded = [encoder.encode_pair(pair) for pair in pairs]
    return StackedPairs(
        features=np.stack([item.features for item in encoded]),
        labels=np.array([-1 if item.label is None else item.label for item in encoded],
                        dtype=np.int64),
        feature_mask=np.stack([item.feature_mask for item in encoded]))
