"""Train / test splitting helper."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..utils.rng import SeedLike, spawn_rng
from .records import EntityPair

__all__ = ["stratified_split"]


def stratified_split(pairs: Sequence[EntityPair], test_fraction: float = 0.25,
                     seed: SeedLike = 0) -> Tuple[List[EntityPair], List[EntityPair]]:
    """Split preserving the positive/negative ratio in both halves."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = spawn_rng(seed)
    train: List[EntityPair] = []
    test: List[EntityPair] = []
    for label in (0, 1, None):
        group = [pair for pair in pairs if pair.label == label] if label is not None else \
                [pair for pair in pairs if pair.label is None]
        if not group:
            continue
        order = np.arange(len(group))
        rng.shuffle(order)
        cut = int(round(len(group) * (1.0 - test_fraction)))
        train.extend(group[i] for i in order[:cut])
        test.extend(group[i] for i in order[cut:])
    rng.shuffle(train)
    rng.shuffle(test)
    return train, test
