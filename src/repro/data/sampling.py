"""Batch sampling and pair-sampling utilities.

AdaMEL trains with mini-batches randomly drawn from the labeled source domain
(Algorithm 1, line 7).  The samplers here are deterministic given a seed and
support class-balanced sampling, which the synthetic generators and the
support-set experiments (Fig. 10) use to draw "50 positive / 50 negative"
style samples.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

from ..utils.rng import SeedLike, spawn_rng
from .records import EntityPair

__all__ = ["shuffled_batches", "sample_balanced", "sample_support_set"]


def shuffled_batches(num_items: int, batch_size: int, seed: int) -> Iterator[np.ndarray]:
    """Yield one epoch of shuffled mini-batches of indices over ``num_items``.

    The order is a fresh generator seeded with ``seed`` shuffling
    ``arange(num_items)``; the last batch is partial when ``batch_size`` does
    not divide ``num_items``.  The trainers pass a per-epoch seed.
    """
    if num_items <= 0:
        raise ValueError(f"num_items must be positive, got {num_items}")
    order = np.arange(num_items)
    spawn_rng(seed).shuffle(order)
    for start in range(0, num_items, batch_size):
        yield order[start:start + batch_size]


def sample_balanced(pairs: Sequence[EntityPair], num_positive: int, num_negative: int,
                    seed: SeedLike = 0) -> List[EntityPair]:
    """Draw up to ``num_positive`` positives and ``num_negative`` negatives.

    Sampling is without replacement; when a class has fewer pairs than
    requested, all of them are returned.
    """
    rng = spawn_rng(seed)
    positives = [pair for pair in pairs if pair.label == 1]
    negatives = [pair for pair in pairs if pair.label == 0]
    chosen: List[EntityPair] = []
    if positives:
        take = min(num_positive, len(positives))
        indices = rng.choice(len(positives), size=take, replace=False)
        chosen.extend(positives[i] for i in indices)
    if negatives:
        take = min(num_negative, len(negatives))
        indices = rng.choice(len(negatives), size=take, replace=False)
        chosen.extend(negatives[i] for i in indices)
    rng.shuffle(chosen)
    return chosen


def sample_support_set(pairs: Sequence[EntityPair], size: int, balanced: bool = True,
                       seed: SeedLike = 0) -> List[EntityPair]:
    """Sample a labeled support set of ``size`` pairs from ``pairs``.

    The paper collects 100 samples (50 positive, 50 negative) from the target
    domain; ``balanced=True`` reproduces that protocol while ``balanced=False``
    samples uniformly.
    """
    labeled = [pair for pair in pairs if pair.is_labeled]
    if size <= 0 or not labeled:
        return []
    if balanced:
        half = max(size // 2, 1)
        sampled = sample_balanced(labeled, num_positive=half, num_negative=size - half, seed=seed)
        return sampled[:size]
    rng = spawn_rng(seed)
    take = min(size, len(labeled))
    indices = rng.choice(len(labeled), size=take, replace=False)
    return [labeled[i] for i in indices]
