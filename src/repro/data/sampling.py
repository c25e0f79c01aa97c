"""Batch sampling and pair-sampling utilities.

AdaMEL trains with mini-batches randomly drawn from the labeled source domain
(Algorithm 1, line 7).  The samplers here are deterministic given a seed and
support class-balanced sampling, which the synthetic generators and the
support-set experiments (Fig. 10) use to draw "50 positive / 50 negative"
style samples.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..utils.rng import SeedLike, spawn_rng
from .records import EntityPair

__all__ = ["BatchSampler", "sample_balanced", "sample_support_set"]


class BatchSampler:
    """Yield shuffled mini-batches of indices over a dataset of ``n`` items.

    With an integer seed, every pass over the sampler (an "epoch") re-shuffles
    with a generator derived deterministically from ``(seed, epoch)``: the
    epoch-``k`` order depends only on the seed and ``k``, never on how many
    random numbers earlier passes consumed.  Two samplers sharing a seed
    therefore stay in lockstep even when their iterations interleave.  The
    first epoch's permutation matches the historical behaviour (a fresh
    generator seeded with ``seed``), so single-pass users are unaffected.
    """

    def __init__(self, num_items: int, batch_size: int, shuffle: bool = True,
                 drop_last: bool = False, seed: SeedLike = 0) -> None:
        if num_items <= 0:
            raise ValueError(f"num_items must be positive, got {num_items}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.num_items = num_items
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._seed = int(seed) if isinstance(seed, (int, np.integer)) else None
        # Legacy path: an externally provided generator (or None) cannot be
        # re-derived per epoch, so it is consumed statefully as before.
        self._rng = spawn_rng(seed) if self._seed is None else None
        self._epoch = 0

    def _epoch_rng(self) -> np.random.Generator:
        if self._seed is None:
            return self._rng
        if self._epoch == 0:
            return spawn_rng(self._seed)
        entropy = np.random.SeedSequence([self._seed & 0xFFFFFFFFFFFFFFFF, self._epoch])
        return np.random.default_rng(entropy)

    def set_epoch(self, epoch: int) -> "BatchSampler":
        """Jump to a specific epoch (e.g. when resuming training).

        Only available with an integer seed: an externally provided generator
        is consumed statefully, so a past epoch's order cannot be re-derived.
        """
        if self._seed is None:
            raise RuntimeError(
                "set_epoch() requires an integer seed; this sampler was built "
                "with an external random generator, whose epoch order cannot "
                "be re-derived"
            )
        if epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {epoch}")
        self._epoch = epoch
        return self

    def __iter__(self) -> Iterator[np.ndarray]:
        order = np.arange(self.num_items)
        if self.shuffle:
            self._epoch_rng().shuffle(order)
        self._epoch += 1
        for start in range(0, self.num_items, self.batch_size):
            batch = order[start:start + self.batch_size]
            if self.drop_last and len(batch) < self.batch_size:
                break
            yield batch

    def __len__(self) -> int:
        if self.drop_last:
            return self.num_items // self.batch_size
        return (self.num_items + self.batch_size - 1) // self.batch_size


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
