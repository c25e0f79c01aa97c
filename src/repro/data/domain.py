"""Source domain, target domain, support set, and MEL scenario containers.

Definitions follow Section 3.2 of the paper:

* the **source domain** ``D_S`` is a set of *labeled* pairs from a limited set
  of data sources;
* the **target domain** ``D_T`` is a set of *unlabeled* pairs where each pair
  has at least one record from a source unseen in ``D_S`` (disjoint scenario)
  or from the full set of sources (overlapping scenario);
* the **support set** ``S_U`` is a small set of labeled pairs sampled from the
  target domain's sources.

``MELScenario`` bundles the three together with a labeled test set for
evaluation, which is how every experiment in Section 5 is configured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .records import EntityPair, Record
from .schema import Schema, align_pairs, union_schema

__all__ = ["PairCollection", "SourceDomain", "TargetDomain", "SupportSet", "MELScenario"]


class PairCollection:
    """A list of entity pairs with convenience statistics."""

    def __init__(self, pairs: Sequence[EntityPair], name: str = "pairs") -> None:
        self.pairs: List[EntityPair] = list(pairs)
        self.name = name

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __getitem__(self, index: int) -> EntityPair:
        return self.pairs[index]

    @property
    def labels(self) -> np.ndarray:
        """Labels as an int array; unlabeled pairs are encoded as -1."""
        return np.array([pair.label if pair.label is not None else -1 for pair in self.pairs],
                        dtype=np.int64)

    @property
    def labeled_pairs(self) -> List[EntityPair]:
        return [pair for pair in self.pairs if pair.is_labeled]

    def sources(self) -> Set[str]:
        """All data sources touched by these pairs (``D*`` in the paper)."""
        found: Set[str] = set()
        for pair in self.pairs:
            found.update(pair.source_set())
        return found

    def schema(self) -> Schema:
        """Attribute schema inferred from the pairs."""
        return Schema.from_pairs(self.pairs)

    def positive_rate(self) -> float:
        """Fraction of labeled pairs that are positive."""
        labeled = self.labeled_pairs
        if not labeled:
            return 0.0
        return sum(pair.label for pair in labeled) / len(labeled)

    def subset(self, indices: Sequence[int], name: Optional[str] = None) -> "PairCollection":
        """Return a new collection with the pairs at ``indices``."""
        return PairCollection([self.pairs[i] for i in indices], name=name or self.name)

    def filter_sources(self, sources: Iterable[str], mode: str = "any") -> "PairCollection":
        """Keep pairs whose records come from ``sources``.

        ``mode='any'`` keeps a pair when at least one record's source is in
        ``sources``; ``mode='all'`` requires both.
        """
        allowed = set(sources)
        if mode not in {"any", "all"}:
            raise ValueError(f"mode must be 'any' or 'all', got {mode!r}")
        if mode == "any":
            kept = [pair for pair in self.pairs if pair.source_set() & allowed]
        else:
            kept = [pair for pair in self.pairs if pair.source_set() <= allowed]
        return PairCollection(kept, name=self.name)

    def align(self, schema: Schema) -> "PairCollection":
        """Return a copy with every pair aligned onto ``schema``."""
        return PairCollection(align_pairs(self.pairs, schema), name=self.name)

    def summary(self) -> Dict[str, object]:
        """Human-readable statistics for logging and DESIGN/EXPERIMENTS docs."""
        return {
            "name": self.name,
            "num_pairs": len(self),
            "num_labeled": len(self.labeled_pairs),
            "positive_rate": round(self.positive_rate(), 4),
            "num_sources": len(self.sources()),
            "num_attributes": len(self.schema()) if len(self) else 0,
        }


class SourceDomain(PairCollection):
    """Labeled pairs from the seen data sources (``D_S``)."""

    def __init__(self, pairs: Sequence[EntityPair], name: str = "source_domain") -> None:
        unlabeled = [pair for pair in pairs if not pair.is_labeled]
        if unlabeled:
            raise ValueError(
                f"source domain must be fully labeled; {len(unlabeled)} unlabeled pairs given"
            )
        super().__init__(pairs, name=name)


class TargetDomain(PairCollection):
    """Unlabeled pairs from the target data sources (``D_T``).

    Labels, when present on the input pairs, are stripped so that the training
    code can never accidentally peek at them; evaluation uses the separate
    labeled test split of :class:`MELScenario`.
    """

    def __init__(self, pairs: Sequence[EntityPair], name: str = "target_domain") -> None:
        super().__init__([pair.unlabeled() for pair in pairs], name=name)


class SupportSet(PairCollection):
    """A small labeled sample from the target domain's sources (``S_U``)."""

    def __init__(self, pairs: Sequence[EntityPair], name: str = "support_set") -> None:
        unlabeled = [pair for pair in pairs if not pair.is_labeled]
        if unlabeled:
            raise ValueError(
                f"support set must be fully labeled; {len(unlabeled)} unlabeled pairs given"
            )
        super().__init__(pairs, name=name)


@dataclass
class MELScenario:
    """A complete multi-source entity linkage scenario.

    Attributes
    ----------
    source:
        Labeled training pairs from the seen sources.
    target:
        Unlabeled pairs from the target domain used for adaptation.
    support:
        Optional small labeled support set from the target sources.
    test:
        Labeled pairs used only for evaluation (never for training).
    name:
        Scenario identifier, e.g. ``"music3k-artist-overlapping"``.
    entity_type:
        The entity type being linked, when applicable.
    """

    source: SourceDomain
    target: TargetDomain
    test: PairCollection
    support: Optional[SupportSet] = None
    name: str = "scenario"
    entity_type: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.source) == 0:
            raise ValueError("MELScenario requires a non-empty source domain")
        if len(self.test) == 0:
            raise ValueError("MELScenario requires a non-empty test set")

    @property
    def seen_sources(self) -> FrozenSet[str]:
        """The seen data sources ``D*_S``."""
        return frozenset(self.source.sources())

    @property
    def target_sources(self) -> FrozenSet[str]:
        """The target data sources ``D*_T``."""
        return frozenset(self.target.sources())

    @property
    def unseen_sources(self) -> FrozenSet[str]:
        """Target sources never observed in the source domain."""
        return self.target_sources - self.seen_sources

    def aligned_schema(self) -> Schema:
        """Union schema over source, target, support and test pairs."""
        schemas = [self.source.schema(), self.target.schema(), self.test.schema()]
        if self.support is not None and len(self.support):
            schemas.append(self.support.schema())
        return union_schema(*schemas)

    def align(self) -> "MELScenario":
        """Return a copy of the scenario with every split on the union schema.

        The aligned scenario is memoized: every model fit on the same scenario
        object calls ``align()`` first, and re-aligning thousands of pairs per
        model dominated multi-method experiments like Figure 6.  Splits are
        treated as immutable after construction (nothing in the library
        mutates a ``PairCollection``), so the cached copy stays valid.
        """
        cached = getattr(self, "_aligned", None)
        if cached is not None:
            return self if cached is True else cached
        schema = self.aligned_schema()
        aligned = MELScenario(
            source=SourceDomain(self.source.align(schema).pairs, name=self.source.name),
            target=TargetDomain(self.target.align(schema).pairs, name=self.target.name),
            test=self.test.align(schema),
            support=SupportSet(self.support.align(schema).pairs, name=self.support.name)
            if self.support is not None and len(self.support) else self.support,
            name=self.name,
            entity_type=self.entity_type,
        )
        # Aligning an already-aligned scenario is the identity; a flag, not a
        # self-reference, so a dropped scenario is freed by reference counting.
        object.__setattr__(aligned, "_aligned", True)
        object.__setattr__(self, "_aligned", aligned)
        return aligned

    def summary(self) -> Dict[str, object]:
        """Scenario statistics in the spirit of the paper's Tables 2-3."""
        return {
            "name": self.name,
            "entity_type": self.entity_type,
            "train": len(self.source),
            "support": len(self.support) if self.support is not None else 0,
            "target_unlabeled": len(self.target),
            "test": len(self.test),
            "seen_sources": sorted(self.seen_sources),
            "unseen_sources": sorted(self.unseen_sources),
            "num_attributes": len(self.aligned_schema()),
        }
