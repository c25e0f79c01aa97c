"""Shared machinery for synthetic multi-source corpus generation.

A corpus is produced in three steps:

1. sample an *entity catalogue*: real-world entities with canonical attribute
   values;
2. render each entity as records on a subset of data sources, applying the
   source's :class:`~repro.data.generators.corruptions.SourceStyle`
   (this is where challenges C1-C3 enter);
3. form labeled entity pairs: positives are cross-source record pairs of the
   same entity, negatives pair records of different entities, with a
   configurable share of *hard* negatives that share surface tokens.

The resulting :class:`MultiSourceCorpus` can be turned into a
:class:`~repro.data.domain.MELScenario` via :meth:`MultiSourceCorpus.build_scenario`,
matching the experimental protocol of Section 5.2 (overlapping / disjoint).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ...utils.rng import SeedLike, spawn_rng
from ..domain import MELScenario, PairCollection, SourceDomain, SupportSet, TargetDomain
from ..records import EntityPair, Record
from ..sampling import sample_support_set
from ..schema import Schema
from .corruptions import SourceStyle, apply_style

__all__ = ["SyntheticEntity", "MultiSourceCorpus", "CorpusGenerator"]


@dataclass(frozen=True)
class SyntheticEntity:
    """A ground-truth real-world entity with canonical attribute values."""

    entity_id: str
    entity_type: str
    attributes: Dict[str, str]

    def value(self, attribute: str) -> str:
        return self.attributes.get(attribute, "")


@dataclass
class MultiSourceCorpus:
    """A generated corpus: records, labeled pairs, and source metadata."""

    name: str
    records: List[Record]
    pairs: List[EntityPair]
    sources: List[str]
    schema: Schema
    entity_type: Optional[str] = None

    def pair_collection(self, name: Optional[str] = None) -> PairCollection:
        return PairCollection(self.pairs, name=name or self.name)

    def positive_rate(self) -> float:
        return self.pair_collection().positive_rate()

    # ------------------------------------------------------------------ #
    # Scenario construction (Section 5.2 protocol)
    # ------------------------------------------------------------------ #
    def build_scenario(self, seen_sources: Sequence[str], mode: str = "overlapping",
                       support_size: int = 100, test_size: Optional[int] = None,
                       max_train: Optional[int] = None, seed: SeedLike = 0,
                       name: Optional[str] = None) -> MELScenario:
        """Split the corpus into a :class:`MELScenario`.

        Parameters
        ----------
        seen_sources:
            The sources whose labeled pairs form the source domain ``D_S``.
        mode:
            ``"overlapping"`` — target pairs have at least one record from an
            unseen source (sources may overlap with ``D*_S``);
            ``"disjoint"`` — both records of every target pair come from
            unseen sources.
        support_size:
            Number of labeled pairs drawn from the target pool as ``S_U``
            (0 disables the support set).
        test_size:
            Number of labeled target pairs held out for evaluation
            (default: all remaining target pairs).
        max_train:
            Optional cap on the number of source-domain training pairs.
        """
        if mode not in {"overlapping", "disjoint"}:
            raise ValueError(f"mode must be 'overlapping' or 'disjoint', got {mode!r}")
        seen = set(seen_sources)
        unknown = seen - set(self.sources)
        if unknown:
            raise ValueError(f"unknown seen sources: {sorted(unknown)}")
        rng = spawn_rng(seed)

        source_pairs = [pair for pair in self.pairs if pair.source_set() <= seen]
        if mode == "overlapping":
            target_pool = [pair for pair in self.pairs if pair.source_set() - seen]
        else:
            target_pool = [pair for pair in self.pairs if not (pair.source_set() & seen)]
        if not source_pairs:
            raise ValueError("no labeled pairs fall entirely within the seen sources")
        if not target_pool:
            raise ValueError(f"no target pairs available for mode={mode!r}")

        if max_train is not None and len(source_pairs) > max_train:
            indices = rng.choice(len(source_pairs), size=max_train, replace=False)
            source_pairs = [source_pairs[i] for i in indices]

        # Support set first (balanced), then the test set from the remainder,
        # then the unlabeled adaptation pool is everything in the target pool.
        support_pairs: List[EntityPair] = []
        remaining = list(target_pool)
        if support_size > 0:
            support_pairs = sample_support_set(target_pool, size=support_size, balanced=True,
                                               seed=rng.integers(0, 2**31 - 1))
            support_ids = {pair.pair_id for pair in support_pairs}
            remaining = [pair for pair in target_pool if pair.pair_id not in support_ids]
        if test_size is not None and len(remaining) > test_size:
            # Keep the test set class-balanced in proportion to the pool.
            indices = rng.choice(len(remaining), size=test_size, replace=False)
            test_pairs = [remaining[i] for i in indices]
        else:
            test_pairs = remaining
        if not test_pairs:
            raise ValueError("target pool too small to build a test set; "
                             "reduce support_size or generate more pairs")

        scenario = MELScenario(
            source=SourceDomain(source_pairs, name=f"{self.name}-source"),
            target=TargetDomain(target_pool, name=f"{self.name}-target"),
            test=PairCollection(test_pairs, name=f"{self.name}-test"),
            support=SupportSet(support_pairs, name=f"{self.name}-support") if support_pairs else None,
            name=name or f"{self.name}-{mode}",
            entity_type=self.entity_type,
        )
        return scenario.align()


class CorpusGenerator:
    """Base class turning an entity catalogue + source styles into a corpus."""

    def __init__(self, seed: SeedLike = 0) -> None:
        self.rng = spawn_rng(seed)

    # Subclasses provide entity sampling and source styles. ------------- #
    def entity_catalogue(self, num_entities: int) -> List[SyntheticEntity]:
        raise NotImplementedError

    def source_styles(self) -> Dict[str, SourceStyle]:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def render_record(self, entity: SyntheticEntity, style: SourceStyle,
                      schema: Schema, record_index: int) -> Record:
        """Render one entity as a record in the style of ``style.source``."""
        attributes = {attr: apply_style(style, attr, entity.value(attr), self.rng)
                      for attr in schema}
        return Record(
            record_id=f"{style.source}#{entity.entity_id}#{record_index}",
            source=style.source,
            attributes=attributes,
            entity_id=entity.entity_id,
            entity_type=entity.entity_type,
        )

    def render_records(self, entities: Sequence[SyntheticEntity], schema: Schema,
                       styles: Dict[str, SourceStyle],
                       min_sources_per_entity: int = 2,
                       max_sources_per_entity: Optional[int] = None) -> List[Record]:
        """Render every entity on a random subset of sources."""
        source_names = list(styles)
        max_sources = max_sources_per_entity or len(source_names)
        max_sources = min(max_sources, len(source_names))
        min_sources = min(min_sources_per_entity, max_sources)
        records: List[Record] = []
        for entity in entities:
            count = int(self.rng.integers(min_sources, max_sources + 1))
            chosen = self.rng.choice(len(source_names), size=count, replace=False)
            for index, source_index in enumerate(chosen):
                style = styles[source_names[int(source_index)]]
                records.append(self.render_record(entity, style, schema, index))
        return records

    def build_pairs(self, records: Sequence[Record], negatives_per_positive: float = 1.0,
                    hard_negative_fraction: float = 0.5,
                    max_positive_pairs: Optional[int] = None) -> List[EntityPair]:
        """Create labeled pairs from rendered records.

        Positives: all (or up to ``max_positive_pairs``) cross-source record
        pairs of the same entity.  Negatives: ``negatives_per_positive`` times
        as many pairs of records from different entities; a
        ``hard_negative_fraction`` of them share at least one attribute token
        with their partner, making them non-trivial.
        """
        by_entity: Dict[str, List[Record]] = {}
        for record in records:
            if record.entity_id is not None:
                by_entity.setdefault(record.entity_id, []).append(record)

        positives: List[EntityPair] = []
        for group in by_entity.values():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    if group[i].source == group[j].source:
                        continue
                    positives.append(EntityPair(left=group[i], right=group[j], label=1))
        if max_positive_pairs is not None and len(positives) > max_positive_pairs:
            indices = self.rng.choice(len(positives), size=max_positive_pairs, replace=False)
            positives = [positives[i] for i in indices]

        num_negatives = int(round(len(positives) * negatives_per_positive))
        negatives = self._sample_negatives(records, by_entity, num_negatives,
                                           hard_negative_fraction)
        pairs = positives + negatives
        self.rng.shuffle(pairs)
        return pairs

    def _sample_negatives(self, records: Sequence[Record], by_entity: Dict[str, List[Record]],
                          num_negatives: int, hard_fraction: float) -> List[EntityPair]:
        """Sample non-matching pairs, a fraction of which share surface tokens."""
        if num_negatives <= 0 or len(by_entity) < 2:
            return []
        record_list = list(records)
        # Index records by their first title-ish token for hard negatives.
        token_index: Dict[str, List[Record]] = {}
        for record in record_list:
            for value in record.attributes.values():
                for token in value.lower().split()[:2]:
                    if len(token) >= 3:
                        token_index.setdefault(token, []).append(record)

        negatives: List[EntityPair] = []
        seen_keys: Set[Tuple[str, str]] = set()
        target_hard = int(round(num_negatives * hard_fraction))
        attempts = 0
        max_attempts = num_negatives * 30
        tokens = [tok for tok, recs in token_index.items() if len(recs) >= 2]
        while len(negatives) < num_negatives and attempts < max_attempts:
            attempts += 1
            use_hard = len(negatives) < target_hard and tokens
            if use_hard:
                token = tokens[int(self.rng.integers(len(tokens)))]
                bucket = token_index[token]
                i, j = self.rng.integers(0, len(bucket), size=2)
                left, right = bucket[int(i)], bucket[int(j)]
            else:
                i, j = self.rng.integers(0, len(record_list), size=2)
                left, right = record_list[int(i)], record_list[int(j)]
            if left.record_id == right.record_id or left.entity_id == right.entity_id:
                continue
            key = tuple(sorted((left.record_id, right.record_id)))
            if key in seen_keys:
                continue
            seen_keys.add(key)
            negatives.append(EntityPair(left=left, right=right, label=0))
        return negatives
