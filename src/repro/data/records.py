"""Entity records and entity pairs — the basic data objects of MEL.

A :class:`Record` is a row collected from one data source (website/database)
identified by its textual attributes.  A :class:`EntityPair` couples two
records and, optionally, a matching/non-matching label.  AdaMEL always works
on pairs (Problem 1/2 in the paper).  :class:`PairColumns` is many unlabeled
pairs of one record list as two position columns, the form the linkage
pipeline carries candidates in from blocking to clustering.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

__all__ = ["Record", "EntityPair", "PairColumns", "MISSING_VALUE",
           "pair_record_ids", "record_id_ranks"]

MISSING_VALUE = ""


@dataclass(frozen=True)
class Record:
    """An entity record from one data source.

    Attributes
    ----------
    record_id:
        Unique identifier within the corpus.
    source:
        The data source (``r*`` in the paper) this record was sampled from.
    attributes:
        Mapping of attribute name to textual value; missing values are the
        empty string (challenge C1).
    entity_id:
        The id of the underlying real-world entity when known (used by the
        synthetic generators to derive labels; hidden from the models).
    entity_type:
        Optional entity type (artist / album / track / monitor).

    A record is a value: do not mutate ``attributes`` once it has been
    blocked or encoded (the text table keeps its text ids on it); build a
    changed copy with :meth:`with_attributes`.
    """

    record_id: str
    source: str
    attributes: Mapping[str, str]
    entity_id: Optional[str] = None
    entity_type: Optional[str] = None

    def value(self, attribute: str) -> str:
        """Return the value of ``attribute`` (empty string when missing)."""
        value = self.attributes.get(attribute, MISSING_VALUE)
        return value if value is not None else MISSING_VALUE

    def value_tuple(self, attributes: Iterable[str]) -> Tuple[str, ...]:
        """:meth:`value` of every attribute in ``attributes``, as one tuple."""
        values = tuple(map(self.attributes.get, attributes))
        if None in values:
            values = tuple(MISSING_VALUE if value is None else value for value in values)
        return values

    def __getstate__(self) -> Dict[str, object]:
        # The text ids the text table keeps on a record are this process's
        # cache, not record state.
        return {key: value for key, value in self.__dict__.items() if key != "_text_row"}

    def has_value(self, attribute: str) -> bool:
        """Whether the attribute has a non-empty value."""
        return bool(self.value(attribute).strip())

    def attribute_names(self) -> Tuple[str, ...]:
        """Names of the attributes present on this record."""
        return tuple(self.attributes.keys())

    def with_attributes(self, attributes: Mapping[str, str]) -> "Record":
        """Return a copy with ``attributes`` replacing the current mapping."""
        return Record(
            record_id=self.record_id,
            source=self.source,
            attributes=dict(attributes),
            entity_id=self.entity_id,
            entity_type=self.entity_type,
        )

    def missing_attributes(self, schema: Iterable[str]) -> List[str]:
        """Attributes of ``schema`` with no value on this record."""
        return [attribute for attribute in schema if not self.has_value(attribute)]

    def to_dict(self) -> Dict[str, object]:
        """Serialise to a plain dict (for CSV/JSONL storage)."""
        return {
            "record_id": self.record_id,
            "source": self.source,
            "entity_id": self.entity_id,
            "entity_type": self.entity_type,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Record":
        """Inverse of :meth:`to_dict`."""
        return cls(
            record_id=str(payload["record_id"]),
            source=str(payload["source"]),
            attributes=dict(payload.get("attributes", {})),  # type: ignore[arg-type]
            entity_id=payload.get("entity_id"),  # type: ignore[arg-type]
            entity_type=payload.get("entity_type"),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class EntityPair:
    """A pair of entity records with an optional matching label.

    ``label`` is ``1`` for matching, ``0`` for non-matching, ``None`` when
    unlabeled (target-domain pairs before annotation).
    """

    left: Record
    right: Record
    label: Optional[int] = None
    pair_id: Optional[str] = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.label is not None and self.label not in (0, 1):
            raise ValueError(f"label must be 0, 1 or None, got {self.label!r}")
        if self.pair_id is None:
            object.__setattr__(self, "pair_id", f"{self.left.record_id}|{self.right.record_id}")

    @property
    def is_labeled(self) -> bool:
        return self.label is not None

    @property
    def sources(self) -> Tuple[str, str]:
        """The pair's (left source, right source)."""
        return self.left.source, self.right.source

    def source_set(self) -> frozenset:
        """Set of data sources this pair touches."""
        return frozenset((self.left.source, self.right.source))

    def values(self, attribute: str) -> Tuple[str, str]:
        """Return (left value, right value) for ``attribute``."""
        return self.left.value(attribute), self.right.value(attribute)

    def both_present(self, attribute: str) -> bool:
        """True when neither side is missing ``attribute`` (Fig. 11 metric)."""
        return self.left.has_value(attribute) and self.right.has_value(attribute)

    def with_label(self, label: Optional[int]) -> "EntityPair":
        """Return a copy of this pair carrying ``label``."""
        return EntityPair(left=self.left, right=self.right, label=label,
                          pair_id=self.pair_id, weight=self.weight)

    def unlabeled(self) -> "EntityPair":
        """Return a copy with the label removed (target-domain view)."""
        return self.with_label(None)

    def to_dict(self) -> Dict[str, object]:
        """Serialise to a plain dict."""
        return {
            "pair_id": self.pair_id,
            "label": self.label,
            "weight": self.weight,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "EntityPair":
        """Inverse of :meth:`to_dict`."""
        return cls(
            left=Record.from_dict(payload["left"]),  # type: ignore[arg-type]
            right=Record.from_dict(payload["right"]),  # type: ignore[arg-type]
            label=payload.get("label"),  # type: ignore[arg-type]
            pair_id=payload.get("pair_id"),  # type: ignore[arg-type]
            weight=float(payload.get("weight", 1.0)),  # type: ignore[arg-type]
        )


def record_id_ranks(records: Sequence[Record]) -> Tuple[List[str], np.ndarray]:
    """The records' distinct ids in string order, and each record's rank among
    them (int64, one per record): ordering by rank is ordering by id."""
    ids = sorted({record.record_id for record in records})
    rank_of = dict(zip(ids, range(len(ids))))
    ranks = map(rank_of.__getitem__, map(operator.attrgetter("record_id"), records))
    return ids, np.fromiter(ranks, dtype=np.int64, count=len(records))


class PairColumns(Sequence[EntityPair]):
    """Unlabeled pairs of ``records`` as two int64 position columns, seen as a
    read-only sequence of :class:`EntityPair`.

    Pair ``i`` is ``(records[left[i]], records[right[i]])``.  ``len()`` is
    O(1); ``view[i]`` builds that one pair, iteration builds them one at a
    time, and a slice is a view over the same records that builds none.
    ``rank[p]`` is the rank of ``records[p]``'s id among the records' distinct
    ids (:func:`record_id_ranks`; computed when not given).
    """

    def __init__(self, records: Sequence[Record], left: Sequence[int],
                 right: Sequence[int], rank: Optional[np.ndarray] = None) -> None:
        self.records = records
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        if self.left.shape != self.right.shape or self.left.ndim != 1:
            raise ValueError("left and right must be 1-D columns of one length")
        self.rank = record_id_ranks(records)[1] if rank is None else rank
        # [(key, (R, A) text ids)] or [None]; one list shared with every slice.
        self._text_ids: List[Optional[Tuple[object, np.ndarray]]] = [None]

    def __len__(self) -> int:
        return len(self.left)

    def __getitem__(self, item: Union[int, slice]) -> Union[EntityPair, "PairColumns"]:
        if isinstance(item, slice):
            view = PairColumns(self.records, self.left[item], self.right[item], self.rank)
            view._text_ids = self._text_ids
            return view
        return EntityPair(self.records[int(self.left[item])],
                          self.records[int(self.right[item])])

    def __iter__(self) -> Iterator[EntityPair]:
        records = self.records
        for left, right in zip(self.left.tolist(), self.right.tolist()):
            yield EntityPair(records[left], records[right])

    def text_ids(self, generation, attributes: Sequence[str]) -> np.ndarray:
        """The ``(R, A)`` text ids of every record over ``attributes`` in a
        text-table ``generation``: gathered once per generation (and
        attributes) for the view and all its slices, again after the table
        starts over."""
        key = (generation.serial, tuple(attributes))
        held = self._text_ids[0]
        if held is None or held[0] != key:
            cells = generation.cells(self.records, attributes)[0]
            held = (key, cells.reshape(len(self.records), len(attributes)))
            self._text_ids[0] = held
        return held[1]


def pair_record_ids(pairs: Sequence[EntityPair]) -> Tuple[List[str], List[str]]:
    """The left and the right record ids of ``pairs``; a :class:`PairColumns`
    reads them off its columns without building a pair."""
    if isinstance(pairs, PairColumns):
        ids = [record.record_id for record in pairs.records]
        return ([ids[position] for position in pairs.left.tolist()],
                [ids[position] for position in pairs.right.tolist()])
    return ([pair.left.record_id for pair in pairs],
            [pair.right.record_id for pair in pairs])
