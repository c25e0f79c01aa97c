"""Attribute schemas and ontology alignment.

Different data sources expose different attributes (challenge C2).  AdaMEL's
prerequisite for domain adaptation is that the source and target domain share
one feature space, which the paper obtains by *aligning the ontology*: taking
the union of the attribute sets and filling absent attributes with blank
"dummy" values.  :func:`align_ontology` implements exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .records import MISSING_VALUE, EntityPair, Record

__all__ = ["Schema", "align_ontology", "align_pairs", "union_schema"]


@dataclass(frozen=True)
class Schema:
    """An ordered set of textual attribute names (the set ``A`` in the paper)."""

    attributes: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError("schema attributes must be unique")

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self):
        return iter(self.attributes)

    def __contains__(self, attribute: str) -> bool:
        return attribute in self.attributes

    def index(self, attribute: str) -> int:
        """Position of ``attribute`` within the schema."""
        return self.attributes.index(attribute)

    def union(self, other: "Schema") -> "Schema":
        """Union of two schemas, preserving this schema's order first."""
        merged: List[str] = list(self.attributes)
        merged.extend(attr for attr in other.attributes if attr not in self.attributes)
        return Schema(tuple(merged))

    @classmethod
    def from_records(cls, records: Iterable[Record]) -> "Schema":
        """Infer a schema as the ordered union of attributes seen on records."""
        seen: List[str] = []
        for record in records:
            for attribute in record.attribute_names():
                if attribute not in seen:
                    seen.append(attribute)
        return cls(tuple(seen))

    @classmethod
    def from_pairs(cls, pairs: Iterable[EntityPair]) -> "Schema":
        """Infer a schema from the records of entity pairs."""
        records: List[Record] = []
        for pair in pairs:
            records.append(pair.left)
            records.append(pair.right)
        return cls.from_records(records)


def union_schema(*schemas: Schema) -> Schema:
    """Union of an arbitrary number of schemas."""
    if not schemas:
        raise ValueError("union_schema requires at least one schema")
    merged = schemas[0]
    for schema in schemas[1:]:
        merged = merged.union(schema)
    return merged


def align_pairs(pairs: Sequence[EntityPair], schema: Schema) -> List[EntityPair]:
    """Align both records of every pair onto ``schema`` (dummy attributes added)."""
    aligned: List[EntityPair] = []
    for pair in pairs:
        left_values = {attr: pair.left.value(attr) for attr in schema}
        right_values = {attr: pair.right.value(attr) for attr in schema}
        aligned.append(EntityPair(
            left=pair.left.with_attributes(left_values),
            right=pair.right.with_attributes(right_values),
            label=pair.label,
            pair_id=pair.pair_id,
            weight=pair.weight,
        ))
    return aligned


def align_ontology(source_pairs: Sequence[EntityPair],
                   target_pairs: Sequence[EntityPair]) -> Tuple[Schema, List[EntityPair], List[EntityPair]]:
    """Align source- and target-domain pairs onto the union schema A ∪ A'.

    Returns ``(schema, aligned_source_pairs, aligned_target_pairs)``.  After
    alignment every record exposes the same attributes, with empty strings for
    values a source never provides — this is the dummy-attribute construction
    described in Problem 2 and Section 4.1 of the paper.
    """
    source_schema = Schema.from_pairs(source_pairs) if source_pairs else Schema(())
    target_schema = Schema.from_pairs(target_pairs) if target_pairs else Schema(())
    schema = source_schema.union(target_schema)
    return schema, align_pairs(source_pairs, schema), align_pairs(target_pairs, schema)
