"""Persistence of records and pairs to CSV / JSONL files.

The public DI2KG Monitor data ships as CSV label files; this module lets users
round-trip the synthetic corpora in the same tabular shape and load their own
data into the library.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from .records import EntityPair, Record

__all__ = [
    "write_records_csv",
    "read_records_csv",
    "iter_records_csv",
    "write_pairs_jsonl",
    "read_pairs_jsonl",
    "iter_pairs_jsonl",
    "write_pair_labels_csv",
    "read_pair_labels_csv",
]

PathLike = Union[str, Path]
_RESERVED_COLUMNS = ("record_id", "source", "entity_id", "entity_type")
# Attribute columns are prefixed so they can never collide with the reserved
# metadata columns (the corpora legitimately have an attribute named "source").
_ATTRIBUTE_PREFIX = "attr:"


def write_records_csv(records: Sequence[Record], path: PathLike) -> Path:
    """Write records to a CSV with one ``attr:``-prefixed column per attribute."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    attributes: List[str] = []
    for record in records:
        for attribute in record.attribute_names():
            if attribute not in attributes:
                attributes.append(attribute)
    fieldnames = list(_RESERVED_COLUMNS) + [f"{_ATTRIBUTE_PREFIX}{name}" for name in attributes]
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for record in records:
            row: Dict[str, str] = {
                "record_id": record.record_id,
                "source": record.source,
                "entity_id": record.entity_id or "",
                "entity_type": record.entity_type or "",
            }
            for attribute in attributes:
                row[f"{_ATTRIBUTE_PREFIX}{attribute}"] = record.value(attribute)
            writer.writerow(row)
    return path


def iter_records_csv(path: PathLike) -> Iterator[Record]:
    """Stream records from a CSV written by :func:`write_records_csv`.

    One record is materialised at a time; the linkage pipeline's ``ingest``
    stage consumes such an iterator once.
    """
    with Path(path).open("r", newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            attributes = {key[len(_ATTRIBUTE_PREFIX):]: value for key, value in row.items()
                          if key.startswith(_ATTRIBUTE_PREFIX)}
            yield Record(
                record_id=row["record_id"],
                source=row["source"],
                attributes=attributes,
                entity_id=row.get("entity_id") or None,
                entity_type=row.get("entity_type") or None,
            )


def read_records_csv(path: PathLike) -> List[Record]:
    """Read records previously written by :func:`write_records_csv` eagerly."""
    return list(iter_records_csv(path))


def write_pairs_jsonl(pairs: Sequence[EntityPair], path: PathLike) -> Path:
    """Write entity pairs to JSON Lines (one pair per line, full records)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for pair in pairs:
            handle.write(json.dumps(pair.to_dict(), sort_keys=True) + "\n")
    return path


def iter_pairs_jsonl(path: PathLike) -> Iterator[EntityPair]:
    """Stream entity pairs from a JSONL file, one pair in memory at a time."""
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield EntityPair.from_dict(json.loads(line))


def read_pairs_jsonl(path: PathLike) -> List[EntityPair]:
    """Read entity pairs previously written by :func:`write_pairs_jsonl` eagerly."""
    return list(iter_pairs_jsonl(path))


def write_pair_labels_csv(pairs: Sequence[EntityPair], path: PathLike) -> Path:
    """Write a DI2KG-style label file: left id, right id, label."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["left_record_id", "right_record_id", "label"])
        for pair in pairs:
            writer.writerow([pair.left.record_id, pair.right.record_id,
                             "" if pair.label is None else pair.label])
    return path


def read_pair_labels_csv(path: PathLike, records: Sequence[Record]) -> List[EntityPair]:
    """Join a label file against a record list to reconstruct entity pairs."""
    index: Dict[str, Record] = {record.record_id: record for record in records}
    pairs: List[EntityPair] = []
    with Path(path).open("r", newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            left = index.get(row["left_record_id"])
            right = index.get(row["right_record_id"])
            if left is None or right is None:
                raise KeyError(
                    f"label file references unknown record ids "
                    f"{row['left_record_id']!r} / {row['right_record_id']!r}"
                )
            raw_label: Optional[str] = row.get("label", "")
            label = int(raw_label) if raw_label not in ("", None) else None
            pairs.append(EntityPair(left=left, right=right, label=label))
    return pairs
