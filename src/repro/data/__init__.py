"""Data substrate: records, schemas, domains, sampling, storage."""

from . import generators
from .domain import MELScenario, PairCollection, SourceDomain, SupportSet, TargetDomain
from .records import MISSING_VALUE, EntityPair, Record
from .sampling import sample_balanced, sample_support_set, shuffled_batches
from .schema import Schema, align_ontology, align_pairs, union_schema
from .splits import stratified_split
from .storage import (
    iter_pairs_jsonl,
    iter_records_csv,
    read_pair_labels_csv,
    read_pairs_jsonl,
    read_records_csv,
    write_pair_labels_csv,
    write_pairs_jsonl,
    write_records_csv,
)

__all__ = [
    "generators",
    "Record",
    "EntityPair",
    "MISSING_VALUE",
    "Schema",
    "align_ontology",
    "align_pairs",
    "union_schema",
    "PairCollection",
    "SourceDomain",
    "TargetDomain",
    "SupportSet",
    "MELScenario",
    "shuffled_batches",
    "sample_balanced",
    "sample_support_set",
    "stratified_split",
    "write_records_csv",
    "read_records_csv",
    "iter_records_csv",
    "write_pairs_jsonl",
    "read_pairs_jsonl",
    "iter_pairs_jsonl",
    "write_pair_labels_csv",
    "read_pair_labels_csv",
]
