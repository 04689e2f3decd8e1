"""Sparse contingency tables over tuples of category labels.

Tables are immutable once built. Parallel ingestion works by building
one table per record shard and combining with merge(); for any
partition of the records the merged counts equal the sequentially
built ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptyDatasetError

if TYPE_CHECKING:
    from .ingest import Dataset


def normalize_subset(subset: Iterable[int], arity: int) -> tuple[int, ...]:
    """Validate a dimension-index set and return it sorted ascending."""
    dims = tuple(sorted(set(subset)))
    if not dims:
        raise ValueError("dimension subset must be non-empty")
    if dims[0] < 0 or dims[-1] >= arity:
        raise ValueError(
            f"dimension index out of range for {arity}-dimension data: {tuple(subset)}"
        )
    return dims


def _alphabets_from(arity: int, tuples: Iterable[tuple[str, ...]]) -> tuple[tuple[str, ...], ...]:
    columns = list(zip(*tuples)) or [()] * arity
    return tuple(tuple(dict.fromkeys(column)) for column in columns)


def _label_index(alphabet: Sequence[str]) -> dict[str, int]:
    """Label -> its position in `alphabet`, the code the table's cells carry."""
    return {label: i for i, label in enumerate(alphabet)}


# Mixed-radix keys are re-densified before their radix could pass this.
_KEY_LIMIT = 2**62


def _mixed_radix_key(columns: Sequence[np.ndarray], sizes: Sequence[int]) -> np.ndarray:
    """One int64 key per row, equal for two rows exactly when all their codes are.

    columns[i] holds codes in range(sizes[i]). Whenever the radix would
    pass _KEY_LIMIT, the key built so far is replaced by its rank among
    its distinct values first, so the key never overflows.
    """
    key = np.zeros(len(columns[0]), dtype=np.int64)
    radix = 1
    for codes, size in zip(columns, sizes):
        if radix * size > _KEY_LIMIT:
            uniq, key = np.unique(key, return_inverse=True)
            radix = len(uniq)
        key = key * size + codes
        radix *= size
    return key


@dataclass(frozen=True)
class ContingencyTable:
    """Counts of label tuples in `arity` dimensions.

    Zero cells are implicit: `counts` stores only observed tuples, each
    with a count >= 1. `alphabets` lists each dimension's distinct
    labels in first-observation order; the ordering never affects any
    computed value. Counts are plain Python ints, so there is no
    overflow ceiling on dataset size.
    """

    arity: int
    counts: Mapping[tuple[str, ...], int]
    total: int
    alphabets: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if self.total != sum(self.counts.values()):
            raise ValueError("total does not match the stored counts")
        if self.counts and (
            set(map(len, self.counts)) != {self.arity} or min(self.counts.values()) < 1
        ):
            for labels, count in self.counts.items():  # name the first offending cell
                if len(labels) != self.arity:
                    raise ValueError(f"tuple {labels!r} does not have {self.arity} labels")
                if count < 1:
                    raise ValueError(f"stored count for {labels!r} must be >= 1, got {count}")

    # Not a field, so ==, repr and hash ignore it; cached_property writes
    # the instance __dict__ directly, which a frozen dataclass allows.
    @cached_property
    def _coded(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Per-dimension int64 codes of the cells (indices into `alphabets`),
        aligned with `counts` order, and the counts as an array."""
        cells = list(self.counts)
        codes = tuple(
            np.fromiter(
                map(_label_index(alphabet).__getitem__, map(itemgetter(d), cells)),
                dtype=np.int64,
                count=len(cells),
            )
            for d, alphabet in enumerate(self.alphabets)
        )
        # Counts beyond int64 stay exact as Python ints in an object array.
        dtype = np.int64 if self.total < 2**63 else object
        return codes, np.array(list(self.counts.values()), dtype=dtype)

    @classmethod
    def _from_codes(
        cls,
        alphabets: tuple[tuple[str, ...], ...],
        codes: tuple[np.ndarray, ...],
        counts: np.ndarray,
    ) -> "ContingencyTable":
        """The table whose i-th cell has labels alphabets[d][codes[d][i]] and
        count counts[i]; the arrays become its _coded."""
        columns = (map(alphabet.__getitem__, c.tolist()) for alphabet, c in zip(alphabets, codes))
        table = cls(
            arity=len(alphabets),
            counts=dict(zip(zip(*columns), counts.tolist())),
            total=int(counts.sum()),
            alphabets=alphabets,
        )
        table.__dict__["_coded"] = (codes, counts)
        return table

    @classmethod
    def from_counts(cls, arity: int, counts: Mapping[tuple[str, ...], int]) -> "ContingencyTable":
        """Build a table from an explicit cell->count mapping (zero cells dropped)."""
        kept = {labels: count for labels, count in counts.items() if count != 0}
        return cls(
            arity=arity,
            counts=kept,
            total=sum(kept.values()),
            alphabets=_alphabets_from(arity, kept),
        )


@dataclass(frozen=True)
class MarginalTable:
    """Projection of a table onto a subset of its dimensions."""

    subset: tuple[int, ...]
    counts: Mapping[tuple[str, ...], int]
    total: int


def build_table(dataset: Dataset) -> ContingencyTable:
    """Count label tuples: one cell per distinct tuple, in record order."""
    if not dataset.records:
        raise EmptyDatasetError(f"dataset {dataset.source_label!r} has no records")
    counts = Counter(record.labels for record in dataset.records)
    return ContingencyTable(
        arity=dataset.arity,
        counts=dict(counts),
        total=len(dataset.records),
        alphabets=_alphabets_from(dataset.arity, counts),
    )


def marginal(table: ContingencyTable, subset: Iterable[int]) -> MarginalTable:
    """Sum counts over the dimensions not in `subset`; total is preserved."""
    dims = normalize_subset(subset, table.arity)
    out: dict[tuple[str, ...], int] = {}
    for labels, count in table.counts.items():
        key = tuple(labels[d] for d in dims)
        out[key] = out.get(key, 0) + count
    return MarginalTable(subset=dims, counts=out, total=table.total)


def _merged_alphabet(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    union = dict.fromkeys(a)
    for label in b:
        union.setdefault(label)
    return tuple(union)


def merge(a: ContingencyTable, b: ContingencyTable) -> ContingencyTable:
    """Cellwise sum of two tables with the same arity."""
    if a.arity != b.arity:
        raise ValueError(f"cannot merge tables of arity {a.arity} and {b.arity}")
    counts = dict(a.counts)
    for labels, count in b.counts.items():
        counts[labels] = counts.get(labels, 0) + count
    alphabets = tuple(
        _merged_alphabet(pa, pb) for pa, pb in zip(a.alphabets, b.alphabets)
    )
    return ContingencyTable(
        arity=a.arity, counts=counts, total=a.total + b.total, alphabets=alphabets
    )


def project(table: ContingencyTable, subset: Iterable[int]) -> ContingencyTable:
    """Marginal repackaged as a standalone table over the retained dimensions.

    Onto every dimension this is `table` itself; tables are immutable.
    """
    dims = normalize_subset(subset, table.arity)
    if dims == tuple(range(table.arity)):
        return table
    m = marginal(table, dims)
    return ContingencyTable(
        arity=len(m.subset),
        counts=m.counts,
        total=m.total,
        alphabets=tuple(table.alphabets[d] for d in m.subset),
    )
