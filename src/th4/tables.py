"""Sparse contingency tables over tuples of category labels.

A table is stored codes-first: each dimension's alphabet, one int64
code array per dimension (the cells' indices into the alphabets) and
one counts array. The label-tuple `counts` mapping is a read-only view
decoded from those arrays on demand. Marginals, merges and partitions
group the code arrays with numpy, never cell by cell in Python.

Every grouping of code arrays in th4 is done here, by one sort: each
row's codes form a mixed-radix int64 key, a payload (the row index, or
a cell count) is packed into the key's low bits, and np.sort of those
plain integers puts the rows in key order with their payloads. _group
uses the row index, so a group's first row is its first appearance;
_nested_sums uses the count, and reads the groups of every prefix of
the key off the same sorted keys by integer division. A stable argsort
stands in only where the packed value cannot fit in 63 bits.

Tables are built by from_counts (mappings) or _from_codes (code arrays)
and stay read-only, across pickle too. Parallel ingestion builds one
table per record shard and combines them with merge(); for any
partition of the records the merged counts equal the sequentially
built ones. merge lays tables side by side with _stacked: the union of
their alphabets, each table's codes recoded into it, and the counts.
(batch needs no recoding: the files of a chunk are coded on shared
alphabets as they are read.) Two tables' counts compare as mappings,
label tuple to count, so == never depends on cell or label order.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np


def normalize_subset(subset: Iterable[int], arity: int) -> tuple[int, ...]:
    """Validate a dimension-index set and return it sorted ascending."""
    given = tuple(subset)  # an iterator is read once, here
    dims = tuple(sorted(set(given)))
    if not dims:
        raise ValueError("dimension subset must be non-empty")
    if dims[0] < 0 or dims[-1] >= arity:
        raise ValueError(f"dimension index out of range for {arity}-dimension data: {given}")
    return dims


_Alphabets = tuple[tuple[str, ...], ...]


def _label_index(alphabet: Sequence[str]) -> dict[str, int]:
    """Label -> its position in `alphabet`, the code the table's cells carry."""
    return {label: i for i, label in enumerate(alphabet)}


# Mixed-radix keys are re-densified before their radix could pass this.
_KEY_LIMIT = 2**62


def _mixed_radix_key(
    columns: Sequence[np.ndarray], sizes: Sequence[int]
) -> tuple[np.ndarray, int]:
    """One int64 key per row, equal for two rows exactly when all their codes
    are and ordered as the rows' code tuples are; and the key's radix, which
    every key is below.

    columns[i] holds codes in range(sizes[i]). Whenever the radix would
    pass _KEY_LIMIT, the key built so far is replaced by its rank among
    its distinct values first, so the key never overflows: the ranks are
    fewer than the rows, and for data that fits in memory the rows times
    any alphabet's size stay far below 2**62.
    """
    key = np.zeros(len(columns[0]), dtype=np.int64)
    radix = 1
    for codes, size in zip(columns, sizes):
        if radix * size > _KEY_LIMIT:
            uniq, key = np.unique(key, return_inverse=True)
            radix = len(uniq)
        key = key * size + codes
        radix *= size
    return key, radix


def _sorted_rows(
    columns: Sequence[np.ndarray], sizes: Sequence[int], payload: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The rows' mixed-radix keys in ascending order, and the rows' `payload`
    (non-negative integers) in the same order.

    The payload is packed into the low bits of the key and the packed
    values are sorted with np.sort, with no argsort and no gather, so
    rows with equal keys come out by ascending payload. Where the packed
    value cannot fit in 63 bits (the key's radix times the payload's
    range passes 2**63, or the payload is an object array) a stable
    argsort orders the rows instead, equal keys in row order.
    """
    key, radix = _mixed_radix_key(columns, sizes)
    if payload.dtype != object:
        bits = int(payload.max(initial=0)).bit_length()
        if radix << bits <= 2**63:
            packed = np.sort(key << bits | payload)
            return packed >> bits, packed & ((1 << bits) - 1)
    order = np.argsort(key, kind="stable")
    return key[order], payload[order]


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values of the sorted `keys` starts."""
    change = np.empty(len(keys), dtype=bool)
    change[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=change[1:])
    return change.nonzero()[0]


def _group(
    alphabets: _Alphabets, columns: Sequence[np.ndarray], counts: np.ndarray | None = None
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Rows with equal codes summed into one cell: each cell's codes, cells in
    first-appearance order, and its summed `counts` (its rows, if None)."""
    n = len(columns[0])
    keys, rows = _sorted_rows(columns, [len(alphabet) for alphabet in alphabets], np.arange(n))
    starts = _run_starts(keys)
    if counts is None:
        sums = np.diff(starts, append=n)
    else:
        sums = np.add.reduceat(counts[rows], starts)
    first = rows[starts]  # a group's rows come out ascending: its first row leads
    by_row = np.empty(n, dtype=sums.dtype)
    by_row[first] = sums
    leads = np.zeros(n, bool)
    leads[first] = True
    cells = np.flatnonzero(leads)  # the first rows, ascending
    return tuple(codes[cells] for codes in columns), by_row[cells]


def _nested_sums(
    columns: Sequence[np.ndarray], sizes: Sequence[int], counts: np.ndarray, lengths: Sequence[int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each l in `lengths`, the rows (at least one) grouped by their codes
    in columns[:l]: where each group starts among the rows sorted by their
    codes, and its summed `counts`, groups in ascending order of their codes.

    One sort serves every l: rows sorted by the whole key are sorted by
    each prefix of it, and a prefix's key is the whole key divided by the
    radix of the columns after it. A key that would be re-densified
    cannot be divided, so then each l is sorted on its own. The starts
    agree either way: a group starts after every row whose prefix is
    smaller, however the rows are ordered beyond the prefix.
    """
    columns, sizes = columns[: max(lengths)], sizes[: max(lengths)]
    if math.prod(sizes) > _KEY_LIMIT and min(lengths) < len(columns):
        return [_nested_sums(columns, sizes, counts, [l])[0] for l in lengths]
    keys, payload = _sorted_rows(columns, sizes, counts)
    running = np.cumsum(payload)
    out = []
    for l in lengths:
        starts = _run_starts(keys // math.prod(sizes[l:]))
        upto = running[np.concatenate((starts[1:], [len(keys)])) - 1]  # through each group's end
        out.append((starts, np.concatenate((upto[:1], upto[1:] - upto[:-1]))))
    return out


class _CountsView(Mapping):
    """Read-only label-tuple -> count view of a table's coded cells.

    Iterates the cells in storage (first-appearance) order. Lookups by
    key, and so == (Mapping's, on label -> count items, in any order),
    build a label dict at the first one; len works on the arrays.
    """

    __slots__ = ("_alphabets", "_codes", "_counts", "_dict")

    def __init__(self, alphabets: _Alphabets, codes: tuple[np.ndarray, ...], counts: np.ndarray):
        for array in (*codes, counts):
            array.flags.writeable = False
        self._alphabets, self._codes, self._counts = alphabets, codes, counts
        self._dict: dict[tuple[str, ...], int] | None = None

    def __reduce__(self):  # unpickled through __init__, so the arrays stay read-only
        return _CountsView, (self._alphabets, self._codes, self._counts)

    def _as_dict(self) -> dict[tuple[str, ...], int]:
        if self._dict is None:
            self._dict = dict(zip(self, self._counts.tolist()))
        return self._dict

    def __getitem__(self, labels: tuple[str, ...]) -> int:
        return self._as_dict()[labels]

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        return zip(*(map(a.__getitem__, c.tolist()) for a, c in zip(self._alphabets, self._codes)))

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        return repr(self._as_dict())


def _stacked(views: Sequence[_CountsView]) -> tuple[_Alphabets, list[np.ndarray], np.ndarray]:
    """The cells of count views of one arity, view after view: the union of
    their alphabets, labels in order of first appearance; per dimension the
    views' codes recoded into it; and their counts, int64, or exact Python
    ints in an object array once their sum reaches 2**63."""
    alphabets, columns = [], []
    for d in range(len(views[0]._alphabets)):
        alphabets.append(tuple(dict.fromkeys(chain.from_iterable(v._alphabets[d] for v in views))))
        index = _label_index(alphabets[-1])
        recodes = [np.fromiter(map(index.__getitem__, v._alphabets[d]), np.int64) for v in views]
        columns.append(np.concatenate([recode[v._codes[d]] for recode, v in zip(recodes, views)]))
    dtype = np.int64 if sum(int(v._counts.sum()) for v in views) < 2**63 else object
    counts = np.concatenate([v._counts for v in views]).astype(dtype, copy=False)
    return tuple(alphabets), columns, counts


@dataclass(frozen=True, init=False)
class ContingencyTable:
    """Counts of label tuples in `arity` dimensions.

    Zero cells are implicit: only observed tuples are stored, each with
    a count >= 1. `alphabets` lists each dimension's distinct labels in
    first-observation order; the ordering never affects any computed
    value. The cells are kept as one int64 code array per dimension
    (indices into `alphabets`) and a counts array, int64 or, when
    `total` >= 2**63, exact Python ints in an object array. `counts` is
    a read-only mapping over the observed cells in first-appearance
    order. from_counts builds a table; the class itself takes no arguments.
    """

    arity: int
    counts: Mapping[tuple[str, ...], int]
    total: int
    alphabets: tuple[tuple[str, ...], ...]

    def __init__(self, *args, **kwargs):
        raise TypeError("build a table with ContingencyTable.from_counts(arity, counts)")

    @property
    def _codes(self) -> tuple[np.ndarray, ...]:  # per dimension, indices into `alphabets`
        return self.counts._codes

    @property
    def _cell_counts(self) -> np.ndarray:  # aligned with `_codes`
        return self.counts._counts

    @classmethod
    def _from_codes(
        cls, alphabets: _Alphabets, codes: tuple[np.ndarray, ...], counts: np.ndarray
    ) -> "ContingencyTable":
        """The table whose i-th cell has labels alphabets[d][codes[d][i]] and
        count counts[i]; the arrays become its read-only storage."""
        total = int(counts.sum())
        # Counts beyond int64 stay exact as Python ints in an object array.
        counts = counts.astype(np.int64 if total < 2**63 else object, copy=False)
        table, view = object.__new__(cls), _CountsView(alphabets, codes, counts)
        # Frozen: the fields are set past the dataclass's __setattr__.
        table.__dict__.update(arity=len(alphabets), counts=view, total=total, alphabets=alphabets)
        return table

    @classmethod
    def from_counts(cls, arity: int, counts: Mapping[tuple[str, ...], int]) -> "ContingencyTable":
        """Build a table from a label-tuple -> count mapping, zero cells dropped.

        Raises ValueError for an arity below 1 and, naming the first such
        cell, for a tuple of another length or a count not an integer >= 0.
        """
        if arity < 1:
            raise ValueError(f"arity must be >= 1, got {arity}")
        kept = {}
        for labels, count in counts.items():
            if count == 0:
                continue  # zero cells are dropped before any check
            if len(labels) != arity:
                raise ValueError(f"tuple {labels!r} does not have {arity} labels")
            try:
                count = operator.index(count)
            except TypeError:
                message = f"stored count for {labels!r} must be an integer, got {count!r}"
                raise ValueError(message) from None
            if count < 1:
                raise ValueError(f"stored count for {labels!r} must be >= 1, got {count}")
            kept[labels] = count
        columns = list(zip(*kept)) or [()] * arity
        alphabets = tuple(tuple(dict.fromkeys(column)) for column in columns)
        codes = tuple(
            np.fromiter(map(_label_index(alphabet).__getitem__, column), np.int64, len(column))
            for alphabet, column in zip(alphabets, columns)
        )
        return cls._from_codes(alphabets, codes, np.array(list(kept.values()), dtype=object))


def _trimmed(
    alphabets: _Alphabets, codes: Sequence[np.ndarray], counts: np.ndarray
) -> ContingencyTable:
    """The table of these cells, each alphabet cut to the labels the cells
    use, in first-appearance order."""
    kept_alphabets, kept_codes = [], []
    for alphabet, column in zip(alphabets, codes):
        (used,), _ = _group((alphabet,), [column])
        recode = np.zeros(len(alphabet), dtype=np.int64)
        recode[used] = np.arange(len(used))
        kept_codes.append(recode[column])
        kept_alphabets.append(tuple(map(alphabet.__getitem__, used.tolist())))
    return ContingencyTable._from_codes(tuple(kept_alphabets), tuple(kept_codes), counts)


def merge(a: ContingencyTable, b: ContingencyTable) -> ContingencyTable:
    """Cellwise sum of two tables with the same arity: a's cells, then b's new ones."""
    if a.arity != b.arity:
        raise ValueError(f"cannot merge tables of arity {a.arity} and {b.arity}")
    alphabets, columns, counts = _stacked((a.counts, b.counts))
    return ContingencyTable._from_codes(alphabets, *_group(alphabets, columns, counts))


def project(table: ContingencyTable, subset: Iterable[int]) -> ContingencyTable:
    """Marginal repackaged as a standalone table over the retained dimensions.

    Onto every dimension this is `table` itself; tables are immutable.
    """
    dims = normalize_subset(subset, table.arity)
    if dims == tuple(range(table.arity)):
        return table
    alphabets = tuple(table.alphabets[d] for d in dims)
    cells = _group(alphabets, [table._codes[d] for d in dims], table._cell_counts)
    return ContingencyTable._from_codes(alphabets, *cells)
