"""Seeded case-record corpora for the th4 benchmark.

Every label is drawn from a Zipf law with exponent ZIPF_S over its
dimension's alphabet, independently per dimension. About a third of
the lines are fully quoted with a space after each comma; the rest are
bare. A corpus is written once and its label-tuple counts are returned,
so reference values never depend on parsing the file back.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

# The skew the workloads are specified with. At the 10^5 records ipf3
# draws over 2000x50x20 labels it gives about 88,000 observed cells, a
# fill of 0.044 of the dense table.
ZIPF_S = 0.6
QUOTED_SHARE = 1 / 3
DIM_PREFIX = "wxyz"


@dataclass(frozen=True)
class Shape:
    """Alphabet size per dimension, record count, and share of records with one blank label."""

    alphabets: tuple[int, ...]
    records: int
    empty_share: float = 0.0

    @property
    def dense_cells(self) -> int:
        cells = 1
        for size in self.alphabets:
            cells *= size
        return cells


def _zipf_cum_weights(size: int) -> list[float]:
    return list(accumulate(1.0 / (rank**ZIPF_S) for rank in range(1, size + 1)))


def write_corpus(path: Path, shape: Shape, rng: random.Random) -> Counter:
    """Write one corpus file; return the count of each label tuple written."""
    n = shape.records
    columns = []
    for dim, size in enumerate(shape.alphabets):
        labels = [f"{DIM_PREFIX[dim]}{i}" for i in range(size)]
        columns.append(rng.choices(labels, cum_weights=_zipf_cum_weights(size), k=n))
    rows = [list(labels) for labels in zip(*columns)]
    arity = len(shape.alphabets)
    for row in rows:
        if shape.empty_share and rng.random() < shape.empty_share:
            row[rng.randrange(arity)] = ""
    quoted = [rng.random() < QUOTED_SHARE for _ in range(n)]
    lines = []
    for number, (row, quote) in enumerate(zip(rows, quoted), start=1):
        if quote:
            lines.append(", ".join(f'"{field}"' for field in (f"r{number}", *row)))
        else:
            lines.append(",".join((str(number), *row)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Counter(tuple(row) for row in rows)
