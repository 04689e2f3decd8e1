"""Group-wise decomposition of pooled transmission.

The pooled T over a dimension subset splits exactly into case-weighted
per-group transmissions plus a between-group residual:

    T_pooled = sum_g (n_g / N) * T_g  +  T_between

with T_between defined as the remainder, so the reconstruction holds by
construction. Negate a group's contribution to display it as a
reduction of uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import Iterable

import numpy as np

from .infocalc import transmission
from .tables import ContingencyTable, _trimmed, normalize_subset

_TOL = 1e-12


@dataclass(frozen=True)
class GroupContribution:
    """One group's share of the pooled transmission."""

    group_label: str
    n_g: int
    weight: float
    t_g: float
    contribution: float  # weight * t_g


@dataclass(frozen=True)
class DecompositionResult:
    subset: tuple[int, ...]
    groups: tuple[GroupContribution, ...]
    t_pooled: float
    t_between: float

    def __post_init__(self):
        weight_sum = fsum(g.weight for g in self.groups)
        assert abs(weight_sum - 1.0) <= _TOL, f"group weights sum to {weight_sum!r}"
        reconstructed = self.t_between + fsum(g.contribution for g in self.groups)
        assert abs(reconstructed - self.t_pooled) <= _TOL, (
            f"reconstruction off by {reconstructed - self.t_pooled!r}"
        )


def decompose_by_dimension(
    table: ContingencyTable, group_dim: int, subset: Iterable[int]
) -> DecompositionResult:
    """Partition the table's cells by their label on `group_dim`, decompose T over `subset`."""
    dims = normalize_subset(subset, table.arity)
    if len(dims) < 2:
        raise ValueError("the decomposed subset needs at least two dimensions")
    if not 0 <= group_dim < table.arity:
        raise ValueError(f"grouping dimension {group_dim} out of range")
    if group_dim in dims:
        raise ValueError("the grouping dimension cannot be part of the decomposed subset")
    t_pooled = transmission(table, dims)
    groups = []
    for label, table_g in _partition(table, group_dim):
        weight = table_g.total / table.total
        t_g = transmission(table_g, dims)
        groups.append(GroupContribution(label, table_g.total, weight, t_g, weight * t_g))
    groups.sort(key=lambda g: g.group_label)
    t_between = t_pooled - fsum(g.contribution for g in groups)
    return DecompositionResult(
        subset=dims, groups=tuple(groups), t_pooled=t_pooled, t_between=t_between
    )


def _partition(table: ContingencyTable, group_dim: int) -> list[tuple[str, ContingencyTable]]:
    """The table's cells split by their label on `group_dim`, cell order kept
    within each part; parts in first-appearance order of their label."""
    group = table._codes[group_dim]
    order = np.argsort(group, kind="stable")
    parts = np.split(order, np.flatnonzero(np.diff(group[order])) + 1) if len(order) else []
    return [
        (
            table.alphabets[group_dim][group[rows[0]]],
            _trimmed(table.alphabets, [c[rows] for c in table._codes], table._cell_counts[rows]),
        )
        for rows in sorted(parts, key=lambda rows: rows[0])
    ]
