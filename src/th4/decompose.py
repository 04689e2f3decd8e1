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
from typing import Iterable, Sequence

from .infocalc import transmission
from .tables import ContingencyTable, merge, normalize_subset

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


def _assemble(
    dims: tuple[int, ...],
    labeled_tables: Sequence[tuple[str, ContingencyTable]],
    pooled: ContingencyTable,
) -> DecompositionResult:
    t_pooled = transmission(pooled, dims)
    groups = []
    for label, table_g in labeled_tables:
        weight = table_g.total / pooled.total
        t_g = transmission(table_g, dims)
        groups.append(GroupContribution(label, table_g.total, weight, t_g, weight * t_g))
    groups.sort(key=lambda g: g.group_label)
    t_between = t_pooled - fsum(g.contribution for g in groups)
    return DecompositionResult(
        subset=dims, groups=tuple(groups), t_pooled=t_pooled, t_between=t_between
    )


def _check_decomposable(dims: tuple[int, ...]) -> None:
    if len(dims) < 2:
        raise ValueError("the decomposed subset needs at least two dimensions")


def decompose_by_dimension(
    table: ContingencyTable, group_dim: int, subset: Iterable[int]
) -> DecompositionResult:
    """Partition the table's cells by their label on `group_dim`, decompose T over `subset`."""
    dims = normalize_subset(subset, table.arity)
    _check_decomposable(dims)
    if not 0 <= group_dim < table.arity:
        raise ValueError(f"grouping dimension {group_dim} out of range")
    if group_dim in dims:
        raise ValueError("the grouping dimension cannot be part of the decomposed subset")
    buckets: dict[str, dict[tuple[str, ...], int]] = {}
    for labels, count in table.counts.items():
        buckets.setdefault(labels[group_dim], {})[labels] = count
    labeled_tables = [
        (label, ContingencyTable.from_counts(table.arity, cells))
        for label, cells in buckets.items()
    ]
    return _assemble(dims, labeled_tables, table)


def decompose_external(
    groups: Sequence[tuple[str, ContingencyTable]], subset: Iterable[int]
) -> DecompositionResult:
    """Decompose T over `subset` for caller-defined groups.

    The pooled table is the merge of all group tables, i.e. the groups
    concatenated.
    """
    if not groups:
        raise ValueError("need at least one group")
    arities = {table.arity for _, table in groups}
    if len(arities) != 1:
        raise ValueError(f"groups mix arities {sorted(arities)}")
    dims = normalize_subset(subset, arities.pop())
    _check_decomposable(dims)
    pooled = groups[0][1]
    for _, table_g in groups[1:]:
        pooled = merge(pooled, table_g)
    return _assemble(dims, groups, pooled)
