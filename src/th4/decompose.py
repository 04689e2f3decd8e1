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
from math import fsum, log2
from typing import Iterable

import numpy as np

from .infocalc import _lattice, _transmission_from_entropies, transmission
from .tables import ContingencyTable, _mixed_radix_key, normalize_subset

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
    codes, counts = table._codes, table._cell_counts
    group, n_groups = codes[group_dim], len(table.alphabets[group_dim])
    first, totals = _summed([group], [n_groups], counts)
    n_g = totals.tolist()
    n_float = [float(n) for n in n_g]
    # One grouped pass per subset U of `dims`, keyed on (group, U), gives
    # every group's H(U): group codes lead the key, so each group's
    # marginal cells are one run of the sorted keys, groups ascending.
    entropies = {}
    for u in _lattice(dims):
        sizes = [n_groups, *(len(table.alphabets[d]) for d in u)]
        cells, sums = _summed([group, *(codes[d] for d in u)], sizes, counts)
        runs = np.flatnonzero(np.diff(group[cells], prepend=-1))
        # Each marginal cell's term c/n_g * log2(c/n_g), as _entropies forms it.
        p = sums.astype(float) / np.repeat(n_float, np.diff(runs, append=len(sums)))
        terms = (p * np.fromiter(map(log2, p.tolist()), float, len(p))).tolist()
        bounds = [*runs.tolist(), len(terms)]
        entropies[u] = [-fsum(terms[i:j]) + 0.0 for i, j in zip(bounds, bounds[1:])]
    groups = []
    for g, (code, n) in enumerate(zip(group[first].tolist(), n_g)):
        weight = n / table.total
        t_g = _transmission_from_entropies(dims, {u: h[g] for u, h in entropies.items()})
        label = table.alphabets[group_dim][code]
        groups.append(GroupContribution(label, n, weight, t_g, weight * t_g))
    groups.sort(key=lambda g: g.group_label)
    t_between = t_pooled - fsum(g.contribution for g in groups)
    return DecompositionResult(
        subset=dims, groups=tuple(groups), t_pooled=t_pooled, t_between=t_between
    )


def _summed(
    columns: list[np.ndarray], sizes: list[int], counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows with equal codes summed, groups in ascending key order: one
    row index of each group, and its summed `counts`."""
    key = _mixed_radix_key(columns, sizes)
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    return order[starts], np.add.reduceat(counts[order], starts)
