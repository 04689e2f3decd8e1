"""Group-wise decomposition of pooled transmission.

The pooled T over a dimension subset splits exactly into case-weighted
per-group transmissions plus a between-group residual:

    T_pooled = sum_g (n_g / N) * T_g  +  T_between

with T_between defined as the remainder, so the reconstruction holds by
construction. Negate a group's contribution to display it as a
reduction of uncertainty.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import fsum
from typing import Iterable

import numpy as np

from .infocalc import (
    _chain_order,
    _chains,
    _lattice,
    _plugin_entropies,
    _transmission_from_entropies,
    transmission,
)
from .tables import ContingencyTable, _nested_sums, normalize_subset

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
    group = codes[group_dim]
    sizes = [len(alphabet) for alphabet in table.alphabets]
    # The groups' codes and sizes, ascending by code; each group's rows
    # start at the same place in every sort whose key the group code leads.
    present = np.flatnonzero(np.bincount(group, minlength=sizes[group_dim]))
    [(group_starts, n_g)] = _nested_sums([group], [sizes[group_dim]], counts, [1])
    n_float = [float(n) for n in n_g.tolist()]
    # One sort per chain of subsets U of `dims`, keyed on (group, U), gives
    # every group's marginal counts on each U.
    entropies = {}
    for members in _chains(_lattice(dims)):
        order = [group_dim, *_chain_order(members)]
        marginals = _nested_sums(
            [codes[d] for d in order],
            [sizes[d] for d in order],
            counts,
            [1 + len(u) for u in members],
        )
        for u, (starts, sums) in zip(members, marginals):
            owner = np.searchsorted(group_starts, starts, side="right") - 1
            entropies[u] = _plugin_entropies(*_distinct_pairs(owner, sums), n_float)
    groups = []
    for g, (code, n) in enumerate(zip(present.tolist(), n_g.tolist())):
        weight = n / table.total
        t_g = _transmission_from_entropies(dims, {u: h[g] for u, h in entropies.items()})
        label = table.alphabets[group_dim][code]
        groups.append(GroupContribution(label, n, weight, t_g, weight * t_g))
    groups.sort(key=lambda g: g.group_label)
    t_between = t_pooled - fsum(g.contribution for g in groups)
    return DecompositionResult(
        subset=dims, groups=tuple(groups), t_pooled=t_pooled, t_between=t_between
    )


def _distinct_pairs(
    owner: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (group, count) pairs of marginal cells, ascending, and how
    many cells share each; cell i, of count counts[i], is in group owner[i]
    (ascending)."""
    bits = int(counts.max()).bit_length()
    if counts.dtype != object and int(owner[-1]) + 1 << bits <= 2**63:
        pairs, multiplicity = np.unique(owner << bits | counts, return_counts=True)
        return pairs >> bits, pairs & ((1 << bits) - 1), multiplicity
    # Counts past int64 stay Python ints.
    pairs, multiplicity = zip(*sorted(Counter(zip(owner.tolist(), counts.tolist())).items()))
    groups, values = zip(*pairs)
    return np.array(groups), np.array(values, dtype=object), np.array(multiplicity)
