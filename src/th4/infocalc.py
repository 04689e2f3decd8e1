"""Entropies and signed transmissions over contingency tables, in bits.

All quantities are plug-in (relative frequency) estimates with base-2
logarithms:

    H(S)      = -sum_s p(s) log2 p(s)  over the marginal for subset S
    T(S)      = sum over non-empty U within S of (-1)^(|U|+1) H(U)
    T(a,b|c)  = H(ac) + H(bc) - H(c) - H(abc)

T of two dimensions is the ordinary mutual information and never
negative; T of three or four dimensions is signed, with negative values
indicating a net reduction of uncertainty (synergy). Sums use
math.fsum, so every value is independent of cell iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, repeat
from math import fsum, log2
from typing import Iterable, Mapping, Sequence

import numpy as np

from .tables import ContingencyTable, _mixed_radix_key, normalize_subset

DIM_NAMES = "wxyz"

# Fixed output schema: every subset of the four dimensions, smallest
# first, lexicographic within each size. Reports from 3-dimension data
# occupy the same 26 slots with zeros in every z-involving entry.
H_SCHEMA: tuple[tuple[int, ...], ...] = tuple(
    subset for size in range(1, 5) for subset in combinations(range(4), size)
)
T_SCHEMA: tuple[tuple[int, ...], ...] = tuple(s for s in H_SCHEMA if len(s) >= 2)


def subset_name(subset: Iterable[int]) -> str:
    """Display name of a dimension subset, e.g. (0, 2) -> "WY"."""
    return "".join(DIM_NAMES[d] for d in sorted(subset)).upper()


def parse_subset(text: str) -> tuple[int, ...]:
    """Turn a dimension string like "wxz" or "w,x,z" into sorted indices."""
    cleaned = text.replace(",", "").replace(" ", "").lower()
    if not cleaned:
        raise ValueError("empty dimension subset")
    dims = []
    for ch in cleaned:
        if ch not in DIM_NAMES:
            raise ValueError(f"unknown dimension {ch!r}; use letters from {DIM_NAMES!r}")
        dims.append(DIM_NAMES.index(ch))
    if len(set(dims)) != len(dims):
        raise ValueError(f"duplicate dimension in {text!r}")
    return tuple(sorted(dims))


def _entropies(
    table: ContingencyTable, subsets: Sequence[tuple[int, ...]]
) -> dict[tuple[int, ...], float]:
    """H of each (normalized) subset, from the table's integer-coded cells.

    Cells are grouped by an integer mixed-radix key per subset; each H
    sums one term per marginal cell with math.fsum, which is correctly
    rounded, so the value depends only on the multiset of marginal
    counts and never on cell order.
    """
    if table.total < 1:
        raise ValueError("entropy of an empty table is undefined")
    codes, counts = table._coded
    n = float(table.total)
    out = {}
    for dims in subsets:
        key = _mixed_radix_key([codes[d] for d in dims], [len(table.alphabets[d]) for d in dims])
        order = np.argsort(key)
        key = key[order]
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        sums = np.add.reduceat(counts[order], starts)
        values, multiplicity = np.unique(sums, return_counts=True)
        terms = (
            repeat(c / n * log2(c / n), m)
            for c, m in zip(values.tolist(), multiplicity.tolist())
        )
        out[dims] = -fsum(chain.from_iterable(terms)) + 0.0  # normalize -0.0
    return out


def entropy(table: ContingencyTable, subset: Iterable[int]) -> float:
    """Shannon entropy in bits of the marginal distribution for `subset`."""
    dims = normalize_subset(subset, table.arity)
    return _entropies(table, [dims])[dims]


def _lattice(dims: tuple[int, ...], min_size: int = 1) -> list[tuple[int, ...]]:
    """Every subset of `dims` with at least `min_size` members, smallest first."""
    return [u for size in range(min_size, len(dims) + 1) for u in combinations(dims, size)]


def _transmission_from_entropies(
    dims: tuple[int, ...], h: Mapping[tuple[int, ...], float]
) -> float:
    return fsum((1.0 if len(u) % 2 else -1.0) * h[u] for u in _lattice(dims)) + 0.0


def transmission(table: ContingencyTable, subset: Iterable[int]) -> float:
    """Signed transmission T(S), by inclusion-exclusion over subset entropies."""
    dims = normalize_subset(subset, table.arity)
    if len(dims) < 2:
        raise ValueError("transmission needs at least two distinct dimensions")
    return _transmission_from_entropies(dims, _entropies(table, _lattice(dims)))


def conditional_transmission(table: ContingencyTable, a: int, b: int, given: int) -> float:
    """Mutual information of dimensions a and b conditioned on `given`; never negative."""
    if len({a, b, given}) != 3:
        raise ValueError("the two target dimensions and the conditioning dimension must be distinct")
    ac, bc, c, abc = (
        normalize_subset(s, table.arity) for s in ((a, given), (b, given), (given,), (a, b, given))
    )
    h = _entropies(table, (ac, bc, c, abc))
    return fsum((h[ac], h[bc], -h[c], -h[abc])) + 0.0


@dataclass(frozen=True)
class EntropyReport:
    """Every subset entropy and transmission of one table, in bits.

    `h` maps each non-empty dimension subset (sorted index tuples) to
    its entropy, `t` each subset of size >= 2 to its transmission: 15
    and 11 entries for 4-dimension data, 7 and 4 for 3-dimension data.
    """

    arity: int
    n_cases: int
    h: Mapping[tuple[int, ...], float]
    t: Mapping[tuple[int, ...], float]

    def schema_values(self) -> tuple[float, ...]:
        """The 26 values of the fixed 4-dimension schema, H block then T block.

        For 3-dimension data every entry involving the absent fourth
        dimension is exactly 0.
        """
        hs = tuple(self.h.get(s, 0.0) for s in H_SCHEMA)
        ts = tuple(self.t.get(s, 0.0) for s in T_SCHEMA)
        return hs + ts


def full_report(table: ContingencyTable) -> EntropyReport:
    """Compute H for every subset and T for every subset of size >= 2."""
    dims = tuple(range(table.arity))
    h = _entropies(table, _lattice(dims))
    t = {subset: _transmission_from_entropies(subset, h) for subset in _lattice(dims, 2)}
    return EntropyReport(arity=table.arity, n_cases=table.total, h=h, t=t)
