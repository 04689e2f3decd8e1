"""Entropies and signed transmissions over contingency tables, in bits.

All quantities are plug-in (relative frequency) estimates with base-2
logarithms:

    H(S)      = -sum_s p(s) log2 p(s)  over the marginal for subset S
    T(S)      = sum over non-empty U within S of (-1)^(|U|+1) H(U)
    T(a,b|c)  = H(ac) + H(bc) - H(c) - H(abc)

T of two dimensions is the ordinary mutual information and never
negative; T of three or four dimensions is signed, with negative values
indicating a net reduction of uncertainty (synergy).

The requested subsets are covered by chains of nested subsets (W, WX,
WXY), one sort of the cells per chain (tables._nested_sums); H of all
the table's dimensions needs no sort, as its cells are distinct. Each H
takes the term of each distinct marginal count once, times its
multiplicity as four floats with that exact sum, and adds them with
math.fsum, which is correctly rounded: every value equals the sum of
one term per marginal cell and is independent of cell order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import fsum, log2
from typing import Iterable, Mapping, Sequence

import numpy as np

from .tables import ContingencyTable, _nested_sums, normalize_subset

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


def _chains(subsets: Iterable[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
    """Cover `subsets` with chains of nested subsets, each listed smallest first.

    Largest subsets first, each one joins the first chain whose smallest
    member contains it, or starts a chain. The 14 proper subsets of four
    dimensions take 6 chains, as few as can cover the 6 pairs, no two of
    which nest.
    """
    chains: list[list[tuple[int, ...]]] = []
    for dims in sorted(dict.fromkeys(subsets), key=len, reverse=True):
        for members in chains:
            if set(dims) < set(members[0]):
                members.insert(0, dims)
                break
        else:
            chains.append([dims])
    return chains


def _chain_order(members: Sequence[tuple[int, ...]]) -> list[int]:
    """The dimensions of a chain's largest member, ordered so that every
    member is a prefix."""
    order: list[int] = []
    for dims in members:
        order += [d for d in dims if d not in order]
    return order


_SPLIT = 2.0**27 + 1  # Veltkamp: x = hi + lo, each with at most 26 significant bits


def _exact_multiples(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Four floats per element whose exact sum is x * m, for integers
    0 <= m < 2**52.

    x splits into hi + lo and m into a multiple of 2**26 and a remainder,
    each part with at most 26 significant bits, so each of the four
    products is exact.
    """
    t = _SPLIT * x
    hi = t - (t - x)
    lo = x - hi
    m_hi = (m >> 26 << 26).astype(float)
    m_lo = (m & (2**26 - 1)).astype(float)
    return np.stack((hi * m_hi, hi * m_lo, lo * m_hi, lo * m_lo), axis=-1)


def _plugin_entropies(
    groups: np.ndarray, values: np.ndarray, multiplicity: np.ndarray, totals: Sequence[float]
) -> list[float]:
    """Each group's H in bits, from the distinct counts of its marginal
    cells: values[i] is the count of multiplicity[i] cells of group
    groups[i] (ascending), and group g has totals[g] cases.

    The term p log2 p, p = c / total, is formed once per distinct (group,
    count) pair and summed times its multiplicity as four exact floats.
    math.fsum returns the correctly rounded exact sum, so each H is the
    one summed with one term per marginal cell, whatever the cell order.
    """
    p = (values / np.asarray(totals)[groups]).astype(float, copy=False)
    terms = p * np.fromiter(map(log2, p.tolist()), float, len(p))
    pieces = _exact_multiples(terms, multiplicity).ravel().tolist()
    bounds = (4 * np.searchsorted(groups, np.arange(len(totals) + 1))).tolist()
    return [-fsum(pieces[i:j]) + 0.0 for i, j in zip(bounds, bounds[1:])]  # + 0.0: no -0.0


def _entropies(
    table: ContingencyTable, subsets: Sequence[tuple[int, ...]]
) -> dict[tuple[int, ...], float]:
    """H of each (normalized) subset, from the table's integer-coded cells.

    The subsets are covered by chains of nested subsets (W, WX, WXY):
    one packed sort of the cells by the key of a chain's largest member
    gives every member's marginal counts (tables._nested_sums). H of all
    the dimensions needs no sort, as the table's cells are distinct.
    Each H adds the term of each distinct marginal count times its
    multiplicity as exact floats (_plugin_entropies, one call for all
    the subsets), so it equals the correctly rounded sum of one term per
    marginal cell and depends only on the multiset of marginal counts,
    never on cell order.
    """
    if table.total < 1:
        raise ValueError("entropy of an empty table is undefined")
    codes, counts = table._codes, table._cell_counts
    full = tuple(range(table.arity))
    marginals = {full: counts} if full in subsets else {}
    for members in _chains(dims for dims in subsets if dims != full):
        order = _chain_order(members)
        sums = _nested_sums(
            [codes[d] for d in order],
            [len(table.alphabets[d]) for d in order],
            counts,
            [len(dims) for dims in members],
        )
        marginals.update((dims, cell_sums) for dims, (_, cell_sums) in zip(members, sums))
    distinct = [np.unique(sums, return_counts=True) for sums in marginals.values()]
    groups = np.repeat(np.arange(len(distinct)), [len(values) for values, _ in distinct])
    values, multiplicity = (np.concatenate(parts) for parts in zip(*distinct))
    totals = [float(table.total)] * len(distinct)
    h = dict(zip(marginals, _plugin_entropies(groups, values, multiplicity, totals)))
    return {dims: h[dims] for dims in subsets}


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
