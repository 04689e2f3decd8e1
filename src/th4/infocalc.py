"""Entropies and signed transmissions over contingency tables, in bits.

All quantities are plug-in (relative frequency) estimates with base-2
logarithms:

    H(S)      = -sum_s p(s) log2 p(s)  over the marginal for subset S
    T(S)      = sum over non-empty U within S of (-1)^(|U|+1) H(U)
    T(a,b|c)  = H(ac) + H(bc) - H(c) - H(abc)

T of two dimensions is the ordinary mutual information and never
negative; T of three or four dimensions is signed, with negative values
indicating a net reduction of uncertainty (synergy).

Every H is computed by one kernel, _grouped_entropies, for the whole
table or within each group of its cells by their label on a grouping
dimension. decompose groups by a dimension of the data; batch stacks
the cells of a chunk's files, which its shared label coders give one
set of alphabets (ingest._stack), with a last dimension holding each
cell's file index, and groups by that (_full_reports); the rest of th4
takes the whole table.
The requested subsets are covered by chains of nested subsets (W, WX,
WXY), one sort of the cells per chain (tables._nested_sums), keyed on
the grouping dimension first; the subset of every dimension but the
grouping one needs no sort, as the table's cells are distinct. Each H
takes the term of each distinct (group, marginal count) pair once,
times its multiplicity as four floats with that exact sum, and adds
them with math.fsum, which is correctly rounded: every value equals
the sum of one term per marginal cell and is independent of cell order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import fsum, log2
from typing import Iterable, Mapping, Sequence

import numpy as np

from .tables import ContingencyTable, _nested_sums, normalize_subset

DIM_NAMES = "wxyz"


def _lattice(dims: tuple[int, ...], min_size: int = 1) -> list[tuple[int, ...]]:
    """Every subset of `dims` with at least `min_size` members, smallest first."""
    return [u for size in range(min_size, len(dims) + 1) for u in combinations(dims, size)]


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


def _distinct_pairs(
    owner: np.ndarray | None, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (owner, count) pairs of marginal cells, ascending, and how
    many cells share each: cell i, of count counts[i], belongs to owner[i],
    or every cell to owner 0 if `owner` is None.

    One owner is a plain np.unique of the counts. Otherwise each owner is
    packed above its count's bits, in Python ints (an object array) where
    the packed value or the counts pass int64, and np.unique sorts those.
    """
    if owner is None:
        values, multiplicity = np.unique(counts, return_counts=True)
        return np.zeros(len(values), np.int64), values, multiplicity
    bits = int(counts.max()).bit_length()
    if counts.dtype == object or int(owner.max()) + 1 << bits > 2**63:
        owner, counts = owner.astype(object), counts.astype(object)
    pairs, multiplicity = np.unique(owner << bits | counts, return_counts=True)
    return (pairs >> bits).astype(np.int64), pairs & ((1 << bits) - 1), multiplicity


def _grouped_entropies(
    table: ContingencyTable, subsets: Sequence[tuple[int, ...]], by: int | None = None
) -> list[tuple[int, int, dict[tuple[int, ...], float]]]:
    """The groups of the table's cells by their code on dimension `by` (one
    group of all the cells if None), ascending by code: each one's code,
    case count, and each (normalized) subset's H within it.

    One packed sort per chain of nested subsets, keyed on `by` first, gives
    every member's marginal counts in every group, and each marginal cell's
    group follows from where the groups start. The empty subset, whose
    marginal in each group is the group itself, gives those starts and the
    groups' case counts, first in the first chain. The subset of every
    dimension but `by` reads the table's (distinct) cells as they are. All
    the H are summed exactly in one pass, as the module says.
    """
    if table.total < 1:
        raise ValueError("entropy of an empty table is undefined")
    codes, counts = table._codes, table._cell_counts
    sizes = [len(alphabet) for alphabet in table.alphabets]
    cells = tuple(d for d in range(table.arity) if d != by)
    chained = [dims for dims in subsets if dims != cells]
    if by is None:
        lead, present, n = [], [0], [table.total]
    else:
        lead, chained = [by], [(), *chained]
        present = np.flatnonzero(np.bincount(codes[by], minlength=sizes[by])).tolist()
    # Each subset's marginal cells, reduced as soon as they are built to
    # their distinct (group, count) pairs.
    pairs = {}
    if cells in subsets:
        owner = None if by is None else np.searchsorted(present, codes[by])
        pairs[cells] = _distinct_pairs(owner, counts)
    for members in _chains(chained):
        order = lead + _chain_order(members)
        sums = _nested_sums(
            [codes[d] for d in order],
            [sizes[d] for d in order],
            counts,
            [len(lead) + len(dims) for dims in members],
        )
        for dims, (starts, cell_sums) in zip(members, sums):
            if not dims:  # the groups themselves
                group_starts, n = starts, cell_sums.tolist()
                continue
            owner = None if by is None else np.searchsorted(group_starts, starts, "right") - 1
            pairs[dims] = _distinct_pairs(owner, cell_sums)
    # One pass over every (subset, group) pair, the i-th subset's groups i * len(n) on.
    owners, values, multiplicity = zip(*pairs.values())
    owner = np.concatenate([i * len(n) + o for i, o in enumerate(owners)])
    values, multiplicity = np.concatenate(values), np.concatenate(multiplicity)
    totals = np.array([float(size) for size in n] * len(pairs))
    p = (values / totals[owner]).astype(float, copy=False)
    terms = p * np.fromiter(map(log2, p.tolist()), float, len(p))
    pieces = _exact_multiples(terms, multiplicity).ravel().tolist()
    bounds = (4 * np.searchsorted(owner, np.arange(len(totals) + 1))).tolist()
    h = [-fsum(pieces[i:j]) + 0.0 for i, j in zip(bounds, bounds[1:])]  # + 0.0: no -0.0
    start = {dims: i * len(n) for i, dims in enumerate(pairs)}
    return [
        (code, n_g, {dims: h[start[dims] + g] for dims in subsets})
        for g, (code, n_g) in enumerate(zip(present, n))
    ]


def entropy(table: ContingencyTable, subset: Iterable[int]) -> float:
    """Shannon entropy in bits of the marginal distribution for `subset`."""
    dims = normalize_subset(subset, table.arity)
    [(_, _, h)] = _grouped_entropies(table, [dims])
    return h[dims]


def _transmission_from_entropies(
    dims: tuple[int, ...], h: Mapping[tuple[int, ...], float]
) -> float:
    return fsum((1.0 if len(u) % 2 else -1.0) * h[u] for u in _lattice(dims)) + 0.0


def transmission(table: ContingencyTable, subset: Iterable[int]) -> float:
    """Signed transmission T(S), by inclusion-exclusion over subset entropies."""
    dims = normalize_subset(subset, table.arity)
    if len(dims) < 2:
        raise ValueError("transmission needs at least two distinct dimensions")
    [(_, _, h)] = _grouped_entropies(table, _lattice(dims))
    return _transmission_from_entropies(dims, h)


def conditional_transmission(table: ContingencyTable, a: int, b: int, given: int) -> float:
    """Mutual information of dimensions a and b conditioned on `given`; never negative."""
    if len({a, b, given}) != 3:
        raise ValueError("the two target dimensions and the conditioning dimension must be distinct")
    ac, bc, c, abc = (
        normalize_subset(s, table.arity) for s in ((a, given), (b, given), (given,), (a, b, given))
    )
    [(_, _, h)] = _grouped_entropies(table, (ac, bc, c, abc))
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


def full_report(table: ContingencyTable) -> EntropyReport:
    """Compute H for every subset and T for every subset of size >= 2."""
    return _full_reports(table)[0]


def _full_reports(table: ContingencyTable, by: int | None = None) -> list[EntropyReport]:
    """full_report of the table, from one kernel call; or, with `by` its
    last dimension, that of each group of its cells by their code on it,
    in code order. Every code of that dimension's alphabet must have cells."""
    dims = tuple(range(table.arity if by is None else by))
    groups = _grouped_entropies(table, _lattice(dims), by)
    if by is not None and len(groups) != len(table.alphabets[by]):
        raise ValueError("entropy of an empty table is undefined")
    transmitted = _lattice(dims, 2)
    return [
        EntropyReport(
            arity=len(dims),
            n_cases=n,
            h=h,
            t={subset: _transmission_from_entropies(subset, h) for subset in transmitted},
        )
        for _, n, h in groups
    ]
