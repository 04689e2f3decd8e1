"""Maximum-entropy fit to all two-way margins of a three-way table.

Cyclic proportional scaling starts from a uniform joint, restricted to
cells that no zero two-way margin forces to zero, and rescales toward
the observed AB, AC, and BC margins until the largest absolute margin
deviation falls at or below `tolerance`. The divergence of the
observed joint from the fitted joint isolates whatever three-way
structure the pairwise associations cannot account for; unlike the
signed three-way transmission it is never negative.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from itertools import product
from math import fsum, inf, log2

import numpy as np

from .errors import NotConvergedError, TableTooLargeError
from .tables import ContingencyTable, _label_index

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 1000
# Largest dense table the fit builds. At this size each float64 array
# takes 80 MB and the fit holds a few at once: `th4 ipf` on a
# 1000 x 100 x 100 table of 10^5 records peaks at about 240 MiB RSS.
MAX_DENSE_CELLS = 10**7

_PAIRS = ((0, 1), (0, 2), (1, 2))
_SUM_AXIS = {(0, 1): 2, (0, 2): 1, (1, 2): 0}


@dataclass(frozen=True)
class IpfResult:
    """Outcome of the two-way-margin fit of a three-way table.

    `fitted` is a read-only mapping over the full cross-product of the
    observed alphabets (zero cells included) and sums to 1.
    `max_margin_error` is the largest absolute deviation, on the
    probability scale, of any fitted two-way margin from its observed
    counterpart after the last iteration.
    """

    fitted: Mapping[tuple[str, str, str], float]
    iterations: int
    max_margin_error: float
    interaction_bits: float
    converged: bool
    # Counts of the table the fit was made from, for krippendorff_interaction.
    _source_counts: Mapping[tuple[str, ...], int] = field(repr=False, compare=False)


class _FittedView(Mapping):
    """Read-only label-tuple -> probability view of the fitted array.

    Iterates the full cross-product of the alphabets in the order of
    itertools.product; a tuple outside it is a KeyError. The label ->
    index dicts are built at the first lookup.
    """

    __slots__ = ("_array", "_alphabets", "_index")

    def __init__(self, array: np.ndarray, alphabets: tuple[tuple[str, ...], ...]):
        array.flags.writeable = False
        self._array = array
        self._alphabets = alphabets
        self._index: list[dict[str, int]] | None = None

    def __getitem__(self, labels: tuple[str, ...]) -> float:
        if not isinstance(labels, tuple) or len(labels) != len(self._alphabets):
            raise KeyError(labels)
        if self._index is None:
            self._index = [_label_index(alphabet) for alphabet in self._alphabets]
        try:
            cell = tuple(index[label] for index, label in zip(self._index, labels))
        except KeyError:
            raise KeyError(labels) from None
        return float(self._array[cell])

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        return product(*self._alphabets)

    def __len__(self) -> int:
        return self._array.size


def _interaction_bits(observed: np.ndarray, fitted: np.ndarray) -> float:
    obs = observed.ravel()
    fit = fitted.ravel()
    cells = obs > 0
    # Every observed cell has positive two-way margins, so the fit
    # cannot have zeroed it; a violation is a bug, not bad data.
    assert np.all(fit[cells] > 0), "fitted joint lost mass on an observed cell"
    return fsum(p * log2(p / q) for p, q in zip(obs[cells], fit[cells])) + 0.0


def ipf_fit(
    table: ContingencyTable,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> IpfResult:
    """Fit the maximum-entropy joint matching all three two-way margins.

    One iteration scales toward each of the three margins once. Stops
    as soon as max_margin_error <= tolerance, which must be positive and
    finite; a result that exhausts max_iterations first is returned
    flagged non-converged. Raises
    TableTooLargeError, before allocating, when the product of the
    alphabet sizes exceeds MAX_DENSE_CELLS.
    """
    if table.arity != 3:
        raise ValueError("the two-way-margin fit is defined for three-dimension tables")
    if not 0 < tolerance < inf:  # also refuses nan
        raise ValueError("tolerance must be positive and finite")
    if table.total < 1:
        raise ValueError("cannot fit an empty table")

    alphabets = table.alphabets
    dense_cells = len(alphabets[0]) * len(alphabets[1]) * len(alphabets[2])
    if dense_cells > MAX_DENSE_CELLS:
        raise TableTooLargeError(
            f"the fit needs a dense table of {dense_cells} cells "
            f"({' x '.join(str(len(a)) for a in alphabets)}), more than {MAX_DENSE_CELLS}"
        )
    observed = np.zeros(tuple(len(alpha) for alpha in alphabets))
    observed[table._codes] = table._cell_counts
    observed /= table.total

    margins = {pair: observed.sum(axis=_SUM_AXIS[pair]) for pair in _PAIRS}

    support = (
        (margins[(0, 1)] > 0)[:, :, None]
        & (margins[(0, 2)] > 0)[:, None, :]
        & (margins[(1, 2)] > 0)[None, :, :]
    )
    fitted = support / support.sum()

    def margin_error(q: np.ndarray) -> float:
        return float(
            max(np.abs(q.sum(axis=_SUM_AXIS[p]) - margins[p]).max() for p in _PAIRS)
        )

    iterations = 0
    error = margin_error(fitted)
    while error > tolerance and iterations < max_iterations:
        for pair in _PAIRS:
            axis = _SUM_AXIS[pair]
            current = fitted.sum(axis=axis)
            ratio = np.divide(
                margins[pair], current, out=np.zeros_like(current), where=current > 0
            )
            fitted *= np.expand_dims(ratio, axis)
        iterations += 1
        error = margin_error(fitted)

    return IpfResult(
        fitted=_FittedView(fitted, alphabets),
        iterations=iterations,
        max_margin_error=error,
        interaction_bits=_interaction_bits(observed, fitted),
        converged=error <= tolerance,
        _source_counts=table.counts,
    )


def krippendorff_interaction(table: ContingencyTable, ipf: IpfResult) -> float:
    """Divergence in bits of the observed joint from the fitted joint.

    Equals sum_t p(t) log2(p(t) / fitted(t)) over observed cells, which
    coincides with H(fitted) - H(observed) whenever the fit matches all
    two-way margins. ipf_fit already computed it, so this returns
    ipf.interaction_bits. Refuses a non-converged fit, and a fit made
    from a table whose counts differ from `table`'s.
    """
    if not ipf.converged:
        raise NotConvergedError(ipf.max_margin_error, ipf.iterations)
    if ipf._source_counts != table.counts:
        raise ValueError("the fit's counts differ from the table's; was it made from this table?")
    return ipf.interaction_bits
