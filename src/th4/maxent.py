"""Maximum-entropy fit to all two-way margins of a three-way table.

Every joint without three-way interaction is a product of three pair
factors, q[a,b,c] = x[a,b] * y[a,c] * z[b,c] (Bishop, Fienberg &
Holland 1975, ch. 3), so the fit holds only those three dense pair
tables. It starts uniform over the cells whose three two-way margins
are all positive. Cyclic proportional scaling then rescales the AB, AC
and BC factor in turn toward its observed margin, until the largest
absolute margin deviation falls at or below `tolerance`. A fitted pair
margin is one factor times the matrix product of the other two, so no
step visits the cross-product of the three alphabets. The divergence
of the observed joint from the fitted joint isolates whatever
three-way structure the pairwise associations cannot account for;
unlike the signed three-way transmission it is never negative.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from itertools import product
from math import fsum, inf, log2, prod

import numpy as np

from .errors import NotConvergedError, TableTooLargeError
from .tables import ContingencyTable, _label_index

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 1000
# Largest total of the three pair tables the fit holds, na*nb + na*nc +
# nb*nc cells. At this size the factors take 80 MB, the observed margins
# 80 MB more, and a step adds a few pair-table temporaries: `th4 ipf` on
# a 1825 x 1825 x 1825 table of 10^5 records peaks at about 330 MiB RSS
# and takes about 1.9 s an iteration (four matrix products of 1825^3
# multiply-adds each, single-threaded BLAS).
MAX_DENSE_CELLS = 10**7


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


def _fitted_at(factors: tuple[np.ndarray, ...], a, b, c):
    """The fitted probability of the cells (a, b, c), for codes or code arrays."""
    x, y, z = factors
    return x[a, b] * y[a, c] * z[b, c]


class _FittedView(Mapping):
    """Read-only label-tuple -> probability view of the factored fit.

    Iterates the full cross-product of the alphabets in the order of
    itertools.product; a tuple outside it is a KeyError. The label ->
    index dicts are built at the first lookup.
    """

    __slots__ = ("_factors", "_alphabets", "_index")

    def __init__(self, factors: tuple[np.ndarray, ...], alphabets: tuple[tuple[str, ...], ...]):
        for factor in factors:
            factor.flags.writeable = False
        self._factors = factors
        self._alphabets = alphabets
        self._index: list[dict[str, int]] | None = None

    def __reduce__(self):  # unpickled through __init__, so the factors stay read-only
        return _FittedView, (self._factors, self._alphabets)

    def __getitem__(self, labels: tuple[str, ...]) -> float:
        if not isinstance(labels, tuple) or len(labels) != len(self._alphabets):
            raise KeyError(labels)
        if self._index is None:
            self._index = [_label_index(alphabet) for alphabet in self._alphabets]
        try:
            cell = tuple(index[label] for index, label in zip(self._index, labels))
        except KeyError:
            raise KeyError(labels) from None
        return float(_fitted_at(self._factors, *cell))

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        return product(*self._alphabets)

    def __len__(self) -> int:
        return prod(map(len, self._alphabets))


def _interaction_bits(p: np.ndarray, q: np.ndarray) -> float:
    """sum p log2(p / q) over the table's cells, p observed and q fitted.

    Each term takes the same IEEE operations as a scalar loop would
    (math.log2, not np.log2), and fsum ignores their order, so the sum
    does not depend on the cell order.
    """
    # Every observed cell has positive two-way margins, so the fit
    # cannot have zeroed it; a violation is a bug, not bad data.
    assert np.all(q > 0), "fitted joint lost mass on an observed cell"
    return fsum((p * np.fromiter(map(log2, (p / q).tolist()), float, len(p))).tolist()) + 0.0


def _scaled(margin: np.ndarray, divisor: np.ndarray) -> np.ndarray:
    """margin / divisor, and 0 wherever the divisor is 0."""
    return np.divide(margin, divisor, out=np.zeros_like(margin), where=divisor > 0)


def _deviation(fitted: np.ndarray, margin: np.ndarray) -> float:
    return float(np.abs(fitted - margin).max())


def ipf_fit(
    table: ContingencyTable,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> IpfResult:
    """Fit the maximum-entropy joint matching all three two-way margins.

    One iteration scales toward each of the three margins once. Stops
    as soon as max_margin_error <= tolerance, which must be positive and
    finite; a result that exhausts max_iterations first is returned
    flagged non-converged. Raises TableTooLargeError, before
    allocating, when the three pair tables of the alphabets (na*nb +
    na*nc + nb*nc cells) exceed MAX_DENSE_CELLS.
    """
    if table.arity != 3:
        raise ValueError("the two-way-margin fit is defined for three-dimension tables")
    if not 0 < tolerance < inf:  # also refuses nan
        raise ValueError("tolerance must be positive and finite")
    if table.total < 1:
        raise ValueError("cannot fit an empty table")

    alphabets = table.alphabets
    na, nb, nc = map(len, alphabets)
    pair_cells = na * nb + na * nc + nb * nc
    if pair_cells > MAX_DENSE_CELLS:
        raise TableTooLargeError(
            f"the fit needs pair tables of {pair_cells} cells "
            f"({na} x {nb} x {nc} labels), more than {MAX_DENSE_CELLS}"
        )
    a, b, c = table._codes
    # Object-dtype counts (total >= 2**63) become floats one by one.
    p = table._cell_counts.astype(float) / table.total

    def margin(rows, columns, n_rows, n_columns):
        key = rows * n_columns + columns
        return np.bincount(key, weights=p, minlength=n_rows * n_columns).reshape(n_rows, n_columns)

    m_ab, m_ac, m_bc = margin(a, b, na, nb), margin(a, c, na, nc), margin(b, c, nb, nc)

    x, y, z = ((m > 0).astype(float) for m in (m_ab, m_ac, m_bc))
    z /= (x * (y @ z.T)).sum()  # the number of cells in the support

    # The fitted AB, AC and BC margins are x * (y @ z.T), y * (x @ z)
    # and z * (x.T @ y); each step divides its margin by the product.
    yz, xy = y @ z.T, x.T @ y
    iterations = 0
    while (
        error := max(
            _deviation(x * yz, m_ab), _deviation(y * (x @ z), m_ac), _deviation(z * xy, m_bc)
        )
    ) > tolerance and iterations < max_iterations:
        x = _scaled(m_ab, yz)
        y = _scaled(m_ac, x @ z)
        xy = x.T @ y
        z = _scaled(m_bc, xy)
        iterations += 1
        yz = y @ z.T

    factors = (x, y, z)
    return IpfResult(
        fitted=_FittedView(factors, alphabets),
        iterations=iterations,
        max_margin_error=error,
        interaction_bits=_interaction_bits(p, _fitted_at(factors, a, b, c)),
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
