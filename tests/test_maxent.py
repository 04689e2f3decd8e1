from __future__ import annotations

import pickle
import random
from itertools import product
from math import log2, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from th4.errors import NotConvergedError
from th4.infocalc import transmission
from th4.maxent import ipf_fit, krippendorff_interaction
from th4.tables import ContingencyTable, project


def fitted_entropy(result):
    return -sum(q * log2(q) for q in result.fitted.values() if q > 0)


def observed_entropy(table):
    n = table.total
    return -sum(c / n * log2(c / n) for c in table.counts.values())


class TestIpfFit:
    def test_independent_table_needs_no_work(self):
        table = oracles.table_from_rows(oracles.product_rows([[1, 2], [1, 3], [2, 1]]))
        result = ipf_fit(table)
        assert result.converged
        assert result.iterations <= 2
        assert result.interaction_bits == pytest.approx(0.0, abs=1e-9)
        n = table.total
        for labels, count in table.counts.items():
            assert result.fitted[labels] == pytest.approx(count / n, abs=1e-9)

    def test_parity_table_is_one_bit(self):
        table = oracles.table_from_rows(oracles.parity_rows(copies=3))
        result = ipf_fit(table)
        assert result.converged
        # all two-way margins are uniform, so the fit is uniform over 8 cells
        for q in result.fitted.values():
            assert q == pytest.approx(1 / 8, abs=1e-9)
        assert result.interaction_bits == pytest.approx(1.0, abs=1e-6)

    def test_golden4_projection_matches_reference(self, golden4_table):
        table = project(golden4_table, (0, 1, 2))
        rows = [t for t, c in table.counts.items() for _ in range(c)]
        _, reference, err = oracles.ipf_reference(rows, tolerance=1e-12)
        assert err <= 1e-12
        result = ipf_fit(table)
        assert result.converged
        assert result.interaction_bits == pytest.approx(reference, abs=1e-9)
        # the two-way margins pin every cell here, so the fit is the data itself
        assert result.interaction_bits == pytest.approx(0.0, abs=1e-9)

    def test_fitted_sums_to_one(self):
        rng = random.Random(5)
        for _ in range(20):
            rows = oracles.random_rows(rng, 3, (3, 2, 4), rng.randint(2, 60))
            result = ipf_fit(oracles.table_from_rows(rows))
            assert sum(result.fitted.values()) == pytest.approx(1.0, abs=1e-12)

    def test_margins_match_within_default_tolerance(self):
        rng = random.Random(13)
        for _ in range(20):
            rows = oracles.random_dense_rows(rng, (2, 3, 2))
            table = oracles.table_from_rows(rows)
            result = ipf_fit(table)
            assert result.converged
            assert result.max_margin_error <= 1e-10
            n = table.total
            for dims in ((0, 1), (0, 2), (1, 2)):
                target = {}
                for labels, count in table.counts.items():
                    key = tuple(labels[d] for d in dims)
                    target[key] = target.get(key, 0.0) + count / n
                got = {}
                for labels, q in result.fitted.items():
                    key = tuple(labels[d] for d in dims)
                    got[key] = got.get(key, 0.0) + q
                for key, value in target.items():
                    assert got[key] == pytest.approx(value, abs=1e-10)

    def test_no_three_way_structure_is_a_fixed_point(self):
        # counts factor as (pair block) x (third dimension): u(a,b) * v(c)
        u = {("a0", "b0"): 3, ("a0", "b1"): 1, ("a1", "b0"): 2, ("a1", "b1"): 4}
        v = {"c0": 2, "c1": 1}
        rows = []
        for (la, lb), cu in u.items():
            for lc, cv in v.items():
                rows.extend([(la, lb, lc)] * (cu * cv))
        table = oracles.table_from_rows(rows)
        result = ipf_fit(table)
        assert result.converged
        n = table.total
        for labels, count in table.counts.items():
            assert result.fitted[labels] == pytest.approx(count / n, abs=1e-9)
        assert result.interaction_bits == pytest.approx(0.0, abs=1e-9)

    def test_duplication_invariance(self):
        rng = random.Random(17)
        rows = oracles.random_rows(rng, 3, (2, 2, 3), 25)
        once = ipf_fit(oracles.table_from_rows(rows))
        thrice = ipf_fit(oracles.table_from_rows(rows * 3))
        assert thrice.interaction_bits == pytest.approx(once.interaction_bits, abs=1e-9)

    def test_non_convergence_is_flagged(self):
        table = oracles.table_from_rows(
            [("0", "0", "0")] * 3 + [("0", "1", "1"), ("1", "0", "1"), ("1", "1", "0")]
        )
        result = ipf_fit(table, max_iterations=0)
        assert not result.converged
        assert result.max_margin_error > 1e-10

    def test_boundary_zero_pattern_is_flagged_not_silently_wrong(self):
        # Zero margins wx(w0,x2) and xy(x1,y0) leave the unobserved cell
        # (w1,x0,y1) in the support; the margin fit then exists only in
        # the closure and cyclic scaling creeps toward it sub-geometrically.
        rows = (
            [("w0", "x1", "y1")] * 3 + [("w1", "x2", "y1")] * 2 + [("w0", "x0", "y1")] * 3
            + [("w0", "x0", "y0")] * 3 + [("w1", "x2", "y0")] * 4 + [("w1", "x0", "y0")] * 2
            + [("w1", "x1", "y1")] * 2
        )
        result = ipf_fit(oracles.table_from_rows(rows))
        assert not result.converged
        assert 0 < result.max_margin_error < 1e-2

    def test_wrong_arity_rejected(self, golden4_table):
        with pytest.raises(ValueError):
            ipf_fit(golden4_table)

    def test_bad_tolerance_rejected(self, golden3_table):
        with pytest.raises(ValueError):
            ipf_fit(golden3_table, tolerance=0.0)


class TestKrippendorffInteraction:
    def test_refuses_non_converged_fit(self):
        table = oracles.table_from_rows(
            [("0", "0", "0")] * 3 + [("0", "1", "1"), ("1", "0", "1"), ("1", "1", "0")]
        )
        result = ipf_fit(table, max_iterations=0)
        with pytest.raises(NotConvergedError) as exc:
            krippendorff_interaction(table, result)
        assert exc.value.max_margin_error == result.max_margin_error

    def test_parity_value(self):
        table = oracles.table_from_rows(oracles.parity_rows())
        result = ipf_fit(table)
        assert krippendorff_interaction(table, result) == pytest.approx(1.0, abs=1e-6)

    def test_agrees_with_entropy_difference(self):
        rng = random.Random(29)
        checked = 0
        for _ in range(100):
            rows = oracles.random_dense_rows(rng, tuple(rng.randint(2, 4) for _ in range(3)))
            table = oracles.table_from_rows(rows)
            result = ipf_fit(table, tolerance=1e-12, max_iterations=20000)
            assert result.converged
            kl = krippendorff_interaction(table, result)
            delta_h = fitted_entropy(result) - observed_entropy(table)
            assert kl == pytest.approx(delta_h, abs=1e-9)
            assert kl >= -1e-12
            checked += 1
        assert checked == 100

    def test_matches_reference_implementation(self):
        rng = random.Random(37)
        for _ in range(10):
            rows = oracles.random_dense_rows(rng, (2, 3, 2))
            table = oracles.table_from_rows(rows)
            result = ipf_fit(table, tolerance=1e-12, max_iterations=20000)
            _, reference, err = oracles.ipf_reference(rows, tolerance=1e-12)
            assert err <= 1e-12
            assert krippendorff_interaction(table, result) == pytest.approx(reference, abs=1e-9)

    def test_refuses_fit_of_a_table_with_other_counts(self):
        rng = random.Random(41)
        rows = oracles.random_dense_rows(rng, (2, 3, 2))
        table = oracles.table_from_rows(rows)
        result = ipf_fit(table)
        assert result.converged
        # same cells, one count changed: the fit still covers every cell
        other = oracles.table_from_rows(rows + rows[:1])
        assert set(other.counts) == set(table.counts)
        with pytest.raises(ValueError, match="was it made from this table"):
            krippendorff_interaction(other, result)


def test_accepts_a_reordered_twin_and_refuses_one_changed_count():
    rows = oracles.random_dense_rows(random.Random(43), (3, 2, 2))
    table = oracles.table_from_rows(rows)
    fit = ipf_fit(table)
    assert fit.converged
    reordered = dict(reversed(list(table.counts.items())))
    twin = ContingencyTable.from_counts(3, reordered)
    assert list(twin.counts) != list(table.counts) and twin.alphabets != table.alphabets
    assert krippendorff_interaction(twin, fit) == fit.interaction_bits
    for labels in (next(iter(reordered)), next(iter(table.counts))):
        changed = dict(reordered)
        changed[labels] += 1
        with pytest.raises(ValueError, match="was it made from this table"):
            krippendorff_interaction(ContingencyTable.from_counts(3, changed), fit)


def test_pickled_fit_stays_read_only(golden3_table):
    fit = ipf_fit(golden3_table)
    copy = pickle.loads(pickle.dumps(fit))
    assert copy == fit and dict(copy.fitted.items()) == dict(fit.fitted.items())
    assert krippendorff_interaction(golden3_table, copy) == fit.interaction_bits
    for array in (*copy.fitted._factors, copy._source_counts._counts):
        with pytest.raises(ValueError, match="read-only"):
            array[:1] = 0


# Four-dimension rows, so that projecting onto (0, 1, 2) builds a new table
# each time; small alphabets leave zero cells inside the cross-product.
rows4_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["p", "q"]),
        st.sampled_from(["u", "v", "w", "x"]),
        st.sampled_from(["0", "1"]),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60)
@given(rows4_strategy)
def test_fitted_view_and_interaction_reuse(rows):
    full = oracles.table_from_rows(rows)
    table = project(full, (0, 1, 2))
    fit = ipf_fit(table)
    fitted = fit.fitted
    cells = list(product(*table.alphabets))
    assert list(fitted) == cells
    assert len(fitted) == len(cells) == prod(len(a) for a in table.alphabets)
    for key in cells:
        assert type(fitted[key]) is float
        assert fitted[key] == fitted.get(key)
        assert key in fitted
    assert fitted == dict(fitted.items())
    first = cells[0]
    for bad in [("unseen",) + first[1:], first[:2], first + ("u",), list(first), "apu"]:
        with pytest.raises(KeyError):
            fitted[bad]
        assert fitted.get(bad) is None
        assert bad not in fitted
    with pytest.raises(TypeError):
        fitted[first] = 0.5

    if not fit.converged:
        with pytest.raises(NotConvergedError):
            krippendorff_interaction(table, fit)
        return
    twin = project(full, (0, 1, 2))
    assert twin is not table and twin == table
    assert krippendorff_interaction(table, fit) == fit.interaction_bits
    assert krippendorff_interaction(twin, fit) == fit.interaction_bits
    counts = dict(table.counts)
    counts[first] = counts.get(first, 0) + 1
    with pytest.raises(ValueError):
        krippendorff_interaction(ContingencyTable.from_counts(3, counts), fit)


def test_redundancy_is_interaction_minus_transmission():
    table = oracles.table_from_rows(oracles.parity_rows(copies=2))
    result = ipf_fit(table)
    # parity: interaction 1 bit, transmission -1 bit; the CLI reports their difference
    redundancy = krippendorff_interaction(table, result) - transmission(table, (0, 1, 2))
    assert redundancy == pytest.approx(2.0, abs=1e-6)


# Counts past 2**62 make some totals reach 2**63, where a table keeps its
# counts as Python ints in an object array.
counts3_strategy = st.dictionaries(
    st.tuples(st.sampled_from("abc"), st.sampled_from("pq"), st.sampled_from("uvwx")),
    st.one_of(st.integers(1, 9), st.integers(2**62, 2**70)),
    min_size=1,
)


@settings(max_examples=80)
@given(counts3_strategy)
@example({("a", "p", "u"): 2**63, ("b", "q", "v"): 1, ("a", "q", "v"): 3})
def test_interaction_bits_equal_the_dense_summation(counts):
    table = ContingencyTable.from_counts(3, counts)
    fit = ipf_fit(table, max_iterations=50)
    observed = np.zeros(tuple(len(a) for a in table.alphabets))
    observed[table._codes] = table._cell_counts
    observed /= table.total
    dense = oracles.fitted_dense(fit)
    assert fit.interaction_bits == oracles.interaction_bits_dense(observed, dense)


def outcome(fit_function, table, max_iterations):
    try:
        return fit_function(table, max_iterations=max_iterations)
    except ValueError as exc:
        return type(exc)


# Sparse tables over small alphabets, so that some pair margins are zero
# and the support is a proper part of the cross-product.
sparse3_strategy = st.dictionaries(
    st.tuples(st.sampled_from("abcd"), st.sampled_from("pqr"), st.sampled_from("uvwx")),
    st.one_of(st.integers(1, 9), st.integers(2**62, 2**70)),
    min_size=0,
    max_size=30,
)


@settings(max_examples=150)
@given(sparse3_strategy, st.sampled_from([0, 1, 2, 7, 1000]))
@example({("a", "p", "u"): 2**63, ("b", "q", "v"): 1, ("a", "q", "v"): 3}, 1000)
@example({("a", "p", "u"): 2**63, ("b", "q", "v"): 1, ("a", "q", "v"): 3}, 0)
@example({}, 1000)
@example(
    {
        ("w0", "x1", "y1"): 3, ("w1", "x2", "y1"): 2, ("w0", "x0", "y1"): 3, ("w0", "x0", "y0"): 3,
        ("w1", "x2", "y0"): 4, ("w1", "x0", "y0"): 2, ("w1", "x1", "y1"): 2,
    },
    1000,
)
def test_factored_fit_matches_the_dense_fit(counts, max_iterations):
    table = ContingencyTable.from_counts(3, counts)
    fit = outcome(ipf_fit, table, max_iterations)
    dense = outcome(oracles.ipf_dense, table, max_iterations)
    if isinstance(dense, type):
        assert fit is dense
        return
    assert (fit.iterations, fit.converged) == (dense.iterations, dense.converged)
    assert fit.interaction_bits == pytest.approx(dense.interaction_bits, rel=0, abs=1e-12)
    assert fit.max_margin_error == pytest.approx(dense.max_margin_error, rel=0, abs=1e-12)
    assert np.abs(oracles.fitted_dense(fit) - dense.fitted).max() <= 1e-12
