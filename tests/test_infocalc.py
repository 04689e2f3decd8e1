from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, repeat
from math import fsum, log2

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from th4.cli import SCHEMA, _schema
from th4.infocalc import (
    _chain_order,
    _chains,
    _exact_multiples,
    _full_reports,
    _grouped_entropies,
    _transmission_from_entropies,
    conditional_transmission,
    entropy,
    full_report,
    parse_subset,
    subset_name,
    transmission,
)
from th4.tables import ContingencyTable, _stacked, project


def schema_dict(report):
    """The report's 26 zero-filled schema slots, by CSV column name."""
    return {
        f"{b.upper()}_{subset_name(s)}": v
        for b, block in _schema(report).items()
        for s, v in block.items()
    }


class TestEntropy:
    def test_first_dimension_value(self, golden4_table):
        expected = -(3 / 4) * log2(3 / 4) - (1 / 4) * log2(1 / 4)
        assert entropy(golden4_table, (0,)) == pytest.approx(expected, abs=1e-15)
        assert entropy(golden4_table, (0,)) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_third_dimension_value(self, golden4_table):
        assert entropy(golden4_table, (2,)) == pytest.approx(1.5, abs=1e-12)

    def test_full_joint(self, golden4_table):
        assert entropy(golden4_table, (0, 1, 2, 3)) == pytest.approx(2.0, abs=1e-12)

    def test_constant_dimension_is_zero(self, golden3_table):
        # every record shares the same first label
        assert entropy(golden3_table, (0,)) == 0.0

    def test_empty_subset_rejected(self, golden4_table):
        with pytest.raises(ValueError):
            entropy(golden4_table, ())

    def test_matches_bruteforce_on_random_tables(self):
        rng = random.Random(11)
        for _ in range(50):
            arity = rng.choice((3, 4))
            rows = oracles.random_rows(rng, arity, [rng.randint(2, 4)] * arity, rng.randint(1, 50))
            table = oracles.table_from_rows(rows)
            for size in range(1, arity + 1):
                for subset in combinations(range(arity), size):
                    assert entropy(table, subset) == pytest.approx(
                        oracles.entropy_bits(rows, subset), abs=1e-12
                    )


class TestTransmission:
    @pytest.mark.parametrize(
        "subset,expected",
        [
            ((0, 1), 0.31), ((0, 2), 0.31), ((0, 3), 0.31),
            ((1, 2), 1.00), ((1, 3), 0.00), ((2, 3), 0.50),
            ((0, 1, 2), 0.31), ((0, 1, 3), -0.19), ((0, 2, 3), -0.19), ((1, 2, 3), 0.00),
            ((0, 1, 2, 3), -0.19),
        ],
    )
    def test_golden_values(self, golden4_table, subset, expected):
        assert transmission(golden4_table, subset) == pytest.approx(expected, abs=0.005)

    def test_sign_freedom(self, golden4_table):
        assert transmission(golden4_table, (0, 1, 3)) < 0
        assert transmission(golden4_table, (0, 1, 2)) > 0
        assert transmission(golden4_table, (1, 2, 3)) == pytest.approx(0.0, abs=1e-12)

    def test_constant_table_is_all_zero(self):
        table = oracles.table_from_rows([("a", "b", "c", "d")] * 9)
        for size in (2, 3, 4):
            for subset in combinations(range(4), size):
                assert transmission(table, subset) == 0.0

    def test_pair_rejected_below_two_dims(self, golden4_table):
        with pytest.raises(ValueError):
            transmission(golden4_table, (1,))
        with pytest.raises(ValueError):
            transmission(golden4_table, (1, 1))

    def test_permutation_of_subset_is_irrelevant(self, golden4_table):
        assert transmission(golden4_table, (3, 1, 0)) == transmission(golden4_table, (0, 1, 3))

    def test_matches_definitional_mi(self):
        rng = random.Random(23)
        for _ in range(100):
            rows = oracles.random_rows(rng, 3, (3, 2, 4), rng.randint(1, 40))
            table = oracles.table_from_rows(rows)
            assert transmission(table, (0, 1)) == pytest.approx(
                oracles.mi_definitional(rows, 0, 1), abs=1e-12
            )

    def test_matches_bruteforce_three_and_four(self):
        rng = random.Random(31)
        for _ in range(50):
            rows = oracles.random_rows(rng, 4, (2, 3, 2, 3), rng.randint(1, 50))
            table = oracles.table_from_rows(rows)
            assert transmission(table, (0, 1, 2)) == pytest.approx(
                oracles.t3(rows, 0, 1, 2), abs=1e-12
            )
            assert transmission(table, (0, 1, 2, 3)) == pytest.approx(
                oracles.t4(rows, 0, 1, 2, 3), abs=1e-12
            )


class TestConditionalTransmission:
    def test_golden_value(self, golden4_table):
        # 1.5 + 2.0 - 1.0 - 2.0, re-derived from the raw counts
        rows = [t for t, c in golden4_table.counts.items() for _ in range(c)]
        assert oracles.conditional_t(rows, 0, 1, 3) == pytest.approx(0.5, abs=1e-12)
        assert conditional_transmission(golden4_table, 0, 1, 3) == pytest.approx(0.5, abs=1e-12)

    def test_independent_conditioning_dimension(self):
        table = oracles.table_from_rows(oracles.product_rows([[1, 2], [1, 3], [2, 1]]))
        assert conditional_transmission(table, 0, 1, 2) == pytest.approx(0.0, abs=1e-12)

    def test_mcgill_identity_on_random_tables(self):
        rng = random.Random(47)
        for _ in range(200):
            rows = oracles.random_rows(rng, 3, (3, 3, 2), rng.randint(1, 50))
            table = oracles.table_from_rows(rows)
            lhs = transmission(table, (0, 1)) - conditional_transmission(table, 0, 1, 2)
            assert lhs == pytest.approx(transmission(table, (0, 1, 2)), abs=1e-12)

    def test_never_negative(self):
        rng = random.Random(53)
        for _ in range(200):
            rows = oracles.random_rows(rng, 3, (2, 2, 3), rng.randint(1, 30))
            table = oracles.table_from_rows(rows)
            assert conditional_transmission(table, 0, 1, 2) >= -1e-12

    def test_distinctness_required(self, golden4_table):
        with pytest.raises(ValueError):
            conditional_transmission(golden4_table, 0, 0, 1)


class TestFullReport:
    def test_golden_display_values(self, golden4_table):
        values = schema_dict(full_report(golden4_table))
        for name, printed in oracles.GOLDEN4_DISPLAY.items():
            assert values[name] == pytest.approx(printed, abs=0.005), name

    def test_three_dimension_report_zero_fills_schema(self, golden3_table):
        report = full_report(golden3_table)
        assert report.arity == 3
        assert len(report.h) == 7
        assert len(report.t) == 4
        values = schema_dict(report)
        for name, value in values.items():
            if "Z" in name:
                assert value == 0.0, name
        rows = [t for t, c in golden3_table.counts.items() for _ in range(c)]
        assert values["H_X"] == pytest.approx(oracles.entropy_bits(rows, (1,)), abs=1e-12)
        assert values["H_WXY"] == pytest.approx(oracles.entropy_bits(rows, (0, 1, 2)), abs=1e-12)
        assert values["T_XY"] == pytest.approx(oracles.t2(rows, 1, 2), abs=1e-12)
        assert values["T_WXY"] == pytest.approx(oracles.t3(rows, 0, 1, 2), abs=1e-12)

    def test_single_record_report_is_all_zero(self):
        report = full_report(oracles.table_from_rows([("a", "b", "c", "d")]))
        assert set(schema_dict(report).values()) == {0.0}

    def test_report_size_for_four_dimensions(self, golden4_table):
        report = full_report(golden4_table)
        assert len(report.h) == 15
        assert len(report.t) == 11
        # Smallest subsets first, lexicographic within a size.
        assert list(report.h) == SCHEMA["h"] and list(report.t) == SCHEMA["t"]
        assert report.n_cases == 4

    def test_entropy_bounds_and_monotonicity(self):
        rng = random.Random(61)
        for _ in range(50):
            arity = rng.choice((3, 4))
            rows = oracles.random_rows(rng, arity, [rng.randint(2, 4)] * arity, rng.randint(1, 50))
            report = full_report(oracles.table_from_rows(rows))
            bound = log2(len(rows)) + 1e-12
            for subset, h in report.h.items():
                assert -1e-12 <= h <= bound
                for other, h_other in report.h.items():
                    if set(subset) <= set(other):
                        assert h <= h_other + 1e-12
            for subset, t in report.t.items():
                if len(subset) == 2:
                    assert t >= -1e-12


class TestInvariances:
    def test_duplication_leaves_values_unchanged(self):
        rng = random.Random(71)
        rows = oracles.random_rows(rng, 4, (3, 2, 3, 2), 37)
        base = full_report(oracles.table_from_rows(rows))
        dup = full_report(oracles.table_from_rows(rows * 7))
        for key in base.h:
            assert dup.h[key] == pytest.approx(base.h[key], abs=1e-12)
        for key in base.t:
            assert dup.t[key] == pytest.approx(base.t[key], abs=1e-12)

    def test_dimension_permutation_relabels_values(self):
        rng = random.Random(73)
        rows = oracles.random_rows(rng, 4, (2, 3, 2, 4), 41)
        perm = (2, 0, 3, 1)  # new position j holds old dimension perm[j]
        permuted = [tuple(row[d] for d in perm) for row in rows]
        base = full_report(oracles.table_from_rows(rows))
        moved = full_report(oracles.table_from_rows(permuted))
        inverse = {old: new for new, old in enumerate(perm)}
        for subset, value in base.h.items():
            relabeled = tuple(sorted(inverse[d] for d in subset))
            assert moved.h[relabeled] == pytest.approx(value, abs=1e-12)
        for subset, value in base.t.items():
            relabeled = tuple(sorted(inverse[d] for d in subset))
            assert moved.t[relabeled] == pytest.approx(value, abs=1e-12)

    def test_product_table_has_no_transmission(self):
        table = oracles.table_from_rows(
            oracles.product_rows([[1, 2], [1, 3], [2, 1], [1, 1, 2]])
        )
        report = full_report(table)
        for value in report.t.values():
            assert value == pytest.approx(0.0, abs=1e-9)


class TestSubsetHelpers:
    def test_parse_subset_accepts_both_spellings(self):
        assert parse_subset("wxz") == (0, 1, 3)
        assert parse_subset("w,x,z") == (0, 1, 3)
        assert parse_subset("Z, Y") == (2, 3)

    def test_parse_subset_rejects_unknown_and_duplicates(self):
        with pytest.raises(ValueError):
            parse_subset("wq")
        with pytest.raises(ValueError):
            parse_subset("ww")
        with pytest.raises(ValueError):
            parse_subset("")

    def test_subset_names(self):
        assert subset_name((0, 1, 2, 3)) == "WXYZ"
        assert subset_name((3,)) == "Z"


def dict_marginal_entropy(table, subset):
    """H from the label-keyed projected counts: one fsum term per marginal cell."""
    n = float(table.total)
    return -fsum(c / n * log2(c / n) for c in project(table, subset).counts.values()) + 0.0


def all_subsets(arity):
    return [s for size in range(1, arity + 1) for s in combinations(range(arity), size)]


@st.composite
def small_tables(draw):
    arity = draw(st.sampled_from((3, 4)))
    label = st.sampled_from(["", "a", "b", "c", "dd"])
    counts = draw(
        st.dictionaries(
            st.tuples(*[label] * arity), st.integers(1, 10**6), min_size=1, max_size=40
        )
    )
    return ContingencyTable.from_counts(arity, counts)


class TestCodedEntropyExactness:
    @given(small_tables())
    @example(ContingencyTable.from_counts(3, {("", "", ""): 7}))
    @example(ContingencyTable.from_counts(4, {("a", "", "b", ""): 1}))
    @example(ContingencyTable.from_counts(3, {("a", "b", "c"): 2**70, ("a", "", "c"): 3}))
    def test_bit_identical_to_dict_marginal(self, table):
        for subset in all_subsets(table.arity):
            assert entropy(table, subset) == dict_marginal_entropy(table, subset)

    def test_alphabet_product_beyond_int64(self):
        # 65537**4 > 2**63, so the four-dimension key is re-densified
        # before its last digit. Each label appears in two cells, and the
        # two cells sharing a z label differ only by one step in y.
        m = 65537
        counts = {
            (f"w{t}", f"x{3 * t % m}", f"y{(5 * t + b) % m}", f"z{7 * t % m}"): 1 + (t + b) % 3
            for t in range(m)
            for b in (0, 1)
        }
        table = ContingencyTable.from_counts(4, counts)
        assert [len(a) for a in table.alphabets] == [m] * 4
        for subset in all_subsets(4):
            assert entropy(table, subset) == dict_marginal_entropy(table, subset)


# ---- chains of nested subsets, and the exact multiples of a term


@given(st.integers(1, 4).flatmap(lambda arity: st.lists(st.sampled_from(all_subsets(arity)))))
def test_chains_cover_the_subsets_with_nested_prefixes(subsets):
    chains = _chains(subsets)
    assert sorted(dims for members in chains for dims in members) == sorted(set(subsets))
    for members in chains:
        order = _chain_order(members)
        assert sorted(order) == list(members[-1])
        assert [len(dims) for dims in members] == sorted({len(dims) for dims in members})
        assert all(tuple(sorted(order[: len(dims)])) == dims for dims in members)


def test_chains_of_the_lattices():
    # Short of all four dimensions: one chain per pair, none of which nest.
    assert len(_chains(all_subsets(4)[:-1])) == 6
    assert len(_chains(all_subsets(3)[:-1])) == 3
    assert len(_chains(all_subsets(4))) == 6


@st.composite
def subset_requests(draw):
    """A table, counts past 2**63 included, a partial request of its subsets,
    a grouping dimension (or None) and three distinct dimensions."""
    arity = draw(st.sampled_from((3, 4)))
    label = st.sampled_from(["", "a", "b", "c", "dd"])
    count = st.one_of(st.integers(1, 10**6), st.integers(2**62, 2**70))
    counts = draw(st.dictionaries(st.tuples(*[label] * arity), count, min_size=1, max_size=40))
    subsets = draw(st.lists(st.sampled_from(all_subsets(arity)), min_size=1, unique=True))
    by = draw(st.one_of(st.none(), st.integers(0, arity - 1)))
    abc = draw(st.permutations(range(arity)))[:3]
    return ContingencyTable.from_counts(arity, counts), subsets, by, abc


@given(subset_requests())
# One label on `by`: a grouped request with a single group.
@example(
    (
        ContingencyTable.from_counts(
            3, {("a", "b", "c"): 2**70, ("a", "", "c"): 3, ("a", "b", ""): 5}
        ),
        [(1, 2), (0,), (0, 1, 2), (2,)],
        0,
        (1, 2, 0),
    )
)
# int64 counts whose (group, count) pairs pass int64 once packed.
@example(
    (
        ContingencyTable.from_counts(
            3, {("a", "b", "c"): 2**62, ("", "b", "c"): 1, ("", "", "c"): 1, ("a", "", "c"): 2}
        ),
        [(1,), (1, 2), (0, 2), (0, 1, 2)],
        0,
        (0, 1, 2),
    )
)
# Every dimension with `by` set, over two groups: sorted on `by` and then
# on every dimension, `by` again among them, like any other subset.
@example(
    (
        ContingencyTable.from_counts(
            4,
            {
                ("a", "b", "c", "d"): 3,
                ("b", "b", "c", "d"): 2**70,
                ("b", "", "c", "d"): 1,
                ("a", "b", "", "d"): 3,
                ("a", "", "c", ""): 2,
            },
        ),
        [(0, 1, 2, 3), (1, 3), (0,), (0, 2, 3)],
        1,
        (3, 0, 2),
    )
)
# Only the subset of every dimension but `by`: the empty subset, which
# gives the groups, forms a chain on its own.
@example(
    (
        ContingencyTable.from_counts(
            3, {("a", "b", "c"): 4, ("b", "b", "c"): 1, ("b", "", "c"): 2, ("a", "b", ""): 3}
        ),
        [(1, 2)],
        0,
        (1, 2, 0),
    )
)
def test_partial_subset_requests_match_the_dict_marginals(case):
    table, subsets, by, (a, b, c) = case
    h = {dims: dict_marginal_entropy(table, dims) for dims in all_subsets(table.arity)}
    [(_, _, whole)] = _grouped_entropies(table, subsets)
    assert whole == {dims: h[dims] for dims in subsets}
    for dims in subsets:
        assert entropy(table, dims) == h[dims]
        if len(dims) >= 2:
            assert transmission(table, dims) == _transmission_from_entropies(dims, h)
    ac, bc, abc = (tuple(sorted(s)) for s in ((a, c), (b, c), (a, b, c)))
    expected = fsum((h[ac], h[bc], -h[(c,)], -h[abc])) + 0.0
    assert conditional_transmission(table, a, b, c) == expected
    # Within each group of the cells by their label on `by`, H equals the
    # dict marginal's of that group's own table.
    codes, n, grouped = zip(*_grouped_entropies(table, subsets, by))
    assert list(codes) == sorted(codes) and all(list(hs) == subsets for hs in grouped)
    parts = [(None, table)] if by is None else oracles.partition(table, by)
    labels = [None] * len(codes) if by is None else [table.alphabets[by][i] for i in codes]
    assert {label: (n_g, hs) for label, n_g, hs in zip(labels, n, grouped)} == {
        label: (part.total, {dims: dict_marginal_entropy(part, dims) for dims in subsets})
        for label, part in parts
    }


terms = st.floats(-0.6, 0.0)


@given(st.lists(st.tuples(terms, st.integers(0, 2**40)), min_size=1, max_size=8))
@example([(-0.5, 2**40), (-0.1, 3), (-0.0, 7), (-(2**-70), 2**40 - 1)])
def test_exact_multiples_sum_to_the_repeated_terms(pairs):
    x = np.array([term for term, _ in pairs])
    m = np.array([times for _, times in pairs], dtype=np.int64)
    pieces = _exact_multiples(x, m)
    assert pieces.shape == (len(pairs), 4)
    # fsum(repeat(x, m)) is x * m correctly rounded, which Fraction gives
    # without adding up to 2**40 terms.
    for (term, times), four in zip(pairs, pieces.tolist()):
        assert fsum(four) == float(Fraction(term) * times)
        if times <= 1000:
            assert fsum(four) == fsum(repeat(term, times))
    assert fsum(pieces.ravel().tolist()) == float(sum(Fraction(t) * times for t, times in pairs))


# ---- the reports of several tables from one stacked kernel call


@st.composite
def mixed_tables(draw):
    """A table of 3 or 4 dimensions, its counts past 2**63 at times, its
    labels drawn from a pool of its own: "" and four consecutive letters
    of "abcdefghij", so the pools of two tables partly overlap at most and
    the union of several tables' alphabets is wider than any one's."""
    arity = draw(st.sampled_from((3, 4)))
    start = draw(st.integers(0, 6))
    label = st.sampled_from(["", *"abcdefghij"[start : start + 4]])
    count = st.one_of(st.integers(1, 10**6), st.integers(2**61, 2**70))
    counts = draw(st.dictionaries(st.tuples(*[label] * arity), count, min_size=1, max_size=30))
    return ContingencyTable.from_counts(arity, counts)


def stacked(tables):
    """Tables of one arity laid side by side as batch lays a chunk's files:
    on shared alphabets, with a last dimension holding each cell's table."""
    alphabets, columns, counts = _stacked([table.counts for table in tables])
    columns.append(np.repeat(np.arange(len(tables)), [len(table.counts) for table in tables]))
    alphabets += (tuple(range(len(tables))),)
    return ContingencyTable._from_codes(alphabets, tuple(columns), counts)


@given(st.lists(mixed_tables(), max_size=8))
# int64 tables whose stacked total passes 2**63.
@example(
    [
        ContingencyTable.from_counts(3, {("a", "b", "c"): 2**62, ("", "b", "c"): 2**61}),
        ContingencyTable.from_counts(3, {("a", "b", "c"): 2**62 + 1, ("a", "", "c"): 2**61}),
    ]
)
def test_stacked_reports_equal_the_reports_of_each_table(tables):
    for arity in (3, 4):
        members = [table for table in tables if table.arity == arity]
        if members:
            reports = _full_reports(stacked(members), arity)
            expected = [full_report(table) for table in members]
            assert reports == expected
            assert list(map(repr, reports)) == list(map(repr, expected))  # bits and order too


def test_stacked_reports_refuse_an_empty_table(golden3_table):
    empty = ContingencyTable.from_counts(3, {})
    with pytest.raises(ValueError, match="empty table"):
        _full_reports(stacked([golden3_table, empty]), 3)


@given(mixed_tables(), st.integers(1, 4), st.randoms(use_true_random=False))
def test_labels_no_cell_uses_change_no_bit(table, extra, rng):
    # A chunk's alphabets list the labels of all its files, each file's
    # own among the others, which none of its cells use.
    alphabets, codes = [], []
    for alphabet, column in zip(table.alphabets, table._codes):
        padded = [*alphabet, *(f"unused{i}" for i in range(extra))]
        rng.shuffle(padded)
        index = {label: i for i, label in enumerate(padded)}
        alphabets.append(tuple(padded))
        codes.append(np.array([index[label] for label in alphabet])[column])
    counts = table._cell_counts
    padded = ContingencyTable._from_codes(tuple(alphabets), tuple(codes), counts)
    alone = ContingencyTable._from_codes(
        (*alphabets, (0,)), (*codes, np.zeros(len(counts), np.int64)), counts
    )
    expected = repr(full_report(table))
    assert repr(full_report(padded)) == expected
    assert list(map(repr, _full_reports(alone, table.arity))) == [expected]
