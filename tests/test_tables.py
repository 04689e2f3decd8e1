from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from th4.infocalc import conditional_transmission, full_report
from th4.ingest import load_table
from th4.maxent import ipf_fit
from th4.tables import (
    ContingencyTable,
    _alphabets_from,
    build_table,
    marginal,
    merge,
    project,
)


class TestBuildTable:
    def test_four_distinct_rows(self, golden4_table):
        assert golden4_table.total == 4
        assert len(golden4_table.counts) == 4
        assert all(c == 1 for c in golden4_table.counts.values())

    def test_repeated_record_collapses_to_one_cell(self):
        table = oracles.table_from_rows([("a", "b", "c")] * 5)
        assert table.counts == {("a", "b", "c"): 5}
        assert table.total == 5

    def test_six_rows_with_triplicate(self, golden3_table):
        assert golden3_table.total == 6
        assert len(golden3_table.counts) == 4
        assert golden3_table.counts[("1901", "11", "2")] == 3

    def test_alphabets_in_first_observation_order(self, golden4_table):
        assert golden4_table.alphabets[0] == ("1", "2")
        assert golden4_table.alphabets[2] == ("region1", "region2", "region5")


class TestMarginal:
    def test_first_dimension(self, golden4_table):
        m = marginal(golden4_table, (0,))
        assert m.counts == {("1",): 3, ("2",): 1}
        assert m.total == 4

    def test_third_dimension(self, golden4_table):
        m = marginal(golden4_table, (2,))
        assert m.counts == {("region1",): 1, ("region2",): 2, ("region5",): 1}

    def test_full_subset_is_identity(self, golden4_table):
        m = marginal(golden4_table, (0, 1, 2, 3))
        assert dict(m.counts) == dict(golden4_table.counts)
        assert m.subset == (0, 1, 2, 3)

    def test_subset_is_sorted(self, golden4_table):
        assert marginal(golden4_table, (3, 0)).subset == (0, 3)

    def test_counts_sum_to_total(self, golden3_table):
        for subset in [(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)]:
            assert sum(marginal(golden3_table, subset).counts.values()) == 6

    def test_empty_subset_rejected(self, golden4_table):
        with pytest.raises(ValueError):
            marginal(golden4_table, ())

    def test_out_of_range_rejected(self, golden3_table):
        with pytest.raises(ValueError):
            marginal(golden3_table, (3,))

    def test_marginal_of_marginal_composes(self, golden4_table):
        outer = project(golden4_table, (0, 1, 3))
        # dimension 3 of the parent sits at position 2 of the projection
        inner = marginal(outer, (0, 2))
        direct = marginal(golden4_table, (0, 3))
        assert dict(inner.counts) == dict(direct.counts)


class TestProject:
    def test_proper_subset_is_a_new_table(self, golden4_table):
        table = project(golden4_table, (3, 0, 1))
        assert table is not golden4_table
        assert table.arity == 3
        assert dict(table.counts) == dict(marginal(golden4_table, (0, 1, 3)).counts)
        assert table.alphabets == tuple(golden4_table.alphabets[d] for d in (0, 1, 3))

    def test_bad_subsets_rejected(self, golden3_table):
        for subset in [(), (3,), (0, 1, 2, 3), (-1, 0, 1)]:
            with pytest.raises(ValueError):
                project(golden3_table, subset)


class TestMerge:
    def test_empty_table_is_identity(self, golden4_table):
        empty = ContingencyTable.from_counts(4, {})
        merged = merge(golden4_table, empty)
        assert dict(merged.counts) == dict(golden4_table.counts)
        assert merged.total == golden4_table.total
        assert merged.alphabets == golden4_table.alphabets

    def test_same_cell_adds(self):
        a = oracles.table_from_rows([("a", "b", "c")])
        b = oracles.table_from_rows([("a", "b", "c")])
        merged = merge(a, b)
        assert merged.counts == {("a", "b", "c"): 2}
        assert merged.total == 2

    def test_split_and_merge_matches_unsplit(self, golden4):
        first = oracles.dataset_from_rows([r.labels for r in golden4.records[:2]])
        second = oracles.dataset_from_rows([r.labels for r in golden4.records[2:]])
        merged = merge(build_table(first), build_table(second))
        whole = build_table(golden4)
        assert dict(merged.counts) == dict(whole.counts)
        assert merged.total == whole.total
        assert merged.alphabets == whole.alphabets

    def test_arity_mismatch(self, golden4_table, golden3_table):
        with pytest.raises(ValueError):
            merge(golden4_table, golden3_table)

    def test_commutative_in_counts(self):
        rng = random.Random(7)
        a = oracles.table_from_rows(oracles.random_rows(rng, 3, (2, 3, 2), 20))
        b = oracles.table_from_rows(oracles.random_rows(rng, 3, (3, 2, 4), 15))
        assert dict(merge(a, b).counts) == dict(merge(b, a).counts)


rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["p", "q"]),
        st.sampled_from(["u", "v", "w"]),
    ),
    min_size=1,
    max_size=40,
)


@given(rows_strategy, st.integers(min_value=0, max_value=40))
def test_any_partition_builds_the_same_counts(rows, cut):
    cut = min(cut, len(rows))
    left, right = rows[:cut], rows[cut:]
    whole = oracles.table_from_rows(rows)
    parts = [part for part in (left, right) if part]
    if len(parts) == 2:
        combined = merge(oracles.table_from_rows(left), oracles.table_from_rows(right))
    else:
        combined = oracles.table_from_rows(parts[0])
    assert dict(combined.counts) == dict(whole.counts)
    assert combined.total == whole.total


@given(rows_strategy)
def test_alphabets_cover_exactly_the_observed_labels(rows):
    table = oracles.table_from_rows(rows)
    for dim in range(3):
        observed = {row[dim] for row in rows}
        assert set(table.alphabets[dim]) == observed


@given(rows_strategy, st.permutations([0, 1, 2]))
def test_projection_onto_every_dimension_is_the_table(rows, order):
    table = oracles.table_from_rows(rows)
    m = marginal(table, order)
    rebuilt = ContingencyTable(
        arity=len(m.subset),
        counts=m.counts,
        total=m.total,
        alphabets=tuple(table.alphabets[d] for d in m.subset),
    )
    projected = project(table, order)
    assert projected is table
    assert projected == rebuilt
    assert list(projected.counts.items()) == list(rebuilt.counts.items())
    assert projected.alphabets == rebuilt.alphabets


def test_from_counts_drops_zero_cells():
    table = ContingencyTable.from_counts(2, {("a", "b"): 2, ("a", "c"): 0})
    assert table.counts == {("a", "b"): 2}
    assert table.total == 2


def test_invalid_total_rejected():
    with pytest.raises(ValueError):
        ContingencyTable(arity=2, counts={("a", "b"): 1}, total=5, alphabets=(("a",), ("b",)))


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        ContingencyTable(arity=1, counts={("a",): -1}, total=-1, alphabets=(("a",),))


class TestConstructorChecks:
    ALPHABETS = (("a", "c"), ("b", "d"))

    def test_total_must_match(self):
        with pytest.raises(ValueError, match="^total does not match the stored counts$"):
            ContingencyTable(2, {("a", "b"): 2, ("c", "d"): 1}, 4, self.ALPHABETS)

    def test_tuple_length_must_be_the_arity(self):
        with pytest.raises(ValueError, match=r"^tuple \('c',\) does not have 2 labels$"):
            ContingencyTable(2, {("a", "b"): 2, ("c",): 1}, 3, self.ALPHABETS)

    def test_count_must_be_positive(self):
        message = r"^stored count for \('c', 'd'\) must be >= 1, got 0$"
        with pytest.raises(ValueError, match=message):
            ContingencyTable(2, {("a", "b"): 2, ("c", "d"): 0}, 2, self.ALPHABETS)

    def test_first_offending_cell_is_named(self):
        counts = {("a", "b"): 1, ("a", "d"): 0, ("c",): 1, ("c", "d"): -1}
        with pytest.raises(ValueError, match=r"^stored count for \('a', 'd'\) must be >= 1"):
            ContingencyTable(2, counts, 1, self.ALPHABETS)
        counts = {("a", "b"): 1, ("c",): 1, ("a", "d"): 0}
        with pytest.raises(ValueError, match=r"^tuple \('c',\) does not have 2 labels"):
            ContingencyTable(2, counts, 2, self.ALPHABETS)


def alphabets_by_loop(arity, tuples):
    """Each dimension's labels in first-observation order, one label at a time."""
    seen = [{} for _ in range(arity)]
    for labels in tuples:
        for dim, label in enumerate(labels):
            seen[dim].setdefault(label)
    return tuple(tuple(d) for d in seen)


@given(
    st.integers(1, 4).flatmap(
        lambda arity: st.tuples(
            st.just(arity),
            st.lists(st.tuples(*[st.sampled_from(["a", "b", "", "é", "c d"])] * arity)),
        )
    )
)
def test_alphabets_match_the_label_loop(case):
    arity, tuples = case
    assert _alphabets_from(arity, tuples) == alphabets_by_loop(arity, tuples)
    assert _alphabets_from(arity, dict.fromkeys(tuples)) == alphabets_by_loop(arity, tuples)


# ---- cell codes: seeded by load_table, or computed on first use


def tables_both_ways(path, rows):
    """The table load_table reads from `rows`, and an equal table built from counts."""
    path.write_text("".join(f"r{i}," + ",".join(row) + "\n" for i, row in enumerate(rows)))
    seeded = load_table(path)
    return seeded, ContingencyTable.from_counts(seeded.arity, dict(seeded.counts))


coded_rows = st.integers(3, 4).flatmap(
    lambda arity: st.lists(
        st.tuples(*[st.sampled_from(["a", "b", "c", ""])] * arity), min_size=1, max_size=30
    )
)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(coded_rows)
def test_seeded_and_lazy_codes_agree(tmp_path, rows):
    seeded, lazy = tables_both_ways(tmp_path / "cases.txt", rows)
    assert "_coded" in vars(seeded) and "_coded" not in vars(lazy)
    before = repr(lazy)
    report, lazy_report = full_report(seeded), full_report(lazy)
    assert "_coded" in vars(lazy)
    assert report.h == lazy_report.h and report.t == lazy_report.t
    for a, b, given_dim in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        assert conditional_transmission(seeded, a, b, given_dim) == conditional_transmission(
            lazy, a, b, given_dim
        )
    if seeded.arity == 3:
        fit, lazy_fit = ipf_fit(seeded), ipf_fit(lazy)
        assert (fit.iterations, fit.max_margin_error, fit.converged) == (
            lazy_fit.iterations,
            lazy_fit.max_margin_error,
            lazy_fit.converged,
        )
        assert fit.interaction_bits == lazy_fit.interaction_bits
        assert dict(fit.fitted.items()) == dict(lazy_fit.fitted.items())
    # The cache is no field: equality, repr and hashing ignore it.
    assert seeded == lazy
    assert repr(seeded) == repr(lazy) == before
    for table in (seeded, lazy):
        with pytest.raises(TypeError):
            hash(table)
