from __future__ import annotations

import random
from math import fsum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from th4.decompose import DecompositionResult, GroupContribution, decompose_by_dimension
from th4.infocalc import transmission
from th4.tables import ContingencyTable


class TestDecomposeByDimension:
    def test_single_group_has_no_residual(self):
        rows = [("only", str(i % 2), str(i % 3), str(i % 2)) for i in range(12)]
        result = decompose_by_dimension(oracles.table_from_rows(rows), 0, (1, 2, 3))
        assert len(result.groups) == 1
        assert result.groups[0].weight == 1.0
        assert result.t_between == pytest.approx(0.0, abs=1e-12)

    def test_golden4_grouped_by_second_dimension(self, golden4, golden4_table):
        result = decompose_by_dimension(golden4_table, 1, (0, 2, 3))
        assert [g.group_label for g in result.groups] == ["a", "b"]
        assert [g.n_g for g in result.groups] == [2, 2]
        for group in result.groups:
            member_rows = [row for row in golden4 if row[1] == group.group_label]
            assert group.t_g == pytest.approx(
                oracles.t3(member_rows, 0, 2, 3), abs=1e-12
            )
        assert result.t_pooled == pytest.approx(oracles.t3(golden4, 0, 2, 3), abs=1e-12)
        expected_between = result.t_pooled - fsum(g.contribution for g in result.groups)
        assert result.t_between == pytest.approx(expected_between, abs=1e-15)

    def test_golden4_grouped_by_region(self, golden4_table):
        result = decompose_by_dimension(golden4_table, 2, (0, 1, 3))
        assert [g.group_label for g in result.groups] == ["region1", "region2", "region5"]
        assert [g.weight for g in result.groups] == [0.25, 0.5, 0.25]
        # singleton groups contribute zero transmission
        assert result.groups[0].t_g == 0.0
        assert result.groups[2].t_g == 0.0

    def test_all_singleton_groups_push_everything_between(self):
        rows = [(f"g{i}", str(i % 2), str(i % 3), str((i * 7) % 2)) for i in range(8)]
        result = decompose_by_dimension(oracles.table_from_rows(rows), 0, (1, 2, 3))
        for group in result.groups:
            assert group.t_g == 0.0
        assert result.t_between == pytest.approx(result.t_pooled, abs=1e-12)

    def test_group_dim_may_not_be_in_subset(self, golden4_table):
        with pytest.raises(ValueError):
            decompose_by_dimension(golden4_table, 1, (0, 1, 2))

    def test_subset_needs_two_dimensions(self, golden4_table):
        with pytest.raises(ValueError):
            decompose_by_dimension(golden4_table, 0, (2,))

    def test_pair_subsets_work(self, golden4, golden4_table):
        result = decompose_by_dimension(golden4_table, 3, (0, 1))
        assert result.t_pooled == pytest.approx(oracles.t2(golden4, 0, 1), abs=1e-12)


def tagged(rows, dims, tag):
    """Each row cut to `dims`, with `tag` appended as a grouping label."""
    return [tuple(row[d] for d in dims) + (tag,) for row in rows]


class TestDecomposeExternal:
    """Groups the caller defines, given as labels of an extra grouping dimension."""

    def test_single_group(self, golden4):
        table = oracles.table_from_rows(tagged(golden4, (0, 1, 2), "all"))
        result = decompose_by_dimension(table, 3, (0, 1, 2))
        assert result.t_between == pytest.approx(0.0, abs=1e-12)
        assert result.groups[0].weight == 1.0

    def test_two_identical_copies(self, golden4):
        rows = tagged(golden4, (0, 1, 3), "first") + tagged(golden4, (0, 1, 3), "second")
        result = decompose_by_dimension(oracles.table_from_rows(rows), 3, (0, 1, 2))
        first, second = result.groups
        assert first.t_g == pytest.approx(second.t_g, abs=1e-15)
        assert result.t_pooled == pytest.approx(first.t_g, abs=1e-12)
        assert result.t_between == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_alphabets_have_between_group_structure(self):
        rng = random.Random(19)
        rows_a = [tuple(f"A{v}" for v in row) for row in oracles.random_rows(rng, 3, (2, 2, 2), 20)]
        rows_b = [tuple(f"B{v}" for v in row) for row in oracles.random_rows(rng, 3, (2, 2, 2), 30)]
        rows = tagged(rows_a, (0, 1, 2), "a") + tagged(rows_b, (0, 1, 2), "b")
        result = decompose_by_dimension(oracles.table_from_rows(rows), 3, (0, 1, 2))
        pooled_rows = rows_a + rows_b
        assert result.t_pooled == pytest.approx(oracles.t3(pooled_rows, 0, 1, 2), abs=1e-12)
        expected_between = result.t_pooled - fsum(g.contribution for g in result.groups)
        assert result.t_between == pytest.approx(expected_between, abs=1e-15)

    def test_matches_by_dimension_on_the_label_partition(self, golden4, golden4_table):
        # Each group's share, recomputed by brute force from its own rows.
        by_dim = decompose_by_dimension(golden4_table, 1, (0, 2, 3))
        split = {}
        for row in golden4:
            split.setdefault(row[1], []).append(row)
        assert [g.group_label for g in by_dim.groups] == sorted(split)
        for group in by_dim.groups:
            rows = split[group.group_label]
            assert group.n_g == len(rows)
            assert group.weight == len(rows) / len(golden4)
            assert group.t_g == pytest.approx(oracles.t3(rows, 0, 2, 3), abs=1e-12)
        assert by_dim.t_pooled == pytest.approx(oracles.t3(golden4, 0, 2, 3), abs=1e-12)

    def test_empty_group_list_rejected(self):
        with pytest.raises(ValueError):
            decompose_by_dimension(ContingencyTable.from_counts(4, {}), 3, (0, 1))

    def test_mixed_arity_rejected(self, golden3_table):
        # A dimension the table lacks, as the group or in the subset.
        with pytest.raises(ValueError):
            decompose_by_dimension(golden3_table, 3, (0, 1))
        with pytest.raises(ValueError):
            decompose_by_dimension(golden3_table, 0, (1, 3))


class TestReconstruction:
    def test_random_datasets_reconstruct_exactly(self):
        rng = random.Random(43)
        for _ in range(30):
            arity = rng.choice((3, 4))
            rows = oracles.random_rows(rng, arity, [rng.randint(2, 3)] * arity, rng.randint(4, 60))
            group_dim = rng.randrange(arity)
            subset = tuple(d for d in range(arity) if d != group_dim)
            result = decompose_by_dimension(oracles.table_from_rows(rows), group_dim, subset)
            total = fsum(g.contribution for g in result.groups) + result.t_between
            assert total == pytest.approx(result.t_pooled, abs=1e-12)
            assert fsum(g.weight for g in result.groups) == pytest.approx(1.0, abs=1e-12)
            # Each group, cut from the table's cells, equals the table of its rows.
            buckets = {}
            for row in rows:
                buckets.setdefault(row[group_dim], []).append(row)
            assert [g.group_label for g in result.groups] == sorted(buckets)
            for group in result.groups:
                group_rows = buckets[group.group_label]
                group_table = oracles.table_from_rows(group_rows)
                assert group.t_g == transmission(group_table, subset)
                assert group.n_g == len(group_rows)

    def test_pooled_equals_library_transmission(self, golden4_table):
        result = decompose_by_dimension(golden4_table, 2, (0, 1, 3))
        assert result.t_pooled == transmission(golden4_table, (0, 1, 3))

    def test_a_result_that_does_not_add_up_names_the_gap(self):
        group = GroupContribution("g", n_g=2, weight=1.0, t_g=0.25, contribution=0.25)
        with pytest.raises(AssertionError, match=r"reconstruction off by -0\.5\b"):
            DecompositionResult(subset=(0, 1), groups=(group,), t_pooled=1.0, t_between=0.25)


@st.composite
def decompositions(draw):
    """(table, group dimension, subset): counts past 2**63 included, and
    alphabets in any order with an unused label."""
    arity = draw(st.integers(3, 4))
    label = st.sampled_from(["a", "b", "c", "dd", ""])
    count = st.one_of(st.integers(1, 9), st.integers(2**62, 2**70))
    counts = draw(st.dictionaries(st.tuples(*[label] * arity), count, min_size=1, max_size=40))
    if draw(st.booleans()):
        table = ContingencyTable.from_counts(arity, counts)
    else:
        alphabets = tuple(
            tuple(draw(st.permutations([*alphabet, "zz"])))
            for alphabet in ContingencyTable.from_counts(arity, counts).alphabets
        )
        table = oracles.table_over(alphabets, counts)
    group_dim = draw(st.integers(0, arity - 1))
    others = [d for d in range(arity) if d != group_dim]
    subset = draw(st.lists(st.sampled_from(others), min_size=2, unique=True))
    return table, group_dim, subset


@settings(max_examples=150)
@given(decompositions())
def test_grouped_pass_equals_the_per_group_path(case):
    table, group_dim, subset = case
    result = decompose_by_dimension(table, group_dim, subset)
    assert result == oracles.decompose_per_group(table, group_dim, subset)


def test_keys_past_int64_equal_the_per_group_path():
    # 2**21 * 2**21 * 2**21 passes 2**62: each subset of a chain gets its own sort.
    table = oracles.range_table(random.Random(11), (3, 2**21, 2**21, 2**21), 60)
    for group_dim, subset in ((0, (1, 2, 3)), (3, (0, 1, 2)), (1, (2, 3))):
        result = decompose_by_dimension(table, group_dim, subset)
        assert result == oracles.decompose_per_group(table, group_dim, subset)
