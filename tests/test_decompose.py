from __future__ import annotations

import random
from math import fsum

import pytest

import oracles
from th4.decompose import decompose_by_dimension, decompose_external
from th4.infocalc import transmission
from th4.ingest import Dataset
from th4.tables import build_table


class TestDecomposeByDimension:
    def test_single_group_has_no_residual(self):
        rows = [("only", str(i % 2), str(i % 3), str(i % 2)) for i in range(12)]
        result = decompose_by_dimension(oracles.table_from_rows(rows), 0, (1, 2, 3))
        assert len(result.groups) == 1
        assert result.groups[0].weight == 1.0
        assert result.t_between == pytest.approx(0.0, abs=1e-12)

    def test_golden4_grouped_by_second_dimension(self, golden4):
        result = decompose_by_dimension(build_table(golden4), 1, (0, 2, 3))
        assert [g.group_label for g in result.groups] == ["a", "b"]
        assert [g.n_g for g in result.groups] == [2, 2]
        rows = [r.labels for r in golden4.records]
        for group in result.groups:
            member_rows = [row for row in rows if row[1] == group.group_label]
            assert group.t_g == pytest.approx(
                oracles.t3(member_rows, 0, 2, 3), abs=1e-12
            )
        assert result.t_pooled == pytest.approx(oracles.t3(rows, 0, 2, 3), abs=1e-12)
        expected_between = result.t_pooled - fsum(g.contribution for g in result.groups)
        assert result.t_between == pytest.approx(expected_between, abs=1e-15)

    def test_golden4_grouped_by_region(self, golden4):
        result = decompose_by_dimension(build_table(golden4), 2, (0, 1, 3))
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

    def test_group_dim_may_not_be_in_subset(self, golden4):
        with pytest.raises(ValueError):
            decompose_by_dimension(build_table(golden4), 1, (0, 1, 2))

    def test_subset_needs_two_dimensions(self, golden4):
        with pytest.raises(ValueError):
            decompose_by_dimension(build_table(golden4), 0, (2,))

    def test_pair_subsets_work(self, golden4):
        result = decompose_by_dimension(build_table(golden4), 3, (0, 1))
        rows = [r.labels for r in golden4.records]
        assert result.t_pooled == pytest.approx(oracles.t2(rows, 0, 1), abs=1e-12)


class TestDecomposeExternal:
    def test_single_group(self, golden4):
        result = decompose_external([("all", build_table(golden4))], (0, 1, 2))
        assert result.t_between == pytest.approx(0.0, abs=1e-12)
        assert result.groups[0].weight == 1.0

    def test_two_identical_copies(self, golden4):
        result = decompose_external(
            [("first", build_table(golden4)), ("second", build_table(golden4))], (0, 1, 3)
        )
        first, second = result.groups
        assert first.t_g == pytest.approx(second.t_g, abs=1e-15)
        assert result.t_pooled == pytest.approx(first.t_g, abs=1e-12)
        assert result.t_between == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_alphabets_have_between_group_structure(self):
        rng = random.Random(19)
        rows_a = [tuple(f"A{v}" for v in row) for row in oracles.random_rows(rng, 3, (2, 2, 2), 20)]
        rows_b = [tuple(f"B{v}" for v in row) for row in oracles.random_rows(rng, 3, (2, 2, 2), 30)]
        result = decompose_external(
            [("a", oracles.table_from_rows(rows_a)), ("b", oracles.table_from_rows(rows_b))],
            (0, 1, 2),
        )
        pooled_rows = rows_a + rows_b
        assert result.t_pooled == pytest.approx(oracles.t3(pooled_rows, 0, 1, 2), abs=1e-12)
        expected_between = result.t_pooled - fsum(g.contribution for g in result.groups)
        assert result.t_between == pytest.approx(expected_between, abs=1e-15)

    def test_matches_by_dimension_on_the_label_partition(self, golden4):
        by_dim = decompose_by_dimension(build_table(golden4), 1, (0, 2, 3))
        split = {}
        for record in golden4.records:
            split.setdefault(record.labels[1], []).append(record.labels)
        external = decompose_external(
            [(label, oracles.table_from_rows(rows)) for label, rows in split.items()],
            (0, 2, 3),
        )
        assert external.groups == by_dim.groups
        assert external.t_pooled == by_dim.t_pooled
        assert external.t_between == by_dim.t_between

    def test_empty_group_list_rejected(self):
        with pytest.raises(ValueError):
            decompose_external([], (0, 1))

    def test_mixed_arity_rejected(self, golden4, golden3):
        with pytest.raises(ValueError):
            decompose_external(
                [("four", build_table(golden4)), ("three", build_table(golden3))], (0, 1)
            )


class TestReconstruction:
    def test_random_datasets_reconstruct_exactly(self):
        rng = random.Random(43)
        for _ in range(30):
            arity = rng.choice((3, 4))
            rows = oracles.random_rows(rng, arity, [rng.randint(2, 3)] * arity, rng.randint(4, 60))
            dataset = oracles.dataset_from_rows(rows)
            group_dim = rng.randrange(arity)
            subset = tuple(d for d in range(arity) if d != group_dim)
            result = decompose_by_dimension(build_table(dataset), group_dim, subset)
            total = fsum(g.contribution for g in result.groups) + result.t_between
            assert total == pytest.approx(result.t_pooled, abs=1e-12)
            assert fsum(g.weight for g in result.groups) == pytest.approx(1.0, abs=1e-12)
            # Each group, cut from the table's cells, equals the table of its records.
            buckets = {}
            for record in dataset.records:
                buckets.setdefault(record.labels[group_dim], []).append(record)
            assert [g.group_label for g in result.groups] == sorted(buckets)
            for group in result.groups:
                records = tuple(buckets[group.group_label])
                group_table = build_table(Dataset(records, arity, group.group_label))
                assert group.t_g == transmission(group_table, subset)
                assert group.n_g == len(records)

    def test_pooled_equals_library_transmission(self, golden4):
        result = decompose_by_dimension(build_table(golden4), 2, (0, 1, 3))
        assert result.t_pooled == transmission(build_table(golden4), (0, 1, 3))
