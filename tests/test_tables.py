from __future__ import annotations

import pickle
import random
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from th4.infocalc import conditional_transmission, entropy, full_report
from th4.ingest import load_table
from th4.maxent import ipf_fit
from th4.tables import ContingencyTable, _group, _nested_sums, _stacked, merge, project


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


def marginal(table, subset):
    """The counts and total of `table` projected onto `subset`."""
    m = project(table, subset)
    return m.counts, m.total


class TestMarginal:
    def test_first_dimension(self, golden4_table):
        assert marginal(golden4_table, (0,)) == ({("1",): 3, ("2",): 1}, 4)

    def test_third_dimension(self, golden4_table):
        counts, _ = marginal(golden4_table, (2,))
        assert counts == {("region1",): 1, ("region2",): 2, ("region5",): 1}

    def test_full_subset_is_identity(self, golden4_table):
        assert project(golden4_table, (0, 1, 2, 3)) is golden4_table

    def test_subset_is_sorted(self, golden4_table):
        assert marginal(golden4_table, (3, 0)) == marginal(golden4_table, (0, 3))
        assert project(golden4_table, (3, 0)).alphabets == (("1", "2"), ("2", "1"))

    def test_counts_sum_to_total(self, golden3_table):
        for subset in [(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)]:
            counts, total = marginal(golden3_table, subset)
            assert sum(counts.values()) == total == 6

    def test_empty_subset_rejected(self, golden4_table):
        with pytest.raises(ValueError):
            project(golden4_table, ())

    def test_out_of_range_rejected(self, golden3_table):
        with pytest.raises(ValueError):
            project(golden3_table, (3,))

    def test_marginal_of_marginal_composes(self, golden4_table):
        outer = project(golden4_table, (0, 1, 3))
        # dimension 3 of the parent sits at position 2 of the projection
        assert marginal(outer, (0, 2)) == marginal(golden4_table, (0, 3))


class TestProject:
    def test_proper_subset_is_a_new_table(self, golden4_table):
        table = project(golden4_table, (3, 0, 1))
        assert table is not golden4_table
        assert table.arity == 3
        assert dict(table.counts) == dict(oracles.marginal_reference(golden4_table, (0, 1, 3))[0])
        assert table.alphabets == tuple(golden4_table.alphabets[d] for d in (0, 1, 3))

    def test_bad_subsets_rejected(self, golden3_table):
        for subset in [(), (3,), (0, 1, 2, 3), (-1, 0, 1)]:
            with pytest.raises(ValueError):
                project(golden3_table, subset)

    @pytest.mark.parametrize("function", [project, entropy])
    def test_a_refused_iterator_is_quoted_whole(self, golden3_table, function):
        message = r"^dimension index out of range for 3-dimension data: \(0, 7\)$"
        with pytest.raises(ValueError, match=message):
            function(golden3_table, (d for d in (0, 7)))


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

    # Pickled: the shard-per-worker path, where tables cross processes.
    @pytest.mark.parametrize("pickled", [False, True])
    def test_split_and_merge_matches_unsplit(self, golden4_path, golden4_table, tmp_path, pickled):
        # One table per shard file, merged, is the table of the whole file.
        lines = golden4_path.read_bytes().splitlines(keepends=True)
        (tmp_path / "first.txt").write_bytes(b"".join(lines[:2]))
        (tmp_path / "second.txt").write_bytes(b"".join(lines[2:]))
        shards = [load_table(tmp_path / "first.txt"), load_table(tmp_path / "second.txt")]
        if pickled:
            shards = [pickle.loads(pickle.dumps(shard)) for shard in shards]
        merged = merge(*shards)
        whole = golden4_table
        assert dict(merged.counts) == dict(whole.counts)
        assert merged.total == whole.total
        assert merged.alphabets == whole.alphabets
        assert oracles.table_parts(merged) == oracles.table_parts(whole) and merged == whole

    def test_arity_mismatch(self, golden4_table, golden3_table):
        with pytest.raises(ValueError):
            merge(golden4_table, golden3_table)

    def test_commutative_in_counts(self):
        rng = random.Random(7)
        a = oracles.table_from_rows(oracles.random_rows(rng, 3, (2, 3, 2), 20))
        b = oracles.table_from_rows(oracles.random_rows(rng, 3, (3, 2, 4), 15))
        assert dict(merge(a, b).counts) == dict(merge(b, a).counts)

    def test_merge_recodes_into_one_union_alphabet(self):
        tables = [
            ContingencyTable.from_counts(2, {("a", "p"): 1, ("b", "q"): 2}),
            ContingencyTable.from_counts(2, {("c", "q"): 3}),
            ContingencyTable.from_counts(2, {("b", "r"): 4, ("a", "p"): 5}),
        ]
        merged = merge(merge(tables[0], tables[1]), tables[2])
        # Labels in order of first appearance across the tables; codes recoded into them.
        assert merged.alphabets == (("a", "b", "c"), ("p", "q", "r"))
        assert [codes.tolist() for codes in merged._codes] == [[0, 1, 2, 1], [0, 1, 1, 2]]
        assert merged._cell_counts.dtype == np.int64
        assert merged._cell_counts.tolist() == [6, 2, 3, 4]

    @pytest.mark.parametrize("big", [2**62 - 1, 2**62])
    def test_stacked_lays_parts_side_by_side(self, big):
        alphabets = (("a", "b"), ("p", "q", "r"))
        parts = [
            ((np.array([0, 1]), np.array([2, 0])), np.array([big, 1])),
            ((np.array([], np.int64), np.array([], np.int64)), np.array([], np.int64)),
            ((np.array([1]), np.array([1])), np.array([big - 1])),
        ]
        stack = _stacked(alphabets, parts)
        assert stack.alphabets == (*alphabets, (0, 1, 2))
        assert [codes.tolist() for codes in stack._codes] == [[0, 1, 1], [2, 0, 1], [0, 0, 2]]
        # The counts sum to 2 * big: exact Python ints from 2**63 on.
        assert stack._cell_counts.tolist() == [big, 1, big - 1] and stack.total == 2 * big
        assert stack._cell_counts.dtype == (np.int64 if 2 * big < 2**63 else object)


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
    counts, total = marginal(table, order)
    rebuilt = oracles.table_over(table.alphabets, dict(counts))
    assert rebuilt.total == total
    projected = project(table, order)
    assert projected is table
    assert projected == rebuilt
    assert list(projected.counts.items()) == list(rebuilt.counts.items())
    assert projected.alphabets == rebuilt.alphabets


def test_from_counts_drops_zero_cells():
    table = ContingencyTable.from_counts(2, {("a", "b"): 2, ("a", "c"): 0})
    assert table.counts == {("a", "b"): 2}
    assert table.total == 2


# Counts past the given alphabets, a label missing from them, alphabets of another arity.
@pytest.mark.parametrize(
    "args",
    [
        (2, {("a", "b"): 1}, 1, (("a",),)),
        (2, {("a", "b"): 1}, 1, (("a",), ("c",))),
        (2, {("a", "b"): 1}, 1, (("a",), ("b",), ("c",))),
    ],
)
def test_direct_construction_is_refused(args):
    with pytest.raises(TypeError, match=r"ContingencyTable\.from_counts"):
        ContingencyTable(*args)
    with pytest.raises(TypeError, match=r"ContingencyTable\.from_counts"):
        ContingencyTable(**dict(zip(("arity", "counts", "total", "alphabets"), args)))


class TestConstructorChecks:
    def test_tuple_length_must_be_the_arity(self):
        with pytest.raises(ValueError, match=r"^tuple \('c',\) does not have 2 labels$"):
            ContingencyTable.from_counts(2, {("a", "b"): 2, ("c",): 1})

    def test_count_must_be_positive(self):
        message = r"^stored count for \('c', 'd'\) must be >= 1, got -1$"
        with pytest.raises(ValueError, match=message):
            ContingencyTable.from_counts(2, {("a", "b"): 2, ("c", "d"): -1})
        with pytest.raises(ValueError, match=r"^stored count for \('a',\) must be >= 1, got -1$"):
            ContingencyTable.from_counts(1, {("a",): np.int64(-1)})

    def test_count_must_be_an_integer(self):
        message = r"^stored count for \('c', 'd'\) must be an integer, got 1\.5$"
        with pytest.raises(ValueError, match=message):
            ContingencyTable.from_counts(2, {("a", "b"): 2, ("c", "d"): 1.5})

    def test_numpy_integer_counts_are_integers(self):
        table = ContingencyTable.from_counts(2, {("a", "b"): np.int64(2), ("c", "d"): 1})
        assert table.total == 3 and table.counts == {("a", "b"): 2, ("c", "d"): 1}
        table = ContingencyTable.from_counts(2, {("a", "b"): np.int64(2), ("c", "d"): 2**70})
        assert table.total == 2**70 + 2 and type(table.counts[("a", "b")]) is int

    @pytest.mark.parametrize("arity", [0, -1])
    def test_arity_must_be_positive(self, arity):
        with pytest.raises(ValueError, match=f"^arity must be >= 1, got {arity}$"):
            ContingencyTable.from_counts(arity, {(): 5})

    def test_counts_of_another_table_are_checked(self):
        table = ContingencyTable.from_counts(2, {("a", "b"): 2, ("c", "d"): 1})
        assert ContingencyTable.from_counts(2, table.counts) == table
        with pytest.raises(ValueError, match=r"^tuple \('a', 'b'\) does not have 3 labels$"):
            ContingencyTable.from_counts(3, table.counts)

    def test_first_offending_cell_is_named(self):
        # Zero cells are dropped first: neither the short ('a',) nor 0.0 is checked.
        counts = {("a", "b"): 1, ("a",): 0, ("a", "d"): 0.0, ("c", "d"): -1, ("c",): 1}
        with pytest.raises(ValueError, match=r"^stored count for \('c', 'd'\) must be >= 1"):
            ContingencyTable.from_counts(2, counts)
        counts = {("a", "b"): 1, ("c",): 1, ("a", "d"): -1}
        with pytest.raises(ValueError, match=r"^tuple \('c',\) does not have 2 labels"):
            ContingencyTable.from_counts(2, counts)


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
    table = ContingencyTable.from_counts(arity, dict.fromkeys(tuples, 1))
    assert table.alphabets == alphabets_by_loop(arity, tuples)


# ---- cell codes: from load_table's columns, or coded from a mapping


def decoded_cells(table):
    """The table's cells and counts, read off its code arrays."""
    columns = [map(alphabet.__getitem__, codes.tolist()) for alphabet, codes in zip(table.alphabets, table._codes)]
    return list(zip(zip(*columns), table._cell_counts.tolist()))


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
    assert decoded_cells(seeded) == decoded_cells(lazy)
    before = repr(lazy)
    report, lazy_report = full_report(seeded), full_report(lazy)
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
    # Reading the codes changes neither equality, repr nor hashing.
    assert seeded == lazy
    assert repr(seeded) == repr(lazy) == before
    for table in (seeded, lazy):
        with pytest.raises(TypeError):
            hash(table)


# ---- codes-first operations against the dict-based references in oracles


count_values = st.one_of(st.integers(0, 9), st.integers(2**62, 2**70))


@st.composite
def count_maps(draw, arity=None):
    """(arity, label-tuple -> count): zero counts, empty maps and totals past 2**63 included."""
    arity = arity or draw(st.integers(1, 4))
    label = st.sampled_from(["", "a", "b", "c", "dd"])
    return arity, draw(st.dictionaries(st.tuples(*[label] * arity), count_values, max_size=25))


@st.composite
def tables(draw, arity=None):
    """Tables from codes, whose alphabets may be in any order and hold
    unused labels, or from from_counts, or projected from a wider table."""
    arity, counts = draw(count_maps(arity))
    kind = draw(st.sampled_from(["coded", "from_counts", "projected"]))
    if kind == "projected":
        wide = ContingencyTable.from_counts(arity + 1, {k + ("p",): c for k, c in counts.items()})
        return project(wide, range(arity))
    if kind == "from_counts":
        return ContingencyTable.from_counts(arity, counts)
    kept = {k: c for k, c in counts.items() if c}
    alphabets = tuple(
        tuple(draw(st.permutations(list(alphabet) + draw(st.lists(st.just("zz"), max_size=1)))))
        for alphabet in ContingencyTable.from_counts(arity, kept).alphabets
    )
    return oracles.table_over(alphabets, kept)


@given(count_maps())
def test_from_counts_matches_the_dict_reference(case):
    arity, counts = case
    table = ContingencyTable.from_counts(arity, counts)
    assert oracles.table_parts(table) == oracles.from_counts_reference(arity, counts)


@given(tables(), st.data())
def test_project_and_marginal_match_the_dict_reference(table, data):
    dims = tuple(sorted(data.draw(st.sets(st.integers(0, table.arity - 1), min_size=1))))
    expected = oracles.marginal_reference(table, dims)
    assert oracles.table_parts(project(table, dims)) == expected


@given(st.integers(1, 4).flatmap(lambda arity: st.tuples(tables(arity), tables(arity))))
def test_merge_matches_the_dict_reference(pair):
    a, b = pair
    assert oracles.table_parts(merge(a, b)) == oracles.merge_reference(a, b)


@given(tables(), st.data())
def test_partition_matches_the_dict_reference(table, data):
    group_dim = data.draw(st.integers(0, table.arity - 1))
    parts = oracles.partition(table, group_dim)
    parts = [(label, oracles.table_parts(part)) for label, part in parts]
    assert parts == oracles.partition_reference(table, group_dim)


def test_wide_alphabets_merge_project_and_compare():
    # 65537**4 > 2**62: merge and == re-densify their four-dimension key.
    m = 65537
    counts = {
        (f"w{t}", f"x{3 * t % m}", f"y{(5 * t + b) % m}", f"z{7 * t % m}"): 1 + (t + b) % 3
        for t in range(m)
        for b in (0, 1)
    }
    items = list(counts.items())
    a = ContingencyTable.from_counts(4, counts)
    assert [len(alphabet) for alphabet in a.alphabets] == [m] * 4
    b = ContingencyTable.from_counts(4, dict(items[-100:] + [(("w0", "x0", "new", "z0"), 5)]))
    merged = merge(a, b)
    assert oracles.table_parts(merged) == oracles.merge_reference(a, b)
    for dims in ((0, 1, 2), (1, 3)):
        assert oracles.table_parts(project(merged, dims)) == oracles.marginal_reference(merged, dims)
    twin = ContingencyTable.from_counts(4, dict(reversed(list(merged.counts.items()))))
    assert merged.counts == twin.counts
    changed = dict(twin.counts)
    changed[items[5][0]] += 1
    assert merged.counts != ContingencyTable.from_counts(4, changed).counts


# ---- the packed sort, and the stable argsort where the packed value cannot fit


# Alphabet sizes of code columns: two of 2**31 make a radix of 2**62, which
# leaves no room for a payload, and three pass it, so the key is re-densified.
key_sizes = st.sampled_from([1, 3, 2**20, 2**31])


@st.composite
def code_columns(draw, min_rows=0):
    """(sizes, code columns, counts or None); counts are int64, or Python ints
    past int64 in an object array."""
    sizes = draw(st.lists(key_sizes, min_size=1, max_size=4))
    n = draw(st.integers(min_rows, 40))
    columns = []
    for size in sizes:
        codes = st.sampled_from(sorted({0, min(1, size - 1), size - 1}))
        columns.append(np.array(draw(st.lists(codes, min_size=n, max_size=n)), dtype=np.int64))
    kind = draw(st.sampled_from([None, np.int64, object]))
    if kind is None:
        return sizes, columns, None
    values = st.integers(1, 9) if kind is np.int64 else count_values
    return sizes, columns, np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=kind)


def rows(*columns):
    return [np.array(column, dtype=np.int64) for column in columns]


def as_tuples(columns):
    return list(zip(*(column.tolist() for column in columns)))


def grouped_reference(columns, counts):
    """Rows with equal codes summed, cells in first-appearance order."""
    weights = [1] * len(columns[0]) if counts is None else counts.tolist()
    cells = {}
    for codes, weight in zip(as_tuples(columns), weights):
        cells[codes] = cells.get(codes, 0) + weight
    return list(cells.items())


@given(code_columns())
# A radix of 2**62 leaves 1 bit for the row index of 9 rows: the argsort path.
@example(([2**31, 2**31], rows([0, 5, 0, 2**31 - 1, 5, 0, 1, 1, 0], [7, 0, 7, 1, 0, 7, 2, 2, 3]), None))
@example(([3, 2**31], rows([2, 0, 2], [2**31 - 1, 0, 2**31 - 1]), np.array([2**70, 1, 5], dtype=object)))
def test_group_matches_the_dict_reference(case):
    sizes, columns, counts = case
    codes, sums = _group(tuple(map(range, sizes)), columns, counts)
    assert list(zip(as_tuples(codes), sums.tolist())) == grouped_reference(columns, counts)


def test_project_past_the_packed_key_matches_the_dict_reference():
    table = oracles.range_table(random.Random(7), (2**31, 3, 2**31), 30)
    # The same cells with counts past int64, kept in an object array.
    huge = ContingencyTable._from_codes(
        table.alphabets, table._codes, table._cell_counts.astype(object) * 2**62
    )
    assert huge._cell_counts.dtype == object
    for t in (table, huge):
        for dims in ((0, 2), (0, 1), (1,)):
            assert oracles.table_parts(project(t, dims)) == oracles.marginal_reference(t, dims)


def nested_reference(columns, counts, length):
    """Rows grouped by their first `length` codes, groups ascending: the row
    position each group starts at in that order, and its summed counts."""
    sums, rows_in = Counter(), Counter()
    for codes, count in zip(as_tuples(columns[:length]), counts.tolist()):
        sums[codes] += count
        rows_in[codes] += 1
    keys = sorted(sums)
    return list(accumulate((rows_in[k] for k in keys[:-1]), initial=0)), [sums[k] for k in keys]


@given(
    code_columns(min_rows=1).filter(lambda case: case[2] is not None),
    st.lists(st.integers(1, 4), min_size=1),
)
# A radix past 2**62: the key is re-densified, so each length is sorted on its own.
@example(
    ([2**31, 2**31, 3], rows([1, 0, 1, 1], [2**31 - 1, 0, 0, 2**31 - 1], [2, 1, 0, 2]), rows([1, 2, 3, 4])[0]),
    [1, 3, 2],
)
# A radix of 2**62 leaves room for no count above 1: the argsort path.
@example(([2**31, 2**31], rows([2**31 - 1, 0, 2**31 - 1], [1, 0, 1]), rows([3, 1, 2])[0]), [1, 2])
def test_nested_sums_match_the_dict_reference(case, lengths):
    sizes, columns, counts = case
    lengths = [min(length, len(sizes)) for length in lengths]
    for length, (starts, sums) in zip(lengths, _nested_sums(columns, sizes, counts, lengths)):
        assert (starts.tolist(), sums.tolist()) == nested_reference(columns, counts, length)


# ---- the read-only counts view


COUNTS = {("a", "p", "u"): 3, ("b", "p", "v"): 1, ("a", "q", "v"): 2**70}


def dict_era_repr(arity, counts, alphabets):
    return (
        f"ContingencyTable(arity={arity!r}, counts={counts!r}, "
        f"total={sum(counts.values())!r}, alphabets={alphabets!r})"
    )


@pytest.mark.parametrize("projected", [False, True])
def test_counts_view_contract(projected):
    table = ContingencyTable.from_counts(3, COUNTS)
    if projected:
        wide = ContingencyTable.from_counts(4, {k + ("z",): c for k, c in COUNTS.items()})
        table = project(wide, (0, 1, 2))
    counts = table.counts
    assert counts == COUNTS and COUNTS == counts
    assert list(counts) == list(COUNTS) and list(counts.items()) == list(COUNTS.items())
    assert len(counts) == 3
    assert counts[("a", "q", "v")] == 2**70 and type(counts[("b", "p", "v")]) is int
    for bad in [("a", "p", "v"), ("a", "p"), ("a", "p", "u", "x"), ("x", "p", "u")]:
        with pytest.raises(KeyError):
            counts[bad]
        assert bad not in counts and counts.get(bad) is None
    with pytest.raises(TypeError):
        counts[("a", "p", "u")] = 4
    assert repr(table) == dict_era_repr(3, COUNTS, table.alphabets)
    with pytest.raises(TypeError):
        hash(table)
    reordered = dict(reversed(COUNTS.items()))
    twin = ContingencyTable.from_counts(3, reordered)
    assert twin.alphabets != table.alphabets
    assert twin.counts == counts and counts == reordered
    assert twin != table  # tables also compare their alphabets
    assert list(twin.counts) == list(reordered)
    for other in [
        {**COUNTS, ("b", "p", "v"): 2},
        {**COUNTS, ("c", "p", "v"): 1},
        {k: c for k, c in COUNTS.items() if c != 1},
    ]:
        assert counts != other
        assert counts != ContingencyTable.from_counts(3, other).counts
    assert counts != ContingencyTable.from_counts(4, {k + ("z",): c for k, c in COUNTS.items()}).counts


def test_loaded_counts_view(tmp_path):
    path = tmp_path / "cases.txt"
    path.write_text("".join(f"{i},{','.join(k)}\n" for i, k in enumerate([*COUNTS, *COUNTS])))
    table = load_table(path)
    assert table.counts == {k: 2 for k in COUNTS} and list(table.counts) == list(COUNTS)
    assert repr(table) == dict_era_repr(3, {k: 2 for k in COUNTS}, table.alphabets)


@pytest.mark.parametrize("counts", [COUNTS, {k: 1 for k in COUNTS}, {}])
def test_pickled_tables_stay_read_only(counts):
    table = ContingencyTable.from_counts(3, counts)
    copy = pickle.loads(pickle.dumps(table))
    assert copy == table and repr(copy) == repr(table)
    assert oracles.table_parts(copy) == oracles.table_parts(table)
    assert copy._cell_counts.dtype == table._cell_counts.dtype
    for array in (*copy._codes, copy._cell_counts):
        with pytest.raises(ValueError, match="read-only"):
            array[:1] = 0


def test_empty_tables():
    empty = ContingencyTable.from_counts(3, {})
    assert empty.counts == {} and len(empty.counts) == 0 and empty.total == 0
    assert repr(empty) == dict_era_repr(3, {}, ((), (), ()))
    assert oracles.table_parts(project(empty, (0, 2))) == ([], ((), ()), 0)
    full = ContingencyTable.from_counts(3, COUNTS)
    assert oracles.table_parts(merge(empty, full)) == oracles.table_parts(full)
    assert oracles.table_parts(merge(full, empty)) == oracles.table_parts(full)
    assert oracles.partition(empty, 1) == []
