from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from th4 import ingest
from th4.errors import EmptyDatasetError, FormatError
from th4.ingest import (
    CaseRecord,
    drop_empty_labels,
    load_dataset,
    load_table,
    parse_dataset,
    parse_line,
    render_line,
)
from th4.tables import build_table


class TestParseLine:
    def test_quoted_line(self):
        record = parse_line('"id1", "1", "b", "region1", "2"', 1)
        assert record == CaseRecord(id="id1", labels=("1", "b", "region1", "2"), line_number=1)

    def test_unquoted_line(self):
        record = parse_line("459695,1901,5,3", 7)
        assert record.id == "459695"
        assert record.labels == ("1901", "5", "3")
        assert record.line_number == 7

    def test_whitespace_only_line_is_skipped(self):
        assert parse_line("   ", 3) is None
        assert parse_line("\t\n", 4) is None
        assert parse_line("", 5) is None

    def test_too_few_fields(self):
        with pytest.raises(FormatError) as exc:
            parse_line("a,b,c", 12)
        assert exc.value.line_number == 12
        assert "3" in str(exc.value)

    def test_too_many_fields(self):
        with pytest.raises(FormatError):
            parse_line("a,b,c,d,e,f", 1)

    def test_unmatched_opening_quote(self):
        with pytest.raises(FormatError) as exc:
            parse_line('id,"broken,b,c,d', 2)
        assert exc.value.line_number == 2

    def test_quote_followed_by_junk(self):
        with pytest.raises(FormatError):
            parse_line('id,"a"junk,b,c,d', 1)

    def test_lone_quote_field(self):
        with pytest.raises(FormatError):
            parse_line('id,",b,c,d', 1)

    def test_empty_labels_are_legal(self):
        record = parse_line(",,,", 1)
        assert record.id == ""
        assert record.labels == ("", "", "")

    def test_interior_quote_is_just_a_character(self):
        record = parse_line('id,a"b,c,d', 1)
        assert record.labels[0] == 'a"b'

    def test_mixed_quoting_on_one_line(self):
        record = parse_line('id, "a" ,b, "c"', 9)
        assert record.labels == ("a", "b", "c")


class TestParseDataset:
    def test_four_dimension_file(self, golden4):
        assert golden4.arity == 4
        assert len(golden4.records) == 4

    def test_three_dimension_file(self, golden3):
        assert golden3.arity == 3
        assert len(golden3.records) == 6
        assert [r.id for r in golden3.records] == [
            "459695", "459696", "459697", "459698", "459699", "459700",
        ]

    def test_mixed_arity_names_both_lines(self):
        with pytest.raises(FormatError) as exc:
            parse_dataset(["a,1,2,3", "b,1,2,3,4"], "mixed")
        message = str(exc.value)
        assert "line 2" in message and "line 1" in message

    def test_blank_lines_do_not_shift_line_numbers(self):
        dataset = parse_dataset(["", "a,1,2,3", "   ", "b,4,5,6"], "gappy")
        assert [r.line_number for r in dataset.records] == [2, 4]

    def test_empty_input(self):
        with pytest.raises(EmptyDatasetError):
            parse_dataset(["", "   "], "blank")

    def test_order_preserved(self):
        dataset = parse_dataset(["a,1,2,3", "b,4,5,6", "c,7,8,9"], "ordered")
        assert [r.id for r in dataset.records] == ["a", "b", "c"]

    def test_duplicate_ids_are_fine(self):
        dataset = parse_dataset(["a,1,2,3", "a,1,2,3"], "dups")
        assert len(dataset.records) == 2


class TestLoadDataset:
    def test_default_label_is_file_name(self, golden4_path):
        assert load_dataset(golden4_path).source_label == "golden4.txt"

    def test_explicit_label(self, golden4_path):
        assert load_dataset(golden4_path, label="run-1").source_label == "run-1"

    def test_invalid_utf8_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"a,1,2,3\nb,\xff\xfe,2,3\n")
        with pytest.raises(FormatError) as exc:
            load_dataset(path)
        assert exc.value.line_number == 2

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"a,1,2,3\r\nb,4,5,6\r\n")
        dataset = load_dataset(path)
        assert dataset.records[1].labels == ("4", "5", "6")


label_text = st.text(
    alphabet=st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)),
    max_size=12,
)


@given(st.lists(label_text, min_size=4, max_size=5))
def test_roundtrip_through_render(fields):
    original = CaseRecord(id=fields[0], labels=tuple(fields[1:]), line_number=1)
    assert parse_line(render_line(original), 1) == original


@given(st.lists(label_text.map(str.strip), min_size=4, max_size=5))
def test_quoting_is_transparent(fields):
    bare = ",".join(fields)
    quoted = ",".join(f'"{f}"' for f in fields)
    assert parse_line(bare, 1) == parse_line(quoted, 1)


def test_drop_empty_labels():
    dataset = parse_dataset(["a,1,2,3", "b,,2,3", "c,4,5,6"], "holes")
    kept = drop_empty_labels(dataset)
    assert [r.id for r in kept.records] == ["a", "c"]
    assert kept.arity == 3


def test_drop_empty_labels_exhausting_dataset():
    dataset = parse_dataset(["a,,2,3"], "holes")
    with pytest.raises(EmptyDatasetError):
        drop_empty_labels(dataset)


# ---- load_table against the record-level path it replaces


def reference_table(path, label=None, drop_empty=False):
    dataset = load_dataset(path, label)
    return build_table(drop_empty_labels(dataset) if drop_empty else dataset)


def outcome(load, *args):
    """A table as every property the two paths must share, or an error as type, line and text."""
    try:
        table = load(*args)
    except (FormatError, EmptyDatasetError) as exc:
        return type(exc), getattr(exc, "line_number", None), str(exc)
    return table.counts, list(table.counts), table.total, table.arity, table.alphabets


def assert_same_outcome(path, label=None, drop_empty=False):
    """load_table's outcome is the record path's, and a file the record
    path accepts never falls back to it."""
    expected = outcome(reference_table, path, label, drop_empty)
    with mock.patch.object(ingest, "_record_table", wraps=ingest._record_table) as fallback:
        assert outcome(load_table, path, label, drop_empty) == expected
    if isinstance(expected[0], dict):
        assert not fallback.called


LABELS = ("a", "b", "", "c d", "é")


@st.composite
def field_text(draw, label):
    """One field as it may be spelled: bare or quoted, padded or not."""
    if draw(st.booleans()):
        return f'"{label}"'
    return draw(st.sampled_from(("", " "))) + label + draw(st.sampled_from(("", " ")))


@st.composite
def record_tail(draw, width):
    """The text after the id of a line with `width` label fields."""
    separator = draw(st.sampled_from((",", ", ")))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=width, max_size=width))
    return "".join(separator + draw(field_text(label)) for label in labels)


@st.composite
def case_file(draw):
    """Bytes of a case-record file whose cells repeat under several
    spellings; about half the files carry one bad line."""
    arity = draw(st.sampled_from((3, 4)))
    lines: list[str] = []
    tails: list[tuple[int, str]] = []  # (index in lines, tail)
    for number in range(draw(st.integers(1, 20))):
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(("", "  ", "\t", " \t "))))
            continue
        tail = draw(record_tail(arity))
        record_id = draw(st.sampled_from((f"r{number}", f'"r{number}"', f' "r{number}" ')))
        tails.append((len(lines), tail))
        lines.append(record_id + tail)
    encoded = [line.encode() for line in lines]
    bad = draw(st.sampled_from((None,) * 5 + ("fields", "arity", "quote", "utf8", "id")))
    position = draw(st.integers(0, len(lines)))
    if bad == "id" and tails:
        # A bad id on a line whose tail has already appeared.
        index, tail = draw(st.sampled_from(tails))
        position = draw(st.integers(index + 1, len(lines)))
        encoded.insert(position, (draw(st.sampled_from(('"r', ' "r"x', '"'))) + tail).encode())
    elif bad == "utf8":
        encoded.insert(position, b"u,a,\xff,b,c")
    elif bad in ("fields", "arity", "quote"):
        width = draw(st.sampled_from((0, 1, 5, 6))) if bad == "fields" else 7 - arity
        tail = draw(record_tail(width if bad != "quote" else arity))
        if bad == "quote":
            tail = tail.rsplit(",", 1)[0] + ', "' + draw(st.sampled_from(LABELS))
        encoded.insert(position, ("q" + tail).encode())
    ending = draw(st.sampled_from((b"\n", b"\r\n")))
    text = ending.join(encoded)
    return text + ending if draw(st.booleans()) else text


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case_file(), st.sampled_from((None, "run-1")), st.booleans())
def test_load_table_matches_record_path(tmp_path, content, label, drop_empty):
    path = tmp_path / "cases.txt"
    path.write_bytes(content)
    assert_same_outcome(path, label, drop_empty)


@pytest.fixture(params=[1, 16])
def tiny_blocks(request, monkeypatch):
    """load_table reads a few bytes, then on to the next newline, per block."""
    monkeypatch.setattr(ingest, "_BLOCK", request.param)


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case_file(), st.sampled_from((None, "run-1")), st.booleans())
def test_load_table_matches_record_path_in_tiny_blocks(
    tmp_path, tiny_blocks, content, label, drop_empty
):
    path = tmp_path / "cases.txt"
    path.write_bytes(content)
    assert_same_outcome(path, label, drop_empty)


EXAMPLES = pytest.mark.parametrize(
    "content",
    [
        pytest.param(b'a,1,2,3\n"b,1,2,3\n', id="bad-id-on-a-repeated-tail"),
        pytest.param(b'a,"1", 2,3\r\nb,1,2,"3"\nc, 1 ,2,3', id="one-cell-three-spellings"),
        pytest.param(b"a,1,2,3\n  \nb,1,2,3,4\n", id="arity-switch-names-both-lines"),
        pytest.param(b"a,1,2,3\nlonely\n", id="one-field"),
        pytest.param(b"\n \t\n", id="blank-file"),
        pytest.param(b"a,,2,3\nb,1,,3\n", id="only-empty-labels"),
    ],
)


@EXAMPLES
@pytest.mark.parametrize("drop_empty", [False, True])
def test_load_table_matches_record_path_on_examples(tmp_path, content, drop_empty):
    path = tmp_path / "cases.txt"
    path.write_bytes(content)
    assert_same_outcome(path, None, drop_empty)


@EXAMPLES
@pytest.mark.parametrize("drop_empty", [False, True])
def test_load_table_matches_record_path_on_examples_in_tiny_blocks(
    tmp_path, tiny_blocks, content, drop_empty
):
    path = tmp_path / "cases.txt"
    path.write_bytes(content)
    assert_same_outcome(path, None, drop_empty)


def test_load_table_checks_the_id_of_a_repeated_tail(tmp_path):
    path = tmp_path / "cases.txt"
    path.write_bytes(b'a,1,2,3\n"b,1,2,3\n')
    with pytest.raises(FormatError) as exc:
        load_table(path)
    assert exc.value.line_number == 2


def test_load_table_on_alphabets_beyond_the_key_limit(tmp_path):
    # 65537**4 > 2**62, so the cell key is re-densified before its last
    # digit. Each label appears in two cells, and the two cells sharing a
    # z label differ only by one step in y; the second one is counted twice.
    m = 65537
    lines = [
        f"{t},w{t},x{3 * t % m},y{(5 * t + b) % m},z{7 * t % m}\n"
        for t in range(m)
        for b in (0, 1, 1)
    ]
    path = tmp_path / "wide.txt"
    path.write_text("".join(lines), encoding="utf-8")
    got = outcome(load_table, path)
    assert [len(alphabet) for alphabet in got[-1]] == [m] * 4
    assert got == outcome(reference_table, path)
