from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from th4 import ingest
from th4.errors import EmptyDatasetError, FormatError
from th4.ingest import load_table


@pytest.fixture()
def load_lines(tmp_path):
    """load_table on a file of these lines, each ended by a newline."""

    def load(*lines, **kwargs):
        path = tmp_path / "cases.txt"
        path.write_bytes(b"".join(line.encode() + b"\n" for line in lines))
        return load_table(path, **kwargs)

    return load


class TestParseLine:
    def test_quoted_line(self, load_lines):
        table = load_lines('"id1", "1", "b", "region1", "2"')
        assert table.counts == {("1", "b", "region1", "2"): 1}

    def test_unquoted_line(self, load_lines):
        table = load_lines("459695,1901,5,3")
        assert table.arity == 3
        assert table.counts == {("1901", "5", "3"): 1}

    def test_whitespace_only_line_is_skipped(self, load_lines):
        assert load_lines("   ", "\t", "", "a,1,2,3").counts == {("1", "2", "3"): 1}

    def test_too_few_fields(self, load_lines):
        with pytest.raises(FormatError) as exc:
            load_lines(*["a,1,2,3"] * 11, "a,b,c")
        assert exc.value.line_number == 12
        assert "3" in str(exc.value)

    def test_too_many_fields(self, load_lines):
        with pytest.raises(FormatError):
            load_lines("a,b,c,d,e,f")

    def test_unmatched_opening_quote(self, load_lines):
        with pytest.raises(FormatError) as exc:
            load_lines("a,1,2,3", 'id,"broken,b,c,d')
        assert exc.value.line_number == 2

    def test_quote_followed_by_junk(self, load_lines):
        with pytest.raises(FormatError):
            load_lines('id,"a"junk,b,c,d')

    def test_lone_quote_field(self, load_lines):
        with pytest.raises(FormatError):
            load_lines('id,",b,c,d')

    def test_empty_labels_are_legal(self, load_lines):
        assert load_lines(",,,").counts == {("", "", ""): 1}

    def test_interior_quote_is_just_a_character(self, load_lines):
        assert load_lines('id,a"b,c,d').alphabets[0] == ('a"b',)

    def test_mixed_quoting_on_one_line(self, load_lines):
        assert load_lines('id, "a" ,b, "c"').counts == {("a", "b", "c"): 1}


class TestParseDataset:
    def test_four_dimension_file(self, golden4_table):
        assert golden4_table.arity == 4
        assert golden4_table.total == 4

    def test_three_dimension_file(self, golden3_table):
        assert golden3_table.arity == 3
        assert golden3_table.total == 6
        assert list(golden3_table.counts.items()) == [
            (("1901", "5", "3"), 1), (("1901", "5", "5"), 1),
            (("1901", "11", "1"), 1), (("1901", "11", "2"), 3),
        ]

    def test_mixed_arity_names_both_lines(self, load_lines):
        with pytest.raises(FormatError) as exc:
            load_lines("a,1,2,3", "b,1,2,3,4")
        message = str(exc.value)
        assert "line 2" in message and "line 1" in message

    def test_blank_lines_do_not_shift_line_numbers(self, load_lines):
        with pytest.raises(FormatError, match="^line 4: .* but line 2 has 3$"):
            load_lines("", "a,1,2,3", "   ", "b,4,5,6,7")

    def test_empty_input(self, load_lines):
        with pytest.raises(EmptyDatasetError):
            load_lines("", "   ")

    def test_order_preserved(self, load_lines):
        table = load_lines("a,1,2,3", "b,4,5,6", "c,7,8,9")
        assert list(table.counts) == [("1", "2", "3"), ("4", "5", "6"), ("7", "8", "9")]

    def test_duplicate_ids_are_fine(self, load_lines):
        assert load_lines("a,1,2,3", "a,1,2,3").counts == {("1", "2", "3"): 2}


class TestLoadDataset:
    def test_empty_file_message_names_no_file(self, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_bytes(b"\n")
        with pytest.raises(EmptyDatasetError, match="^no case records$"):
            load_table(path)

    def test_drop_empty_is_keyword_only(self, tmp_path):
        path = tmp_path / "holes.txt"
        path.write_bytes(b"a,,2,3\n")
        with pytest.raises(TypeError):
            load_table(path, None, True)
        with pytest.raises(EmptyDatasetError, match="^all records carry empty labels$"):
            load_table(path, drop_empty=True)

    def test_invalid_utf8_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"a,1,2,3\nb,\xff\xfe,2,3\n")
        with pytest.raises(FormatError) as exc:
            load_table(path)
        assert exc.value.line_number == 2

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"a,1,2,3\r\nb,4,5,6\r\n")
        assert list(load_table(path).counts) == [("1", "2", "3"), ("4", "5", "6")]


label_text = st.text(
    alphabet=st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)),
    max_size=12,
)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(label_text, min_size=4, max_size=5))
def test_roundtrip_through_render(load_lines, fields):
    # Every field quoted: each label reads back exactly as written.
    table = load_lines(",".join(f'"{field}"' for field in fields))
    assert table.counts == {tuple(fields[1:]): 1}


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(label_text.map(str.strip), min_size=4, max_size=5))
def test_quoting_is_transparent(load_lines, fields):
    bare = load_lines(",".join(fields))
    quoted = load_lines(",".join(f'"{f}"' for f in fields))
    assert (bare.counts, bare.alphabets) == (quoted.counts, quoted.alphabets)


def test_drop_empty_labels(load_lines):
    table = load_lines("a,1,2,3", "b,,2,3", "c,4,5,6", drop_empty=True)
    assert table.counts == {("1", "2", "3"): 1, ("4", "5", "6"): 1}
    assert table.arity == 3
    assert table.alphabets == (("1", "4"), ("2", "5"), ("3", "6"))


def test_drop_empty_labels_exhausting_dataset(load_lines):
    with pytest.raises(EmptyDatasetError, match="carry empty labels"):
        load_lines("a,,2,3", drop_empty=True)


# ---- load_table against the record-level reference reader in oracles


def outcome(load, path, **kwargs):
    """A table as every property the two paths must share, or an error as type, line and text."""
    try:
        table = load(path, **kwargs)
    except (FormatError, EmptyDatasetError) as exc:
        return type(exc), getattr(exc, "line_number", None), str(exc)
    return dict(table.counts), list(table.counts), table.total, table.arity, table.alphabets


def assert_same_outcome(path, drop_empty=False):
    """load_table's outcome is the reference reader's, and a file the
    reference accepts never reaches the error locator."""
    expected = outcome(oracles.reference_table, path, drop_empty=drop_empty)
    with mock.patch.object(
        ingest, "_raise_first_error", wraps=ingest._raise_first_error
    ) as locate:
        assert outcome(load_table, path, drop_empty=drop_empty) == expected
    if isinstance(expected[0], dict):
        assert not locate.called


# Fields of at most 8 bytes are coded by their bytes, wider ones as text:
# "abcdef" spells 8 bytes quoted or padded on both sides, "abcdefgh" 8
# bare and 10 quoted; "abcde€" is 8 bytes and "abcdef€" 9, the € across
# the edge. A NUL is a byte like any other: "abcdefg\0" and "\0" * 8 are
# 8 bytes bare, and differ from "abcdefg", "\0" and "" only by NULs.
LABELS = (
    "a", "b", "", "c d", "é", "abcdef", "abcdefgh", "abcde€", "abcdef€",
    "a\x00", "abcdefg", "abcdefg\x00", "\x00" * 8, "\x00",
)


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


# Good ids led by a bare byte, a quote, whitespace or a non-ASCII byte.
ID_FORMS = ("r{}", 'r"{}', '"r{}"', '"r{}" ', ' "r{}" ', " r{}", "\tr{}", "é{}")


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
        record_id = draw(st.sampled_from(ID_FORMS)).format(number)
        tails.append((len(lines), tail))
        lines.append(record_id + tail)
    encoded = [line.encode() for line in lines]
    bad = draw(st.sampled_from((None,) * 5 + ("fields", "arity", "quote", "utf8", "id")))
    position = draw(st.integers(0, len(lines)))
    if bad == "id" and tails:
        # A bad id on a line whose tail has already appeared.
        index, tail = draw(st.sampled_from(tails))
        position = draw(st.integers(index + 1, len(lines)))
        # \xa0 is a space to str.strip(), so the last id is led by an open quote.
        bad_id = draw(st.sampled_from(('"r', ' "r"x', '"r"x', '"', f'"r"{position}"', '\xa0"r')))
        encoded.insert(position, (bad_id + tail).encode())
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


# An empty last label at the end of a file with no newline: a field that
# starts at the block's end.
EMPTY_LAST_LABEL = example(content=b"a,1,2,3\nb,1,2,", drop_empty=False)
# An id of one quote, the block's last quote: the quote that would close
# it is the one that opens it.
LONE_QUOTE_ID = example(content=b'a,1,2,3\n",1,2,3\n', drop_empty=False)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case_file(), st.booleans())
@EMPTY_LAST_LABEL
@LONE_QUOTE_ID
def test_load_table_matches_record_path(tmp_path, content, drop_empty):
    path = tmp_path / "cases.txt"
    path.write_bytes(content)
    assert_same_outcome(path, drop_empty)


@pytest.fixture(params=[1, 16])
def tiny_blocks(request, monkeypatch):
    """load_table reads a few bytes, then on to the next newline, per block."""
    monkeypatch.setattr(ingest, "_BLOCK", request.param)


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case_file(), st.booleans())
@EMPTY_LAST_LABEL
@LONE_QUOTE_ID
def test_load_table_matches_record_path_in_tiny_blocks(tmp_path, tiny_blocks, content, drop_empty):
    path = tmp_path / "cases.txt"
    path.write_bytes(content)
    assert_same_outcome(path, drop_empty)


EXAMPLES = pytest.mark.parametrize(
    "content",
    [
        pytest.param(b'a,1,2,3\n"b,1,2,3\n', id="bad-id-on-a-repeated-tail"),
        pytest.param(b'a,"1", 2,3\r\nb,1,2,"3"\nc, 1 ,2,3', id="one-cell-three-spellings"),
        pytest.param(b"a,1,2,3\n  \nb,1,2,3,4\n", id="arity-switch-names-both-lines"),
        pytest.param(b"a,1,2,3\nlonely\n", id="one-field"),
        pytest.param(b"\n \t\n", id="blank-file"),
        pytest.param(b"a,,2,3\nb,1,,3\n", id="only-empty-labels"),
        pytest.param(b"\n \n\na,1,2,3\nb,1,2\n", id="blank-lines-then-too-few-fields"),
        pytest.param(b"\n\na,1,2,3\n\nb,1,2,3,4\n", id="blank-lines-then-an-arity-switch"),
        pytest.param(b"\n \n\na,1,2,3\nb,1,2,3,4\n", id="a-blank-line-in-the-first-record-block"),
    ],
)


@EXAMPLES
@pytest.mark.parametrize("drop_empty", [False, True])
def test_load_table_matches_record_path_on_examples(tmp_path, content, drop_empty):
    path = tmp_path / "cases.txt"
    path.write_bytes(content)
    assert_same_outcome(path, drop_empty)


@EXAMPLES
@pytest.mark.parametrize("drop_empty", [False, True])
def test_load_table_matches_record_path_on_examples_in_tiny_blocks(
    tmp_path, tiny_blocks, content, drop_empty
):
    path = tmp_path / "cases.txt"
    path.write_bytes(content)
    assert_same_outcome(path, drop_empty)


@pytest.mark.parametrize(
    "content,drop_empty",
    [
        pytest.param(b"a,1,2,3\n" * 8 + b"b,1,2\n", False, id="bad-last-line"),
        pytest.param(b"", False, id="empty-file"),
        pytest.param(b"\n \t\n", False, id="blank-file"),
        pytest.param(b"a,,2,3\nb,1,,3\n", True, id="only-empty-labels"),
        pytest.param(b"a,1,2,3\nb,4,5,6\n", False, id="good-file"),
    ],
)
def test_load_table_opens_the_file_once(tmp_path, monkeypatch, content, drop_empty):
    monkeypatch.setattr(ingest, "_BLOCK", 16)
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(ingest, "open", counting_open, raising=False)
    path = tmp_path / "cases.txt"
    path.write_bytes(content)
    assert_same_outcome(path, drop_empty)
    assert opened == [path]


def test_load_table_checks_the_id_of_a_repeated_tail(tmp_path):
    path = tmp_path / "cases.txt"
    path.write_bytes(b'a,1,2,3\n"b,1,2,3\n')
    with pytest.raises(FormatError) as exc:
        load_table(path)
    assert exc.value.line_number == 2


def test_one_dimension_coded_by_bytes_and_by_text(tmp_path, monkeypatch):
    # 16 bytes, then on to the next newline: blocks of lines 1-3, 4-5 and
    # 6-7. The first block's narrow fields are all coded by their bytes.
    # In the second, w's wide new label sends that column to the text
    # path, where a quoted "x" meets the label its bare spelling coded.
    # The third codes w by its bytes again, from a spelling new to them.
    monkeypatch.setattr(ingest, "_BLOCK", 16)
    path = tmp_path / "cases.txt"
    path.write_bytes(
        b"a,x,p,q\nb,y,p,q\nc,x,p,r\n"
        b'd,"x",p,q\ne,a label wider than 8,p,q\n'
        b'f, "x" ,p,q\ng,y,p,q\n'
    )
    keyed = []  # the size of each column coded by its bytes
    coded = ingest._Codes.coded
    monkeypatch.setattr(
        ingest._Codes, "coded", lambda self, keys: keyed.append(keys.size) or coded(self, keys)
    )
    assert_same_outcome(path)
    assert keyed == [3, 3, 3, 2, 2, 2, 2, 2]
    assert load_table(path).alphabets[0] == ("x", "y", "a label wider than 8")


def test_labels_that_differ_by_nul_bytes_are_coded_by_their_bytes(tmp_path, monkeypatch):
    # One block of narrow labels, some of them NUL bytes only: every
    # column is coded by its keys, and no field is split as text.
    path = tmp_path / "cases.txt"
    path.write_bytes(
        b"a,abcdefg\0,\0,p\nb,abcdefg,\0\0,p\nc,\0\0\0\0\0\0\0\0,,p\nd,abcdefg,\0,p\n"
    )
    keyed = []  # the size of each column coded by its bytes
    coded = ingest._Codes.coded
    monkeypatch.setattr(
        ingest._Codes, "coded", lambda self, keys: keyed.append(keys.size) or coded(self, keys)
    )
    monkeypatch.setattr(
        ingest._Codes, "__missing__", lambda self, raw: pytest.fail(f"{raw!r} split as text")
    )
    assert_same_outcome(path)
    assert keyed == [4, 4, 4]
    assert load_table(path).alphabets == (
        ("abcdefg\0", "abcdefg", "\0" * 8),
        ("\0", "\0\0", ""),
        ("p",),
    )


@pytest.mark.parametrize("block", [ingest._BLOCK, 16])
def test_a_bad_label_quote_coded_by_its_bytes_names_its_line(tmp_path, monkeypatch, block):
    # At 16 bytes a block, line 4 opens the second block, whose keys
    # meet those the first one stored.
    monkeypatch.setattr(ingest, "_BLOCK", block)
    path = tmp_path / "cases.txt"
    path.write_bytes(b'a,x,p,q\nb,y,p,q\nc,x,p,q\nd,"x,p,q\ne,x,p,q\n')
    with pytest.raises(FormatError, match="""^line 4: unbalanced quote in field '"x'$""") as exc:
        load_table(path)
    assert exc.value.line_number == 4


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
    assert got == outcome(oracles.reference_table, path)


def test_only_the_refused_block_is_checked_again(tmp_path, monkeypatch):
    # 16 bytes, then on to the next newline: lines 1-4 (two blank), 5-7,
    # 8-10 and 11-13, whose line 12 has too few fields.
    monkeypatch.setattr(ingest, "_BLOCK", 16)
    path = tmp_path / "cases.txt"
    path.write_bytes(b"\n \n" + b"a,1,2,3\n" * 9 + b"b,1,2\n" + b"a,1,2,3\n" * 3)
    with mock.patch.object(
        ingest, "_raise_first_error", wraps=ingest._raise_first_error
    ) as locate, pytest.raises(FormatError) as exc:
        load_table(path)
    assert exc.value.line_number == 12
    # That block, the 10 lines before it, and the first record's line and arity.
    locate.assert_called_once_with(b"a,1,2,3\nb,1,2\na,1,2,3\n", 10, (3, 3))


def test_a_refused_block_without_an_error_is_a_fault():
    # load_table refuses no clean block; were it to, the check says so.
    with pytest.raises(AssertionError, match="^lines 1-1 were refused but hold no error$"):
        ingest._raise_first_error(b"a,1,2,3\n", 0, None)


@pytest.mark.parametrize("block", [ingest._BLOCK, 1, 16])
def test_a_decode_error_wins_over_a_later_error(tmp_path, monkeypatch, block):
    monkeypatch.setattr(ingest, "_BLOCK", block)
    path = tmp_path / "cases.txt"
    path.write_bytes(b"a,1,2,3\nb,\xff,2,3\nc,1,2,3,4\n")
    with pytest.raises(FormatError, match="^line 2: invalid UTF-8") as exc:
        load_table(path)
    assert exc.value.line_number == 2


def test_the_error_path_streams(tmp_path):
    # A bad last line is named without holding the file's records.
    path = tmp_path / "cases.txt"
    lines = [f"r{i},w{i % 7},x{i % 11},y{i % 13},z{i % 17}\n" for i in range(10**5)]
    path.write_text("".join(lines) + "r,1,2\n")
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as exc:
            load_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.line_number == 100001
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---- the hash probe of spelling keys

SENTINEL = 2**64 - 1


@given(
    st.lists(st.integers(0, SENTINEL - 1), unique=True, max_size=40),
    # (inside, value): keys[value % len(keys)] if inside, else value itself.
    st.lists(st.tuples(st.booleans(), st.integers(0, SENTINEL)), max_size=60),
    st.integers(1, 12),
)
@example(keys=[], needles=[], bits=1)
@example(keys=[0, 1, 2, 3, 4, 5, 6, 7], needles=[(True, i) for i in range(9)], bits=1)
def test_probe_is_searchsorted(keys, needles, bits):
    # At 1-3 bits most keys share a slot with another.
    keys = np.array(sorted(keys) + [SENTINEL], np.uint64)
    needles = np.array(
        [keys[value % keys.size] if inside else value for inside, value in needles], np.uint64
    )
    at, missed = ingest._probe(keys, ingest._hash_slots(keys, bits), needles)
    expected = np.searchsorted(keys, needles)
    assert at.dtype == expected.dtype
    assert np.array_equal(at, expected)
    # The misses are where a coder looks for new keys: they come ascending,
    # they hold every needle not among the keys, and the rest are found.
    assert np.all(np.diff(missed) > 0)
    assert set(np.flatnonzero(~np.isin(needles, keys)).tolist()) <= set(missed.tolist())
    hit = np.setdiff1d(np.arange(needles.size), missed)
    assert np.array_equal(keys[at[hit]], needles[hit])


@pytest.fixture()
def tiny_hash_tables(monkeypatch):
    """Every hash table has two slots, so nearly every probe falls back."""
    hash_slots = ingest._hash_slots
    monkeypatch.setattr(ingest, "_hash_slots", lambda keys, bits: hash_slots(keys, 1))


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case_file(), st.booleans())
def test_load_table_matches_record_path_with_tiny_hash_tables(
    tmp_path, tiny_blocks, tiny_hash_tables, content, drop_empty
):
    path = tmp_path / "cases.txt"
    path.write_bytes(content)
    assert_same_outcome(path, drop_empty)


@pytest.mark.parametrize("block", [ingest._BLOCK, 16])
def test_every_coder_keeps_a_hash_table_of_its_keys(tmp_path, monkeypatch, block):
    monkeypatch.setattr(ingest, "_BLOCK", block)
    made = []  # every coder load_table makes

    class Codes(ingest._Codes):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(ingest, "_Codes", Codes)
    path = tmp_path / "cases.txt"
    # One block, whose fresh coders hold only their sentinel and probe
    # every key; or at 16 bytes, then on to the next newline, blocks of
    # lines 1-3, 4-6 and 7-9, the second of which adds z to w's keys.
    path.write_bytes(
        b"a,x,p,q\nb,y,p,q\nc,x,p,q\nd,z,p,q\ne,x,p,q\nf,y,p,q\ng,z,p,q\nh,x,p,q\ni,y,p,q\n"
    )
    assert_same_outcome(path)
    assert [coder.keys.size for coder in made] == [4, 2, 2]  # each with its sentinel
    for coder in made:
        bits = (4 * coder.keys.size).bit_length()
        assert np.array_equal(coder.slots, ingest._hash_slots(coder.keys, bits))
