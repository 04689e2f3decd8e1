"""Parsing of case-record text files.

load_table() counts a file's records straight into a ContingencyTable.
It reads the file in blocks of whole lines (128 KiB, then on to the
next newline) and works on each block in columns: numpy checks every
line's comma count on the bytes, screens the ids by their first byte,
turns each label column into integer codes, and counts the cells on
those codes, which the table keeps. An id led by printable ASCII other
than the quote passes; only the rest have their quotes counted, and an
id not passed then is checked as text. A field of at most 8 bytes
is coded by its spelling key, its bytes read as one little-endian uint64
with zeros past its end. Each dimension's coder (_Codes) keeps the keys
it has seen sorted beside their codes, and finds a column's keys among
them by a multiplicative hash into a table of their indices, searching
the sorted keys only for a key not in its slot. The table is rebuilt
whenever the keys grow, so a fresh coder probes like any other. The
keys a block has not seen before are spelled back to text in one
decode, and each is cleaned once, straight into the labels. A column
with a wider field, or any column of a block holding a NUL byte (zero
padding is not injective there), is split as text and every field
looked up in a dict from raw field text to code, which cleans each
distinct spelling once. No record is kept and the file is read once:
the first block to fail a check holds the file's first bad line, and
only that block is checked again, one line at a time, to raise that
line's error.

load_table makes fresh coders for each file, so a table's alphabets
are its own labels. `th4 batch` reads each chunk of files with one set
of coders per arity (_read_cells), made at the chunk's first file and
dropped when its rows are written: the files of a chunk learn each
spelling once, and their cells' codes index the same alphabets, so they
are stacked side by side as they are (_stack), with no recoding.

One case per line: an identifier followed by 3 or 4 nominal category
labels, all comma-separated. Fields may be wrapped in double quotes;
the quotes are optional and carry no meaning beyond delimiting the
label:

    "id1", "1", "b", "region1", "2"
    459695,1901,5,3

Blank lines are skipped. Labels are kept as exact, case-sensitive
strings after trimming and unquoting; the empty string is a valid
label. Embedded commas, escaped quotes, and embedded newlines are not
supported: a quoted field runs from the opening quote to the next
quote, which must close the field.
"""

from __future__ import annotations

import io
import os
from itertools import compress

import numpy as np

from .errors import EmptyDatasetError, FormatError
from .tables import ContingencyTable, _group, _trimmed

MIN_ARITY = 3
MAX_ARITY = 4
# Bytes load_table reads at a time, before extending to the next newline.
_BLOCK = 1 << 17
# Printable ASCII but the quote: an id led by such a byte passes _clean_field,
# as strip() keeps that byte and the id opens no quote.
_BARE_LEAD = np.zeros(256, bool)
_BARE_LEAD[0x21:0x7F] = True
_BARE_LEAD[ord('"')] = False
# The low n bytes of a uint64, n = 0..8: a spelling key from the 8 bytes at a field's start.
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
# Multiplicative hashing: a key's slot is the top bits of its product
# with 2**64 / golden ratio, in a table of at least this many slots per key.
_GOLDEN = np.int64(0x9E3779B97F4A7C15 - 2**64)
_SLOTS_PER_KEY = 4


def _slot_of(keys: np.ndarray, bits: int) -> np.ndarray:
    """Each uint64 key's slot in a table of 2**bits. The arithmetic is
    int64's, whose products wrap as uint64's do, with the sign bits of its
    shift masked off: th4 runs no other uint64 multiply or shift, whose
    code would add to every process's resident memory."""
    return (keys.view(np.int64) * _GOLDEN >> 64 - bits) & (1 << bits) - 1


def _hash_slots(keys: np.ndarray, bits: int) -> np.ndarray:
    """A table of 2**bits slots (bits >= 1) for sorted spelling keys that
    end in the sentinel: each slot holds the index of a key hashed there,
    or of the sentinel if none is."""
    slots = np.full(1 << bits, keys.size - 1, np.intp)
    slots[_slot_of(keys, bits)] = np.arange(keys.size)
    return slots


def _probe(keys: np.ndarray, slots: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """np.searchsorted(keys, needles), for sorted distinct `keys` and their
    `_hash_slots`: a needle that is the key in its slot is at that key's
    index, and only the rest are searched."""
    at = slots[_slot_of(needles, slots.size.bit_length() - 1)]
    missed = np.flatnonzero(keys[at] != needles)
    at[missed] = np.searchsorted(keys, needles[missed])
    return at


def _clean_field(raw: str, line_number: int) -> str:
    field = raw.strip()
    if field.startswith('"'):
        if len(field) < 2 or not field.endswith('"') or '"' in field[1:-1]:
            raise FormatError(line_number, f"unbalanced quote in field {field!r}")
        return field[1:-1]
    return field


def _raise_first_error(block: bytes, lines: int, first: tuple[int, int] | None) -> None:
    """Raise the error of the first bad line of a block load_table refused.

    `lines` counts the lines before it, and `first` is the line number
    and arity of an earlier block's first record. Checks line by line:
    decode, skip if blank, field count, id then label quotes, arity.
    """
    for line_number, raw in enumerate(io.BytesIO(block), start=lines + 1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(line_number, f"invalid UTF-8: {exc.reason}") from exc
        if not text.strip():
            continue
        raw_id, *raw_labels = text.split(",")
        if not MIN_ARITY <= len(raw_labels) <= MAX_ARITY:
            raise FormatError(
                line_number,
                f"expected 4 or 5 comma-separated fields (id plus 3 or 4 variables), "
                f"got {len(raw_labels) + 1}",
            )
        _clean_field(raw_id, line_number)
        labels = [_clean_field(raw, line_number) for raw in raw_labels]
        if first is None:
            first = (line_number, len(labels))
        elif len(labels) != first[1]:
            raise FormatError(
                line_number,
                f"record has {len(labels)} variables, but line {first[0]} has {first[1]}",
            )
    raise AssertionError(f"lines {lines + 1}-{line_number} were refused but hold no error")


class _Codes(dict):
    """Raw field text -> code of its cleaned label, for the fields split as
    text; `labels` maps each label to its code, in first-appearance order.
    `keys` lists the spelling keys seen so far, sorted, and `codes` their
    labels' codes; `slots` is their hash table, rebuilt whenever they grow.
    A new key is cleaned once, straight into `labels`, and never enters
    the raw-text dict."""

    def __init__(self):
        super().__init__()
        self.labels: dict[str, int] = {}
        # No key is all 0xff bytes, which UTF-8 never holds: every key sorts before it.
        self.keys = np.array([2**64 - 1], np.uint64)
        self.codes = np.array([-1])
        self.slots = _hash_slots(self.keys, _SLOTS_PER_KEY.bit_length())

    def __missing__(self, raw: str) -> int:
        code = self[raw] = self.labels.setdefault(_clean_field(raw, 0), len(self.labels))
        return code

    def coded(self, keys: np.ndarray) -> np.ndarray:
        """Codes of a column of spelling keys. The keys not seen before are
        spelled back from their bytes in one decode, cleaned into `labels`
        in first-appearance order, and merged into the sorted keys."""
        at = _probe(self.keys, self.slots, keys)
        codes, new = self.codes[at], self.keys[at] != keys
        if new.any():
            added = keys[new]
            fresh = np.sort(added)
            fresh = fresh[np.concatenate(([True], fresh[1:] != fresh[:-1]))]
            inverse = np.searchsorted(fresh, added)
            first = np.full(fresh.size, added.size)
            np.minimum.at(first, inverse, np.arange(added.size))
            order = first.argsort()  # new labels get codes in first-appearance order
            # The S8 view drops each key's zero padding; no spelled field
            # holds a NUL or a newline.
            spellings = b"\n".join(fresh[order].astype("<u8", copy=False).view("S8").tolist())
            labels = self.labels
            fresh_codes = np.empty(fresh.size, np.int64)
            fresh_codes[order] = [
                labels.setdefault(_clean_field(raw, 0), len(labels))
                for raw in spellings.decode().split("\n")
            ]
            codes[new] = fresh_codes[inverse]
            into = np.searchsorted(self.keys, fresh)
            self.keys = np.insert(self.keys, into, fresh)
            self.codes = np.insert(self.codes, into, fresh_codes)
            self.slots = _hash_slots(self.keys, (_SLOTS_PER_KEY * self.keys.size).bit_length())
        return codes


def _block_columns(
    block: bytes, lookups: list[_Codes], coders: dict[int, list[_Codes]]
) -> tuple[list[np.ndarray], int] | None:
    """A block of whole lines' label columns as int64 codes ([] if every
    line is blank) and its line count, or None if a line fails a check.
    `lookups` are the file's coders, one per dimension: its first record
    fixes its arity and takes them from `coders`, made there if absent.
    """
    # Line structure from the bytes: no byte below 0x80 occurs
    # inside a UTF-8 multibyte sequence.
    raw = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    if not block.endswith(b"\n"):
        ends = np.append(ends, len(block))
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError:
        return None
    lines = ends.size
    starts = np.concatenate(([0], ends[:-1] + 1))
    comma_at = np.flatnonzero(raw == ord(","))
    upto = np.searchsorted(comma_at, ends)
    commas = np.diff(upto, prepend=0)
    kept = commas != 0
    if not kept.all():  # a line without a comma must be blank
        blank = zip(starts[~kept].tolist(), ends[~kept].tolist())
        if any(block[a:b].decode().strip() for a, b in blank):
            return None
        starts, ends, commas = starts[kept], ends[kept], commas[kept]
        if not commas.size:
            return [], lines
    if not lookups:  # commas per record, fixed by the first one
        arity = int(commas[0])
        if not MIN_ARITY <= arity <= MAX_ARITY:
            return None
        if arity not in coders:
            coders[arity] = [_Codes() for _ in range(arity)]
        lookups.extend(coders[arity])
    width = len(lookups)
    if (commas != width).any():
        return None
    # Each comma is one of a record's `width`: label d of a record runs
    # from cuts[d - 1] + 1 to cuts[d], and cuts[0] ends its id.
    cuts = [*comma_at.reshape(-1, width).T, ends]
    quote_at = np.flatnonzero(raw == ord('"'))
    spelled = None if b"\0" in block else np.ndarray(len(block) + 1, "<u8", block + bytes(8), 0, 1)
    fields = None
    try:  # _clean_field raises FormatError for a bad quote
        if quote_at.size:
            # An id led by a bare byte passes _clean_field. Of the others,
            # an id with no quote, or with two as its first and last byte,
            # passes too; any other id goes through it.
            odd = np.flatnonzero(~_BARE_LEAD[raw[starts]])
            lo, hi = starts[odd], cuts[0][odd]
            quotes = np.searchsorted(quote_at, hi) - np.searchsorted(quote_at, lo)
            plain = (quotes == 0) | (
                (quotes == 2) & (raw[lo] == ord('"')) & (raw[hi - 1] == ord('"'))
            )
            for i in odd[~plain].tolist():
                _clean_field(block[starts[i] : cuts[0][i]].decode(), 0)
        columns = []
        for d, lookup in enumerate(lookups, start=1):
            lo = cuts[d - 1] + 1
            size = cuts[d] - lo
            if spelled is not None and size.max() <= 8:
                columns.append(lookup.coded(spelled[lo] & _MASKS[size]))
                continue
            if fields is None:  # a wide field or a NUL byte: split the text
                body = text[:-1] if text.endswith("\n") else text
                if not kept.all():
                    body = "\n".join(compress(body.split("\n"), kept.tolist()))
                fields = body.replace("\n", ",").split(",")
            columns.append(
                np.fromiter(map(lookup.__getitem__, fields[d :: width + 1]), np.int64, commas.size)
            )
        return columns, lines
    except FormatError:
        return None


# A file's cells: per dimension their codes, and their counts.
_Cells = tuple[tuple[np.ndarray, ...], np.ndarray]


def _read_cells(
    path: str | os.PathLike, coders: dict[int, list[_Codes]], drop_empty: bool
) -> _Cells:
    """A case-record file's cells in first-appearance order: per dimension
    their codes by `coders[arity]`, made there if absent, and their counts.

    Files read with one `coders` share it: their codes index the same
    alphabets, which list every label of those files. With drop_empty,
    records carrying an empty label are skipped. Raises as load_table.
    """
    lookups: list[_Codes] = []
    blocks: list[list[np.ndarray]] = []  # each block's label columns
    lines = 0  # lines read so far
    first: tuple[int, int] | None = None  # line and arity of the first record
    with open(path, "rb") as fh:
        while block := fh.read(_BLOCK) + fh.readline():
            if (parsed := _block_columns(block, lookups, coders)) is None:
                _raise_first_error(block, lines, first)
            columns, count = parsed
            if columns:
                blocks.append(columns)
                if first is None:  # the lines before its first comma are blank
                    first = (lines + 1 + block.count(b"\n", 0, block.index(b",")), len(lookups))
            lines += count
    if not blocks:
        raise EmptyDatasetError("no case records")
    sizes = [lookup.labels for lookup in lookups]  # _group reads their lengths
    codes, counts = _group(sizes, [np.concatenate(column) for column in zip(*blocks)])
    if drop_empty:
        # A kept cell's first record is kept: cells keep their order.
        kept = np.logical_and.reduce(
            [column != lookup.labels.get("", -1) for column, lookup in zip(codes, lookups)]
        )
        if not kept.any():
            raise EmptyDatasetError("all records carry empty labels")
        if not kept.all():
            codes, counts = tuple(column[kept] for column in codes), counts[kept]
    return codes, counts


def _stack(lookups: list[_Codes], files: list[_Cells]) -> ContingencyTable:
    """The cells of files read with `lookups`, file after file, and a last
    dimension holding each cell's index among the files."""
    columns = [np.concatenate(column) for column in zip(*(codes for codes, _ in files))]
    columns.append(np.repeat(np.arange(len(files)), [len(counts) for _, counts in files]))
    alphabets = (*(tuple(lookup.labels) for lookup in lookups), tuple(range(len(files))))
    counts = np.concatenate([counts for _, counts in files])
    return ContingencyTable._from_codes(alphabets, tuple(columns), counts)


def load_table(path: str | os.PathLike, *, drop_empty: bool = False) -> ContingencyTable:
    """Read a case-record file (UTF-8) and count its label tuples.

    Cells are in first-appearance order, and each alphabet lists its
    dimension's labels in first-appearance order. With drop_empty,
    records carrying an empty label are skipped. Raises FormatError for
    the first bad line, EmptyDatasetError for a file with no record or,
    with drop_empty, none without an empty label. Their messages
    describe the data and name no file; the command line prefixes the
    file's path.
    """
    coders: dict[int, list[_Codes]] = {}
    codes, counts = _read_cells(path, coders, drop_empty)
    [lookups] = coders.values()  # every label was read from one of the file's records
    alphabets = tuple(tuple(lookup.labels) for lookup in lookups)
    if drop_empty and any("" in lookup.labels for lookup in lookups):
        # Records were skipped: each alphabet keeps the labels of the rest.
        return _trimmed(alphabets, codes, counts)
    return ContingencyTable._from_codes(alphabets, codes, counts)
