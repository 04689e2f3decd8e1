"""Parsing of case-record text files.

load_table() counts a file's records straight into a ContingencyTable.
It reads the file in blocks of whole lines and works on each block in
columns: numpy checks every line's comma count on the bytes, each
label column is turned into integer codes through a dict from raw field
text to code (so each distinct spelling is cleaned once per file), and
the cells are counted with numpy on those codes, which the table keeps.
No record is kept and the file is read once: the first block to fail a
check holds the file's first bad line, and only that block is checked
again, one line at a time, to raise that line's error.

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

import numpy as np

from .errors import EmptyDatasetError, FormatError
from .tables import ContingencyTable, _group, _trimmed

MIN_ARITY = 3
MAX_ARITY = 4
# Bytes load_table reads at a time, before extending to the next newline.
_BLOCK = 1 << 16


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
    """Raw field text -> code of its cleaned label, codes in first-appearance
    order; `_clean_field` runs once per distinct spelling."""

    def __init__(self):
        super().__init__()
        self.labels: dict[str, int] = {}

    def __missing__(self, raw: str) -> int:
        code = self[raw] = self.labels.setdefault(_clean_field(raw, 0), len(self.labels))
        return code


def _label_columns(path: str | os.PathLike) -> tuple[list[np.ndarray], list[_Codes]]:
    """Each label column of the file as int64 codes, and each dimension's
    codes; both empty for a file with no record. A block in which a line
    fails a check goes to _raise_first_error, which names the error.
    """
    columns: list[list[np.ndarray]] = []
    lookups: list[_Codes] = []
    width = 0  # commas per record, fixed by the first one
    lines = 0  # lines read so far
    first: tuple[int, int] | None = None  # line and arity of the first record, once accepted
    with open(path, "rb") as fh:
        while block := fh.read(_BLOCK) + fh.readline():
            # Line structure from the bytes: no byte below 0x80 occurs
            # inside a UTF-8 multibyte sequence.
            raw = np.frombuffer(block, dtype=np.uint8)
            ends = np.flatnonzero(raw == ord("\n"))
            if not block.endswith(b"\n"):
                ends = np.append(ends, len(block))
            before, lines = lines, lines + len(ends)
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError:
                break
            starts = np.concatenate(([0], ends[:-1] + 1))
            comma_at = np.flatnonzero(raw == ord(","))
            upto = np.searchsorted(comma_at, ends)
            commas = np.diff(upto, prepend=0)
            body = text[:-1] if text.endswith("\n") else text
            if commas.all():
                records = body.replace("\n", ",")
            else:  # a line without a comma must be blank
                texts = body.split("\n")
                if any(texts[i].strip() for i in np.flatnonzero(commas == 0).tolist()):
                    break
                records = ",".join(line for line, n in zip(texts, commas.tolist()) if n)
                kept = commas != 0
                starts, upto, commas = starts[kept], upto[kept], commas[kept]
                if not commas.size:
                    continue
            if not width:
                width = int(commas[0])
                if not MIN_ARITY <= width <= MAX_ARITY:
                    break
                columns = [[] for _ in range(width)]
                lookups = [_Codes() for _ in range(width)]
            if (commas != width).any():
                break
            fields = records.split(",")
            quote_at = np.flatnonzero(raw == ord('"'))
            try:  # _clean_field raises FormatError for a bad quote
                if quote_at.size:
                    # An id with no quote, or with two as its first and last
                    # byte, passes _clean_field; any other id goes through it.
                    id_end = comma_at[upto - commas]
                    quotes = np.searchsorted(quote_at, id_end) - np.searchsorted(quote_at, starts)
                    plain = (quotes == 0) | (
                        (quotes == 2) & (raw[starts] == ord('"')) & (raw[id_end - 1] == ord('"'))
                    )
                    for i in np.flatnonzero(~plain).tolist():
                        _clean_field(fields[i * (width + 1)], 0)
                for d, lookup in enumerate(lookups, start=1):
                    column = fields[d :: width + 1]
                    columns[d - 1].append(
                        np.fromiter(map(lookup.__getitem__, column), np.int64, len(column))
                    )
            except FormatError:
                break
            if first is None:
                first = (before + 1 + int(np.searchsorted(ends, starts[0])), width)
        else:  # no block was refused
            return [np.concatenate(blocks) for blocks in columns], lookups
    _raise_first_error(block, before, first)


def load_table(
    path: str | os.PathLike, label: str | None = None, drop_empty: bool = False
) -> ContingencyTable:
    """Read a case-record file (UTF-8) and count its label tuples.

    Cells are in first-appearance order, and each alphabet lists its
    dimension's labels in first-appearance order. With drop_empty,
    records carrying an empty label are skipped. `label` only names the
    file in EmptyDatasetError messages (default: the file name). Raises
    FormatError for the first bad line, EmptyDatasetError for a file
    with no record or, with drop_empty, none without an empty label.
    """
    columns, lookups = _label_columns(path)
    source = label if label is not None else os.path.basename(os.fspath(path))
    if not lookups:
        raise EmptyDatasetError(f"no case records in {source!r}")
    alphabets = tuple(tuple(lookup.labels) for lookup in lookups)
    if drop_empty:
        kept = np.logical_and.reduce(
            [codes != lookup.labels.get("", -1) for codes, lookup in zip(columns, lookups)]
        )
        if not kept.any():
            raise EmptyDatasetError(f"all records in {source!r} carry empty labels")
        if not kept.all():
            return _trimmed(alphabets, *_group(alphabets, [codes[kept] for codes in columns]))
    return ContingencyTable._from_codes(alphabets, *_group(alphabets, columns))
