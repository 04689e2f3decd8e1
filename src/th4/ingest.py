"""Parsing of case-record text files.

load_table() counts a file's records straight into a ContingencyTable.
It reads the file in blocks of whole lines and works on each block in
columns: numpy checks every line's comma count on the bytes, each
label column is turned into integer codes through a dict from raw field
text to code (so each distinct spelling is cleaned once per file), and
the cells are counted with numpy on those codes, which the table keeps.
No record is kept. A file that fails any check is read once more, one
line at a time, to raise the error of its first bad line.

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


def _raise_first_error(path: str | os.PathLike, label: str | None, drop_empty: bool) -> None:
    """Raise the error of the first bad line of a file load_table refused.

    Checks one line at a time, in file order: decode, skip if blank, field
    count, quotes of the id and then the labels, and the first record's
    number of variables. Keeps no record.
    """
    first: tuple[int, int] | None = None  # line number and arity of the first record
    kept = False  # some record carries no empty label
    with open(path, "rb") as fh:
        for line_number, raw in enumerate(fh, start=1):
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
            kept = kept or all(labels)
    source_label = label if label is not None else os.path.basename(os.fspath(path))
    if first is None:
        raise EmptyDatasetError(f"no case records in {source_label!r}")
    if drop_empty and not kept:
        raise EmptyDatasetError(f"all records in {source_label!r} carry empty labels")


class _Codes(dict):
    """Raw field text -> code of its cleaned label, codes in first-appearance
    order; `_clean_field` runs once per distinct spelling."""

    def __init__(self):
        super().__init__()
        self.labels: dict[str, int] = {}

    def __missing__(self, raw: str) -> int:
        code = self[raw] = self.labels.setdefault(_clean_field(raw, 0), len(self.labels))
        return code


def _label_columns(path: str | os.PathLike) -> tuple[list[np.ndarray], list[_Codes]] | None:
    """Each label column of the file as int64 codes, and each dimension's
    codes. None when a line fails a check; FormatError for a bad quote.
    Either way _raise_first_error names the error.
    """
    columns: list[list[np.ndarray]] = []
    lookups: list[_Codes] = []
    width = 0  # commas per record, fixed by the first one
    with open(path, "rb") as fh:
        while block := fh.read(_BLOCK) + fh.readline():
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError:
                return None
            # Line structure from the bytes: no byte below 0x80 occurs
            # inside a UTF-8 multibyte sequence.
            raw = np.frombuffer(block, dtype=np.uint8)
            ends = np.flatnonzero(raw == ord("\n"))
            if not block.endswith(b"\n"):
                ends = np.append(ends, len(block))
            starts = np.concatenate(([0], ends[:-1] + 1))
            comma_at = np.flatnonzero(raw == ord(","))
            upto = np.searchsorted(comma_at, ends)
            commas = np.diff(upto, prepend=0)
            body = text[:-1] if text.endswith("\n") else text
            if commas.all():
                records = body.replace("\n", ",")
            else:  # a line without a comma must be blank
                lines = body.split("\n")
                if any(lines[i].strip() for i in np.flatnonzero(commas == 0).tolist()):
                    return None
                records = ",".join(line for line, n in zip(lines, commas.tolist()) if n)
                kept = commas != 0
                starts, upto, commas = starts[kept], upto[kept], commas[kept]
                if not commas.size:
                    continue
            if not width:
                width = int(commas[0])
                if not MIN_ARITY <= width <= MAX_ARITY:
                    return None
                columns = [[] for _ in range(width)]
                lookups = [_Codes() for _ in range(width)]
            if (commas != width).any():
                return None
            fields = records.split(",")
            quote_at = np.flatnonzero(raw == ord('"'))
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
                    np.fromiter(map(lookup.__getitem__, column), dtype=np.int64, count=len(column))
                )
    if not width:
        return None
    return [np.concatenate(blocks) for blocks in columns], lookups


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
    try:
        coded = _label_columns(path)
    except FormatError:
        coded = None
    if coded is None:
        _raise_first_error(path, label, drop_empty)
        raise AssertionError(f"{path}: the columnar pass refused a file with no error")
    columns, lookups = coded
    alphabets = tuple(tuple(lookup.labels) for lookup in lookups)
    if drop_empty:
        kept = np.logical_and.reduce(
            [codes != lookup.labels.get("", -1) for codes, lookup in zip(columns, lookups)]
        )
        if not kept.any():
            _raise_first_error(path, label, drop_empty)  # raises: every record dropped
        if not kept.all():
            return _trimmed(alphabets, *_group(alphabets, [codes[kept] for codes in columns]))
    return ContingencyTable._from_codes(alphabets, *_group(alphabets, columns))
