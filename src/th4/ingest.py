"""Parsing of case-record text files.

load_table() counts a file's records straight into a ContingencyTable.
It reads the file in blocks of whole lines and works on each block in
columns: numpy checks every line's comma count on the bytes, each
label column is turned into integer codes through a dict from raw field
text to code (so each distinct spelling is cleaned once per file), and
the cells are counted with numpy on those codes, which the table keeps.
The table equals build_table(load_dataset(path)), which keeps every
record as a CaseRecord in a Dataset instead. A file that fails any
check is handed to that record path, so every error is its error.

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
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import EmptyDatasetError, FormatError
from .tables import ContingencyTable, _group, _trimmed, build_table

MIN_ARITY = 3
MAX_ARITY = 4
# Bytes load_table reads at a time, before extending to the next newline.
_BLOCK = 1 << 16


@dataclass(frozen=True, slots=True)
class CaseRecord:
    """A single parsed case: opaque id plus 3 or 4 category labels."""

    id: str
    labels: tuple[str, ...]
    line_number: int


@dataclass(frozen=True)
class Dataset:
    """All records of one input, with a uniform number of dimensions."""

    records: tuple[CaseRecord, ...]
    arity: int
    source_label: str


def _clean_field(raw: str, line_number: int) -> str:
    field = raw.strip()
    if field.startswith('"'):
        if len(field) < 2 or not field.endswith('"') or '"' in field[1:-1]:
            raise FormatError(line_number, f"unbalanced quote in field {field!r}")
        return field[1:-1]
    return field


def parse_line(text: str, line_number: int) -> CaseRecord | None:
    """Parse one physical line; whitespace-only lines yield None."""
    if not text.strip():
        return None
    raw_id, *raw_labels = text.split(",")
    if not MIN_ARITY <= len(raw_labels) <= MAX_ARITY:
        raise FormatError(
            line_number,
            f"expected 4 or 5 comma-separated fields (id plus 3 or 4 variables), "
            f"got {len(raw_labels) + 1}",
        )
    record_id = _clean_field(raw_id, line_number)
    labels = tuple(map(str.strip, raw_labels))
    if '"' in "".join(labels):  # fields without a quote only need the strip
        labels = tuple(_clean_field(raw, line_number) for raw in raw_labels)
    return CaseRecord(id=record_id, labels=labels, line_number=line_number)


def parse_dataset(lines: Iterable[str], source_label: str) -> Dataset:
    """Parse decoded text lines into a Dataset, skipping blank lines.

    The first record fixes the number of variables; any later record
    with a different count is a format error.
    """
    records: list[CaseRecord] = []
    first: CaseRecord | None = None
    for line_number, line in enumerate(lines, start=1):
        record = parse_line(line, line_number)
        if record is None:
            continue
        if first is None:
            first = record
        elif len(record.labels) != len(first.labels):
            raise FormatError(
                record.line_number,
                f"record has {len(record.labels)} variables, but line "
                f"{first.line_number} has {len(first.labels)}",
            )
        records.append(record)
    if first is None:
        raise EmptyDatasetError(f"no case records in {source_label!r}")
    return Dataset(records=tuple(records), arity=len(first.labels), source_label=source_label)


def _decoded_lines(path: str | os.PathLike) -> Iterator[str]:
    # Decode per physical line so UTF-8 errors carry a line number.
    with open(path, "rb") as fh:
        for line_number, raw in enumerate(fh, start=1):
            try:
                yield raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(line_number, f"invalid UTF-8: {exc.reason}") from exc


def load_dataset(path: str | os.PathLike, label: str | None = None) -> Dataset:
    """Read and parse a case-record file (UTF-8)."""
    source_label = label if label is not None else os.path.basename(os.fspath(path))
    return parse_dataset(_decoded_lines(path), source_label)


def _record_table(
    path: str | os.PathLike, label: str | None, drop_empty: bool
) -> ContingencyTable:
    """build_table(load_dataset(...)), after drop_empty_labels when asked."""
    dataset = load_dataset(path, label)
    return build_table(drop_empty_labels(dataset) if drop_empty else dataset)


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
    Either way the record path names the error.
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

    Equals build_table(load_dataset(path, label)), or with drop_empty
    build_table(drop_empty_labels(...)), cell order and alphabets
    included, and raises the same errors; no record is kept.
    """
    try:
        coded = _label_columns(path)
    except FormatError:
        coded = None
    if coded is None:
        return _record_table(path, label, drop_empty)
    columns, lookups = coded
    alphabets = tuple(tuple(lookup.labels) for lookup in lookups)
    if drop_empty:
        kept = np.logical_and.reduce(
            [codes != lookup.labels.get("", -1) for codes, lookup in zip(columns, lookups)]
        )
        if not kept.any():
            return _record_table(path, label, drop_empty)  # raises: every record dropped
        if not kept.all():
            return _trimmed(alphabets, *_group(alphabets, [codes[kept] for codes in columns]))
    return ContingencyTable._from_codes(alphabets, *_group(alphabets, columns))


def render_line(record: CaseRecord) -> str:
    """Serialize a record with every field quoted; parse_line inverts this."""
    return ",".join(f'"{field}"' for field in (record.id, *record.labels))


def drop_empty_labels(dataset: Dataset) -> Dataset:
    """Return a copy without records that carry an empty-string label."""
    kept = tuple(r for r in dataset.records if all(r.labels))
    if not kept:
        raise EmptyDatasetError(
            f"all records in {dataset.source_label!r} carry empty labels"
        )
    return Dataset(records=kept, arity=dataset.arity, source_label=dataset.source_label)
