"""Parsing of case-record text files.

load_table() reads a file once and counts its records straight into a
ContingencyTable. It parses and validates each distinct text after the
id field once, at its first line, and checks every line's id. The
table and any error equal those of build_table(load_dataset(path)),
which keeps every record as a CaseRecord in a Dataset instead.

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

from .errors import EmptyDatasetError, FormatError
from .tables import ContingencyTable

MIN_ARITY = 3
MAX_ARITY = 4


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


def _parse_fields(
    raw_id: str, raw_labels: list[str], line_number: int
) -> tuple[str, tuple[str, ...]]:
    """Check a line's fields in order (field count, id, labels); return them cleaned."""
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
    return record_id, labels


def _arity_error(line_number: int, arity: int, first_line: int, first_arity: int) -> FormatError:
    return FormatError(
        line_number,
        f"record has {arity} variables, but line {first_line} has {first_arity}",
    )


def parse_line(text: str, line_number: int) -> CaseRecord | None:
    """Parse one physical line; whitespace-only lines yield None."""
    if not text.strip():
        return None
    raw_id, *raw_labels = text.split(",")
    record_id, labels = _parse_fields(raw_id, raw_labels, line_number)
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
            raise _arity_error(
                record.line_number, len(record.labels), first.line_number, len(first.labels)
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


def _source_label(path: str | os.PathLike, label: str | None) -> str:
    return label if label is not None else os.path.basename(os.fspath(path))


def load_dataset(path: str | os.PathLike, label: str | None = None) -> Dataset:
    """Read and parse a case-record file (UTF-8)."""
    return parse_dataset(_decoded_lines(path), _source_label(path, label))


def load_table(
    path: str | os.PathLike, label: str | None = None, drop_empty: bool = False
) -> ContingencyTable:
    """Read a case-record file (UTF-8) and count its label tuples.

    Equals build_table(load_dataset(path, label)), or with drop_empty
    build_table(drop_empty_labels(...)), cell order and alphabets
    included, and raises the same errors; no record is kept.
    """
    source_label = _source_label(path, label)
    tails: dict[str, int] = {}  # text after the id -> lines carrying it
    labels_of: dict[str, tuple[str, ...]] = {}
    first_line = arity = 0
    for line_number, line in enumerate(_decoded_lines(path), start=1):
        cut = line.find(",")
        if cut < 0:
            if line.strip():
                _parse_fields(line, [], line_number)  # raises: one field
            continue
        raw_id, tail = line[:cut], line[cut + 1:]
        count = tails.get(tail)
        if count is None:
            _, labels = _parse_fields(raw_id, tail.split(","), line_number)
            if not arity:
                first_line, arity = line_number, len(labels)
            elif len(labels) != arity:
                raise _arity_error(line_number, len(labels), first_line, arity)
            labels_of[tail] = labels
            count = 0
        elif '"' in raw_id:  # an id without quotes always passes
            _clean_field(raw_id, line_number)
        tails[tail] = count + 1
    if not arity:
        raise EmptyDatasetError(f"no case records in {source_label!r}")
    counts: dict[tuple[str, ...], int] = {}
    for tail, count in tails.items():
        labels = labels_of[tail]
        counts[labels] = counts.get(labels, 0) + count
    if drop_empty:
        counts = {labels: count for labels, count in counts.items() if all(labels)}
        if not counts:
            raise EmptyDatasetError(f"all records in {source_label!r} carry empty labels")
    return ContingencyTable.from_counts(arity, counts)


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
