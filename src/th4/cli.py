"""Command-line front end: report, batch, decompose, and ipf.

Exit codes: 0 success, 2 usage errors, 3 malformed or empty input
data or a fit whose pair tables would be too large, 4 non-convergence
of the iterative fit, 1 I/O failures (including a results file with a
foreign header).

The only BLAS calls th4 makes are the fit's matrix products of pair
tables, which are small, while numpy's OpenBLAS starts a thread pool at
import that spins on a second core. So this module sets
OPENBLAS_NUM_THREADS to 1, unless the caller set it, before it first
imports numpy. `import th4` loads no numpy, so this holds under both
`python -m th4.cli` and the `th4` script.
"""

from __future__ import annotations

import gc
import glob as globmod
import json
import os
import sys
import threading
from decimal import ROUND_HALF_UP, Decimal
from functools import partial
from pathlib import Path
from typing import Callable, NoReturn, TypeVar

import click

from . import __version__

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .decompose import DecompositionResult, decompose_by_dimension
from .errors import InputDataError, NotConvergedError, TableTooLargeError
from .infocalc import (
    DIM_NAMES,
    EntropyReport,
    _full_reports,
    _lattice,
    full_report,
    parse_subset,
    subset_name,
    transmission,
)
from .ingest import _Cells, _read_cells, _stack, load_table
from .maxent import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE, ipf_fit, krippendorff_interaction
from .tables import project

EXIT_IO_ERROR = 1
EXIT_USAGE = 2  # also the exit code of click's own usage failures
EXIT_DATA_ERROR = 3
EXIT_NOT_CONVERGED = 4

# The one report layout, which the CSV row, the listing and --json read:
# an H block and a T block, from the report attribute of each name. Each
# lists subsets of the four dimensions, smallest first, lexicographic
# within a size; 3-dimension data fill the same 26 slots, 0 in each Z slot.
SCHEMA = {"h": _lattice((0, 1, 2, 3)), "t": _lattice((0, 1, 2, 3), 2)}
CSV_HEADER = "label,n_cases,arity," + ",".join(
    f"{b.upper()}_{subset_name(s)}" for b, subsets in SCHEMA.items() for s in subsets
)
DECOMP_HEADER = "group,n,weight,T_group,contribution,reduction"

# batch computes its reports a chunk of files at a time, once the tables
# it holds reach this many cells; the bound keeps its memory flat.
_CHUNK_CELLS = 2**13

_Loaded = TypeVar("_Loaded")


def format_value(value: float, precision: int) -> str:
    """Fixed-point display rounding: half away from zero, no negative zero."""
    quantum = Decimal(1).scaleb(-precision)
    q = Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP)
    if q == 0:
        q = abs(q)
    return f"{q:f}"


def _csv_field(text: str) -> str:
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _schema(report: EntropyReport) -> dict[str, dict[tuple[int, ...], float]]:
    """The report's SCHEMA blocks, in order, 0.0 in each slot its data lacks."""
    return {
        b: {s: getattr(report, b).get(s, 0.0) for s in subsets} for b, subsets in SCHEMA.items()
    }


def _csv_row(label: str, report: EntropyReport, precision: int, full_precision: bool) -> str:
    """One results row: label, case count, arity, then the 26 schema values."""
    values = [v for block in _schema(report).values() for v in block.values()]
    if full_precision:
        rendered = [repr(v) for v in values]
    else:
        rendered = [format_value(v, precision) for v in values]
    return ",".join([_csv_field(label), str(report.n_cases), str(report.arity), *rendered])


def append_row(path: Path, row: str) -> None:
    """Append rendered rows, one or more joined by newlines, as whole lines;
    a fresh (or empty) file gets the header first, and a file whose last
    line lacks its newline gets one before the rows.

    A missing file is created holding the header and the rows at once, so
    two runs that start on it together write one header between them.
    Raises ValueError, leaving the file unchanged, when a non-empty
    file's first line is not CSV_HEADER.
    """
    line = row + "\n"
    if _create(path, (CSV_HEADER + "\n" + line).encode("utf-8")):
        return
    with open(path, "a+b") as fh:
        fh.seek(0)
        first = fh.readline()
        if not first:
            line = CSV_HEADER + "\n" + line
        elif first.rstrip(b"\r\n") != CSV_HEADER.encode():
            raise ValueError("header does not match the th4 columns; refusing to append")
        else:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                line = "\n" + line
        fh.write(line.encode("utf-8"))


def _create(path: Path, data: bytes) -> bool:
    """Make a missing `path` hold `data`; False if that did not happen.

    `data` goes to a new file beside `path` (O_CREAT | O_EXCL), which is
    then hard-linked as `path`, and the link fails if `path` exists by
    then. So no run ever finds `path` empty because another run has
    created it but not yet written to it. On any failure (`path` exists,
    no hard links, an unwritable directory) the append path takes over.
    """
    if os.path.lexists(path):
        return False
    temp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError:
        return False
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.link(temp, path)
    except OSError:
        return False
    finally:
        os.unlink(temp)
    return True


def render_listing(label: str, report: EntropyReport, precision: int) -> str:
    lines = [f"{label}: {report.n_cases} cases, {report.arity} dimensions, values in bits"]
    for b, block in _schema(report).items():
        lines.append("")
        for s, value in block.items():
            name = f"{b.upper()}({subset_name(s)})"
            lines.append(f"{name:<9}{format_value(value, precision):>10}")
    return "\n".join(lines) + "\n"


def report_json(label: str, report: EntropyReport) -> str:
    doc = {"label": label, "n_cases": report.n_cases, "arity": report.arity}
    for b, block in _schema(report).items():
        doc[b] = {subset_name(s): v for s, v in block.items()}
    return json.dumps(doc, indent=2)


def decomposition_rows(result: DecompositionResult, precision: int) -> list[str]:
    def fmt(v: float) -> str:
        return format_value(v, precision)

    rows = []
    for g in result.groups:
        rows.append(
            ",".join(
                [
                    _csv_field(g.group_label),
                    str(g.n_g),
                    fmt(g.weight),
                    fmt(g.t_g),
                    fmt(g.contribution),
                    fmt(-g.contribution),
                ]
            )
        )
    n_total = sum(g.n_g for g in result.groups)
    rows.append(",".join(["pooled", str(n_total), fmt(1.0), fmt(result.t_pooled), "", ""]))
    rows.append(",".join(["between", "", "", fmt(result.t_between), "", ""]))
    return rows


def _fail(code: int, message: str) -> NoReturn:
    """Exit with `code` after one `error: {message}` line on stderr."""
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(
    path: str | Path,
    drop_empty: bool,
    keep_going: bool = False,
    before_failure: Callable[[], None] = lambda: None,
    read: Callable[..., _Loaded] = load_table,
) -> _Loaded | None:
    """read(path, drop_empty=drop_empty), load_table by default, or exit: 1
    for an unreadable file, 3 for bad data.

    With keep_going, bad data is a warning and gives None instead.
    before_failure runs ahead of any such message.
    """
    try:
        return read(path, drop_empty=drop_empty)
    except OSError as exc:
        before_failure()
        _fail(EXIT_IO_ERROR, f"cannot read {path}: {exc.strerror or exc}")
    except InputDataError as exc:
        before_failure()
        if not keep_going:
            _fail(EXIT_DATA_ERROR, f"{path}: {exc}")
        click.echo(f"warning: skipping {path}: {exc}", err=True)
        return None


def _append(path: Path, row: str) -> None:
    try:
        append_row(path, row)
    except OSError as exc:
        _fail(EXIT_IO_ERROR, f"cannot write {path}: {exc.strerror or exc}")
    except ValueError as exc:
        _fail(EXIT_IO_ERROR, f"{path}: {exc}")


def _expand_inputs(inputs: tuple[str, ...], results: str) -> list[str]:
    """Matched files in sorted path order, one per real file, none of them
    the real file `results`."""
    found: set[str] = set()
    for item in inputs:
        path = Path(item)
        if path.is_dir():
            found.update(str(p) for p in path.iterdir() if p.is_file())
        elif path.is_file():
            found.add(item)
        else:
            found.update(p for p in globmod.glob(item) if os.path.isfile(p))
    unique: dict[str, str] = {}
    for p in sorted(found):
        unique.setdefault(os.path.realpath(p), p)
    unique.pop(results, None)
    return list(unique.values())


_input_option = click.option(
    "--input",
    "input_path",
    default="data.txt",
    show_default=True,
    type=click.Path(exists=True, dir_okay=False, path_type=Path),
    help="Case-record file to analyze.",
)
_output_option = click.option(
    "--output",
    "output_path",
    default="th4.csv",
    show_default=True,
    type=click.Path(dir_okay=False, path_type=Path),
    help="Results file to append to (created with a header if absent).",
)
_precision_option = click.option(
    "--precision",
    default=2,
    show_default=True,
    type=click.IntRange(0, 17),
    help="Decimal places for displayed and written values.",
)
_full_precision_option = click.option(
    "--full-precision",
    "full_precision",
    is_flag=True,
    help="Write unrounded values to the output file.",
)
_drop_empty_option = click.option(
    "--drop-empty-labels",
    "drop_empty",
    is_flag=True,
    help="Skip records that carry an empty-string label.",
)


@click.group(name="th4", context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="th4")
def main():
    """Entropy and transmission statistics over categorical case records."""


@main.command()
@_input_option
@_output_option
@click.option("--label", default=None, help="Row label; defaults to the input file name.")
@_precision_option
@click.option(
    "--json",
    "as_json",
    is_flag=True,
    help="Print the full-precision report as JSON instead of the listing.",
)
@_full_precision_option
@_drop_empty_option
def report(input_path, output_path, label, precision, as_json, full_precision, drop_empty):
    """Compute all entropies and transmissions of one file; append one row."""
    rep = full_report(_load(input_path, drop_empty))
    name = label if label is not None else input_path.name
    _append(output_path, _csv_row(name, rep, precision, full_precision))
    if as_json:
        click.echo(report_json(name, rep))
    else:
        click.echo(render_listing(name, rep, precision), nl=False)


@main.command()
@click.argument("inputs", nargs=-1, required=True)
@_output_option
@_precision_option
@_full_precision_option
@_drop_empty_option
@click.option(
    "--keep-going",
    is_flag=True,
    help="Warn about files that fail to parse instead of aborting.",
)
def batch(inputs, output_path, precision, full_precision, drop_empty, keep_going):
    """Append one row per input file, in sorted path order.

    INPUTS are files, directories, or glob patterns; paths that resolve
    to the same file give one row, and the results file is never read
    as an input. Rows are labelled with the file name, so two files
    with the same name are refused. After the last file, one summary
    line (files, rows appended, files skipped) goes to stderr.
    """
    files = _expand_inputs(inputs, os.path.realpath(output_path))
    if not files:
        raise click.UsageError(f"no input files matched {' '.join(inputs)!r}")
    by_name: dict[str, str] = {}
    for path in files:
        name = os.path.basename(path)
        first = by_name.setdefault(name, path)
        if first != path:
            _fail(
                EXIT_USAGE,
                f"{first} and {path} share the file name {name!r}, "
                "which would label two rows alike",
            )
    # The files of a chunk are read with one set of label coders, by arity,
    # so that the codes of their cells index the same alphabets.
    coders: dict[int, list] = {}
    held: list[tuple[str, _Cells]] = []  # loaded, row not yet appended

    def flush() -> None:
        reports: list[EntropyReport] = [None] * len(held)
        for arity, lookups in coders.items():
            files = [i for i, (_, (codes, _)) in enumerate(held) if len(codes) == arity]
            if files:  # else only a refused file had this arity
                stack = _stack(lookups, [held[i][1] for i in files])
                for i, rep in zip(files, _full_reports(stack, arity)):
                    reports[i] = rep
        rows = [_csv_row(n, rep, precision, full_precision) for (n, _), rep in zip(held, reports)]
        if rows:  # the chunk's rows, in one append
            _append(output_path, "\n".join(rows))
        for (name, _), rep in zip(held, reports):
            click.echo(f"{name}: {rep.n_cases} cases, {rep.arity} dimensions")
        held.clear()
        coders.clear()

    skipped = 0
    read = partial(_read_cells, coders=coders)
    for name, path in by_name.items():
        loaded = _load(path, drop_empty, keep_going, before_failure=flush, read=read)
        if loaded is None:
            skipped += 1
            continue
        held.append((name, loaded))
        if sum(len(counts) for _, (_, counts) in held) >= _CHUNK_CELLS:
            flush()
    flush()
    appended = len(by_name) - skipped
    click.echo(
        f"batch: {len(by_name)} files, {appended} rows appended, {skipped} skipped", err=True
    )


@main.command()
@_input_option
@click.option(
    "--output",
    "output_path",
    default=None,
    type=click.Path(dir_okay=False, path_type=Path),
    help="Also write the decomposition rows to this CSV file.",
)
@click.option(
    "--group-by",
    "group_by",
    required=True,
    type=click.Choice(list(DIM_NAMES)),
    help="Dimension whose labels define the groups.",
)
@click.option(
    "--subset",
    required=True,
    help="Dimensions to decompose over, e.g. 'wxz' or 'w,x,z'.",
)
@_precision_option
@_drop_empty_option
def decompose(input_path, output_path, group_by, subset, precision, drop_empty):
    """Split the pooled transmission into per-group contributions."""
    if output_path and os.path.exists(output_path) and os.path.samefile(input_path, output_path):
        _fail(EXIT_USAGE, f"--output {output_path} is the same file as --input {input_path}")
    table = _load(input_path, drop_empty)
    try:
        dims = parse_subset(subset)
        result = decompose_by_dimension(table, DIM_NAMES.index(group_by), dims)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    rows = decomposition_rows(result, precision)
    if output_path is not None:
        try:
            with open(output_path, "w", encoding="utf-8", newline="") as fh:
                fh.write("\n".join([DECOMP_HEADER, *rows]) + "\n")
        except OSError as exc:
            _fail(EXIT_IO_ERROR, f"cannot write {output_path}: {exc.strerror or exc}")
    click.echo(
        f"T({subset_name(result.subset)}) grouped by {group_by}: "
        f"{table.arity} dimensions, {len(result.groups)} groups"
    )
    click.echo(DECOMP_HEADER)
    for line in rows:
        click.echo(line)


@main.command()
@_input_option
@click.option(
    "--subset",
    required=True,
    help="Exactly three dimensions, e.g. 'wxy'.",
)
@click.option(
    "--tolerance",
    default=DEFAULT_TOLERANCE,
    show_default=True,
    type=float,
    help="Convergence threshold on the largest margin deviation.",
)
@click.option(
    "--max-iter",
    "max_iter",
    default=DEFAULT_MAX_ITERATIONS,
    show_default=True,
    type=click.IntRange(min=0),
    help="Most scaling iterations; a fit not converged by then exits 4.",
)
@_precision_option
@click.option("--json", "as_json", is_flag=True, help="Emit the summary as JSON.")
@_drop_empty_option
def ipf(input_path, subset, tolerance, max_iter, precision, as_json, drop_empty):
    """Fit the no-three-way-interaction model; report the interaction information."""
    table = _load(input_path, drop_empty)
    try:
        dims = parse_subset(subset)
        table = project(table, dims)
        result = ipf_fit(table, tolerance=tolerance, max_iterations=max_iter)
        interaction = krippendorff_interaction(table, result)
    except TableTooLargeError as exc:
        _fail(EXIT_DATA_ERROR, f"{input_path}: {exc}")
    except NotConvergedError as exc:
        _fail(
            EXIT_NOT_CONVERGED,
            f"no convergence within {exc.iterations} iterations "
            f"(max margin error {exc.max_margin_error:.3e}, tolerance {tolerance:.3e})",
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    t3 = transmission(table, (0, 1, 2))
    redundancy = interaction - t3
    if as_json:
        doc = {
            "subset": subset_name(dims),
            "n_cases": table.total,
            "interaction_bits": interaction,
            "transmission_bits": t3,
            "redundancy_bits": redundancy,
            "redundancy_is_experimental": True,
            "iterations": result.iterations,
            "max_margin_error": result.max_margin_error,
            "tolerance": tolerance,
            "converged": True,
        }
        click.echo(json.dumps(doc, indent=2))
    else:
        click.echo(f"subset: {subset_name(dims)}")
        click.echo(f"cases: {table.total}")
        click.echo(f"interaction_bits: {format_value(interaction, precision)}")
        click.echo(f"transmission_bits: {format_value(t3, precision)}")
        click.echo(f"redundancy_bits (experimental): {format_value(redundancy, precision)}")
        click.echo(f"iterations: {result.iterations}")
        click.echo(f"max_margin_error: {result.max_margin_error:.3e}")
        click.echo("converged: yes")


def run() -> None:
    """The process entry of both the `th4` script and `python -m th4.cli`.

    Every object alive at entry, the imported modules among them, lives
    until exit: gc.freeze() keeps every collection, the interpreter's
    last ones at exit included, from walking them again. Importers and
    CliRunner call `main` and keep a plain gc. The program name is set,
    so that click's usage errors say th4 under `python -m th4.cli` too.
    """
    gc.freeze()
    main(prog_name="th4")


if __name__ == "__main__":
    run()
