from __future__ import annotations

import csv
import json
import os
import random
import sys
import threading
import tracemalloc
from math import isqrt

import pytest
from click.testing import CliRunner

import oracles
from th4 import cli, ingest, tables
from th4.cli import (
    CSV_HEADER,
    DECOMP_HEADER,
    EXIT_DATA_ERROR,
    EXIT_IO_ERROR,
    EXIT_NOT_CONVERGED,
    EXIT_USAGE,
    format_value,
    main,
)
from th4.ingest import load_table
from th4.maxent import MAX_DENSE_CELLS, ipf_fit, krippendorff_interaction


@pytest.fixture()
def runner():
    return CliRunner()


def write_rows(path, rows):
    path.write_text("\n".join(",".join(("r",) + row) for row in rows) + "\n", encoding="utf-8")


class TestFormatValue:
    @pytest.mark.parametrize(
        "value,precision,expected",
        [
            (0.8112781244591328, 2, "0.81"),
            (-0.18872187554086717, 2, "-0.19"),
            (0.315, 2, "0.32"),       # ties away from zero
            (-0.315, 2, "-0.32"),
            (2.0, 2, "2.00"),
            (-1.1e-16, 2, "0.00"),    # no negative zero
            (0.5, 0, "1"),
            (0.8112781244591328, 4, "0.8113"),
        ],
    )
    def test_rounding(self, value, precision, expected):
        assert format_value(value, precision) == expected


# The whole `report` listing and --json document of the two golden files:
# a blank line before each block, names padded to 9 and values to 10,
# and every one of the 15 H and 11 T slots, zeros in the Z slots of
# 3-dimension data, in schema order.
GOLDEN4_LISTING = """\
golden4.txt: 4 cases, 4 dimensions, values in bits

H(W)           0.81
H(X)           1.00
H(Y)           1.50
H(Z)           1.00
H(WX)          1.50
H(WY)          2.00
H(WZ)          1.50
H(XY)          1.50
H(XZ)          2.00
H(YZ)          2.00
H(WXY)         2.00
H(WXZ)         2.00
H(WYZ)         2.00
H(XYZ)         2.00
H(WXYZ)        2.00

T(WX)          0.31
T(WY)          0.31
T(WZ)          0.31
T(XY)          1.00
T(XZ)          0.00
T(YZ)          0.50
T(WXY)         0.31
T(WXZ)        -0.19
T(WYZ)        -0.19
T(XYZ)         0.00
T(WXYZ)       -0.19
"""
GOLDEN3_LISTING = """\
golden3.txt: 6 cases, 3 dimensions, values in bits

H(W)           0.00
H(X)           0.92
H(Y)           1.79
H(Z)           0.00
H(WX)          0.92
H(WY)          1.79
H(WZ)          0.00
H(XY)          1.79
H(XZ)          0.00
H(YZ)          0.00
H(WXY)         1.79
H(WXZ)         0.00
H(WYZ)         0.00
H(XYZ)         0.00
H(WXYZ)        0.00

T(WX)          0.00
T(WY)          0.00
T(WZ)          0.00
T(XY)          0.92
T(XZ)          0.00
T(YZ)          0.00
T(WXY)         0.00
T(WXZ)         0.00
T(WYZ)         0.00
T(XYZ)         0.00
T(WXYZ)        0.00
"""
G4_T = 0.31127812445913283
G4_NEG = -0.18872187554086717
GOLDEN4_JSON = {
    "label": "golden4.txt",
    "n_cases": 4,
    "arity": 4,
    "h": {
        "W": 0.8112781244591328, "X": 1.0, "Y": 1.5, "Z": 1.0,
        "WX": 1.5, "WY": 2.0, "WZ": 1.5, "XY": 1.5, "XZ": 2.0, "YZ": 2.0,
        "WXY": 2.0, "WXZ": 2.0, "WYZ": 2.0, "XYZ": 2.0, "WXYZ": 2.0,
    },
    "t": {
        "WX": G4_T, "WY": G4_T, "WZ": G4_T, "XY": 1.0, "XZ": 0.0, "YZ": 0.5,
        "WXY": G4_T, "WXZ": G4_NEG, "WYZ": G4_NEG, "XYZ": 0.0, "WXYZ": G4_NEG,
    },
}
G3_X = 0.9182958340544896
G3_XY = 1.792481250360578
GOLDEN3_JSON = {
    "label": "golden3.txt",
    "n_cases": 6,
    "arity": 3,
    "h": {
        "W": 0.0, "X": G3_X, "Y": G3_XY, "Z": 0.0,
        "WX": G3_X, "WY": G3_XY, "WZ": 0.0, "XY": G3_XY, "XZ": 0.0, "YZ": 0.0,
        "WXY": G3_XY, "WXZ": 0.0, "WYZ": 0.0, "XYZ": 0.0, "WXYZ": 0.0,
    },
    "t": {
        "WX": 0.0, "WY": 0.0, "WZ": 0.0, "XY": G3_X, "XZ": 0.0, "YZ": 0.0,
        "WXY": 0.0, "WXZ": 0.0, "WYZ": 0.0, "XYZ": 0.0, "WXYZ": 0.0,
    },
}


class TestReport:
    @pytest.mark.parametrize(
        "golden,listing,doc",
        [("golden4", GOLDEN4_LISTING, GOLDEN4_JSON), ("golden3", GOLDEN3_LISTING, GOLDEN3_JSON)],
    )
    def test_the_whole_listing_and_json(self, runner, request, tmp_path, golden, listing, doc):
        path = request.getfixturevalue(f"{golden}_path")
        args = ["report", "--input", str(path), "--output", str(tmp_path / "a.csv")]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.output == listing
        result = runner.invoke(main, [*args, "--json"])
        assert result.exit_code == 0
        # String equality pins the key order and every value's repr.
        assert result.output == json.dumps(doc, indent=2) + "\n"

    def test_golden_values_on_stdout_and_in_csv(self, runner, golden4_path, tmp_path):
        out = tmp_path / "runs.csv"
        result = runner.invoke(
            main, ["report", "--input", str(golden4_path), "--output", str(out)]
        )
        assert result.exit_code == 0
        for name, value in oracles.GOLDEN4_DISPLAY.items():
            kind, dims = name.split("_", 1)
            shown = format_value(value, 2)
            assert f"{kind}({dims})" in result.output
            assert shown in result.output
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        row = dict(zip(CSV_HEADER.split(","), lines[1].split(",")))
        assert row["label"] == "golden4.txt"
        assert row["n_cases"] == "4"
        assert row["arity"] == "4"
        for name, value in oracles.GOLDEN4_DISPLAY.items():
            assert row[name] == format_value(value, 2), name

    def test_negative_and_zero_cells_render_exactly(self, runner, golden4_path, tmp_path):
        out = tmp_path / "runs.csv"
        result = runner.invoke(
            main, ["report", "--input", str(golden4_path), "--output", str(out)]
        )
        assert result.exit_code == 0
        row = out.read_text(encoding="utf-8").splitlines()[1]
        assert row.endswith("0.31,-0.19,-0.19,0.00,-0.19")

    def test_append_semantics(self, runner, golden4_path, tmp_path):
        out = tmp_path / "runs.csv"
        for _ in range(2):
            result = runner.invoke(
                main, ["report", "--input", str(golden4_path), "--output", str(out)]
            )
            assert result.exit_code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert lines[0] == CSV_HEADER
        assert lines[1] == lines[2]

    def test_stdout_is_byte_identical_across_runs(self, runner, golden4_path, tmp_path):
        args = ["report", "--input", str(golden4_path), "--output", str(tmp_path / "a.csv")]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_three_dimension_input_zero_fills_z_columns(self, runner, golden3_path, tmp_path):
        out = tmp_path / "runs.csv"
        result = runner.invoke(
            main, ["report", "--input", str(golden3_path), "--output", str(out)]
        )
        assert result.exit_code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        row = dict(zip(CSV_HEADER.split(","), lines[1].split(",")))
        assert row["arity"] == "3"
        for name, value in row.items():
            if "Z" in name:
                assert value == "0.00", name

    def test_json_output_is_full_precision(self, runner, golden4_path, tmp_path):
        result = runner.invoke(
            main,
            [
                "report",
                "--input", str(golden4_path),
                "--output", str(tmp_path / "a.csv"),
                "--json",
            ],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["label"] == "golden4.txt"
        assert doc["n_cases"] == 4
        assert doc["h"]["W"] == pytest.approx(0.8112781244591328, abs=1e-15)
        assert doc["t"]["WXZ"] == pytest.approx(-0.18872187554086717, abs=1e-12)
        assert len(doc["h"]) == 15 and len(doc["t"]) == 11

    def test_precision_flag(self, runner, golden4_path, tmp_path):
        out = tmp_path / "runs.csv"
        result = runner.invoke(
            main,
            ["report", "--input", str(golden4_path), "--output", str(out), "--precision", "4"],
        )
        assert result.exit_code == 0
        assert "0.8113" in result.output
        assert ",0.8113," in out.read_text(encoding="utf-8").splitlines()[1]

    def test_full_precision_csv(self, runner, golden4_path, tmp_path):
        out = tmp_path / "runs.csv"
        result = runner.invoke(
            main,
            ["report", "--input", str(golden4_path), "--output", str(out), "--full-precision"],
        )
        assert result.exit_code == 0
        row = out.read_text(encoding="utf-8").splitlines()[1]
        assert "0.8112781244591328" in row

    def test_label_flag(self, runner, golden4_path, tmp_path):
        out = tmp_path / "runs.csv"
        result = runner.invoke(
            main,
            ["report", "--input", str(golden4_path), "--output", str(out), "--label", "region 1"],
        )
        assert result.exit_code == 0
        assert out.read_text(encoding="utf-8").splitlines()[1].startswith("region 1,")

    def test_label_with_a_comma_and_quotes_is_quoted(self, runner, golden4_path, tmp_path):
        out = tmp_path / "runs.csv"
        label = 'north, "east"'
        args = ["report", "--input", str(golden4_path), "--output", str(out), "--label", label]
        assert runner.invoke(main, args).exit_code == 0
        assert out.read_text(encoding="utf-8").splitlines()[1].startswith('"north, ""east""",4,4,')
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER.split(",")
        assert rows[1][0] == label
        assert len(rows[1]) == 29

    def test_empty_results_file_gets_the_header_first(self, runner, golden4_path, tmp_path):
        out, fresh = tmp_path / "runs.csv", tmp_path / "fresh.csv"
        out.write_bytes(b"")
        for path in (out, fresh):
            args = ["report", "--input", str(golden4_path), "--output", str(path)]
            assert runner.invoke(main, args).exit_code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert out.read_bytes() == fresh.read_bytes()

    def test_drop_empty_labels(self, runner, tmp_path):
        data = tmp_path / "holes.txt"
        data.write_text("a,1,2,3\nb,,2,3\n", encoding="utf-8")
        out = tmp_path / "runs.csv"
        result = runner.invoke(
            main,
            ["report", "--input", str(data), "--output", str(out), "--drop-empty-labels"],
        )
        assert result.exit_code == 0
        assert ",1,3," in out.read_text(encoding="utf-8").splitlines()[1]

    def test_parse_error_exits_with_data_code(self, runner, tmp_path):
        data = tmp_path / "bad.txt"
        data.write_text("a,1,2,3\nshort,line\n", encoding="utf-8")
        result = runner.invoke(main, ["report", "--input", str(data), "--output", str(tmp_path / "o.csv")])
        assert result.exit_code == EXIT_DATA_ERROR
        assert "line 2" in result.stderr

    def test_decode_error_wins_over_a_later_error(self, runner, tmp_path):
        data = tmp_path / "bad.txt"
        data.write_bytes(b"a,1,2,3\nb,\xff,2,3\nc,1,2,3,4\n")
        result = runner.invoke(main, ["report", "--input", str(data), "--output", str(tmp_path / "o.csv")])
        assert result.exit_code == EXIT_DATA_ERROR
        assert "Traceback" not in result.output
        [message] = result.stderr.splitlines()
        assert message.startswith(f"error: {data}: line 2: invalid UTF-8")

    def test_empty_file_exits_with_data_code(self, runner, tmp_path):
        data = tmp_path / "empty.txt"
        data.write_text("\n\n", encoding="utf-8")
        result = runner.invoke(main, ["report", "--input", str(data), "--output", str(tmp_path / "o.csv")])
        assert result.exit_code == EXIT_DATA_ERROR

    def test_missing_input_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["report", "--input", str(tmp_path / "nope.txt")])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "before",
        [CSV_HEADER, CSV_HEADER + "\nold," + "0," * 27 + "0"],
        ids=["header-only", "header-and-row"],
    )
    def test_row_starts_its_own_line_after_a_missing_newline(
        self, runner, golden4_path, tmp_path, before
    ):
        out = tmp_path / "runs.csv"
        out.write_text(before, encoding="utf-8")
        args = ["report", "--input", str(golden4_path), "--output", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith(before + "\n")
        assert runner.invoke(main, args).exit_code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert [len(line.split(",")) for line in lines] == [29] * len(lines)
        assert lines[-2] == lines[-1] == text.splitlines()[-1]

    def test_foreign_header_refuses_append(self, runner, golden4_path, tmp_path):
        out = tmp_path / "runs.csv"
        out.write_text("name,value\nold,1\n", encoding="utf-8")
        result = runner.invoke(main, ["report", "--input", str(golden4_path), "--output", str(out)])
        assert result.exit_code == 1
        assert result.stderr == (
            f"error: {out}: header does not match the th4 columns; refusing to append\n"
        )
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert out.read_text(encoding="utf-8") == "name,value\nold,1\n"

    def test_concurrent_appends_to_a_fresh_file_write_one_header(self, tmp_path):
        row = "run,4,4," + ",".join(["0.50"] * 26)
        workers, rounds = 8, 20
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in range(rounds):
                out = tmp_path / f"runs{n}.csv"
                barrier = threading.Barrier(workers)

                def append():
                    barrier.wait(timeout=10)
                    cli.append_row(out, row)

                threads = [threading.Thread(target=append) for _ in range(workers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                lines = out.read_text(encoding="utf-8").splitlines()
                assert lines == [CSV_HEADER] + [row] * workers
        finally:
            sys.setswitchinterval(switch)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"runs{n}.csv" for n in range(rounds)
        )

    def test_default_file_names(self, runner, golden4_path):
        with runner.isolated_filesystem():
            with open("data.txt", "w", encoding="utf-8") as fh:
                fh.write(golden4_path.read_text(encoding="utf-8"))
            result = runner.invoke(main, ["report"])
            assert result.exit_code == 0
            with open("th4.csv", encoding="utf-8") as fh:
                assert len(fh.read().splitlines()) == 2


class TestBatch:
    def test_rows_in_lexicographic_name_order(self, runner, tmp_path):
        datadir = tmp_path / "regions"
        datadir.mkdir()
        for name in ("c.txt", "a.txt", "b.txt"):
            write_rows(datadir / name, [("1", "2", "3"), ("1", "2", "4")])
        out = tmp_path / "runs.csv"
        result = runner.invoke(main, ["batch", str(datadir), "--output", str(out)])
        assert result.exit_code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["a.txt", "b.txt", "c.txt"]

    def test_file_name_with_a_comma_is_quoted(self, runner, tmp_path):
        datadir = tmp_path / "regions"
        datadir.mkdir()
        for name in ("a,b.txt", "c.txt"):
            write_rows(datadir / name, [("1", "2", "3"), ("1", "2", "4")])
        out = tmp_path / "runs.csv"
        result = runner.invoke(main, ["batch", str(datadir), "--output", str(out)])
        assert result.exit_code == 0
        assert out.read_text(encoding="utf-8").splitlines()[1].startswith('"a,b.txt",2,3,')
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows[1:]] == ["a,b.txt", "c.txt"]
        assert [len(row) for row in rows] == [29] * 3

    def test_same_file_by_two_paths_gives_one_row(self, runner, tmp_path):
        datadir = tmp_path / "regions"
        datadir.mkdir()
        for name in ("a.txt", "b.txt"):
            write_rows(datadir / name, [("1", "2", "3")])
        out = tmp_path / "runs.csv"
        dotted = os.path.join(str(datadir), ".", "a.txt")
        result = runner.invoke(
            main, ["batch", str(datadir / "a.txt"), dotted, str(datadir), "--output", str(out)]
        )
        assert result.exit_code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["a.txt", "b.txt"]

    def test_glob_pattern(self, runner, tmp_path):
        for name in ("r1.txt", "r2.txt", "skip.dat"):
            write_rows(tmp_path / name, [("1", "2", "3")])
        out = tmp_path / "runs.csv"
        result = runner.invoke(main, ["batch", str(tmp_path / "r*.txt"), "--output", str(out)])
        assert result.exit_code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 3

    def test_empty_glob_is_usage_error(self, runner, tmp_path):
        out = tmp_path / "runs.csv"
        result = runner.invoke(main, ["batch", str(tmp_path / "none*.txt"), "--output", str(out)])
        assert result.exit_code == 2
        assert not out.exists()

    def test_failure_aborts_but_keeps_prior_rows(self, runner, tmp_path):
        datadir = tmp_path / "regions"
        datadir.mkdir()
        write_rows(datadir / "a.txt", [("1", "2", "3")])
        (datadir / "b.txt").write_text("broken,line\n", encoding="utf-8")
        write_rows(datadir / "c.txt", [("1", "2", "3")])
        out = tmp_path / "runs.csv"
        result = runner.invoke(main, ["batch", str(datadir), "--output", str(out)])
        assert result.exit_code == EXIT_DATA_ERROR
        lines = out.read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["a.txt"]

    def test_keep_going_downgrades_to_warning(self, runner, tmp_path):
        datadir = tmp_path / "regions"
        datadir.mkdir()
        write_rows(datadir / "a.txt", [("1", "2", "3")])
        (datadir / "b.txt").write_text("broken,line\n", encoding="utf-8")
        write_rows(datadir / "c.txt", [("1", "2", "3")])
        out = tmp_path / "runs.csv"
        result = runner.invoke(main, ["batch", str(datadir), "--output", str(out), "--keep-going"])
        assert result.exit_code == 0
        assert "warning" in result.stderr
        lines = out.read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["a.txt", "c.txt"]

    def test_summary_line_counts_files_rows_and_skips(self, runner, tmp_path):
        datadir = tmp_path / "regions"
        datadir.mkdir()
        write_rows(datadir / "a.txt", [("1", "2", "3"), ("1", "2", "4")])
        (datadir / "b.txt").write_text("broken,line\n", encoding="utf-8")
        write_rows(datadir / "c.txt", [("1", "2", "3")])
        out = tmp_path / "runs.csv"
        result = runner.invoke(main, ["batch", str(datadir), "--output", str(out), "--keep-going"])
        assert result.exit_code == 0
        assert result.stdout == "a.txt: 2 cases, 3 dimensions\nc.txt: 1 cases, 3 dimensions\n"
        warning, summary = result.stderr.splitlines()
        assert warning.startswith(f"warning: skipping {datadir / 'b.txt'}: ")
        assert summary == "batch: 3 files, 2 rows appended, 1 skipped"
        # The results file is what two report runs append.
        expected = tmp_path / "expected.csv"
        for name in ("a.txt", "c.txt"):
            args = ["report", "--input", str(datadir / name), "--output", str(expected)]
            assert runner.invoke(main, args).exit_code == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_colliding_file_names_are_refused(self, runner, tmp_path):
        paths = []
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
            paths.append(tmp_path / folder / "x.txt")
            write_rows(paths[-1], [("1", "2", "3")])
        out = tmp_path / "runs.csv"
        result = runner.invoke(main, ["batch", *map(str, paths), "--output", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert not out.exists()
        [message] = result.stderr.splitlines()
        assert message.startswith("error: ")
        assert "'x.txt'" in message and str(paths[0]) in message and str(paths[1]) in message

    def test_unreadable_input_is_io_error_and_keeps_prior_rows(
        self, runner, tmp_path, monkeypatch
    ):
        write_rows(tmp_path / "a.txt", [("1", "2", "3")])
        missing = tmp_path / "gone.txt"  # matched, then removed before it is read
        monkeypatch.setattr(
            cli, "_expand_inputs", lambda inputs, results: [str(tmp_path / "a.txt"), str(missing)]
        )
        out = tmp_path / "runs.csv"
        result = runner.invoke(main, ["batch", str(tmp_path), "--output", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.stderr == f"error: cannot read {missing}: No such file or directory\n"
        lines = out.read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["a.txt"]

    def test_results_file_in_an_input_directory_is_not_read(self, runner, tmp_path):
        datadir = tmp_path / "regions"
        datadir.mkdir()
        write_rows(datadir / "a.txt", [("1", "2", "3"), ("1", "2", "4")])
        out = datadir / "runs.csv"
        for _ in range(2):
            result = runner.invoke(main, ["batch", str(datadir), "--output", str(out)])
            assert result.exit_code == 0, result.stderr
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["a.txt", "a.txt"]

    def test_twenty_one_region_files_give_twenty_one_rows(self, runner, tmp_path):
        datadir = tmp_path / "counties"
        datadir.mkdir()
        for i in range(21):
            write_rows(datadir / f"county{i:02d}.txt", [("1", "2", "3"), ("2", "2", "3")])
        out = tmp_path / "runs.csv"
        result = runner.invoke(main, ["batch", str(datadir), "--output", str(out)])
        assert result.exit_code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 22

    @staticmethod
    def write_random_files(folder, seed):
        """Files of 3 or 4 dimensions in random order: clean ones, ones with
        some empty labels, one whose records all carry an empty label, one
        with a bad line and one with no records."""
        rng = random.Random(seed)
        folder.mkdir()
        kinds = ["clean"] * 5 + ["some empty"] * 4 + ["all empty", "bad line", "no records"]
        rng.shuffle(kinds)
        for i, kind in enumerate(kinds):
            path = folder / f"f{i:02d}.txt"
            arity = rng.choice((3, 4))
            labels = ["a", "b", "c", "d"] + [""] * (kind == "some empty")
            rows = [
                tuple(rng.choice(labels) for _ in range(arity))
                for _ in range(rng.randint(1, 40))
            ]
            if kind == "all empty":
                rows = [("",) + row[1:] for row in rows]
            if kind == "bad line":
                rows.insert(len(rows) // 2, ("only",))
            if kind == "no records":
                rows = []
            text = "".join(",".join(("r",) + row) + "\n" for row in rows)
            path.write_text(text, encoding="utf-8")

    @staticmethod
    def assert_per_file_reports(runner, tmp_path, monkeypatch, datadir, options, keep_going):
        """batch over datadir gives the same bytes with every file its own
        chunk and with all files one chunk: the rows and lines of one
        report run per file, up to the first bad file, or past every bad
        file with --keep-going."""
        runs = []
        for bound in (1, 2**40):
            monkeypatch.setattr(cli, "_CHUNK_CELLS", bound)
            out = tmp_path / f"runs{bound}.csv"
            args = ["batch", str(datadir), "--output", str(out), *options]
            result = runner.invoke(main, args + ["--keep-going"] * keep_going)
            assert isinstance(result.exception, (SystemExit, type(None)))
            written = out.read_bytes() if out.exists() else None
            runs.append((written, result.stdout, result.stderr, result.output, result.exit_code))
        assert runs[0] == runs[1]
        expected, lines, exit_code = tmp_path / "expected.csv", [], 0
        for path in sorted(datadir.iterdir()):
            args = ["report", "--input", str(path), "--output", str(expected), *options]
            result = runner.invoke(main, args)
            if result.exit_code == EXIT_DATA_ERROR and not keep_going:
                exit_code = EXIT_DATA_ERROR
                break
            if result.exit_code == 0:
                lines.append(result.stdout.splitlines()[0].removesuffix(", values in bits"))
        written, stdout, _, _, code = runs[0]
        assert written == (expected.read_bytes() if expected.exists() else None)
        assert stdout == "".join(f"{line}\n" for line in lines)
        assert code == exit_code

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("drop_empty", [False, True], ids=["all-labels", "drop-empty"])
    @pytest.mark.parametrize("keep_going", [False, True], ids=["abort", "keep-going"])
    def test_chunked_rows_and_messages_are_the_per_file_ones(
        self, runner, tmp_path, monkeypatch, seed, drop_empty, keep_going
    ):
        datadir = tmp_path / "regions"
        self.write_random_files(datadir, seed)
        options = ["--full-precision"] + ["--drop-empty-labels"] * drop_empty
        self.assert_per_file_reports(runner, tmp_path, monkeypatch, datadir, options, keep_going)

    # The files of a chunk share label coders. Their names sort them so:
    # a 4-dimension file spells its labels bare; a 3-dimension one spells
    # the same labels quoted and padded, next to a wide one and an empty
    # one; then a 4-dimension file teaches new labels in its first lines
    # and has a bad quote many lines on; two files follow that spell its
    # labels, one of them with a label that appears after its first block.
    SPELLED = {
        "a.txt": [f"r{i},w{i % 3},x{i % 2},y{i % 5},z1" for i in range(12)],
        "b.txt": [
            f'r{i},"w{i % 3}", x{i % 2} ,{["y1", "", "label wider than 8"][i % 3]}'
            for i in range(12)
        ],
        "c.txt": [f"r{i},new{i % 4},x1,y{i},z{i % 2}" for i in range(10)]
        + ['bad,"new1,x1,y1,z1']
        + [f"r{i},new1,x1,y1,z1" for i in range(4)],
        "d.txt": [f'r{i}, "new{i % 3}" ,x{i % 2},"y{i}"' for i in range(12)] + ["late,w9,x9,y9"],
        "e.txt": [f'r{i},"new{i % 2}",{"x1" * (i % 4 > 0)}, y{i % 3} ,"z1"' for i in range(12)],
    }

    @pytest.mark.parametrize("block", [16, 64])
    @pytest.mark.parametrize("drop_empty", [False, True], ids=["all-labels", "drop-empty"])
    @pytest.mark.parametrize("keep_going", [False, True], ids=["abort", "keep-going"])
    def test_files_sharing_label_coders_give_the_per_file_rows(
        self, runner, tmp_path, monkeypatch, block, drop_empty, keep_going
    ):
        datadir = tmp_path / "regions"
        datadir.mkdir()
        for name, lines in self.SPELLED.items():
            (datadir / name).write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        monkeypatch.setattr(ingest, "_BLOCK", block)  # each file is read in several blocks
        options = ["--full-precision"] + ["--drop-empty-labels"] * drop_empty
        self.assert_per_file_reports(runner, tmp_path, monkeypatch, datadir, options, keep_going)
        # Each file alone is still read on its own alphabets.
        for name in ("a.txt", "b.txt", "d.txt", "e.txt"):
            path = datadir / name
            expected = oracles.reference_table(path, drop_empty=drop_empty)
            assert load_table(path, drop_empty=drop_empty) == expected

    def test_each_chunk_codes_only_its_own_labels(self, runner, tmp_path, monkeypatch):
        # The label coders go with each chunk, so what they hold stays
        # bounded as the chunk's cells are.
        datadir = tmp_path / "regions"
        datadir.mkdir()
        for i in range(4):
            write_rows(datadir / f"f{i}.txt", [(f"a{i}", "b", "c"), (f"a{i}x", "b", "c")])
        monkeypatch.setattr(cli, "_CHUNK_CELLS", 4)  # two files of two cells each
        stacked, full_reports = [], cli._full_reports
        monkeypatch.setattr(
            cli, "_full_reports", lambda stack, by: stacked.append(stack) or full_reports(stack, by)
        )
        out = tmp_path / "runs.csv"
        assert runner.invoke(main, ["batch", str(datadir), "--output", str(out)]).exit_code == 0
        assert [stack.alphabets[0] for stack in stacked] == [
            ("a0", "a0x", "a1", "a1x"),
            ("a2", "a2x", "a3", "a3x"),
        ]
        assert [stack.alphabets[3] for stack in stacked] == [(0, 1), (0, 1)]

    def test_each_chunk_appends_its_rows_at_once(self, runner, tmp_path, monkeypatch):
        # Six files shaped as the benchmark's batch files: Zipf labels over
        # 12x9x7x5, a third of the records quoted with a space after each comma.
        rng = random.Random(5)
        datadir = tmp_path / "regions"
        datadir.mkdir()
        for i in range(6):
            lines = []
            for n in range(200):
                row = [f"r{n}"]
                for prefix, size in zip("wxyz", (12, 9, 7, 5)):
                    weights = [1 / rank**0.6 for rank in range(1, size + 1)]
                    row.append(f"{prefix}{rng.choices(range(size), weights)[0]}")
                lines.append(", ".join(f'"{f}"' for f in row) if n % 3 == 0 else ",".join(row))
            (datadir / f"f{i}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        cells = [len(load_table(path).counts) for path in sorted(datadir.iterdir())]
        appends, append_row = [], cli.append_row
        monkeypatch.setattr(
            cli, "append_row", lambda path, rows: appends.append(rows) or append_row(path, rows)
        )
        written = []
        for bound in (2**40, max(cells) + 1):  # one chunk, then a chunk per two files
            monkeypatch.setattr(cli, "_CHUNK_CELLS", bound)
            appends.clear()
            out = tmp_path / f"runs{bound}.csv"
            assert runner.invoke(main, ["batch", str(datadir), "--output", str(out)]).exit_code == 0
            assert [rows.count("\n") + 1 for rows in appends] == ([6] if bound == 2**40 else [2] * 3)
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert written[0].decode().splitlines()[1:] == "\n".join(appends).splitlines()
        out = tmp_path / "foreign.csv"
        out.write_text("name,value\nold,1\n", encoding="utf-8")
        result = runner.invoke(main, ["batch", str(datadir), "--output", str(out)])
        assert result.exit_code == 1
        assert result.stderr == (
            f"error: {out}: header does not match the th4 columns; refusing to append\n"
        )
        assert result.stdout == ""
        assert out.read_text(encoding="utf-8") == "name,value\nold,1\n"

    @pytest.mark.parametrize("failure", ["bad data", "bad data, keep going", "unreadable"])
    def test_failure_in_a_chunk_comes_after_the_earlier_rows(
        self, runner, tmp_path, monkeypatch, failure
    ):
        a, b, c = (tmp_path / name for name in ("a.txt", "b.txt", "c.txt"))
        write_rows(a, [("1", "2", "3")])
        write_rows(c, [("1", "2", "3"), ("1", "2", "4")])
        if failure == "unreadable":  # matched, then removed before it is read
            matched = [str(a), str(b), str(c)]
            monkeypatch.setattr(cli, "_expand_inputs", lambda inputs, results: matched)
        else:
            b.write_text("broken,line\n", encoding="utf-8")
        assert cli._CHUNK_CELLS > 3  # the three files make one chunk
        out = tmp_path / "runs.csv"
        args = ["batch", str(tmp_path), "--output", str(out)]
        result = runner.invoke(main, args + ["--keep-going"] * (failure == "bad data, keep going"))
        message = result.stderr.splitlines()[0]
        assert message.startswith(
            {
                "bad data": f"error: {b}: ",
                "bad data, keep going": f"warning: skipping {b}: ",
                "unreadable": f"error: cannot read {b}: No such file or directory",
            }[failure]
        )
        if failure == "bad data, keep going":
            rows = ["a.txt: 1 cases, 3 dimensions", "c.txt: 2 cases, 3 dimensions"]
            summary = "batch: 3 files, 2 rows appended, 1 skipped"
            assert result.output.splitlines() == [rows[0], message, rows[1], summary]
            assert result.exit_code == 0
        else:
            rows = ["a.txt: 1 cases, 3 dimensions"]
            assert result.output.splitlines() == [rows[0], message]
            assert result.exit_code == (1 if failure == "unreadable" else EXIT_DATA_ERROR)
        written = out.read_text(encoding="utf-8").splitlines()[1:]
        assert [line.split(",")[0] for line in written] == [row.split(":")[0] for row in rows]


class TestDecompose:
    def test_golden4_by_region(self, runner, golden4_path, tmp_path):
        out = tmp_path / "decomp.csv"
        result = runner.invoke(
            main,
            [
                "decompose",
                "--input", str(golden4_path),
                "--group-by", "y",
                "--subset", "w,x,z",
                "--output", str(out),
            ],
        )
        assert result.exit_code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == DECOMP_HEADER
        rows = [line.split(",") for line in lines[1:]]
        groups = {row[0]: row for row in rows}
        assert set(groups) == {"region1", "region2", "region5", "pooled", "between"}
        assert groups["region1"][2] == "0.25"
        assert groups["region2"][2] == "0.50"
        assert groups["region5"][2] == "0.25"
        # each group's transmission, cross-checked by brute force
        raw = [
            ("1", "b", "region1", "2"),
            ("2", "a", "region2", "1"),
            ("1", "a", "region2", "2"),
            ("1", "b", "region5", "1"),
        ]
        for label in ("region1", "region2", "region5"):
            member_rows = [r for r in raw if r[2] == label]
            expected = format_value(oracles.t3(member_rows, 0, 1, 3), 2)
            assert groups[label][3] == expected
        assert groups["pooled"][3] == format_value(oracles.t3(raw, 0, 1, 3), 2)
        assert result.output.splitlines()[1] == DECOMP_HEADER

    @pytest.mark.parametrize("link", [False, True], ids=["same-path", "hard-link"])
    def test_output_naming_the_input_is_refused(self, runner, golden4_path, tmp_path, link):
        data = tmp_path / "d.txt"
        data.write_bytes(golden4_path.read_bytes())
        out = tmp_path / "e.txt" if link else data
        if link:
            os.link(data, out)
        args = ["--input", str(data), "--output", str(out), "--group-by", "y", "--subset", "wx"]
        result = runner.invoke(main, ["decompose", *args])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: --output {out} is the same file as --input {data}\n"
        assert data.read_bytes() == golden4_path.read_bytes()

    def test_group_dim_in_subset_is_usage_error(self, runner, golden4_path):
        result = runner.invoke(
            main,
            ["decompose", "--input", str(golden4_path), "--group-by", "w", "--subset", "wxy"],
        )
        assert result.exit_code == 2

    def test_single_group_between_is_zero(self, runner, golden3_path):
        result = runner.invoke(
            main,
            ["decompose", "--input", str(golden3_path), "--group-by", "w", "--subset", "xy"],
        )
        assert result.exit_code == 0
        between = [line for line in result.output.splitlines() if line.startswith("between")]
        assert between == ["between,,,0.00,,"]

    def test_reduction_column_negates_contribution(self, runner, tmp_path):
        data = tmp_path / "parity.txt"
        write_rows(data, [(a, b, str(int(a) ^ int(b)), "g") for a in "01" for b in "01"])
        result = runner.invoke(
            main, ["decompose", "--input", str(data), "--group-by", "z", "--subset", "wxy"]
        )
        assert result.exit_code == 0
        row = [line for line in result.output.splitlines() if line.startswith("g,")][0]
        fields = row.split(",")
        assert fields[4] == "-1.00" and fields[5] == "1.00"


class TestIpf:
    def test_product_input_is_zero(self, runner, tmp_path):
        data = tmp_path / "prod.txt"
        write_rows(data, [t for t in oracles.product_rows([[1, 2], [1, 3], [2, 1]])])
        result = runner.invoke(main, ["ipf", "--input", str(data), "--subset", "wxy"])
        assert result.exit_code == 0
        assert "interaction_bits: 0.00" in result.output
        assert "converged: yes" in result.output

    def test_parity_input_is_one_bit(self, runner, tmp_path):
        data = tmp_path / "parity.txt"
        write_rows(data, oracles.parity_rows(copies=2))
        result = runner.invoke(main, ["ipf", "--input", str(data), "--subset", "wxy"])
        assert result.exit_code == 0
        assert "interaction_bits: 1.00" in result.output
        assert "transmission_bits: -1.00" in result.output
        assert "redundancy_bits (experimental): 2.00" in result.output

    def test_golden4_projection(self, runner, golden4_path):
        result = runner.invoke(
            main, ["ipf", "--input", str(golden4_path), "--subset", "wxy", "--json"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["interaction_bits"] == pytest.approx(0.0, abs=1e-9)
        assert doc["converged"] is True
        assert doc["redundancy_is_experimental"] is True
        assert doc["redundancy_bits"] == pytest.approx(
            doc["interaction_bits"] - doc["transmission_bits"], abs=1e-12
        )

    def test_a_fit_of_the_table_itself_builds_no_label_dict(
        self, runner, monkeypatch, golden3_path, golden4_path
    ):
        # krippendorff_interaction knows its own fit's counts by identity,
        # so neither the command nor the README's library calls compare
        # two tables label by label.
        def refuse(view):
            raise AssertionError("a label dict was built")

        monkeypatch.setattr(tables._CountsView, "_as_dict", refuse)
        for path in (golden3_path, golden4_path):
            result = runner.invoke(main, ["ipf", "--input", str(path), "--subset", "wxy"])
            assert result.exit_code == 0, result.output
        t3 = tables.project(load_table(golden4_path), (0, 1, 2))
        fit = ipf_fit(t3)
        assert krippendorff_interaction(t3, fit) == fit.interaction_bits

    def test_non_convergence_exits_distinctly(self, runner, tmp_path):
        data = tmp_path / "slow.txt"
        write_rows(data, [("0", "0", "0")] * 3 + [("0", "1", "1"), ("1", "0", "1"), ("1", "1", "0")])
        result = runner.invoke(
            main, ["ipf", "--input", str(data), "--subset", "wxy", "--max-iter", "0"]
        )
        assert result.exit_code == EXIT_NOT_CONVERGED
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith("error: no convergence within 0 iterations (max margin error ")
        assert line.endswith(", tolerance 1.000e-10)")

    def test_a_217_label_cube_fits(self, runner, tmp_path):
        # 217**3 cells passed the former 10**7-cell guard on the dense table;
        # the pair tables hold 3 * 217**2 cells.
        k = 217
        data = tmp_path / "wide.txt"
        write_rows(data, [(f"a{i}", f"b{i}", f"c{i}") for i in range(k)])
        result = runner.invoke(main, ["ipf", "--input", str(data), "--subset", "wxy", "--json"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.stdout)
        assert doc["converged"] is True and doc["n_cases"] == k
        assert doc["interaction_bits"] == pytest.approx(0.0, abs=1e-9)

    def test_oversized_pair_tables_are_data_error(self, runner, tmp_path):
        # k labels per dimension give pair tables of 3 * k**2 cells, just past the limit.
        k = isqrt(MAX_DENSE_CELLS // 3) + 1
        assert 3 * k * k > MAX_DENSE_CELLS >= 3 * (k - 1) ** 2
        data = tmp_path / "wide.txt"
        write_rows(data, [(f"a{i}", f"b{i}", f"c{i}") for i in range(k)])
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["ipf", "--input", str(data), "--subset", "wxy"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == EXIT_DATA_ERROR
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line == (
            f"error: {data}: the fit needs pair tables of {3 * k * k} cells "
            f"({k} x {k} x {k} labels), more than {MAX_DENSE_CELLS}"
        )
        # Refused before the fit allocates: one k x k float table is 8 * k**2 bytes.
        assert peak < 8 * k * k / 4

    def test_subset_must_have_three_dimensions(self, runner, golden4_path):
        result = runner.invoke(main, ["ipf", "--input", str(golden4_path), "--subset", "wx"])
        assert result.exit_code == 2

    def test_four_dimension_subset_on_three_dimension_data(self, runner, golden3_path):
        result = runner.invoke(main, ["ipf", "--input", str(golden3_path), "--subset", "wxz"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    def test_tolerance_must_be_finite(self, runner, golden3_path, tolerance):
        result = runner.invoke(
            main, ["ipf", "--input", str(golden3_path), "--subset", "wxy", "--tolerance", tolerance]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.stdout == ""
        [message] = [line for line in result.stderr.splitlines() if "tolerance" in line]
        assert message == "Error: tolerance must be positive and finite"


class TestFailurePaths:
    """Each exits with its code, one message line and no traceback."""

    @pytest.mark.parametrize(
        "command",
        [
            ["report", "--input", "{g4}", "--output", "{out}"],
            ["batch", "{g4}", "--output", "{out}"],
            ["decompose", "--input", "{g4}", "--group-by", "y", "--subset", "wxz", "--output", "{out}"],
        ],
        ids=["report", "batch", "decompose"],
    )
    def test_write_into_a_missing_directory(self, runner, golden4_path, tmp_path, command):
        out = tmp_path / "nodir" / "x.csv"
        args = [a.format(g4=golden4_path, out=out) for a in command]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.stderr == f"error: cannot write {out}: No such file or directory\n"
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "data,command,message",
        [
            ("golden4", ["decompose", "--group-by", "y", "--subset", "w"], "at least two dimensions"),
            ("golden3", ["decompose", "--group-by", "z", "--subset", "wx"], "grouping dimension 3"),
            ("golden3", ["decompose", "--group-by", "w", "--subset", "x,z"], "out of range"),
            ("golden4", ["ipf", "--subset", "wxq"], "unknown dimension 'q'"),
            ("golden4", ["ipf", "--subset", "wx"], "defined for three-dimension tables"),
            ("golden4", ["ipf", "--subset", "wxyz"], "defined for three-dimension tables"),
        ],
        ids=[
            "one-dimension-subset",
            "group-by-absent",
            "subset-absent",
            "unknown-letter",
            "ipf-two-dimensions",
            "ipf-four-dimensions",
        ],
    )
    def test_usage_error(self, runner, request, data, command, message):
        path = request.getfixturevalue(f"{data}_path")
        result = runner.invoke(main, [command[0], "--input", str(path), *command[1:]])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.stdout == ""
        [line] = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
        assert message in line

    @pytest.mark.parametrize(
        "content,flags,message",
        [
            ("\n", ["--label", "region 1"], "no case records"),
            ("a,,2,3\nb,1,,3\n", ["--drop-empty-labels"], "all records carry empty labels"),
        ],
        ids=["empty-file-with-a-label", "only-empty-labels"],
    )
    def test_data_error_names_the_file_once(self, runner, tmp_path, content, flags, message):
        data = tmp_path / "region.txt"
        data.write_text(content, encoding="utf-8")
        out = tmp_path / "runs.csv"
        result = runner.invoke(main, ["report", "--input", str(data), "--output", str(out), *flags])
        assert result.exit_code == EXIT_DATA_ERROR
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.stderr == f"error: {data}: {message}\n"
        assert result.stdout == ""
        assert not out.exists()

    def test_keep_going_warns_once_about_an_empty_file(self, runner, tmp_path):
        good, empty = tmp_path / "a.txt", tmp_path / "b.txt"
        write_rows(good, [("1", "2", "3")])
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "runs.csv"
        result = runner.invoke(
            main, ["batch", str(good), str(empty), "--output", str(out), "--keep-going"]
        )
        assert result.exit_code == 0
        assert "Traceback" not in result.output
        assert result.stderr == (
            f"warning: skipping {empty}: no case records\n"
            "batch: 2 files, 1 rows appended, 1 skipped\n"
        )
        assert result.stdout == "a.txt: 1 cases, 3 dimensions\n"

    def test_batch_refuses_two_files_of_one_name(self, runner, tmp_path):
        first, second = tmp_path / "one" / "a.txt", tmp_path / "two" / "a.txt"
        for path in (first, second):
            path.parent.mkdir()
            write_rows(path, [("1", "2", "3")])
        out = tmp_path / "runs.csv"
        result = runner.invoke(main, ["batch", str(first), str(second), "--output", str(out)])
        assert result.exit_code == EXIT_USAGE
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.stderr == (
            f"error: {first} and {second} share the file name 'a.txt', "
            "which would label two rows alike\n"
        )
        assert result.stdout == ""
        assert not out.exists()


def test_exit_codes_are_distinct():
    # README documents exit codes 0 to 4, one per kind of outcome.
    codes = {0, EXIT_IO_ERROR, EXIT_USAGE, EXIT_DATA_ERROR, EXIT_NOT_CONVERGED}
    assert codes == set(range(5))


def test_version_runs(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "th4" in result.output


def test_report_and_batch_document_their_shared_options_alike(runner):
    helps = [runner.invoke(main, [command, "--help"]).output for command in ("report", "batch")]
    for option in ("--output", "--full-precision"):
        lines = [
            next(line for line in h.splitlines() if line.lstrip().startswith(option))
            for h in helps
        ]
        assert lines[0] == lines[1]
        assert len(lines[0].split()) > 2, f"{option} has no help text"
