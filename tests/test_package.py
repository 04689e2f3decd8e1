"""The lazy package import, the CLI's BLAS thread setting and its entry.

Each test runs in a fresh interpreter, since what it checks is what an
import or a process entry does to a process that has not loaded th4 or
numpy yet.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

import th4
from th4.cli import main

SRC = pathlib.Path(th4.__file__).resolve().parent.parent


def spawn(*args: str, **env: str) -> subprocess.CompletedProcess:
    """`python *args` with th4 importable, OPENBLAS_NUM_THREADS unset
    unless given in `env`."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), environ.get("PYTHONPATH")]))
    environ.update(env)
    return subprocess.run(
        [sys.executable, *args], env=environ, capture_output=True, text=True, check=False
    )


def child(code: str, **env: str) -> str:
    """stdout of `python -c code`, which must succeed."""
    proc = spawn("-c", code, **env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_numpy():
    assert child("import sys, th4; print('numpy' in sys.modules)") == "False"


def test_every_public_name_resolves_and_is_listed():
    code = (
        "import th4\n"
        "names = dir(th4)\n"
        "for name in th4.__all__:\n"
        "    assert getattr(th4, name).__name__ == name, name\n"
        "    assert name in names, name\n"
        "print(len(th4.__all__), th4.__version__)"
    )
    assert child(code) == f"{len(th4.__all__)} {th4.__version__}"


def test_dir_lists_every_public_name():
    # In process, unlike the child above, so th4's own __dir__ is what runs.
    assert set(th4.__all__) <= set(dir(th4))


def test_star_import():
    code = "from th4 import *\nprint(sorted(k for k in globals() if not k.startswith('__')))"
    assert child(code) == str(sorted(th4.__all__))


def test_unknown_name_is_an_attribute_error():
    code = (
        "import th4\n"
        "try:\n"
        "    th4.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)"
    )
    assert child(code) == "module 'th4' has no attribute 'no_such_name'"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_import_starts_no_blas_threads():
    code = "import os, th4.cli; print(len(os.listdir('/proc/self/task')))"
    assert child(code) == "1"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_a_fit_after_cli_import_starts_no_blas_threads():
    # The fit's matrix products are its BLAS calls.
    code = (
        "import os, th4.cli\n"
        "from th4 import ContingencyTable, ipf_fit\n"
        "counts = {(f'a{i % 40}', f'b{i % 30}', f'c{i % 7}'): 1 + i % 3 for i in range(900)}\n"
        "fit = ipf_fit(ContingencyTable.from_counts(3, counts))\n"
        "assert fit.iterations > 0\n"
        "print(len(os.listdir('/proc/self/task')))"
    )
    assert child(code) == "1"


def test_caller_thread_setting_wins():
    code = "import os, th4.cli, numpy; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert child(code, OPENBLAS_NUM_THREADS="2") == "2"


def test_only_the_process_entry_freezes_the_heap():
    # Importers, and CliRunner with them, keep a plain gc.
    assert child("import gc, th4.cli; print(gc.get_freeze_count())") == "0"
    code = (
        "import gc, runpy, sys\n"
        "sys.argv = ['th4', '--version']\n"
        "try:\n"
        "    runpy.run_module('th4.cli', run_name='__main__')\n"
        "except SystemExit:\n"
        "    print(gc.get_freeze_count() > 0)"
    )
    assert child(code).splitlines()[-1] == "True"


def test_module_entry_matches_the_click_app(golden4_path, tmp_path):
    args = ["report", "--input", str(golden4_path), "--output"]
    proc = spawn("-m", "th4.cli", *args, str(tmp_path / "entry.csv"))
    result = CliRunner().invoke(main, [*args, str(tmp_path / "runner.csv")])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, result.stdout, "")
    assert result.exit_code == 0
    assert (tmp_path / "entry.csv").read_bytes() == (tmp_path / "runner.csv").read_bytes()


def test_module_entry_on_a_bad_file_exits_3(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"a,1,2,3\nb,1,2\n")
    args = ["report", "--input", str(path), "--output", str(tmp_path / "out.csv")]
    proc = spawn("-m", "th4.cli", *args)
    result = CliRunner().invoke(main, args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", result.stderr)
    assert result.exit_code == 3
    assert len(proc.stderr.splitlines()) == 1


def test_module_entry_names_itself_th4_in_usage_errors(golden4_path):
    args = ["decompose", "--input", str(golden4_path), "--group-by", "y"]  # no --subset
    proc = spawn("-m", "th4.cli", *args)
    result = CliRunner().invoke(main, args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", result.stderr)
    assert result.exit_code == 2
    assert proc.stderr.startswith("Usage: th4 decompose [OPTIONS]\n")
