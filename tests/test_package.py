"""The lazy package import and the CLI's BLAS thread setting.

Each test runs in a fresh interpreter, since what it checks is what an
import does to a process that has not loaded th4 or numpy yet.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import th4

SRC = pathlib.Path(th4.__file__).resolve().parent.parent


def child(code: str, **env: str) -> str:
    """stdout of `python -c code` with th4 importable, OPENBLAS_NUM_THREADS
    unset unless given in `env`."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), environ.get("PYTHONPATH")]))
    environ.update(env)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=environ, capture_output=True, text=True, check=False
    )
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
