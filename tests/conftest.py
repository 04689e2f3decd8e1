from __future__ import annotations

import pathlib

import pytest

import oracles
from th4.ingest import load_table

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def golden4_path():
    return DATA / "golden4.txt"


@pytest.fixture(scope="session")
def golden3_path():
    return DATA / "golden3.txt"


@pytest.fixture(scope="session")
def golden4(golden4_path):
    """The label rows of golden4.txt, as the reference reader parses them."""
    return oracles.read_rows(golden4_path)


@pytest.fixture(scope="session")
def golden3(golden3_path):
    return oracles.read_rows(golden3_path)


@pytest.fixture(scope="session")
def golden4_table(golden4_path):
    return load_table(golden4_path)


@pytest.fixture(scope="session")
def golden3_table(golden3_path):
    return load_table(golden3_path)
