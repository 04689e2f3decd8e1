"""README's Library section, run as written and matched against th4.__all__,
so the documented API cannot drift."""

from __future__ import annotations

import ast
import pathlib
import re
import shutil

import th4
from th4 import full_report, load_table

README = pathlib.Path(__file__).parent.parent / "README.md"


def library_section() -> str:
    return README.read_text(encoding="utf-8").split("## Library", 1)[1].split("\n## ", 1)[0]


def library_example() -> str:
    return re.search(r"```python\n(.*?)```", library_section(), re.DOTALL).group(1)


def example_imports() -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(library_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "th4"
        for alias in node.names
    }


def test_library_example_runs(tmp_path, monkeypatch, golden4_path):
    shutil.copy(golden4_path, tmp_path / "data.txt")
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(compile(library_example(), str(README), "exec"), names)
    assert names["report"] == full_report(load_table("data.txt"))
    assert names["bits"] == names["fit"].interaction_bits


def test_public_api_is_what_the_library_section_documents():
    prose = re.sub(r"```.*?```", "", library_section(), flags=re.DOTALL)
    # A backticked span documents the name it starts with: `merge`, `ContingencyTable.from_counts(...)`.
    in_backticks = {re.match(r"\w*", span).group() for span in re.findall(r"`([^`]+)`", prose)}
    imported = example_imports()
    assert sorted(set(th4.__all__) - in_backticks - imported) == []
    assert sorted(imported - set(th4.__all__)) == []
