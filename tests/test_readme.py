"""README's Library example, run as written, so the documented API cannot drift."""

from __future__ import annotations

import pathlib
import re
import shutil

from th4 import full_report, load_table

README = pathlib.Path(__file__).parent.parent / "README.md"


def library_example() -> str:
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)


def test_library_example_runs(tmp_path, monkeypatch, golden4_path):
    shutil.copy(golden4_path, tmp_path / "data.txt")
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(compile(library_example(), str(README), "exec"), names)
    assert names["report"] == full_report(load_table("data.txt"))
    assert names["bits"] == names["fit"].interaction_bits
