"""The README's library quick start runs as written; its config and API tables are complete."""

import re
from dataclasses import fields
from pathlib import Path

import sumdim
from sumdim.cli import RunConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    # every "# -> x" comment in the block is a line it prints
    printed = capsys.readouterr().out.splitlines()
    claimed = re.findall(r"# -> (.*)", blocks[0])
    assert claimed and printed == claimed


def test_readme_config_table_lists_every_config_key():
    text = README.read_text(encoding="utf-8")
    table = text.split("Config keys", 1)[1].split("\n\n")[1]
    keys = set()
    for row in table.splitlines()[2:]:
        keys.update(re.findall(r"`(\w+)`", row.split("|")[1]))
    assert keys == {f.name for f in fields(RunConfig)}


def test_readme_api_table_lists_the_top_level_exports():
    text = README.read_text(encoding="utf-8")
    table = text.split("exports exactly this API:", 1)[1].split("\n\n")[1]
    names = set()
    for row in table.splitlines()[2:]:
        cell = re.sub(r"\(.*?\)", "", row.split("|")[2])  # asides name no export
        names.update(re.findall(r"`(\w+)`", cell))
    assert names == set(sumdim.__all__) - {"__version__"}
