"""The README's library quick start runs as written."""

import re
from pathlib import Path

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
