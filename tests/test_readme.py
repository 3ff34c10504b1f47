"""The README's library example runs against the current API."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_prints_its_comments():
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    # each print line ends in a comment that states what it prints
    expected = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        assert want.startswith(got), (got, want)


def test_config_reference_lists_every_key():
    import formflow.config as config

    section = README.read_text().split("### Config format", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `\[(\w+)[^\]]*\]` \| `([^`]+)` \|", section, re.M)
    assert sorted(rows) == sorted((key.section, key.key) for key in config._KEYS)


def test_preset_table_lists_each_bundled_summary():
    import formflow.systems as sy

    section = README.read_text().split("### Bundled presets", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (.+) \|$", section, re.M)
    assert rows == [(name, text.splitlines()[0][2:]) for name, text in sy.PRESETS.items()]
