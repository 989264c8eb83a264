"""The README's Python examples run as written and print what they say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def expected_output(code):
    """The comment line right after each ``print(`` line, without its '# '."""
    lines = code.splitlines()
    return [
        after[2:]
        for line, after in zip(lines, lines[1:])
        if line.startswith("print(") and after.startswith("# ")
    ]


def test_readme_examples_print_their_comments():
    blocks = python_blocks()
    assert len(blocks) == 2
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for code in blocks:
            exec(compile(code, str(README), "exec"), namespace)
    want = [line for code in blocks for line in expected_output(code)]
    assert len(want) == 2
    assert out.getvalue().splitlines() == want
