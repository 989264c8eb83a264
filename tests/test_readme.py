"""The README's Python examples run as written and print what they say,
and its command-line block names the options the parser has."""

import argparse
import contextlib
import io
import re
from pathlib import Path

from hurwitz_sos import cli

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


def command_line_options():
    """Each subcommand of the README's "## Command line" block with the
    options its lines name; an indented line continues the one above."""
    section = README.read_text().split("## Command line\n", 1)[1]
    block = re.search(r"^```text\n(.*?)^```$", section, re.M | re.S).group(1)
    options = {}
    for line in block.splitlines():
        line = line.split("#", 1)[0]
        if line.startswith("hurwitz-sos "):
            command = line.split()[1]
        options.setdefault(command, set()).update(
            re.findall(r"(?<![\w-])--?[a-z][a-z-]*", line)
        )
    return options


def test_readme_command_line_matches_the_parser():
    (sub,) = [
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    readme = command_line_options()
    assert set(readme) == set(sub.choices)
    for command, named in readme.items():
        actions = sub.choices[command]._option_string_actions
        assert named <= set(actions), (command, named - set(actions))
        for action in set(actions.values()):
            if action.dest not in ("help", "format"):
                assert named & set(action.option_strings), (command, action.option_strings)
