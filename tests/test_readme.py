"""The README's Python examples run as written and print what they say,
its command-line block names the options the parser has, and the names
its examples import are the package's pinned public surface."""

import argparse
import ast
import contextlib
import io
import re
import subprocess
import sys
from pathlib import Path

import hurwitz_sos
from hurwitz_sos import (
    certificate, cli, numeric, options, rational, search, validation, words,
)

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


PUBLIC_API = (
    "AnsatzMismatchError", "Certificate", "CertificateFormatError",
    "CertificateStructureError", "ConstraintMap", "ConvergenceError", "CyclicClass",
    "GaussianRational", "GramMatrix", "NotPsdError", "PsdCheckResult",
    "SandwichBlock", "SearchOptions", "SearchOutcome", "SearchStatus",
    "TracePolynomial", "TrialConfig", "TrialReport",
    "VerifyReport", "__version__", "bmv_check_trials", "bmv_coefficients",
    "build_constraint_map", "bundled_certificate", "bundled_path",
    "certificate_expansion", "certificate_from_json",
    "certificate_to_json", "derive_seed", "eval_certificate_numeric",
    "expand_gram", "feasibility_search", "gaussian_stream", "grat", "hermitian_eig",
    "hurwitz_expand", "load_ansatz", "load_certificate",
    "pair_classes", "psd_check_exact", "psd_sqrt", "quadratic_form",
    "random_psd", "reverse_class",
    "save_certificate", "swap_certificate", "swap_word", "trace_hurwitz_numeric",
    "validate_certificate_trials", "verify_against", "verify_certificate",
)

# Code that left the package; the tests take what they still need of it
# from tests/oracles.py, a determined ansatz goes through
# feasibility_search, an unreachable target is an INFEASIBLE outcome, and
# callers read what a retired pass-through wrapper handed on; one
# TrialReport of rows serves both trial runners, and the command line
# builds each trial summary, line and JSON row from those rows.
REMOVED = (
    (certificate, ("reduce_pair", "gram_from_vectors", "_gram_integers",
                   "_HALF_SQUARED", "_HALF_SWAP", "block_to_json", "entry_to_json",
                   "EntryLike", "entry_from_json", "_pair_to_fraction",
                   "_fraction_to_pair")),
    (certificate.GramMatrix, ("zeros", "scaled_identity", "scaled", "__add__", "entries")),
    (certificate.SandwichBlock, ("product_degree",)),
    (numeric, ("splitmix64_stream", "uniform_stream", "random_hermitian", "_stream",
               "EigResult")),
    (rational.GaussianRational, ("as_tuple",)),
    (search, ("determined_gram", "prove_infeasible_determined", "UnderdeterminedAnsatzError",
              "UnreachableTargetError", "_check_reachable")),
    (validation, ("_trial_row", "_coefficient_row", "_Report", "CoefficientReport",
                  "_report")),
    (validation.TrialReport, ("max_abs_diff", "tol_rel", "summary")),
    (validation.TrialRow, ("format_line", "to_json")),
    (validation.CoefficientRow, ("format_line", "to_json")),
    (cli, ("_UsageError",)),
    (words, ("swap_letters", "least_rotation", "canonical_rotation", "ClassLike",
             "CoefficientLike", "reverse_word", "_class_of", "_necklace_words")),
    (words.TracePolynomial, ("scaled",)),
    (words.CyclicClass, ("representative", "length", "b_count", "_trusted")),
)


def test_public_surface_is_pinned():
    assert tuple(sorted(hurwitz_sos.__all__)) == PUBLIC_API
    for name in hurwitz_sos.__all__:
        getattr(hurwitz_sos, name)
    for owner, names in REMOVED:
        for name in names:
            assert not hasattr(hurwitz_sos, name), name
            assert not hasattr(owner, name), (owner.__name__, name)


def test_each_public_name_is_listed_where_it_is_defined():
    """Every public name but __version__ is in exactly one module's
    ``__all__``, and that module defines it rather than importing it."""
    owners = {}
    for module in (certificate, numeric, options, rational, search, validation, words):
        defined = set()
        for node in ast.parse(Path(module.__file__).read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        for name in module.__all__:
            assert name in defined, (module.__name__, name)
            assert getattr(hurwitz_sos, name) is getattr(module, name), name
            owners.setdefault(name, []).append(module.__name__)
    assert sorted(owners) == sorted(set(hurwitz_sos.__all__) - {"__version__"})
    assert {name: where for name, where in owners.items() if len(where) > 1} == {}


def test_exact_layer_loads_no_numpy():
    """In a fresh interpreter the package loads a module on first use of one
    of its names: expanding and verifying load no numpy, a submodule name
    imports its module, and dir() lists every public name."""
    code = """if True:
        import sys
        import hurwitz_sos
        from hurwitz_sos import bundled_certificate, hurwitz_expand, verify_certificate
        assert {str(c): str(v) for c, v in hurwitz_expand(7, 3).items()}["AAAABBB"] == "7"
        assert verify_certificate(bundled_certificate("p7r3.json")).ok
        assert "numpy" not in sys.modules, "numpy was imported"
        assert hurwitz_sos.kernels.USING_NUMBA is False
        assert "numpy" in sys.modules and "hurwitz_sos.numeric" in sys.modules
        listed = dir(hurwitz_sos)
        assert set(hurwitz_sos.__all__) <= set(listed), set(hurwitz_sos.__all__) - set(listed)
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_readme_imports_only_public_names():
    imported = {
        alias.name
        for code in python_blocks()
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "hurwitz_sos"
        for alias in node.names
    }
    assert "feasibility_search" in imported
    assert imported <= set(hurwitz_sos.__all__), imported - set(hurwitz_sos.__all__)
