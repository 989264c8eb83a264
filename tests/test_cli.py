import argparse
import contextlib
import io
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz_sos.certificate import (
    bundled_path,
    certificate_from_json,
    certificate_to_json,
    bundled_certificate,
    load_certificate,
    verify_certificate,
)
from hurwitz_sos import cli
from hurwitz_sos.cli import (
    EXIT_FAIL,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    main,
)
from hurwitz_sos.numeric import derive_seed, random_psd
from hurwitz_sos.validation import (
    CoefficientReport,
    CoefficientRow,
    TrialReport,
    TrialRow,
)

THREE_WORD_ANSATZ = {
    "p": 7,
    "r": 3,
    "blocks": [
        {"prefix": "b", "suffix": None, "basis": ["AAB", "ABA", "BAA"]}
    ],
}


@pytest.fixture
def three_word_ansatz(tmp_path):
    path = tmp_path / "ansatz.json"
    path.write_text(json.dumps(THREE_WORD_ANSATZ))
    return str(path)


# ------------------------------------------------------------------ expand

def test_expand_text(capsys):
    assert main(["expand", "-p", "7", "-r", "3"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out == [
        "AAAABBB 7",
        "AAABABB 7",
        "AAABBAB 7",
        "AABAABB 7",
        "AABABAB 7",
    ]


def test_expand_json(capsys):
    assert main(["expand", "-p", "6", "-r", "3", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"AAABBB": 6, "AABABB": 6, "AABBAB": 6, "ABABAB": 2}


def test_expand_long_word(capsys):
    assert main(["expand", "-p", "1200", "-r", "1"]) == EXIT_OK
    assert capsys.readouterr().out == "A" * 1199 + "B 1200\n"


def test_expand_bad_args(capsys):
    assert main(["expand", "-p", "3", "-r", "9"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err
    assert main(["expand", "-p", "3"]) == EXIT_USAGE


# ------------------------------------------------------------------ verify

def test_verify_bundled_ok(capsys):
    assert main(["verify", "--cert", bundled_path("p7r3.json")]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.strip().endswith("ok")
    assert "matched: true" in out and "psd: true" in out


def test_verify_json_doc(capsys):
    code = main(
        ["verify", "--cert", bundled_path("p7r2.json"), "--format", "json"]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["p"] == 7 and doc["r"] == 2
    assert doc["residual"] == {}
    assert doc["min_pivots"] == [[7, 1]]


def test_verify_residual_failure(tmp_path, capsys):
    doc = certificate_to_json(bundled_certificate("p7r3.json"))
    # perturb one diagonal entry: breaks matching but stays PSD
    doc["blocks"][0]["gram"][0][0] = {"re": [8, 1], "im": [0, 1]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--cert", str(path)]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "matched: false" in out
    assert "AABAABB 1" in out
    assert out.strip().endswith("FAILED")


def test_verify_non_psd_failure(tmp_path, capsys):
    doc = certificate_to_json(bundled_certificate("p7r1.json"))
    doc["blocks"][0]["gram"][0][0] = {"re": [-7, 1], "im": [0, 1]}
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--cert", str(path)]) == EXIT_FAIL
    assert "witness" in capsys.readouterr().out


def test_verify_missing_file(capsys):
    assert main(["verify", "--cert", "/nonexistent/c.json"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_verify_malformed_file(tmp_path, capsys):
    path = tmp_path / "trunc.json"
    path.write_text('{"p": 7,')
    assert main(["verify", "--cert", str(path)]) == EXIT_USAGE
    doc = certificate_to_json(bundled_certificate("p7r3.json"))
    doc["r"] = True
    path.write_text(json.dumps(doc))
    assert main(["verify", "--cert", str(path)]) == EXIT_USAGE
    assert "p and r must be integers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["verify --cert", "validate --cert", "search --ansatz"]
)
def test_deeply_nested_json_exits_usage(tmp_path, command):
    """JSON nested past the parser's recursion limit is malformed input, not a crash."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    out = subprocess.run(
        [sys.executable, "-m", "hurwitz_sos.cli", *command.split(), str(path)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == EXIT_USAGE
    assert out.stderr.startswith("error: ") and "nested too deeply" in out.stderr
    assert "Traceback" not in out.stderr


# ------------------------------------------------------------------ search

def test_search_finds_certificate(tmp_path, three_word_ansatz, capsys):
    out_path = tmp_path / "found.json"
    code = main(
        [
            "search",
            "--ansatz",
            three_word_ansatz,
            "--cert",
            str(out_path),
            "--seed",
            "0",
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "status: certificate" in out
    assert out_path.exists()
    found = load_certificate(str(out_path))
    assert verify_certificate(found).ok
    assert (found.p, found.r) == (7, 3)


def test_search_json_certificate(tmp_path, three_word_ansatz, capsys):
    out_path = tmp_path / "found.json"
    argv = ["--ansatz", three_word_ansatz, "--cert", str(out_path), "--format", "json"]
    assert main(["search"] + argv) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "certificate" and doc["witness"] is None
    found = certificate_from_json(doc["certificate"])
    assert verify_certificate(found).ok
    assert found == load_certificate(str(out_path))


@pytest.mark.parametrize("where", ["missing/found.json", "."])
def test_search_rejects_unwritable_cert_before_searching(
    tmp_path, three_word_ansatz, monkeypatch, capsys, where
):
    # a path whose directory is missing, or a directory: the search, which
    # may run for minutes, must not start when its result cannot be saved
    def fail(*_args):
        raise AssertionError("feasibility_search ran")

    monkeypatch.setattr(cli, "feasibility_search", fail)
    cert = str(tmp_path / where)
    code = main(["search", "--ansatz", three_word_ansatz, "--cert", cert])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --cert ") and cert in captured.err


def test_search_rejects_empty_cert_before_searching(three_word_ansatz, monkeypatch, capsys):
    # an empty --cert names no file: it must not pass as "no --cert given"
    def fail(*_args):
        raise AssertionError("feasibility_search ran")

    monkeypatch.setattr(cli, "feasibility_search", fail)
    assert main(["search", "--ansatz", three_word_ansatz, "--cert", ""]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --cert must be a nonempty path\n"


def test_search_infeasible_restricted_ansatz(capsys):
    code = main(
        ["search", "--ansatz", bundled_path("p6r3_restricted_ansatz.json")]
    )
    assert code == EXIT_INFEASIBLE
    out = capsys.readouterr().out
    assert "status: infeasible" in out
    assert "witness" in out and "-4" in out


def test_search_infeasible_json(capsys):
    code = main(
        [
            "search",
            "--ansatz",
            bundled_path("p6r3_restricted_ansatz.json"),
            "--format",
            "json",
        ]
    )
    assert code == EXIT_INFEASIBLE
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "infeasible"
    assert doc["witness"]["vector"] == [[1, 1, 0, 1], [-1, 1, 0, 1]]


def test_search_unknown(tmp_path, capsys):
    ansatz = {
        "p": 6,
        "r": 3,
        "blocks": [
            {"prefix": "a", "suffix": "b", "basis": ["AB", "BA"]},
            {"prefix": "b", "suffix": "a", "basis": ["AB", "BA"]},
        ],
    }
    path = tmp_path / "two.json"
    path.write_text(json.dumps(ansatz))
    code = main(["search", "--ansatz", str(path), "--max-iter", "6"])
    assert code == EXIT_UNKNOWN
    out = capsys.readouterr().out
    assert "status: unknown" in out
    # the last iterate is rounded over the whole 17-rung ladder
    (line,) = [l for l in out.splitlines() if l.startswith("rounding: ")]
    assert sum(int(word) for word in line.split() if word.isdigit()) == 17


def test_search_unreachable_is_infeasible(tmp_path, capsys):
    ansatz = {
        "p": 7,
        "r": 3,
        "blocks": [{"prefix": "b", "suffix": None, "basis": ["AAB"]}],
    }
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(ansatz))
    assert main(["search", "--ansatz", str(path)]) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert "infeasible" in captured.err
    assert captured.out == ""


def test_search_unreachable_json(tmp_path, capsys):
    ansatz = {
        "p": 7,
        "r": 3,
        "blocks": [{"prefix": "b", "suffix": None, "basis": ["AAB"]}],
    }
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(ansatz))
    code = main(["search", "--ansatz", str(path), "--format", "json"])
    assert code == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert "infeasible" in captured.err
    assert json.loads(captured.out) == {
        "status": "infeasible",
        "iterations": 0,
        "certificate": None,
        "witness": None,
        "rounding": {"skipped": 0, "float_rejected": 0, "exact": 0},
        "missing": ["AAAABBB", "AAABABB", "AAABBAB", "AABABAB"],
    }


def test_search_flag_conflicts(three_word_ansatz, capsys):
    code = main(["search", "--ansatz", three_word_ansatz, "-p", "6"])
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_search_needs_p_and_r(tmp_path, capsys):
    path = tmp_path / "bare.json"
    path.write_text(
        json.dumps(
            {"blocks": [{"prefix": "b", "suffix": None, "basis": ["AAB"]}]}
        )
    )
    assert main(["search", "--ansatz", str(path)]) == EXIT_USAGE


def test_search_shape_mismatch(tmp_path, capsys):
    path = tmp_path / "mismatch.json"
    path.write_text(
        json.dumps(
            {"blocks": [{"prefix": "b", "suffix": None, "basis": ["AAB"]}]}
        )
    )
    assert main(["search", "--ansatz", str(path), "-p", "6", "-r", "3"]) == EXIT_USAGE


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed(three_word_ansatz, capsys, seed):
    for command in (
        ["search", "--ansatz", three_word_ansatz],
        ["validate", "--cert", bundled_path("p7r3.json"), "--trials", "1"],
        ["bmv-check", "-p", "3", "--trials", "1"],
    ):
        assert main(command + ["--seed", str(seed)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: --seed must be an int in [0, 2**64), got {seed}\n"


def test_seed_ignores_the_environment(three_word_ansatz, monkeypatch, capsys):
    """A run depends on its flags alone: no environment variable sets or
    breaks the seed."""
    commands = (
        ["search", "--ansatz", three_word_ansatz, "--format", "json"],
        ["bmv-check", "-p", "3", "--trials", "1", "--format", "json"],
    )
    monkeypatch.delenv("HURWITZ_SOS_SEED", raising=False)
    unset = []
    for command in commands:
        assert main(command) == EXIT_OK
        unset.append(capsys.readouterr().out)
    for value in ("not-a-number", "5"):
        monkeypatch.setenv("HURWITZ_SOS_SEED", value)
        for command, want in zip(commands, unset):
            assert main(command) == EXIT_OK, value
            assert capsys.readouterr().out == want


def test_seed_whose_trials_pass_2_to_the_64(capsys):
    # 2^64 - 1 is a seed, but the second of its trial seeds would not be
    args = ["--trials", "2", "--dims", "1", "--seed", str(2**64 - 1)]
    assert main(["validate", "--cert", bundled_path("p7r3.json")] + args) == EXIT_USAGE
    assert "error: seed must lie in [0, 2**64 - 2]" in capsys.readouterr().err
    # bmv-check runs --trials trials in all, so 2^64 - 3 leaves room for 3
    args = ["bmv-check", "-p", "3", "--trials", "3"]
    assert main(args + ["--seed", str(2**64 - 3)]) == EXIT_OK
    assert "3/3 trials passed" in capsys.readouterr().out
    assert main(args + ["--seed", str(2**64 - 2)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: seed must lie in [0, 2**64 - 3]" in err and "3 trial seeds" in err


# ------------------------------------------------------------------ validate

def test_validate_ok(capsys):
    code = main(
        [
            "validate",
            "--cert",
            bundled_path("p7r3.json"),
            "--trials",
            "3",
            "--dims",
            "1,2",
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "trials passed" in out
    assert "scalar(2,3)" in out


def test_validate_json(capsys):
    code = main(
        [
            "validate",
            "--cert",
            bundled_path("p7r0.json"),
            "--trials",
            "2",
            "--dims",
            "2",
            "--format",
            "json",
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["failed"] == 0
    assert len(doc["rows"]) == 2 + 2  # scalar + identity + two trials


def test_validate_rejects_broken_certificate(tmp_path, capsys):
    doc = certificate_to_json(bundled_certificate("p7r3.json"))
    doc["blocks"][0]["gram"][0][0] = {"re": [8, 1], "im": [0, 1]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--cert", str(path)]) == EXIT_FAIL
    assert "failed exact verification" in capsys.readouterr().err


def test_validate_eigensolver_failure_exits_fail(monkeypatch, capsys):
    def fail(_H):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code = main(["validate", "--cert", bundled_path("p7r3.json"), "--trials", "1"])
    assert code == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "did not converge" in err


def test_search_eigensolver_failure_exits_fail(three_word_ansatz, monkeypatch, capsys):
    # the search's projections and its rounding filter share one mapping
    # of LAPACK's failure to ConvergenceError
    def fail(_H):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert main(["search", "--ansatz", three_word_ansatz]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "did not converge" in err


def test_validate_prints_the_failing_trial(monkeypatch, capsys):
    row = TrialRow(
        p=7,
        r=3,
        n=2,
        label="12345",
        oracle=1.0,
        value=2.0,
        abs_diff=1.0,
        passed=False,
    )
    report = TrialReport(rows=(row,), tol_rel=1e-8)
    monkeypatch.setattr(cli, "validate_certificate_trials", lambda cert, config: report)
    args = ["validate", "--cert", bundled_path("p7r3.json"), "--trials", "1"]
    assert main(args) == EXIT_FAIL
    captured = capsys.readouterr()
    assert "0/1 trials passed" in captured.out
    assert captured.err.splitlines() == [
        "FAILED trial: n=2 trial=12345 (rerun with --seed as recorded)"
    ]


@pytest.mark.parametrize(
    "command",
    [["validate", "--cert", bundled_path("p7r3.json")], ["bmv-check", "-p", "5"]],
)
def test_trial_commands_reject_dimension_zero(command, capsys):
    assert main(command + ["--dims", "0"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (
            ["search", "--ansatz", bundled_path("p6r3_restricted_ansatz.json"),
             "--max-iter", "0"],
            "--max-iter",
        ),
        (["validate", "--cert", bundled_path("p7r3.json"), "--trials", "0"], "--trials"),
        (["bmv-check", "-p", "3", "--trials", "0"], "--trials"),
        (["bmv-check", "-p", "3", "--dims", "2,0"], "--dims entry"),
    ],
    ids=["max-iter", "trials-validate", "trials-bmv-check", "dims"],
)
def test_rejected_value_names_its_flag(capsys, argv, flag):
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {flag} must be a positive int, got 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["bmv-check", "-p", "3", "--dims", ","],
        ["validate", "--cert", bundled_path("p7r3.json"), "--dims", ""],
    ],
    ids=["bmv-check", "validate"],
)
def test_empty_dims_names_the_flag(capsys, argv):
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: --dims must name at least one dimension, got {argv[-1]!r}\n"
    )


def test_validate_bad_dims(capsys):
    code = main(
        ["validate", "--cert", bundled_path("p7r3.json"), "--dims", "2,x"]
    )
    assert code == EXIT_USAGE


# ------------------------------------------------------------------ bmv-check

def test_bmv_check_ok(capsys):
    code = main(["bmv-check", "-p", "5", "--trials", "6", "--dims", "2,3"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "6/6 trials passed" in out


def test_bmv_check_json(capsys):
    code = main(
        ["bmv-check", "-p", "6", "--trials", "4", "--format", "json"]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["p"] == 6
    assert doc["summary"]["trials"] == 4
    assert all(row["passed"] for row in doc["rows"])


def test_bmv_check_prints_the_failing_pair(monkeypatch, capsys):
    """A failing row is printed with the pair its seed draws, rebuilt here
    from the seed alone."""
    n, seed = 3, 987654321
    row = CoefficientRow(
        p=7,
        n=n,
        trial_seed=seed,
        coefficients=(1.0, -0.5) + (1.0,) * 6,
        min_coefficient=-0.5,
        threshold=1e-9,
        passed=False,
    )
    report = CoefficientReport(rows=(row,), tol=1e-9)
    monkeypatch.setattr(cli, "bmv_check_trials", lambda p, config: report)
    assert main(["bmv-check", "-p", "7", "--trials", "1"]) == EXIT_FAIL
    err = capsys.readouterr().err
    prefix = "counterexample candidate: "
    (line,) = [x for x in err.splitlines() if x.startswith(prefix)]
    candidate = json.loads(line[len(prefix):])
    assert (candidate["p"], candidate["n"], candidate["seed"]) == (7, n, seed)
    assert candidate["coefficients"] == list(row.coefficients)
    for key, index in (("A", 0), ("B", 1)):
        want = random_psd(n, derive_seed(seed, index))
        got = np.array(candidate[key])
        assert np.array_equal(got[..., 0] + 1j * got[..., 1], want)


def test_bmv_check_bad_p(capsys):
    assert main(["bmv-check", "-p", "0", "--trials", "1"]) == EXIT_USAGE


def test_bmv_check_overflow_exits_fail(capsys):
    # at p = 400 the word-sum traces overflow double precision
    code = main(["bmv-check", "-p", "400", "--trials", "1", "--dims", "3"])
    assert code == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "not finite" in captured.err
    assert "counterexample candidate" not in captured.err


# ------------------------------------------------------------------ boundary

# values a mutation puts in place of one node of a valid document
JSON_VALUES = st.sampled_from(
    [None, True, False, 0, -1, 2**70, 1.5, math.nan, [], [1, 0], {}]
) | st.text(alphabet="ABab x", max_size=4)


def _node_paths(doc, path=()):
    """The key path of every node of a JSON document, the root first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _node_paths(value, path + (key,))


def _replaced(doc, path, value):
    """``doc`` with the node at ``path`` replaced by ``value``, as a new document."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def mutated_documents(draw):
    """JSON text of a bundled certificate or ansatz with one node replaced."""
    name = draw(st.sampled_from(["p7r3.json", "p6r3_restricted_ansatz.json"]))
    with open(bundled_path(name)) as fh:
        doc = json.load(fh)
    path = draw(st.sampled_from(list(_node_paths(doc))))
    doc = _replaced(doc, path, draw(JSON_VALUES))
    depth = draw(st.sampled_from([0, 0, 0, 100_000]))
    return "[" * depth + json.dumps(doc) + "]" * depth


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("mutated") / "doc.json")


@settings(max_examples=150, deadline=None)
@given(text=mutated_documents())
def test_malformed_documents_exit_with_a_documented_code(doc_path, text):
    """A mutated or deeply nested file never raises out of the CLI, exits with a
    documented code, and exits 2 only with an ``error:`` line."""
    with open(doc_path, "w") as fh:
        fh.write(text)
    for argv in (
        ["verify", "--cert", doc_path],
        ["validate", "--cert", doc_path, "--trials", "1", "--dims", "1"],
        ["search", "--ansatz", doc_path, "--max-iter", "50"],
    ):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_INFEASIBLE, EXIT_UNKNOWN)
        if code == EXIT_USAGE:
            assert err.getvalue().startswith("error: "), (argv, err.getvalue())


# ------------------------------------------------------------------ parser

def test_unknown_subcommand():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_every_option_has_help():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == {"expand", "verify", "search", "validate", "bmv-check"}
    for name, subparser in sub.choices.items():
        for action in subparser._actions:
            if action.option_strings and action.dest != "help":
                assert action.help, (name, action.option_strings)


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "hurwitz_sos.cli", "expand", "-p", "5", "-r", "2", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"AABAB": 5, "AAABB": 5}


@pytest.mark.skipif(shutil.which("hurwitz-sos") is None, reason="script not on PATH")
def test_console_script():
    out = subprocess.run(
        ["hurwitz-sos", "expand", "-p", "4", "-r", "2", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"AABB": 4, "ABAB": 2}
