import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hurwitz_sos.certificate import (
    bundled_path,
    certificate_from_json,
    certificate_to_json,
    bundled_certificate,
    load_certificate,
    verify_certificate,
)
from hurwitz_sos import cli, search, validation
from hurwitz_sos.cli import (
    EXIT_FAIL,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    main,
)
from hurwitz_sos.numeric import derive_seed, random_psd
from hurwitz_sos.search import SearchOptions
from hurwitz_sos.validation import CoefficientRow, TrialConfig, TrialRow

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


def test_verify_json_pins_a_fractional_complex_residual(tmp_path, capsys):
    doc = certificate_to_json(bundled_certificate("p7r3.json"))
    # pair (1, 2) reduces to AAABBAB and pair (2, 1) to its reverse
    # AAABABB, so the imaginary parts land in two classes and do not cancel
    doc["blocks"][0]["gram"][1][2] = {"re": [15, 2], "im": [1, 3]}
    doc["blocks"][0]["gram"][2][1] = {"re": [15, 2], "im": [-1, 3]}
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--cert", str(path), "--format", "json"]) == EXIT_FAIL
    out = json.loads(capsys.readouterr().out)
    assert out["matched"] is False
    assert out["residual"] == {"AAABABB": [1, 2, -1, 3], "AAABBAB": [1, 2, 1, 3]}


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


@pytest.mark.parametrize("command", ["verify", "validate"])
def test_over_long_integer_is_a_format_error(tmp_path, capsys, command):
    """An int past Python's digit limit for str -> int is malformed input,
    reported with the path like any other invalid JSON."""
    doc = certificate_to_json(bundled_certificate("p7r3.json"))
    doc["blocks"][0]["gram"][0][0]["re"] = ["NUMERATOR", 1]
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc).replace('"NUMERATOR"', "1" * 5000))
    assert main([command, "--cert", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {path}: invalid JSON (Exceeds the limit ")


@contextlib.contextmanager
def _no_digit_limit():
    """Lift Python's digit limit for int <-> str conversions in the block."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _p7r3_with_long_entries(tmp_path, entries):
    """Bundled p7r3 with Gram entries (j, k) -> [num, den] replaced, both
    ways round for an off-diagonal entry: each number stays under Python's
    digit limit for str -> int, so the file parses."""
    doc = certificate_to_json(bundled_certificate("p7r3.json"))
    gram = doc["blocks"][0]["gram"]
    for (j, k), value in entries.items():
        gram[j][k]["re"] = gram[k][j]["re"] = value
    path = tmp_path / "long_results.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_verify_json_prints_a_pivot_past_the_digit_limit(tmp_path, capsys):
    """The report holds exact results, not parsed input, so it is printed in
    full: with d0, d1 about 10^2500, the smallest pivot's numerator and
    denominator have 7501 digits each.  The limit is back in force once the
    command returns."""
    d0, d1 = 10**2500 + 1, 10**2500 + 3
    path = _p7r3_with_long_entries(
        tmp_path, {(0, 0): [7 * d0 + 1, d0], (0, 1): [1, d1], (2, 2): [8, 1]}
    )
    limit = sys.get_int_max_str_digits()
    assert main(["verify", "--cert", path, "--format", "json"]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.err == ""
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(ValueError, match="Exceeds the limit"):
        json.loads(captured.out)
    with _no_digit_limit():
        doc = json.loads(captured.out)
        assert (doc["matched"], doc["psd"]) == (False, True)
        ((num, den),) = doc["min_pivots"]
        assert (len(str(num)), len(str(den))) == (7501, 7501)


def test_verify_text_prints_a_residual_past_the_digit_limit(tmp_path, capsys):
    """Pairs (0, 1), (1, 0) and (1, 1) all reduce to AABABAB, so its residual
    2/d0 + 1/d1 has a denominator of 5001 digits; the text report prints it."""
    d0, d1 = 10**2500 + 1, 10**2500 + 3
    path = _p7r3_with_long_entries(tmp_path, {(0, 1): [1, d0], (1, 1): [7 * d1 + 1, d1]})
    assert main(["verify", "--cert", path]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.endswith("FAILED\n")
    (line,) = [x for x in captured.out.splitlines() if x.startswith("  AABABAB ")]
    with _no_digit_limit():
        assert line == f"  AABABAB {2 * d1 + d0}/{d0 * d1}"


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


@pytest.mark.parametrize("where", ["missing/found.json", ".", "pipe"])
def test_search_rejects_unwritable_cert_before_searching(
    tmp_path, three_word_ansatz, monkeypatch, capsys, where
):
    # a path whose directory is missing, or that is not a regular file (the
    # rename would swap a FIFO or a device for a regular file): the search,
    # which may run for minutes, must not start when its result cannot be saved
    def fail(*_args):
        raise AssertionError("feasibility_search ran")

    monkeypatch.setattr(search, "feasibility_search", fail)
    cert = str(tmp_path / where)
    if where == "pipe":
        os.mkfifo(cert)
    code = main(["search", "--ansatz", three_word_ansatz, "--cert", cert])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --cert ") and cert in captured.err
    if where != "missing/found.json":
        assert captured.err == f"error: --cert {cert} is not a regular file\n"
    assert where != "pipe" or stat.S_ISFIFO(os.stat(cert).st_mode)


def test_search_rejects_empty_cert_before_searching(three_word_ansatz, monkeypatch, capsys):
    # an empty --cert names no file: it must not pass as "no --cert given"
    def fail(*_args):
        raise AssertionError("feasibility_search ran")

    monkeypatch.setattr(search, "feasibility_search", fail)
    assert main(["search", "--ansatz", three_word_ansatz, "--cert", ""]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --cert must be a nonempty path\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_failed_cert_write_still_prints_the_certificate(
    tmp_path, three_word_ansatz, monkeypatch, capsys, fmt
):
    # the write fails only after the search, so its result must reach stdout
    # first: the output is a successful run's, less the "written" line
    saved = str(tmp_path / "saved.json")
    argv = ["search", "--ansatz", three_word_ansatz, "--format", fmt, "--cert"]
    assert main(argv + [saved]) == EXIT_OK
    want = capsys.readouterr().out.replace(f"certificate written to {saved}\n", "")

    def fail(_cert, path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "save_certificate", fail)
    cert = str(tmp_path / "c.json")
    assert main(argv + [cert]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == want and "certificate written" not in captured.out
    assert captured.err == f"error: --cert {cert}: [Errno 13] Permission denied: {cert!r}\n"
    if fmt == "json":
        found = certificate_from_json(json.loads(captured.out)["certificate"])
        assert verify_certificate(found).ok and found == load_certificate(saved)
    else:
        assert captured.out.startswith("status: certificate\n")
        assert "block 0 [b|AAB,ABA,BAA|]:" in captured.out


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
    assert doc["witness"] == {
        "block": 0,
        "vector": [[1, 1, 0, 1], [-1, 1, 0, 1]],
        "form": [-4, 1, 0, 1],
    }
    assert doc["certificate"] is None


TWO_BLOCK_P6R3 = {
    "p": 6,
    "r": 3,
    "blocks": [
        {"prefix": "a", "suffix": "b", "basis": ["AB", "BA"]},
        {"prefix": "b", "suffix": "a", "basis": ["AB", "BA"]},
    ],
}
ONE_WORD_P7R3 = {"p": 7, "r": 3, "blocks": [{"prefix": "b", "suffix": None, "basis": ["AAB"]}]}
DETERMINED_P7R0 = {"p": 7, "r": 0, "blocks": [{"prefix": None, "suffix": "a", "basis": ["AAA"]}]}


def _ansatz_file(tmp_path, ansatz):
    path = tmp_path / "ansatz.json"
    path.write_text(json.dumps(ansatz))
    return str(path)


def test_search_unknown(tmp_path, capsys):
    path = _ansatz_file(tmp_path, TWO_BLOCK_P6R3)
    code = main(["search", "--ansatz", path, "--max-iter", "6"])
    assert code == EXIT_UNKNOWN
    out = capsys.readouterr().out
    assert "status: unknown" in out
    # the last iterate is rounded over the whole 17-rung ladder
    (line,) = [l for l in out.splitlines() if l.startswith("rounding: ")]
    assert sum(int(word) for word in line.split() if word.isdigit()) == 17


def test_search_unreachable_is_infeasible(tmp_path, capsys):
    path = _ansatz_file(tmp_path, ONE_WORD_P7R3)
    assert main(["search", "--ansatz", path]) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "status: infeasible",
        "iterations: 0",
        "rounding: 0 rungs skipped by the margin, 0 rejected by the float twin, "
        "0 checked exactly",
        "missing: AAAABBB, AAABABB, AAABBAB, AABABAB",
    ]


def test_search_unreachable_json(tmp_path, capsys):
    path = _ansatz_file(tmp_path, ONE_WORD_P7R3)
    code = main(["search", "--ansatz", path, "--format", "json"])
    assert code == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {
        "status": "infeasible",
        "iterations": 0,
        "certificate": None,
        "witness": None,
        "rounding": {"skipped": 0, "float_rejected": 0, "exact": 0},
        "missing": ["AAAABBB", "AAABABB", "AAABBAB", "AABABAB"],
    }


def test_search_json_unknown(tmp_path, capsys):
    path = _ansatz_file(tmp_path, TWO_BLOCK_P6R3)
    code = main(["search", "--ansatz", path, "--max-iter", "3", "--format", "json"])
    assert code == EXIT_UNKNOWN
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "unknown"
    assert doc["certificate"] is None and doc["witness"] is None
    assert set(doc["rounding"]) == {"skipped", "float_rejected", "exact"}
    assert sum(doc["rounding"].values()) == len(search.LADDER)


def test_search_json_determined_certificate(tmp_path, capsys):
    path = _ansatz_file(tmp_path, DETERMINED_P7R0)
    assert main(["search", "--ansatz", path, "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "certificate"
    assert doc["iterations"] == 0
    assert doc["certificate"]["p"] == 7


@pytest.mark.parametrize(
    "ansatz, code, digest",
    [
        pytest.param(None, EXIT_INFEASIBLE,
                     "eb437408cb54cda3c54dd829ec7d1203a829e8c48b173e7a5bea14ba461931ef",
                     id="p6r3-witness"),
        pytest.param(ONE_WORD_P7R3, EXIT_INFEASIBLE,
                     "0e40d571e150fdda6c7ee5401b19356d1522ed2609f68e4e778eba8766afe86d",
                     id="p7r3-missing"),
        pytest.param(DETERMINED_P7R0, EXIT_OK,
                     "736856bc6342d145180716a3d6229832360b56a06aea98b27d101fb260d291a1",
                     id="p7r0-certificate"),
    ],
)
def test_float_free_search_documents_are_pinned(tmp_path, capsys, ansatz, code, digest):
    """The three searches that take no float step, one per payload branch:
    the bundled p6r3 ansatz (``None``) ends in a witness, the one-word (7,3)
    ansatz in missing classes and the determined (7,0) ansatz in a
    certificate.  They print the same JSON text on every numpy, so its
    sha256 pins every key, value and the key order, as the CI step does."""
    if ansatz is None:
        path = bundled_path("p6r3_restricted_ansatz.json")
    else:
        path = _ansatz_file(tmp_path, ansatz)
    assert main(["search", "--ansatz", path, "--format", "json"]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize(
    "p,r,basis,message",
    [
        (8, 3, ["AAB", "ABA", "BAA"],
         "block 0: sandwich products have length 7, target degree is 8"),
        (7, 3, ["AAB", "ABB"],
         "block 0: word 'ABB' yields products with 5 B letters, target needs 3"),
        (7, -1, ["AAB", "ABA", "BAA"], "r must lie in [0, 7], got -1"),
        (7, 8, ["AAB", "ABA", "BAA"], "r must lie in [0, 7], got 8"),
    ],
    ids=["degree", "b-count", "r-below-0", "r-above-p"],
)
def test_search_shape_mismatch_message(tmp_path, capsys, p, r, basis, message):
    # each shape error is one line naming the block, before any search; an
    # r outside [0, p] is named as such, before any block shape is checked.
    # The file has no p/r keys, so -p and -r give them.
    path = tmp_path / "misshaped.json"
    path.write_text(json.dumps({"blocks": [{"prefix": "b", "suffix": None, "basis": basis}]}))
    flags = ["-p", str(p), "-r", str(r)]
    assert main(["search", "--ansatz", str(path), *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


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


@pytest.mark.parametrize(
    "flags", [["--seed", "-1"], ["--dims", "0"], ["--trials", "0"]], ids=lambda f: f[0]
)
def test_validate_rejects_a_bad_flag_before_verifying(tmp_path, monkeypatch, capsys, flags):
    # p7r3 with G00 = 13/2 parses but fails exact verification; the flag is
    # the usage error, reported before the certificate is checked
    doc = certificate_to_json(bundled_certificate("p7r3.json"))
    doc["blocks"][0]["gram"][0][0]["re"] = [13, 2]
    path = tmp_path / "p7r3_13_2.json"
    path.write_text(json.dumps(doc))

    def fail(cert):
        raise AssertionError("verify_certificate ran before the flags were checked")

    monkeypatch.setattr(cli, "verify_certificate", fail)
    assert main(["validate", "--cert", str(path)] + flags) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[0]}") and err.count("\n") == 1


def test_validate_rejects_a_seed_without_room_before_verifying(tmp_path, capsys):
    # the seed's room for its trial seeds is a flag check too: on p7r3 with
    # G00 = 13/2, which fails exact verification, it is the one error
    doc = certificate_to_json(bundled_certificate("p7r3.json"))
    doc["blocks"][0]["gram"][0][0]["re"] = [13, 2]
    path = tmp_path / "p7r3_13_2.json"
    path.write_text(json.dumps(doc))
    args = ["validate", "--cert", str(path), "--trials", "2", "--dims", "1"]
    assert main(args + ["--seed", str(2**64 - 1)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: seed must lie in [0, 2**64 - 2]") and err.count("\n") == 1
    # validate draws --trials seeds per dimension: two dimensions need room for 4
    args = ["validate", "--cert", str(path), "--trials", "2", "--dims", "1,2"]
    assert main(args + ["--seed", str(2**64 - 3)]) == EXIT_USAGE
    assert "error: seed must lie in [0, 2**64 - 4]" in capsys.readouterr().err
    assert main(args + ["--seed", str(2**64 - 4)]) == EXIT_FAIL
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


@pytest.mark.parametrize("message", ["Unable to allocate 5.96 GiB for an array", ""])
def test_out_of_memory_exits_fail_with_one_line(three_word_ansatz, monkeypatch, capsys, message):
    # a MemoryError is a failed run, not a traceback
    def fail(*_args):
        raise MemoryError(message)

    want = "error: the run ran out of memory" + (f": {message}" if message else "") + "\n"
    monkeypatch.setattr(validation, "random_psd", fail)
    assert main(["bmv-check", "-p", "3", "--trials", "1"]) == EXIT_FAIL
    assert capsys.readouterr().err == want
    monkeypatch.setattr(search, "feasibility_search", fail)
    assert main(["search", "--ansatz", three_word_ansatz]) == EXIT_FAIL
    assert capsys.readouterr().err == want


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
    report = validation.TrialReport((row,))
    monkeypatch.setattr(validation, "validate_certificate_trials", lambda cert, config: report)
    args = ["validate", "--cert", bundled_path("p7r3.json"), "--trials", "1"]
    assert main(args) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "p=7 r=3 n=2 trial=12345 oracle=1.000000000000e+00 sos=2.000000000000e+00 "
        "diff=1.000e+00 FAIL",
        "0/1 trials passed, max diff 1.000e+00",
    ]
    assert captured.err.splitlines() == [
        "FAILED trial: n=2 trial=12345 (rerun with --seed as recorded)"
    ]
    assert main(args + ["--format", "json"]) == EXIT_FAIL
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"] == [{"p": 7, "r": 3, "n": 2, "trial": "12345", "oracle": 1.0,
                            "sos": 2.0, "abs_diff": 1.0, "passed": False}]
    assert doc["summary"] == {"trials": 1, "passed": 0, "failed": 1,
                              "max_abs_diff": 1.0, "tol_rel": 1e-8}


def test_validate_rows_in_text_and_json(capsys):
    """Each text line spells its JSON row: the same trial, values and flag."""
    args = ["validate", "--cert", bundled_path("p7r0.json"), "--dims", "2", "--trials", "2"]
    assert main(args) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert main(args + ["--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["path"] == bundled_path("p7r0.json")
    assert [row["trial"] for row in doc["rows"]] == ["scalar(2,3)", "identity", "0", "1"]
    assert len(lines) == len(doc["rows"]) + 1
    for line, row in zip(lines, doc["rows"]):
        assert (row["p"], row["r"], row["passed"]) == (7, 0, True)
        assert line == (
            f"p=7 r=0 n={row['n']} trial={row['trial']} oracle={row['oracle']:.12e} "
            f"sos={row['sos']:.12e} diff={row['abs_diff']:.3e} PASS"
        )
    assert lines[-1] == f"4/4 trials passed, max diff {doc['summary']['max_abs_diff']:.3e}"


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


@pytest.mark.parametrize("dims", ["2,x", "2,,3", "2,", ",2", "1_0", "+3", "2 3", "0x2"])
@pytest.mark.parametrize(
    "command",
    [["validate", "--cert", bundled_path("p7r3.json")], ["bmv-check", "-p", "3"]],
    ids=["validate", "bmv-check"],
)
def test_validate_bad_dims(capsys, command, dims):
    """Each --dims entry, stripped of its spaces, is an optional minus sign
    and digits: an empty entry or another int() spelling is rejected."""
    assert main(command + ["--dims", dims]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: --dims must be comma-separated integers, got {dims!r}\n"
    )


# the largest n whose complex (n, n) matrix, 16 n^2 bytes, numpy can index
LARGEST_DIMENSION = math.isqrt(np.iinfo(np.intp).max // 16)


@pytest.mark.parametrize(
    "entry", [str(LARGEST_DIMENSION + 1), "9" * 20, "9" * 5000], ids=["limit", "20", "5000"]
)
@pytest.mark.parametrize(
    "command",
    [["validate", "--cert", bundled_path("p7r3.json")], ["bmv-check", "-p", "3"]],
    ids=["validate", "bmv-check"],
)
def test_oversized_dims_entry_names_the_flag(monkeypatch, capsys, command, entry):
    """An entry too large for numpy to index its matrix is a --dims error;
    validate reports it before it loads the certificate.  Past the
    interpreter's digit limit for str -> int, if it has one, the entry is
    malformed instead, a --dims error too."""

    def fail(path):
        raise AssertionError("load_certificate ran before --dims was checked")

    monkeypatch.setattr(cli, "load_certificate", fail)
    assert main(command + ["--trials", "1", "--dims", f"2,{entry}"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: --dims") and err.count("\n") == 1
    if len(entry) < 100:
        assert err == (
            f"error: --dims entry must be at most {LARGEST_DIMENSION}, so that numpy "
            f"can index a complex matrix of that size, got {entry}\n"
        )


@pytest.mark.parametrize(
    "command",
    [["validate", "--cert", bundled_path("p7r3.json")], ["bmv-check", "-p", "3"]],
    ids=["validate", "bmv-check"],
)
def test_dims_entry_too_large_for_its_trials_names_the_flag(monkeypatch, capsys, command):
    """An entry whose matrix numpy can index, but not the stack of two
    matrices a trial drawn there, is a --dims error before any load or draw."""

    def fail(*args):
        raise AssertionError("ran before --dims was checked against --trials")

    monkeypatch.setattr(cli, "load_certificate", fail)
    for name in ("validate_certificate_trials", "bmv_check_trials"):
        monkeypatch.setattr(validation, name, fail)
    in_four = math.isqrt(np.iinfo(np.intp).max // 64)
    assert main(command + ["--trials", "2", "--dims", "600000000"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: --dims entry must be at most {in_four}, so that numpy can index "
        "a stack of 4 complex matrices of that size, got 600000000\n"
    )


def test_dims_entries_may_carry_spaces(capsys):
    assert main(["bmv-check", "-p", "3", "--trials", "2", "--dims", " 2 , 3 "]) == EXIT_OK
    assert "2/2 trials passed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, extra",
    [
        (
            ["validate", "--cert", bundled_path("p7r3.json"), "--trials", "2", "--dims", "1,2"],
            lambda rows: {"max_abs_diff": max(row["abs_diff"] for row in rows), "tol_rel": 1e-8},
        ),
        (
            ["bmv-check", "-p", "5", "--trials", "4", "--dims", "2,3"],
            lambda rows: {"min_coefficient": min(row["min"] for row in rows), "tol": 1e-9},
        ),
    ],
    ids=["validate", "bmv-check"],
)
def test_trial_summary_follows_from_its_rows(capsys, argv, extra):
    """The JSON summary has exactly the counts and the command's own two
    keys, and each value is computed again here from the printed rows."""
    assert main(argv + ["--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    rows = doc["rows"]
    passed = sum(row["passed"] for row in rows)
    counts = {"trials": len(rows), "passed": passed, "failed": len(rows) - passed}
    assert doc["summary"] == {**counts, **extra(rows)}


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
    report = validation.TrialReport((row,))
    monkeypatch.setattr(validation, "bmv_check_trials", lambda p, config: report)
    assert main(["bmv-check", "-p", "7", "--trials", "1"]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"p=7 n={n} seed={seed} min=-5.000000e-01 threshold=-1.000e-09 FAIL",
        "0/1 trials passed, min coefficient -5.000000e-01",
    ]
    err = captured.err
    prefix = "counterexample candidate: "
    (line,) = [x for x in err.splitlines() if x.startswith(prefix)]
    candidate = json.loads(line[len(prefix):])
    assert (candidate["p"], candidate["n"], candidate["seed"]) == (7, n, seed)
    assert candidate["coefficients"] == list(row.coefficients)
    for key, index in (("A", 0), ("B", 1)):
        want = random_psd(n, derive_seed(seed, index))
        got = np.array(candidate[key])
        assert np.array_equal(got[..., 0] + 1j * got[..., 1], want)


def test_bmv_check_rows_in_text_and_json(capsys):
    """Each text line spells its JSON row: the same seed, minimum, threshold and flag."""
    args = ["bmv-check", "-p", "4", "--trials", "3", "--dims", "2,3", "--seed", "5"]
    assert main(args) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert main(args + ["--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["p"] == 4
    assert [(row["n"], row["seed"]) for row in doc["rows"]] == [(2, 5), (3, 6), (2, 7)]
    assert len(lines) == len(doc["rows"]) + 1
    for line, row in zip(lines, doc["rows"]):
        assert (row["p"], row["passed"], len(row["coefficients"])) == (4, True, 5)
        assert row["min"] == min(row["coefficients"])
        assert line == (
            f"p=4 n={row['n']} seed={row['seed']} min={row['min']:.6e} "
            f"threshold={-row['threshold']:.3e} PASS"
        )
    assert lines[-1] == (
        f"3/3 trials passed, min coefficient {doc['summary']['min_coefficient']:.6e}"
    )


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
# a document without "blocks": the mutations replace nodes, never drop a key
@example(text='{"p": 6, "r": 3}')
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


def test_non_utf8_document_is_a_format_error_naming_the_file(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")
    for argv in (["verify", "--cert", str(path)], ["search", "--ansatz", str(path)]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == EXIT_USAGE
        assert err.getvalue().startswith(f"error: {path}: not UTF-8 text"), err.getvalue()


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


def test_parser_defaults_come_from_the_library(monkeypatch):
    def defaults():
        parser = cli.build_parser()
        search = parser.parse_args(["search", "--ansatz", "a.json"])
        validate = parser.parse_args(["validate", "--cert", "c.json"])
        return search.max_iter, validate.trials, cli._parse_dims(validate.dims)

    assert defaults() == (SearchOptions.max_iters, TrialConfig.trials, TrialConfig.dims)
    # the parser reads the fields, it does not restate them
    monkeypatch.setattr(SearchOptions, "max_iters", 7)
    monkeypatch.setattr(TrialConfig, "trials", 3)
    monkeypatch.setattr(TrialConfig, "dims", (2, 5))
    assert defaults() == (7, 3, (2, 5))


def test_module_entry_point():
    """``python -m hurwitz_sos.cli`` runs, and expand and verify, which do
    exact work only, never import numpy (-X importtime lists every import)."""

    def run(*argv):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "hurwitz_sos.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        imported = [line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()]
        assert "hurwitz_sos.certificate" in imported
        assert [name for name in imported if name.split(".")[0] == "numpy"] == []
        return json.loads(out.stdout)

    assert run("expand", "-p", "5", "-r", "2", "--format", "json") == {"AABAB": 5, "AAABB": 5}
    doc = run("verify", "--cert", bundled_path("p7r3.json"), "--format", "json")
    assert (doc["matched"], doc["psd"]) == (True, True)


def test_rejected_input_loads_no_numpy(tmp_path):
    """A rejected flag or input file exits 2, and a certificate that fails
    exact verification exits 1, with one line on stderr and before numpy
    loads (-X importtime lists every import)."""
    no_degrees = _ansatz_file(tmp_path, {"blocks": THREE_WORD_ANSATZ["blocks"]})
    doc = certificate_to_json(bundled_certificate("p7r3.json"))
    doc["blocks"][0]["gram"][0][0]["re"] = [13, 2]
    failing = tmp_path / "p7r3_13_2.json"
    failing.write_text(json.dumps(doc))
    p7r3 = bundled_path("p7r3.json")
    ansatz = bundled_path("p6r3_restricted_ansatz.json")
    cases = [
        (["validate", "--cert", p7r3, "--seed", "-1"], "error: --seed must be"),
        (["validate", "--cert", p7r3, "--dims", "2,,3"], "error: --dims must be"),
        (["bmv-check", "-p", "0"], "error: p must be"),
        (["bmv-check", "-p", "0", "--seed", "-1"], "error: --seed must be"),
        (["search", "--ansatz", ansatz, "--seed", "-1"], "error: --seed must be"),
        (["search", "--ansatz", no_degrees, "-p", "7", "-r", "-1"], "error: r must lie"),
        (["search", "--ansatz", no_degrees, "-p", "7", "-r", "3", "--max-iter", "0"],
         "error: --max-iter must be"),
        (["search", "--ansatz", no_degrees, "-p", "7", "-r", "3",
          "--cert", str(tmp_path / "missing" / "c.json")], "error: --cert "),
        (["search", "--ansatz", str(tmp_path / "missing.json")], "error: "),
        (["validate", "--cert", str(failing)], f"certificate {failing} failed exact"),
    ]
    for argv, start in cases:
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "hurwitz_sos.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert out.returncode == (EXIT_FAIL if argv[-1] == str(failing) else EXIT_USAGE)
        assert out.stdout == ""
        lines = out.stderr.splitlines()
        imported = [line.rsplit("|", 1)[1].strip()
                    for line in lines if line.startswith("import time:")]
        (message,) = [line for line in lines if not line.startswith("import time:")]
        assert message.startswith(start), (argv, message)
        assert "hurwitz_sos.certificate" in imported
        assert [name for name in imported if name.split(".")[0] == "numpy"] == [], argv


def test_closed_stdout_exits_fail_quietly():
    """A reader that closes stdout early, as ``| head -n 1`` does, ends the
    run with exit code 1 and nothing on stderr: not a usage error, no
    traceback and no complaint at interpreter exit."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "hurwitz_sos.cli", "expand", "-p", "20", "-r", "10"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    # about 220 KB of output, more than any pipe buffer holds
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_FAIL
    assert err == b""


@pytest.mark.skipif(shutil.which("hurwitz-sos") is None, reason="script not on PATH")
def test_console_script():
    out = subprocess.run(
        ["hurwitz-sos", "expand", "-p", "4", "-r", "2", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"AABB": 4, "ABAB": 2}
