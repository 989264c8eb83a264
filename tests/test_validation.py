import json
import math

import numpy as np
import pytest

from hurwitz_sos.certificate import bundled_certificate, swap_certificate
from hurwitz_sos.validation import (
    CoefficientReport,
    TrialConfig,
    TrialReport,
    bmv_check_trials,
    trial_pair,
    validate_certificate_trials,
)
from hurwitz_sos.numeric import derive_seed, random_psd

SMALL = TrialConfig(seed=0, dims=(1, 2, 3), trials=5)


def test_trial_config_validation():
    with pytest.raises(ValueError) as info:
        TrialConfig(trials=0)
    assert str(info.value) == "trials must be a positive int, got 0"
    with pytest.raises(ValueError):
        TrialConfig(dims=())
    with pytest.raises(ValueError) as info:
        TrialConfig(dims=(0,))
    assert str(info.value) == "dims[0] must be a positive int, got 0"
    with pytest.raises(ValueError):
        TrialConfig(tol_rel=-1.0)
    for seed in (1.5, "7", None, 2.0):
        with pytest.raises(ValueError, match="seed"):
            TrialConfig(seed=seed)
    for tol_rel in (0, 0.0, "x", None, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="tol_rel"):
            TrialConfig(tol_rel=tol_rel)
    assert TrialConfig(seed=3, tol_rel=1).tol_rel == 1
    # an int beyond the float range has no float value to compare against
    with pytest.raises(ValueError, match="tol_rel"):
        TrialConfig(seed=3, tol_rel=10**400)
    # mix64 reduces seeds modulo 2^64: every trial seed, seed up to
    # seed + len(dims) * trials - 1 for the certificate runner, must lie
    # below 2^64 or it would repeat the trial of a smaller seed
    last = 2**64 - 3 * 5
    assert TrialConfig(seed=last, dims=(1, 2, 3), trials=5).seed == last
    for seed in (-1, -3, 2**64, 2**70):
        with pytest.raises(ValueError, match=r"seed must be an int in \[0, 2\*\*64\)"):
            TrialConfig(seed=seed, dims=(1, 2, 3), trials=5)
    beyond = TrialConfig(seed=last + 1, dims=(1, 2, 3), trials=5)
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64 - 15\]"):
        validate_certificate_trials(bundled_certificate("p7r3.json"), beyond)
    # the coefficient runner numbers only ``trials`` seeds
    rows = bmv_check_trials(3, beyond).rows
    assert [row.trial_seed for row in rows] == [last + 1 + t for t in range(5)]
    rows = bmv_check_trials(5, TrialConfig(seed=2**64 - 2, dims=(2,), trials=2)).rows
    assert [row.trial_seed for row in rows] == [2**64 - 2, 2**64 - 1]
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64 - 3\] so that its 3 "):
        bmv_check_trials(3, TrialConfig(seed=2**64 - 2, dims=(2,), trials=3))


def test_trial_config_rejects_booleans():
    with pytest.raises(ValueError, match="dims"):
        TrialConfig(dims=(True,))
    with pytest.raises(ValueError, match="trials"):
        TrialConfig(trials=True)
    with pytest.raises(ValueError, match="seed"):
        TrialConfig(seed=True)
    with pytest.raises(ValueError, match="tol_rel"):
        TrialConfig(tol_rel=True)


def test_validate_bundled_certificate_small():
    cert = bundled_certificate("p7r3.json")
    report = validate_certificate_trials(cert, SMALL)
    assert report.all_passed
    assert report.failures == ()
    biggest_oracle = max(abs(row.oracle) for row in report.rows)
    assert report.max_abs_diff <= SMALL.tol_rel * (1.0 + biggest_oracle)
    rows = report.rows
    # special rows first: scalar then one identity row per dimension
    assert rows[0].label == "scalar(2,3)"
    assert rows[0].oracle == math.comb(7, 3) * 2.0**4 * 3.0**3
    identity_rows = [row for row in rows if row.label == "identity"]
    assert len(identity_rows) == len(SMALL.dims)
    for row, n in zip(identity_rows, SMALL.dims):
        assert row.n == n
        assert row.oracle == math.comb(7, 3) * n
    random_rows = rows[1 + len(SMALL.dims) :]
    assert len(random_rows) == len(SMALL.dims) * SMALL.trials
    # each random row is labeled by the seed that reproduces it
    assert [row.label for row in random_rows[:3]] == ["0", "1", "2"]


def test_validate_swapped_certificate():
    cert = swap_certificate(bundled_certificate("p7r2.json"))
    assert cert.r == 5
    report = validate_certificate_trials(cert, SMALL)
    assert report.all_passed


def test_validate_deterministic():
    cert = bundled_certificate("p7r1.json")
    a = validate_certificate_trials(cert, SMALL)
    b = validate_certificate_trials(cert, SMALL)
    assert [row.value for row in a.rows] == [row.value for row in b.rows]
    c = validate_certificate_trials(cert, TrialConfig(seed=1, dims=(1, 2, 3), trials=5))
    assert [row.value for row in c.rows[len(SMALL.dims) + 1 :]] != [
        row.value for row in b.rows[len(SMALL.dims) + 1 :]
    ]


def test_trial_row_formatting_and_json():
    cert = bundled_certificate("p7r0.json")
    report = validate_certificate_trials(cert, TrialConfig(dims=(2,), trials=2))
    row = report.rows[-1]
    line = row.format_line()
    assert f"p={row.p}" in line and f"n={row.n}" in line
    assert line.endswith("PASS")
    doc = row.to_json()
    json.dumps(doc)
    assert doc["passed"] is True
    assert doc["p"] == 7 and doc["r"] == 0
    summary = report.summary()
    assert "passed" in summary


def test_report_failure_surface():
    # force a failure by demanding an absurd tolerance
    cert = bundled_certificate("p7r3.json")
    tight = TrialConfig(seed=0, dims=(4,), trials=3, tol_rel=1e-18)
    report = validate_certificate_trials(cert, tight)
    assert not report.all_passed
    assert report.failures
    assert all(row.format_line().endswith("FAIL") for row in report.failures)
    assert report.summary()["failed"] == len(report.failures)


def test_bmv_trials_positive():
    report = bmv_check_trials(5, TrialConfig(seed=0, dims=(2, 3), trials=10))
    assert isinstance(report, CoefficientReport)
    assert report.all_passed
    assert len(report.rows) == 10
    # dims cycle round-robin
    assert [row.n for row in report.rows[:4]] == [2, 3, 2, 3]
    for row in report.rows:
        assert row.p == 5
        assert len(row.coefficients) == 6
        assert row.min_coefficient >= -row.threshold
    json.dumps(report.rows[0].to_json())


def test_bmv_trials_reject_boolean_p():
    with pytest.raises(ValueError, match="p must be"):
        bmv_check_trials(True, TrialConfig(dims=(2,), trials=1))


def test_bmv_trials_deterministic():
    a = bmv_check_trials(6, TrialConfig(seed=3, dims=(2,), trials=4))
    b = bmv_check_trials(6, TrialConfig(seed=3, dims=(2,), trials=4))
    assert [r.min_coefficient for r in a.rows] == [
        r.min_coefficient for r in b.rows
    ]


def test_trial_report_types():
    cert = bundled_certificate("p7r0.json")
    report = validate_certificate_trials(cert, TrialConfig(dims=(1,), trials=1))
    assert isinstance(report, TrialReport)
    assert report.all_passed == (len(report.failures) == 0)


def test_bmv_trials_reject_bad_tol():
    # a negative or NaN tolerance would mark every row FAILED
    config = TrialConfig(dims=(2,), trials=1)
    for tol in (-1, -1e-9, 0, 0.0, math.nan, math.inf, -math.inf, True, False, "1e-9", None, 10**400):
        with pytest.raises(ValueError, match="tol must be a finite positive number"):
            bmv_check_trials(5, config, tol=tol)
    for tol in (1, 1e-9, 1e300):
        assert bmv_check_trials(5, config, tol=tol).all_passed


@pytest.mark.parametrize("n", [1, 3])
def test_trial_pair_slices_are_one_seed_draws(n):
    seeds = [0, 7, 2**63, 2**64 - 1]
    A, B = trial_pair(n, seeds)
    assert A.shape == B.shape == (len(seeds), n, n)
    for k, s in enumerate(seeds):
        assert A[k].tobytes() == random_psd(n, derive_seed(s, 0)).tobytes()
        assert B[k].tobytes() == random_psd(n, derive_seed(s, 1)).tobytes()


@pytest.mark.parametrize("bad", [-1, 2**64, True])
def test_trial_pair_rejects_bad_seeds(bad):
    with pytest.raises(ValueError, match=r"seed \(stack index 1\) must be an int in \[0, 2\*\*64\)"):
        trial_pair(2, [0, bad])
