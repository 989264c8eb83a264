import json
import math

import numpy as np
import pytest

from hurwitz_sos import validation
from hurwitz_sos.certificate import bundled_certificate, swap_certificate
from hurwitz_sos.validation import (
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
    # a dimension whose complex matrix numpy cannot index is named too
    largest = math.isqrt(np.iinfo(np.intp).max // 16)
    assert TrialConfig(dims=(2, largest)).dims == (2, largest)
    with pytest.raises(ValueError) as info:
        TrialConfig(dims=(2, largest + 1))
    assert str(info.value) == (
        f"dims[1] must be at most {largest}, so that numpy can index a complex "
        f"matrix of that size, got {largest + 1}"
    )
    # one dimension as a bare int is not a sequence of them
    with pytest.raises(ValueError) as info:
        TrialConfig(dims=5)
    assert str(info.value) == "dims must be a sequence of positive ints, got 5"
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
    # SplitMix64 works modulo 2^64: every trial seed, seed up to
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
    # dims is kept as a tuple: a list config stays hashable, and a
    # generator is read once, by the config, not used up by its checks
    listed = TrialConfig(dims=[2, 3], trials=2)
    assert listed.dims == (2, 3) and hash(listed) == hash(TrialConfig(dims=(2, 3), trials=2))
    generated = TrialConfig(dims=(n for n in [2, 3]), trials=2)
    assert generated.dims == (2, 3)
    assert [row.n for row in bmv_check_trials(3, generated).rows] == [2, 3]
    with pytest.raises(ValueError, match="dims must be nonempty"):
        TrialConfig(dims=iter([]))


def test_runners_check_each_dimension_against_the_pairs_they_draw(monkeypatch):
    """A dimension whose one matrix numpy can index, but not the stack of
    two matrices a trial that its runner draws, is named by its dims index
    before anything is drawn."""

    def fail(*args):
        raise AssertionError("random_psd ran before the dimensions were checked")

    monkeypatch.setattr(validation, "random_psd", fail)
    in_two, in_four = (math.isqrt(np.iinfo(np.intp).max // (16 * k)) for k in (2, 4))
    cert = bundled_certificate("p7r3.json")
    config = TrialConfig(dims=(2, in_two + 1), trials=2)
    with pytest.raises(ValueError, match=rf"^dims\[1\] must be at most {in_four}, .* stack of 4 "):
        validate_certificate_trials(cert, config)
    # the cycle gives dims[1] one of the two trials
    with pytest.raises(ValueError, match=rf"^dims\[1\] must be at most {in_two}, .* stack of 2 "):
        bmv_check_trials(3, config)
    # the certificate runner draws trials per entry, so a repeated entry doubles its stack
    in_eight = math.isqrt(np.iinfo(np.intp).max // 128)
    with pytest.raises(ValueError, match=rf"^dims\[0\] must be at most {in_eight}, .* stack of 8 "):
        validate_certificate_trials(cert, TrialConfig(dims=(in_four, in_four), trials=2))
    # a dimension that the coefficient runner's cycle never reaches draws nothing
    largest = math.isqrt(np.iinfo(np.intp).max // 16)
    TrialConfig(dims=(2, largest), trials=1).check_trial_seeds(per_dimension=False)
    with pytest.raises(ValueError, match=r"^--dims entry must be at most "):
        config.check_trial_seeds(per_dimension=True, name="--dims entry")


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
    assert report.summary["max_abs_diff"] <= SMALL.tol_rel * (1.0 + biggest_oracle)
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
    assert "passed" in report.summary


def test_report_failure_surface():
    # force a failure by demanding an absurd tolerance
    cert = bundled_certificate("p7r3.json")
    tight = TrialConfig(seed=0, dims=(4,), trials=3, tol_rel=1e-18)
    report = validate_certificate_trials(cert, tight)
    assert not report.all_passed
    assert report.failures
    assert all(row.format_line().endswith("FAIL") for row in report.failures)
    assert report.summary["failed"] == len(report.failures)


def test_bmv_trials_positive():
    report = bmv_check_trials(5, TrialConfig(seed=0, dims=(2, 3), trials=10))
    assert isinstance(report, TrialReport)
    assert report.all_passed
    assert len(report.rows) == 10
    # dims cycle round-robin
    assert [row.n for row in report.rows[:4]] == [2, 3, 2, 3]
    for row in report.rows:
        assert row.p == 5
        assert len(row.coefficients) == 6
        assert row.min_coefficient >= -row.threshold
    json.dumps(report.rows[0].to_json())


def test_trial_row_passes_exactly_at_its_bound(monkeypatch):
    """A row passes when |sos - oracle| <= tol_rel * (1 + |oracle|): at the
    bound on either side of the oracle, and not one float step beyond it."""
    tol, oracle = 2.0**-22, 3.0
    bound = tol * (1.0 + abs(oracle))
    values = [oracle + bound, math.nextafter(oracle + bound, math.inf),
              oracle - bound, math.nextafter(oracle - bound, -math.inf)]
    assert [abs(v - oracle) == bound for v in values] == [True, False, True, False]
    monkeypatch.setattr(validation, "trace_hurwitz_numeric",
                        lambda A, B, p, r: np.full(len(A), oracle))
    monkeypatch.setattr(validation, "eval_certificate_numeric",
                        lambda cert, A, B: np.array(values[:len(A)]))
    # the scalar, identity and two random rows all have n = 1: one stack of 4
    config = TrialConfig(dims=(1,), trials=2, tol_rel=tol)
    report = validate_certificate_trials(bundled_certificate("p7r3.json"), config)
    assert [row.value for row in report.rows] == values
    assert [row.passed for row in report.rows] == [True, False, True, False]


def test_coefficient_row_passes_exactly_at_its_threshold(monkeypatch):
    """A row passes when its smallest coefficient is >= -tol * (1 + max |c|):
    at the threshold, and not one float step below it."""
    largest = 3.0
    threshold = validation._COEFFICIENT_TOL * (1.0 + largest)
    smallest = [-threshold, math.nextafter(-threshold, -math.inf)]
    monkeypatch.setattr(validation, "bmv_coefficients",
                        lambda A, B, p: np.array([[largest, 1.0, 0.0, s] for s in smallest]))
    report = bmv_check_trials(3, TrialConfig(dims=(2,), trials=2))
    assert [row.threshold for row in report.rows] == [threshold, threshold]
    assert [row.min_coefficient for row in report.rows] == smallest
    assert [row.passed for row in report.rows] == [True, False]


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
