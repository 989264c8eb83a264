"""Seeded cross-validation of exact certificates against word-sum traces.

Two runners.  The certificate runner draws random PSD pairs, evaluates a
verified certificate as an explicit sum of squares, and compares against
the word-sum trace ``numeric.trace_hurwitz_numeric``.  The coefficient
runner samples PSD pairs and checks that every word-sum trace for
r = 0..p is nonnegative up to roundoff.  Both emit one record per trial so failures are
reproducible from the recorded seed alone.

Each runner draws every trial's pair on its own, from its own seed, then
evaluates all trials of one dimension as one stack of shape (m, n, n):
one call of the trace and of the certificate evaluator per dimension,
not per trial.  A slice's value does not depend on the rest of its
stack, so a row equals, bit for bit, the row of the same seed run alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .certificate import Certificate
from .words import check_degrees, is_int
from .numeric import (
    SEED_LIMIT,
    bmv_coefficients,
    derive_seed,
    eval_certificate_numeric,
    random_psd,
    trace_hurwitz_numeric,
)


def _check_tolerance(name: str, tol: object) -> None:
    """Accept an int or float whose float value is finite and positive."""
    ok = isinstance(tol, (int, float)) and not isinstance(tol, bool)
    try:
        ok = ok and 0 < float(tol) < inf
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite positive number, got {tol!r}")


def _indices_by_dimension(dims: List[int]) -> Dict[int, List[int]]:
    """Row indices grouped by their matrix dimension, in order of first use."""
    groups: Dict[int, List[int]] = {}
    for index, n in enumerate(dims):
        groups.setdefault(n, []).append(index)
    return groups


@dataclass(frozen=True)
class TrialConfig:
    """Seed, dimensions, trial count and tolerance of a trial run.

    Both runners read ``seed``, ``dims`` and ``trials``.  ``trials``
    counts random trials per dimension for the certificate runner and
    total trials (cycled over the dimensions) for the coefficient
    runner.  Only the certificate runner reads ``tol_rel``;
    ``bmv_check_trials`` takes its own ``tol``.
    """

    seed: int = 0
    dims: Tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    trials: int = 100
    tol_rel: float = 1e-8

    def __post_init__(self) -> None:
        if not is_int(self.seed):
            raise ValueError("seed must be an integer")
        if not is_int(self.trials) or self.trials < 1:
            raise ValueError("trials must be a positive integer")
        _check_tolerance("tol_rel", self.tol_rel)
        if not self.dims or any(not is_int(n) or n < 1 for n in self.dims):
            raise ValueError("dims must be positive integers")
        # either runner numbers its trials seed, seed + 1, ..., at most
        # len(dims) * trials of them, and each must be a distinct 64-bit seed
        count = len(self.dims) * self.trials
        if not 0 <= self.seed <= SEED_LIMIT - count:
            raise ValueError(
                f"seed must lie in [0, 2**64 - {count}] so that its {count} "
                f"trial seeds stay below 2**64, got {self.seed}"
            )


@dataclass(frozen=True)
class TrialRow:
    """One certificate cross-check: oracle vs sum-of-squares value."""

    p: int
    r: int
    n: int
    label: str
    oracle: float
    value: float
    abs_diff: float
    passed: bool

    def format_line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (
            f"p={self.p} r={self.r} n={self.n} trial={self.label} "
            f"oracle={self.oracle:.12e} sos={self.value:.12e} "
            f"diff={self.abs_diff:.3e} {flag}"
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "p": self.p,
            "r": self.r,
            "n": self.n,
            "trial": self.label,
            "oracle": self.oracle,
            "sos": self.value,
            "abs_diff": self.abs_diff,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class _Report:
    """The rows of one trial run, each carrying a ``passed`` flag."""

    rows: Tuple[Union[TrialRow, CoefficientRow], ...]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def failures(self) -> Tuple[Union[TrialRow, CoefficientRow], ...]:
        return tuple(row for row in self.rows if not row.passed)


@dataclass(frozen=True)
class TrialReport(_Report):
    tol_rel: float

    @property
    def max_abs_diff(self) -> float:
        return max((row.abs_diff for row in self.rows), default=0.0)

    def summary(self) -> Dict[str, object]:
        return {
            "trials": len(self.rows),
            "passed": sum(row.passed for row in self.rows),
            "failed": len(self.failures),
            "max_abs_diff": self.max_abs_diff,
            "tol_rel": self.tol_rel,
        }


def _trial_row(
    cert: Certificate, n: int, label: str, oracle: float, value: float, tol_rel: float
) -> TrialRow:
    diff = abs(value - oracle)
    passed = diff <= tol_rel * (1.0 + abs(oracle))
    return TrialRow(
        p=cert.p,
        r=cert.r,
        n=n,
        label=label,
        oracle=oracle,
        value=value,
        abs_diff=diff,
        passed=passed,
    )


def trial_pair(n: int, trial_seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """The random PSD pair (A, B) of dimension n that a trial seed draws."""
    A = random_psd(n, derive_seed(trial_seed, 0))
    B = random_psd(n, derive_seed(trial_seed, 1))
    return A, B


def validate_certificate_trials(
    cert: Certificate, config: Optional[TrialConfig] = None
) -> TrialReport:
    """Cross-check a certificate numerically on deterministic seeded trials.

    Runs, per dimension in ``config.dims``: one identity trial (A=B=I),
    and ``config.trials`` random PSD trials.  A scalar integer trial
    A=[[2]], B=[[3]] is prepended once.  The caller is expected to have
    verified the certificate exactly; this function only measures the
    float discrepancy between the two evaluation routes.
    """
    config = config or TrialConfig()
    # (n, label, A, B) in row order
    trials = [(1, "scalar(2,3)", np.array([[2.0]]), np.array([[3.0]]))]
    trials += [(n, "identity", np.eye(n), np.eye(n)) for n in config.dims]
    trial_seed = config.seed
    for n in config.dims:
        for _ in range(config.trials):
            trials.append((n, str(trial_seed), *trial_pair(n, trial_seed)))
            trial_seed += 1

    rows: List[Optional[TrialRow]] = [None] * len(trials)
    for n, indices in _indices_by_dimension([t[0] for t in trials]).items():
        A = np.stack([trials[i][2] for i in indices])
        B = np.stack([trials[i][3] for i in indices])
        oracles = trace_hurwitz_numeric(A, B, cert.p, cert.r)
        values = eval_certificate_numeric(cert, A, B)
        for i, oracle, value in zip(indices, oracles, values):
            rows[i] = _trial_row(
                cert, n, trials[i][1], float(oracle), float(value), config.tol_rel
            )
    return TrialReport(rows=tuple(rows), tol_rel=config.tol_rel)


@dataclass(frozen=True)
class CoefficientRow:
    """One nonnegativity check of the full coefficient vector for degree p."""

    p: int
    n: int
    trial_seed: int
    coefficients: Tuple[float, ...]
    min_coefficient: float
    threshold: float
    passed: bool

    def format_line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (
            f"p={self.p} n={self.n} seed={self.trial_seed} "
            f"min={self.min_coefficient:.6e} threshold={-self.threshold:.3e} {flag}"
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "p": self.p,
            "n": self.n,
            "seed": self.trial_seed,
            "coefficients": list(self.coefficients),
            "min": self.min_coefficient,
            "threshold": self.threshold,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class CoefficientReport(_Report):
    tol: float

    def summary(self) -> Dict[str, object]:
        return {
            "trials": len(self.rows),
            "passed": sum(row.passed for row in self.rows),
            "failed": len(self.failures),
            "min_coefficient": min(
                (row.min_coefficient for row in self.rows), default=0.0
            ),
            "tol": self.tol,
        }


def _coefficient_row(
    p: int, n: int, trial_seed: int, coeffs: np.ndarray, tol: float
) -> CoefficientRow:
    """Check one pair's p+1 coefficients for nonnegativity."""
    biggest = float(np.max(np.abs(coeffs)))
    threshold = tol * (1.0 + biggest)
    smallest = float(np.min(coeffs))
    return CoefficientRow(
        p=p,
        n=n,
        trial_seed=trial_seed,
        coefficients=tuple(float(c) for c in coeffs),
        min_coefficient=smallest,
        threshold=threshold,
        passed=smallest >= -threshold,
    )


def bmv_check_trials(
    p: int, config: Optional[TrialConfig] = None, tol: float = 1e-9
) -> CoefficientReport:
    """Run ``config.trials`` coefficient nonnegativity trials for degree p.

    Dimensions cycle through ``config.dims`` so the trial count is the
    total, not per dimension.  Each row records the seed that generated
    its PSD pair, so any failure can be replayed exactly.  ``tol`` must
    be a finite positive number.
    """
    check_degrees(p, 0)
    _check_tolerance("tol", tol)
    config = config or TrialConfig(dims=(2, 3, 4))
    dims = [config.dims[t % len(config.dims)] for t in range(config.trials)]
    rows: List[Optional[CoefficientRow]] = [None] * config.trials
    for n, indices in _indices_by_dimension(dims).items():
        seeds = [config.seed + t for t in indices]
        A, B = map(np.stack, zip(*[trial_pair(n, s) for s in seeds]))
        for t, seed, coeffs in zip(indices, seeds, bmv_coefficients(A, B, p)):
            rows[t] = _coefficient_row(p, n, seed, coeffs, tol)
    return CoefficientReport(rows=tuple(rows), tol=tol)
