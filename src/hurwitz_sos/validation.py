"""Seeded cross-validation of exact certificates against word-sum traces.

Two runners.  The certificate runner draws random PSD pairs, evaluates a
verified certificate as an explicit sum of squares, and compares against
the word-sum trace ``numeric.trace_hurwitz_numeric``.  The coefficient
runner samples PSD pairs and checks that every word-sum trace for
r = 0..p is nonnegative up to roundoff.  Both emit one record per trial so failures are
reproducible from the recorded seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, List, Optional, Tuple

import numpy as np

from .certificate import Certificate
from .words import check_degrees
from .numeric import (
    bmv_coefficients,
    derive_seed,
    eval_certificate_numeric,
    random_psd,
    trace_hurwitz_numeric,
)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class TrialConfig:
    """Shared knobs for the trial runners.

    ``trials`` counts random trials per dimension for the certificate
    runner and total trials (cycled over the dimensions) for the
    coefficient runner.
    """

    seed: int = 0
    dims: Tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    trials: int = 100
    tol_rel: float = 1e-8

    def __post_init__(self) -> None:
        if not _is_int(self.trials) or self.trials < 1:
            raise ValueError("trials must be a positive integer")
        if not self.tol_rel > 0:
            raise ValueError("tol_rel must be positive")
        if not self.dims or any(not _is_int(n) or n < 1 for n in self.dims):
            raise ValueError("dims must be positive integers")


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
class TrialReport:
    rows: Tuple[TrialRow, ...]
    tol_rel: float

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def failures(self) -> Tuple[TrialRow, ...]:
        return tuple(row for row in self.rows if not row.passed)

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
    cert: Certificate, A, B, n: int, label: str, tol_rel: float
) -> TrialRow:
    oracle = trace_hurwitz_numeric(A, B, cert.p, cert.r)
    value = eval_certificate_numeric(cert, A, B)
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


def identity_word_sum(p: int, r: int, n: int) -> float:
    """Word-sum trace at A = B = I_n: every word contributes n."""
    return float(comb(p, r) * n)


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
    rows: List[TrialRow] = []

    A = np.array([[2.0]], dtype=np.complex128)
    B = np.array([[3.0]], dtype=np.complex128)
    rows.append(_trial_row(cert, A, B, 1, "scalar(2,3)", config.tol_rel))

    for n in config.dims:
        eye = np.eye(n, dtype=np.complex128)
        rows.append(_trial_row(cert, eye, eye, n, "identity", config.tol_rel))

    counter = 0
    for n in config.dims:
        for _ in range(config.trials):
            trial_seed = config.seed + counter
            counter += 1
            A = random_psd(n, derive_seed(trial_seed, 0))
            B = random_psd(n, derive_seed(trial_seed, 1))
            rows.append(
                _trial_row(cert, A, B, n, str(trial_seed), config.tol_rel)
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
class CoefficientReport:
    rows: Tuple[CoefficientRow, ...]
    tol: float

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def failures(self) -> Tuple[CoefficientRow, ...]:
        return tuple(row for row in self.rows if not row.passed)

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


def coefficient_trial(p: int, n: int, trial_seed: int, tol: float) -> CoefficientRow:
    """Sample one PSD pair and check all p+1 coefficients for nonnegativity."""
    A = random_psd(n, derive_seed(trial_seed, 0))
    B = random_psd(n, derive_seed(trial_seed, 1))
    coeffs = bmv_coefficients(A, B, p)
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
    its PSD pair, so any failure can be replayed exactly.
    """
    check_degrees(p, 0)
    config = config or TrialConfig(dims=(2, 3, 4))
    rows = []
    for t in range(config.trials):
        n = config.dims[t % len(config.dims)]
        rows.append(coefficient_trial(p, n, config.seed + t, tol))
    return CoefficientReport(rows=tuple(rows), tol=tol)
